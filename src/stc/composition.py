"""Words over the thread multigraph and their sequential semantics.

A word is a composable path of thread ids. Letters are stored in
*application order*: ``Word((1, 4))`` applies thread 1 first, then
thread 4. Display follows the conventional right-to-left composition
order, so the same word prints as ``[4,1]``.

Three evaluators share one contract and must agree bit-exactly:

* ``eval_phi`` runs a single element through the whole word.
* ``eval_psi_ref`` is the canonical list semantics: each stage consumes
  the entire list before the next stage starts.
* ``eval_interleaved`` recurses per element (head through the whole
  word, then the tail), which is only meaningful when no letter repeats.
  It serves as the independent oracle for the stage-wise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (
    PathMismatch,
    PortTypeError,
    RepeatedLetter,
    UnknownThreadId,
    ValidationError,
)
from .model import Multigraph, StateStore, ThreadSpec, TransferFn, stepper
from .values import PortType, Tag, Value, v_list


@dataclass(frozen=True)
class Word:
    """A path in the multigraph, or the empty path anchored at a vertex."""

    letters: Tuple[int, ...] = ()
    anchor: Optional[PortType] = None

    def then(self, later: "Word") -> "Word":
        """Compose: apply ``self`` first, then ``later``."""
        letters = self.letters + later.letters
        if letters:
            return Word(letters)
        return Word((), self.anchor)

    def __str__(self) -> str:
        if not self.letters:
            return f"ε@{self.anchor.name if self.anchor else '?'}"
        return "[" + ",".join(str(n) for n in reversed(self.letters)) + "]"


@dataclass(frozen=True)
class ValidatedWord:
    word: Word
    src: PortType
    tgt: PortType


@dataclass(frozen=True)
class WordSegmentation:
    """Maximal duplicate-free runs of a word, in application order.

    Concatenating the segments in order reproduces the original word, and
    every segment has pairwise-distinct letters.
    """

    segments: Tuple[Word, ...]


def validate_word(graph: Multigraph, word: Word) -> ValidatedWord:
    """Check that consecutive letters compose and resolve the endpoints."""
    if not word.letters:
        if word.anchor is None:
            raise ValidationError("empty word needs an anchor vertex")
        return ValidatedWord(word, word.anchor, word.anchor)
    for n in word.letters:
        if n not in graph.edges:
            raise UnknownThreadId(n)
    for i in range(len(word.letters) - 1):
        produced = graph.tgt(word.letters[i])
        required = graph.src(word.letters[i + 1])
        if produced != required:
            raise PathMismatch(i + 1, produced, required)
    return ValidatedWord(word, graph.src(word.letters[0]), graph.tgt(word.letters[-1]))


def smap_check(word: Word) -> frozenset:
    """Letters occurring more than once; empty means the whole word can be
    list-lifted (and pipelined) in one piece."""
    seen = set()
    repeated = set()
    for n in word.letters:
        if n in seen:
            repeated.add(n)
        seen.add(n)
    return frozenset(repeated)


def segment_word(word: Word) -> WordSegmentation:
    """Greedy split into maximal duplicate-free segments.

    The greedy scan runs from the first-applied end, so the earliest
    segment is as long as possible. A word without repeats (including the
    empty word) yields exactly one segment.
    """
    segments: List[Word] = []
    current: List[int] = []
    seen = set()
    for n in word.letters:
        if n in seen:
            segments.append(Word(tuple(current)))
            current = [n]
            seen = {n}
        else:
            current.append(n)
            seen.add(n)
    segments.append(Word(tuple(current), word.anchor if not current else None))
    return WordSegmentation(tuple(segments))


def _check_input_list(xs: Value, src: PortType) -> None:
    if xs.tag is not Tag.LIST:
        raise PortTypeError(f"expected a list value, got {xs!r}")
    if not xs.elem.compatible(src):
        raise PortTypeError(
            f"input element type {xs.elem.name} does not feed a {src.name} source"
        )


def map_letter(
    spec: ThreadSpec, values: Iterable[Value], sigma: Value, check: bool = False
) -> Tuple[List[Value], Value]:
    """One stage of the list semantics: map a thread over the values,
    threading its private state from element to element."""
    step = stepper(spec, check)
    staged = []
    append = staged.append
    for v in values:
        v, sigma = step(v, sigma)
        append(v)
    return staged, sigma


def _element_steps(graph: Multigraph, word: Word, check: bool) -> List[Tuple[int, TransferFn]]:
    return [(n, stepper(graph.edges[n], check)) for n in word.letters]


def _run_element(steps: List[Tuple[int, TransferFn]], slots: Dict[int, Value], v: Value) -> Value:
    """One element through every letter, updating ``slots`` in place."""
    for n, step in steps:
        v, slots[n] = step(v, slots[n])
    return v


def eval_phi(
    graph: Multigraph, word: Word, x: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Single-element semantics: apply each letter's transfer in order.

    Only the state slots named in the word can change; the empty word is
    the identity.
    """
    vw = validate_word(graph, word)
    if check and not x.matches(vw.src):
        raise PortTypeError(f"input {x!r} is not a {vw.src.name}")
    slots = state.as_dict()
    y = _run_element(_element_steps(graph, word, check), slots, x)
    return y, StateStore(slots)


def eval_psi_ref(
    graph: Multigraph, word: Word, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Stage-wise list semantics, the canonical reference result.

    The first letter maps over the whole list (threading its private
    state element to element) before the second letter runs, and so on.
    """
    vw = validate_word(graph, word)
    _check_input_list(xs, vw.src)
    out = state.copy()
    values = list(xs.payload)
    for n in word.letters:
        values, sigma = map_letter(graph.edges[n], values, out.get(n), check)
        out.set(n, sigma)
    return v_list(vw.tgt, values), out


def eval_interleaved(
    graph: Multigraph, word: Word, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Element-wise semantics: head through the whole word, then the tail.

    Defined only for words whose letters are pairwise distinct; agreement
    with ``eval_psi_ref`` on that domain is the executable content of the
    stage/element reordering argument that licenses pipelining. The word
    is validated and the store copied once, not once per element.
    """
    repeated = smap_check(word)
    if repeated:
        raise RepeatedLetter(min(repeated))
    vw = validate_word(graph, word)
    _check_input_list(xs, vw.src)
    steps = _element_steps(graph, word, check)
    slots = state.as_dict()
    values = [_run_element(steps, slots, v) for v in xs.payload]
    return v_list(vw.tgt, values), StateStore(slots)
