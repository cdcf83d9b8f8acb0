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

Each public evaluator takes and returns boxed values. Its ``plan_*``
function validates and returns a ``Plan``: the letters whose slots it
uses, the source and target types, and a raw core
``core(items, slots) -> (items, slots)`` over raw elements and a
``{thread id: raw state}`` dict the core may update in place.
``run_boxed`` unboxes the input list and those slots once, runs the core
and boxes the result once; ``stc run`` runs the same plans without
boxing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    PathMismatch,
    PortTypeError,
    RepeatedLetter,
    UnknownThreadId,
    ValidationError,
)
from .model import Multigraph, RawStep, StateStore, boxed_store, raw_slots, raw_step
from .values import PortType, Tag, Value, box_list, boxer, unboxer

Slots = Dict[int, Any]
# the letters of a word, each with its raw step, in application order
Steps = List[Tuple[int, RawStep]]
Core = Callable[[Sequence[Any], Slots], Tuple[Sequence[Any], Slots]]


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


def unbox_input(xs: Value, src: PortType) -> List[Any]:
    """The raw elements of the input list ``xs`` for a ``src`` source."""
    if xs.tag is not Tag.LIST:
        raise PortTypeError(f"expected a list value, got {xs!r}")
    if not xs.elem.compatible(src):
        raise PortTypeError(
            f"input element type {xs.elem.name} does not feed a {src.name} source"
        )
    return list(map(unboxer(src), xs.payload))


class Plan:
    """A validated evaluation, ready to run on raw values. A plain class,
    like ``model.Kernel``."""

    __slots__ = ("letters", "src", "tgt", "core")

    def __init__(self, letters: Tuple[int, ...], src: PortType, tgt: PortType, core: Core):
        self.letters, self.src, self.tgt, self.core = letters, src, tgt, core


def run_boxed(
    graph: Multigraph, xs: Value, state: StateStore, plan: Plan
) -> Tuple[Value, StateStore]:
    """The edge of every list evaluator: unbox ``xs`` and the slots of the
    plan's letters, run its core on raw values, box the result."""
    items, slots = plan.core(unbox_input(xs, plan.src), raw_slots(graph, state, plan.letters))
    return box_list(plan.tgt, items), boxed_store(graph, state, slots)


def map_letter(step: RawStep, values: Sequence[Any], sigma: Any) -> Tuple[List[Any], Any]:
    """One stage of the list semantics: map a raw step over the values,
    threading its private state from element to element."""
    staged = []
    append = staged.append
    for v in values:
        v, sigma = step(v, sigma)
        append(v)
    return staged, sigma


def element_steps(graph: Multigraph, letters: Sequence[int], check: bool) -> Steps:
    return [(n, raw_step(graph.edges[n], check)) for n in letters]


def run_element(steps: Steps, slots: Slots, v: Any) -> Any:
    """One element through every letter, updating ``slots`` in place."""
    for n, step in steps:
        v, slots[n] = step(v, slots[n])
    return v


def run_stagewise(steps: Steps, slots: Slots, values: Sequence[Any]) -> Sequence[Any]:
    """The list twin of ``run_element``: each letter maps over the whole
    list before the next letter runs, updating ``slots`` in place."""
    for n, step in steps:
        values, slots[n] = map_letter(step, values, slots[n])
    return values


def eval_phi(
    graph: Multigraph, word: Word, x: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Single-element semantics: apply each letter's transfer in order.

    Only the state slots named in the word can change; the empty word is
    the identity.
    """
    vw = validate_word(graph, word)
    if not x.matches(vw.src):
        raise PortTypeError(f"input {x!r} is not a {vw.src.name}")
    slots = raw_slots(graph, state, word.letters)
    y = run_element(element_steps(graph, word.letters, check), slots, unboxer(vw.src)(x))
    return boxer(vw.tgt)(y), boxed_store(graph, state, slots)


def _psi(
    graph: Multigraph, word: Word, items: Sequence[Any], slots: Slots, check: bool = False
) -> Tuple[Sequence[Any], Slots]:
    return run_stagewise(element_steps(graph, word.letters, check), slots, items), slots


def _interleaved(
    graph: Multigraph, word: Word, items: Sequence[Any], slots: Slots, check: bool = False
) -> Tuple[List[Any], Slots]:
    steps = element_steps(graph, word.letters, check)
    return [run_element(steps, slots, v) for v in items], slots


def plan_psi(graph: Multigraph, word: Word, check: bool = False) -> Plan:
    vw = validate_word(graph, word)
    return Plan(word.letters, vw.src, vw.tgt, partial(_psi, graph, word, check=check))


def plan_interleaved(graph: Multigraph, word: Word, check: bool = False) -> Plan:
    repeated = smap_check(word)
    if repeated:
        raise RepeatedLetter(min(repeated))
    vw = validate_word(graph, word)
    return Plan(word.letters, vw.src, vw.tgt, partial(_interleaved, graph, word, check=check))


def eval_psi_ref(
    graph: Multigraph, word: Word, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Stage-wise list semantics, the canonical reference result.

    The first letter maps over the whole list (threading its private
    state element to element) before the second letter runs, and so on.
    """
    return run_boxed(graph, xs, state, plan_psi(graph, word, check))


def eval_interleaved(
    graph: Multigraph, word: Word, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Element-wise semantics: head through the whole word, then the tail.

    Defined only for words whose letters are pairwise distinct; agreement
    with ``eval_psi_ref`` on that domain is the executable content of the
    stage/element reordering argument that licenses pipelining. The word
    is validated and the store copied once, not once per element.
    """
    return run_boxed(graph, xs, state, plan_interleaved(graph, word, check))
