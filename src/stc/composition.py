"""Words and branch programs over the thread multigraph, and their
sequential semantics.

A word is a composable path of thread ids. Letters are stored in
*application order*: ``Word((1, 4))`` applies thread 1 first, then
thread 4. Display follows the conventional right-to-left composition
order, so the same word prints as ``[4,1]``.

A branch program is the coproduct shape: a producer word ending at a sum
vertex, a left and a right word over its two components, and a consumer
word starting at the sum of their results. ``split`` partitions a list of
sum values by injection and records the flags; ``join`` merges two lists
back by them. ``parts`` names the parts of either shape, a word alone or
producer, ``(left, right)``, consumer, and ``endpoints`` validates either.

Three evaluators share one contract and must agree bit-exactly:

* ``eval_phi`` runs a single element through the whole word.
* ``eval_psi_ref`` is the canonical list semantics: each stage consumes
  the entire list before the next stage starts. On a branch program it
  splits the producer's output, runs each side on its own payloads and
  joins them by the flags (``run_route``).
* ``eval_interleaved`` recurses per element (head through the whole
  word, then the tail), which is only meaningful when no letter repeats.
  On a branch program it routes each element through the side its
  injection names, and never splits or joins. It serves as the
  independent oracle for the stage-wise reference. A failing run raises
  the first failure in element order, which need not be the one
  ``eval_psi_ref`` raises, the first in letter order.

The list evaluators take a word or a branch program; ``eval_branch`` and
``eval_branch_elementwise`` are the same two functions under their
branch names. Both walk a ``Route``, the steps of every part, built once
per plan: ``run_route`` maps a list through it, and ``walker`` compiles
its element walk, one function that takes an element through every part
with each letter's state in a closure cell, written back by ``settle``.
The walk runs as blocks of at most ``_BLOCK`` letters, each block's code
compiled once per length (``_block``). ``run_route`` maps each letter
with ``run_stagewise``, which runs a builtin's list kernel where the step
is the builtin's own unchecked kernel and ``map_letter`` otherwise. So
``seq``, a threadless ``pipeline`` or ``auto`` plan, a replica (whose
steps are wrapped, ``parallel._replica_step``) and the re-run of a failed
stream map lists and compile nothing, while ``interleaved``, ``eval_phi``
and a one-lane threaded stage build a walker on each run.

Every evaluator plans through ``planner``, the one place a mode becomes
an executor: it validates a shape once and plans it in any of ``MODES``
as a ``Plan``, the letters whose slots it uses, the source and target
types and a raw core ``core(items, slots) -> (items, slots)`` over raw
elements and a ``{thread id: raw state}`` dict it may update in place.
``pipeline`` and ``auto`` plan as ``seq`` where no thread can start, at
one worker or when no letter blocks; only a plan that can start one
takes its core from ``parallel``, loaded on the first such plan.
``run_boxed``, the one boxed edge, unboxes the input list and the plan's
slots once, runs the core and boxes the result once; ``stc run`` and
``stc check`` run the same plans on raw values.
"""

from __future__ import annotations

from functools import lru_cache, partial
from types import CellType, CodeType, FunctionType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    FlagMismatch,
    PathMismatch,
    PortTypeError,
    RepeatedLetter,
    UnknownThreadId,
    ValidationError,
)
from .model import (
    Multigraph,
    RawStep,
    StateStore,
    boxed_store,
    list_kernel,
    raw_slots,
    raw_step,
)
from .values import (
    Inl,
    Inr,
    PortType,
    Record,
    Tag,
    TypeKind,
    Value,
    box_list,
    boxer,
    sum_of,
    unboxer,
)

Slots = Dict[int, Any]
# the letters of a word, each with its raw step, in application order
Steps = List[Tuple[int, RawStep]]
Core = Callable[[Sequence[Any], Slots], Tuple[Sequence[Any], Slots]]


class Word(Record):
    """A path in the multigraph, or the empty path anchored at a vertex."""

    __slots__ = ("letters", "anchor")

    def __init__(self, letters: Tuple[int, ...] = (), anchor: Optional[PortType] = None):
        self.letters, self.anchor = letters, anchor

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


def validate_word(graph: Multigraph, word: Word) -> Tuple[PortType, PortType]:
    """Check that consecutive letters compose; the word's source and
    target types."""
    if not word.letters:
        if word.anchor is None:
            raise ValidationError("empty word needs an anchor vertex")
        return word.anchor, word.anchor
    for n in word.letters:
        if n not in graph.edges:
            raise UnknownThreadId(n)
    for i in range(len(word.letters) - 1):
        produced = graph.tgt(word.letters[i])
        required = graph.src(word.letters[i + 1])
        if produced != required:
            raise PathMismatch(i + 1, produced, required)
    return graph.src(word.letters[0]), graph.tgt(word.letters[-1])


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


def segment_word(word: Word) -> Tuple[Word, ...]:
    """Greedy split into maximal duplicate-free segments, in application
    order: concatenated they reproduce the word, and no segment repeats a
    letter.

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
    return tuple(segments)


class BranchProgram(Record):
    """A produce/branch/consume shape over sum-typed values.

    ``producer`` ends in a sum vertex; ``left`` and ``right`` transform
    the two components; ``consumer`` starts from the sum of the branch
    results. The four words use pairwise-disjoint letter sets, so their
    state slots never alias.
    """

    __slots__ = ("producer", "left", "right", "consumer")

    def __init__(self, producer: Word, left: Word, right: Word, consumer: Word):
        self.producer, self.left, self.right, self.consumer = producer, left, right, consumer

    def words(self) -> Tuple[Word, ...]:
        return (self.producer, self.left, self.right, self.consumer)

    @property
    def letters(self) -> Tuple[int, ...]:
        return tuple(n for w in self.words() for n in w.letters)


# what every list evaluator runs: a word or a branch program
Shape = Union[Word, BranchProgram]
# a part of a shape: a word, or a branch's (left, right) sides
Part = Union[Word, Tuple[Word, Word]]
# a walk over the parts of a shape: a word's steps (a list), or the
# (left, right) steps of a branch's sides (a tuple)
Route = List[Union[Steps, Tuple[Steps, Steps]]]


def validate_branch(graph: Multigraph, prog: BranchProgram) -> Tuple[PortType, PortType]:
    """Check the four words and how they meet; the branch's source and
    target types."""
    psrc, ptgt = validate_word(graph, prog.producer)
    lsrc, ltgt = validate_word(graph, prog.left)
    rsrc, rtgt = validate_word(graph, prog.right)
    csrc, ctgt = validate_word(graph, prog.consumer)
    if ptgt.kind is not TypeKind.SUM:
        raise ValidationError(f"producer must end at a sum vertex, got {ptgt.name}")
    if lsrc != ptgt.args[0]:
        raise ValidationError(
            f"left branch starts at {lsrc.name}, producer emits {ptgt.args[0].name}"
        )
    if rsrc != ptgt.args[1]:
        raise ValidationError(
            f"right branch starts at {rsrc.name}, producer emits {ptgt.args[1].name}"
        )
    merged = sum_of(ltgt, rtgt)
    if csrc != merged:
        raise ValidationError(
            f"consumer starts at {csrc.name}, branches produce {merged.name}"
        )
    seen: set = set()
    for n in prog.letters:
        if n in seen:
            raise RepeatedLetter(n)
        seen.add(n)
    return psrc, ctgt


def parts(shape: Shape) -> Tuple[Part, ...]:
    """The parts of ``shape`` in order: a word alone, or a branch's
    producer, its ``(left, right)`` sides and its consumer."""
    if isinstance(shape, BranchProgram):
        return (shape.producer, (shape.left, shape.right), shape.consumer)
    return (shape,)


def endpoints(graph: Multigraph, shape: Shape) -> Tuple[PortType, PortType]:
    """The source and target types of a validated word or branch."""
    if isinstance(shape, BranchProgram):
        return validate_branch(graph, shape)
    return validate_word(graph, shape)


def check_feeds(elem: PortType, src: PortType) -> None:
    """Raise ``PortTypeError`` unless input elements of type ``elem`` feed
    a ``src`` source."""
    if not elem.compatible(src):
        raise PortTypeError(f"input element type {elem.name} does not feed a {src.name} source")


def _is_list(xs: Any) -> bool:
    """Whether ``xs`` is a list ``Value``."""
    return isinstance(xs, Value) and xs.tag is Tag.LIST


def unbox_input(xs: Value, src: PortType) -> List[Any]:
    """The raw elements of the input list ``xs`` for a ``src`` source."""
    if not _is_list(xs):
        raise PortTypeError(f"expected a list value, got {xs!r}")
    check_feeds(xs.elem, src)
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
    """The one boxed edge, of every list evaluator and fast path: unbox
    ``xs`` and the slots of the plan's letters, run its core, box the result."""
    items, slots = plan.core(unbox_input(xs, plan.src), raw_slots(graph, state, plan.letters))
    return box_list(plan.tgt, items), boxed_store(graph, state, slots)


def _split(items: Sequence[Any]) -> Tuple[List[Any], List[Any], List[bool]]:
    """The inl payloads, the inr payloads and one flag per element, True
    for an inl, in one pass over raw sum elements."""
    lefts: List[Any] = []
    rights: List[Any] = []
    flags: List[bool] = []
    for v in items:
        if type(v) is Inl:
            lefts.append(v.value)
            flags.append(True)
        else:
            rights.append(v.value)
            flags.append(False)
    return lefts, rights, flags


def _join(lefts: Sequence[Any], rights: Sequence[Any], flags: Sequence[bool]) -> List[Any]:
    out: List[Any] = []
    i = j = 0
    for flag in flags:
        if flag:
            if i >= len(lefts):
                raise FlagMismatch(f"flag {len(out)} demands a left element but none remain")
            out.append(Inl(lefts[i]))
            i += 1
        else:
            if j >= len(rights):
                raise FlagMismatch(f"flag {len(out)} demands a right element but none remain")
            out.append(Inr(rights[j]))
            j += 1
    if i != len(lefts) or j != len(rights):
        raise FlagMismatch("flags exhausted before both sides were consumed")
    return out


def split(xs: Value) -> Tuple[Value, Value, Tuple[bool, ...]]:
    """Partition a list of sum values, recording the injection order.

    Returns the left elements, the right elements (both order
    preserving), and one boolean per input element: True for a left
    injection, False for a right one.
    """
    if not _is_list(xs) or xs.elem.kind is not TypeKind.SUM:
        raise PortTypeError(f"split needs a list of sum values, got {xs!r}")
    left_t, right_t = xs.elem.args
    lefts, rights, flags = _split(unbox_input(xs, xs.elem))
    return box_list(left_t, lefts), box_list(right_t, rights), tuple(flags)


def join(bs: Value, cs: Value, flags: Tuple[bool, ...]) -> Value:
    """Inverse of ``split`` given the recorded flags."""
    if not (_is_list(bs) and _is_list(cs)):
        raise PortTypeError("join needs two list values")
    out = _join(unbox_input(bs, bs.elem), unbox_input(cs, cs.elem), flags)
    return box_list(sum_of(bs.elem, cs.elem), out)


def map_letter(step: RawStep, values: Sequence[Any], sigma: Any) -> Tuple[List[Any], Any]:
    """One stage of the list semantics: map a raw step over the values,
    threading its private state from element to element."""
    staged = []
    append = staged.append
    for v in values:
        v, sigma = step(v, sigma)
        append(v)
    return staged, sigma


def run_stagewise(steps: Steps, slots: Slots, values: Sequence[Any]) -> Sequence[Any]:
    """The list twin of a word's ``walker``: each letter maps over the whole
    list before the next letter runs, updating ``slots`` in place. A step
    that is a builtin's own unchecked kernel runs as its list kernel
    (``model.list_kernel``), one comprehension per letter; any other step,
    a checked one included, runs through ``map_letter``."""
    for n, step in steps:
        over = list_kernel(step)
        if over is None:
            values, slots[n] = map_letter(step, values, slots[n])
        else:
            values, slots[n] = over(values, slots[n])
    return values


def eval_phi(
    graph: Multigraph, word: Word, x: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Single-element semantics: apply each letter's transfer in order.

    Only the state slots named in the word can change; the empty word is
    the identity.
    """
    src, tgt = validate_word(graph, word)
    if not (isinstance(x, Value) and x.matches(src)):
        raise PortTypeError(f"input {x!r} is not a {src.name}")
    slots = raw_slots(graph, state, word.letters)
    each, settle = walker(route_of(graph, (word,), check), slots)
    try:
        y = each(unboxer(src)(x))
    finally:
        settle()
    return boxer(tgt)(y), boxed_store(graph, state, slots)


def route_of(graph: Multigraph, parts: Sequence[Part], check: bool = False) -> Route:
    """The steps of each of ``parts`` in order: a word's, or the
    ``(left, right)`` steps of a branch's sides."""

    def steps(word: Word) -> Steps:
        return [(n, raw_step(graph.edges[n], check)) for n in word.letters]

    return [steps(p) if isinstance(p, Word) else (steps(p[0]), steps(p[1])) for p in parts]


def run_route(route: Route, slots: Slots, values: Sequence[Any]) -> Sequence[Any]:
    """The list twin of ``walker``, the one branch walker of the
    stage-wise evaluators: each part maps over the whole list in turn. At
    the sides the list is split, the left steps map over the inl payloads
    and the right ones over the inr ones, and the results are joined by
    the flags; the sides' letter sets are disjoint, so each changes only
    its own slots."""
    for part in route:
        if type(part) is list:
            values = run_stagewise(part, slots, values)
        else:
            lefts, rights, flags = _split(values)
            values = _join(
                run_stagewise(part[0], slots, lefts), run_stagewise(part[1], slots, rights), flags
            )
    return values


# the most letters one compiled block holds: a longer word part chains
# blocks, since a straight-line function compiles in time quadratic in
# its length
_BLOCK = 16


@lru_cache(maxsize=_BLOCK)
def _block(k: int) -> Tuple[CodeType, Tuple[int, ...]]:
    """The code of an element function over ``k`` letters, ``v, s0 =
    k0(v, s0)`` and so on, and where each of its free variables sits in
    ``[k0, ..., s0, ...]``. The source holds nothing but indices below
    ``k``: kernels and states enter only as closure cells (``walker``)."""
    states = [f"s{i}" for i in range(k)]
    cells = " = ".join(states + [f"k{i}" for i in range(k)])
    steps = "".join(f"\n        v, s{i} = k{i}(v, s{i})" for i in range(k))
    scope: Dict[str, Any] = {}
    exec(
        f"def block():\n    {cells} = None\n    def each(v):\n"
        f"        nonlocal {', '.join(states)}{steps}\n        return v\n    return each",
        scope,
    )
    code = scope["block"]().__code__
    return code, tuple(int(name[1:]) + (k if name[0] == "s" else 0) for name in code.co_freevars)


def _then(fns: List[Callable[[Any], Any]]) -> Optional[Callable[[Any], Any]]:
    """``fns`` applied in order, or None for no function."""
    if len(fns) <= 1:
        return fns[0] if fns else None

    def each(v: Any) -> Any:
        for f in fns:
            v = f(v)
        return v

    return each


def _fork(
    left: Optional[Callable[[Any], Any]], right: Optional[Callable[[Any], Any]]
) -> Optional[Callable[[Any], Any]]:
    """A branch's sides: an element through the side its injection names,
    in the same injection; an element whose side is None passes as it is."""
    if left is None and right is None:
        return None

    def each(v: Any) -> Any:
        if type(v) is Inl:
            return v if left is None else Inl(left(v.value))
        return v if right is None else Inr(right(v.value))

    return each


def walker(route: Route, slots: Slots) -> Tuple[Callable[[Any], Any], Callable[[], None]]:
    """The element walk of ``route`` over ``slots``: ``each(v)`` takes one
    element through every part, a word's steps or at the sides the steps
    of the side its injection names, and ``settle()`` writes every
    letter's state back into ``slots``. Each letter's state is one closure
    cell, which every block holding the letter shares, so a repeated
    letter threads one state. A word part runs as blocks of at most
    ``_BLOCK`` letters (``_block``). Callers run ``settle`` in a
    ``finally``: after a failure each slot holds its letter's state after
    its last completed step."""
    cells: Dict[int, CellType] = {}

    def walk(steps: Steps) -> Optional[Callable[[Any], Any]]:
        blocks = []
        for i in range(0, len(steps), _BLOCK):
            chunk = steps[i:i + _BLOCK]
            for n, _ in chunk:
                if n not in cells:
                    cells[n] = CellType(slots[n])
            code, where = _block(len(chunk))
            free = [CellType(step) for _, step in chunk] + [cells[n] for n, _ in chunk]
            blocks.append(FunctionType(code, {}, None, None, tuple(free[j] for j in where)))
        return _then(blocks)

    each = _then([
        f for f in (walk(p) if type(p) is list else _fork(walk(p[0]), walk(p[1])) for p in route)
        if f is not None
    ])

    def settle() -> None:
        for n, cell in cells.items():
            slots[n] = cell.cell_contents

    return each or _same, settle


def _same(v: Any) -> Any:
    return v


def _psi(route: Route, items: Sequence[Any], slots: Slots) -> Tuple[Sequence[Any], Slots]:
    return run_route(route, slots, items), slots


def _interleaved(route: Route, items: Sequence[Any], slots: Slots) -> Tuple[List[Any], Slots]:
    each, settle = walker(route, slots)
    try:
        return [each(v) for v in items], slots
    finally:
        settle()


# the four ways to run a shape, every one planned by ``planner``
MODES = ("seq", "interleaved", "pipeline", "auto")

# The most workers a run may ask for. Each worker past the first may be
# a thread, so a bound keeps hostile input away from the OS thread limit;
# under the GIL more threads than blocking lanes gain nothing.
MAX_WORKERS = 64


@lru_cache(maxsize=None)
def _stream_planner() -> Callable:
    """``parallel.stream_planner``, imported on the first threaded plan."""
    from .parallel import stream_planner

    return stream_planner


def planner(
    graph: Multigraph, shape: Shape, capacity: int = 16, check: bool = False
) -> Callable[..., Plan]:
    """The one place a mode becomes an executor, and the one place that
    decides whether a plan can start a thread: ``plan(mode, workers=1)``
    plans ``shape`` in one of ``MODES``, else raises ``ValueError``. The
    first plan validates the shape and builds its reference route, which
    ``seq`` and ``interleaved`` run. ``pipeline`` and ``auto`` check
    ``workers`` against ``MAX_WORKERS``; at one worker, or when no letter
    blocks, nothing can overlap and they run ``seq``'s core, else
    ``parallel.stream_planner``'s. ``interleaved`` rejects a word's
    repeated letter before its path is checked."""
    src = tgt = route = streams = None

    def plan(mode: str, workers: int = 1) -> Plan:
        nonlocal src, tgt, route, streams
        if mode == "interleaved" and isinstance(shape, Word):
            # a branch's repeats are rejected by ``validate_branch``, after its paths
            repeated = smap_check(shape)
            if repeated:
                raise RepeatedLetter(min(repeated))
        if route is None:
            src, tgt = endpoints(graph, shape)
            route = route_of(graph, parts(shape), check)
        if mode == "pipeline" or mode == "auto":
            if workers < 1:
                raise ValidationError("workers must be a positive integer")
            if workers > MAX_WORKERS:
                raise ValidationError(f"workers must be at most {MAX_WORKERS}")
            if workers == 1 or not any(graph.edges[n].blocking for n in shape.letters):
                core = partial(_psi, route)  # nothing can overlap: seq's plan
            else:
                if streams is None:
                    streams = _stream_planner()(graph, shape, capacity, check)
                core = streams(mode, workers)
        elif mode == "seq" or mode == "interleaved":
            core = partial(_psi if mode == "seq" else _interleaved, route)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return Plan(shape.letters, src, tgt, core)

    return plan


def eval_psi_ref(
    graph: Multigraph, word: Shape, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Stage-wise list semantics, the canonical reference result.

    The first letter maps over the whole list (threading its private
    state element to element) before the second letter runs, and so on.
    A branch program runs its producer, splits, runs the left side and
    then the right one, joins by the recorded flags and runs its consumer.
    """
    return run_boxed(graph, xs, state, planner(graph, word, check=check)("seq"))


def eval_interleaved(
    graph: Multigraph, word: Shape, xs: Value, state: StateStore, check: bool = False
) -> Tuple[Value, StateStore]:
    """Element-wise semantics: head through the whole word, then the tail.

    Defined only for words whose letters are pairwise distinct; agreement
    with ``eval_psi_ref`` on that domain is the executable content of the
    stage/element reordering argument that licenses pipelining. The word
    is validated and the store copied once, not once per element.

    A branch program routes one element at a time through producer, the
    side its injection names, and consumer, and never splits or joins;
    this is defined on every valid branch, since ``validate_branch``
    rejects a letter that repeats anywhere in the four words.
    """
    return run_boxed(graph, xs, state, planner(graph, word, check=check)("interleaved"))


# the branch names of the two list evaluators
eval_branch = eval_psi_ref
eval_branch_elementwise = eval_interleaved
