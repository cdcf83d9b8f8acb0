"""Parallel executors: fused stage pipeline, data-parallel fast paths,
and deterministic task-parallel branching.

All executors here are required to agree bit-exactly with the sequential
reference ``eval_psi_ref``, on the output list and on the final state
store. Determinism comes from structure, not luck:

* The pipeline cuts a segment into at most ``workers`` contiguous groups
  of letters (stage fusion). A group pushes each element through all of
  its letters before handing it on, and exclusively owns those letters'
  state slots, so the value/state produced for the i-th element of any
  stage depends only on upstream FIFO order, never on scheduling. The
  calling thread runs the first group; the last group writes the output
  list; the groups between are linked by bounded FIFO channels that
  carry batches of elements.
* Batches are adaptive: a group hands over its buffer as soon as the
  next channel is empty, when the buffer reaches ``_BATCH`` elements, or
  when its own input batch ends. It never waits for a batch to fill, so
  slow (sleep-bound) stages still pass elements on one at a time while
  fast ones amortise the hand-off. Channel capacity counts batches.
* The final state of every letter is read back from its group once all
  groups have finished, and merged into the store.
* The read-only and product fast paths split their map into contiguous
  chunks (stateless fission), one per worker, and concatenate the
  results in order.
* Branch execution records the inl/inr order of the split as a flag list
  and uses it to rebuild the merged list, so the two branch evaluations
  can run concurrently without reordering anything.

Words with repeated letters cannot be pipelined in one piece; they run
segment by segment (a barrier between segments), with each duplicate-free
segment pipelined on its own.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import mutations
from .composition import (
    Word,
    _check_input_list,
    _element_steps,
    _run_element,
    eval_psi_ref,
    map_letter,
    segment_word,
    smap_check,
    validate_word,
)
from .errors import (
    ChannelClosed,
    ExecutionError,
    FlagMismatch,
    PortTypeError,
    RepeatedLetter,
    RepeatedLetterInSegment,
    ValidationError,
)
from .model import Multigraph, StageKind, StateStore, ThreadSpec, expect_port, stepper
from .values import PortType, Tag, TypeKind, Value, sum_of, v_inl, v_inr, v_list

_POLL = 0.05
# upper bound on the elements one channel message carries
_BATCH = 64


def classify_thread(spec: ThreadSpec) -> StageKind:
    """The declared execution class of a thread.

    Classification comes from the builtin registry hint; a thread without
    a hint is GENERAL. Sampling-based inference would be unsound (a
    finite sample cannot prove the state is never written), so no
    inference is attempted here.
    """
    return spec.kind


def run_data_parallel_readonly(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Map a read-only thread over a list; the state passes through.

    Every element sees the same state value, so the map is order
    independent and may fan out across ``workers`` threads.
    """
    if classify_thread(spec) is not StageKind.READ_ONLY:
        raise ValidationError(f"thread {spec.id} is not read-only")
    _check_elems(xs, spec)
    return v_list(spec.tgt, _readonly_map(spec, xs.payload, sigma, workers, check)), sigma


def run_data_parallel_product(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Evaluate a product thread as an ordinary map plus an iterated
    state update: the output never reads the state and the state never
    reads the elements, so the two halves are independent."""
    if classify_thread(spec) is not StageKind.PRODUCT:
        raise ValidationError(f"thread {spec.id} is not a product thread")
    _check_elems(xs, spec)
    out, state = _product_map(spec, xs.payload, sigma, workers, check)
    return v_list(spec.tgt, out), state


def _readonly_map(
    spec: ThreadSpec, items: Sequence[Value], sigma: Value, workers: int, check: bool
) -> List[Value]:
    step = stepper(spec, check)
    return _fission(lambda v: step(v, sigma)[0], items, workers)


def _product_map(
    spec: ThreadSpec, items: Sequence[Value], sigma: Value, workers: int, check: bool
) -> Tuple[List[Value], Value]:
    out = _fission(spec.value_part, items, workers)
    state = sigma
    for y in out:
        state = spec.state_part(state)
        if check:
            expect_port(spec, "output", y, spec.tgt)
            expect_port(spec, "new state", state, spec.state_type)
    return out, state


def _fission(fn: Callable[[Value], Value], items: Sequence[Value], workers: int) -> List[Value]:
    """``[fn(v) for v in items]`` split into ``min(workers, len(items))``
    contiguous chunks, chunk 0 on the calling thread, concatenated in
    order. Sound only because ``fn`` reads no state that changes.

    A failing chunk re-raises its original exception; when several fail,
    the first chunk's wins, so the error does not depend on scheduling.
    """
    k = min(workers, len(items))
    if k <= 1:
        return [fn(v) for v in items]
    cuts = [len(items) * c // k for c in range(k + 1)]
    chunks: List[List[Value]] = [[] for _ in range(k)]
    failed: List[Optional[BaseException]] = [None] * k

    def run(c: int) -> None:
        try:
            chunks[c] = [fn(v) for v in items[cuts[c]:cuts[c + 1]]]
        except BaseException as exc:  # re-raised by the caller below
            failed[c] = exc

    threads = [threading.Thread(target=run, args=(c,)) for c in range(1, k)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for exc in failed:
        if exc is not None:
            raise exc
    return [y for chunk in chunks for y in chunk]


def _check_elems(xs: Value, spec: ThreadSpec) -> None:
    if xs.tag is not Tag.LIST:
        raise PortTypeError(f"expected a list value, got {xs!r}")
    if not xs.elem.compatible(spec.src):
        raise PortTypeError(
            f"list of {xs.elem.name} does not feed thread {spec.id} ({spec.src.name})"
        )


def split(xs: Value) -> Tuple[Value, Value, Tuple[bool, ...]]:
    """Partition a list of sum values, recording the injection order.

    Returns the left elements, the right elements (both order
    preserving), and one boolean per input element: True for a left
    injection, False for a right one.
    """
    if xs.tag is not Tag.LIST or xs.elem.kind is not TypeKind.SUM:
        raise PortTypeError(f"split needs a list of sum values, got {xs!r}")
    left_t, right_t = xs.elem.args
    lefts: List[Value] = []
    rights: List[Value] = []
    flags: List[bool] = []
    for v in xs.payload:
        if v.tag is Tag.SUML:
            lefts.append(v.payload)
            flags.append(True)
        elif v.tag is Tag.SUMR:
            rights.append(v.payload)
            flags.append(False)
        else:
            raise PortTypeError(f"non-sum element {v!r} in split input")
    return v_list(left_t, lefts), v_list(right_t, rights), tuple(flags)


def join(bs: Value, cs: Value, flags: Tuple[bool, ...]) -> Value:
    """Inverse of ``split`` given the recorded flags."""
    if bs.tag is not Tag.LIST or cs.tag is not Tag.LIST:
        raise PortTypeError("join needs two list values")
    out: List[Value] = []
    i = j = 0
    lefts, rights = bs.payload, cs.payload
    for flag in flags:
        if flag:
            if i >= len(lefts):
                raise FlagMismatch(f"flag {len(out)} demands a left element but none remain")
            out.append(v_inl(lefts[i]))
            i += 1
        else:
            if j >= len(rights):
                raise FlagMismatch(f"flag {len(out)} demands a right element but none remain")
            out.append(v_inr(rights[j]))
            j += 1
    if i != len(lefts) or j != len(rights):
        raise FlagMismatch("flags exhausted before both sides were consumed")
    return v_list(sum_of(bs.elem, cs.elem), out)


def _join_ignoring_flags(bs: Value, cs: Value, flags: Tuple[bool, ...]) -> Value:
    # Deliberate fault for the mutation harness: drops the recorded order.
    out = [v_inl(v) for v in bs.payload] + [v_inr(v) for v in cs.payload]
    return v_list(sum_of(bs.elem, cs.elem), out)


def _chan_get(q: "queue.Queue", abort: threading.Event):
    while True:
        try:
            return q.get(timeout=_POLL)
        except queue.Empty:
            if abort.is_set():
                raise ChannelClosed("pipeline aborted") from None


def _chan_put(q: "queue.Queue", item, abort: threading.Event) -> None:
    while True:
        try:
            q.put(item, timeout=_POLL)
            return
        except queue.Full:
            if abort.is_set():
                raise ChannelClosed("pipeline aborted") from None


def _pipeline_segment(
    graph: Multigraph,
    letters: Tuple[int, ...],
    values: List[Value],
    slots: Dict[int, Value],
    workers: int,
    capacity: int,
    check: bool,
) -> Tuple[List[Value], Dict[int, Value]]:
    if len(set(letters)) != len(letters) and not mutations.enabled(
        "segment-barrier-removed"
    ):
        raise RepeatedLetterInSegment(f"segment {letters} repeats a letter")
    if mutations.enabled("stage-order-swapped") and len(letters) >= 2:
        letters = (letters[1], letters[0]) + letters[2:]
    keep_state = not mutations.enabled("state-update-dropped")

    n_groups = min(workers, len(letters))
    cuts = [len(letters) * g // n_groups for g in range(n_groups + 1)]
    groups = [letters[cuts[g]:cuts[g + 1]] for g in range(n_groups)]
    # states[g][i] is the private state of the i-th letter of group g; each
    # group's list is written only by the thread that runs that group
    states = [[slots[n] for n in group] for group in groups]
    chans = [queue.Queue(maxsize=capacity) for _ in range(n_groups - 1)]
    abort = threading.Event()
    errors: List[BaseException] = []
    out: List[Value] = []

    def inbox(q: "queue.Queue"):
        while True:
            batch = _chan_get(q, abort)
            if batch is None:
                return
            yield batch

    def run_group(g: int, batches) -> None:
        steps = list(enumerate(stepper(graph.edges[n], check) for n in groups[g]))
        st = states[g]
        outq = chans[g] if g < n_groups - 1 else None
        for batch in batches:
            buf = out if outq is None else []
            for v in batch:
                for i, step in steps:
                    v, sigma = step(v, st[i])
                    if keep_state:
                        st[i] = sigma
                buf.append(v)
                # hand over as soon as the next group is idle, so a slow
                # stage never waits on a batch to fill
                if outq is not None and (len(buf) >= _BATCH or outq.empty()):
                    _chan_put(outq, buf, abort)
                    buf = []
            if outq is not None and buf:
                _chan_put(outq, buf, abort)
        if outq is not None:
            _chan_put(outq, None, abort)

    def guarded(g: int, batches) -> None:
        try:
            run_group(g, batches)
        except ChannelClosed:
            pass
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
            abort.set()

    threads = [
        threading.Thread(target=guarded, args=(g, inbox(chans[g - 1])))
        for g in range(1, n_groups)
    ]
    for t in threads:
        t.start()
    guarded(0, (values,))
    for t in threads:
        t.join()
    if errors:
        if not isinstance(errors[0], Exception):
            raise errors[0]
        raise ExecutionError("pipeline stage failed") from errors[0]
    new_slots = dict(slots)
    if not mutations.enabled("state-not-forwarded"):
        for group, st in zip(groups, states):
            new_slots.update(zip(group, st))
    return out, new_slots


def run_pipeline(
    graph: Multigraph,
    word: Word,
    xs: Value,
    state: StateStore,
    workers: int = 4,
    capacity: int = 16,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Pipelined list semantics: each segment is cut into at most
    ``workers`` contiguous groups of letters. The caller runs the first
    group and every other group gets a thread of its own; elements
    stream between groups in batches over bounded FIFO channels that
    hold ``capacity`` batches.

    Words with repeated letters run as consecutive duplicate-free
    segments with a barrier in between. Single-letter segments have no
    pipelining to offer and run as a plain sequential map. The result is
    bit-exactly that of ``eval_psi_ref``.
    """
    if workers < 1:
        raise ValidationError("workers must be a positive integer")
    vw = validate_word(graph, word)
    _check_input_list(xs, vw.src)

    if mutations.enabled("segment-barrier-removed"):
        segments: Tuple[Word, ...] = (word,)
    else:
        segments = segment_word(word).segments

    values = list(xs.payload)
    slots = state.as_dict()
    for seg in segments:
        if not seg.letters:
            continue
        if len(seg.letters) == 1:
            n = seg.letters[0]
            values, slots[n] = map_letter(graph.edges[n], values, slots[n], check)
        else:
            values, slots = _pipeline_segment(
                graph, seg.letters, values, slots, workers, capacity, check
            )
    return v_list(vw.tgt, values), StateStore(slots)


@dataclass(frozen=True)
class BranchProgram:
    """A produce/branch/consume shape over sum-typed values.

    ``producer`` ends in a sum vertex; ``left`` and ``right`` transform
    the two components; ``consumer`` starts from the sum of the branch
    results. The four words use pairwise-disjoint letter sets, so their
    state slots never alias.
    """

    producer: Word
    left: Word
    right: Word
    consumer: Word

    def words(self) -> Tuple[Word, ...]:
        return (self.producer, self.left, self.right, self.consumer)


@dataclass(frozen=True)
class ValidatedBranch:
    src: PortType
    tgt: PortType


def validate_branch(graph: Multigraph, prog: BranchProgram) -> ValidatedBranch:
    vp = validate_word(graph, prog.producer)
    vl = validate_word(graph, prog.left)
    vr = validate_word(graph, prog.right)
    vc = validate_word(graph, prog.consumer)
    if vp.tgt.kind is not TypeKind.SUM:
        raise ValidationError(f"producer must end at a sum vertex, got {vp.tgt.name}")
    if vl.src != vp.tgt.args[0]:
        raise ValidationError(
            f"left branch starts at {vl.src.name}, producer emits {vp.tgt.args[0].name}"
        )
    if vr.src != vp.tgt.args[1]:
        raise ValidationError(
            f"right branch starts at {vr.src.name}, producer emits {vp.tgt.args[1].name}"
        )
    merged = sum_of(vl.tgt, vr.tgt)
    if vc.src != merged:
        raise ValidationError(
            f"consumer starts at {vc.src.name}, branches produce {merged.name}"
        )
    seen: set = set()
    for w in prog.words():
        for n in w.letters:
            if n in seen:
                raise RepeatedLetter(n)
            seen.add(n)
    return ValidatedBranch(vp.src, vc.tgt)


WordEval = Callable[[Multigraph, Word, Value, StateStore], Tuple[Value, StateStore]]
Side = Callable[[], Tuple[Value, StateStore]]
JoinFn = Callable[[Value, Value, Tuple[bool, ...]], Value]


def _sides_in_sequence(left: Side, right: Side):
    return left(), right()


def _sides_concurrently(left: Side, right: Side):
    # the caller runs the left side while one thread runs the right; a
    # failure of the left side wins, as _fission re-raises chunk 0 first
    return tuple(_fission(lambda side: side(), (left, right), 2))


def _run_branch(
    graph: Multigraph,
    prog: BranchProgram,
    xs: Value,
    state: StateStore,
    word_eval: WordEval,
    sides: Callable[[Side, Side], Tuple[Tuple[Value, StateStore], ...]],
    join_fn: JoinFn,
) -> Tuple[Value, StateStore]:
    """The one branch driver: produce, split, run the two sides through
    ``sides``, merge their state slots, join by the flags, consume.

    The full store is handed to both branch evaluations; the final store
    takes each branch's slots from its own run, which is well defined
    because the letter sets are disjoint.
    """
    validate_branch(graph, prog)
    produced, st1 = word_eval(graph, prog.producer, xs, state)
    bs, cs, flags = split(produced)
    (bs2, st_left), (cs2, st_right) = sides(
        lambda: word_eval(graph, prog.left, bs, st1),
        lambda: word_eval(graph, prog.right, cs, st1),
    )
    merged = st1.copy()
    for n in prog.left.letters:
        merged.set(n, st_left.get(n))
    for n in prog.right.letters:
        merged.set(n, st_right.get(n))
    ds = join_fn(bs2, cs2, flags)
    return word_eval(graph, prog.consumer, ds, merged)


def eval_branch(
    graph: Multigraph,
    prog: BranchProgram,
    xs: Value,
    state: StateStore,
    word_eval: WordEval = eval_psi_ref,
) -> Tuple[Value, StateStore]:
    """Sequential branch semantics: produce, split, run both branches
    one after the other, join by the recorded flags, consume."""
    return _run_branch(graph, prog, xs, state, word_eval, _sides_in_sequence, join)


def eval_branch_elementwise(
    graph: Multigraph,
    prog: BranchProgram,
    xs: Value,
    state: StateStore,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Independent oracle for branch programs: route one element at a
    time through produce/branch/consume, threading the store.

    Never calls ``split``/``join``; agreement with ``eval_branch`` is the
    branch analogue of the stage/element reordering equivalence. Defined
    only when each word is duplicate-free.
    """
    vb = validate_branch(graph, prog)
    for w in prog.words():
        repeated = smap_check(w)
        if repeated:
            raise RepeatedLetter(min(repeated))
    _check_input_list(xs, vb.src)
    producer, left, right, consumer = (_element_steps(graph, w, check) for w in prog.words())
    slots = state.as_dict()
    out: List[Value] = []
    for x in xs.payload:
        y = _run_element(producer, x, slots)
        if y.tag is Tag.SUML:
            d_in = v_inl(_run_element(left, y.payload, slots))
        else:
            d_in = v_inr(_run_element(right, y.payload, slots))
        out.append(_run_element(consumer, d_in, slots))
    return v_list(vb.tgt, out), StateStore(slots)


def run_task_parallel_branch(
    graph: Multigraph,
    prog: BranchProgram,
    xs: Value,
    state: StateStore,
    workers: int = 4,
    capacity: int = 16,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Task-parallel branch execution: every word is pipelined, the two
    branch maps run concurrently on disjoint state slots, and the flag
    list restores the original element order at the join."""

    def word_eval(g: Multigraph, word: Word, items: Value, st: StateStore):
        return run_pipeline(g, word, items, st, workers, capacity, check)

    join_fn = _join_ignoring_flags if mutations.enabled("flags-ignored-in-join") else join
    return _run_branch(graph, prog, xs, state, word_eval, _sides_concurrently, join_fn)


def eval_auto_word(
    graph: Multigraph,
    word: Word,
    xs: Value,
    state: StateStore,
    workers: int = 1,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Stage-wise evaluation that takes the data-parallel shortcut for
    every read-only or product stage and falls back to the sequential map
    for general stages. Stages hand each other plain lists; the result is
    boxed and checked once, at the end."""
    vw = validate_word(graph, word)
    _check_input_list(xs, vw.src)
    slots = state.as_dict()
    values: Sequence[Value] = xs.payload
    for n in word.letters:
        spec = graph.edges[n]
        kind = classify_thread(spec)
        if kind is StageKind.READ_ONLY:
            values = _readonly_map(spec, values, slots[n], workers, check)
        elif kind is StageKind.PRODUCT:
            values, slots[n] = _product_map(spec, values, slots[n], workers, check)
        else:
            values, slots[n] = map_letter(spec, values, slots[n], check)
    return v_list(vw.tgt, values), StateStore(slots)
