"""Parallel executors: fused stage pipeline, data-parallel fast paths,
and deterministic task-parallel branching. The shapes they run, the
coproduct's ``split`` and ``join`` and the reference evaluators live in
``composition``; this module holds only parallelism, and re-exports
``BranchProgram``, ``validate_branch``, ``split``, ``join`` and the
branch names of the references for its callers.

All executors here are required to agree bit-exactly with the sequential
reference ``eval_psi_ref``, on the output list and on the final state
store. Determinism comes from structure, not luck:

* Threads go only where stages block. Under the GIL two CPU-bound
  stages never run at the same time, so only a thread whose ``blocking``
  hint is set (a builtin that sleeps) can overlap with others. The
  pipeline cuts a segment by that hint (stage fusion, after StreamIt's
  partitioning): its blocking letters are spread over at most
  ``workers`` contiguous groups, and every other letter joins the group
  of the blocking letter before it, or the first group if none comes
  before it. A segment with no blocking letter is one group on the
  calling thread and starts no thread.
* Every stream stage maps a list to a list. A group maps its letters
  over its list one letter at a time (``run_stagewise``) and exclusively
  owns those letters' state slots in a ``{letter: state}`` dict of its
  own. For letters that do not repeat this equals pushing each element
  through all of them in turn, the equivalence that licenses
  pipelining. So a stream with one stage, such as every segment or
  branch that starts no thread, maps its whole input in one call, as
  ``seq`` does.
* In a stream of several stages the calling thread runs the first
  stage, the last one writes the output list, and bounded FIFO channels
  that carry batches of elements link them. Each stage is called once
  per element, so a slow stage hands each element on at once, and the
  value/state produced for the i-th element of any stage depends only on
  upstream FIFO order, never on scheduling, and never on the cut.
* Batches are adaptive: a stage hands over its buffer as soon as the
  next channel is empty, when the buffer reaches ``_BATCH`` elements, or
  when its own input batch ends. It never waits for a batch to fill, so
  slow (sleep-bound) stages still pass elements on one at a time while
  fast ones amortise the hand-off. Channel capacity counts batches.
* Shutdown is by sentinel alone; no channel operation polls or expires.
  Every stage closes its output channel with ``None``, also when it
  fails. A failing stage records its exception and drains its inbox to
  the sentinel; a stage that sees a recorded failure after a hand-off
  stops computing and drains too. Every consumer drains and every
  producer closes, so plain blocking puts and gets cannot hang.
* Stage (or chunk) threads come from a ``Crew`` and are handed their
  tasks from the last stage to the first. A bare run makes a crew per
  launch, so its threads start and are joined within the launch. Inside
  a ``with Crew():`` block, as ``stc check`` opens around its runs, a
  launch reuses the threads that earlier launches started; each thread
  serves one task at a time until the block ends, when every thread
  gets the ``None`` sentinel and is joined. If a thread cannot start,
  the first stage that did get one gets the sentinel, and the run raises
  ``ExecutionError`` once the handed tasks have finished. A run may ask
  for at most ``MAX_WORKERS`` workers.
* Once all groups have finished, their state dicts are merged back into
  the store.
* The read-only and product fast paths split their map into contiguous
  chunks (stateless fission), one per worker, and concatenate the
  results in order. ``auto`` fans out only blocking stages; the public
  fast paths honour the ``workers`` they are given.
* ``pipeline`` and ``auto`` take a word or a branch program. Every
  stream is built in one place (``_run_stream``) from a list of parts
  (``composition.parts``): a word, cut into groups as above, or a
  branch's (left, right) words, whose k-th groups form side stage k. A
  side stage splits its list, maps the left group over the inl payloads
  and the right one over the inr ones, and joins them back by the flags
  (``_split`` and ``_join``, as ``eval_psi_ref`` does on a branch), so
  FIFO order keeps the output in place. A
  stage that holds no blocking letter is fused into a neighbouring
  stage, so a stream with no blocking letter, like any stream at
  ``workers`` 1, is one stage on the calling thread.
* A branch program is one stream: producer, side, consumer. A word with
  repeated letters cannot be pipelined in one piece; it runs segment by
  segment (a barrier between segments), each duplicate-free segment a
  stream of its own. ``auto`` runs either shape through
  ``composition.fold``, as ``eval_psi_ref`` does, with ``auto``'s
  stage-wise map for each of its words.
* One failure rule holds in every mode and shape: a failing stage
  raises its own exception, and a thread that cannot start raises
  ``ExecutionError``.

Every executor here runs on raw values (see ``values``): elements, the
batches on the channels and the per-group state dicts hold no ``Value``.
The public functions box only at their edges through
``composition.run_boxed``.

Mutation hooks (see ``mutations``) live here only, so the references
stay free of them.
"""

from __future__ import annotations

import queue
import threading
from functools import partial
from itertools import zip_longest
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import mutations
from .composition import (  # the coproduct and the branch names are re-exported
    BranchProgram,
    Part,
    Plan,
    Shape,
    Slots,
    Word,
    _join,
    _split,
    element_steps,
    endpoints,
    eval_branch,
    eval_branch_elementwise,
    fold,
    join,
    map_letter,
    parts,
    run_boxed,
    run_stagewise,
    segment_word,
    split,
    unbox_input,
    validate_branch,
)
from .errors import ExecutionError, ValidationError
from .model import (
    Multigraph,
    RawStep,
    StageKind,
    StateStore,
    ThreadSpec,
    ill_typed,
    raw_state_part,
    raw_step,
    raw_value_part,
)
from .values import Inr, Value, box_list, box_state, conformer, unbox_state

# upper bound on the elements one channel message carries
_BATCH = 64

# The most workers a run may ask for. Each worker past the first may be
# a thread, so a bound keeps hostile input away from the OS thread limit;
# under the GIL more threads than blocking stages or chunks gain nothing.
MAX_WORKERS = 64


def run_data_parallel_readonly(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Map a read-only thread over a list; the state passes through.

    Every element sees the same state value, so the map is order
    independent and may fan out across ``workers`` threads.
    """
    if spec.kind is not StageKind.READ_ONLY:
        raise ValidationError(f"thread {spec.id} is not read-only")
    items = unbox_input(xs, spec.src)
    sigma_raw = unbox_state(sigma, spec.state_type)
    out = _readonly_map(spec, items, sigma_raw, _positive(workers), check)
    return box_list(spec.tgt, out), sigma


def run_data_parallel_product(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Evaluate a product thread as an ordinary map plus an iterated
    state update: the output never reads the state and the state never
    reads the elements, so the two halves are independent."""
    if spec.kind is not StageKind.PRODUCT:
        raise ValidationError(f"thread {spec.id} is not a product thread")
    items = unbox_input(xs, spec.src)
    sigma_raw = unbox_state(sigma, spec.state_type)
    out, state = _product_map(spec, items, sigma_raw, _positive(workers), check)
    return box_list(spec.tgt, out), box_state(state, spec.state_type)


def _readonly_map(
    spec: ThreadSpec, items: Sequence[Any], sigma: Any, workers: int, check: bool
) -> List[Any]:
    step = raw_step(spec, check)
    return _fission(lambda v: step(v, sigma)[0], items, workers)


def _product_map(
    spec: ThreadSpec, items: Sequence[Any], sigma: Any, workers: int, check: bool
) -> Tuple[List[Any], Any]:
    out = _fission(raw_value_part(spec), items, workers)
    h = raw_state_part(spec)
    state = sigma
    if not check:
        for _ in range(len(out)):
            state = h(state)
        return out, state
    ok_y, ok_st = conformer(spec.tgt), conformer(spec.state_type)
    for y in out:
        state = h(state)
        if not ok_y(y):
            raise ill_typed(spec, "output", y, spec.tgt)
        if not ok_st(state):
            raise ill_typed(spec, "new state", state, spec.state_type)
    return out, state


def _fission(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> List[Any]:
    """``[fn(v) for v in items]`` split into ``min(workers, len(items))``
    contiguous chunks, chunk 0 on the calling thread, concatenated in
    order. Sound only because ``fn`` reads no state that changes.

    A failing chunk re-raises its original exception; when several fail,
    the first chunk's wins, so the error does not depend on scheduling.
    A chunk thread that cannot start raises ``ExecutionError``.
    """
    k = min(workers, len(items))
    if k <= 1:
        return list(map(fn, items))
    cuts = [len(items) * c // k for c in range(k + 1)]
    chunks: List[List[Any]] = [[] for _ in range(k)]
    failed: List[Optional[BaseException]] = [None] * k

    def run(c: int) -> None:
        try:
            chunks[c] = list(map(fn, items[cuts[c]:cuts[c + 1]]))
        except BaseException as exc:  # re-raised by _launch
            failed[c] = exc

    _launch(run, failed)
    return [y for chunk in chunks for y in chunk]


class Crew:
    """Stage threads that serve tasks until they get the ``None``
    sentinel, so that later launches reuse earlier launches' threads.

    ``_launch`` takes its threads from the crew of the innermost
    ``with Crew():`` block on the calling thread; outside any block it
    makes a crew that lives for that one launch, so each of its tasks
    gets a thread that starts and is joined within the launch. Every
    thread of a crew is joined when its block ends."""

    def __init__(self):
        self._idle: List[queue.SimpleQueue] = []  # inboxes of threads with no task
        self._inboxes: List[queue.SimpleQueue] = []
        self._threads: List[threading.Thread] = []
        self._outer: Optional[Crew] = None

    def __enter__(self) -> "Crew":
        self._outer = getattr(_scope, "crew", None)
        _scope.crew = self
        return self

    def __exit__(self, *exc) -> None:
        _scope.crew = self._outer
        self.close()

    def hand(self, task: Callable[[], None]) -> Tuple[queue.SimpleQueue, Any]:
        """Run ``task`` on an idle thread, or on a new one, and return
        what ``wait`` takes. ``task`` must not raise. A thread that
        cannot start raises ``RuntimeError``, as ``Thread.start`` does."""
        if self._idle:
            inbox = self._idle.pop()
        else:
            inbox = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(inbox,))
            thread.start()
            self._threads.append(thread)
            self._inboxes.append(inbox)
        done = threading.Lock()
        done.acquire()
        inbox.put((task, done))
        return inbox, done

    def wait(self, handed: Sequence[Tuple[queue.SimpleQueue, Any]]) -> None:
        """Wait until every handed task has run; their threads go idle."""
        for inbox, done in handed:
            done.acquire()
            self._idle.append(inbox)

    def close(self) -> None:
        """Send every thread the sentinel and join them all."""
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()
        self._idle, self._inboxes, self._threads = [], [], []


# ``_scope.crew``: the crew of the calling thread's innermost ``with Crew():``
_scope = threading.local()


def _serve(inbox: queue.SimpleQueue) -> None:
    for task, done in iter(inbox.get, None):
        task()
        done.release()


def _launch(
    run: Callable[[int], None], failed: List[Optional[BaseException]],
    inboxes: Sequence[queue.Queue] = (),
) -> None:
    """Run tasks ``0..len(failed) - 1``: task 0 on the calling thread and
    every other on a thread of the calling thread's ``Crew``, handed out
    from the last to the first. ``run(i)`` records its exception in
    ``failed[i]`` and never raises; once every task has run, the earliest
    task's exception is re-raised.

    If a thread cannot start, no task below it runs: task ``i + 1``, the
    first that did start, gets the ``None`` sentinel in ``inboxes[i]``
    (when it has one), the started tasks are waited for, and the failure
    is raised as ``ExecutionError``."""
    scoped = getattr(_scope, "crew", None)
    crew = scoped if scoped is not None else Crew()
    handed = []
    try:
        for i in range(len(failed) - 1, 0, -1):
            try:
                handed.append(crew.hand(partial(run, i)))
            except RuntimeError as exc:
                if i < len(inboxes):
                    inboxes[i].put(None)
                crew.wait(handed)
                raise ExecutionError(f"could not start a thread: {exc}") from exc
        run(0)
        crew.wait(handed)
    finally:
        if scoped is None:
            crew.close()
    for exc in failed:
        if exc is not None:
            raise exc


# one stage of a stream: maps a list of raw elements to the list it hands on
Stage = Callable[[Sequence[Any]], List[Any]]


def _state_dropped(step: RawStep) -> RawStep:
    """The planted ``state-update-dropped`` fault: ``step`` with every
    state update discarded."""
    return lambda v, sigma: (step(v, sigma)[0], sigma)


def _spans(blocking: Sequence[bool], k: int) -> List[Tuple[int, int]]:
    """Cut positions ``0..len(blocking)`` into contiguous ``(start, end)``
    spans by the blocking hint: the blocking positions are spread over
    ``min(k, #blocking)`` spans, and every other position joins the span
    of the blocking position before it, or the first span if none comes
    before it. Without a blocking position all of them are one span."""
    if not blocking:
        return []
    marks = [i for i, b in enumerate(blocking) if b]
    k = min(k, len(marks))
    starts = [0] + [marks[len(marks) * g // k] for g in range(1, k)]
    return list(zip(starts, starts[1:] + [len(blocking)]))


def _groups(
    graph: Multigraph, slots: Slots, check: bool, owned: list,
    letters: Tuple[int, ...], workers: int,
) -> List[Tuple[Stage, bool]]:
    """``letters`` cut by ``_spans`` into fused groups, each paired with
    whether it holds a blocking letter; no group when ``letters`` is
    empty. A group is ``run_stagewise`` over its letters and a
    ``{letter: state}`` dict it owns; each dict goes onto ``owned`` for
    the read-back."""
    if mutations.enabled("stage-order-swapped") and len(letters) >= 2:
        letters = (letters[1], letters[0]) + letters[2:]
    blocking = [graph.edges[n].blocking for n in letters]
    groups: List[Tuple[Stage, bool]] = []
    for a, b in _spans(blocking, workers):
        part = letters[a:b]
        steps = element_steps(graph, part, check)
        if mutations.enabled("state-update-dropped"):
            steps = [(n, _state_dropped(step)) for n, step in steps]
        st = {n: slots[n] for n in part}
        owned.append(st)
        groups.append((partial(run_stagewise, steps, st), any(blocking[a:b])))
    return groups


def _read_back(slots: Slots, owned) -> Slots:
    """``slots`` with each group's final letter states written in."""
    if not mutations.enabled("state-not-forwarded"):
        for st in owned:
            slots.update(st)
    return slots


def _stream(stages: Sequence[Stage], values: Sequence[Any], capacity: int) -> List[Any]:
    """Push ``values`` through ``stages`` in order. A lone stage maps the
    whole list at once on the calling thread. Otherwise the calling thread
    runs the first stage and every other stage gets a thread of its own,
    linked by bounded FIFO channels of ``capacity`` adaptive batches; each
    stage then maps one element at a time, so a slow stage hands each
    element on at once.

    Each stage closes its output channel with the ``None`` sentinel, also
    when it fails. A stage that fails, or that sees a recorded failure
    right after a hand-off, stops computing and drains its inbox to the
    sentinel, so no blocking put or get is left waiting. Once every thread
    has been joined, a failure re-raises the original exception of the
    earliest failing stage in stage order."""
    k = len(stages)
    if k <= 1:
        return stages[0](values) if stages else list(values)
    each = [lambda v, fn=fn: fn([v])[0] for fn in stages]
    chans = [queue.Queue(maxsize=capacity) for _ in range(k - 1)]
    failed: List[Optional[BaseException]] = [None] * k
    out: List[Any] = []

    def run_stage(g: int) -> None:
        fn = each[g]
        # an iterator, so that a drain resumes where the stage stopped
        batches = iter(chans[g - 1].get, None) if g else iter((values,))
        try:
            if g == k - 1:
                for batch in batches:
                    out.extend(map(fn, batch))
                return
            outq = chans[g]
            for batch in batches:
                buf = []
                for v in batch:
                    buf.append(fn(v))
                    # hand over as soon as the next stage is idle, so a slow
                    # stage never waits on a batch to fill
                    if len(buf) >= _BATCH or outq.empty():
                        outq.put(buf)
                        buf = []
                        if any(failed):
                            return
                if buf:
                    outq.put(buf)
        except BaseException as exc:  # re-raised by _launch
            failed[g] = exc
        finally:
            if g < k - 1:
                chans[g].put(None)
            for _ in batches:
                pass

    _launch(run_stage, failed, chans)
    return out


def _side_stage(left: Stage, right: Stage, values: Sequence[Any]) -> List[Any]:
    """Split a list of sum elements, map ``left`` over the inl payloads
    and ``right`` over the inr ones, and join them back by the flags."""
    lefts, rights, flags = _split(values)
    return _join(left(lefts), right(rights), flags)


def _fused(stages: Sequence[Tuple[Stage, bool]], workers: int) -> List[Stage]:
    """One stream stage per blocking stage of ``stages``, with each
    non-blocking stage fused into a neighbour by ``_spans``; one stage
    in all at ``workers`` 1 or when none blocks."""
    spans = _spans([blocks for _, blocks in stages], 1 if workers == 1 else len(stages))
    # a stage fused with no other runs bare, without a ``_chain`` call per element
    return [
        stages[a][0] if b - a == 1 else partial(_chain, [fn for fn, _ in stages[a:b]])
        for a, b in spans
    ]


def _chain(fns: Sequence[Stage], values: Sequence[Any]) -> List[Any]:
    for fn in fns:
        values = fn(values)
    return values


def _run_stream(
    graph: Multigraph,
    parts: Sequence[Part],
    items: Sequence[Any],
    slots: Slots,
    workers: int,
    capacity: int,
    check: bool,
) -> Tuple[List[Any], Slots]:
    """Every stream: the stages of ``parts`` in order, fused by
    ``_fused`` and run by ``_stream``."""
    owned: list = []
    cut = partial(_groups, graph, slots, check, owned, workers=workers)
    stages: List[Tuple[Stage, bool]] = []
    joined_at = None
    for part in parts:
        if isinstance(part, Word):
            stages += cut(part.letters)
            continue
        left, right = part
        # a side with fewer groups passes its payloads on as they are
        pairs = zip_longest(cut(left.letters), cut(right.letters), fillvalue=(list, False))
        stages += [(partial(_side_stage, lf, rf), lb or rb) for (lf, lb), (rf, rb) in pairs]
        joined_at = len(stages)
    if joined_at is not None and mutations.enabled("flags-ignored-in-join"):
        # deliberate fault: the join point buffers its whole input and
        # emits every inl element before any inr element
        joined = _stream(_fused(stages[:joined_at], workers), items, capacity)
        joined.sort(key=lambda v: type(v) is Inr)
        values = _stream(_fused(stages[joined_at:], workers), joined, capacity)
    else:
        values = _stream(_fused(stages, workers), items, capacity)
    return values, _read_back(slots, owned)


def _pipeline(
    graph: Multigraph,
    shape: Shape,
    items: Sequence[Any],
    slots: Slots,
    workers: int = 4,
    capacity: int = 16,
    check: bool = False,
) -> Tuple[Sequence[Any], Slots]:
    if isinstance(shape, BranchProgram) or mutations.enabled("segment-barrier-removed"):
        streams: Sequence[Sequence[Part]] = [parts(shape)]
    else:
        streams = [[seg] for seg in segment_word(shape).segments]
    for stream in streams:
        items, slots = _run_stream(graph, stream, items, slots, workers, capacity, check)
    return items, slots


def run_pipeline(
    graph: Multigraph,
    word: Shape,
    xs: Value,
    state: StateStore,
    workers: int = 4,
    capacity: int = 16,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Pipelined list semantics: each segment is cut into contiguous
    groups of letters by the blocking hint, its blocking letters spread
    over at most ``workers`` groups. The caller runs the first group and
    every other group gets a thread of its own; elements stream between
    groups in batches over bounded FIFO channels that hold ``capacity``
    batches. A segment without a blocking letter starts no thread: it is
    one group that maps its whole list letter by letter, as ``seq`` does.

    Words with repeated letters run as consecutive duplicate-free
    segments with a barrier in between. A branch program runs as one
    linear stream over the sum-tagged elements: the producer's groups,
    then side stages pairing the left and right words' groups, then the
    consumer's groups, each word cut by the blocking hint as a segment
    is. A side stage splits its list, maps each side and joins them by the
    flags. At ``workers`` 1, or without a blocking letter, the whole
    branch is one fused stage on the calling thread. This function is
    also ``run_task_parallel_branch``.

    A failing stage raises its own exception. The result is bit-exactly
    that of ``eval_psi_ref``.
    """
    return run_boxed(graph, xs, state, plan_pipeline(graph, word, workers, capacity, check))


def _positive(workers: int) -> int:
    if workers < 1:
        raise ValidationError("workers must be a positive integer")
    if workers > MAX_WORKERS:
        raise ValidationError(f"workers must be at most {MAX_WORKERS}")
    return workers


def plan_pipeline(
    graph: Multigraph, shape: Shape, workers: int = 4, capacity: int = 16, check: bool = False
) -> Plan:
    src, tgt = endpoints(graph, shape)
    core = partial(
        _pipeline, graph, shape, workers=_positive(workers), capacity=capacity, check=check
    )
    return Plan(shape.letters, src, tgt, core)


def _auto(
    graph: Multigraph,
    word: Word,
    items: Sequence[Any],
    slots: Slots,
    workers: int = 1,
    check: bool = False,
) -> Tuple[Sequence[Any], Slots]:
    for n in word.letters:
        spec = graph.edges[n]
        # under the GIL only chunks that block can overlap
        w = workers if spec.blocking else 1
        if spec.kind is StageKind.READ_ONLY:
            items = _readonly_map(spec, items, slots[n], w, check)
        elif spec.kind is StageKind.PRODUCT:
            items, slots[n] = _product_map(spec, items, slots[n], w, check)
        else:
            items, slots[n] = map_letter(raw_step(spec, check), items, slots[n])
    return items, slots


def eval_auto_word(
    graph: Multigraph,
    word: Shape,
    xs: Value,
    state: StateStore,
    workers: int = 1,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Stage-wise evaluation that takes the data-parallel shortcut for
    every read-only or product stage and falls back to the sequential map
    for general stages. Only a blocking stage fans out over ``workers``
    chunks; any other runs as one chunk on the calling thread. A branch
    program runs as ``eval_psi_ref`` runs it (``composition.fold``), with
    each of its words evaluated this way."""
    return run_boxed(graph, xs, state, plan_auto(graph, word, workers, check))


def plan_auto(graph: Multigraph, shape: Shape, workers: int = 1, check: bool = False) -> Plan:
    src, tgt = endpoints(graph, shape)
    core = partial(_auto, graph, workers=_positive(workers), check=check)
    return Plan(shape.letters, src, tgt, partial(fold, shape, core))


# the branch name of the pipeline executor
run_task_parallel_branch = run_pipeline
