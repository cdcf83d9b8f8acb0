"""Parallel executors: one threaded stream core, run as ``pipeline`` and
as ``auto``; the data-parallel fast paths are ``auto`` on a one-letter
word. ``composition.planner`` plans every mode, and alone decides whether
a plan can start a thread: at one worker, or when no letter blocks, it
plans ``pipeline`` and ``auto`` as ``seq``. It imports this module on its
first plan that can start one, for ``stream_planner``. The shapes, the
coproduct's ``split`` and ``join`` and the reference evaluators live in
``composition``; this module re-exports ``BranchProgram``,
``validate_branch``, ``split``, ``join`` and the references' branch
names.

Every executor agrees bit-exactly with ``eval_psi_ref`` on the output list
and the final state store, by structure, not luck:

* A word with repeated letters runs segment by segment, a barrier
  between segments, and each segment, or a whole branch program, is one
  stream, cut once per plan. A stream over at most one element runs
  stage by stage on the calling thread.
* Threads go only where stages block: under the GIL only a thread whose
  ``blocking`` hint is set (a builtin that sleeps) overlaps with others.
  Each word's blocking letters are spread over at most ``workers`` groups
  (stage fusion, after StreamIt), every other letter joining the group
  before it, or the first. A branch's sides pair their k-th groups into
  side stage k, which routes each element by its injection. A stage
  without a blocking letter is fused into a neighbour.
* ``auto`` adds stateless fission (after StreamIt) on lists of at least
  ``2 * _REPLICA_ELEMENTS`` elements: a blocking stage whose letters are
  all READ_ONLY or PRODUCT runs as ``workers // g`` replicas (``g`` groups
  in its word; at most one per ``_REPLICA_ELEMENTS`` elements), fed
  round-robin and merged in order. A READ_ONLY letter's state passes
  through a replica; a PRODUCT letter runs its value part there and its
  state part once per element after the stream. A branch's blocking
  sides run as one pass per side group, so they overlap. On shorter lists
  ``auto`` runs the pipeline's stream.
* Each stage owns its letters' slots in a ``{letter: state}`` dict, merged
  back once the stream has finished. For letters that do not repeat,
  mapping them over a list one letter at a time equals pushing each
  element through all of them, so the i-th element's value and state
  depend only on FIFO order, never on scheduling, the cut or replicas.
* Every replica of every stage is a lane, linked to each lane of the next
  stage by a bounded FIFO channel of batches. A one-lane stage applies
  its steps one element at a time and hands its buffer on as soon as the
  next channel is empty, so a slow stage passes each element on at once.
  Shutdown is by sentinel alone: every lane closes its output channels,
  also when it fails, and drains its inputs; a lane that sees a recorded
  failure after a hand-off stops computing.
* Lanes run on the threads of a ``Crew``, handed out from the last to
  the first, the calling thread running the first. Inside a ``with
  Crew():`` block, as ``stc check`` opens, launches reuse threads.
* One failure rule holds in every mode and shape: a failing run raises
  the exception ``eval_psi_ref`` raises, the first failure in letter
  order, the left side's before the right side's. A threaded stream that
  fails runs its parts again on the calling thread by the reference route
  (``run_route``), from its own input and a copy of its slots, and raises
  what that run raises (``_run_stream``); its side effects happen again.
  Only a thread that cannot start (``_Unstarted``) is raised with no
  re-run, and no thread starts after it.

Executors run on raw values (see ``values``); every public function here
boxes at one edge, ``composition.run_boxed``. The five
planted faults of ``mutations`` live here only, each at an edge of a
threaded plan, so a plan that can start no thread runs none of them:

* ``stage-order-swapped``: ``_cut`` swaps a word's first two letters;
* ``state-update-dropped``: every step ``_stream_plan`` makes drops its
  state update (``_state_kept``), a replica's too;
* ``flags-ignored-in-join``: the planner cuts a branch into two streams at
  the join, where ``_pipeline`` puts every inl element first;
* ``state-not-forwarded``: ``_run_stream`` writes no stage's states back;
* ``segment-barrier-removed``: the planner runs a word as one stream.
"""

from __future__ import annotations

import queue
import threading
from functools import partial
from itertools import count, zip_longest
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import mutations
from .composition import (  # the coproduct, MAX_WORKERS and the branch names are re-exported
    MAX_WORKERS,
    BranchProgram,
    Core,
    Part,
    Route,
    Shape,
    Slots,
    Word,
    eval_branch,
    eval_branch_elementwise,
    join,
    parts,
    planner,
    route_element,
    route_of,
    run_boxed,
    run_route,
    segment_word,
    split,
    validate_branch,
)
from .errors import ExecutionError, ValidationError
from .model import (
    Multigraph,
    RawStep,
    StageKind,
    StateStore,
    ThreadSpec,
    build_graph,
    ill_typed,
    raw_state_part,
    raw_step,
    raw_value_part,
)
from .values import Inr, Value, conformer

# upper bound on the elements one channel message carries
_BATCH = 64

# A replicated stage runs at most one replica per this many elements of its
# stream's input: on a shorter list the replicas' thread hand-offs cost
# more than they overlap.
_REPLICA_ELEMENTS = 8


def run_data_parallel_readonly(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Map a read-only thread over a list; the state passes through.

    Every element sees the same state value, so the map is order
    independent, and a blocking letter may run as ``auto``'s replicas."""
    if spec.kind is not StageKind.READ_ONLY:
        raise ValidationError(f"thread {spec.id} is not read-only")
    return _one_letter(spec, xs, sigma, workers, check)


def run_data_parallel_product(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int = 1, check: bool = False
) -> Tuple[Value, Value]:
    """Evaluate a product thread as an ordinary map plus an iterated
    state update: the output never reads the state and the state never
    reads the elements, so the two halves are independent."""
    if spec.kind is not StageKind.PRODUCT:
        raise ValidationError(f"thread {spec.id} is not a product thread")
    return _one_letter(spec, xs, sigma, workers, check)


def _one_letter(
    spec: ThreadSpec, xs: Value, sigma: Value, workers: int, check: bool
) -> Tuple[Value, Value]:
    """``spec``'s one-letter word run as ``auto`` from state ``sigma``."""
    graph = build_graph(spec)
    plan = planner(graph, Word((spec.id,)), check=check)("auto", workers)
    out, state = run_boxed(graph, xs, StateStore({spec.id: sigma}), plan)
    return out, state.get(spec.id)


def _product_state(spec: ThreadSpec, sigma: Any, times: int, check: bool) -> Any:
    """A PRODUCT letter's raw state part applied ``times`` times to
    ``sigma``, once per element that passed the letter; with ``check`` it
    conforms each new state to the state type."""
    h = raw_state_part(spec)
    ok = conformer(spec.state_type) if check else None
    for _ in range(times):
        sigma = h(sigma)
        if check and not ok(sigma):
            raise ill_typed(spec, "new state", sigma, spec.state_type)
    return sigma


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
        inbox = self._idle.pop() if self._idle else None
        if inbox is None:
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


class _Channel:
    """A FIFO channel from one lane to one other holding at most
    ``capacity`` batches (any number below 1): a put spends a slot, or
    waits for one that a get gives back. Both are C-level queues, so a
    hand-off takes no Python-level lock."""

    __slots__ = ("_items", "_slots", "_free")

    def __init__(self, capacity: int):
        self._items, self._slots = queue.SimpleQueue(), queue.SimpleQueue()
        self._free = capacity if capacity > 0 else float("inf")

    def put(self, item: Any) -> None:
        if self._free:
            self._free -= 1
        else:
            self._slots.get()
        self._items.put(item)

    def get(self) -> Any:
        item = self._items.get()
        self._slots.put(None)
        return item

    def empty(self) -> bool:
        return self._items.empty()


class _Unstarted(ExecutionError):
    """A lane's thread could not start; the one failure not run again."""


def _launch(
    run: Callable[[int], None], failed: List[Optional[BaseException]],
    outboxes: Sequence[Sequence[_Channel]],
) -> None:
    """Run ``_stream``'s lanes ``0..len(failed) - 1``: lane 0 on the calling
    thread, every other on a thread of the calling thread's ``Crew``, handed
    out from the last to the first. ``run(i)`` records its exception in
    ``failed[i]`` and never raises; once every lane has run, the earliest
    lane's exception is re-raised.

    If the thread for lane ``i`` cannot start, no lane up to ``i`` runs:
    each of their ``outboxes``, lane ``j``'s output channels, gets the
    ``None`` sentinel, so the started lanes see their input end; the
    started lanes are waited for, and the failure is raised as
    ``_Unstarted``, an ``ExecutionError``."""
    scoped = getattr(_scope, "crew", None)
    crew = scoped if scoped is not None else Crew()
    handed = []
    try:
        for i in range(len(failed) - 1, 0, -1):
            try:
                handed.append(crew.hand(partial(run, i)))
            except RuntimeError as exc:
                for box in outboxes[:i + 1]:
                    for q in box:
                        q.put(None)
                crew.wait(handed)
                raise _Unstarted(f"could not start a thread: {exc}") from exc
        run(0)
        crew.wait(handed)
    finally:
        if scoped is None:
            crew.close()
    for exc in failed:
        if exc is not None:
            raise exc


def _state_kept(step: RawStep) -> RawStep:
    """``step`` with every state update discarded: what a replica runs for
    a READ_ONLY letter, and the planted ``state-update-dropped`` fault."""
    return lambda v, sigma: (step(v, sigma)[0], sigma)


def _spans(blocking: Sequence[bool], k: int) -> List[Tuple[int, int]]:
    """Cut positions ``0..len(blocking)`` into contiguous ``(start, end)``
    spans by the blocking hint: the blocking positions are spread over
    ``min(k, #blocking)`` spans, and every other position joins the span
    of the blocking position before it, or the first span if none comes
    before it. Without a blocking position all of them are one span."""
    if True not in blocking:
        return [(0, len(blocking))] if blocking else []
    marks = [i for i, b in enumerate(blocking) if b]
    k = min(k, len(marks))
    starts = [0] + [marks[len(marks) * g // k] for g in range(1, k)]
    return list(zip(starts, starts[1:] + [len(blocking)]))


def _cut(
    graph: Multigraph, letters: Tuple[int, ...], workers: int
) -> List[Tuple[Tuple[int, ...], bool]]:
    """``letters`` cut by ``_spans`` into groups, each paired with whether
    it holds a blocking letter; no group when ``letters`` is empty."""
    if mutations.enabled("stage-order-swapped") and len(letters) >= 2:
        letters = (letters[1], letters[0]) + letters[2:]
    blocking = [graph.edges[n].blocking for n in letters]
    return [(letters[a:b], True in blocking[a:b]) for a, b in _spans(blocking, workers)]


def _replica_step(spec: ThreadSpec, check: bool) -> RawStep:
    """What a replica runs for a letter: a READ_ONLY letter's state passes
    through; a PRODUCT letter runs its value part, and its slot counts the
    elements, so that its state part runs once per element after the
    stream (``_product_state``); with ``check`` the value part's output is
    conformed to its port type."""
    if spec.kind is StageKind.READ_ONLY:
        return _state_kept(raw_step(spec, check))
    part = raw_value_part(spec)
    if not check:
        return lambda v, count: (part(v), count + 1)
    ok = conformer(spec.tgt)

    def checked(v: Any, count: int) -> Tuple[Any, int]:
        y = part(v)
        if not ok(y):
            raise ill_typed(spec, "output", y, spec.tgt)
        return y, count + 1

    return checked


class _Stage:
    """A stream stage: its route, the letters whose slots it owns and the
    replicas it may run; a replicated stage also holds its replicas' route
    (``_replica_step``) and its PRODUCT letters."""

    __slots__ = ("route", "letters", "replicas", "lane_route", "products")

    def __init__(self, route: Route, letters: Tuple[int, ...], replicas: int = 1,
                 lane_route: Route = (), products: Tuple[int, ...] = ()):
        self.route, self.letters, self.replicas = route, letters, replicas
        self.lane_route, self.products = lane_route, products


# a stream cut once per plan: the parts it runs, a segment's word or a
# branch's parts, and its stages
Stream = Tuple[Tuple[Part, ...], List[_Stage]]


def _stream_plan(
    graph: Multigraph, stream_parts: Tuple[Part, ...], workers: int, check: bool, replicate: bool
) -> Stream:
    """Cut the stream of ``stream_parts`` into stages: each word by
    ``_cut``, a branch's sides as side stages of their k-th groups, or with
    ``replicate``, when a side blocks, one pass per side group; a stage
    with no blocking letter is fused into a neighbour. With ``replicate``
    a blocking stage whose letters are all READ_ONLY or PRODUCT gets
    ``workers // g`` replicas, ``g`` groups in its word."""
    edges = graph.edges
    dropped = mutations.enabled("state-update-dropped")

    def step(n: int, make: Callable[[ThreadSpec, bool], RawStep] = raw_step) -> RawStep:
        return _state_kept(make(edges[n], check)) if dropped else make(edges[n], check)

    def lane(steps: list) -> list:
        return [(n, step(n, _replica_step)) for n, _ in steps]

    def cut(word: Word) -> list:
        groups = _cut(graph, word.letters, workers)
        share = workers // max(1, len(groups))
        return [
            ([(n, step(n)) for n in ls], ls, b,
             1 if not replicate or any(edges[n].kind is StageKind.GENERAL for n in ls)
             else share if b else MAX_WORKERS)  # a group that does not block sets no bound
            for ls, b in groups
        ]

    # (route part, letters, blocks, replicas)
    members: list = []
    for part in stream_parts:
        if isinstance(part, Word):
            members += cut(part)
            continue
        lefts, rights = cut(part[0]), cut(part[1])
        if replicate and any(m[2] for m in lefts + rights):
            members += [((steps, []), ls, b, r) for steps, ls, b, r in lefts]
            members += [(([], steps), ls, b, r) for steps, ls, b, r in rights]
        else:
            pairs = zip_longest(lefts, rights, fillvalue=([], (), False, 1))
            members += [((lf[0], rt[0]), lf[1] + rt[1], lf[2] or rt[2], 1) for lf, rt in pairs]

    stages = []
    for a, b in _spans([m[2] for m in members], len(members)):
        route, letters, blocks, r = [], (), False, MAX_WORKERS
        for m in members[a:b]:
            route.append(m[0])
            letters += m[1]
            blocks = blocks or m[2]
            r = min(r, m[3])
        if not blocks or r == 1:
            stages.append(_Stage(route, letters))
            continue
        lanes = [lane(p) if type(p) is list else (lane(p[0]), lane(p[1])) for p in route]
        products = tuple(n for n in letters if edges[n].kind is StageKind.PRODUCT)
        stages.append(_Stage(route, letters, r, lanes, products))
    return stream_parts, stages


# one stream stage of a run: its route, its ``{letter: state}`` dict and
# one list function per lane
Lanes = Tuple[Route, Slots, List[Callable[[Sequence[Any]], List[Any]]]]


def _stream(stages: Sequence[Lanes], values: Sequence[Any], capacity: int) -> List[Any]:
    """Push ``values`` through ``stages`` in order, every lane a task of
    ``_launch``, linked to each lane of the next stage by a ``_Channel`` of
    ``capacity`` batches; at least two lanes in all. Lane ``a`` of ``r``
    takes chunks ``a, a + r, ...``, chunk ``j`` from lane ``j % r'`` of the
    stage before; a replicated first stage takes one element per chunk. A
    replica maps a whole chunk and hands it on as chunk ``j``; a one-lane
    stage that is not last maps one element at a time (``_hand_on``); the
    last stage's chunks are joined in order. Each lane closes its outputs
    with ``None``, also when it fails, and drains its inputs; a lane that
    sees a recorded failure after a hand-off stops. The earliest failing
    lane's exception is raised."""
    k = len(stages)
    widths = [len(lanes) for _, _, lanes in stages]
    # links[s][a][b]: from lane a of stage s to lane b of stage s + 1
    links = [
        [[_Channel(capacity) for _ in range(widths[s + 1])] for _ in range(widths[s])]
        for s in range(k - 1)
    ]
    tasks = [(s, a) for s in range(k) for a in range(widths[s])]
    failed: List[Optional[BaseException]] = [None] * len(tasks)
    done: Dict[int, List[Any]] = {}  # the last stage's output chunks by number

    def run_lane(t: int) -> None:
        s, a = tasks[t]
        r = widths[s]
        ins = [row[a] for row in links[s - 1]] if s else []
        ended: list = []
        if s:
            chunks = _chunks(ins, a, r, ended)
        else:
            chunks = iter((values,)) if r == 1 else ([v] for v in values[a::r])
        outs = links[s][a] if s < k - 1 else ()
        route, st, lanes = stages[s]
        try:
            if r == 1 and outs:
                _hand_on(partial(route_element, route, st), chunks, outs, failed)
                return
            fn = lanes[a]
            for j, chunk in zip(count(a, r), chunks):
                if not outs:
                    done[j] = fn(chunk)
                    continue
                outs[j % len(outs)].put(fn(chunk))
                if any(failed):
                    return
        except BaseException as exc:  # re-raised by _launch
            failed[t] = exc
        finally:
            for q in outs:
                q.put(None)
            for q in ins:
                if q not in ended:
                    for _ in iter(q.get, None):
                        pass

    _launch(run_lane, failed, [links[s][a] if s < k - 1 else () for s, a in tasks])
    return [y for j in range(len(done)) for y in done[j]]


def _chunks(ins: Sequence[_Channel], a: int, r: int, ended: list):
    """Chunks ``a, a + r, ...`` of a lane's input, chunk ``j`` from
    ``ins[j % len(ins)]``, until a sentinel; the channel that gave it goes
    onto ``ended``."""
    for j in count(a, r):
        q = ins[j % len(ins)]
        chunk = q.get()
        if chunk is None:
            ended.append(q)
            return
        yield chunk


def _hand_on(each: Callable[[Any], Any], chunks, outs: Sequence[_Channel], failed: list) -> None:
    """A lane's elements through ``each`` one at a time, output chunk ``m``
    going to ``outs[m % len(outs)]`` as soon as that channel is empty, at
    ``_BATCH`` elements, or when the input chunk ends."""
    m = 0
    for chunk in chunks:
        buf: List[Any] = []
        for v in chunk:
            buf.append(each(v))
            q = outs[m % len(outs)]
            if len(buf) >= _BATCH or q.empty():
                q.put(buf)
                buf = []
                m += 1
                if any(failed):
                    return
        if buf:
            outs[m % len(outs)].put(buf)
            m += 1


def _run_stream(
    graph: Multigraph, stream: Stream, items: Sequence[Any], slots: Slots, capacity: int,
    check: bool,
) -> Tuple[Sequence[Any], Slots]:
    """One run of a stream, each stage on a ``{letter: state}`` dict of its
    own, written back once the stream succeeds. No stage, one stage without
    replicas or at most one element runs stage by stage on the calling
    thread. A replicated stage runs ``min(replicas, n // _REPLICA_ELEMENTS)``
    replicas over ``n`` elements, each on a dict of its own; its PRODUCT
    letters' state parts run once every lane has finished. A threaded
    stream that fails, other than because a thread could not start, runs
    its parts by the reference route from the same input and slots, which
    nothing has changed yet, and raises what that run raises,
    ``eval_psi_ref``'s exception; else the first one."""
    stream_parts, stages = stream
    owned = [{n: slots[n] for n in stage.letters} for stage in stages]
    if len(items) <= 1 or not stages or len(stages) == 1 and stages[0].replicas == 1:
        for stage, st in zip(stages, owned):
            items = run_route(stage.route, st, items)
    else:
        staged, replicated = [], []
        for stage, st in zip(stages, owned):
            r = min(stage.replicas, len(items) // _REPLICA_ELEMENTS)
            if r <= 1:
                staged.append((stage.route, st, [partial(run_route, stage.route, st)]))
                continue
            lane_slots = [{**st, **dict.fromkeys(stage.products, 0)} for _ in range(r)]
            replica = partial(run_route, stage.lane_route)
            staged.append((stage.route, st, [partial(replica, d) for d in lane_slots]))
            replicated.append((st, stage.products, lane_slots))
        try:
            values = _stream(staged, items, capacity)
            for st, products, lane_slots in replicated:
                for n in products:
                    passed = sum(d[n] for d in lane_slots)
                    st[n] = _product_state(graph.edges[n], st[n], passed, check)
        except _Unstarted:
            raise
        except Exception:
            run_route(route_of(graph, stream_parts, check), dict(slots), items)
            raise
        items = values
    if not mutations.enabled("state-not-forwarded"):
        for st in owned:
            slots.update(st)
    return items, slots


def _pipeline(
    graph: Multigraph, streams: Sequence[list], capacity: int, check: bool,
    items: Sequence[Any], slots: Slots,
) -> Tuple[Sequence[Any], Slots]:
    """Each stream in turn: ``auto``'s own on a list long enough to
    replicate a stage, else the pipeline's, whose hand-offs are fewer."""
    for pair in streams:
        stream = pair[0]
        if len(items) >= 2 * _REPLICA_ELEMENTS:
            if callable(pair[1]):
                pair[1] = pair[1]()
            stream = pair[1]
        items, slots = _run_stream(graph, stream, items, slots, capacity, check)
        if type(stream[0][-1]) is tuple and mutations.enabled("flags-ignored-in-join"):
            # deliberate fault: a barrier at the join, which emits every inl
            # element before any inr element
            items = sorted(items, key=lambda v: type(v) is Inr)
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
    """Pipelined list semantics: each segment, or a branch program as one
    stream, is cut into groups by the blocking hint, at most ``workers``
    per word, each group after the first on a thread, linked by channels
    of ``capacity`` batches. A stream without a blocking letter starts no
    thread. Results and failures are ``eval_psi_ref``'s. This function is
    also ``run_task_parallel_branch``."""
    return run_boxed(graph, xs, state, planner(graph, word, capacity, check)("pipeline", workers))


def stream_planner(
    graph: Multigraph, shape: Shape, capacity: int, check: bool
) -> Callable[[str, int], Core]:
    """The threaded half of ``composition.planner``, for a validated
    ``shape`` with a blocking letter: the returned function gives its
    ``"pipeline"`` or ``"auto"`` core at more than one worker, each
    segment, or a whole branch program, one stream."""
    whole = parts(shape)
    if isinstance(shape, BranchProgram):
        # with ``flags-ignored-in-join``, a barrier at the join, where ``_pipeline`` sorts
        streams = [whole[:2], whole[2:]] if mutations.enabled("flags-ignored-in-join") else [whole]
    elif mutations.enabled("segment-barrier-removed"):
        streams = [whole]
    else:
        streams = [(w,) for w in segment_word(shape).segments]

    def core(mode: str, workers: int) -> Core:
        # each stream as [the pipeline's cut, auto's own], the second cut on its first use
        planned = []
        for stream in streams:
            cut = partial(_stream_plan, graph, stream, workers, check)
            short = cut(False)
            planned.append([short, partial(cut, True) if mode == "auto" else short])
        return partial(_pipeline, graph, planned, capacity, check)

    return core


def eval_auto_word(
    graph: Multigraph,
    word: Shape,
    xs: Value,
    state: StateStore,
    workers: int = 1,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """The pipeline (see ``run_pipeline``) plus stateless fission on lists
    of 16 or more elements: a blocking stage whose letters are all
    READ_ONLY or PRODUCT runs as replicas, and a branch's blocking sides
    as one pass per side group (``_stream_plan``). At one worker, or
    without a blocking letter, it runs ``seq``'s plan."""
    return run_boxed(graph, xs, state, planner(graph, word, check=check)("auto", workers))


# the branch name of the pipeline executor
run_task_parallel_branch = run_pipeline
