"""Thread specifications, the thread multigraph, the global state store,
and the raw kernels executors run.

A fundamental state thread is an edge of a directed multigraph whose
vertices are port types. Each thread owns exactly one private state slot,
keyed by its integer id; the global state is the finite map from thread
ids to their current private state values.

A thread's public functions (``transfer``, ``value_part``,
``state_part``) take and return boxed ``Value``s. Executors run raw
kernels instead (see ``values``). Each function a builtin makes
(``boxed_transfer``, ``boxed_part``) carries its raw ``Kernel`` as its
``kernel`` attribute; ``raw_step`` and friends run that kernel
(``kernel_of``). Any other function, such as one swapped in with
``replace`` or wrapped, carries none and is run as box -> function ->
unbox, so it is still the function that runs. A builtin's transfer
kernel may in turn carry a list kernel as its ``over`` attribute
(``list_kernel``), the whole stage-wise map of one letter in one
comprehension.

The records here (``ThreadSpec``, ``Multigraph``), like ``PortType`` and
the shapes, are ``values.Record``s, not dataclasses: ``replace`` copies
one with some fields changed, as ``dataclasses.replace`` would.
"""

from __future__ import annotations

from collections import deque
from enum import Enum, unique
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import DuplicateThreadId, PortTypeError, SchemaError
from .values import (
    PortType,
    Record,
    Value,
    box_state,
    boxer,
    conformer,
    unbox_state,
    unboxer,
)

TransferFn = Callable[[Value, Value], Tuple[Value, Value]]
# the raw counterpart: raw (element, state) -> raw (output, new state)
RawStep = Callable[[Any, Any], Tuple[Any, Any]]
# a raw step over a whole list: raw (elements, state) -> (outputs, new state)
ListStep = Callable[[Sequence[Any], Any], Tuple[List[Any], Any]]


@unique
class StageKind(Enum):
    """How a thread may be executed when mapped over a list.

    GENERAL threads update state per element and force sequential state
    threading. READ_ONLY threads never change their state. PRODUCT threads
    factor into independent value and state halves.
    """

    GENERAL = "general"
    READ_ONLY = "read_only"
    PRODUCT = "product"


class ThreadSpec(Record):
    """One fundamental state thread: a typed transfer function plus its
    private state slot.

    ``transfer`` maps (input value, state value) to (output value, new
    state value). It is pure and deterministic. For PRODUCT threads,
    ``value_part`` and ``state_part`` expose the two independent halves.

    ``blocking`` is a scheduling hint, not semantics: the transfer blocks
    (sleeps) rather than computes, so it can overlap with other work under
    the GIL. Executors start threads only for blocking stages. Neither the
    hint nor the functions take part in ``==``, and only the hint is shown
    by ``repr``.
    """

    __slots__ = ("id", "src", "tgt", "state_type", "init_state", "fn_name", "params", "kind",
                 "blocking", "transfer", "value_part", "state_part")
    _compared = __slots__[:8]
    _shown = __slots__[:9]

    def __init__(
        self, id: int, src: PortType, tgt: PortType, state_type: PortType, init_state: Value,
        fn_name: str, params: Optional[Mapping[str, Any]] = None,
        kind: StageKind = StageKind.GENERAL, blocking: bool = False,
        transfer: Optional[TransferFn] = None,
        value_part: Optional[Callable[[Value], Value]] = None,
        state_part: Optional[Callable[[Value], Value]] = None,
    ):
        self.id, self.src, self.tgt, self.state_type = id, src, tgt, state_type
        self.init_state, self.fn_name, self.kind, self.blocking = init_state, fn_name, kind, blocking
        self.params = {} if params is None else params
        self.transfer, self.value_part, self.state_part = transfer, value_part, state_part

    def at(self, src: PortType, tgt: PortType) -> "ThreadSpec":
        """The same thread re-anchored between distinctly named vertices.

        The new endpoints must keep the carrier structure the transfer
        function was built for.
        """
        if not (src.compatible(self.src) and tgt.compatible(self.tgt)):
            raise PortTypeError(
                f"thread {self.id} cannot move to incompatible vertices "
                f"{src.name} -> {tgt.name}"
            )
        return replace(self, src=src, tgt=tgt)


def replace(obj: Record, **changes: Any) -> Record:
    """A copy of the record ``obj`` with ``changes`` to its fields, made by
    its class's ``__init__``, as ``dataclasses.replace`` makes one."""
    fields = {n: getattr(obj, n) for n in obj.__slots__}
    fields.update(changes)
    return type(obj)(**fields)


def expect_port(spec: ThreadSpec, what: str, v: Value, pt: PortType) -> None:
    """Raise ``PortTypeError`` unless ``v``, the ``what`` of thread
    ``spec``, inhabits ``pt``."""
    if not (isinstance(v, Value) and v.matches(pt)):
        raise ill_typed(spec, what, v, pt)


def apply_thread(
    spec: ThreadSpec, x: Value, sigma: Value, check: bool = False
) -> Tuple[Value, Value]:
    """Apply one transfer function, optionally type-checking both ends."""
    if not check:
        return spec.transfer(x, sigma)
    expect_port(spec, "input", x, spec.src)
    expect_port(spec, "state", sigma, spec.state_type)
    y, sigma2 = spec.transfer(x, sigma)
    expect_port(spec, "output", y, spec.tgt)
    expect_port(spec, "new state", sigma2, spec.state_type)
    return y, sigma2


class Kernel:
    """The raw counterpart of one builtin function. ``sample`` is what hint
    sampling calls: ``run`` without its side effects (it never sleeps).
    Threads with equal ``claim``s, (builtin name, canonical params),
    compute the same function. A plain class: a dataclass would cost every
    process start a code generation."""

    __slots__ = ("run", "sample", "claim")

    def __init__(self, run: Callable, sample: Callable, claim: tuple):
        self.run, self.sample, self.claim = run, sample, claim


def _carried(fn: Any, name: str) -> Any:
    """``fn``'s attribute ``name``, or None. A wrapper that
    ``functools.wraps`` made copies its wrapped function's attributes but
    runs code of its own, so it carries none."""
    return None if hasattr(fn, "__wrapped__") else getattr(fn, name, None)


def list_kernel(step: RawStep) -> Optional[ListStep]:
    """The list kernel ``step`` carries, which a builtin's own unchecked
    transfer kernel does where the builtin has one, else None. It maps
    ``step`` over a whole list: ``over(xs, s)`` returns and raises what
    ``composition.map_letter(step, xs, s)`` does."""
    return _carried(step, "over")


def kernel_of(fn: Optional[Callable]) -> Optional[Kernel]:
    """The kernel ``fn`` carries when it is a builtin's own function, else
    None."""
    kernel = _carried(fn, "kernel")
    return kernel if isinstance(kernel, Kernel) else None


def builtin_claim(spec: ThreadSpec) -> Optional[tuple]:
    """The claim shared by all of ``spec``'s functions when each is its
    builtin's own, else None."""
    fns = [f for f in (spec.transfer, spec.value_part, spec.state_part) if f is not None]
    claims = {k.claim if k else None for k in map(kernel_of, fns)}
    return claims.pop() if len(claims) == 1 else None


def boxed_transfer(
    kernel: Kernel, src: PortType, tgt: PortType, state_type: PortType
) -> TransferFn:
    """The ``Value``-level transfer that runs ``kernel`` and carries it."""
    run = kernel.run
    ux, us, by, bs = unboxer(src), unboxer(state_type), boxer(tgt), boxer(state_type)

    def transfer(x: Value, sigma: Value) -> Tuple[Value, Value]:
        y, sigma2 = run(ux(x), us(sigma))
        return by(y), bs(sigma2)

    transfer.kernel = kernel
    return transfer


def boxed_part(kernel: Kernel, src: PortType, tgt: PortType) -> Callable[[Value], Value]:
    """The ``Value``-level half (``value_part``/``state_part``) that runs
    ``kernel`` and carries it."""
    run, u, b = kernel.run, unboxer(src), boxer(tgt)

    def part(v: Value) -> Value:
        return b(run(u(v)))

    part.kernel = kernel
    return part


def _raw_output(spec: ThreadSpec, y: Any) -> Any:
    if isinstance(y, Value) and y.matches(spec.tgt):
        return unboxer(spec.tgt)(y)
    raise ill_typed(spec, "output", y, spec.tgt)


def _raw_state(spec: ThreadSpec, sigma: Any) -> Any:
    if isinstance(sigma, Value):
        return unbox_state(sigma, spec.state_type)
    raise ill_typed(spec, "new state", sigma, spec.state_type)


def raw_transfer(spec: ThreadSpec) -> RawStep:
    """``spec.transfer`` on raw values: its kernel, or the function itself
    between a box and a type-checked unbox. An ill-typed output raises
    ``PortTypeError``; an ill-typed state ``Value`` is kept as it is (see
    ``unbox_state``)."""
    kernel = kernel_of(spec.transfer)
    if kernel is not None:
        return kernel.run
    fn, bx, st = spec.transfer, boxer(spec.src), spec.state_type

    def step(x: Any, sigma: Any) -> Tuple[Any, Any]:
        y, sigma2 = fn(bx(x), box_state(sigma, st))
        return _raw_output(spec, y), _raw_state(spec, sigma2)

    return step


def raw_value_part(spec: ThreadSpec) -> Callable[[Any], Any]:
    kernel = kernel_of(spec.value_part)
    if kernel is not None:
        return kernel.run
    fn, bx = spec.value_part, boxer(spec.src)
    return lambda x: _raw_output(spec, fn(bx(x)))


def raw_state_part(spec: ThreadSpec) -> Callable[[Any], Any]:
    kernel = kernel_of(spec.state_part)
    if kernel is not None:
        return kernel.run
    fn, st = spec.state_part, spec.state_type
    return lambda sigma: _raw_state(spec, fn(box_state(sigma, st)))


def ill_typed(spec: ThreadSpec, what: str, r: Any, pt: PortType) -> PortTypeError:
    """The error for ``r``, the ``what`` of thread ``spec``, not inhabiting
    ``pt``; the message is ``expect_port``'s."""
    return PortTypeError(f"thread {spec.id} {what} {r!r} is not a {pt.name}")


def raw_step(spec: ThreadSpec, check: bool) -> RawStep:
    """The raw call that applies ``spec`` to one element. With ``check``
    it conforms the input, the state, the output and the new state to
    their port types, as ``apply_thread`` does on boxed values."""
    step = raw_transfer(spec)
    if not check:
        return step
    src, tgt, st = spec.src, spec.tgt, spec.state_type
    ok_src, ok_tgt, ok_st = conformer(src), conformer(tgt), conformer(st)

    def checked(x: Any, sigma: Any) -> Tuple[Any, Any]:
        if not ok_src(x):
            raise ill_typed(spec, "input", x, src)
        if not ok_st(sigma):
            raise ill_typed(spec, "state", sigma, st)
        y, sigma2 = step(x, sigma)
        if not ok_tgt(y):
            raise ill_typed(spec, "output", y, tgt)
        if not ok_st(sigma2):
            raise ill_typed(spec, "new state", sigma2, st)
        return y, sigma2

    return checked


class Multigraph(Record):
    """Directed multigraph of threads: vertices are port types, edges are
    thread ids. Parallel edges between the same vertex pair are allowed."""

    __slots__ = ("edges", "vertices")

    def __init__(self, edges: Optional[Mapping[int, ThreadSpec]] = None,
                 vertices: frozenset = frozenset()):
        self.edges = {} if edges is None else edges
        self.vertices = vertices

    def src(self, thread_id: int) -> PortType:
        return self.edges[thread_id].src

    def tgt(self, thread_id: int) -> PortType:
        return self.edges[thread_id].tgt


def register_thread(spec: ThreadSpec, graph: Multigraph) -> Multigraph:
    """Extend ``graph`` with one thread; ids must be fresh."""
    if spec.id in graph.edges:
        raise DuplicateThreadId(spec.id)
    edges = dict(graph.edges)
    edges[spec.id] = spec
    return Multigraph(edges, graph.vertices | {spec.src, spec.tgt})


def build_graph(*specs: ThreadSpec) -> Multigraph:
    """The graph of ``specs``, filled in one pass; ids must be distinct."""
    edges: Dict[int, ThreadSpec] = {}
    for spec in specs:
        if spec.id in edges:
            raise DuplicateThreadId(spec.id)
        edges[spec.id] = spec
    return Multigraph(edges, frozenset(v for spec in specs for v in (spec.src, spec.tgt)))


def is_acyclic(graph: Multigraph) -> bool:
    """True iff the multigraph has no directed cycle (self-loops count)."""
    indegree: Dict[PortType, int] = {v: 0 for v in graph.vertices}
    out: Dict[PortType, list] = {v: [] for v in graph.vertices}
    for spec in graph.edges.values():
        indegree[spec.tgt] += 1
        out[spec.src].append(spec.tgt)
    ready = deque(v for v, d in indegree.items() if d == 0)
    seen = 0
    while ready:
        v = ready.popleft()
        seen += 1
        for w in out[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return seen == len(graph.vertices)


class StateStore:
    """The global state: a single-owner mutable map from thread id to that
    thread's private state value. The domain is fixed at construction."""

    __slots__ = ("_slots",)

    def __init__(self, slots: Mapping[int, Value]):
        self._slots = dict(slots)

    def get(self, thread_id: int) -> Value:
        return self._slots[thread_id]

    def set(self, thread_id: int, value: Value) -> None:
        if thread_id not in self._slots:
            raise KeyError(f"state store has no slot {thread_id}")
        self._slots[thread_id] = value

    def as_dict(self) -> Dict[int, Value]:
        return dict(self._slots)

    @property
    def domain(self) -> frozenset:
        return frozenset(self._slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateStore):
            return NotImplemented
        return self._slots == other._slots

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {v!r}" for n, v in sorted(self._slots.items()))
        return f"{{{inner}}}"


def init_state(graph: Multigraph) -> StateStore:
    """Assemble the initial global state from each thread's declared init."""
    return StateStore({n: spec.init_state for n, spec in graph.edges.items()})


def initial_slots(graph: Multigraph) -> Dict[int, Any]:
    """Every thread's declared initial state, raw (see ``unbox_state``)."""
    return {n: unbox_state(spec.init_state, spec.state_type) for n, spec in graph.edges.items()}


def ill_init(spec: ThreadSpec, init: Any) -> SchemaError:
    """The error for an ``init`` state that is not a ``Value`` of
    ``spec``'s state type."""
    return SchemaError("init_state", f"{init!r} is not a {spec.state_type.name} for {spec.fn_name}")


def raw_slots(graph: Multigraph, state: StateStore, letters) -> Dict[int, Any]:
    """The raw states of ``letters``' slots in ``state``. Raises
    ``PortTypeError`` unless ``state`` is a ``StateStore``, and
    ``ill_init``'s error for a slot that holds no ``Value``."""
    if not isinstance(state, StateStore):
        raise PortTypeError(f"expected a state store, got {type(state).__name__}")
    slots = {}
    for n in set(letters):
        spec, v = graph.edges[n], state.get(n)
        if not isinstance(v, Value):
            raise ill_init(spec, v)
        slots[n] = unbox_state(v, spec.state_type)
    return slots


def boxed_store(graph: Multigraph, state: StateStore, slots: Mapping[int, Any]) -> StateStore:
    """``state`` with the raw ``slots`` boxed in."""
    out = state.as_dict()
    for n, r in slots.items():
        out[n] = box_state(r, graph.edges[n].state_type)
    return StateStore(out)
