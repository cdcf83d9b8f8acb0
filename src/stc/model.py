"""Thread specifications, the thread multigraph, and the global state store.

A fundamental state thread is an edge of a directed multigraph whose
vertices are port types. Each thread owns exactly one private state slot,
keyed by its integer id; the global state is the finite map from thread
ids to their current private state values.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum, unique
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .errors import DuplicateThreadId, PortTypeError
from .values import PortType, Value

TransferFn = Callable[[Value, Value], Tuple[Value, Value]]


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


@dataclass(frozen=True)
class ThreadSpec:
    """One fundamental state thread: a typed transfer function plus its
    private state slot.

    ``transfer`` maps (input value, state value) to (output value, new
    state value). It is pure and deterministic. For PRODUCT threads,
    ``value_part`` and ``state_part`` expose the two independent halves.
    """

    id: int
    src: PortType
    tgt: PortType
    state_type: PortType
    init_state: Value
    fn_name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    kind: StageKind = StageKind.GENERAL
    transfer: TransferFn = field(compare=False, repr=False, default=None)
    value_part: Optional[Callable[[Value], Value]] = field(
        compare=False, repr=False, default=None
    )
    state_part: Optional[Callable[[Value], Value]] = field(
        compare=False, repr=False, default=None
    )

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


def expect_port(spec: ThreadSpec, what: str, v: Value, pt: PortType) -> None:
    """Raise ``PortTypeError`` unless ``v``, the ``what`` of thread
    ``spec``, inhabits ``pt``."""
    if not v.matches(pt):
        raise PortTypeError(f"thread {spec.id} {what} {v!r} is not a {pt.name}")


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


def stepper(spec: ThreadSpec, check: bool) -> TransferFn:
    """The call that applies ``spec`` to one element: its bare transfer
    function, or with ``check`` that call type-checked by ``apply_thread``.
    Loops call it per element, so the unchecked path pays no extra frame."""
    if check:
        return functools.partial(apply_thread, spec, check=True)
    return spec.transfer


@dataclass(frozen=True)
class Multigraph:
    """Directed multigraph of threads: vertices are port types, edges are
    thread ids. Parallel edges between the same vertex pair are allowed."""

    edges: Mapping[int, ThreadSpec] = field(default_factory=dict)
    vertices: frozenset = frozenset()

    @staticmethod
    def empty() -> "Multigraph":
        return Multigraph({}, frozenset())

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
    graph = Multigraph.empty()
    for spec in specs:
        graph = register_thread(spec, graph)
    return graph


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

    def copy(self) -> "StateStore":
        return StateStore(self._slots)

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
