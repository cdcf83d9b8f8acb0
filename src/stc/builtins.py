"""Builtin transfer-function registry.

Threads draw their transfer functions from this fixed registry rather
than from arbitrary user code, so programs stay serializable and any two
runs of the same program are reproducible.

Each builtin is written once, as a raw kernel over raw values (see
``values``): a transfer, plus ``value_part``/``state_part`` for a product
thread. A builtin is instantiated once per claim (its name and params,
told apart by type) in a bounded memo. The instance is a template
``ThreadSpec`` with no id: its ``Value``-level functions are derived from
the kernels and each carries its ``model.Kernel`` (``boxed_transfer``,
``boxed_part``), so executors run the kernel itself, and every thread
making the claim (``thread_of``) shares them. Integer
arithmetic wraps at 64 bits; a result is passed through ``wrap64`` only
when it leaves the range, since ``wrap64(y) == y`` for every in-range
``y``.

Every builtin but a delay that sleeps also has a list kernel next to its
transfer kernel, ``over(xs, s) -> (outputs, new state)``: the stage-wise
map of the letter in one comprehension, returning and raising what
``composition.map_letter`` does with the transfer kernel. The transfer
kernel carries it as its ``over`` attribute (``model.list_kernel``). An
int-state builtin hands any state but an in-range int to ``map_letter``.

Registry:

    counter_add        int -> int,  int state     y = x + s, s' = s + 1
    scale_by_state     int -> int,  int state     y = x * s, s unchanged (read-only)
    add1_tick          int -> int,  int state     y = x + 1, s' = s + 1 (product)
    branch_even        int -> sum(int,int)        even -> inl x, odd -> inr x
    merge_sum          sum(d,d) -> d              strips the injection
    delay_identity_ms  t -> t                     identity, sleeps params.delay_ms
    append_tag         str -> str,  str state     y = x + s, s unchanged (read-only)

``merge_sum`` and ``delay_identity_ms`` take the carrier type from
``params["type"]`` (default ``int``).
"""

from __future__ import annotations

import functools
import time
from itertools import count
from operator import add
from typing import Any, Callable, Mapping, Optional

from .composition import map_letter
from .errors import SchemaError, UnknownFunction
from .model import (
    Kernel,
    RawStep,
    StageKind,
    ThreadSpec,
    boxed_part,
    boxed_transfer,
    ill_init,
)
from .values import (
    INT64_MAX,
    INT64_MIN,
    INT_T,
    STR_T,
    UNIT,
    UNIT_T,
    Inl,
    Inr,
    PortType,
    Record,
    Value,
    parse_port,
    sum_of,
    v_int,
    v_str,
    wrap64,
)


class BuiltinEntry(Record):
    """One registry row, instantiated once per claim with its params."""

    __slots__ = ("name", "kind", "param_keys", "instantiate")

    def __init__(self, name: str, kind: StageKind, param_keys: frozenset,
                 instantiate: Callable[[Mapping[str, Any]], "ThreadParts"]):
        self.name, self.kind, self.param_keys, self.instantiate = name, kind, param_keys, instantiate


class ThreadParts(Record):
    """One instantiated builtin: its types and raw kernels. ``sample`` is
    the transfer kernel hint sampling runs, when it differs from
    ``transfer`` (a kernel that sleeps); the thread is then ``blocking``.
    ``transfer`` carries its list kernel as ``over`` where one
    comprehension maps it over a list (see ``model.list_kernel``)."""

    __slots__ = ("src", "tgt", "state_type", "default_init", "transfer", "value_part",
                 "state_part", "sample")

    def __init__(
        self, src: PortType, tgt: PortType, state_type: PortType, default_init: Value,
        transfer: RawStep, value_part: Optional[Callable[[Any], Any]] = None,
        state_part: Optional[Callable[[Any], Any]] = None, sample: Optional[RawStep] = None,
    ):
        self.src, self.tgt, self.state_type, self.default_init = src, tgt, state_type, default_init
        self.transfer, self.value_part, self.state_part = transfer, value_part, state_part
        self.sample = sample


def _int64(s: Any) -> bool:
    """Whether the list kernel of an int-state builtin takes the state
    ``s``: from an in-range int, its state after n elements is
    ``wrap64(s + n)``; any other state runs through ``map_letter``."""
    return type(s) is int and INT64_MIN <= s <= INT64_MAX


def _counter_add(params: Mapping) -> ThreadParts:
    def fn(x: int, s: int):
        y = x + s
        s += 1
        return (
            y if INT64_MIN <= y <= INT64_MAX else wrap64(y),
            s if s <= INT64_MAX else wrap64(s),
        )

    # x + wrap64(s + i) and x + s + i wrap to the same int
    def over(xs, s):
        if not _int64(s):
            return map_letter(fn, xs, s)
        ys = [y if INT64_MIN <= y <= INT64_MAX else wrap64(y) for y in map(add, xs, count(s))]
        return ys, wrap64(s + len(xs))

    fn.over = over
    return ThreadParts(INT_T, INT_T, INT_T, v_int(0), fn)


def _scale_by_state(params: Mapping) -> ThreadParts:
    def fn(x: int, s: int):
        y = x * s
        return (y if INT64_MIN <= y <= INT64_MAX else wrap64(y)), s

    def over(xs, s):
        return [y if INT64_MIN <= y <= INT64_MAX else wrap64(y) for x in xs for y in [x * s]], s

    fn.over = over
    return ThreadParts(INT_T, INT_T, INT_T, v_int(1), fn)


def _add1_tick(params: Mapping) -> ThreadParts:
    def g(x: int) -> int:
        x += 1
        return x if x <= INT64_MAX else wrap64(x)

    def fn(x: int, s: int):
        x += 1
        s += 1
        return (x if x <= INT64_MAX else wrap64(x)), (s if s <= INT64_MAX else wrap64(s))

    def over(xs, s):
        if not _int64(s):
            return map_letter(fn, xs, s)
        ys = [y if y <= INT64_MAX else wrap64(y) for x in xs for y in [x + 1]]
        return ys, wrap64(s + len(xs))

    fn.over = over
    return ThreadParts(INT_T, INT_T, INT_T, v_int(0), fn, value_part=g, state_part=g)


def _branch_even(params: Mapping) -> ThreadParts:
    def fn(x: int, s: None):
        return (Inl(x) if x % 2 == 0 else Inr(x)), s

    def over(xs, s):
        return [Inl(x) if x % 2 == 0 else Inr(x) for x in xs], s

    fn.over = over
    return ThreadParts(INT_T, sum_of(INT_T, INT_T), UNIT_T, UNIT, fn)


def _carrier(params: Mapping) -> PortType:
    text = params.get("type", "int")
    if not isinstance(text, str):
        raise SchemaError("params.type", "port type must be a string")
    return parse_port(text, "params.type")


def _merge_sum(params: Mapping) -> ThreadParts:
    d = _carrier(params)

    def fn(x, s: None):
        return x.value, s

    def over(xs, s):
        return [x.value for x in xs], s

    fn.over = over
    return ThreadParts(sum_of(d, d), d, UNIT_T, UNIT, fn)


# about 31 years; much longer sleeps overflow the deadline time.sleep
# computes. The range test also rejects NaN, which compares false.
MAX_DELAY_MS = 10**12


def _delay_identity_ms(params: Mapping) -> ThreadParts:
    t = _carrier(params)
    delay = params.get("delay_ms", 0)
    if (
        not isinstance(delay, (int, float))
        or isinstance(delay, bool)
        or not 0 <= delay <= MAX_DELAY_MS
    ):
        raise SchemaError("params.delay_ms", f"delay must be a number from 0 to {MAX_DELAY_MS} ms")
    seconds = delay / 1000.0

    def identity(x, s: None):
        return x, s

    def fn(x, s: None):
        time.sleep(seconds)
        return x, s

    if seconds:  # a delay that sleeps is mapped element by element
        return ThreadParts(t, t, UNIT_T, UNIT, fn, sample=identity)
    identity.over = lambda xs, s: (list(xs), s)
    return ThreadParts(t, t, UNIT_T, UNIT, identity)


def _append_tag(params: Mapping) -> ThreadParts:
    def fn(x: str, s: str):
        return x + s, s

    def over(xs, s):
        return [x + s for x in xs], s

    fn.over = over
    return ThreadParts(STR_T, STR_T, STR_T, v_str(""), fn)


_REGISTRY = {
    e.name: e
    for e in (
        BuiltinEntry("counter_add", StageKind.GENERAL, frozenset(), _counter_add),
        BuiltinEntry("scale_by_state", StageKind.READ_ONLY, frozenset(), _scale_by_state),
        BuiltinEntry("add1_tick", StageKind.PRODUCT, frozenset(), _add1_tick),
        BuiltinEntry("branch_even", StageKind.READ_ONLY, frozenset(), _branch_even),
        BuiltinEntry("merge_sum", StageKind.READ_ONLY, frozenset({"type"}), _merge_sum),
        BuiltinEntry(
            "delay_identity_ms",
            StageKind.READ_ONLY,
            frozenset({"type", "delay_ms"}),
            _delay_identity_ms,
        ),
        BuiltinEntry("append_tag", StageKind.READ_ONLY, frozenset(), _append_tag),
    )
}


def builtin(name: str) -> BuiltinEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFunction(name) from None


def builtin_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def make_thread(
    thread_id: int,
    fn_name: str,
    init_state: Optional[Value] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> ThreadSpec:
    """Instantiate a registry entry as a concrete thread.

    ``init_state`` defaults to the builtin's natural initial value and
    must inhabit the builtin's state type.
    """
    params = dict(params or {})
    return thread_of(instance(fn_name, params), thread_id, init_state, params)


def thread_of(
    made: ThreadSpec, thread_id: int, init_state: Optional[Value], params: Mapping[str, Any]
) -> ThreadSpec:
    """``make_thread`` from ``made``, the ``instance(fn_name, params)`` its
    caller already holds: a copy of that template with an id and an
    init; the thread keeps ``params`` as given."""
    init = made.init_state if init_state is None else init_state
    if not (isinstance(init, Value) and init.matches(made.state_type)):
        raise ill_init(made, init)
    return ThreadSpec(thread_id, made.src, made.tgt, made.state_type, init, made.fn_name, params,
                      made.kind, made.blocking, made.transfer, made.value_part, made.state_part)


def instance(fn_name: str, params: Mapping[str, Any]) -> ThreadSpec:
    """``fn_name`` instantiated with ``params``: a template thread with no
    id, the builtin's default init, its kind, its blocking hint and its
    ``Value``-level transfer, value part and state part, each carrying its
    kernel. Equal claims share one instance; a failed one raises every
    time."""
    try:
        key = frozenset([(k, type(v), v) for k, v in params.items()])
    except TypeError:  # a list or object value, which every builtin refuses
        return _build(fn_name, params)
    return _claimed(fn_name, key)


@functools.lru_cache(maxsize=1024)
def _claimed(fn_name: str, key: frozenset) -> ThreadSpec:
    return _build(fn_name, {k: v for k, _, v in key})


def _build(fn_name: str, params: Mapping[str, Any]) -> ThreadSpec:
    entry = builtin(fn_name)
    unknown = set(params) - set(entry.param_keys)
    if unknown:
        raise SchemaError("params", f"unknown keys {sorted(unknown)} for {fn_name}")
    parts = entry.instantiate(params)
    src, tgt, st, run = parts.src, parts.tgt, parts.state_type, parts.transfer
    canonical = dict(params)
    if "type" in entry.param_keys:
        canonical["type"] = _carrier(params).name
    claim = (fn_name, tuple(sorted(canonical.items())))
    halves = [None if half is None else boxed_part(Kernel(half, half, claim), a, b)
              for half, a, b in ((parts.value_part, src, tgt), (parts.state_part, st, st))]
    return ThreadSpec(
        None, src, tgt, st, parts.default_init, fn_name, params, entry.kind,
        # a builtin blocks exactly when hint sampling must avoid its transfer
        parts.sample not in (None, run),
        boxed_transfer(Kernel(run, parts.sample or run, claim), src, tgt, st), *halves,
    )
