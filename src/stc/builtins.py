"""Builtin transfer-function registry.

Threads draw their transfer functions from this fixed registry rather
than from arbitrary user code, so programs stay serializable and any two
runs of the same program are reproducible. Integer arithmetic wraps at 64
bits: every int result is a ``wrap64`` result, so it is boxed with the
unchecked ``_int_value``.

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

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from .errors import SchemaError, UnknownFunction
from .model import StageKind, ThreadSpec, TransferFn
from .values import (
    INT_T,
    STR_T,
    UNIT,
    UNIT_T,
    PortType,
    Value,
    _int_value,
    parse_port,
    sum_of,
    v_inl,
    v_inr,
    v_int,
    v_str,
    wrap64,
)


@dataclass(frozen=True)
class BuiltinEntry:
    """One registry row, instantiated per thread with its params."""

    name: str
    kind: StageKind
    param_keys: frozenset
    instantiate: Callable[[Mapping[str, Any]], "ThreadParts"]


@dataclass(frozen=True)
class ThreadParts:
    src: PortType
    tgt: PortType
    state_type: PortType
    default_init: Value
    transfer: TransferFn
    value_part: Optional[Callable[[Value], Value]] = None
    state_part: Optional[Callable[[Value], Value]] = None


def _counter_add(params: Mapping) -> ThreadParts:
    def fn(x: Value, s: Value):
        return _int_value(wrap64(x.payload + s.payload)), _int_value(wrap64(s.payload + 1))

    return ThreadParts(INT_T, INT_T, INT_T, v_int(0), fn)


def _scale_by_state(params: Mapping) -> ThreadParts:
    def fn(x: Value, s: Value):
        return _int_value(wrap64(x.payload * s.payload)), s

    return ThreadParts(INT_T, INT_T, INT_T, v_int(1), fn)


def _add1_tick(params: Mapping) -> ThreadParts:
    def g(x: Value) -> Value:
        return _int_value(wrap64(x.payload + 1))

    def h(s: Value) -> Value:
        return _int_value(wrap64(s.payload + 1))

    def fn(x: Value, s: Value):
        return g(x), h(s)

    return ThreadParts(INT_T, INT_T, INT_T, v_int(0), fn, value_part=g, state_part=h)


def _branch_even(params: Mapping) -> ThreadParts:
    def fn(x: Value, s: Value):
        return (v_inl(x) if x.payload % 2 == 0 else v_inr(x)), s

    return ThreadParts(INT_T, sum_of(INT_T, INT_T), UNIT_T, UNIT, fn)


def _carrier(params: Mapping) -> PortType:
    text = params.get("type", "int")
    if not isinstance(text, str):
        raise SchemaError("params.type", "port type must be a string")
    return parse_port(text, "params.type")


def _merge_sum(params: Mapping) -> ThreadParts:
    d = _carrier(params)

    def fn(x: Value, s: Value):
        return x.payload, s

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

    def fn(x: Value, s: Value):
        if seconds:
            time.sleep(seconds)
        return x, s

    return ThreadParts(t, t, UNIT_T, UNIT, fn)


def _append_tag(params: Mapping) -> ThreadParts:
    def fn(x: Value, s: Value):
        return v_str(x.payload + s.payload), s

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
    entry = builtin(fn_name)
    unknown = set(params) - set(entry.param_keys)
    if unknown:
        raise SchemaError("params", f"unknown keys {sorted(unknown)} for {fn_name}")
    parts = entry.instantiate(params)
    init = parts.default_init if init_state is None else init_state
    if not init.matches(parts.state_type):
        raise SchemaError(
            "init_state", f"{init!r} is not a {parts.state_type.name} for {fn_name}"
        )
    return ThreadSpec(
        id=thread_id,
        src=parts.src,
        tgt=parts.tgt,
        state_type=parts.state_type,
        init_state=init,
        fn_name=fn_name,
        params=params,
        kind=entry.kind,
        transfer=parts.transfer,
        value_part=parts.value_part,
        state_part=parts.state_part,
    )
