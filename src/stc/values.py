"""Closed value universe, structural port types, and the two value
representations.

Values are immutable trees drawn from a fixed grammar: unit, bool, 64-bit
int, 64-bit float, string, homogeneous list, pair, and the two sum
injections. Equality and hashing on boxed values are structural and
*total*: floats compare by their IEEE-754 bit pattern (NaN equals NaN, 0.0
differs from -0.0), so two equal values are interchangeable in any
executor.

Two representations, one grammar. A port type fixes which constructor a
value at that port uses, so a value needs no tag of its own while the
engine runs (type-directed boxing; Leroy, POPL 1992):

* **Raw** values are what executors, the parser and the renderer carry:
  unit is ``None``; bool, int, float and str are themselves; lists and
  pairs are tuples; sums are ``Inl``/``Inr`` wrappers. The type lives in
  the ``PortType``. Raw values are compared only through
  ``equaler(pt)``: plain ``==`` would give the wrong answer on
  ``nan != nan``, ``0.0 == -0.0`` and sums.
* **Boxed** values (``Value``) are what the public API takes and returns.
  A ``Value`` is a tuple subclass holding ``(tag, payload, elem)``, with
  read-only properties for the three fields and no instance dict.
  Equality on unit, bool, int and str compares the tag by identity and
  then the payload; float, list, pair and sum values compare by a
  canonical key that encodes floats bitwise and list element types by
  structure.

Boxing happens only at the engine's edges: a public evaluator unboxes its
input once with ``unboxer(pt)``, runs on raw values, and boxes its result
once with ``boxer(pt)``. Both trust their argument to inhabit ``pt``;
``conformer(pt)`` is the raw-side membership test that ``check=True``
runs, and ``equaler(pt)`` the raw-side equality that agrees with
``Value.__eq__``. The public constructors (``v_bool``, ``v_int``, ``v_float``,
``v_str``, ``v_list``) check the payload's type, the 64-bit int range and
list homogeneity; ``_int_value`` skips ``v_int``'s checks and trusts its
caller.

A ``PortType`` is the type of a graph vertex. Its ``name`` identifies the
vertex; its kind/args describe the values that flow through it. Two port
types are *compatible* (can carry the same values) when their structures
match, even if their names differ, which lets distinct vertices share a
carrier type.
"""

from __future__ import annotations

import functools
import struct
from enum import Enum, unique
from operator import attrgetter, eq, itemgetter
from typing import Any, Callable, Iterable, Optional, Tuple

from .errors import PortTypeError, SchemaError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
_U64 = (1 << 64) - 1


def wrap64(n: int) -> int:
    """Reduce an arbitrary int to 64-bit two's-complement."""
    return ((n - INT64_MIN) & _U64) + INT64_MIN


@unique
class TypeKind(Enum):
    UNIT = "unit"
    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STR = "str"
    LIST = "list"
    PAIR = "pair"
    SUM = "sum"

    # Enum's own hash is a Python function that hashes the name; kinds key
    # hot dicts and the memoised ``boxer``/``conformer`` caches, so hash by
    # identity in C, as ``__eq__`` compares
    __hash__ = object.__hash__


class Record:
    """Base of the engine's record classes, in place of frozen dataclasses,
    whose code generation every process start would pay. A subclass names
    its fields in ``__slots__``, in its ``__init__``'s order. Equality and
    hash follow the fields in ``_compared`` and repr shows those in
    ``_shown``, every field unless a subclass narrows them, as a
    dataclass's ``field(compare=False)`` and ``field(repr=False)`` do. No
    field is assigned after ``__init__``; ``model.replace`` makes a changed
    copy."""

    __slots__ = ()
    _compared: Optional[Tuple[str, ...]] = None
    _shown: Optional[Tuple[str, ...]] = None

    def __init_subclass__(cls) -> None:
        # the compared fields as one tuple, read in C (attrgetter makes a
        # tuple of two or more names only)
        names = cls._compared or cls.__slots__
        cls._key = staticmethod(
            attrgetter(*names) if len(names) > 1 else lambda r: (getattr(r, names[0]),)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown or self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class PortType(Record):
    __slots__ = ("name", "kind", "args")

    def __init__(self, name: str, kind: TypeKind, args: Tuple["PortType", ...] = ()):
        self.name, self.kind, self.args = name, kind, args

    def structure(self) -> tuple:
        """Name-free structural descriptor, compared for compatibility."""
        return (self.kind, tuple(a.structure() for a in self.args))

    def compatible(self, other: "PortType") -> bool:
        return self.structure() == other.structure()

    def __str__(self) -> str:
        return self.name


UNIT_T = PortType("unit", TypeKind.UNIT)
BOOL_T = PortType("bool", TypeKind.BOOL)
INT_T = PortType("int", TypeKind.INT)
FLOAT_T = PortType("float", TypeKind.FLOAT)
STR_T = PortType("str", TypeKind.STR)


def list_of(elem: PortType) -> PortType:
    return PortType(f"list({elem.name})", TypeKind.LIST, (elem,))


def pair_of(first: PortType, second: PortType) -> PortType:
    return PortType(f"pair({first.name},{second.name})", TypeKind.PAIR, (first, second))


def sum_of(left: PortType, right: PortType) -> PortType:
    return PortType(f"sum({left.name},{right.name})", TypeKind.SUM, (left, right))


def vertex(name: str, carrier: PortType) -> PortType:
    """A distinctly named vertex sharing ``carrier``'s structure."""
    return PortType(name, carrier.kind, carrier.args)


# Deepest port type (and so value) a document may nest. Every layer walks
# types and values recursively, so the limit keeps hostile input far from
# the interpreter's recursion limit.
MAX_NESTING = 100


def parse_port(text: str, path: str = "") -> PortType:
    """Parse a canonical port-type string such as ``sum(int,list(str))``."""
    pt, rest = _parse_port(text.strip(), path, 0)
    if rest:
        raise SchemaError(path, f"trailing text {rest!r} after port type")
    return pt


_ATOMS = {"unit": UNIT_T, "bool": BOOL_T, "int": INT_T, "float": FLOAT_T, "str": STR_T}


def _parse_port(text: str, path: str, depth: int) -> Tuple[PortType, str]:
    for name, pt in _ATOMS.items():
        if text.startswith(name):
            return pt, text[len(name):]
    for name, arity, build in (
        ("list", 1, lambda a: list_of(a[0])),
        ("pair", 2, lambda a: pair_of(a[0], a[1])),
        ("sum", 2, lambda a: sum_of(a[0], a[1])),
    ):
        if text.startswith(name + "("):
            if depth >= MAX_NESTING:
                raise SchemaError(path, f"port type nests deeper than {MAX_NESTING} levels")
            rest = text[len(name) + 1:]
            args = []
            for i in range(arity):
                arg, rest = _parse_port(rest, path, depth + 1)
                args.append(arg)
                sep = "," if i < arity - 1 else ")"
                if not rest.startswith(sep):
                    raise SchemaError(path, f"expected {sep!r} in port type near {rest!r}")
                rest = rest[1:]
            return build(args), rest
    raise SchemaError(path, f"unrecognized port type {text!r}")


@unique
class Tag(Enum):
    UNIT = "unit"
    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STR = "str"
    LIST = "list"
    PAIR = "pair"
    SUML = "inl"
    SUMR = "inr"


_UNIT, _BOOL, _INT, _STR = Tag.UNIT, Tag.BOOL, Tag.INT, Tag.STR
_new_tuple = tuple.__new__


class Value(tuple):
    """One immutable runtime value: the triple ``(tag, payload, elem)``.

    Payload by tag: UNIT -> None; BOOL/INT/FLOAT/STR -> the python scalar;
    LIST -> tuple of Values (with ``elem`` giving the declared element
    type); PAIR -> (Value, Value); SUML/SUMR -> the injected Value.

    The fields are read-only properties over a tuple with no instance
    dict, so no attribute of a Value can be assigned. Values are not
    ordered.
    """

    __slots__ = ()

    tag = property(itemgetter(0))
    payload = property(itemgetter(1))
    elem = property(itemgetter(2))

    def __new__(cls, tag: Tag, payload: Any = None, elem: Optional[PortType] = None):
        return _new_tuple(cls, (tag, payload, elem))

    def __getnewargs__(self) -> tuple:
        # lets copy and pickle rebuild a Value through __new__
        return tuple(self)

    def _key(self) -> tuple:
        t = self.tag
        if t is Tag.FLOAT:
            return (t, struct.pack("<d", self.payload))
        if t is Tag.LIST:
            return (t, self.elem.structure(), tuple(v._key() for v in self.payload))
        if t is Tag.PAIR:
            return (t, self.payload[0]._key(), self.payload[1]._key())
        if t in (Tag.SUML, Tag.SUMR):
            return (t, self.payload._key())
        return (t, self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        t = self[0]
        # plain tags: the payload's own equality is already exact (a bool
        # and an int never share a tag)
        if t is _INT or t is _STR or t is _BOOL or t is _UNIT:
            return t is other[0] and self[1] == other[1]
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self._key())

    # tuple order would compare floats by value, not by bit pattern
    def _unordered(self, other: object):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        t = self.tag
        if t is Tag.UNIT:
            return "unit"
        if t is Tag.LIST:
            return f"[{', '.join(map(repr, self.payload))}]:{self.elem.name}"
        if t is Tag.PAIR:
            return f"({self.payload[0]!r}, {self.payload[1]!r})"
        if t in (Tag.SUML, Tag.SUMR):
            return f"{t.value}({self.payload!r})"
        return repr(self.payload)

    def matches(self, pt: PortType) -> bool:
        """True when the value inhabits ``pt`` (structurally)."""
        k = pt.kind
        if k is TypeKind.UNIT:
            return self.tag is Tag.UNIT
        if k is TypeKind.BOOL:
            return self.tag is Tag.BOOL
        if k is TypeKind.INT:
            return self.tag is Tag.INT
        if k is TypeKind.FLOAT:
            return self.tag is Tag.FLOAT
        if k is TypeKind.STR:
            return self.tag is Tag.STR
        if k is TypeKind.LIST:
            return self.tag is Tag.LIST and self.elem.compatible(pt.args[0])
        if k is TypeKind.PAIR:
            return (
                self.tag is Tag.PAIR
                and self.payload[0].matches(pt.args[0])
                and self.payload[1].matches(pt.args[1])
            )
        if k is TypeKind.SUM:
            if self.tag is Tag.SUML:
                return self.payload.matches(pt.args[0])
            if self.tag is Tag.SUMR:
                return self.payload.matches(pt.args[1])
        return False


UNIT = Value(Tag.UNIT)


def v_bool(b: bool) -> Value:
    if type(b) is not bool:
        raise PortTypeError(f"expected bool, got {type(b).__name__}")
    return Value(Tag.BOOL, b)


def v_int(n: int) -> Value:
    if type(n) is not int:
        raise PortTypeError(f"expected int, got {type(n).__name__}")
    if not INT64_MIN <= n <= INT64_MAX:
        raise PortTypeError(f"{n} outside 64-bit range")
    return Value(Tag.INT, n)


def _int_value(n: int) -> Value:
    """``v_int`` without its checks, for an ``n`` the caller has already
    proved to be an in-range int: a ``wrap64`` result, or a JSON literal
    that passed its 64-bit range check."""
    return _new_tuple(Value, (_INT, n, None))


def v_float(x: float) -> Value:
    if type(x) is not float:
        raise PortTypeError(f"expected float, got {type(x).__name__}")
    return Value(Tag.FLOAT, x)


def v_str(s: str) -> Value:
    if type(s) is not str:
        raise PortTypeError(f"expected str, got {type(s).__name__}")
    return Value(Tag.STR, s)


def v_list(elem: PortType, items: Iterable[Value]) -> Value:
    tup = tuple(items)
    for i, item in enumerate(tup):
        if not (isinstance(item, Value) and item.matches(elem)):
            raise PortTypeError(f"list element {i} ({item!r}) is not a {elem.name}")
    return Value(Tag.LIST, tup, elem)


def v_pair(first: Value, second: Value) -> Value:
    return Value(Tag.PAIR, (first, second))


def v_inl(inner: Value) -> Value:
    return Value(Tag.SUML, inner)


def v_inr(inner: Value) -> Value:
    return Value(Tag.SUMR, inner)


def box_list(elem: PortType, items: Iterable[Any]) -> Value:
    """The list value of raw ``items`` that inhabit ``elem``, unchecked."""
    return _new_tuple(Value, (Tag.LIST, tuple(map(boxer(elem), items)), elem))


# --- the raw representation ---------------------------------------------------


class Inl:
    """Raw left injection of a sum value. Compared by identity only; compare
    boxed values instead."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"Inl({self.value!r})"


class Inr:
    """Raw right injection of a sum value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __repr__(self) -> str:
        return f"Inr({self.value!r})"


_SCALAR_TAGS = {
    TypeKind.BOOL: Tag.BOOL,
    TypeKind.INT: Tag.INT,
    TypeKind.FLOAT: Tag.FLOAT,
    TypeKind.STR: Tag.STR,
}
_SCALAR_TYPES = {TypeKind.BOOL: bool, TypeKind.FLOAT: float, TypeKind.STR: str}
_payload = itemgetter(1)

# The four compilers below are memoised per port type: executors fetch
# them once per stage or run, never per element.
_memo = functools.lru_cache(maxsize=1024)


@_memo
def boxer(pt: PortType) -> Callable[[Any], Value]:
    """Raw value of type ``pt`` -> ``Value``. Trusts its argument."""
    k = pt.kind
    if k is TypeKind.UNIT:
        return lambda r: UNIT
    if k is TypeKind.INT:
        return _int_value
    if k in _SCALAR_TAGS:
        tag = _SCALAR_TAGS[k]
        return lambda r: _new_tuple(Value, (tag, r, None))
    if k is TypeKind.LIST:
        return functools.partial(box_list, pt.args[0])
    if k is TypeKind.PAIR:
        first, second = boxer(pt.args[0]), boxer(pt.args[1])
        return lambda r: _new_tuple(Value, (Tag.PAIR, (first(r[0]), second(r[1])), None))
    left, right = boxer(pt.args[0]), boxer(pt.args[1])

    def box_sum(r: Any) -> Value:
        if type(r) is Inl:
            return _new_tuple(Value, (Tag.SUML, left(r.value), None))
        return _new_tuple(Value, (Tag.SUMR, right(r.value), None))

    return box_sum


@_memo
def unboxer(pt: PortType) -> Callable[[Value], Any]:
    """``Value`` inhabiting ``pt`` -> raw value. Trusts its argument."""
    k = pt.kind
    if k is TypeKind.UNIT:
        return lambda v: None
    if k in _SCALAR_TAGS:
        return _payload
    if k is TypeKind.LIST:
        elem = unboxer(pt.args[0])
        return lambda v: tuple(map(elem, v[1]))
    if k is TypeKind.PAIR:
        first, second = unboxer(pt.args[0]), unboxer(pt.args[1])
        return lambda v: (first(v[1][0]), second(v[1][1]))
    left, right = unboxer(pt.args[0]), unboxer(pt.args[1])
    return lambda v: Inl(left(v[1])) if v[0] is Tag.SUML else Inr(right(v[1]))


@_memo
def conformer(pt: PortType) -> Callable[[Any], bool]:
    """The membership test of ``pt`` on raw values: exact Python types, the
    64-bit int range, and every list element (a ``Value`` is no raw value)."""
    k = pt.kind
    if k is TypeKind.UNIT:
        return lambda r: r is None
    if k is TypeKind.INT:
        return lambda r: type(r) is int and INT64_MIN <= r <= INT64_MAX
    if k in _SCALAR_TYPES:
        cls = _SCALAR_TYPES[k]
        return lambda r: type(r) is cls
    if k is TypeKind.LIST:
        elem = conformer(pt.args[0])
        return lambda r: type(r) is tuple and all(map(elem, r))
    if k is TypeKind.PAIR:
        first, second = conformer(pt.args[0]), conformer(pt.args[1])
        return lambda r: type(r) is tuple and len(r) == 2 and first(r[0]) and second(r[1])
    left, right = conformer(pt.args[0]), conformer(pt.args[1])
    return lambda r: (
        (type(r) is Inl and left(r.value)) or (type(r) is Inr and right(r.value))
    )


_pack_double = struct.Struct("<d").pack
# kinds whose raw values Python's == already compares exactly
_PLAIN_KINDS = (TypeKind.UNIT, TypeKind.BOOL, TypeKind.INT, TypeKind.STR)


def _plain(pt: PortType) -> bool:
    return pt.kind in _PLAIN_KINDS or (
        pt.kind in (TypeKind.LIST, TypeKind.PAIR) and all(map(_plain, pt.args))
    )


@_memo
def equaler(pt: PortType) -> Callable[[Any, Any], bool]:
    """Equality of two raw values of type ``pt``, bit-exact as
    ``Value.__eq__`` is on their boxed forms: floats compare by their bit
    pattern (NaN payloads count, 0.0 differs from -0.0) and sums by
    injection. Trusts both arguments to inhabit ``pt``."""
    k = pt.kind
    if _plain(pt):  # unit, bool, int and str, and tuples of them only
        return eq
    if k is TypeKind.FLOAT:
        return lambda a, b: a is b or _pack_double(a) == _pack_double(b)
    if k is TypeKind.LIST:
        elem = equaler(pt.args[0])
        return lambda a, b: len(a) == len(b) and all(map(elem, a, b))
    if k is TypeKind.PAIR:
        first, second = equaler(pt.args[0]), equaler(pt.args[1])
        return lambda a, b: first(a[0], b[0]) and second(a[1], b[1])
    left, right = equaler(pt.args[0]), equaler(pt.args[1])
    return lambda a, b: type(a) is type(b) and (left if type(a) is Inl else right)(
        a.value, b.value
    )


def unbox_state(v: Value, pt: PortType) -> Any:
    """A state value as the engine holds it: raw when it inhabits ``pt``.

    A state that does not (a replaced transfer may store one when run
    unchecked) stays the ``Value`` itself, which no raw value ever is;
    ``check=True`` reports it, and ``box_state`` hands it back unchanged,
    so nothing is ever boxed under the wrong tag."""
    if isinstance(v, Value) and v.matches(pt):
        return unboxer(pt)(v)
    return v


def box_state(r: Any, pt: PortType) -> Value:
    """Inverse of ``unbox_state``."""
    return r if isinstance(r, Value) else boxer(pt)(r)

