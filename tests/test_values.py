from __future__ import annotations

import math

import pytest

from stc import (
    BOOL_T,
    INT_T,
    STR_T,
    UNIT,
    SchemaError,
    list_of,
    pair_of,
    parse_port,
    sum_of,
    v_bool,
    v_float,
    v_inl,
    v_inr,
    v_int,
    v_list,
    v_pair,
    v_str,
    vertex,
    wrap64,
)
from stc.errors import PortTypeError
from stc.values import FLOAT_T, INT64_MAX, INT64_MIN, MAX_NESTING, Value, _int_value


def test_wrap64_two_complement():
    assert wrap64(INT64_MAX + 1) == INT64_MIN
    assert wrap64(INT64_MIN - 1) == INT64_MAX
    assert wrap64(0) == 0
    assert wrap64(-1) == -1
    assert wrap64(2**64) == 0


def test_int_range_enforced():
    v_int(INT64_MAX)
    v_int(INT64_MIN)
    with pytest.raises(PortTypeError):
        v_int(INT64_MAX + 1)
    with pytest.raises(PortTypeError):
        v_int(True)  # bools are not ints here


def test_value_equality_is_structural():
    assert v_int(3) == v_int(3)
    assert v_int(3) != v_bool(True)
    assert v_pair(v_int(1), v_str("x")) == v_pair(v_int(1), v_str("x"))
    assert v_inl(v_int(1)) != v_int(1)
    assert UNIT == UNIT


def test_a_value_without_an_injection_does_not_match_a_sum():
    assert v_inl(v_int(1)).matches(sum_of(INT_T, INT_T))
    assert not v_int(1).matches(sum_of(INT_T, INT_T))


def test_float_equality_is_bitwise_and_total():
    nan = float("nan")
    assert v_float(nan) == v_float(nan)
    assert v_float(0.0) != v_float(-0.0)
    assert hash(v_float(0.5)) == hash(v_float(0.5))
    assert not math.isnan(1.0)  # sanity


def test_list_homogeneity_enforced():
    v_list(INT_T, [v_int(1), v_int(2)])
    with pytest.raises(PortTypeError):
        v_list(INT_T, [v_int(1), v_str("x")])


def test_empty_lists_compare_by_element_structure():
    assert v_list(INT_T, []) == v_list(INT_T, [])
    assert v_list(INT_T, []) != v_list(STR_T, [])
    # Names do not matter for value equality, structure does.
    assert v_list(vertex("a", INT_T), []) == v_list(INT_T, [])


def test_port_compatibility_ignores_names():
    a = vertex("a", INT_T)
    assert a != INT_T
    assert a.compatible(INT_T)
    assert not a.compatible(STR_T)
    assert v_int(1).matches(a)


def test_port_parse_round_trip():
    for text in (
        "int",
        "unit",
        "bool",
        "float",
        "str",
        "list(int)",
        "pair(int,str)",
        "sum(int,int)",
        "list(pair(sum(int,str),bool))",
    ):
        assert parse_port(text).name == text


def test_port_parse_rejects_junk():
    for bad in ("", "in", "list(int", "pair(int)", "sum(int,int) x", "list()"):
        with pytest.raises(SchemaError):
            parse_port(bad)


def test_port_constructors_compose():
    assert list_of(INT_T).name == "list(int)"
    assert pair_of(INT_T, STR_T).args == (INT_T, STR_T)
    assert sum_of(BOOL_T, BOOL_T).kind.value == "sum"


def _one_of_each_tag():
    return [
        UNIT,
        v_bool(True),
        v_int(1),
        v_float(1.0),
        v_str("1"),
        v_list(INT_T, [v_int(1)]),
        v_pair(v_int(1), v_str("x")),
        v_inl(v_int(1)),
        v_inr(v_bool(False)),
    ]


@pytest.mark.parametrize("field", ["tag", "payload", "elem", "extra"])
def test_value_fields_cannot_be_assigned(field):
    for v in _one_of_each_tag():
        with pytest.raises(AttributeError):
            setattr(v, field, None)
        with pytest.raises(AttributeError):
            object.__setattr__(v, field, None)


def test_values_are_not_ordered():
    with pytest.raises(TypeError):
        v_int(1) < v_int(2)


def test_equality_and_hash_agree_for_every_tag():
    left, right = _one_of_each_tag(), _one_of_each_tag()
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            assert (a == b) is (i == j) and (a != b) is (i != j)
            if i == j:
                assert hash(a) == hash(b)
    assert len(set(left + right)) == len(left)


def _atom_type(v):
    return {"bool": BOOL_T, "int": INT_T, "float": FLOAT_T}[v.tag.value]


# the value itself, then inside a pair (either side), a list and a sum
WRAPS = [
    lambda v: v,
    lambda v: v_pair(v, UNIT),
    lambda v: v_pair(UNIT, v),
    lambda v: v_list(_atom_type(v), [v]),
    v_inl,
    v_inr,
]


@pytest.mark.parametrize("wrap", WRAPS)
def test_bool_int_float_stay_distinct_at_any_depth(wrap):
    for a, b in [(v_bool(True), v_int(1)), (v_int(1), v_float(1.0)),
                 (v_float(0.0), v_float(-0.0)), (v_bool(False), v_int(0))]:
        assert wrap(a) != wrap(b) and not wrap(a) == wrap(b)
    nan = v_float(float("nan"))
    other_nan = v_float(float("nan"))
    assert wrap(nan) == wrap(other_nan) and not wrap(nan) != wrap(other_nan)
    assert hash(wrap(nan)) == hash(wrap(other_nan))


def test_public_constructors_keep_their_checks():
    for bad in (True, False, 1.0, "1", INT64_MAX + 1, INT64_MIN - 1):
        with pytest.raises(PortTypeError):
            v_int(bad)
    with pytest.raises(PortTypeError):
        v_float(1)
    with pytest.raises(PortTypeError):
        v_bool(1)


def test_unchecked_int_box_equals_checked_one():
    for n in (0, -1, INT64_MIN, INT64_MAX, wrap64(INT64_MAX + 5)):
        v = _int_value(n)
        assert type(v) is Value and v == v_int(n) and hash(v) == hash(v_int(n))
        assert v.tag is v_int(n).tag and v.payload == n and v.elem is None


def test_port_parse_nesting_limit():
    deep = "list(" * MAX_NESTING + "int" + ")" * MAX_NESTING
    assert parse_port(deep).name == deep
    with pytest.raises(SchemaError, match="nests deeper"):
        parse_port("list(" + deep + ")")
    with pytest.raises(SchemaError, match="nests deeper"):
        parse_port("list(" * 3000)
