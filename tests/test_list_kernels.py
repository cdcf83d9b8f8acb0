"""List kernels: a builtin's whole stage-wise map in one comprehension.

``run_stagewise`` runs a letter's list kernel when its step is the
builtin's own unchecked kernel, so every list kernel must return and
raise what ``map_letter`` does with the element kernel, on the output
list and on the new state alike. Each function a builtin makes carries
its kernel, and its transfer kernel the list kernel; any other function
carries none and runs as itself."""

from __future__ import annotations

import functools

import pytest

from stc.builtins import builtin_names, instance, make_thread
from stc.composition import Word, map_letter, planner
from stc.errors import PortTypeError
from stc.harness import Xorshift64Star, sampler
from stc.model import (
    Kernel,
    build_graph,
    builtin_claim,
    kernel_of,
    list_kernel,
    raw_step,
    raw_transfer,
    replace,
)
from stc.values import INT64_MAX, INT64_MIN, Inl, Inr, equaler, v_int, v_str

# (builtin, params, sampled states): every builtin whose list form is one
# comprehension, the merge and the delay with a second carrier too
LISTED = [
    ("counter_add", {}, (0, 3, -7)),
    ("scale_by_state", {}, (1, 3, -2)),
    ("add1_tick", {}, (0, 5, -9)),
    ("branch_even", {}, (None,)),
    ("merge_sum", {}, (None,)),
    ("merge_sum", {"type": "pair(float,str)"}, (None,)),
    ("append_tag", {}, ("", "tag", "\udcff")),
    ("delay_identity_ms", {}, (None,)),
    ("delay_identity_ms", {"delay_ms": 0, "type": "list(sum(float,bool))"}, (None,)),
]
INT_STATES = ["counter_add", "scale_by_state", "add1_tick"]
EXTREMES = [INT64_MIN, INT64_MIN + 1, -2, -1, 0, 1, 2, INT64_MAX - 1, INT64_MAX]


def _kernels(fn_name, params=None):
    made = instance(fn_name, params or {})
    run = kernel_of(made.transfer).run
    return made, run, list_kernel(run)


def _outcome(f, xs, s):
    try:
        return ("returned", *f(xs, s))
    except Exception as exc:  # the exception is part of what is pinned
        return ("raised", type(exc), str(exc))


def _assert_same(fn_name, params, xs, s):
    """``over(xs, s)`` returns or raises what ``map_letter`` does: equal
    outputs and an equal new state of the same type, or the same error."""
    made, run, over = _kernels(fn_name, params)
    got = _outcome(over, list(xs), s)
    want = _outcome(lambda v, t: map_letter(run, v, t), list(xs), s)
    if want[0] == "raised" or got[0] == "raised":
        assert got == want, (xs, s)
        return
    (_, ys, t), (_, zs, u) = got, want
    same = equaler(made.tgt)
    assert type(ys) is list and len(ys) == len(zs) and all(map(same, ys, zs)), (xs, s)
    assert type(t) is type(u) and equaler(made.state_type)(t, u), (xs, s)


@pytest.mark.parametrize(
    "fn_name, params, states", LISTED, ids=[f"{f}{p or ''}" for f, p, _ in LISTED]
)
def test_list_kernel_equals_map_letter_on_sampled_lists(fn_name, params, states):
    rng = Xorshift64Star(0x5EED)
    src = _kernels(fn_name, params)[0].src
    draws = sampler(src), sampler(src, True)
    for s in states:
        for n in (0, 1, 2, 5, 17, 64):
            for draw in draws:
                _assert_same(fn_name, params, [draw(rng) for _ in range(n)], s)


@pytest.mark.parametrize("fn_name", INT_STATES)
def test_int_list_kernels_at_the_int64_extremes(fn_name):
    for s in EXTREMES:
        _assert_same(fn_name, {}, EXTREMES, s)
        for x in EXTREMES:
            _assert_same(fn_name, {}, [x], s)


@pytest.mark.parametrize("fn_name", ["counter_add", "add1_tick"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_a_state_near_int64_max_wraps_mid_list(fn_name, k):
    xs = [5, -5, INT64_MAX, INT64_MIN, 0, 7, 1, -1]
    _assert_same(fn_name, {}, xs, INT64_MAX - k)
    ys, s = _kernels(fn_name)[2](xs, INT64_MAX - k)
    assert s == INT64_MIN + len(xs) - k - 1  # the state wrapped k + 1 elements in


@pytest.mark.parametrize("s", [2**32, -(2**32), INT64_MIN, INT64_MAX, -1])
def test_scale_by_state_wraps_an_overflowing_product(s):
    xs = [2**31, -(2**31), 2**40 + 3, -1, 3, INT64_MIN, INT64_MAX]
    _assert_same("scale_by_state", {}, xs, s)
    ys = _kernels("scale_by_state")[2](xs, s)[0]
    assert all(INT64_MIN <= y <= INT64_MAX for y in ys)


# states no int list kernel's comprehension takes: a boxed state of the
# wrong type (``unbox_state`` keeps it boxed), a bool and ints out of range
WRONG_STATES = [v_str("x"), v_int(3), True, "s", None, 1.5, INT64_MAX + 1, INT64_MIN - 1, 2**70]


@pytest.mark.parametrize("fn_name", INT_STATES + ["append_tag"])
@pytest.mark.parametrize("s", WRONG_STATES, ids=repr)
def test_a_state_of_the_wrong_type_raises_what_map_letter_raises(fn_name, s):
    xs = [1, 2, 3] if fn_name in INT_STATES else ["a", "b"]
    for n in (0, 1, len(xs)):
        _assert_same(fn_name, {}, xs[:n], s)


def test_sums_and_payloads_keep_their_injections():
    _, _, over = _kernels("branch_even")
    ys, s = over([4, 3, INT64_MIN, INT64_MAX], None)
    assert [type(y) for y in ys] == [Inl, Inr, Inl, Inr] and s is None
    payloads, _ = _kernels("merge_sum")[2](ys, None)
    assert payloads == [4, 3, INT64_MIN, INT64_MAX]


def test_only_a_builtins_own_unchecked_kernel_has_a_list_kernel():
    sleeps = make_thread(2, "delay_identity_ms", params={"delay_ms": 1})
    assert list_kernel(raw_step(sleeps, False)) is None  # a delay that sleeps maps per element
    for name in ("counter_add", "scale_by_state", "add1_tick", "append_tag"):
        spec = make_thread(1, name)
        assert list_kernel(raw_step(spec, False)) is not None
        assert list_kernel(raw_step(spec, True)) is None
        replaced = replace(spec, transfer=lambda x, s, f=spec.transfer: f(x, s))
        assert list_kernel(raw_step(replaced, False)) is None
    assert list_kernel(len) is None  # a builtin function carries no attribute


@pytest.mark.parametrize("i", [0, 3, 15])
def test_checked_seq_conforms_element_by_element(i):
    # check=True keeps the element kernels: the first ill-typed element,
    # at index i, is the one reported, though a later one is ill-typed too
    graph = build_graph(make_thread(1, "counter_add"), make_thread(2, "scale_by_state"))
    items = list(range(20))
    items[i], items[19] = "bad", 2**63
    plan = planner(graph, Word((1, 2)), check=True)("seq")
    with pytest.raises(PortTypeError) as info:
        plan.core(items, {1: 0, 2: 1})
    assert str(info.value) == "thread 1 input 'bad' is not a int"
    items[i] = i
    with pytest.raises(PortTypeError) as info:
        plan.core(items, {1: 0, 2: 1})
    assert str(info.value) == "thread 1 input 9223372036854775808 is not a int"


VARIANTS = [(name, {}) for name in builtin_names()] + [
    (f, p) for f, p, _ in LISTED if p] + [("delay_identity_ms", {"delay_ms": 1})]


@pytest.mark.parametrize("fn_name, params", VARIANTS, ids=[f"{f}{p or ''}" for f, p in VARIANTS])
def test_every_builtin_function_carries_its_kernel(fn_name, params):
    # each function a builtin makes carries the kernel of its claim, and
    # its transfer kernel carries a list kernel unless it sleeps
    spec = make_thread(1, fn_name, params=params)
    claim = builtin_claim(spec)
    assert claim is not None and claim[0] == fn_name
    fns = [f for f in (spec.transfer, spec.value_part, spec.state_part) if f is not None]
    assert len(fns) == (3 if fn_name == "add1_tick" else 1)
    for fn in fns:
        assert type(fn.kernel) is Kernel and kernel_of(fn) is fn.kernel
        assert fn.kernel.claim == claim
    run = kernel_of(spec.transfer).run
    assert raw_transfer(spec) is run
    assert (list_kernel(run) is None) == bool(params.get("delay_ms"))


def _not_carried(how, spec, calls):
    def counted(x, sigma):
        calls.append(x)
        return spec.transfer(x, sigma)

    if how == "partial":
        return functools.partial(spec.transfer)
    if how == "not-a-kernel":
        counted.kernel = kernel_of(spec.transfer).run
    elif how == "wraps":  # functools.wraps copies the kernel attribute too
        counted = functools.wraps(spec.transfer)(counted)
        assert counted.kernel is spec.transfer.kernel
    return counted


@pytest.mark.parametrize("how", ["replaced", "partial", "not-a-kernel", "wraps"])
def test_a_function_that_is_not_a_builtins_own_runs_itself(how):
    spec = make_thread(1, "counter_add")
    calls = []
    fn = _not_carried(how, spec, calls)
    other = replace(spec, transfer=fn)
    assert kernel_of(fn) is None and builtin_claim(other) is None
    assert raw_transfer(other) is not kernel_of(spec.transfer).run
    assert list_kernel(raw_step(other, False)) is None
    plan = planner(build_graph(other), Word((1,)))("seq")
    assert plan.core([4, 5], {1: 0}) == ([4, 6], {1: 2})
    assert len(calls) == (0 if how == "partial" else 2)
