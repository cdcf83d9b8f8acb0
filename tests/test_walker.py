"""The compiled element walk (``composition.walker``) against the loop it
replaces: one element through every part, each step reading and writing
its letter's slot in a dict. Outputs, final slots and failures must match
on words that fill, overrun and chain compiled blocks, on words that
repeat a letter, and on branches whose sides are empty or not."""

from __future__ import annotations

import time

import pytest

from stc import BranchProgram, Word, build_graph, make_thread, v_int
from stc.composition import _BLOCK, _block, _interleaved, parts, planner, route_of, walker
from stc.model import initial_slots
from stc.values import INT_T, Inl

FNS = ("counter_add", "scale_by_state", "add1_tick")
ITEMS = [0, 1, -3, 7, 2**62, -(2**63), 12, 5]


def reference_walk(route, slots, v):
    """One element through ``route``, as the element walk ran before it
    was compiled; an element whose side has no steps passes as it is."""
    for part in route:
        side = type(part) is tuple
        steps = (part[0] if type(v) is Inl else part[1]) if side else part
        if steps:
            u = v.value if side else v
            for n, step in steps:
                u, slots[n] = step(u, slots[n])
            v = type(v)(u) if side else u
    return v


def chain_graph(n):
    """Threads ``1..n`` over ints, cycling through ``FNS`` with initial
    states ``1..n``; thread ``n + 1`` is ``branch_even`` and ``n + 2``
    ``merge_sum``."""
    return build_graph(
        *(make_thread(i, FNS[i % 3], v_int(i)) for i in range(1, n + 1)),
        make_thread(n + 1, "branch_even"),
        make_thread(n + 2, "merge_sum"),
    )


def walk_both(graph, shape, check, items=ITEMS):
    """``shape``'s route over ``items`` by ``walker`` and by
    ``reference_walk``: (outputs, final slots) of each."""
    route = route_of(graph, parts(shape), check)
    want_slots = initial_slots(graph)
    want = [reference_walk(route, want_slots, v) for v in items]
    got_slots = initial_slots(graph)
    each, settle = walker(route, got_slots)
    try:
        got = [each(v) for v in items]
    finally:
        settle()
    return (got, got_slots), (want, want_slots)


def unwrap(values):
    return [(type(v).__name__, v.value) if hasattr(v, "value") else v for v in values]


@pytest.mark.parametrize("check", [False, True], ids=["raw", "checked"])
@pytest.mark.parametrize("length", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1])
def test_walker_matches_the_loop_on_words(length, check):
    graph = chain_graph(length)
    word = Word(tuple(range(1, length + 1)))
    (got, got_slots), (want, want_slots) = walk_both(graph, word, check)
    assert got == want
    assert got_slots == want_slots


@pytest.mark.parametrize("check", [False, True], ids=["raw", "checked"])
def test_walker_threads_one_state_through_a_repeated_letter(check):
    # letters 1..7 repeat within a block and across chained blocks
    graph = chain_graph(7)
    word = Word(tuple(1 + i % 7 for i in range(2 * _BLOCK + 5)))
    (got, got_slots), (want, want_slots) = walk_both(graph, word, check)
    assert got == want
    assert got_slots == want_slots


@pytest.mark.parametrize("check", [False, True], ids=["raw", "checked"])
@pytest.mark.parametrize(
    "left, right",
    [((), (3, 4)), ((3, 4), ()), ((3,), (4, 5, 6)), ((), ())],
    ids=["empty-left", "empty-right", "both-sides", "both-empty"],
)
def test_walker_matches_the_loop_on_branches(left, right, check):
    graph = chain_graph(20)
    prog = BranchProgram(Word((1, 2, 21)), Word(left, INT_T), Word(right, INT_T), Word((22, 7)))
    (got, got_slots), (want, want_slots) = walk_both(graph, prog, check)
    assert got == want
    assert got_slots == want_slots
    # stop at the sides: the sum elements keep their injections
    route = route_of(graph, (Word((1, 21)), (Word(left, INT_T), Word(right, INT_T))))
    want_slots, got_slots = initial_slots(graph), initial_slots(graph)
    want = [reference_walk(route, want_slots, v) for v in ITEMS]
    each, settle = walker(route, got_slots)
    got = [each(v) for v in ITEMS]
    settle()
    assert unwrap(got) == unwrap(want)
    assert got_slots == want_slots


def failing_route():
    """Five letters over ints, each state counting its elements from 1;
    letter 3 fails on element 2, letter 1 on element 3."""

    def step(n, fail_at):
        def run(v, s):
            if s == fail_at + 1:
                raise ValueError(f"letter {n} fails on element {fail_at}")
            return v + s, s + 1

        return run

    return [[(n, step(n, {1: 3, 3: 2}.get(n, -1))) for n in range(1, 6)]]


def test_a_failing_kernel_raises_the_first_failure_and_leaves_the_same_slots():
    route = failing_route()
    items = [0, 1, 2, 9, 5]
    want_slots = dict.fromkeys(range(1, 6), 1)
    with pytest.raises(ValueError) as want:
        for v in items:
            reference_walk(route, want_slots, v)
    got_slots = dict.fromkeys(range(1, 6), 1)
    each, settle = walker(route, got_slots)
    with pytest.raises(ValueError, match="^letter 3 fails on element 2$") as got:
        try:
            [each(v) for v in items]
        finally:
            settle()
    assert str(got.value) == str(want.value)
    assert got_slots == want_slots == {1: 4, 2: 4, 3: 3, 4: 3, 5: 3}


def test_interleaved_core_leaves_the_slots_the_loop_leaves_on_failure():
    graph = chain_graph(3)
    route = route_of(graph, parts(Word((1, 2, 3))))

    def third(v, s):  # letter 2 fails on its third element
        if s >= 4:
            raise ValueError("third element")
        return v + 1, s + 1

    route[0][1] = (2, third)
    want_slots = initial_slots(graph)
    with pytest.raises(ValueError):
        for v in ITEMS:
            reference_walk(route, want_slots, v)
    got_slots = initial_slots(graph)
    with pytest.raises(ValueError):
        _interleaved(route, ITEMS, got_slots)
    assert got_slots == want_slots
    assert got_slots[2] == 4


def test_only_element_walks_compile_blocks():
    graph = chain_graph(_BLOCK + 3)
    word = Word(tuple(range(1, _BLOCK + 4)))
    plan = planner(graph, word)
    _block.cache_clear()
    slots = initial_slots(graph)
    for mode, workers in (("seq", 1), ("pipeline", 2), ("auto", 2)):
        plan(mode, workers).core(list(ITEMS), dict(slots))
    assert _block.cache_info().hits == _block.cache_info().misses == 0
    plan("interleaved").core(list(ITEMS), dict(slots))
    assert _block.cache_info().misses == 2  # a block of _BLOCK letters and one of 3


def test_a_long_word_compiles_bounded_blocks_in_bounded_time():
    length = 20_000
    graph = build_graph(*(make_thread(i, FNS[i % 3], v_int(i % 5)) for i in range(1, length + 1)))
    word = Word(tuple(range(1, length + 1)))
    _block.cache_clear()
    start = time.perf_counter()
    got, got_slots = planner(graph, word)("interleaved").core([1, -2, 3], initial_slots(graph))
    assert time.perf_counter() - start < 5.0
    assert _block.cache_info().currsize <= _BLOCK
    route = route_of(graph, parts(word))
    want_slots = initial_slots(graph)
    assert got == [reference_walk(route, want_slots, v) for v in [1, -2, 3]]
    assert got_slots == want_slots
