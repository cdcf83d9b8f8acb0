from __future__ import annotations

import json
import sys
import threading
from contextlib import nullcontext
from functools import partial
from itertools import groupby, product

import pytest

from stc import (
    BranchProgram,
    FlagMismatch,
    INT_T,
    RepeatedLetter,
    StageKind,
    Word,
    build_graph,
    eval_branch,
    eval_branch_elementwise,
    eval_auto_word,
    eval_interleaved,
    eval_psi_ref,
    init_state,
    join,
    make_thread,
    run_data_parallel_product,
    run_data_parallel_readonly,
    run_pipeline,
    run_task_parallel_branch,
    split,
    sum_of,
    v_inl,
    v_inr,
    v_int,
    v_list,
    v_str,
)
from stc.errors import ExecutionError, PathMismatch, PortTypeError, StcError, ValidationError
from stc.harness import (
    FuzzConfig,
    _all_blocking,
    carrier_stream,
    program_stream,
    run_program,
    verify_classification,
)
from stc import mutations, parallel
from stc.cli import main
from stc.composition import planner, run_route
from stc.model import Kernel, boxed_part, boxed_transfer, raw_step, register_kernel, replace
from stc.parallel import MAX_WORKERS, Crew
from stc.program import Program
from conftest import counter_scale_graph, int_list, thread_starts

SUM_II = sum_of(INT_T, INT_T)


def sum_list(*items):
    return v_list(SUM_II, list(items))


# --- classification ---------------------------------------------------------


def test_classify_counter_is_general():
    assert make_thread(1, "counter_add").kind is StageKind.GENERAL


def test_classify_scale_is_read_only_and_holds_up(rng):
    spec = make_thread(1, "scale_by_state", v_int(3))
    assert spec.kind is StageKind.READ_ONLY
    assert verify_classification(spec, rng, trials=1000)


def test_classify_add1_tick_is_product_and_holds_up(rng):
    spec = make_thread(1, "add1_tick", v_int(0))
    assert spec.kind is StageKind.PRODUCT
    assert verify_classification(spec, rng, trials=1000)


def test_general_hint_is_not_sampled(rng):
    def boom(x, s):
        raise AssertionError("a GENERAL thread's transfer was sampled")

    spec = replace(make_thread(1, "counter_add"), transfer=boom)
    assert spec.kind is StageKind.GENERAL
    state = rng.state
    assert verify_classification(spec, rng)
    assert rng.state == state


# --- data-parallel fast paths -----------------------------------------------


def test_readonly_fast_path():
    spec = make_thread(1, "scale_by_state", v_int(3))
    out, sigma = run_data_parallel_readonly(spec, int_list(1, 2, 3), v_int(3))
    assert out == int_list(3, 6, 9)
    assert sigma == v_int(3)


def test_readonly_fast_path_empty():
    spec = make_thread(1, "scale_by_state", v_int(3))
    out, sigma = run_data_parallel_readonly(spec, int_list(), v_int(3))
    assert out == int_list() and sigma == v_int(3)


def test_readonly_fast_path_rejects_general():
    with pytest.raises(ValidationError):
        run_data_parallel_readonly(make_thread(1, "counter_add"), int_list(1), v_int(0))


# the fast paths' worker counts, lengths and blocking hints: a blocking
# letter over 16 or more elements runs one replica per 8 elements, at most
# one per worker, the first on the calling thread; else no thread starts
_FAST_CASES = list(product((False, True), (0, 1, 15, 16, 17, 40), (1, 2, 4, 8)))


def _fast_threads(blocking, n, workers):
    return min(workers, n // 8) - 1 if blocking and workers > 1 and n >= 16 else 0


def test_readonly_matches_reference(rng):
    base = make_thread(1, "scale_by_state", v_int(5))
    for blocking, n, workers in _FAST_CASES:
        spec = replace(base, blocking=blocking)
        graph = build_graph(spec)
        xs = int_list(*(rng.below(2001) - 1000 for _ in range(n)))
        expect, st = eval_psi_ref(graph, Word((1,)), xs, init_state(graph))
        with thread_starts() as started:
            got, sigma = run_data_parallel_readonly(spec, xs, v_int(5), workers)
        assert got == expect and sigma == st.get(1)
        assert len(started) == _fast_threads(blocking, n, workers), (blocking, n, workers)


def test_product_fast_path():
    spec = make_thread(1, "add1_tick", v_int(0))
    out, sigma = run_data_parallel_product(spec, int_list(5, 6), v_int(0))
    assert out == int_list(6, 7)
    assert sigma == v_int(2)


def test_product_fast_path_empty():
    spec = make_thread(1, "add1_tick", v_int(0))
    out, sigma = run_data_parallel_product(spec, int_list(), v_int(7))
    assert out == int_list() and sigma == v_int(7)


def test_product_matches_reference_and_iterated_update(rng):
    base = make_thread(1, "add1_tick", v_int(0))
    for blocking, n, workers in _FAST_CASES:
        spec = replace(base, blocking=blocking)
        graph = build_graph(spec)
        xs = int_list(*(rng.below(2001) - 1000 for _ in range(n)))
        expect, st = eval_psi_ref(graph, Word((1,)), xs, init_state(graph))
        with thread_starts() as started:
            got, sigma = run_data_parallel_product(spec, xs, v_int(0), workers)
        assert got == expect and sigma == st.get(1)
        assert len(started) == _fast_threads(blocking, n, workers), (blocking, n, workers)
        state = v_int(0)
        for _ in range(len(xs.payload)):
            state = spec.state_part(state)
        assert sigma == state


# --- pipeline ----------------------------------------------------------------


def test_pipeline_two_stage_example():
    graph = counter_scale_graph()
    out, st = run_pipeline(graph, Word((1, 2)), int_list(10, 20), init_state(graph), 2)
    assert out == int_list(30, 63)
    assert st.as_dict() == {1: v_int(2), 2: v_int(3)}


def test_pipeline_empty_input():
    graph = counter_scale_graph()
    store = init_state(graph)
    out, st = run_pipeline(graph, Word((1, 2)), int_list(), store, 4)
    assert out == int_list() and st == store


def test_pipeline_empty_word():
    graph = counter_scale_graph()
    store = init_state(graph)
    out, st = run_pipeline(graph, Word((), INT_T), int_list(1, 2), store, 4)
    assert out == int_list(1, 2) and st == store


def test_pipeline_rejects_nonpositive_workers():
    graph = counter_scale_graph()
    with pytest.raises(ValidationError):
        run_pipeline(graph, Word((1,)), int_list(1), init_state(graph), 0)


@pytest.mark.parametrize("workers", [0, -3])
def test_auto_and_fast_paths_reject_nonpositive_workers(workers):
    graph = counter_scale_graph()
    branch_graph = build_graph(make_thread(1, "branch_even"), make_thread(2, "merge_sum"))
    branch = BranchProgram(Word((1,)), Word((), INT_T), Word((), INT_T), Word((2,)))
    tick = make_thread(1, "add1_tick")
    calls = [
        lambda: eval_auto_word(graph, Word((1, 2)), int_list(1), init_state(graph), workers),
        lambda: planner(branch_graph, branch)("auto", workers),
        lambda: run_data_parallel_readonly(graph.edges[2], int_list(1), v_int(3), workers),
        lambda: run_data_parallel_product(tick, int_list(1), v_int(0), workers),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="^workers must be a positive integer$"):
            call()


def test_pipeline_matches_reference_across_worker_counts(rng):
    stream = program_stream(FuzzConfig(seed=99, trials=1))
    for _ in range(40):
        p = next(stream)
        if p.is_branch:
            continue
        expect = eval_psi_ref(p.graph, p.word, p.input, init_state(p.graph))
        for workers in (1, 2, 4, 8):
            got = run_pipeline(p.graph, p.word, p.input, init_state(p.graph), workers)
            assert got == expect


def test_pipeline_repeated_letters_run_segmented():
    graph = build_graph(make_thread(1, "counter_add", v_int(0)))
    word = Word((1, 1))
    xs = int_list(10, 20)
    expect = eval_psi_ref(graph, word, xs, init_state(graph))
    assert expect[0] == int_list(12, 24)  # stage one: [10, 21]; stage two adds s=2,3
    for workers in (1, 3):
        assert run_pipeline(graph, word, xs, init_state(graph), workers) == expect


def test_pipeline_small_capacity_backpressure():
    graph = _all_blocking(counter_scale_graph())
    xs = int_list(*range(50))
    expect = eval_psi_ref(graph, Word((1, 2)), xs, init_state(graph))
    with thread_starts() as started:
        got = run_pipeline(graph, Word((1, 2)), xs, init_state(graph), 2, capacity=1)
    assert got == expect and len(started) == 1


def test_pipeline_multiplexes_more_stages_than_workers():
    graph = _all_blocking(build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "add1_tick", v_int(0)),
        make_thread(3, "scale_by_state", v_int(2)),
        make_thread(4, "counter_add", v_int(5)),
        make_thread(5, "add1_tick", v_int(1)),
    ))
    word = Word((1, 2, 3, 4, 5))
    xs = int_list(*range(25))
    expect = eval_psi_ref(graph, word, xs, init_state(graph))
    with thread_starts() as started:
        got = run_pipeline(graph, word, xs, init_state(graph), workers=2)
    assert got == expect and len(started) == 1


class Boom(Exception):
    pass


def _raising(thread_id, at):
    """A counter_add thread whose transfer raises on input value ``at``."""
    base = make_thread(thread_id, "counter_add", v_int(0))

    def transfer(x, sigma):
        if x.payload == at:
            raise Boom(f"thread {thread_id} on {at}")
        return base.transfer(x, sigma)

    return replace(base, transfer=transfer, blocking=True)


def _raised_within(call, timeout=30.0):
    """Run ``call`` on a helper thread and return what it raised; a call
    that hangs fails the test instead of stalling the suite."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "call did not return"
    assert raised, "call did not raise"
    return raised[0]


def test_pipeline_single_letter_segment_failure_is_wrapped():
    graph = build_graph(_raising(1, 3))
    err = _raised_within(
        lambda: run_pipeline(graph, Word((1, 1)), int_list(1, 2), init_state(graph), 2)
    )
    # raised as it is, like any stage's failure
    assert isinstance(err, Boom) and str(err) == "thread 1 on 3"


@pytest.mark.parametrize("position", [0, 2, 4])  # first, middle, last group at 4 workers
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pipeline_stage_failure_surfaces_and_joins(position, workers):
    specs = [
        _raising(n, 30) if n == position + 1 else make_thread(n, "add1_tick", v_int(0))
        for n in range(1, 6)
    ]
    graph = _all_blocking(build_graph(*specs))
    word = Word(tuple(range(1, 6)))
    xs = v_list(INT_T, [v_int(0)] * 200 + [v_int(30 - position)] + [v_int(1)] * 200)
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(
            lambda: run_pipeline(graph, word, xs, init_state(graph), workers, capacity=1)
        )
    assert isinstance(err, Boom) and str(err) == f"thread {position + 1} on 30"
    assert len(started) == workers  # the helper and one thread per group after the first
    assert threading.active_count() == before


def test_pipeline_stress_more_workers_than_cores():
    specs = [make_thread(n, ("counter_add", "add1_tick")[n % 2], v_int(n)) for n in range(1, 9)]
    graph = _all_blocking(build_graph(*specs))
    word = Word(tuple(range(1, 9)))
    xs = int_list(*range(600))
    expect = eval_psi_ref(graph, word, xs, init_state(graph))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with thread_starts() as started:
            for workers in (3, 8):
                got = run_pipeline(graph, word, xs, init_state(graph), workers, capacity=2)
                assert got == expect
    finally:
        sys.setswitchinterval(old)
    assert len(started) == 2 + 7


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_lists_at_many_workers_match_reference(n):
    graph = _all_blocking(build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "scale_by_state", v_int(3)),
        make_thread(3, "add1_tick", v_int(0)),
    ))
    word = Word((1, 2, 3))
    xs = int_list(*range(5, 5 + n))
    expect = eval_psi_ref(graph, word, xs, init_state(graph))
    with thread_starts() as started:
        assert run_pipeline(graph, word, xs, init_state(graph), 8) == expect
    # nothing can overlap on a list of at most one element
    assert len(started) == (2 if n > 1 else 0)
    assert eval_auto_word(graph, word, xs, init_state(graph), workers=8) == expect
    for n_id, fast in ((2, run_data_parallel_readonly), (3, run_data_parallel_product)):
        spec = graph.edges[n_id]
        ref = eval_psi_ref(graph, Word((n_id,)), xs, init_state(graph))
        assert fast(spec, xs, spec.init_state, 8) == (ref[0], ref[1].get(n_id))


@pytest.mark.parametrize("widths", [(1, 1, 1), (1, 2, 1)], ids=["lanes", "replicas"])
@pytest.mark.parametrize("n", [0, 1])
def test_stream_core_over_tiny_lists(widths, n):
    # runs keep lists this short on the calling thread, but the stream core
    # itself still starts every lane: a sentinel with one element or none
    # before it must end each lane and drain its inputs
    graph = build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "scale_by_state", v_int(3)),
        make_thread(3, "add1_tick", v_int(0)),
    )
    stages = []
    for letter, width in zip((1, 2, 3), widths):
        route = [[(letter, raw_step(graph.edges[letter], False))]]
        st = {letter: graph.edges[letter].init_state.payload}
        lanes = [partial(run_route, route, st if width == 1 else dict(st)) for _ in range(width)]
        stages.append((route, st, lanes))
    values = list(range(5, 5 + n))
    before = threading.active_count()
    with thread_starts() as started:
        out = _returned_within(lambda: parallel._stream(stages, values, capacity=1))
    assert len(started) == 1 + sum(widths) - 1  # the helper, every lane but the first
    assert threading.active_count() == before
    expect, state = eval_psi_ref(graph, Word((1, 2, 3)), int_list(*values), init_state(graph))
    assert out == [v.payload for v in expect.payload]
    assert [st[letter] for letter, (_, st, _) in zip((1, 2, 3), stages)] == [
        state.get(letter).payload for letter in (1, 2, 3)
    ]


def test_fast_path_replica_failure_raises_the_rerun_exception():
    # 20 elements allow two replicas; 13 fails in the second, on a thread.
    # The stream then runs once more by the reference route, which fails
    # on 13 again and raises that exception, eval_psi_ref's
    base = make_thread(1, "scale_by_state", v_int(3))
    raised = []

    def transfer(x, sigma):
        if x.payload == 13:
            raised.append(Boom("on 13"))
            raise raised[-1]
        return base.transfer(x, sigma)

    spec = replace(base, transfer=transfer, blocking=True)
    before = threading.active_count()
    err = _raised_within(
        lambda: run_data_parallel_readonly(spec, int_list(*range(20)), v_int(3), workers=4)
    )
    assert len(raised) == 2 and err is raised[-1]
    assert threading.active_count() == before


def _kernel_fn(run, *types):
    """A boxed function of ``types`` whose registered raw kernel is ``run``."""
    fn = (boxed_transfer if len(types) == 3 else boxed_part)(run, *types)
    register_kernel(fn, Kernel(run, run, ("ill-typed", ())))
    return fn


@pytest.mark.parametrize("part, what", [("value_part", "output"), ("state_part", "new state")])
@pytest.mark.parametrize("rerun_fails", [False, True], ids=["rerun-passes", "rerun-fails"])
def test_replica_failure_raises_the_rerun_error_or_its_own(part, what, rerun_fails):
    # 32 elements at 4 workers make 4 replicas of a blocking PRODUCT letter.
    # A replica runs its value part, and its state part runs once per
    # element after the stream; with ``check`` an ill-typed result of
    # either fails. The stage-wise re-run runs the letter's transfer: when
    # that succeeds the replica's own exception is raised, else the
    # re-run's, eval_psi_ref's
    base = make_thread(1, "add1_tick", v_int(0))
    types = (base.src, base.tgt) if part == "value_part" else (base.state_type,) * 2
    spec = replace(base, blocking=True, **{part: _kernel_fn(lambda r: "bad", *types)})
    expect = f"thread 1 {what} 'bad' is not a int"
    if rerun_fails:
        transfer = _kernel_fn(lambda x, s: ("worse", s), INT_T, INT_T, INT_T)
        spec = replace(spec, transfer=transfer)
        expect = "thread 1 output 'worse' is not a int"
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(
            lambda: run_data_parallel_product(
                spec, int_list(*range(32)), v_int(0), workers=4, check=True
            )
        )
    assert type(err) is PortTypeError and str(err) == expect
    assert len(started) == 1 + 3  # the helper thread and three replica lanes
    assert threading.active_count() == before


@pytest.mark.parametrize("mode", ["pipeline", "auto"])
def test_plan_cuts_its_streams_once(monkeypatch, mode):
    # a plan segments its word and cuts each segment when it is made, and
    # auto's own streams on their first run over 16 or more elements;
    # running the plan again reuses every cut
    calls = []
    for name in ("segment_word", "_spans"):
        real = getattr(parallel, name)
        monkeypatch.setattr(
            parallel, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    graph = _all_blocking(counter_scale_graph())
    plan = planner(graph, Word((1, 2, 1)))(mode, 2)
    assert calls.count("segment_word") == 1 and "_spans" in calls
    slots = {n: spec.init_state.payload for n, spec in graph.edges.items()}
    runs = [plan.core(list(range(n)), dict(slots)) for n in (3, 20)]
    cut = list(calls)
    runs += [plan.core(list(range(n)), dict(slots)) for n in (3, 20)]
    assert calls == cut and cut.count("segment_word") == 1
    expect = eval_psi_ref(graph, Word((1, 2, 1)), int_list(*range(20)), init_state(graph))
    assert runs[1][0] == [v.payload for v in expect[0].payload] and runs[:2] == runs[2:]


def test_pipeline_threads_started():
    specs = [make_thread(n, "counter_add", v_int(n)) for n in range(1, 7)]
    graph = _all_blocking(build_graph(*specs))
    xs = int_list(*range(40))
    with thread_starts() as started:
        run_pipeline(graph, Word((1, 2, 3, 4, 5, 6)), xs, init_state(graph), workers=1)
        assert len(started) == 0
        # segments [1,2,3] and [3,4,5,6] after the repeated letter 3
        word = Word((1, 2, 3, 3, 4, 5, 6))
        for workers in (2, 3, 8):
            del started[:]
            run_pipeline(graph, word, xs, init_state(graph), workers)
            assert len(started) == (min(workers, 3) - 1) + (min(workers, 4) - 1)


# --- blocking-aware cuts --------------------------------------------------------


def _delay(thread_id, delay_ms):
    return make_thread(thread_id, "delay_identity_ms", params={"delay_ms": delay_ms})


def test_blocking_hint_comes_from_the_registry():
    # a builtin blocks exactly when hint sampling must avoid its transfer
    assert _delay(1, 0.01).blocking and _delay(1, 2).blocking
    assert not _delay(1, 0).blocking
    for name in ("counter_add", "scale_by_state", "add1_tick", "branch_even", "merge_sum",
                 "append_tag"):
        assert not make_thread(1, name).blocking
    # a scheduling hint, not semantics: specs equal whatever it says
    assert replace(_delay(1, 0), blocking=True) == _delay(1, 0)


@pytest.mark.parametrize(
    "workers, cut",
    [
        (1, [[1, 2, 3, 4, 5, 6, 7]]),
        (2, [[1, 2, 3, 4], [5, 6, 7]]),
        (3, [[1, 2, 3, 4], [5], [6, 7]]),
        (8, [[1, 2, 3, 4], [5], [6, 7]]),
    ],
)
def test_mixed_word_cut_and_threads(workers, cut):
    from stc.parallel import _cut

    # letters 2, 5 and 6 block; every other letter joins the group of the
    # blocking letter before it, and letter 1 the first group
    specs = [
        _delay(n, 0.01) if n in (2, 5, 6) else make_thread(n, "counter_add", v_int(n))
        for n in range(1, 8)
    ]
    graph = build_graph(*specs)
    word = Word(tuple(range(1, 8)))
    groups = _cut(graph, word.letters, workers)
    assert [list(letters) for letters, _ in groups] == cut
    assert all(blocks for _, blocks in groups)
    xs = int_list(*range(12))
    with thread_starts() as started:
        got = run_pipeline(graph, word, xs, init_state(graph), workers)
    assert got == eval_psi_ref(graph, word, xs, init_state(graph))
    assert len(started) == len(cut) - 1


def test_word_without_a_blocking_letter_is_one_group():
    from stc.parallel import _cut

    graph = build_graph(_delay(1, 0), make_thread(2, "counter_add", v_int(0)))
    assert _cut(graph, (1, 2), 8) == [((1, 2), False)]
    assert _cut(graph, (), 8) == []


@pytest.mark.parametrize("mode", ["pipeline", "auto"])
@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_cpu_only_programs_start_no_threads(mode, workers):
    word_graph = build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "scale_by_state", v_int(3)),
        make_thread(3, "add1_tick", v_int(0)),
        _delay(4, 0),
    )
    xs = int_list(*range(40))
    programs = [
        Program(word_graph, Word((1, 2, 3, 4)), xs, INT_T),
        Program(word_graph, Word((1, 2, 3, 4, 1, 2)), xs, INT_T),  # two segments
        Program(stream_graph(), STREAM_PROG, xs, INT_T),
        Program(branch_graph(), branch_prog(), xs, INT_T),
    ]
    for program in programs:
        expect = run_program(program, "seq")
        with thread_starts() as started:
            got = run_program(program, mode, workers=workers)
        assert got == expect and started == []


def test_sleep_branch_threads():
    # the sleep-branch shape: producer [delay, branch_even], left and right
    # [delay, delay], consumer [merge_sum, delay]
    specs = [_delay(n, 0.01) for n in (1, 3, 4, 5, 6, 8)]
    graph = build_graph(*specs, make_thread(2, "branch_even"), make_thread(7, "merge_sum"))
    prog = BranchProgram(Word((1, 2)), Word((3, 4)), Word((5, 6)), Word((7, 8)))
    program = Program(graph, prog, int_list(*range(20)), INT_T)
    expect = run_program(program, "seq")
    # pipeline@2: [delay, branch_even], two side stages, [merge_sum, delay].
    # auto@2: [delay, branch_even] and [merge_sum, delay] as two replicas
    # each (20 elements allow two), and one pass per side letter, so eight
    # lanes, the first on the calling thread. auto@4: two replicas for
    # each pass too, as each side word has two groups
    for mode, workers, threads in (("pipeline", 2, 3), ("auto", 2, 7), ("auto", 4, 11)):
        with thread_starts() as started:
            assert run_program(program, mode, workers=workers) == expect
        assert len(started) == threads, (mode, workers)


def test_auto_threads_only_for_blocking_stages():
    graph = build_graph(make_thread(1, "scale_by_state", v_int(3)), _delay(2, 0.01))
    for word, n, threads in (
        # one read-only group that blocks: four replicas, one per 8 elements
        (Word((1, 2)), 32, 3),
        (Word((1, 2)), 24, 2),
        (Word((1, 2)), 10, 0),
        (Word((1,)), 32, 0),  # no letter blocks
    ):
        xs = int_list(*range(n))
        expect = eval_psi_ref(graph, word, xs, init_state(graph))
        with thread_starts() as started:
            assert eval_auto_word(graph, word, xs, init_state(graph), workers=4) == expect
        assert len(started) == threads, (word, n)
    # a public fast path is auto on its one letter: no thread when it does
    # not block
    spec = graph.edges[1]
    with thread_starts() as started:
        run_data_parallel_readonly(spec, xs, spec.init_state, workers=4)
    assert len(started) == 0


# --- split / join -------------------------------------------------------------


def test_split_empty():
    bs, cs, flags = split(sum_list())
    assert bs == int_list() and cs == int_list() and flags == ()


def test_split_mixed():
    bs, cs, flags = split(sum_list(v_inl(v_int(1)), v_inr(v_int(9)), v_inl(v_int(2))))
    assert bs == int_list(1, 2)
    assert cs == int_list(9)
    assert flags == (True, False, True)


def test_split_all_right():
    bs, cs, flags = split(sum_list(v_inr(v_int(4)), v_inr(v_int(5))))
    assert bs == int_list() and cs == int_list(4, 5)
    assert flags == (False, False)


def test_join_empty():
    assert join(int_list(), int_list(), ()) == v_list(SUM_II, [])


def test_join_round_trip_of_example():
    out = join(int_list(1, 2), int_list(9), (True, False, True))
    assert out == sum_list(v_inl(v_int(1)), v_inr(v_int(9)), v_inl(v_int(2)))


def test_join_flag_mismatch():
    with pytest.raises(FlagMismatch):
        join(int_list(1), int_list(), (False,))
    with pytest.raises(FlagMismatch):
        join(int_list(1), int_list(), ())  # leftovers are a mismatch too


def test_split_join_round_trips(rng):
    for _ in range(100):
        items = []
        for _ in range(rng.below(30)):
            inner = v_int(rng.below(201) - 100)
            items.append(v_inl(inner) if rng.below(2) else v_inr(inner))
        xs = sum_list(*items)
        bs, cs, flags = split(xs)
        assert join(bs, cs, flags) == xs
        assert split(join(bs, cs, flags)) == (bs, cs, flags)


# --- branch programs ----------------------------------------------------------


def branch_graph():
    return build_graph(
        make_thread(1, "branch_even"),
        make_thread(2, "add1_tick", v_int(0)),
        make_thread(3, "scale_by_state", v_int(3)),
        make_thread(4, "merge_sum"),
    )


def branch_prog():
    return BranchProgram(Word((1,)), Word((2,)), Word((3,)), Word((4,)))


def test_branch_hand_example():
    graph = branch_graph()
    out, st = eval_branch(graph, branch_prog(), int_list(2, 3, 4), init_state(graph))
    assert out == int_list(3, 9, 5)
    assert st.get(2) == v_int(2)  # two even elements went left
    assert st.get(3) == v_int(3)  # read-only scale state


def test_branch_empty_input():
    graph = branch_graph()
    store = init_state(graph)
    out, st = eval_branch(graph, branch_prog(), int_list(), store)
    assert out == int_list() and st == store


def test_branch_task_parallel_matches_sequential(rng):
    stream = program_stream(FuzzConfig(seed=5, trials=1))
    seen = 0
    while seen < 25:
        p = next(stream)
        if not p.is_branch:
            continue
        seen += 1
        expect = eval_branch(p.graph, p.word, p.input, init_state(p.graph))
        for workers in (1, 2, 4):
            got = run_task_parallel_branch(p.graph, p.word, p.input, init_state(p.graph), workers)
            assert got == expect
        assert eval_branch_elementwise(p.graph, p.word, p.input, init_state(p.graph)) == expect


def test_branch_elementwise_is_independent_oracle():
    graph = branch_graph()
    expect = eval_branch(graph, branch_prog(), int_list(7, 8, 9, 10), init_state(graph))
    got = eval_branch_elementwise(graph, branch_prog(), int_list(7, 8, 9, 10), init_state(graph))
    assert got == expect


def test_branch_state_disjointness():
    graph = build_graph(
        make_thread(1, "branch_even"),
        make_thread(2, "counter_add", v_int(0)),
        make_thread(3, "counter_add", v_int(0)),
        make_thread(4, "merge_sum"),
        make_thread(9, "counter_add", v_int(42)),  # spectator slot
    )
    prog = BranchProgram(Word((1,)), Word((2,)), Word((3,)), Word((4,)))
    out, st = run_task_parallel_branch(graph, prog, int_list(1, 2, 3, 4), init_state(graph), 2)
    # evens 2,4 went left through thread 2; odds 1,3 through thread 3
    assert st.get(2) == v_int(2)
    assert st.get(3) == v_int(2)
    assert st.get(9) == v_int(42)


def test_branch_rejects_shared_letters():
    graph = branch_graph()
    bad = BranchProgram(Word((1,)), Word((2,)), Word((2,)), Word((4,)))
    with pytest.raises(RepeatedLetter):
        eval_branch(graph, bad, int_list(1), init_state(graph))


def test_branch_rejects_non_sum_producer():
    graph = branch_graph()
    bad = BranchProgram(Word((2,)), Word((2,)), Word((3,)), Word((4,)))
    with pytest.raises(ValidationError):
        eval_branch(graph, bad, int_list(1), init_state(graph))


def test_reference_evaluators_take_both_shapes():
    graph = branch_graph()
    for evaluate in (eval_psi_ref, eval_interleaved):
        out, st = evaluate(graph, branch_prog(), int_list(2, 3, 4), init_state(graph))
        assert out == int_list(3, 9, 5)
        assert st.get(2) == v_int(2) and st.get(3) == v_int(3)
    cfg = FuzzConfig(seed=5, trials=1)
    branches = [
        p for stream in (program_stream(cfg), carrier_stream(cfg))
        for _, p in zip(range(100), stream) if p.is_branch
    ]
    assert branches
    for p in branches:
        expect = run_pipeline(p.graph, p.word, p.input, init_state(p.graph), 1)
        assert run_pipeline(p.graph, p.word, p.input, init_state(p.graph), 2) == expect
        assert eval_psi_ref(p.graph, p.word, p.input, init_state(p.graph)) == expect
        assert eval_interleaved(p.graph, p.word, p.input, init_state(p.graph)) == expect


def test_branch_names_are_the_reference_functions():
    from stc import composition, parallel

    assert parallel.eval_branch is composition.eval_psi_ref
    assert parallel.eval_branch_elementwise is composition.eval_interleaved
    assert parallel.run_task_parallel_branch is parallel.run_pipeline
    for name in ("BranchProgram", "validate_branch", "split", "join"):
        assert getattr(parallel, name) is getattr(composition, name)
        assert getattr(parallel, name).__module__ == "stc.composition"


def _invalid_shape_graph():
    return build_graph(
        make_thread(1, "branch_even"),
        make_thread(3, "counter_add", v_int(0)),
        make_thread(4, "merge_sum"),
        make_thread(5, "add1_tick", v_int(0)),
        make_thread(6, "counter_add", v_int(0)),
    )


_REPEATED_5 = (RepeatedLetter, "letter 5 occurs more than once in the word")
_REPEATED_3 = (RepeatedLetter, "letter 3 occurs more than once in the word")
_NOT_COMPOSED = (PathMismatch, "letters 2 and 3 do not compose: sum(int,int) != int")
_CONSUMER = (ValidationError, "consumer starts at int, branches produce sum(int,int)")
# the branch names are the reference evaluators, so each shape is run
# through every public name that has always taken it
_BRANCH_EVALUATORS = (
    eval_branch, eval_branch_elementwise, run_pipeline, run_task_parallel_branch, eval_auto_word
)
_WORD_EVALUATORS = (eval_psi_ref, eval_interleaved, run_pipeline, eval_auto_word)


@pytest.mark.parametrize(
    "shape, expect",
    [
        # the sides share 3 and 5 in opposite order: the first repeat seen is named
        (BranchProgram(Word((1,)), Word((3, 5)), Word((5, 3)), Word((4,))), [_REPEATED_5] * 5),
        (BranchProgram(Word((1,)), Word((3, 3)), Word((5,)), Word((4,))), [_REPEATED_3] * 5),
        # a branch's paths are checked before its repeats
        (BranchProgram(Word((1,)), Word((3, 3)), Word((5,)), Word((6,))), [_CONSUMER] * 5),
        # a word's repeats fail only the element-wise evaluator, before its path
        (Word((3, 1, 3)), [_NOT_COMPOSED, _REPEATED_3, _NOT_COMPOSED, _NOT_COMPOSED]),
    ],
    ids=["sides-share-two", "repeat-within-side", "branch-path-and-repeat", "word-path-and-repeat"],
)
def test_invalid_shapes_raise_the_same_errors(shape, expect):
    graph = _invalid_shape_graph()
    evaluators = _BRANCH_EVALUATORS if isinstance(shape, BranchProgram) else _WORD_EVALUATORS
    for evaluate, (kind, message) in zip(evaluators, expect, strict=True):
        with pytest.raises(StcError) as info:
            evaluate(graph, shape, int_list(1, 2), init_state(graph))
        assert (type(info.value), str(info.value)) == (kind, message), evaluate.__name__


def test_branch_with_empty_sides():
    graph = build_graph(make_thread(1, "branch_even"), make_thread(4, "merge_sum"))
    prog = BranchProgram(Word((1,)), Word((), INT_T), Word((), INT_T), Word((4,)))
    out, st = eval_branch(graph, prog, int_list(1, 2, 3), init_state(graph))
    assert out == int_list(1, 2, 3)
    got = run_task_parallel_branch(graph, prog, int_list(1, 2, 3), init_state(graph), 2)
    assert got == (out, st)


# --- branch stream ---------------------------------------------------------------


def stream_graph():
    """Producer [1,2,3] ends in branch_even; left [4,5,6] and right [7]
    differ in length, so at 2+ workers some side stages hold an empty
    right group; consumer [8,9,10] starts with merge_sum."""
    return build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "add1_tick", v_int(0)),
        make_thread(3, "branch_even"),
        make_thread(4, "counter_add", v_int(5)),
        make_thread(5, "scale_by_state", v_int(3)),
        make_thread(6, "add1_tick", v_int(1)),
        make_thread(7, "counter_add", v_int(-2)),
        make_thread(8, "merge_sum"),
        make_thread(9, "counter_add", v_int(0)),
        make_thread(10, "add1_tick", v_int(0)),
    )


STREAM_PROG = BranchProgram(Word((1, 2, 3)), Word((4, 5, 6)), Word((7,)), Word((8, 9, 10)))


def _returned_within(call, timeout=30.0):
    """Run ``call`` on a helper thread and return its result; a call that
    hangs fails the test instead of stalling the suite."""
    result = []
    helper = threading.Thread(target=lambda: result.append(call()), daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), "call did not return"
    assert result, "call raised"
    return result[0]


def _stream_matches_reference(graph, prog, xs, workers_list=(1, 2, 4), capacity=16):
    """Run the branch stream on ``graph`` with every thread marked blocking
    at each of ``workers_list``; returns the number of stream threads the
    runs started."""
    graph = _all_blocking(graph)
    expect = eval_branch(graph, prog, xs, init_state(graph))
    before = threading.active_count()
    with thread_starts() as started:
        for workers in workers_list:
            got = _returned_within(
                lambda: run_task_parallel_branch(
                    graph, prog, xs, init_state(graph), workers, capacity=capacity
                )
            )
            assert got == expect, f"workers {workers}"
    assert threading.active_count() == before
    return len(started) - len(workers_list)  # less one helper per run


def test_branch_stream_capacity_one():
    xs = int_list(*((n * 7919) % 1001 - 500 for n in range(200)))
    assert _stream_matches_reference(stream_graph(), STREAM_PROG, xs, (1, 2, 4, 8), capacity=1)


@pytest.mark.parametrize("order", ["left-then-right", "right-then-left"])
def test_branch_stream_one_sided_runs(order):
    lefts, right = [2 * n for n in range(300)], [7]
    xs = lefts + right if order == "left-then-right" else right + lefts
    graph = build_graph(
        make_thread(3, "branch_even"),
        make_thread(4, "counter_add", v_int(5)),
        make_thread(6, "add1_tick", v_int(1)),
        make_thread(7, "counter_add", v_int(-2)),
        make_thread(8, "merge_sum"),
        make_thread(9, "counter_add", v_int(0)),
    )
    prog = BranchProgram(Word((3,)), Word((4, 6)), Word((7,)), Word((8, 9)))
    assert _stream_matches_reference(graph, prog, int_list(*xs), (1, 2, 4), capacity=1)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_branch_stream_small_inputs(n):
    # a stream over at most one element starts no thread
    threads = _stream_matches_reference(stream_graph(), STREAM_PROG, int_list(*range(3, 3 + n)))
    assert bool(threads) == (n > 1)


@pytest.mark.parametrize(
    "prog",
    [
        BranchProgram(Word((1, 2, 3)), Word((), INT_T), Word((), INT_T), Word((8, 9, 10))),
        BranchProgram(Word((1, 2, 3)), Word((4, 5, 6)), Word((), INT_T), Word((8, 9, 10))),
        BranchProgram(Word((1, 2, 3)), Word((4, 5, 6)), Word((7,)), Word((), SUM_II)),
        BranchProgram(Word((), SUM_II), Word((4, 5, 6)), Word((7,)), Word((8, 9, 10))),
        BranchProgram(Word((), SUM_II), Word((), INT_T), Word((), INT_T), Word((), SUM_II)),
    ],
    ids=["empty-sides", "empty-right", "empty-consumer", "empty-producer", "all-empty"],
)
def test_branch_stream_empty_words(prog):
    graph = stream_graph()
    if prog.producer.letters:
        xs = int_list(*range(-4, 9))
    else:
        xs = sum_list(*(v_inl(v_int(n)) if n % 3 else v_inr(v_int(n)) for n in range(-4, 9)))
    assert bool(_stream_matches_reference(graph, prog, xs)) == bool(prog.letters)
    # an empty stream starts no thread
    assert _stream_matches_reference(graph, prog, v_list(xs.elem, [])) == 0


def _raising_identity(thread_id, at, raised):
    """An identity thread whose transfer raises on input value ``at``,
    recording each exception it raises in ``raised``."""
    base = make_thread(thread_id, "delay_identity_ms")

    def transfer(x, sigma):
        if x.payload == at:
            raised.append(Boom(f"thread {thread_id} on {at}"))
            raise raised[-1]
        return base.transfer(x, sigma)

    return replace(base, transfer=transfer, blocking=True)


@pytest.mark.parametrize(
    "failing,at",
    [(1, 31), (2, 30), (3, 30), (4, 31), (5, 31), (6, 30), (7, 31)],
    ids=["producer", "left-first", "left-last", "right-first", "right-last",
         "consumer-after-merge", "consumer-last"],
)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_branch_stream_failure_reraises_original(failing, at, workers):
    # producer [1, branch_even], left [2, 3], right [4, 5], consumer [merge_sum, 6, 7];
    # every other thread is the identity, so thread ``failing`` sees ``at``
    raised = []
    specs = [
        _raising_identity(n, at, raised) if n == failing else make_thread(n, "delay_identity_ms")
        for n in (1, 2, 3, 4, 5, 6, 7)
    ]
    graph = _all_blocking(
        build_graph(*specs, make_thread(8, "branch_even"), make_thread(9, "merge_sum"))
    )
    prog = BranchProgram(Word((1, 8)), Word((2, 3)), Word((4, 5)), Word((9, 6, 7)))
    xs = v_list(INT_T, [v_int(0)] * 200 + [v_int(at)] + [v_int(1)] * 200)
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(
            lambda: run_task_parallel_branch(
                graph, prog, xs, init_state(graph), workers, capacity=1
            )
        )
    # a threaded stream that fails runs again stage-wise and raises what
    # that run raises, the exception eval_psi_ref raises
    assert isinstance(err, Boom) and err is raised[-1]
    assert len(raised) == 1 + (workers > 1)
    assert (len(started) > 1) == (workers > 1)  # the helper, then stream threads
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 4])
def test_branch_stream_earliest_failing_stage_wins(workers):
    # the producer fails on element 1 while the consumer fails on element 0;
    # a barrier makes both fail in the threaded run, whatever the schedule.
    # The stage-wise re-run then fails in the producer, as eval_psi_ref does
    both = threading.Barrier(2, timeout=10)
    raised = []

    def failing(thread_id, at):
        base = make_thread(thread_id, "delay_identity_ms")

        def transfer(x, sigma):
            if x.payload == at:
                if len(raised) < 2:
                    both.wait()
                raised.append((thread_id, Boom(f"thread {thread_id}")))
                raise raised[-1][1]
            return base.transfer(x, sigma)

        return replace(base, transfer=transfer, blocking=True)

    graph = _all_blocking(build_graph(
        failing(1, 1), make_thread(2, "branch_even"), make_thread(3, "delay_identity_ms"),
        make_thread(4, "delay_identity_ms"), make_thread(5, "merge_sum"), failing(6, 0),
    ))
    prog = BranchProgram(Word((1, 2)), Word((3,)), Word((4,)), Word((5, 6)))
    xs = int_list(0, 1, 2)
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(
            lambda: run_task_parallel_branch(graph, prog, xs, init_state(graph), workers)
        )
    assert sorted(n for n, _ in raised[:2]) == [1, 6]
    assert len(raised) == 3 and raised[2][0] == 1 and err is raised[2][1]
    assert len(started) > 1  # the helper, then stream threads
    assert threading.active_count() == before


class Halt(BaseException):
    """Not an ``Exception``, so the pipeline must not wrap it."""


def _halting_identity(thread_id, at, raised):
    base = make_thread(thread_id, "delay_identity_ms")

    def transfer(x, sigma):
        if x.payload == at:
            raised.append(Halt(f"thread {thread_id} on {at}"))
            raise raised[-1]
        return base.transfer(x, sigma)

    return replace(base, transfer=transfer, blocking=True)


@pytest.mark.parametrize("shape", ["word", "branch"])
@pytest.mark.parametrize("workers", [2, 4])
def test_base_exception_failure_propagates_unwrapped(shape, workers):
    raised = []
    specs = [
        _halting_identity(n, 30, raised) if n == 3 else make_thread(n, "delay_identity_ms")
        for n in range(1, 7)
    ]
    graph = _all_blocking(
        build_graph(*specs, make_thread(8, "branch_even"), make_thread(9, "merge_sum"))
    )
    xs = v_list(INT_T, [v_int(0)] * 200 + [v_int(30)] + [v_int(1)] * 200)
    if shape == "word":
        # at 4 workers thread 3 is the third of four groups: [1] [2] [3] [4, 5]
        word = Word((1, 2, 3, 4, 5))
        call = lambda: run_pipeline(graph, word, xs, init_state(graph), workers, capacity=1)
    else:
        # stages [1] [branch_even] [2|4] [3|5] [merge_sum] [6]; 30 is even, so
        # thread 3 fails in the second side stage
        prog = BranchProgram(Word((1, 8)), Word((2, 3)), Word((4, 5)), Word((9, 6)))
        call = lambda: run_task_parallel_branch(
            graph, prog, xs, init_state(graph), workers, capacity=1
        )
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(call)
    assert isinstance(err, Halt) and err is raised[0]
    assert len(started) > 1  # the helper, then stream threads
    assert threading.active_count() == before


def test_last_stage_failure_stops_the_first_stage_early():
    from stc.parallel import _BATCH

    capacity = 1
    calls = []
    first = make_thread(1, "delay_identity_ms")

    def counted(x, sigma):
        calls.append(x.payload)
        return first.transfer(x, sigma)

    raised = []
    graph = build_graph(
        replace(first, transfer=counted, blocking=True), _raising_identity(2, 10, raised)
    )
    xs = int_list(*range(5000))
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(
            lambda: run_pipeline(graph, Word((1, 2)), xs, init_state(graph), 2, capacity=capacity)
        )
    # the stage-wise re-run raises the exception that is raised
    assert len(raised) == 2 and err is raised[1]
    assert len(started) == 2  # the helper and the second group
    # the re-run maps the first letter over all 5000 elements, starting
    # again at element 0. Once the last stage failed, the threaded run's
    # first stage had computed at most elements 0..9, the failing batch,
    # one batch in the channel and the batch it fills before its next
    # hand-off
    threaded = calls.index(0, 1)
    assert len(calls) == threaded + 5000
    assert threaded < 10 + (capacity + 2) * _BATCH
    assert threading.active_count() == before


def test_branch_stream_stress_tiny_switch_interval():
    xs = int_list(*range(-300, 300))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = _stream_matches_reference(stream_graph(), STREAM_PROG, xs, (2, 3, 8), capacity=2)
    finally:
        sys.setswitchinterval(old)
    assert started


def test_branch_stream_workers_one_starts_no_thread():
    graph = stream_graph()
    xs = int_list(*range(40))
    before = threading.active_count()
    expect = eval_branch(graph, STREAM_PROG, xs, init_state(graph))
    with thread_starts() as started:
        got = run_task_parallel_branch(graph, STREAM_PROG, xs, init_state(graph), 1)
        assert got == expect and started == []
        # no letter blocks: one fused stage at 2 workers too
        run_task_parallel_branch(graph, STREAM_PROG, xs, init_state(graph), 2)
        assert started == []
        # every letter blocks, at 2 workers: producer 2 groups, 2 side
        # stages, consumer 2 groups
        graph = _all_blocking(graph)
        assert run_task_parallel_branch(graph, STREAM_PROG, xs, init_state(graph), 1) == expect
        assert started == []
        assert run_task_parallel_branch(graph, STREAM_PROG, xs, init_state(graph), 2) == expect
        assert len(started) == 5
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "workers, run",
    [(1, run_task_parallel_branch), (2, run_task_parallel_branch),
     (4, run_task_parallel_branch), (4, eval_auto_word)],
    ids=["1", "2", "4", "auto-4"],
)
def test_flags_ignored_in_join_mutation_diverges(workers, run):
    # the fault is a barrier at the join of a threaded plan, also in auto's
    # own cut, which a list of 20 elements gets; at one worker the plan is
    # seq's, which no planted fault touches
    graph = _all_blocking(branch_graph())
    xs = int_list(*range(20))  # alternating even/odd
    expect = eval_branch(graph, branch_prog(), xs, init_state(graph))
    before = threading.active_count()
    with mutations.enable("flags-ignored-in-join"), thread_starts() as started:
        got = _returned_within(lambda: run(graph, branch_prog(), xs, init_state(graph), workers))
    assert (len(started) > 1) == (workers > 1)  # the helper, then stream threads
    assert threading.active_count() == before
    if workers == 1:
        assert got == expect
        return
    payloads = [sorted(v.payload for v in out.payload) for out in (got[0], expect[0])]
    assert got[0] != expect[0] and payloads[0] == payloads[1]


def test_flags_ignored_in_join_with_an_empty_consumer_runs_a_stream_with_no_stage():
    # the fault's barrier cuts the branch at the join, so an empty consumer
    # is a stream of its own with no stage, which passes its input on
    graph = build_graph(_delay(1, 1), make_thread(2, "branch_even"))
    prog = BranchProgram(Word((1, 2)), Word((), INT_T), Word((), INT_T), Word((), SUM_II))
    with mutations.enable("flags-ignored-in-join"):
        out, _ = run_pipeline(graph, prog, int_list(*range(5)), init_state(graph), 2)
    assert out == sum_list(*map(v_inl, int_list(0, 2, 4).payload),
                           *map(v_inr, int_list(1, 3).payload))


# --- auto mode -----------------------------------------------------------------


def test_auto_matches_reference(rng):
    stream = program_stream(FuzzConfig(seed=17, trials=1))
    for _ in range(30):
        p = next(stream)
        if p.is_branch:
            continue
        expect = eval_psi_ref(p.graph, p.word, p.input, init_state(p.graph))
        got = eval_auto_word(p.graph, p.word, p.input, init_state(p.graph))
        assert got == expect


def _bad_state_thread(thread_id, fn):
    """A builtin thread whose every state update yields a str for an int
    slot; it runs unchecked only while it sees a single element."""
    base = make_thread(thread_id, fn, v_int(3))
    return replace(
        base,
        transfer=lambda x, sigma: (base.transfer(x, sigma)[0], v_str("bad")),
        state_part=base.state_part and (lambda sigma: v_str("bad")),
    )


BAD_FNS = ["counter_add", "scale_by_state", "add1_tick"]  # general, read-only, product


@pytest.mark.parametrize("fn", BAD_FNS)
def test_auto_honours_check(fn):
    graph = build_graph(make_thread(1, "counter_add", v_int(0)), _bad_state_thread(2, fn))
    for workers in (1, 2):
        eval_auto_word(graph, Word((1, 2)), int_list(5), init_state(graph), workers)
        with pytest.raises(PortTypeError):
            eval_auto_word(
                graph, Word((1, 2)), int_list(5), init_state(graph), workers, check=True
            )


def _ill_typed_thread(thread_id, fn, bad):
    """A builtin thread whose every output (``bad="output"``) or every new
    state (``bad="new state"``) is a str where an int belongs."""
    base = make_thread(thread_id, fn, v_int(3))

    def transfer(x, sigma):
        y, sigma2 = base.transfer(x, sigma)
        return (v_str("bad"), sigma2) if bad == "output" else (y, v_str("bad"))

    def value_part(x):
        return v_str("bad") if bad == "output" else base.value_part(x)

    def state_part(sigma):
        return v_str("bad") if bad == "new state" else base.state_part(sigma)

    return replace(
        base,
        transfer=transfer,
        value_part=base.value_part and value_part,
        state_part=base.state_part and state_part,
    )


@pytest.mark.parametrize("mode", ["seq", "pipeline", "auto"])
@pytest.mark.parametrize("fn", BAD_FNS)
@pytest.mark.parametrize("bad", ["output", "new state"])
def test_check_catches_ill_typed_transfer(mode, fn, bad):
    graph = build_graph(
        make_thread(1, "counter_add", v_int(0)),
        _ill_typed_thread(2, fn, bad),
        make_thread(3, "add1_tick", v_int(0)),
    )
    program = Program(graph, Word((1, 2, 3)), int_list(4, 5, 6), INT_T)
    with pytest.raises(PortTypeError) as err:
        run_program(program, mode, workers=2, check=True)
    assert f"thread 2 {bad}" in str(err.value)


@pytest.mark.parametrize("mode", ["seq", "interleaved", "pipeline", "auto"])
@pytest.mark.parametrize("fn", BAD_FNS)
def test_branch_modes_honour_check(mode, fn):
    graph = build_graph(
        make_thread(1, "branch_even"),
        _bad_state_thread(2, fn),
        make_thread(3, "scale_by_state", v_int(3)),
        make_thread(4, "merge_sum"),
    )
    program = Program(graph, branch_prog(), int_list(2, 3), INT_T)
    run_program(program, mode, workers=2)
    with pytest.raises(PortTypeError):
        run_program(program, mode, workers=2, check=True)


# --- stage-wise streams ----------------------------------------------------------


def _recorded(graph, seen):
    """``graph`` with every transfer appending its thread id to ``seen``."""

    def recording(spec):
        def transfer(x, sigma):
            seen.append(spec.id)
            return spec.transfer(x, sigma)

        return replace(spec, transfer=transfer)

    return build_graph(*(recording(spec) for spec in graph.edges.values()))


@pytest.mark.parametrize(
    "shape, workers, blocking",
    [("word", 1, True), ("word", 2, False), ("branch", 1, True), ("branch", 2, False)],
    ids=["word-w1-blocking", "word-w2-cpu-only", "branch-w1-blocking", "branch-w2-cpu-only"],
)
def test_lone_stage_stream_runs_stage_wise(shape, workers, blocking):
    # a stream with one stage maps each letter over the whole list before
    # the next letter sees any element, in the order seq calls them
    if shape == "word":
        graph, word = build_graph(
            make_thread(1, "counter_add", v_int(0)),
            make_thread(2, "scale_by_state", v_int(3)),
            make_thread(3, "add1_tick", v_int(0)),
        ), Word((1, 2, 3))
    else:
        graph, word = stream_graph(), STREAM_PROG
    seen = []
    graph = _recorded(_all_blocking(graph) if blocking else graph, seen)
    program = Program(graph, word, int_list(*range(12)), INT_T)
    expect = run_program(program, "seq")
    stage_wise = list(seen)
    # under seq the calls of each letter form one contiguous run
    assert len([n for n, _ in groupby(stage_wise)]) == len(set(stage_wise))
    del seen[:]
    with thread_starts() as started:
        assert run_program(program, "pipeline", workers=workers) == expect
    assert started == [] and seen == stage_wise


# --- thread limits -----------------------------------------------------------------


BLOCKING_WORD = {
    "threads": [
        {"id": n, "fn": "delay_identity_ms", "params": {"delay_ms": 1}} for n in (1, 2, 3)
    ],
    "word": [1, 2, 3],
    "input": list(range(8)),
    "input_type": "int",
}

# producer [delay, branch_even], left and right [delay, delay], consumer
# [merge_sum, delay]
SLEEP_BRANCH = {
    "threads": [
        {"id": n, "fn": "delay_identity_ms", "params": {"delay_ms": 1}} for n in (1, 3, 4, 5, 6, 8)
    ] + [{"id": 2, "fn": "branch_even"}, {"id": 7, "fn": "merge_sum"}],
    "word": {"branch": {"producer": [1, 2], "left": [3, 4], "right": [5, 6], "consumer": [7, 8]}},
    "input": list(range(8)),
    "input_type": "int",
}

# the same over 16 elements, so that auto@2 runs two replicas of the
# producer and of the consumer
SLEEP_BRANCH_16 = {**SLEEP_BRANCH, "input": list(range(16))}


def _program_file(tmp_path, doc):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("doc", [BLOCKING_WORD, SLEEP_BRANCH], ids=["word", "branch"])
@pytest.mark.parametrize("mode", ["pipeline", "auto"])
def test_workers_above_max_start_no_threads(tmp_path, capsys, doc, mode):
    path = _program_file(tmp_path, doc)
    with thread_starts() as started:
        assert main(["run", path, "--mode", mode, "--workers", str(MAX_WORKERS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: workers must be at most {MAX_WORKERS}\n"
    assert started == []
    # the bound itself is allowed
    assert main(["run", path, "--mode", mode, "--workers", str(MAX_WORKERS)]) == 0


def test_api_rejects_workers_above_max():
    graph = counter_scale_graph()
    xs = int_list(1)
    tick = make_thread(1, "add1_tick")
    calls = [
        lambda: run_pipeline(graph, Word((1, 2)), xs, init_state(graph), MAX_WORKERS + 1),
        lambda: eval_auto_word(graph, Word((1, 2)), xs, init_state(graph), MAX_WORKERS + 1),
        lambda: run_task_parallel_branch(
            branch_graph(), branch_prog(), xs, init_state(branch_graph()), MAX_WORKERS + 1
        ),
        lambda: planner(branch_graph(), branch_prog())("auto", MAX_WORKERS + 1),
        lambda: run_data_parallel_readonly(graph.edges[2], xs, v_int(3), MAX_WORKERS + 1),
        lambda: run_data_parallel_product(tick, xs, v_int(0), MAX_WORKERS + 1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=f"^workers must be at most {MAX_WORKERS}$"):
            call()


@pytest.mark.parametrize(
    "doc, mode, workers, starts",
    [
        (BLOCKING_WORD, "pipeline", 3, 2),  # groups [1] [2] [3]
        (SLEEP_BRANCH, "pipeline", 2, 3),  # four stages, as in test_sleep_branch_threads
        # on 8 elements auto runs the pipeline's streams
        (BLOCKING_WORD, "auto", 3, 2),
        (SLEEP_BRANCH, "auto", 2, 3),
        # on 16: two replicas of the producer and of the consumer, and a
        # pass for each side letter
        (SLEEP_BRANCH_16, "auto", 2, 7),
    ],
    ids=["pipeline-word", "branch-stream", "auto-word", "auto-branch", "auto-replicas"],
)
def test_thread_start_failure_exits_3(tmp_path, capsys, doc, mode, workers, starts):
    path = _program_file(tmp_path, doc)
    argv = ["run", path, "--mode", mode, "--workers", str(workers)]
    assert main(argv) == 0
    expect = capsys.readouterr().out
    before = threading.active_count()
    for n in range(1, starts + 2):

        def call():
            with thread_starts(fail_at=n) as calls:
                return main(argv), len(calls)

        rc, calls = _returned_within(call, timeout=10.0)
        captured = capsys.readouterr()
        assert threading.active_count() == before, f"start {n}"
        if n <= starts:
            # no thread starts after the one that failed
            assert (rc, calls, captured.out) == (3, n, ""), f"start {n}"
            assert captured.err == (
                "runtime error: could not start a thread: can't start new thread\n"
            )
        else:
            assert (rc, calls, captured.out) == (0, starts, expect)


# --- thread crews ---------------------------------------------------------------


def _five_blocking(failing=None):
    """Five blocking letters; thread ``failing`` raises on input 30."""
    specs = [
        _raising(n, 30) if n == failing else make_thread(n, "add1_tick", v_int(0))
        for n in range(1, 6)
    ]
    return _all_blocking(build_graph(*specs)), Word(tuple(range(1, 6)))


def test_crew_failing_last_stage_then_clean_run_reuses_threads():
    bad, word = _five_blocking(failing=5)
    good, _ = _five_blocking()
    # letters 1 to 4 add 1 each, so thread 5 sees 30
    failing_xs = v_list(INT_T, [v_int(0)] * 200 + [v_int(26)] + [v_int(1)] * 200)
    xs = int_list(*range(300))
    before = threading.active_count()

    def call():
        with Crew():
            try:
                run_pipeline(bad, word, failing_xs, init_state(bad), 4, capacity=1)
            except Boom as exc:
                failure = exc
            clean = [
                run_pipeline(good, word, xs, init_state(good), 4, capacity=1),
                eval_auto_word(good, word, xs, init_state(good), workers=4),
            ]
            alive = threading.active_count()
        return failure, clean, alive

    with thread_starts() as started:
        failure, clean, alive = _returned_within(call)
    # the last stage's own exception, raised as it is
    assert isinstance(failure, Boom) and str(failure) == "thread 5 on 30"
    expect = eval_psi_ref(good, word, xs, init_state(good))
    assert clean == [expect, expect]
    # the helper, then the three threads four groups need; the clean runs
    # reuse those, and until the block ends they stay alive
    assert len(started) == 1 + 3
    assert alive >= before + 3
    assert threading.active_count() == before


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crew_thread_start_failure_raises_execution_error(n):
    graph, word = _five_blocking()
    xs = int_list(*range(50))
    expect = eval_psi_ref(graph, word, xs, init_state(graph))
    before = threading.active_count()

    def call():
        results = []
        with thread_starts(fail_at=n) as calls, Crew():
            # workers 3 starts two threads, workers 4 reuses them and starts one
            for workers in (3, 4, 3):
                try:
                    results.append(run_pipeline(graph, word, xs, init_state(graph), workers))
                except ExecutionError as exc:
                    results.append(str(exc))
        return results, len(calls)

    results, calls = _returned_within(call, timeout=10.0)
    failed = "could not start a thread: can't start new thread"
    if n <= 2:
        # the first run fails; the second starts the threads it could not
        assert (results, calls) == ([failed, expect, expect], 4)
    else:
        assert (results, calls) == ([expect, failed, expect], 3)
    assert threading.active_count() == before


def test_crew_joins_its_threads_when_the_block_ends():
    graph, word = _five_blocking()
    xs = int_list(*range(20))
    before = threading.active_count()

    def call():
        try:
            with Crew():
                run_pipeline(graph, word, xs, init_state(graph), 4)
                raise Boom("after the run")
        except Boom as exc:
            return exc

    assert str(_returned_within(call)) == "after the run"
    assert threading.active_count() == before
    # outside any block a launch keeps its threads for that launch alone
    with thread_starts() as started:
        for _ in range(2):
            run_pipeline(graph, word, xs, init_state(graph), 4)
    assert len(started) == 6
    assert threading.active_count() == before


# --- auto's concurrent branch sides ------------------------------------------------


def _side_program(left_transfer, right_transfer, xs):
    """producer [branch_even], left [2], right [3], consumer [merge_sum], all
    blocking; threads 2 and 3 wrap counter_add's transfer with the given
    functions ``transfer(base, x, sigma)``."""

    def side(thread_id, wrap):
        base = make_thread(thread_id, "counter_add", v_int(thread_id))
        return replace(base, transfer=lambda x, sigma: wrap(base, x, sigma))

    graph = build_graph(
        make_thread(1, "branch_even"), side(2, left_transfer), side(3, right_transfer),
        make_thread(4, "merge_sum"),
    )
    prog = BranchProgram(Word((1,)), Word((2,)), Word((3,)), Word((4,)))
    return Program(_all_blocking(graph), prog, xs, INT_T)


def test_auto_sides_overlap():
    # the right side waits on the barrier at its first element (1), the left
    # side at its second (2). Under auto each side runs as a pass of its
    # own, so the left pass works on element 2 while the right pass works
    # on element 1; with both sides on one thread the first wait would time
    # out
    both = threading.Barrier(2, timeout=10)

    def waiting(at):
        def transfer(base, x, sigma):
            if x.payload == at:
                both.wait()
            return base.transfer(x, sigma)

        return transfer

    plain = lambda base, x, sigma: base.transfer(x, sigma)
    xs = int_list(*range(20))
    expect = run_program(_side_program(plain, plain, xs), "seq")
    program = _side_program(waiting(2), waiting(1), xs)
    before = threading.active_count()
    for scope in (nullcontext, Crew):

        def call():
            with scope():
                return run_program(program, "auto", workers=2)

        assert _returned_within(call, timeout=20.0) == expect
        assert threading.active_count() == before
    assert not both.broken


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_auto_sides_both_failing_raise_the_left_exception(workers):
    # the right side fails at its first element, the left one at its last
    raised = []

    def failing(at):
        def transfer(base, x, sigma):
            if x.payload == at:
                raised.append(Boom(f"thread on {at}"))
                raise raised[-1]
            return base.transfer(x, sigma)

        return transfer

    program = _side_program(failing(18), failing(1), int_list(*range(20)))
    with pytest.raises(Boom) as ref:
        run_program(program, "seq")
    assert str(ref.value) == "thread on 18"
    del raised[:]
    before = threading.active_count()
    err = _raised_within(lambda: run_program(program, "auto", workers=workers))
    # at workers 1 the sides run stage-wise and the right side never runs;
    # above it the threaded run fails in the right side first, and the
    # stage-wise re-run raises the left side's exception
    assert type(err) is Boom and str(err) == str(ref.value) and err is raised[-1]
    assert ("thread on 1" in map(str, raised)) == (workers > 1)
    assert threading.active_count() == before


@pytest.mark.parametrize("scope", ["bare", "crew"])
def test_auto_sides_thread_start_failure_exits_3(tmp_path, capsys, scope):
    # the sleep-branch shape over 16 elements starts 7 threads at auto@2
    # (see test_thread_start_failure_exits_3); inside a crew it reuses some
    # of them, so fewer starts are made
    path = _program_file(tmp_path, SLEEP_BRANCH_16)
    argv = ["run", path, "--mode", "auto", "--workers", "2"]
    assert main(argv) == 0
    expect = capsys.readouterr().out
    enter = Crew if scope == "crew" else nullcontext
    before = threading.active_count()
    for n in range(1, 8):

        def call():
            with thread_starts(fail_at=n) as calls, enter():
                return main(argv), len(calls)

        rc, calls = _returned_within(call, timeout=10.0)
        captured = capsys.readouterr()
        assert threading.active_count() == before, f"start {n}"
        if scope == "bare" or n <= calls:
            assert (rc, captured.out) == (3, ""), f"start {n}"
        else:
            assert (rc, captured.out) == (0, expect), f"start {n}"


def test_auto_sides_crew_stress():
    # sides of three letters each, so both sides hand chunks to the crew at once
    graph = _all_blocking(build_graph(
        make_thread(1, "branch_even"),
        *(make_thread(n, "add1_tick", v_int(n)) for n in range(2, 8)),
        make_thread(8, "merge_sum"),
    ))
    prog = BranchProgram(Word((1,)), Word((2, 3, 4)), Word((5, 6, 7)), Word((8,)))
    runs = []
    for i in range(200):
        # lists of 0 to 24 elements, most of them with both sides non-empty
        xs = int_list(*range(i, i + 3 * (i % 9)))
        runs.append((xs, eval_psi_ref(graph, prog, xs, init_state(graph))))
    before = threading.active_count()

    def call():
        with Crew() as crew:
            equal = [
                eval_auto_word(graph, prog, xs, init_state(graph), workers=4) == expect
                for xs, expect in runs
            ]
            # two sides hand and wait at once; a lost update to the idle
            # list would leave a thread out of it or in it twice
            idle = sorted(map(id, crew._idle)) == sorted(map(id, crew._inboxes))
        return equal, idle

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        equal, idle = _returned_within(call, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert all(equal) and idle
    assert threading.active_count() == before


# --- auto's replicas -----------------------------------------------------------------


def _replica_shapes():
    """Two shapes whose blocking read-only and product stages replicate
    under auto: a word of two such letters, and a branch whose producer,
    left side and consumer replicate while its right side holds a general
    letter."""
    word_graph = _all_blocking(build_graph(
        make_thread(1, "add1_tick", v_int(0)), make_thread(2, "scale_by_state", v_int(3)),
    ))
    branch = _all_blocking(build_graph(
        make_thread(1, "branch_even"), make_thread(2, "add1_tick", v_int(1)),
        make_thread(3, "scale_by_state", v_int(-2)), make_thread(4, "counter_add", v_int(5)),
        make_thread(5, "merge_sum"),
    ))
    prog = BranchProgram(Word((1,)), Word((2,)), Word((3, 4)), Word((5,)))
    return [(word_graph, Word((1, 2))), (branch, prog)]


def test_replica_threads_and_results():
    # auto@4 on 40 elements: the word's two groups get 2 replicas each; the
    # branch's producer, left pass and consumer get 4, its right side is
    # cut into [3] with 2 replicas and [4], a general letter, with one.
    # The first lane runs on the calling thread
    (word_graph, word), (branch, prog) = _replica_shapes()
    xs = int_list(*range(40))
    for graph, shape, threads in ((word_graph, word, 3), (branch, prog, 14)):
        expect = eval_psi_ref(graph, shape, xs, init_state(graph))
        with thread_starts() as started:
            assert eval_auto_word(graph, shape, xs, init_state(graph), workers=4) == expect
        assert len(started) == threads


def test_replica_crew_stress():
    # 200 auto@4 runs of both replica shapes in one crew, over lists of 0
    # to 47 elements (0 to 5 replicas a stage), with a 10 us switch interval
    runs = []
    for i in range(200):
        graph, shape = _replica_shapes()[i % 2]
        xs = int_list(*range(i, i + (7 * i) % 48))
        runs.append((graph, shape, xs, eval_psi_ref(graph, shape, xs, init_state(graph))))
    before = threading.active_count()

    def call():
        with Crew() as crew:
            equal = [
                eval_auto_word(graph, shape, xs, init_state(graph), workers=4) == expect
                for graph, shape, xs, expect in runs
            ]
            idle = sorted(map(id, crew._idle)) == sorted(map(id, crew._inboxes))
        return equal, idle

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        equal, idle = _returned_within(call, timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert all(equal) and idle
    assert threading.active_count() == before


def _failing_reader(thread_id, fn, at, raised):
    """Builtin ``fn`` as a blocking thread whose transfer and value part
    raise on input ``at``, recording each exception in ``raised``."""
    base = make_thread(thread_id, fn, v_int(thread_id))

    def failing(half):
        def run(x, *sigma):
            if x.payload == at:
                raised.append(Boom(f"thread {thread_id} on {at}"))
                raise raised[-1]
            return half(x, *sigma)

        return run

    halves = {"value_part": failing(base.value_part)} if base.value_part else {}
    return replace(base, transfer=failing(base.transfer), blocking=True, **halves)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_replica_failure_raises_the_reference_exception(workers):
    # A late failure in an earlier letter or in the left side, and an early
    # one in a later letter or in the right side. The threaded run fails
    # early, whichever it meets first; the stage-wise re-run raises the
    # exception eval_psi_ref raises, in pipeline and auto alike.
    raised = []
    xs = int_list(*range(40))
    word_graph = build_graph(
        _failing_reader(1, "scale_by_state", 37, raised),
        _failing_reader(2, "add1_tick", 6, raised),
    )
    branch = _all_blocking(build_graph(
        make_thread(1, "branch_even"), _failing_reader(2, "add1_tick", 38, raised),
        _failing_reader(3, "scale_by_state", 1, raised), make_thread(4, "merge_sum"),
    ))
    side = _side_program(
        lambda base, x, sigma: _boom(raised, 18) if x.payload == 18 else base.transfer(x, sigma),
        lambda base, x, sigma: _boom(raised, 1) if x.payload == 1 else base.transfer(x, sigma),
        int_list(*range(20)),
    )
    shapes = [
        (word_graph, Word((1, 2)), xs), (branch, branch_prog(), xs),
        (side.graph, side.word, side.input),
    ]
    before = threading.active_count()
    for graph, shape, items in shapes:
        with pytest.raises(Boom) as ref:
            eval_psi_ref(graph, shape, items, init_state(graph))
        for run in (run_pipeline, eval_auto_word):
            del raised[:]
            err = _raised_within(lambda: run(graph, shape, items, init_state(graph), workers))
            assert type(err) is Boom and str(err) == str(ref.value) and err is raised[-1], run
    assert threading.active_count() == before


def _boom(raised, at):
    raised.append(Boom(f"thread on {at}"))
    raise raised[-1]


def _failing_counter(thread_id, at, raised):
    """``counter_add`` as a blocking thread that raises once its state
    reaches ``at``, recording each exception in ``raised``."""
    base = make_thread(thread_id, "counter_add", v_int(0))

    def transfer(x, sigma):
        if sigma.payload == at:
            raised.append(Boom(f"thread {thread_id} at state {at}"))
            raise raised[-1]
        return base.transfer(x, sigma)

    return replace(base, transfer=transfer, blocking=True)


@pytest.mark.parametrize("mode, workers", [("pipeline", 2), ("pipeline", 4), ("auto", 4)])
def test_second_segment_failure_raises_the_reference_exception(mode, workers):
    # [2,1,2,1] runs as two segments. Over n elements each letter's state
    # counts 0..n-1 in the first segment, so only the second reaches the
    # states at which they fail: letter 1 late (at its 3001st element),
    # letter 2 early (at its 2nd). The reference raises letter 1's
    # exception. The threaded segment stops at letter 2's, since letter 1
    # can run at most ``capacity`` full batches ahead, and its re-run must
    # start from the input and the states the first segment left.
    raised, n = [], 4000
    graph = build_graph(
        _failing_counter(1, n + 3000, raised), _failing_counter(2, n + 1, raised)
    )
    word, xs = Word((1, 2, 1, 2)), int_list(*range(n))
    with pytest.raises(Boom) as ref:
        eval_psi_ref(graph, word, xs, init_state(graph))
    assert str(ref.value) == f"thread 1 at state {n + 3000}"
    run = run_pipeline if mode == "pipeline" else eval_auto_word
    del raised[:]
    before = threading.active_count()
    with thread_starts() as started:
        err = _raised_within(lambda: run(graph, word, xs, init_state(graph), workers))
    assert type(err) is Boom and str(err) == str(ref.value) and err is raised[-1]
    assert len(started) > 1  # the helper, then stream threads
    assert threading.active_count() == before


def test_replica_determinism_over_fuzz_programs():
    # the first 100 fuzz programs over lists of up to 48 elements, every
    # thread blocking: auto at 2, 4 and 8 workers equals seq, run after run
    stream = program_stream(FuzzConfig(seed=1, trials=1, max_list_len=48))
    for _ in range(100):
        p = next(stream)
        p = Program(_all_blocking(p.graph), p.word, p.input, p.input_type)
        expect = run_program(p, "seq")
        for workers in (2, 4, 8):
            assert run_program(p, "auto", workers=workers) == expect, workers
            assert run_program(p, "auto", workers=workers) == expect, workers


# --- determinism ----------------------------------------------------------------


def test_repeated_runs_identical():
    stream = program_stream(FuzzConfig(seed=23, trials=1))
    for _ in range(10):
        p = next(stream)
        p = Program(_all_blocking(p.graph), p.word, p.input, p.input_type)
        first = run_program(p, "pipeline", workers=4)
        for workers in (1, 4):
            for _ in range(3):
                assert run_program(p, "pipeline", workers=workers) == first


def test_mutation_hooks_do_not_leak():
    assert not any(mutations.enabled(m) for m in mutations.MUTATIONS)
