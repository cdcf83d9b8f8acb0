from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple

import pytest

from stc import Word, mutations, parse_program, smap_check, validate_word
from stc.builtins import make_thread
from stc.harness import (
    FuzzConfig,
    Xorshift64Star,
    _fuzz_trial,
    _picker,
    carrier_stream,
    check_program,
    edge_value,
    first_divergence,
    gen_random_program,
    program_stream,
    random_port_type,
    random_value,
    run_fuzz,
    run_program,
    verify_hints,
)
from stc.model import ThreadSpec, build_graph, replace
from stc.program import Program, program_digest, program_to_text, value_to_json
from stc.values import FLOAT_T, INT_T, Inl, Inr, sum_of, v_float, v_int, v_str
from conftest import thread_starts


def test_xorshift_published_constants():
    # Frozen first draws for seed 1; any other implementation of
    # xorshift64* (12, 25, 27; multiplier 2685821657736338717) must match.
    rng = Xorshift64Star(1)
    assert [rng.next() for _ in range(3)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]


def test_xorshift_zero_seed_is_usable():
    rng = Xorshift64Star(0)
    assert rng.next() != 0


def test_bounded_draw_is_modulo():
    a, b = Xorshift64Star(9), Xorshift64Star(9)
    assert [a.below(10) for _ in range(20)] == [b.next() % 10 for _ in range(20)]


def test_picker_draws_as_pick():
    # the compiled samplers inline the xorshift64* step; a draw and the
    # state it leaves must be pick's
    a, b = Xorshift64Star(9), Xorshift64Star(9)
    draw = _picker(range(7))
    assert [draw(a) for _ in range(50)] == [b.pick(range(7)) for _ in range(50)]
    assert a.state == b.state


def test_gen_random_program_deterministic():
    cfg = FuzzConfig(seed=42, trials=1)
    assert program_digest(gen_random_program(cfg)) == program_digest(
        gen_random_program(cfg)
    )


def test_program_stream_deterministic():
    cfg = FuzzConfig(seed=6, trials=1)
    a = [program_digest(p) for _, p in zip(range(20), program_stream(cfg))]
    b = [program_digest(p) for _, p in zip(range(20), program_stream(cfg))]
    assert a == b


@pytest.mark.parametrize(
    "seed,expect",
    [
        (1, "a003cdb36ca08b1edb4d49f4d79bb4c5eb196c7cfdcf2d41802bce85eda0c6b7"),
        (101, "b8a09cde95395db210b4c3d3937b8fbef308d5ac1e530fbb7346f2aaa253cbd2"),
    ],
)
def test_program_stream_is_pinned(seed, expect):
    # A failure seed printed by an earlier version must replay the same
    # programs, so the generator's rng draw order is frozen.
    h = hashlib.sha256()
    for _, p in zip(range(200), program_stream(FuzzConfig(seed=seed, trials=1))):
        h.update(program_digest(p).encode())
    assert h.hexdigest() == expect


@pytest.mark.parametrize(
    "seed,expect",
    [
        (1, "b5759b1bef49de2824081ee2068634fe3136d1e9d1f9d3d889bc56902303f4cc"),
        (101, "3a1e56a046ebdc585e185289530bddb9fa8fa7ed58d2488435f54b10fa89d5af"),
    ],
)
def test_carrier_stream_is_pinned(seed, expect):
    # Carrier failure seeds must replay too, so edge-value and port-type
    # draws keep their order.
    h = hashlib.sha256()
    for _, p in zip(range(200), carrier_stream(FuzzConfig(seed=seed, trials=1))):
        h.update(program_digest(p).encode())
    assert h.hexdigest() == expect


@pytest.mark.parametrize(
    "draw,expect",
    [
        (random_value, "4a125c79bf689137dcc4c890b63f08a6236afac31498a2d8d0f09ca4c1f10020"),
        (edge_value, "8ba94e7f3b87c2b0543465714ac76ea71b68434ecc032531859ebd7d2c8675a1"),
    ],
    ids=["random", "edge"],
)
def test_value_draws_are_pinned(draw, expect):
    # Hint samples and carrier inputs are drawn by the same per-type
    # samplers, so every value they draw, and the rng state they leave,
    # is frozen: old failure seeds must replay.
    rng = Xorshift64Star(7)
    h = hashlib.sha256()
    for _ in range(1000):
        pt = random_port_type(rng)
        h.update(json.dumps([pt.name, value_to_json(draw(pt, rng))]).encode())
    h.update(str(rng.state).encode())
    assert h.hexdigest() == expect


@pytest.mark.parametrize(
    "stream,expect",
    [
        (program_stream, "fc098226af6b81ea16bfa05cd5f3643804354663bc96a2546fd8baba35a9efab"),
        (carrier_stream, "117f02b097446e845afa1dffecfea18f5b7eb53e7909eb2da75eb9720e16994d"),
    ],
    ids=["program", "carrier"],
)
def test_stream_checks_are_pinned(stream, expect):
    # As in `stc check`, hint sampling and the checks draw from one rng,
    # which hands its state on to the functor-split cut and the split/join
    # list; the verdicts, the reports and that hand-off are frozen.
    rng = Xorshift64Star(0xC0FFEE)
    h = hashlib.sha256()
    for _, p in zip(range(100), stream(FuzzConfig(seed=17, trials=1))):
        hints = verify_hints(p.graph.edges.values(), rng)
        report = check_program(p, rng, check=True).as_dict()
        h.update(json.dumps([hints, report], sort_keys=True).encode())
    h.update(str(rng.state).encode())
    assert h.hexdigest() == expect


def test_split_join_divergence_is_reported_boxed(monkeypatch):
    # the round trip runs on raw sums; a lost element is reported with
    # both lists boxed, in the text the boxed check printed
    from stc import harness

    join = harness._join
    monkeypatch.setattr(harness, "_join", lambda *sides: join(*sides)[:-1])
    div = harness._check_split_join(Xorshift64Star(3))
    assert (div.mode, div.kind, div.where) == ("split-join", "output", "round trip")
    assert div.expected == (
        "[inl(-99), inr(30), inr(-94), inr(-37), inr(-6), inl(-91), inr(-9)]:sum(int,int)"
    )
    assert div.actual == "[inl(-99), inr(30), inr(-94), inr(-37), inr(-6), inl(-91)]:sum(int,int)"


_SLOTS = {1: 3, 2: "t", 3: None}
_SUMS = sum_of(INT_T, INT_T)


@pytest.mark.parametrize(
    "ref,got,expect",
    [
        ((FLOAT_T, [1.5, 0.0], _SLOTS), (FLOAT_T, [1.5, -0.0], _SLOTS),
         ("output", "index 1", "0.0", "-0.0")),
        ((FLOAT_T, [math.nan], _SLOTS), (FLOAT_T, [float("nan")], _SLOTS), None),
        ((_SUMS, [Inl(1), Inr(2)], _SLOTS), (_SUMS, [Inl(1), Inl(2)], _SLOTS),
         ("output", "index 1", "inr(2)", "inl(2)")),
        ((INT_T, [1, 2], _SLOTS), (INT_T, [1, 3], {**_SLOTS, 1: 4, 2: "u"}),
         ("output", "index 1", "2", "3")),
        ((INT_T, [1], _SLOTS), (INT_T, [1], {**_SLOTS, 1: v_str("x")}),
         ("state", "slot 1", "3", "'x'")),
        ((INT_T, [1], _SLOTS), (INT_T, [1], {**_SLOTS, 3: v_int(2)}),
         ("state", "slot 3", "unit", "2")),
        ((INT_T, [1], {**_SLOTS, 1: v_str("x")}), (INT_T, [1], {**_SLOTS, 1: v_str("x")}), None),
        ((INT_T, [1], {3: None, 2: "t", 1: 3}), (INT_T, [1], {3: None, 2: "u", 1: 4}),
         ("state", "slot 1", "3", "4")),
        ((INT_T, [1, 2], _SLOTS), (INT_T, [1], {**_SLOTS, 1: 4}), ("length", "output", "2", "1")),
        # slot 4 holds a float: plain equality of its raw states would
        # raise on a Value and take 0.0 for -0.0
        ((INT_T, [1], {4: 0.5}), (INT_T, [1], {4: v_str("x")}),
         ("state", "slot 4", "0.5", "'x'")),
        ((INT_T, [1], {4: v_str("x")}), (INT_T, [1], {4: v_str("x")}), None),
        ((INT_T, [1], {4: 0.0}), (INT_T, [1], {4: -0.0}), ("state", "slot 4", "0.0", "-0.0")),
    ],
    ids=["zero-sign", "nan", "sum", "first-index", "ill-typed-state", "ill-typed-unit",
         "ill-typed-equal", "first-slot", "length", "ill-typed-float", "ill-typed-float-equal",
         "float-zero-sign"],
)
def test_first_divergence_text_on_raw_results(ref, got, expect):
    # raw results are compared raw, and only the two reported values are
    # boxed: the text is what the boxed comparison printed on the boxed
    # results. The output is compared before the state, the state slot by
    # slot in id order, and a state that does not inhabit its type (a
    # Value of another type) is compared and printed as that Value.
    threads = (make_thread(1, "counter_add"), make_thread(2, "append_tag"))
    # a GENERAL thread whose state is a float, which no builtin has
    floaty = ThreadSpec(4, INT_T, INT_T, FLOAT_T, v_float(0.0), "float_state")
    graph = build_graph(*threads, make_thread(3, "branch_even"), floaty)
    div = first_divergence(graph, "m", ref, got)
    assert (div and astuple(div)) == (expect and ("m", *expect))


_FAST_DOC = {
    "threads": [
        {"id": 1, "fn": "counter_add"},
        {"id": 2, "fn": "scale_by_state", "init_state": 3},
        {"id": 3, "fn": "add1_tick"},
    ],
    "word": [1, 2, 3],
    "input": [1, 2, 3, 4, 5],
    "input_type": "int",
}


def test_functor_split_divergence_is_located(monkeypatch):
    # a half that drops its first letter's state update leaves that slot
    # at its initial state; the rows pass, so the functor split, cut
    # where the check rng's first draw says, reports the slot
    from stc import harness
    from stc.composition import Plan

    real = harness.planner
    program = parse_program(json.dumps(_FAST_DOC))

    def dropping(graph, shape, *args, **kwargs):
        planned = real(graph, shape, *args, **kwargs)
        if shape is program.word:  # the check's own planner, not a half's
            return planned

        def half(*modes):
            plan = planned(*modes)

            def core(items, slots):
                before = dict(slots)
                out, after = plan.core(items, slots)
                return out, {**after, **{n: before[n] for n in plan.letters[:1]}}

            return Plan(plan.letters, plan.src, plan.tgt, core)

        return half

    monkeypatch.setattr(harness, "planner", dropping)
    cut = Xorshift64Star(1).below(4)
    report = check_program(program, Xorshift64Star(1))
    assert astuple(report.divergence) == (f"functor-split@{cut}", "state", "slot 1", "5", "0")
    assert report.modes[-1] == "functor"


def test_fuzz_samples_each_claim_once_per_run(monkeypatch):
    # one fuzz run shares its hint verdicts: a claim is sampled, and its
    # kernel looked up, the first time a thread makes it and never again
    from stc import harness
    from stc.model import StageKind, builtin_claim

    calls = []
    real = harness.kernel_of
    monkeypatch.setattr(harness, "kernel_of", lambda fn: calls.append(fn) or real(fn))
    cfg = FuzzConfig(seed=1, trials=20)
    assert run_fuzz(cfg).ok
    claims = {
        (builtin_claim(spec), spec.kind)
        for stream in (program_stream, carrier_stream)
        for _, p in zip(range(cfg.trials), stream(cfg))
        for spec in p.graph.edges.values()
        if spec.kind is not StageKind.GENERAL
    }
    assert len(calls) == len(claims)


def test_corpus_words_validate():
    stream = program_stream(FuzzConfig(seed=8, trials=1))
    kinds = {"branch": 0, "repeated": 0, "plain": 0}
    for _ in range(100):
        p = next(stream)
        if p.is_branch:
            kinds["branch"] += 1
            for w in p.word.words():
                validate_word(p.graph, w)
            letters = [n for w in p.word.words() for n in w.letters]
            assert len(set(letters)) == len(letters)
        else:
            validate_word(p.graph, p.word)
            if smap_check(p.word):
                kinds["repeated"] += 1
            else:
                kinds["plain"] += 1
    assert all(kinds.values()), kinds  # every program shape shows up


def test_corpus_round_trips_through_serializer():
    from stc.program import program_to_text

    stream = program_stream(FuzzConfig(seed=12, trials=1))
    for _ in range(25):
        p = next(stream)
        assert parse_program(program_to_text(p)) == p


def test_fuzz_clean_run_passes():
    report = run_fuzz(FuzzConfig(seed=7, trials=60))
    assert report.ok and report.passed == 60


def test_fuzz_report_shape():
    report = run_fuzz(FuzzConfig(seed=7, trials=5))
    doc = report.as_dict()
    assert doc["trials"] == 5 and doc["failed"] == 0 and doc["failures"] == []


@pytest.mark.parametrize("name", mutations.MUTATIONS)
def test_mutations_detected(name):
    with mutations.enable(name):
        report = run_fuzz(FuzzConfig(seed=11, trials=500))
    assert not report.ok, f"{name} slipped through"
    failure = report.failures[0]
    assert failure.program_text  # replayable
    assert failure.divergence is not None


def test_fuzz_fails_a_mislabeled_builtin_at_trial_0():
    # add1_tick claiming READ_ONLY: the first program of seed 1 holds one,
    # and the suite samples each program's hints before it runs it
    from stc import builtins
    from stc.model import StageKind

    real = builtins._REGISTRY["add1_tick"]
    builtins._REGISTRY["add1_tick"] = replace(real, kind=StageKind.READ_ONLY)
    builtins._claimed.cache_clear()  # a claim's instance is memoised
    try:
        report = run_fuzz(FuzzConfig(seed=1, trials=5))
    finally:
        builtins._REGISTRY["add1_tick"] = real
        builtins._claimed.cache_clear()
    assert report.trials == 1 and report.passed == 0
    failure = report.failures[0]
    assert failure.index == 0 and failure.modes == ["hints"]
    div = failure.divergence
    assert (div.mode, div.kind, div.expected, div.actual) == (
        "hints", "hint", "READ_ONLY", "violated"
    )
    thread = int(div.where.removeprefix("thread "))
    assert parse_program(failure.program_text).graph.edges[thread].fn_name == "add1_tick"


def test_fuzz_trial_reports_a_failing_reference_run_as_a_harness_error():
    # a replaced transfer whose output is ill-typed makes the reference run
    # itself raise; the trial reports it, it does not end in a traceback
    spec = replace(make_thread(1, "counter_add"), transfer=lambda x, s: (v_str("bad"), s))
    program = Program.from_raw(build_graph(spec), Word((1,)), [1, 2], INT_T)
    trial = _fuzz_trial(program, Xorshift64Star(1), Xorshift64Star(2), {}, 3)
    assert (trial.index, trial.modes, trial.equal) == (3, ["seq"], False)
    div = trial.divergence
    assert (div.mode, div.kind, div.where, div.expected) == ("harness", "error", "-", "result")
    assert div.actual.startswith("PortTypeError(")
    assert trial.program_text == program_to_text(program)


def test_mutation_failure_is_replayable():
    with mutations.enable("state-update-dropped"):
        report = run_fuzz(FuzzConfig(seed=11, trials=500))
        program = parse_program(report.failures[0].program_text)
        trial = check_program(program, Xorshift64Star(1))
    assert not trial.equal
    assert trial.divergence.kind in ("output", "state", "length")
    # and the divergence vanishes once the fault is removed
    clean = check_program(program, Xorshift64Star(1))
    assert clean.equal


def test_clean_fuzz_report_is_pinned(capsys):
    # The clean fuzz run of CI's equivalence step: the programs, the check
    # rng's draws and the report must not change when the harness or the
    # executors are restructured.
    from stc.cli import main

    assert main(["check", "--fuzz", "--seed", "1", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0f0767a7c6f7c8bae3ba65a449962c5f0ac17a724a891912895bc49420f318ed"
    )


def test_mutated_fuzz_report_is_pinned(capsys):
    # The whole report of a mutated fuzz run, the failing program's text
    # and the divergence included, must not change when the executors are
    # restructured. A planted fault acts only on a threaded plan, so the
    # report diverges at auto@4, the first row with more than one worker.
    from stc.cli import main

    argv = ["check", "--fuzz", "--seed", "3", "--trials", "50", "--mutate", "stage-order-swapped"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e81c277dbd2badae1cb3e7ba4c8ef5ba7a188367094c59f1cde98ed9a1363a82"
    )


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        mutations.activate("made-up")


def test_run_program_rejects_unknown_mode():
    p = gen_random_program(FuzzConfig(seed=2, trials=1))
    with pytest.raises(ValueError):
        run_program(p, "warp")


def test_check_program_still_starts_threads_on_a_cpu_only_program(monkeypatch):
    # stc run keeps a CPU-only program on one thread; the check's runs with
    # more than one worker must still reach the threaded stream and fission,
    # and they share one crew, so later runs reuse the threads of earlier ones
    import threading

    from stc.parallel import Crew

    handed = []
    real_hand = Crew.hand

    def counting_hand(crew, task):
        handed.append(task)
        return real_hand(crew, task)

    doc = {
        "threads": [
            {"id": 1, "fn": "counter_add"},
            {"id": 2, "fn": "scale_by_state", "init_state": 3},
            {"id": 3, "fn": "add1_tick"},
        ],
        "word": [1, 2, 3],
        "input": list(range(10)),
        "input_type": "int",
    }
    program = parse_program(json.dumps(doc))
    assert not any(spec.blocking for spec in program.graph.edges.values())
    monkeypatch.setattr(Crew, "hand", counting_hand)
    with thread_starts() as started:
        for mode in ("pipeline", "auto"):
            run_program(program, mode, workers=4)
        assert started == [] and handed == []
        before = threading.active_count()
        report = check_program(program, Xorshift64Star(1))
    assert report.equal
    # tasks run on threads: on 10 elements auto@4 runs the pipeline's three
    # stages and hands 2 of them; pipeline@2, @4, @8 and the @8 re-run hand
    # 1 + 2 + 2 + 2 groups
    assert len(handed) == 2 + 7
    # threads started: the most any one launch needs, 2 stages
    assert len(started) == 2
    assert threading.active_count() == before
