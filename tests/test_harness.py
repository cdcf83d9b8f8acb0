from __future__ import annotations

import hashlib
import json

import pytest

from stc import mutations, parse_program, smap_check, validate_word
from stc.harness import (
    FuzzConfig,
    Xorshift64Star,
    carrier_stream,
    check_program,
    gen_random_program,
    program_stream,
    run_fuzz,
    run_program,
)
from stc.program import program_digest


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
    # restructured.
    from stc.cli import main

    argv = ["check", "--fuzz", "--seed", "3", "--trials", "50", "--mutate", "stage-order-swapped"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ac24e6383c6eaf12e3cfe0c16e208f3b922c4022bb12f83c5c063aa1b6eb6f1a"
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

    started, handed = [], []
    real_start, real_hand = threading.Thread.start, Crew.hand

    def counting_start(thread, *args, **kwargs):
        started.append(thread)
        return real_start(thread, *args, **kwargs)

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
    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(Crew, "hand", counting_hand)
    for mode in ("pipeline", "auto"):
        run_program(program, mode, workers=4)
    assert started == [] and handed == []
    before = threading.active_count()
    report = check_program(program, Xorshift64Star(1))
    assert report.equal
    # tasks run on threads: auto@4 hands 3 chunks for each of the read-only
    # and product letters; pipeline@2, @4, @8 and the @8 re-run hand
    # 1 + 2 + 2 + 2 groups
    assert len(handed) == 6 + 7
    # threads started: the most any one launch needs, auto@4's 3 chunks
    assert len(started) == 3
    assert threading.active_count() == before
