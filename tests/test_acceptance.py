"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with its measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import time

import pytest

from stc import (
    BranchProgram,
    FlagMismatch,
    INT_T,
    StageKind,
    Word,
    build_graph,
    eval_psi_ref,
    init_state,
    join,
    make_thread,
    run_data_parallel_product,
    run_data_parallel_readonly,
    split,
    sum_of,
    v_inl,
    v_inr,
    v_int,
    v_list,
    v_str,
    validate_word,
    wrap64,
)
from stc import mutations
from stc.cli import main, _result_json
from stc.harness import FuzzConfig, Xorshift64Star, _all_blocking, program_stream, run_program
from stc.program import Program
from stc.values import STR_T

SUM_II = sum_of(INT_T, INT_T)


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_oracle_equivalence_fuzz_500(capsys):
    t0 = time.perf_counter()
    rc = main(["check", "--fuzz", "--seed", "7", "--trials", "500"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    doc = json.loads(out)
    ok = rc == 0 and doc["passed"] == 500 and elapsed < 60.0
    with capsys.disabled():
        assert _verdict(
            "oracle-equivalence",
            ok,
            f"{doc['passed']}/{doc['trials']} trials equal across seq/interleaved/"
            f"auto/pipeline(1,2,4,8) in {elapsed:.1f}s (budget 60s)",
        )


def test_functor_law_100_splits(capsys):
    t0 = time.perf_counter()
    rng = Xorshift64Star(202)
    stream = program_stream(FuzzConfig(seed=101, trials=1))
    checked = 0
    while checked < 100:
        p = next(stream)
        if p.is_branch:
            continue
        word = p.word
        cut = rng.below(len(word.letters) + 1)
        src = validate_word(p.graph, word).src
        first = Word(word.letters[:cut], src if cut == 0 else None)
        rest = Word(word.letters[cut:], src if cut == len(word.letters) else None)
        store = init_state(p.graph)
        whole = eval_psi_ref(p.graph, word, p.input, store)
        mid, st1 = eval_psi_ref(p.graph, first, p.input, store)
        parts = eval_psi_ref(p.graph, rest, mid, st1)
        assert parts == whole, f"functor law broke on {word} cut at {cut}"
        checked += 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        assert _verdict(
            "functor-law", elapsed < 5.0,
            f"{checked} random word splits, {elapsed:.2f}s (budget 5s)",
        )


def test_split_join_round_trips_and_mismatches(capsys):
    t0 = time.perf_counter()
    rng = Xorshift64Star(303)

    for _ in range(200):
        items = []
        for _ in range(rng.below(101)):
            inner = v_int(rng.below(2001) - 1000)
            items.append(v_inl(inner) if rng.below(2) else v_inr(inner))
        xs = v_list(SUM_II, items)
        bs, cs, flags = split(xs)
        assert join(bs, cs, flags) == xs

    for _ in range(200):
        bs = v_list(INT_T, [v_int(rng.below(100)) for _ in range(rng.below(30))])
        cs = v_list(INT_T, [v_int(rng.below(100)) for _ in range(rng.below(30))])
        flags = [True] * len(bs.payload) + [False] * len(cs.payload)
        rng.shuffle(flags)
        flags = tuple(flags)
        assert split(join(bs, cs, flags)) == (bs, cs, flags)

    raised = 0
    for _ in range(50):
        nb, nc = rng.below(10), rng.below(10)
        bs = v_list(INT_T, [v_int(i) for i in range(nb)])
        cs = v_list(INT_T, [v_int(i) for i in range(nc)])
        flags = [True] * nb + [False] * nc
        rng.shuffle(flags)
        # corrupt: wrong length, or wrong True-count at the right length;
        # either way the triple invariant no longer holds
        mode = rng.below(3)
        if mode == 0 or not flags:
            flags.append(rng.below(2) == 0)
        elif mode == 1:
            idx = rng.below(len(flags))
            flags[idx] = not flags[idx]
        else:
            flags.pop()
        try:
            join(bs, cs, tuple(flags))
        except FlagMismatch:
            raised += 1
    elapsed = time.perf_counter() - t0
    ok = raised == 50 and elapsed < 5.0
    with capsys.disabled():
        assert _verdict(
            "split-join",
            ok,
            f"200+200 round trips, {raised}/50 invalid triples rejected, "
            f"{elapsed:.2f}s (budget 5s)",
        )


def test_fast_paths_100_programs(capsys):
    t0 = time.perf_counter()
    rng = Xorshift64Star(404)
    fns = ("scale_by_state", "add1_tick", "append_tag", "branch_even")
    for i in range(100):
        fn = fns[i % len(fns)]
        if fn == "append_tag":
            init = v_str("abc"[rng.below(3)])
            xs = v_list(STR_T, [v_str("xy"[rng.below(2)]) for _ in range(rng.below(20))])
        else:
            init = v_int(rng.below(17) - 8)
            xs = v_list(INT_T, [v_int(rng.below(2001) - 1000) for _ in range(rng.below(20))])
        spec = make_thread(1, fn, None if fn == "branch_even" else init)
        graph = build_graph(spec)
        expect, st = eval_psi_ref(graph, Word((1,)), xs, init_state(graph))
        kind = spec.kind
        if kind is StageKind.READ_ONLY:
            got, sigma = run_data_parallel_readonly(spec, xs, init_state(graph).get(1))
        else:
            assert kind is StageKind.PRODUCT
            got, sigma = run_data_parallel_product(spec, xs, init_state(graph).get(1))
            # independent oracle: the state update is +1 per element, so the
            # final state is init + length, wrapped
            assert sigma == v_int(wrap64(init.payload + len(xs.payload)))
        assert got == expect and sigma == st.get(1), f"fast path diverged for {fn}"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        assert _verdict(
            "fast-paths", elapsed < 5.0,
            f"100 single-letter read-only/product programs, {elapsed:.2f}s (budget 5s)",
        )


def test_pipeline_schedule_shape(capsys):
    t0 = time.perf_counter()
    rc = main(
        ["bench", "--stages", "4", "--list-len", "20", "--delay-ms", "10",
         "--workers", "4"]
    )
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    rows = dict(
        (line.split(",")[0], float(line.split(",")[4]))
        for line in out.strip().splitlines()[1:]
    )
    seq, pipe = rows["seq"], rows["pipeline"]
    floor = 0.9 * 4 * 20 * 10  # 720 ms
    ok = rc == 0 and seq >= floor and pipe <= 0.5 * seq and elapsed < 30.0
    with capsys.disabled():
        assert _verdict(
            "pipeline-schedule-shape",
            ok,
            f"seq {seq:.0f}ms (floor {floor:.0f}ms), pipeline {pipe:.0f}ms "
            f"(cap {0.5 * seq:.0f}ms), total {elapsed:.1f}s (budget 30s)",
        )


def test_branch_schedule_shape(capsys):
    # the sleep-branch shape: producer [delay, branch_even], left and right
    # [delay, delay], consumer [merge_sum, delay]; each element sleeps 4 times
    delay = {"delay_ms": 10}
    specs = [make_thread(n, "delay_identity_ms", params=delay) for n in (1, 3, 4, 5, 6, 8)]
    graph = build_graph(*specs, make_thread(2, "branch_even"), make_thread(7, "merge_sum"))
    prog = BranchProgram(Word((1, 2)), Word((3, 4)), Word((5, 6)), Word((7, 8)))
    program = Program(graph, prog, v_list(INT_T, [v_int(n) for n in range(20)]), INT_T)
    walls = {}
    for mode in ("seq", "pipeline"):
        t0 = time.perf_counter()
        run_program(program, mode, workers=2)
        walls[mode] = (time.perf_counter() - t0) * 1000.0
    seq, pipe = walls["seq"], walls["pipeline"]
    floor = 0.9 * 4 * 20 * 10  # 720 ms
    ok = seq >= floor and pipe <= 0.5 * seq
    with capsys.disabled():
        assert _verdict(
            "branch-schedule-shape",
            ok,
            f"seq {seq:.0f}ms (floor {floor:.0f}ms), pipeline@2 {pipe:.0f}ms "
            f"(cap {0.5 * seq:.0f}ms)",
        )


def test_branch_determinism_byte_identical(capsys):
    t0 = time.perf_counter()
    stream = program_stream(FuzzConfig(seed=505, trials=1))
    programs = []
    while len(programs) < 50:
        p = next(stream)
        if p.is_branch:
            # marked blocking, so that workers 4 runs a threaded stream
            programs.append(_all_blocking(p))
    for p in programs:
        renders = set()
        for workers in (1, 4):
            for _ in range(5):
                out, st = run_program(p, "pipeline", workers=workers)
                renders.add(_result_json(out, st))
        assert len(renders) == 1, "branch outputs varied across runs"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        assert _verdict(
            "branch-determinism", elapsed < 20.0,
            f"50 branch programs x 5 runs x workers {{1,4}} byte-identical, "
            f"{elapsed:.1f}s (budget 20s)",
        )


@pytest.mark.parametrize("mutation", mutations.MUTATIONS)
def test_mutation_sensitivity(mutation, capsys):
    rc = main(
        ["check", "--fuzz", "--seed", "11", "--trials", "500", "--mutate", mutation]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    caught_at = doc["failures"][0]["trial"] if doc["failures"] else None
    ok = rc == 1 and caught_at is not None and caught_at < 500
    with capsys.disabled():
        assert _verdict(
            f"mutation-sensitivity[{mutation}]", ok,
            f"exit {rc}, divergence at trial {caught_at} (budget 500 trials)",
        )
