"""Command-line interface.

Commands:

    stc run <file> [--mode seq|interleaved|pipeline|auto] [--workers N]
    stc check <file> | stc check --fuzz --seed S --trials T [limits]
    stc bench --stages K --list-len L --delay-ms D [--workers N]
    stc dot <file> [--extended]

Exit codes: 0 success, 1 check failure, 2 validation error, 3 runtime
error. Machine output (run JSON, check reports, bench CSV, DOT) goes to
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from . import mutations
from .builtins import make_thread
from .composition import Word
from .errors import ExecutionError, StcError, ValidationError
from .model import build_graph
from .program import (
    Program,
    dump_raw,
    export_dot,
    parse_program,
    run_program,
    run_raw,
    value_to_json,
)
from .values import INT_T, v_int, v_list

MODES = ("seq", "interleaved", "pipeline", "auto")
BENCH_REPEATS = 5


def _load(path: str) -> Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_program(text)


def _result_json(output, state) -> str:
    """The run document of a boxed result."""
    final = {str(n): value_to_json(v) for n, v in sorted(state.as_dict().items())}
    doc = {"output": [value_to_json(v) for v in output.payload], "final_state": final}
    return json.dumps(doc, separators=(",", ":"))


def cmd_run(args) -> int:
    """Parse, run and render on raw values: no ``Value`` is built for an
    element. The text equals ``_result_json`` of the boxed result."""
    program = _load(args.file)
    _, items, slots = run_raw(program, args.mode, workers=args.workers)
    final = {str(n): slots[n] for n in sorted(slots)}
    print(dump_raw({"output": items, "final_state": final}, separators=(",", ":")))
    return 0


def cmd_check(args) -> int:
    # the check harness is imported here, so that `stc run` never loads it
    from .harness import FuzzConfig, Xorshift64Star, check_program, run_fuzz, verify_hints

    if args.mutate:
        mutations.activate(args.mutate)
    try:
        if args.fuzz:
            cfg = FuzzConfig(
                seed=args.seed,
                trials=args.trials,
                max_edges=args.max_edges,
                max_word_len=args.max_word_len,
                max_list_len=args.max_list_len,
            )
            report = run_fuzz(cfg)
            print(json.dumps(report.as_dict(), separators=(",", ":")))
            return 0 if report.ok else 1
        if not args.file:
            raise ValidationError("check needs a program file or --fuzz")
        program = _load(args.file)
        rng = Xorshift64Star(0xC0FFEE)
        hints_ok = verify_hints(program.graph.edges.values(), rng)
        trial = check_program(program, rng, check=True)
        _print_check_table(program, trial, hints_ok)
        return 0 if trial.equal and hints_ok else 1
    finally:
        mutations.clear()


def _print_check_table(program: Program, trial, hints_ok: bool = True) -> None:
    """One row per run of ``trial`` (a ``harness.TrialReport``): ``equal``
    up to the divergence, then the run that diverged. Runs nothing itself."""
    from .model import is_acyclic

    print(f"program {trial.digest[:16]}")
    # cycles never block execution (repeated letters run segmented), but
    # an acyclic graph guarantees every word pipelines in one piece
    print(f"graph acyclic: {str(is_acyclic(program.graph)).lower()}")
    print(f"classification hints: {'ok' if hints_ok else 'VIOLATED'}")
    rows = {"seq": "reference"}
    for label in trial.modes:
        if label not in ("functor", "split-join"):
            rows.setdefault(label, "equal")
    div = trial.divergence
    if div is not None and div.kind == "error":
        rows[div.mode] = f"ERROR {div.actual}"
    elif div is not None:
        rows[div.mode] = f"DIVERGES at {div.where}"
    width = max(map(len, rows))
    for name, status in rows.items():
        print(f"{name:<{width}}  {status}")


def cmd_bench(args) -> int:
    """Median wall time of a delay-stage chain, sequential vs pipelined."""
    from .parallel import plan_pipeline

    specs = [
        make_thread(i, "delay_identity_ms", params={"delay_ms": args.delay_ms})
        for i in range(1, args.stages + 1)
    ]
    graph = build_graph(*specs)
    word = Word(tuple(range(1, args.stages + 1)))
    xs = v_list(INT_T, [v_int(i) for i in range(args.list_len)])
    program = Program(graph, word, xs, INT_T)
    plan_pipeline(graph, word, workers=args.workers)  # a bad --workers fails before any output
    print("mode,stages,list_len,delay_ms,wall_ms")
    for mode in ("seq", "pipeline"):
        times = []
        for _ in range(BENCH_REPEATS):
            t0 = time.perf_counter()
            run_program(program, mode, workers=args.workers)
            times.append((time.perf_counter() - t0) * 1000.0)
        wall = sorted(times)[BENCH_REPEATS // 2]  # the median of an odd count
        print(f"{mode},{args.stages},{args.list_len},{args.delay_ms},{wall:.3f}")
    return 0


def cmd_dot(args) -> int:
    program = _load(args.file)
    sys.stdout.write(export_dot(program.graph, extended=args.extended))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` returns a
    fresh namespace on every call."""
    parser = argparse.ArgumentParser(prog="stc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a program")
    p_run.add_argument("file")
    p_run.add_argument("--mode", choices=MODES, default="seq")
    p_run.add_argument("--workers", type=int, default=4)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="cross-executor equivalence checks")
    p_check.add_argument("file", nargs="?")
    p_check.add_argument("--fuzz", action="store_true")
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--max-edges", type=int, default=8)
    p_check.add_argument("--max-word-len", type=int, default=5)
    p_check.add_argument("--max-list-len", type=int, default=16)
    p_check.add_argument(
        "--mutate",
        choices=mutations.MUTATIONS,
        help="plant a named executor fault (harness sensitivity testing)",
    )
    p_check.set_defaults(fn=cmd_check)

    p_bench = sub.add_parser("bench", help="pipeline schedule-shape benchmark")
    p_bench.add_argument("--stages", type=int, required=True)
    p_bench.add_argument("--list-len", type=int, required=True)
    p_bench.add_argument("--delay-ms", type=int, required=True)
    p_bench.add_argument("--workers", type=int, default=4)
    p_bench.set_defaults(fn=cmd_bench)

    p_dot = sub.add_parser("dot", help="export the thread graph as DOT")
    p_dot.add_argument("file")
    p_dot.add_argument("--extended", action="store_true")
    p_dot.set_defaults(fn=cmd_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except ExecutionError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
