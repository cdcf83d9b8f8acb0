"""stc benchmark: seeded workloads driven through stc's public entry points.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload cpu-chain --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists and which layers
it loads or bypasses):

    cpu-chain     8-stage CPU-bound int word over 20,000 ints
    sleep-branch  branch program of 2 ms delay stages over 200 ints
    small-check   300 small programs, each run and checked in-process

With ``--trace 0`` the last stdout line is one JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
from a separate traced run (perfbench/layers.py). The line before it is a
JSON detail record: CPU count, Python version, sample counts, raw wall
times, within-run spread, tail percentiles, failed share and the sha256 of
the ``seq`` output. Outputs are gated: every mode's stdout must be
byte-identical to ``seq``'s and every ``stc check`` must exit 0; each miss
counts as failed.

Host noise. On a shared host the CPU speed drifts, by up to 2x over
minutes, and so does the latency of waking a thread. Between ops the
benchmark times a fixed pure-Python loop that calls no stc code
(``host_ref_ms``); CPU time is scaled by REF_NOMINAL_MS / (median loop time
in the run). A fresh-process op reports its wall time with the CPU part so
scaled: the rest (process start, sleeping, waiting) is kept as measured. An
in-process op (every ``stc check``, every small-check run) is a few ms of
work whose wall time is dominated by thread wake-ups, so it reports its
scaled CPU time, which counts the CPU of every thread stc starts. The raw
wall times are in the detail line.

``--mutate NAME`` plants one of ``stc.mutations`` in every stc call, for
the self-test that shows the gate is live (perfbench/selftest.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gen

WORKLOADS = ("cpu-chain", "sleep-branch", "small-check")
MODES = ("seq", "interleaved", "pipeline", "auto")
WORKERS = 2
SETUP_REPS = 5
PROCESS_TIMEOUT_S = 60
REF_LOOPS = 4000
# host_ref_ms on a quiet 2-CPU host with CPython 3.11; the scale of every
# reported time. Both sides of a comparison use the same constant.
REF_NOMINAL_MS = 1.6
# A user's `stc` command: the console script `stc = stc.cli:entry`.
STC_MAIN = "from stc.cli import entry; entry()"


def work_dir(workload: str) -> str:
    return os.path.join("perfbench", "_work", workload)


def stc_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its finished children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure(fn):
    """Run fn(); returns (wall seconds, CPU seconds, result)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, cpu_seconds() - c0, result


def host_ref_ms() -> float:
    """A fixed pure-Python loop that calls no stc code, timed in ms."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_LOOPS):
        table[i & 255] = (i, str(i & 15), [i])
    return (time.perf_counter() - t0) * 1000.0


def quartile_spread(xs):
    """(q3 - q1) / median, as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return None
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med if med else None


def tail(xs):
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return {"n": n, "p": None, "value": None}
    return {"n": n, "p": round(100.0 * (n - 10) / n, 1), "value": sorted(xs)[n - 11]}


class Tally:
    """(wall, CPU, in-process) samples per metric, host-loop samples, and
    the attempted/failed op counts of the gate."""

    def __init__(self):
        self.samples = {}
        self.ref_ms = []
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def add(self, metric: str, wall: float, cpu: float, inprocess: bool) -> None:
        self.samples.setdefault(metric, []).append((wall, cpu, inprocess))

    def sample_host(self) -> None:
        self.ref_ms.append(host_ref_ms())

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 10:
                self.misses.append(what)


def at_reference_speed(samples, factor: float):
    """Per-op seconds at the reference host speed (see the module doc)."""
    return [cpu * factor if inprocess else wall + cpu * (factor - 1.0)
            for wall, cpu, inprocess in samples]


class Stc:
    """Calls into stc: fresh `stc` processes and in-process `cli.main`."""

    def __init__(self, mutate):
        from stc import cli, mutations

        self.cli = cli
        self.mutations = mutations
        self.mutate = mutate
        self.env = stc_env()
        code = STC_MAIN
        if mutate:
            code = f"import stc.mutations as m; m.activate({mutate!r}); " + code
        self.code = code

    def process(self, argv):
        """One fresh `stc` process; returns (exit code, stdout)."""
        try:
            proc = subprocess.run(
                [sys.executable, "-c", self.code, *argv],
                env=self.env, capture_output=True, timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, b""
        return proc.returncode, proc.stdout

    def inprocess(self, argv):
        """`cli.main(argv)` in this process; returns (exit code, stdout)."""
        if self.mutate and argv[0] == "check":
            argv = [*argv, "--mutate", self.mutate]
        out = io.StringIO()
        planted = (
            self.mutations.enable(self.mutate)
            if self.mutate and argv[0] == "run" else contextlib.nullcontext()
        )
        try:
            with planted, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            return repr(exc), b""
        return rc, out.getvalue().encode()


def setup(workload: str, seed: int, env: dict):
    """Generate and write the inputs, then import stc in a fresh interpreter.

    Repeated SETUP_REPS times; returns the samples and the files.
    The files are byte-identical on every repetition.
    """
    def once():
        files = gen.write_workload(workload, seed, work_dir(workload))
        subprocess.run([sys.executable, "-c", "import stc.cli"], env=env, check=True,
                       timeout=PROCESS_TIMEOUT_S)
        return files

    samples = []
    for _ in range(SETUP_REPS):
        wall, cpu, files = measure(once)
        samples.append((wall, cpu, False))
    return samples, files


def run_args(path: str, mode: str):
    return ["run", path, "--mode", mode, "--workers", str(WORKERS)]


def rotated(modes, i):
    k = i % len(modes)
    return modes[k:] + modes[:k]


def bench_scale(stc: Stc, files, deadline: float, tally: Tally) -> dict:
    """cpu-chain / sleep-branch: fresh-process `stc run` of the main program
    in each mode, and in-process `stc check` of the check files.

    Each op kind (the four modes and check) gets an equal share of the run's
    wall time: the next op is always the kind with the least time spent so
    far, so the kinds stay interleaved across the whole run and short ops
    get more samples. An op whose last duration would carry it past the
    deadline is not started.
    """
    main = files["runs"][0]
    kinds = ("seq", "interleaved", "pipeline", "auto", "check")
    spent = dict.fromkeys(kinds, 0.0)
    last = {}
    ref = None
    checks = 0
    while True:
        now = time.perf_counter()
        fits = [k for k in kinds if k not in last or now + last[k] <= deadline]
        if not fits:
            break
        kind = min(fits, key=lambda k: (spent[k], kinds.index(k)))  # seq first
        if kind == "check":
            path = files["checks"][checks % len(files["checks"])]
            checks += 1
            wall, cpu, (rc, _) = measure(lambda: stc.inprocess(["check", path]))
            tally.add("check_ms", wall, cpu, True)
            tally.gate(rc == 0, f"check {os.path.basename(path)} rc={rc}")
        else:
            wall, cpu, (rc, out) = measure(lambda: stc.process(run_args(main, kind)))
            tally.add(f"run_ms.{kind}", wall, cpu, False)
            if kind == "seq" and ref is None and rc == 0:
                ref = out
            tally.gate(rc == 0 and out == ref, f"run {kind} rc={rc}")
        spent[kind] += wall
        last[kind] = wall
        tally.sample_host()
    return {"seq_sha256": hashlib.sha256(ref).hexdigest() if ref is not None else None}


def bench_small(stc: Stc, files, deadline: float, tally: Tally) -> dict:
    """small-check: per program, `stc run` in every defined mode and
    `stc check`, all in-process, cycling through the corpus."""
    paths, mix = files["checks"], files["mix"]
    i = 0
    while time.perf_counter() < deadline:
        path, kind = paths[i % len(paths)], mix[i % len(paths)]
        # interleaved is undefined (exit 2) on words with repeated letters
        modes = MODES if kind != "repeated" else tuple(m for m in MODES if m != "interleaved")
        outs = {}
        for mode in rotated(modes, i):
            wall, cpu, outs[mode] = measure(lambda: stc.inprocess(run_args(path, mode)))
            tally.add(f"run_ms.{mode}", wall, cpu, True)
        ref_rc, ref = outs["seq"]
        for mode in modes:
            rc, out = outs[mode]
            tally.gate(rc == 0 and ref_rc == 0 and out == ref,
                       f"{os.path.basename(path)} run {mode} rc={rc}")
        wall, cpu, (rc, _) = measure(lambda: stc.inprocess(["check", path]))
        tally.add("check_ms", wall, cpu, True)
        tally.gate(rc == 0, f"{os.path.basename(path)} check rc={rc}")
        tally.sample_host()
        i += 1
    # Untimed: one seq pass over the whole corpus fixes the output digest.
    digest = hashlib.sha256()
    for path in paths:
        digest.update(stc.inprocess(run_args(path, "seq"))[1])
    return {"programs_done": i, "corpus_passes": round(i / len(paths), 2),
            "seq_sha256": digest.hexdigest()}


def end_to_end(args, stc: Stc, files, setup_samples) -> None:
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    if args.workload == "small-check":
        info = bench_small(stc, files, deadline, tally)
    else:
        info = bench_scale(stc, files, deadline, tally)

    factor = REF_NOMINAL_MS / statistics.median(tally.ref_ms)
    ms = {k: [t * 1000.0 for t in at_reference_speed(v, factor)]
          for k, v in tally.samples.items()}

    def metric(value, unit):
        return {"value": value, "unit": unit}

    metrics = {"setup_s": metric(statistics.median(at_reference_speed(setup_samples, factor)),
                                 "s")}
    # The mean, not the median: a process runs in one of two speed modes
    # about 25% apart, and the median of a few samples jumps between them
    # (over ten seeds of cpu-chain, the quartile spread of
    # run_ms.interleaved was 0.29 with the median and 0.10 with the mean).
    for mode in MODES:
        metrics[f"run_ms.{mode}"] = metric(statistics.fmean(ms[f"run_ms.{mode}"]), "ms")
    metrics["check_ms"] = metric(statistics.median(ms["check_ms"]), "ms")
    metrics["check_programs_per_s"] = metric(
        len(ms["check_ms"]) / (sum(ms["check_ms"]) / 1000.0), "1/s")

    raw = {k: [wall * 1000.0 for wall, _, _ in v] for k, v in tally.samples.items()}
    detail = dict(
        environment(args),
        **info,
        failed_share=tally.failed / tally.attempted,
        misses=tally.misses,
        host_ref_ms=statistics.median(tally.ref_ms),
        speed_factor=factor,
        samples={k: len(v) for k, v in ms.items()},
        raw_wall_mean_ms={k: statistics.fmean(v) for k, v in raw.items()},
        raw_wall_median_ms={k: statistics.median(v) for k, v in raw.items()},
        cpu_share={k: sum(c for _, c, _ in v) / sum(w for w, _, _ in v)
                   for k, v in tally.samples.items()},
        within_run_spread={k: quartile_spread(v) for k, v in ms.items()},
        tails_ms={k: tail(v) for k, v in ms.items()},
        samples_ms={k: v for k, v in ms.items() if len(v) <= 200},
        raw_setup_s=[wall for wall, _, _ in setup_samples],
    )
    if args.workload == "small-check":
        detail["mix"] = {k: files["mix"].count(k) / len(files["mix"])
                         for k in ("chain", "repeated", "branch")}
    emit(detail, tally.attempted, tally.failed, metrics)


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "mutate": args.mutate, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "workers": WORKERS}


def emit(detail: dict, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mutate", default=None,
                   help="plant a named stc.mutations fault (self-test only)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "stc", "cli.py")):
        print("error: run from the root of an stc checkout (src/stc missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from stc import mutations

    if args.mutate is not None and args.mutate not in mutations.MUTATIONS:
        p.error(f"--mutate must be one of {', '.join(mutations.MUTATIONS)}")
    if args.mutate and args.trace:
        p.error("--mutate applies to the untraced run only")

    stc = Stc(args.mutate)
    if args.trace:
        import layers

        attempted, failed, metrics, detail = layers.traced_run(args.workload, args.seed, stc)
        emit(dict(environment(args), **detail), attempted, failed, metrics)
        return 0
    setup_samples, files = setup(args.workload, args.seed, stc.env)
    end_to_end(args, stc, files, setup_samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
