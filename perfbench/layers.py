"""Traced run of the stc benchmark: per-layer metrics and tracing overhead.

Spans are recorded from the benchmark's side: the public functions named in
TRACED are wrapped in every ``stc.*`` module namespace that refers to them,
so each call into a layer becomes one span (name, start, end, parent, trace
id). Spans are kept in memory and written to
``perfbench/_work/trace-<workload>-<seed>.json`` at the end. A span's self
time is its duration minus the part of it that its child spans cover.
Threads that stc starts itself begin with an empty span stack, so spans
opened there are roots that share the trace id.

Per-element functions (``apply_thread``, the ``v_*`` constructors,
``value_to_json``, ``eval_phi``, ``validate_word``) are not wrapped, since a
span per element would swamp what it measures. Their layers are timed as
loops inside one probe span instead (``model.apply_us.*``,
``values.box_us_per_elem``, ``program.render_ms``,
``composition.validate_us``).

Every per-layer metric has a home workload, the one whose input it is
measured on (see perfbench/README.md for the metric -> end-to-end map). The
traced run of any workload regenerates all three workloads from the same
seed and measures every metric on its home input, so each traced run
reports the full set. What is workload-specific is the tracing overhead:
the workload's own in-process op timed with and without the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import gen
import run
from stc import composition as C
from stc import harness as H
from stc import model as M
from stc import parallel as par
from stc import program as P
from stc import values as V

TRACED = {
    "stc.program": ("parse_program", "program_digest", "serialize_program"),
    "stc.composition": ("eval_psi_ref", "eval_interleaved", "segment_word"),
    "stc.model": ("init_state", "build_graph"),
    "stc.builtins": ("make_thread",),
    "stc.values": ("v_list", "parse_port"),
    "stc.parallel": (
        "run_pipeline", "run_task_parallel_branch", "eval_branch",
        "eval_branch_elementwise", "eval_auto_word", "run_data_parallel_readonly",
        "run_data_parallel_product", "split", "join", "validate_branch",
    ),
    "stc.harness": ("run_program", "check_program", "verify_classification",
                    "first_divergence"),
}

# Probes under ~0.5 s run this many times and report the median.
CHEAP_REPS = 3
# Corpus prefixes for the small-check probes that cost most per program.
HINTS_N = 100
CHECK_N = 40
FIXED_N = 100
EQ_REPEATS = 20
SPLIT_REPEATS = 50
OVERHEAD_REPS = 5
OVERHEAD_CHECKS = 20
HOST_SAMPLES = 20
FIXED_COMBOS = (("seq", 1), ("interleaved", 1), ("pipeline", 1), ("pipeline", 2),
                ("auto", 1), ("auto", 2))
THREAD_COMBOS = (("pipeline", 1), ("pipeline", 2), ("auto", 2))

# Runs `stc run` in a fresh interpreter, as a user would, and reports the
# collector's pauses and collections per generation on stderr.
GC_PROBE = """
import gc, json, sys, time
pause = [0.0]; counts = [0, 0, 0]; t0 = [0.0]
def cb(phase, info):
    if phase == "start":
        t0[0] = time.perf_counter()
    else:
        pause[0] += time.perf_counter() - t0[0]
        counts[info["generation"]] += 1
gc.callbacks.append(cb)
from stc.cli import main
rc = main(sys.argv[1:])
gc.callbacks.remove(cb)
sys.stderr.write(json.dumps({"rc": rc, "pause_ms": pause[0] * 1000.0, "counts": counts}))
"""


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.trace_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append({"trace": self.trace_id, "id": sid, "parent": parent,
                               "name": name, "start_ns": start, "end_ns": end})

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self):
        """Wrap every TRACED function wherever an stc module refers to it;
        returns the undo list for ``restore``."""
        patched = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "stc"]
        for modname, names in TRACED.items():
            home = importlib.import_module(modname)
            for name in names:
                orig = getattr(home, name)
                wrapper = self.wrap(f"{modname[4:]}.{name}", orig)
                for mod in modules:
                    if getattr(mod, name, None) is orig:
                        setattr(mod, name, wrapper)
                        patched.append((mod, name, orig))
        return patched

    @staticmethod
    def restore(patched) -> None:
        for mod, name, orig in reversed(patched):
            setattr(mod, name, orig)


def _covered_ns(intervals, lo, hi) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ms(spans) -> dict:
    """Total self time per span name, in ms."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = defaultdict(float)
    for s in spans:
        own = s["end_ns"] - s["start_ns"]
        own -= _covered_ns(children[s["id"]], s["start_ns"], s["end_ns"])
        out[s["name"]] += own / 1e6
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


class Suite:
    """The per-layer probes, each run as one root span on its home input."""

    def __init__(self, tracer: Tracer, stc, files: dict):
        self.t = tracer
        self.stc = stc
        self.files = files
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.misses = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)

    def timed(self, name: str, fn, reps: int = 1):
        """Run fn ``reps`` times, each inside a root span; returns (median
        seconds, last result)."""
        self.t.trace_id = name
        times = []
        for _ in range(reps):
            with self.t.span("probe:" + name):
                t0 = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - t0)
        return statistics.median(times), result

    def load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            return P.parse_program(fh.read())

    # -- cpu-chain ---------------------------------------------------------

    def cpu_chain(self) -> None:
        path = self.files["cpu-chain"]["runs"][0]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        dt, prog = self.timed("program.parse", lambda: P.parse_program(text), CHEAP_REPS)
        self.put("program.parse_ms", dt * 1000.0, "ms")
        g, w, xs = prog.graph, prog.word, prog.input
        n, k = len(xs.payload), len(w.letters)
        per_es = 1e6 / (n * k)

        dt, ref = self.timed("composition.seq",
                             lambda: C.eval_psi_ref(g, w, xs, M.init_state(g)), CHEAP_REPS)
        self.put("composition.seq_us_per_elem_stage", dt * per_es, "us/elem-stage")

        def render():
            out, state = ref
            doc = {"output": [P.value_to_json(v) for v in out.payload],
                   "final_state": {str(i): P.value_to_json(v)
                                   for i, v in sorted(state.as_dict().items())}}
            return json.dumps(doc, separators=(",", ":"))

        dt, _ = self.timed("program.render", render, CHEAP_REPS)
        self.put("program.render_ms", dt * 1000.0, "ms")

        runs = [
            ("composition.interleaved_us_per_elem_stage",
             lambda: C.eval_interleaved(g, w, xs, M.init_state(g))),
            ("parallel.pipeline_us_per_elem_stage.w1",
             lambda: par.run_pipeline(g, w, xs, M.init_state(g), 1)),
            ("parallel.pipeline_us_per_elem_stage.w2",
             lambda: par.run_pipeline(g, w, xs, M.init_state(g), 2)),
            ("parallel.auto_us_per_elem_stage.w2",
             lambda: par.eval_auto_word(g, w, xs, M.init_state(g), workers=2)),
        ]
        for name, fn in runs:
            dt, got = self.timed(name, fn)
            self.put(name, dt * per_es, "us/elem-stage")
            self.gate(got[0] == ref[0] and got[1] == ref[1], f"{name} differs from seq")

        by_kind = defaultdict(list)
        for letter in w.letters:
            spec = g.edges[letter]
            by_kind[spec.kind.value].append(spec)
        for kind in ("general", "read_only", "product"):
            specs = by_kind[kind]

            def apply_all(specs=specs):
                for spec in specs:
                    sigma = spec.init_state
                    for v in xs.payload:
                        _, sigma = M.apply_thread(spec, v, sigma)

            dt, _ = self.timed(f"model.apply.{kind}", apply_all, CHEAP_REPS)
            self.put(f"model.apply_us.{kind}", dt * 1e6 / (n * len(specs)), "us")

        for fast, kind, fn in (("readonly", "read_only", par.run_data_parallel_readonly),
                               ("product", "product", par.run_data_parallel_product)):
            specs = by_kind[kind]
            results = {}
            for workers in (1, 2):
                name = f"parallel.{fast}_us_per_elem.w{workers}"
                dt, results[workers] = self.timed(
                    name, lambda: [fn(s, xs, s.init_state, workers) for s in specs],
                    CHEAP_REPS if workers == 1 else 1)
                self.put(name, dt * 1e6 / (n * len(specs)), "us/elem")
            self.gate(results[1] == results[2], f"parallel.{fast} w1 and w2 differ")

        raw = [v.payload for v in xs.payload]
        dt, _ = self.timed("values.box", lambda: [V.v_int(x) for x in raw], CHEAP_REPS)
        self.put("values.box_us_per_elem", dt * 1e6 / n, "us/elem")

        self.t.trace_id = "runtime.gc"
        runs = []
        for _ in range(CHEAP_REPS):
            with self.t.span("probe:runtime.gc"):
                proc = subprocess.run(
                    [sys.executable, "-c", GC_PROBE, "run", path, "--mode", "seq",
                     "--workers", "2"],
                    env=self.stc.env, capture_output=True, timeout=120,
                )
            stats = json.loads(proc.stderr.decode().strip().splitlines()[-1])
            self.gate(proc.returncode == 0 and stats["rc"] == 0, "gc probe run failed")
            runs.append(stats)
        self.put("runtime.gc_pause_ms", statistics.median(r["pause_ms"] for r in runs), "ms")
        for gen_i in range(3):
            self.put(f"runtime.gc_collections.gen{gen_i}",
                     statistics.median(r["counts"][gen_i] for r in runs), "count")

    # -- sleep-branch ------------------------------------------------------

    def sleep_branch(self) -> None:
        prog = self.load(self.files["sleep-branch"]["runs"][0])
        g, b, xs = prog.graph, prog.word, prog.input
        n = len(xs.payload)
        dt_seq, ref = self.timed("parallel.branch.seq",
                                 lambda: par.eval_branch(g, b, xs, M.init_state(g)))
        dt_pipe, got = self.timed(
            "parallel.branch.pipeline",
            lambda: par.run_task_parallel_branch(g, b, xs, M.init_state(g), 2))
        self.gate(got[0] == ref[0] and got[1] == ref[1], "branch pipeline differs from seq")
        self.put("parallel.branch_ms.seq", dt_seq * 1000.0, "ms")
        self.put("parallel.branch_ms.pipeline", dt_pipe * 1000.0, "ms")
        # base: the sequential branch time
        self.put("parallel.branch_overlap", dt_seq / dt_pipe, "x")

        delay = g.edges[b.producer.letters[0]]
        for workers in (1, 2):
            name = f"parallel.readonly_delay_us_per_elem.w{workers}"
            dt, got = self.timed(
                name, lambda: par.run_data_parallel_readonly(delay, xs, delay.init_state, workers))
            self.put(name, dt * 1e6 / n, "us/elem")
            self.gate(got[0] == xs, f"{name} is not the identity")

        produced, _ = C.eval_psi_ref(g, b.producer, xs, M.init_state(g))
        dt, (bs, cs, flags) = self.timed(
            "parallel.split", lambda: [par.split(produced) for _ in range(SPLIT_REPEATS)][-1],
            CHEAP_REPS)
        self.put("parallel.split_us_per_elem", dt * 1e6 / (SPLIT_REPEATS * n), "us/elem")
        dt, back = self.timed(
            "parallel.join", lambda: [par.join(bs, cs, flags) for _ in range(SPLIT_REPEATS)][-1],
            CHEAP_REPS)
        self.put("parallel.join_us_per_elem", dt * 1e6 / (SPLIT_REPEATS * n), "us/elem")
        self.gate(back == produced, "split/join round trip differs")

    # -- small-check -------------------------------------------------------

    def small_check(self) -> None:
        files = self.files["small-check"]
        corpus = [self.load(p) for p in files["checks"]]
        mix = files["mix"]

        def per_program(name, fn, programs, scale=1000.0):
            times = []
            for i, p in enumerate(programs):
                dt, result = self.timed(f"{name}[{i}]", lambda: fn(p))
                times.append(dt * scale)
                yield result
            self.put(name, statistics.median(times), "ms" if scale == 1000.0 else "us")

        list(per_program("program.digest_ms", P.program_digest, corpus))

        def validate(p):
            if p.is_branch:
                return par.validate_branch(p.graph, p.word)
            return C.validate_word(p.graph, p.word)

        list(per_program("composition.validate_us", validate, corpus, scale=1e6))

        def hints(p):
            rng = H.Xorshift64Star(0xC0FFEE)
            return all(H.verify_classification(s, rng) for s in p.graph.edges.values())

        for i, ok in enumerate(per_program("harness.verify_hints_ms", hints, corpus[:HINTS_N])):
            self.gate(ok, f"hints violated on corpus program {i}")

        first = len(self.t.spans)
        trials = per_program("harness.check_program_ms",
                             lambda p: H.check_program(p, H.Xorshift64Star(0xC0FFEE)),
                             corpus[:CHECK_N])
        for i, trial in enumerate(trials):
            self.gate(trial.equal, f"check_program diverged on corpus program {i}")
        runs = sum(1 for s in self.t.spans[first:] if s["name"] == "harness.run_program")
        self.put("harness.runs_per_check", runs / min(CHECK_N, len(corpus)), "count")

        self._run_fixed(corpus[:FIXED_N], mix[:FIXED_N])

        pairs = []
        for p in corpus:
            ref = H.run_program(p, "seq")
            got = H.run_program(p, "pipeline", workers=2)
            pairs.append((list(ref[0].payload) + list(ref[1].as_dict().values()),
                          list(got[0].payload) + list(got[1].as_dict().values())))
        elems = sum(len(a) for a, _ in pairs) * EQ_REPEATS

        def compare():
            return all(x == y for _ in range(EQ_REPEATS) for a, b in pairs
                       for x, y in zip(a, b))

        dt, equal = self.timed("values.eq", compare, CHEAP_REPS)
        self.gate(equal, "pipeline@2 differs from seq on the corpus")
        self.put("values.eq_us_per_elem", dt * 1e6 / elems, "us/elem")

    def _run_fixed(self, programs, mix) -> None:
        """Per-run fixed cost: run_program on a 1-element input. Then the
        threads one run starts on the full inputs, counted by wrapping
        Thread.start; seq, interleaved and auto@1 start none by design."""
        for mode, workers in FIXED_COMBOS:
            times = []
            for i, (p, kind) in enumerate(zip(programs, mix)):
                if not p.input.payload or (mode == "interleaved" and kind == "repeated"):
                    continue
                one = P.Program(
                    p.graph, p.word, V.v_list(p.input_type, p.input.payload[:1]), p.input_type)
                dt, got = self.timed(f"parallel.run_fixed.{mode}.w{workers}[{i}]",
                                     lambda: H.run_program(one, mode, workers=workers))
                times.append(dt * 1000.0)
                ref = H.run_program(one, "seq")
                self.gate(got[0] == ref[0] and got[1] == ref[1],
                          f"run_fixed {mode}@{workers} differs on program {i}")
            self.put(f"parallel.run_fixed_ms.{mode}.w{workers}", statistics.median(times), "ms")

        started = [0]
        real_start = threading.Thread.start

        def counting_start(thread, *args, **kwargs):
            started[0] += 1
            return real_start(thread, *args, **kwargs)

        threading.Thread.start = counting_start
        try:
            for mode, workers in THREAD_COMBOS:
                before = started[0]
                for p in programs:
                    H.run_program(p, mode, workers=workers)
                self.put(f"parallel.threads_started.{mode}.w{workers}",
                         (started[0] - before) / len(programs), "count")
        finally:
            threading.Thread.start = real_start


def overhead_op(workload: str, files: dict, stc):
    """The workload's own in-process op, used to price the tracing."""
    files = files[workload]
    if workload == "small-check":
        paths = files["checks"][:OVERHEAD_CHECKS]
        return lambda: [stc.inprocess(["check", p])[0] for p in paths]
    mode = "seq" if workload == "cpu-chain" else "pipeline"
    argv = ["run", files["runs"][0], "--mode", mode, "--workers", "2"]
    return lambda: [stc.inprocess(argv)[0]]


def span_cost_us(calls: int = 20000) -> float:
    """What one span adds to a call: a wrapped no-op minus a plain one."""
    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) * 1e6 / calls


def traced_run(workload: str, seed: int, stc):
    """Returns (attempted, failed, metrics, detail)."""
    files = {w: gen.write_workload(w, seed, os.path.join("perfbench", "_work", w))
             for w in ("cpu-chain", "sleep-branch", "small-check")}
    tracer = Tracer()
    op = overhead_op(workload, files, stc)
    codes = op()  # warm-up: first-call costs are not tracing overhead
    plain, traced = [], []
    op_spans = []

    def timed_op(with_tracing: bool) -> float:
        nonlocal codes, op_spans
        patched = tracer.instrument() if with_tracing else []
        tracer.trace_id = f"op:{workload}"
        first = len(tracer.spans)
        gc.collect()
        try:
            t0 = time.perf_counter()
            codes += op()
            return time.perf_counter() - t0
        finally:
            tracer.restore(patched)
            if with_tracing:
                op_spans = tracer.spans[first:]

    # Pairs in alternating order, so host drift hits both sides alike.
    for i in range(OVERHEAD_REPS):
        for with_tracing in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if with_tracing else plain).append(timed_op(with_tracing))

    host_ref = [run.host_ref_ms() for _ in range(HOST_SAMPLES)]
    suite = Suite(tracer, stc, files)
    for rc in codes:
        suite.gate(rc == 0, f"{workload} op exited {rc}")
    patched = tracer.instrument()
    try:
        suite.cpu_chain()
        suite.sleep_branch()
        suite.small_check()
    finally:
        tracer.restore(patched)
    overhead_ms = statistics.median(t - p for t, p in zip(traced, plain)) * 1000.0
    cost = span_cost_us()
    suite.put("trace.overhead_ms", overhead_ms, "ms")

    trace_path = os.path.join("perfbench", "_work", f"trace-{workload}-{seed}.json")
    probe_self = self_times_ms([s for s in tracer.spans if s["trace"] != f"op:{workload}"])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "op_self_ms": self_times_ms(op_spans),
                   "probe_self_ms": probe_self}, fh)
    detail = {
        "trace_file": trace_path,
        # Per-layer times are raw wall times; this is the host's speed then.
        "host_ref_ms": statistics.median(host_ref + [run.host_ref_ms()
                                                     for _ in range(HOST_SAMPLES)]),
        "spans": len(tracer.spans),
        "op_untraced_ms": [t * 1000.0 for t in plain],
        "op_traced_ms": [t * 1000.0 for t in traced],
        "op_spans": len(op_spans),
        # The measured difference is within the host's noise for ops this
        # size; spans x per-span cost estimates what the wrappers add.
        "span_cost_us": cost,
        "op_overhead_estimate_ms": len(op_spans) * cost / 1000.0,
        "op_self_ms": self_times_ms(op_spans),
        "mix": {k: files["small-check"]["mix"].count(k) / len(files["small-check"]["mix"])
                for k in ("chain", "repeated", "branch")},
        "failed_share": suite.failed / max(1, suite.attempted),
        "misses": suite.misses[:10],
    }
    return suite.attempted, suite.failed, suite.metrics, detail
