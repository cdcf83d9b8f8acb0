"""Seed-reproducible program fuzzer and the cross-executor equivalence
harness.

Random bits come from xorshift64* with the published constants (shifts
12, 25, 27 and multiplier 2685821657736338717); bounded draws are plain
``next() % n``. Given the same seed and limits, the generated program
sequence is identical on every run and platform, so any reported failure
is replayable from its seed alone (and each failure report additionally
carries the offending program, serialized).

Per generated program the harness compares, bit-exactly on both the
output list and the final state store:

* the stage-wise sequential reference,
* the element-wise evaluator (when every letter is distinct),
* ``auto`` at 1 and 4 workers (``auto@1``, ``auto@4``; the second runs
  replicas of the stateless stages that lists of 16 or more elements allow),
* the pipeline executor at 1, 2, 4 and 8 workers (``WORKERS_COUNTS``),
  with the last run twice to expose scheduling nondeterminism,

plus word-split functor checks and split/join round trips.
``check_program`` makes every one of those runs in one pass, with
``check`` on or off for all of them alike: ``stc check <file>`` runs them
checked and prints its table from the result, the fuzzer runs them
unchecked. One ``composition.planner`` validates and segments the shape
once and plans the reference and every row, one plan per row; each
functor-split half is planned as ``seq`` over the same graph. The runs
return raw results (as ``run_raw`` does); ``first_divergence`` compares
each with the reference by ``values.equaler`` over the output and every
state slot, and only the two values a row reports are boxed. The public
fast paths (``run_data_parallel_*``) are ``auto`` on a one-letter word, so
the ``auto`` rows run what they run. The runs of one check share a
``parallel.Crew``, so the threaded runs reuse the stage threads that the
runs before them started, and all of them are joined before the check
returns.

Executors start threads only for blocking stages, so a check plans on
``_all_blocking(program.graph)``, a copy of the program's graph whose
threads are all marked blocking: with more than one worker it is cut
into threaded groups and replicas as the workers allow, where ``stc run``
keeps a CPU-only program on one thread. The hint changes no result. The
one-worker rows (``auto@1``, ``pipeline@1``) run ``seq``'s plan, as every
plan that can start no thread does, so only the rows with more than one
worker reach the threaded executor and its planted faults.

Classification hints are spot-checked by sampling only where there is a
claim to test: READ_ONLY and PRODUCT threads get 200 random (element,
state) pairs each, GENERAL threads claim nothing and are not sampled.
Sampling runs on raw values: the pairs are drawn raw, a builtin's
transfer runs as its side-effect-free kernel (a delay does not sleep), a
replaced one as ``model.raw_transfer`` runs it, the value and state parts
as the executors run them, and results are compared with
``values.equaler``. A thread made of its builtin's own functions is
sampled once per distinct claim within one ``verify_hints`` call or one
fuzz run. The fuzz suite samples each program's hints before it checks
the program, from an rng of its own (seeded ``seed ^ _HINTS_SEED``), so
both check rngs draw as before; a violated hint fails the trial.

Each fuzz trial also checks a *carrier program* from a second stream
(``carrier_stream``): a random port type over the whole value grammar
routed through zero-delay delay threads, fed with edge values (NaN,
±0.0, ±inf, subnormals, 64-bit extremes, lone surrogates). The int/str
stream draws exactly as before, so old failure seeds still replay.

Both kinds of value come from ``sampler``, compiled once per port type
and leaf table: a list, pair or sum sampler closes over its arguments'
samplers, and a scalar is one call that runs the xorshift64* step inline
(``_picker``), drawing as ``pick`` does from ``_RANDOM_LEAVES`` (hint
samples) or ``_EDGE_LEAVES`` (carrier inputs: NaN, ±0.0, ±inf,
subnormals, the 64-bit int extremes, non-ASCII and lone-surrogate
strings). A sample is raw; ``boxer(pt)`` boxes one, so both
representations draw in one order. Generated programs hold their inputs
raw (``Program.from_raw``).
"""

from __future__ import annotations

import math
import string
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .builtins import make_thread
from .composition import BranchProgram, Plan, Word, _join, _split, planner, smap_check
from .errors import StcError, ValidationError
from .model import (
    Multigraph,
    StageKind,
    ThreadSpec,
    build_graph,
    builtin_claim,
    initial_slots,
    kernel_of,
    raw_state_part,
    raw_transfer,
    raw_value_part,
    replace,
)
from .parallel import Crew
# ``run_program`` stays importable from here: the traced benchmark
# (``perfbench/layers.py``) wraps it by name
from .program import (  # noqa: F401
    Program,
    RawResult,
    program_digest,
    program_to_text,
    run_program,
)
from .values import (
    BOOL_T,
    FLOAT_T,
    INT64_MAX,
    INT64_MIN,
    INT_T,
    STR_T,
    UNIT_T,
    Inl,
    Inr,
    PortType,
    TypeKind,
    Value,
    box_list,
    box_state,
    boxer,
    equaler,
    list_of,
    pair_of,
    sum_of,
    v_int,
    v_str,
)

XORSHIFT_MULTIPLIER = 2685821657736338717
_MASK = (1 << 64) - 1
_SEED_FILL = 0x9E3779B97F4A7C15
# the pipeline worker counts every program is checked at
WORKERS_COUNTS = (1, 2, 4, 8)


class Xorshift64Star:
    """xorshift64*: shift triple (12, 25, 27), 64-bit multiply."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or _SEED_FILL

    def next(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self.state = x
        return (x * XORSHIFT_MULTIPLIER) & _MASK

    def below(self, n: int) -> int:
        return self.next() % n

    def pick(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffle(self, items: List) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    trials: int
    max_edges: int = 8
    max_word_len: int = 5
    max_list_len: int = 16

    def __post_init__(self):
        if min(self.trials, self.max_edges, self.max_word_len, self.max_list_len) < 1:
            raise ValidationError("fuzz limits must be positive")


def _picker(table: Sequence) -> Callable[[Xorshift64Star], Any]:
    """``rng.pick(table)`` in one call: the xorshift64* step inlined."""
    n = len(table)

    def pick(rng: Xorshift64Star) -> Any:
        x = rng.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        rng.state = x
        return table[((x * XORSHIFT_MULTIPLIER) & _MASK) % n]

    return pick


_coin, _letter = _picker((True, False)), _picker(string.ascii_lowercase)
_str_length = _picker(range(6))
# random ints lie in [-1000, 1000]; random floats are eighths of such ints
_RANDOM_LEAVES: Dict[TypeKind, Callable[[Xorshift64Star], Any]] = {
    TypeKind.UNIT: lambda rng: None,
    TypeKind.BOOL: _coin,
    TypeKind.INT: _picker(range(-1000, 1001)),
    TypeKind.FLOAT: _picker(tuple(k / 8.0 for k in range(-1000, 1001))),
    TypeKind.STR: lambda rng: "".join([_letter(rng) for _ in range(_str_length(rng))]),
}


@lru_cache(maxsize=1024)
def sampler(pt: PortType, edge: bool = False) -> Callable[[Xorshift64Star], Any]:
    """The draw of a random raw inhabitant of ``pt``, compiled once per type:
    lists of 0-3 elements, either injection of a sum with equal odds, and
    scalars from ``_EDGE_LEAVES`` with ``edge``, else ``_RANDOM_LEAVES``. A
    list draws its length first, a sum its injection before the payload."""
    k = pt.kind
    if k is TypeKind.LIST:
        elem, length = sampler(pt.args[0], edge), _picker(range(4))
        return lambda rng: tuple([elem(rng) for _ in range(length(rng))])
    if k is TypeKind.PAIR:
        first, second = sampler(pt.args[0], edge), sampler(pt.args[1], edge)
        return lambda rng: (first(rng), second(rng))
    if k is TypeKind.SUM:
        left, right = sampler(pt.args[0], edge), sampler(pt.args[1], edge)
        return lambda rng: Inl(left(rng)) if _coin(rng) else Inr(right(rng))
    return (_EDGE_LEAVES if edge else _RANDOM_LEAVES)[k]


def verify_classification(
    spec: ThreadSpec,
    rng: Xorshift64Star,
    trials: int = 200,
    seen: Optional[Dict[tuple, bool]] = None,
) -> bool:
    """Spot-check a declared READ_ONLY/PRODUCT hint on random pairs.

    This cannot prove the hint (sampling never can); it exists to catch a
    mislabeled builtin early. GENERAL threads claim nothing, so they pass
    without drawing a sample or calling ``transfer``.

    Samples are raw values, compared with ``equaler``. The transfer runs
    as its builtin kernel's side-effect-free ``sample`` (a delay does not
    sleep), or, when replaced, as ``raw_transfer`` runs it; the parts run
    as the executors run them. With ``seen``, the verdict of a thread
    whose functions are all its builtin's own is shared by every thread
    that makes the same claim: same builtin, canonical params and hint.
    Any other thread is sampled every time.
    """
    kind = spec.kind
    if kind is StageKind.GENERAL:
        return True
    claim = builtin_claim(spec)
    key = (claim, kind)
    if claim is not None and seen is not None and key in seen:
        return seen[key]
    kernel = kernel_of(spec.transfer)
    step = kernel.sample if kernel is not None else raw_transfer(spec)
    st = spec.state_type
    draw_x, draw_sigma = sampler(spec.src), sampler(st)
    # a builtin's kernels keep states raw; a replaced function may not
    same_state = equaler(st) if claim is not None else partial(_same_state, equaler(st), st)
    ok = True
    if kind is StageKind.READ_ONLY:
        for _ in range(trials):
            x, sigma = draw_x(rng), draw_sigma(rng)
            if not same_state(step(x, sigma)[1], sigma):
                ok = False
                break
    else:
        value_part, state_part = raw_value_part(spec), raw_state_part(spec)
        same_output = equaler(spec.tgt)
        for _ in range(trials):
            x, sigma = draw_x(rng), draw_sigma(rng)
            y, sigma2 = step(x, sigma)
            if not (same_output(y, value_part(x)) and same_state(sigma2, state_part(sigma))):
                ok = False
                break
    if claim is not None and seen is not None:
        seen[key] = ok
    return ok


def _same_state(eq: Callable[[Any, Any], bool], st: PortType, a: Any, b: Any) -> bool:
    """``eq`` on two raw states of type ``st``. A state that does not
    inhabit ``st`` stays a ``Value`` (see ``unbox_state``), so such a pair
    is compared boxed."""
    if isinstance(a, Value) or isinstance(b, Value):
        return box_state(a, st) == box_state(b, st)
    return eq(a, b)


def verify_hints(specs: Iterable[ThreadSpec], rng: Xorshift64Star) -> bool:
    """``verify_classification`` of every thread, each distinct builtin
    claim sampled once within this call."""
    seen: Dict[tuple, bool] = {}
    return all(verify_classification(spec, rng, seen=seen) for spec in specs)


_INT_FNS = ("counter_add", "scale_by_state", "add1_tick")


def _int_thread(tid: int, rng: Xorshift64Star) -> ThreadSpec:
    return make_thread(tid, rng.pick(_INT_FNS), v_int(rng.below(17) - 8))  # in [-8, 8]


def _input_list(
    pt: PortType, rng: Xorshift64Star, cfg: FuzzConfig, edge: bool = False
) -> List[Any]:
    """Raw input elements of type ``pt``, drawn by ``sampler(pt, edge)``."""
    draw = sampler(pt, edge)
    return [draw(rng) for _ in range(rng.below(cfg.max_list_len + 1))]


def gen_random_program(cfg: FuzzConfig, rng: Optional[Xorshift64Star] = None) -> Program:
    """One random, fully valid program.

    Roughly one in five draws is a branch program and one in five a word
    with repeated letters; the rest are duplicate-free thread chains,
    occasionally string-typed. A quarter of graphs carry one extra thread
    the word never touches, which keeps the state-frame property honest.
    """
    rng = rng or Xorshift64Star(cfg.seed)
    roll = rng.below(10)
    if roll < 2 and cfg.max_edges >= 2:
        return _gen_branch(cfg, rng)
    if roll < 4 and cfg.max_word_len >= 2:
        return _gen_repeated(cfg, rng)
    return _gen_chain(cfg, rng)


def _fresh_ids(count: int, rng: Xorshift64Star) -> List[int]:
    ids = []
    nxt = 1 + rng.below(3)
    for _ in range(count):
        ids.append(nxt)
        nxt += 1 + rng.below(2)
    return ids


def _str_thread(tid: int, rng: Xorshift64Star) -> ThreadSpec:
    return make_thread(tid, "append_tag", v_str(rng.pick(string.ascii_lowercase)))


def _append_z_thread(tid: int, rng: Xorshift64Star) -> ThreadSpec:
    return make_thread(tid, "append_tag", v_str("z"))


def _maybe_extra_thread(
    specs: List[ThreadSpec], rng: Xorshift64Star, cfg: FuzzConfig,
    make: Callable[[int, Xorshift64Star], ThreadSpec] = _int_thread,
) -> None:
    if rng.below(4) == 0 and len(specs) < cfg.max_edges:
        extra_id = max(s.id for s in specs) + 1 + rng.below(3)
        specs.append(make(extra_id, rng))


def _gen_chain(cfg: FuzzConfig, rng: Xorshift64Star) -> Program:
    k = 1 + rng.below(min(cfg.max_word_len, cfg.max_edges))
    if rng.below(8) == 0:
        carrier, make, extra = STR_T, _str_thread, _append_z_thread
    else:
        carrier, make, extra = INT_T, _int_thread, _int_thread
    ids = _fresh_ids(k, rng)
    specs = [make(i, rng) for i in ids]
    word_ids = list(ids)
    rng.shuffle(word_ids)
    _maybe_extra_thread(specs, rng, cfg, extra)
    graph = build_graph(*specs)
    return Program.from_raw(graph, Word(tuple(word_ids)), _input_list(carrier, rng, cfg), carrier)


def _gen_repeated(cfg: FuzzConfig, rng: Xorshift64Star) -> Program:
    k = 1 + rng.below(min(cfg.max_word_len, cfg.max_edges))
    ids = _fresh_ids(k, rng)
    specs = [_int_thread(i, rng) for i in ids]
    length = 2 + rng.below(max(1, cfg.max_word_len - 1))
    letters = [rng.pick(ids) for _ in range(length)]
    if len(set(letters)) == len(letters):
        letters[-1] = letters[0]
    _maybe_extra_thread(specs, rng, cfg)
    graph = build_graph(*specs)
    return Program.from_raw(graph, Word(tuple(letters)), _input_list(INT_T, rng, cfg), INT_T)


def _gen_branch(cfg: FuzzConfig, rng: Xorshift64Star) -> Program:
    budget = max(0, cfg.max_edges - 2)  # brancher and merger are mandatory
    counts = []
    for hi in (3, 3, 3, 2):
        c = rng.below(min(hi, budget + 1))
        counts.append(c)
        budget -= c
    total = sum(counts) + 2
    ids = _fresh_ids(total, rng)
    it = iter(ids)
    pre = [next(it) for _ in range(counts[0])]
    brancher = next(it)
    lefts = [next(it) for _ in range(counts[1])]
    rights = [next(it) for _ in range(counts[2])]
    merger = next(it)
    post = [next(it) for _ in range(counts[3])]

    specs = [_int_thread(i, rng) for i in pre + lefts + rights + post]
    specs.append(make_thread(brancher, "branch_even"))
    specs.append(make_thread(merger, "merge_sum"))
    graph = build_graph(*specs)

    prog = BranchProgram(
        producer=Word(tuple(pre + [brancher])),
        left=Word(tuple(lefts)) if lefts else Word((), INT_T),
        right=Word(tuple(rights)) if rights else Word((), INT_T),
        consumer=Word(tuple([merger] + post)),
    )
    return Program.from_raw(graph, prog, _input_list(INT_T, rng, cfg), INT_T)


def program_stream(cfg: FuzzConfig) -> Iterator[Program]:
    """The deterministic program sequence for a seed: one shared rng."""
    rng = Xorshift64Star(cfg.seed)
    while True:
        yield gen_random_program(cfg, rng)


# -- carrier programs: the whole value grammar ------------------------------

# seeds the carrier stream and its check rng apart from the int/str stream
_CARRIER_SEED = 0x2545F4914F6CDD1D
# seeds the fuzz suite's hint samples apart from both check rngs
_HINTS_SEED = 0xD1B54A32D192ED03
_ATOM_TYPES = (UNIT_T, BOOL_T, INT_T, FLOAT_T, STR_T)

_EDGE_INTS = (INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX)
_EDGE_FLOATS = (
    math.nan, 0.0, -0.0, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072e-308,  # subnormals
    1.5, -1e300,
)
_EDGE_STRS = ("", "a", "é", "日本", "😀", "\x00", "\ud800", "x\udfffy", '"\\')


def random_port_type(rng: Xorshift64Star, depth: int = 3) -> PortType:
    """A port type over all eight constructors, at most ``depth`` deep."""
    roll = rng.below(8 if depth > 1 else 5)
    if roll < 5:
        return _ATOM_TYPES[roll]
    if roll == 5:
        return list_of(random_port_type(rng, depth - 1))
    build = pair_of if roll == 6 else sum_of
    return build(random_port_type(rng, depth - 1), random_port_type(rng, depth - 1))


_EDGE_LEAVES = {
    **_RANDOM_LEAVES,
    TypeKind.INT: _picker(_EDGE_INTS),
    TypeKind.FLOAT: _picker(_EDGE_FLOATS),
    TypeKind.STR: _picker(_EDGE_STRS),
}


def _delay_thread(tid: int, carrier: PortType) -> ThreadSpec:
    return make_thread(tid, "delay_identity_ms", params={"type": carrier.name, "delay_ms": 0})


def _merge_thread(tid: int, carrier: PortType) -> ThreadSpec:
    return make_thread(tid, "merge_sum", params={"type": carrier.name})


def _carrier_chain(specs: List[ThreadSpec], ids: Iterator[int], pt: PortType, n: int) -> List[int]:
    """``n`` fresh delay threads over ``pt`` appended to ``specs``; their ids."""
    letters = [next(ids) for _ in range(n)]
    specs.extend(_delay_thread(i, pt) for i in letters)
    return letters


def gen_carrier_program(cfg: FuzzConfig, rng: Xorshift64Star) -> Program:
    """One random program that routes a random port type through
    zero-delay ``delay_identity_ms`` threads, on edge-value inputs.

    A word is a chain of delays over its type ``t``; when ``t`` is
    ``sum(d,d)`` it may continue through ``merge_sum`` into delays over
    ``d``, and a quarter of words repeat their last letter. One program in
    three is a branch program: the producer ends in a delay typed
    ``sum(a,b)``, the sides are delay chains over ``a`` and ``b``, and the
    consumer starts with ``merge_sum`` when ``a == b`` and with a delay
    over the sum otherwise.
    """
    specs: List[ThreadSpec] = []
    ids = iter(_fresh_ids(cfg.max_edges, rng))
    if rng.below(3) == 0 and cfg.max_edges >= 2:
        a, b = random_port_type(rng, 2), random_port_type(rng, 2)
        produced = sum_of(a, b)
        budget = cfg.max_edges - 2  # the producer's delay and the consumer head
        sizes = []
        for _ in range(3):
            sizes.append(rng.below(min(3, budget + 1)))
            budget -= sizes[-1]
        producer = _carrier_chain(specs, ids, produced, 1)
        left = _carrier_chain(specs, ids, a, sizes[0])
        right = _carrier_chain(specs, ids, b, sizes[1])
        head = next(ids)
        if a == b:
            specs.append(_merge_thread(head, a))
            tail = _carrier_chain(specs, ids, a, sizes[2])
        else:
            specs.append(_delay_thread(head, produced))
            tail = _carrier_chain(specs, ids, produced, sizes[2])
        prog = BranchProgram(
            Word(tuple(producer)),
            Word(tuple(left), None if left else a),
            Word(tuple(right), None if right else b),
            Word(tuple([head] + tail)),
        )
        xs = _input_list(produced, rng, cfg, edge=True)
        return Program.from_raw(build_graph(*specs), prog, xs, produced)
    t = random_port_type(rng)
    limit = min(cfg.max_word_len, cfg.max_edges)
    letters = _carrier_chain(specs, ids, t, 1 + rng.below(limit))
    if t.kind is TypeKind.SUM and t.args[0] == t.args[1] and len(letters) < limit:
        letters.append(next(ids))
        specs.append(_merge_thread(letters[-1], t.args[0]))
        letters += _carrier_chain(specs, ids, t.args[0], rng.below(limit - len(letters) + 1))
    if rng.below(4) == 0 and len(letters) < limit and specs[-1].fn_name == "delay_identity_ms":
        letters.append(letters[-1])  # a delay maps its carrier to itself
    xs = _input_list(t, rng, cfg, edge=True)
    return Program.from_raw(build_graph(*specs), Word(tuple(letters)), xs, t)


def carrier_stream(cfg: FuzzConfig) -> Iterator[Program]:
    """The deterministic carrier-program sequence for a seed, drawn from
    its own rng (seeded ``seed ^ _CARRIER_SEED``), so ``program_stream``
    is unchanged."""
    rng = Xorshift64Star(cfg.seed ^ _CARRIER_SEED)
    while True:
        yield gen_carrier_program(cfg, rng)


@dataclass
class Divergence:
    mode: str
    kind: str  # "output" | "state" | "length" | "error" | "hint"
    where: str
    expected: str
    actual: str


@dataclass
class TrialReport:
    index: int
    digest: str
    modes: List[str]
    equal: bool
    divergence: Optional[Divergence] = None
    program_text: Optional[str] = None

    def as_dict(self) -> Dict:
        out: Dict = {
            "trial": self.index,
            "digest": self.digest,
            "modes": self.modes,
            "equal": self.equal,
        }
        if self.divergence is not None:
            out["divergence"] = asdict(self.divergence)
        if self.program_text is not None:
            out["program"] = self.program_text
        return out


@dataclass
class EquivReport:
    trials: int = 0
    passed: int = 0
    failures: List[TrialReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict:
        return {
            "trials": self.trials,
            "passed": self.passed,
            "failed": len(self.failures),
            "failures": [t.as_dict() for t in self.failures],
        }


def first_divergence(
    graph: Multigraph, mode: str, ref: RawResult, got: RawResult
) -> Optional[Divergence]:
    """Locate the first output index or state slot where two raw results
    over ``graph`` part, or ``None`` when they are equal. Values compare
    with ``equaler``; only the two a divergence reports are boxed."""
    (tgt, ref_out, ref_slots), (_, got_out, got_slots) = ref, got
    if len(got_out) != len(ref_out):
        return Divergence(mode, "length", "output", str(len(ref_out)), str(len(got_out)))
    same = equaler(tgt)
    if not all(map(same, ref_out, got_out)):
        i = next(i for i, ok in enumerate(map(same, ref_out, got_out)) if not ok)
        a, b = boxer(tgt)(ref_out[i]), boxer(tgt)(got_out[i])
        return Divergence(mode, "output", f"index {i}", repr(a), repr(b))
    for n in sorted(ref_slots):
        st, a, b = graph.edges[n].state_type, ref_slots[n], got_slots[n]
        if not _same_state(equaler(st), st, a, b):
            a, b = box_state(a, st), box_state(b, st)
            return Divergence(mode, "state", f"slot {n}", repr(a), repr(b))
    return None


def check_program(
    program: Program,
    rng: Xorshift64Star,
    index: int = 0,
    check: bool = False,
) -> TrialReport:
    """Run every applicable comparison for one program.

    ``check`` is passed to every run, the reference included. Results
    are compared raw by ``first_divergence``, which boxes only what it
    reports. The runs share one ``Crew``, so a run with threads reuses
    the stage threads of the runs before it. ``modes`` lists each run in
    order; on a divergence it ends with the run that diverged."""
    digest = program_digest(program)
    modes: List[str] = ["seq"]
    graph = _all_blocking(program.graph)
    plan, slots = planner(graph, program.word, check=check), initial_slots(graph)

    def run(row: Plan) -> RawResult:  # every run starts from a copy of the initial slots
        return (row.tgt, *row.core(program.raw_input(row.src), dict(slots)))

    seq = plan("seq", 1)
    ref = run(seq)

    def fail(div: Divergence) -> TrialReport:
        return TrialReport(index, digest, modes, False, div, program_to_text(program))

    candidates: List[Tuple[str, int]] = []
    if not smap_check(program.word):  # a valid branch repeats no letter
        candidates.append(("interleaved", 1))
    candidates += [("auto", 1), ("auto", 4)]
    candidates += [("pipeline", w) for w in WORKERS_COUNTS]
    candidates.append(("pipeline", WORKERS_COUNTS[-1]))  # determinism re-run

    with Crew():
        for mode, w in candidates:
            label = mode if mode == "interleaved" else f"{mode}@{w}"
            modes.append(label)
            try:
                if label != modes[-2]:  # the determinism re-run reuses its row's plan
                    row = plan(mode, w)
                got = run(row)
            except StcError as exc:
                return fail(Divergence(label, "error", "-", "result", repr(exc)))
            div = first_divergence(graph, label, ref, got)
            if div is not None:
                return fail(div)

    modes.append("functor")
    letters = program.word.letters
    if not program.is_branch and letters:
        # the word cut anywhere, its halves planned as ``seq`` and run back
        # to back, must reproduce the reference
        cut = rng.below(len(letters) + 1)
        halves = (Word(letters[:cut], seq.src if cut == 0 else None),
                  Word(letters[cut:], seq.tgt if cut == len(letters) else None))
        first, second = (planner(graph, half, check=check)("seq", 1) for half in halves)
        _, mid, after = run(first)
        got = (second.tgt, *second.core(mid, after))
        div = first_divergence(graph, f"functor-split@{cut}", ref, got)
        if div is not None:
            return fail(div)

    modes.append("split-join")
    div = _check_split_join(rng)
    if div is not None:
        return fail(div)

    return TrialReport(index, digest, modes, True)


def _all_blocking(graph: Multigraph) -> Multigraph:
    """``graph`` with every thread marked blocking. Executors start
    threads only for blocking stages, so a check plans every run on this
    copy: with more than one worker it is cut into as many groups and
    replicas as the workers allow, and keeps channels, drains and
    per-group state under test whatever the program's delays."""
    return Multigraph(
        {n: replace(spec, blocking=True) for n, spec in graph.edges.items()}, graph.vertices
    )


_SUM_LIST = list_of(sum_of(INT_T, INT_T))


def _check_split_join(rng: Xorshift64Star) -> Optional[Divergence]:
    """``_join`` must undo ``_split`` on a random list of up to 12 raw sums;
    the lists are boxed only to report a divergence."""
    items = []
    for _ in range(rng.below(13)):
        inner = rng.below(201) - 100
        items.append(Inl(inner) if rng.below(2) == 0 else Inr(inner))
    back = _join(*_split(items))
    if not equaler(_SUM_LIST)(items, back):
        lists = (repr(box_list(_SUM_LIST.args[0], xs)) for xs in (items, back))
        return Divergence("split-join", "output", "round trip", *lists)
    return None


def _fuzz_trial(
    program: Program, rng: Xorshift64Star, hint_rng: Xorshift64Star,
    seen: Dict[tuple, bool], index: int,
) -> TrialReport:
    """``check_program`` of ``program`` once its hints hold, sampled from
    ``hint_rng`` with the fuzz run's ``seen`` verdicts; a violated hint
    fails the trial with a ``hints`` divergence naming its thread."""
    specs = program.graph.edges.values()
    try:
        bad = next((s for s in specs if not verify_classification(s, hint_rng, seen=seen)), None)
        if bad is None:
            return check_program(program, rng, index=index)
        modes = ["hints"]
        div = Divergence("hints", "hint", f"thread {bad.id}", bad.kind.name, "violated")
    except StcError as exc:
        modes, div = ["seq"], Divergence("harness", "error", "-", "result", repr(exc))
    return TrialReport(index, program_digest(program), modes, False, div, program_to_text(program))


def run_fuzz(cfg: FuzzConfig) -> EquivReport:
    """The full fuzz suite: generate programs and check every invariant.

    Trial i checks the i-th program of ``program_stream`` and then the
    i-th of ``carrier_stream``; it passes when both do. Each stream has
    its own check rng; each program's hints are sampled, from a third rng,
    before it is checked (``_fuzz_trial``), each distinct claim once per
    run. The suite stops at the first failing trial."""
    report = EquivReport()
    stream, carriers = program_stream(cfg), carrier_stream(cfg)
    rng = Xorshift64Star(cfg.seed ^ _SEED_FILL)
    carrier_rng = Xorshift64Star(cfg.seed ^ _CARRIER_SEED ^ _SEED_FILL)
    hint_rng, seen = Xorshift64Star(cfg.seed ^ _HINTS_SEED), {}
    for i in range(cfg.trials):
        program, carrier = next(stream), next(carriers)
        report.trials += 1
        trial = _fuzz_trial(program, rng, hint_rng, seen, i)
        if trial.equal:
            trial = _fuzz_trial(carrier, carrier_rng, hint_rng, seen, i)
        if not trial.equal:
            report.failures.append(trial)
            break
        report.passed += 1
    return report
