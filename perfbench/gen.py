"""Seeded input generator for the stc benchmark.

Every workload input is a program file in stc's JSON format, written from
the benchmark's own PRNG (splitmix64), so the same seed writes byte-identical
files and no workload depends on stc's fuzzer (``Xorshift64Star`` or
``gen_random_program``). Widening that fuzzer therefore cannot change a
workload.

What drives the amount of work is fixed, and only shapes and values vary with
the seed: the list lengths and stage-kind pattern of cpu-chain, the shape and
even/odd split of sleep-branch, and the corpus size and mix of small-check
(whose per-program list lengths are drawn from 0-16).
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Tuple

_MASK = (1 << 64) - 1

CHAIN_LEN = 20_000
# Stage kinds of cpu-chain in word order: 3 general, 3 read-only and 2
# product stages, interleaved so that no two neighbours share a kind.
CHAIN_KINDS = ("G", "R", "P", "G", "R", "G", "R", "P")
CHAIN_CHECK_LENS = (1, 3, 5, 7, 9, 11, 13, 16)
BRANCH_LEN = 200
BRANCH_CHECK_LEN = 4
DELAY_MS = 2
# small-check mix: 60% duplicate-free chains, 20% repeated-letter words,
# 20% branch programs.
CORPUS_MIX = (("chain", 180), ("repeated", 60), ("branch", 60))

_KIND_FNS = {"G": "counter_add", "R": "scale_by_state", "P": "add1_tick"}
_INT_FNS = ("counter_add", "scale_by_state", "add1_tick")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Carrier types routed through zero-delay delay_identity_ms stages.
_CARRIERS = ("float", "pair(int,float)", "sum(int,str)", "list(float)", "bool")
_FLOAT_SPECIALS = (math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324)


class SplitMix64:
    """splitmix64 (Steele, Lea and Flood 2014); bounded draws are
    ``next() % n``."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform int in the closed range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def pick(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: List) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _ints(rng: SplitMix64, n: int, magnitude: int = 1_000_000) -> List[int]:
    return [rng.between(-magnitude, magnitude) for _ in range(n)]


def _int_thread(tid: int, fn: str, rng: SplitMix64) -> Dict:
    if fn == "scale_by_state":
        init = rng.pick((2, 3, 5, 7, -2, -3))
    else:
        init = rng.between(-8, 8)
    return {"id": tid, "fn": fn, "init_state": init}


def _delay(tid: int, carrier: str = "int", delay_ms: int = DELAY_MS) -> Dict:
    return {"id": tid, "fn": "delay_identity_ms",
            "params": {"delay_ms": delay_ms, "type": carrier}}


def _doc(threads, word, inputs, input_type: str) -> Dict:
    return {"threads": threads, "word": word, "input": inputs, "input_type": input_type}


def _branch_word(producer, left, right, consumer) -> Dict:
    return {"branch": {"producer": producer, "left": left, "right": right,
                       "consumer": consumer}}


def cpu_chain(seed: int) -> Tuple[Dict, List[Dict]]:
    """The 8-letter CPU-bound word over 20,000 ints, and the same word over
    short inputs for ``stc check``."""
    rng = SplitMix64(seed)
    ids = list(range(1, len(CHAIN_KINDS) + 1))
    rng.shuffle(ids)
    threads = [_int_thread(tid, _KIND_FNS[k], rng) for tid, k in zip(ids, CHAIN_KINDS)]
    threads.sort(key=lambda t: t["id"])
    main = _doc(threads, ids, _ints(rng, CHAIN_LEN), "int")
    checks = [_doc(threads, ids, _ints(rng, n), "int") for n in CHAIN_CHECK_LENS]
    return main, checks


def _half_even(rng: SplitMix64, n: int) -> List[int]:
    xs = [2 * rng.between(-500_000, 500_000) + (i % 2) for i in range(n)]
    rng.shuffle(xs)
    return xs


def sleep_branch(seed: int) -> Tuple[Dict, List[Dict]]:
    """Producer [delay, branch_even], left [delay, delay], right
    [delay, delay], consumer [merge_sum, delay] over 200 ints, half even,
    and the same program over 4 ints for ``stc check``."""
    rng = SplitMix64(seed)
    threads = [
        _delay(1), {"id": 2, "fn": "branch_even"},
        _delay(3), _delay(4), _delay(5), _delay(6),
        {"id": 7, "fn": "merge_sum", "params": {"type": "int"}}, _delay(8),
    ]
    word = _branch_word([1, 2], [3, 4], [5, 6], [7, 8])
    main = _doc(threads, word, _half_even(rng, BRANCH_LEN), "int")
    check = _doc(threads, word, _half_even(rng, BRANCH_CHECK_LEN), "int")
    return main, [check]


def _float(rng: SplitMix64) -> float:
    if rng.below(4) == 0:
        return rng.pick(_FLOAT_SPECIALS)
    return rng.between(-4000, 4000) / 8.0


def _value(carrier: str, rng: SplitMix64):
    if carrier == "float":
        return _float(rng)
    if carrier == "bool":
        return rng.below(2) == 0
    if carrier == "pair(int,float)":
        return [rng.between(-1000, 1000), _float(rng)]
    if carrier == "sum(int,str)":
        if rng.below(2) == 0:
            return {"inl": rng.between(-1000, 1000)}
        return {"inr": "".join(rng.pick(_LETTERS) for _ in range(rng.below(5)))}
    return [_float(rng) for _ in range(rng.below(4))]  # list(float)


def _fresh_ids(rng: SplitMix64, count: int) -> List[int]:
    ids, nxt = [], 1 + rng.below(3)
    for _ in range(count):
        ids.append(nxt)
        nxt += 1 + rng.below(2)
    return ids


def _maybe_extra(threads: List[Dict], rng: SplitMix64, make) -> None:
    """A quarter of graphs carry one thread the word never touches."""
    if rng.below(4) == 0:
        threads.append(make(max(t["id"] for t in threads) + 1 + rng.below(3)))


def _small_chain(rng: SplitMix64) -> Dict:
    n = rng.below(17)
    k = 1 + rng.below(5)
    ids = _fresh_ids(rng, k)
    word = list(ids)
    rng.shuffle(word)
    roll = rng.below(8)
    if roll == 0:
        threads = [{"id": i, "fn": "append_tag", "init_state": rng.pick(_LETTERS)}
                   for i in ids]
        _maybe_extra(threads, rng, lambda i: {"id": i, "fn": "append_tag", "init_state": "z"})
        inputs = ["".join(rng.pick(_LETTERS) for _ in range(rng.below(6))) for _ in range(n)]
        return _doc(threads, word, inputs, "str")
    if roll <= 2:
        carrier = rng.pick(_CARRIERS)
        threads = [_delay(i, carrier, 0) for i in ids]
        return _doc(threads, word, [_value(carrier, rng) for _ in range(n)], carrier)
    threads = [_int_thread(i, rng.pick(_INT_FNS), rng) for i in ids]
    _maybe_extra(threads, rng, lambda i: _int_thread(i, rng.pick(_INT_FNS), rng))
    return _doc(threads, word, _ints(rng, n, 1000), "int")


def _small_repeated(rng: SplitMix64) -> Dict:
    k = 1 + rng.below(4)
    ids = _fresh_ids(rng, k)
    threads = [_int_thread(i, rng.pick(_INT_FNS), rng) for i in ids]
    letters = [rng.pick(ids) for _ in range(2 + rng.below(5))]
    if len(set(letters)) == len(letters):
        letters[-1] = letters[0]
    _maybe_extra(threads, rng, lambda i: _int_thread(i, rng.pick(_INT_FNS), rng))
    return _doc(threads, letters, _ints(rng, rng.below(17), 1000), "int")


def _small_branch(rng: SplitMix64) -> Dict:
    counts = [rng.below(3), rng.below(4), rng.below(4), rng.below(3)]
    ids = iter(_fresh_ids(rng, sum(counts) + 2))
    pre = [next(ids) for _ in range(counts[0])]
    brancher = next(ids)
    left = [next(ids) for _ in range(counts[1])]
    right = [next(ids) for _ in range(counts[2])]
    merger = next(ids)
    post = [next(ids) for _ in range(counts[3])]
    threads = [_int_thread(i, rng.pick(_INT_FNS), rng) for i in pre + left + right + post]
    threads += [{"id": brancher, "fn": "branch_even"},
                {"id": merger, "fn": "merge_sum"}]
    threads.sort(key=lambda t: t["id"])
    word = _branch_word(pre + [brancher], left, right, [merger] + post)
    return _doc(threads, word, _ints(rng, rng.below(17), 1000), "int")


_SMALL = {"chain": _small_chain, "repeated": _small_repeated, "branch": _small_branch}


def small_check(seed: int) -> List[Tuple[str, Dict]]:
    """~300 small programs, each tagged with its mix class."""
    rng = SplitMix64(seed)
    kinds = [kind for kind, count in CORPUS_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [(kind, _SMALL[kind](rng)) for kind in kinds]


def to_text(doc: Dict) -> str:
    # json.dumps writes NaN and ±Infinity as the literals stc's parser reads.
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def write(path: str, doc: Dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_text(doc))
    return path


def write_workload(workload: str, seed: int, outdir: str) -> Dict[str, List[str]]:
    """Write one workload's files; returns {"runs": [...], "checks": [...],
    "mix": [...]} with file paths (and mix classes for small-check)."""
    os.makedirs(outdir, exist_ok=True)
    if workload == "small-check":
        corpus = small_check(seed)
        checks = [write(os.path.join(outdir, f"p{i:03d}.json"), doc)
                  for i, (_, doc) in enumerate(corpus)]
        return {"runs": checks, "checks": checks, "mix": [k for k, _ in corpus]}
    main, checks = {"cpu-chain": cpu_chain, "sleep-branch": sleep_branch}[workload](seed)
    return {
        "runs": [write(os.path.join(outdir, "main.json"), main)],
        "checks": [write(os.path.join(outdir, f"check{i}.json"), doc)
                   for i, doc in enumerate(checks)],
        "mix": [],
    }
