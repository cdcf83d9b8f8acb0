"""Damaged program documents: `stc run` must exit 0, 2 or 3, never raise.

Each case starts from a valid fuzzer program, serialized, and damages it
in one way. No damage ever sets a `delay_ms`, so no case sleeps.
"""

from __future__ import annotations

import json

import pytest

from stc.cli import main
from stc.harness import FuzzConfig, Xorshift64Star, program_stream
from stc.program import program_to_text

SEED = 0x5EED_D0C5
PROGRAMS = 40
NEST = 200
WRONG_VALUES = (None, True, 7, 2.5, "x", [], {})


def _json_type(value) -> type:
    return bool if isinstance(value, bool) else type(value)


def _slots(node, out):
    """Append (container, key) for every field and element under ``node``,
    leaving out anything under a ``delay_ms`` key."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if key == "delay_ms":
            continue
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _truncate(text: str, rng: Xorshift64Star) -> str:
    return text[: rng.below(len(text))]


def _retype(text: str, rng: Xorshift64Star) -> str:
    doc = json.loads(text)
    node, key = rng.pick(_slots(doc, []))
    old = _json_type(node[key])
    node[key] = rng.pick([v for v in WRONG_VALUES if _json_type(v) is not old])
    return json.dumps(doc)


def _nest_input(text: str, rng: Xorshift64Star) -> str:
    doc = json.loads(text)
    for _ in range(NEST):
        doc["input"] = [doc["input"]]
    return json.dumps(doc)


def _int_to_2_63(text: str, rng: Xorshift64Star) -> str:
    doc = json.loads(text)
    ints = [(n, k) for n, k in _slots(doc, []) if _json_type(n[k]) is int]
    node, key = rng.pick(ints)  # every document has thread ids
    node[key] = 2**63
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [_truncate, _retype, _nest_input, _int_to_2_63])
def test_damaged_documents_exit_cleanly(tmp_path, damage):
    stream = program_stream(FuzzConfig(seed=SEED, trials=PROGRAMS))
    rng = Xorshift64Star(SEED)
    codes = set()
    for i in range(PROGRAMS):
        path = tmp_path / f"damaged{i}.json"
        path.write_text(damage(program_to_text(next(stream)), rng), encoding="utf-8")
        rc = main(["run", str(path)])
        assert rc in (0, 2, 3), (i, rc)
        codes.add(rc)
    assert 2 in codes
