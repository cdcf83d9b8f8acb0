"""Damaged program documents: `stc run` must exit 0, 2 or 3, never raise.

Each case starts from a valid fuzzer program, serialized, and damages it
in one way. No damage ever sets a `delay_ms`, so no case sleeps. Bytes
that are not UTF-8 are a validation error for every command that reads
a program file.
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


# byte sequences that no UTF-8 text holds: a UTF-16 byte-order mark, a
# lone continuation byte, a lead byte without its continuation, an
# encoded surrogate and a five-byte form
NOT_UTF8 = (b"\xff\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")


def _insert_bytes(data: bytes, rng: Xorshift64Star) -> bytes:
    i = rng.below(len(data) + 1)
    return data[:i] + rng.pick(NOT_UTF8) + data[i:]


@pytest.mark.parametrize("command", ["run", "check", "dot"])
def test_non_utf8_documents_are_validation_errors(tmp_path, capsys, command):
    stream = program_stream(FuzzConfig(seed=SEED, trials=PROGRAMS))
    rng = Xorshift64Star(SEED)
    for i in range(PROGRAMS):
        data = program_to_text(next(stream)).encode("utf-8")
        path = tmp_path / f"bytes{i}.json"
        path.write_bytes(b"\xff\xfe" + data if i == 0 else _insert_bytes(data, rng))
        assert main([command, str(path)]) == 2, i
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"validation error: {path} is not UTF-8 text: ")
        assert captured.err.count("\n") == 1, captured.err
