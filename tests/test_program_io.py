from __future__ import annotations

import json

import pytest

from stc import (
    ParseError,
    SchemaError,
    StageKind,
    UnknownFunction,
    UnknownThreadId,
    Word,
    build_graph,
    builtin,
    builtin_names,
    export_dot,
    make_thread,
    parse_program,
    program_digest,
    v_inr,
    v_int,
    v_list,
)
from stc.errors import ValidationError
from stc.harness import FuzzConfig, program_stream, run_program
from stc.model import builtin_claim, replace
from stc.program import (
    Program,
    program_to_text,
    serialize_program,
    value_from_json,
    value_to_json,
)
from stc.values import INT_T, MAX_NESTING, UNIT, list_of, parse_port
from conftest import fig1_graph

MINIMAL = json.dumps(
    {
        "threads": [{"id": 1, "fn": "counter_add", "init_state": 0}],
        "word": [1],
        "input": [10, 20, 30],
        "input_type": "int",
    }
)


def test_parse_minimal_program_runs():
    program = parse_program(MINIMAL)
    out, st = run_program(program, "seq")
    assert [v.payload for v in out.payload] == [10, 21, 32]
    assert st.get(1) == v_int(3)


def test_parse_rejects_unknown_word_id():
    doc = json.loads(MINIMAL)
    doc["word"] = [99]
    with pytest.raises(UnknownThreadId):
        parse_program(json.dumps(doc))


def test_parse_rejects_badly_typed_input():
    doc = json.loads(MINIMAL)
    doc["input"] = ["a", 20]
    with pytest.raises(SchemaError) as err:
        parse_program(json.dumps(doc))
    assert err.value.path == "input[0]"


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_program("{not json")


def test_parse_rejects_unknown_fields():
    doc = json.loads(MINIMAL)
    doc["mystery"] = 1
    with pytest.raises(SchemaError):
        parse_program(json.dumps(doc))


def test_parse_empty_word_needs_anchor():
    doc = json.loads(MINIMAL)
    doc["word"] = []
    with pytest.raises(SchemaError):
        parse_program(json.dumps(doc))
    doc["anchor"] = "int"
    program = parse_program(json.dumps(doc))
    out, _ = run_program(program, "seq")
    assert out == program.input


def test_parse_rejects_source_mismatch():
    doc = json.loads(MINIMAL)
    doc["threads"] = [{"id": 1, "fn": "append_tag", "init_state": "t"}]
    with pytest.raises(ValidationError):
        parse_program(json.dumps(doc))


def test_parse_branch_program():
    doc = {
        "threads": [
            {"id": 1, "fn": "branch_even"},
            {"id": 2, "fn": "add1_tick", "init_state": 0},
            {"id": 3, "fn": "scale_by_state", "init_state": 3},
            {"id": 4, "fn": "merge_sum"},
        ],
        "word": {"branch": {"producer": [1], "left": [2], "right": [3], "consumer": [4]}},
        "input": [2, 3, 4],
        "input_type": "int",
    }
    program = parse_program(json.dumps(doc))
    out, _ = run_program(program, "seq")
    assert [v.payload for v in out.payload] == [3, 9, 5]


def test_parse_branch_rejects_shared_letters():
    doc = {
        "threads": [
            {"id": 1, "fn": "branch_even"},
            {"id": 2, "fn": "add1_tick", "init_state": 0},
            {"id": 4, "fn": "merge_sum"},
        ],
        "word": {"branch": {"producer": [1], "left": [2], "right": [2], "consumer": [4]}},
        "input": [1],
        "input_type": "int",
    }
    with pytest.raises(ValidationError):
        parse_program(json.dumps(doc))


def test_serialize_round_trip_minimal():
    program = parse_program(MINIMAL)
    again = parse_program(program_to_text(program))
    assert again == program
    assert program_digest(again) == program_digest(program)


def test_serialize_empty_word_writes_its_anchor():
    graph = build_graph(make_thread(1, "counter_add"))
    program = Program(graph, Word((), INT_T), v_list(INT_T, [v_int(4)]), INT_T)
    doc = serialize_program(program)
    assert doc["word"] == [] and doc["anchor"] == "int"
    again = parse_program(program_to_text(program))
    assert again == program
    assert program_digest(again) == program_digest(program)


def test_serialize_round_trip_fuzz_corpus():
    stream = program_stream(FuzzConfig(seed=31, trials=1))
    for _ in range(40):
        p = next(stream)
        assert parse_program(program_to_text(p)) == p


def test_value_json_round_trip():
    pt = parse_port("list(pair(sum(int,str),bool))")
    doc = [[{"inl": 3}, True], [{"inr": "x"}, False]]
    v = value_from_json(doc, pt, "input[0]")
    assert value_to_json(v) == doc
    assert value_from_json(None, parse_port("unit"), "p") == UNIT


def test_value_from_json_nesting_limit():
    pt, doc = INT_T, 1
    for _ in range(MAX_NESTING):
        pt, doc = list_of(pt), [doc]
    assert value_to_json(value_from_json(doc, pt, "v")) == doc
    with pytest.raises(SchemaError, match="nests deeper"):
        value_from_json([doc], list_of(pt), "v")


def test_builtin_registry_minimum():
    assert set(builtin_names()) >= {
        "counter_add",
        "scale_by_state",
        "add1_tick",
        "branch_even",
        "merge_sum",
        "delay_identity_ms",
        "append_tag",
    }
    assert builtin("counter_add").kind is StageKind.GENERAL
    with pytest.raises(UnknownFunction):
        builtin("nope")


def test_merge_sum_strips_injections():
    spec = make_thread(1, "merge_sum")
    y, s = spec.transfer(v_inr(v_int(5)), UNIT)
    assert y == v_int(5) and s == UNIT


def test_builtin_determinism():
    for name in builtin_names():
        if name == "delay_identity_ms":
            continue
        spec = make_thread(1, name)
        x = {
            "counter_add": v_int(7),
            "scale_by_state": v_int(7),
            "add1_tick": v_int(7),
            "branch_even": v_int(7),
            "merge_sum": v_inr(v_int(7)),
            "append_tag": None,
        }.get(name)
        if x is None:
            from stc import v_str

            x = v_str("a")
        assert spec.transfer(x, spec.init_state) == spec.transfer(x, spec.init_state)


def test_delay_params_validated():
    with pytest.raises(SchemaError):
        make_thread(1, "delay_identity_ms", params={"delay_ms": -1})
    with pytest.raises(SchemaError):
        make_thread(1, "delay_identity_ms", params={"unknown": 1})
    spec = make_thread(1, "delay_identity_ms", params={"type": "str", "delay_ms": 0})
    assert spec.src.name == "str"


def test_equal_claims_share_one_instance():
    # a builtin is instantiated once per claim; 1 and 1.0 are different
    # memo keys with equal claims, and every spec keeps its own params
    one = make_thread(1, "delay_identity_ms", params={"delay_ms": 1})
    one_f = make_thread(2, "delay_identity_ms", params={"delay_ms": 1.0})
    again = make_thread(3, "delay_identity_ms", params={"delay_ms": 1})
    assert builtin_claim(one_f) == ("delay_identity_ms", (("delay_ms", 1.0), ("type", "int")))
    assert builtin_claim(one) == builtin_claim(one_f) == builtin_claim(again)
    assert again.transfer is one.transfer and one_f.transfer is not one.transfer
    assert [type(s.params["delay_ms"]) for s in (one, one_f, again)] == [int, float, int]
    assert one.params is not again.params
    assert builtin_claim(make_thread(1, "merge_sum")) == ("merge_sum", (("type", "int"),))
    assert builtin_claim(make_thread(1, "counter_add", v_int(5))) == ("counter_add", ())
    doc = json.loads(MINIMAL)
    doc["threads"] = [
        {"id": 1, "fn": "delay_identity_ms", "params": {"delay_ms": 1}},
        {"id": 2, "fn": "delay_identity_ms", "params": {"delay_ms": 1.0}},
    ]
    doc["word"] = [1, 2]
    text = program_to_text(parse_program(json.dumps(doc)))
    assert '"params":{"delay_ms":1}' in text and '"params":{"delay_ms":1.0}' in text


def test_unhashable_params_raise_every_time():
    for _ in range(2):  # a failed instance is never remembered
        with pytest.raises(SchemaError) as err:
            make_thread(1, "merge_sum", params={"type": ["int"]})
        assert str(err.value) == "at params.type: port type must be a string"
    doc = json.loads(MINIMAL)
    doc["threads"] = [{"id": 1, "fn": "merge_sum", "params": {"type": ["int"]}}]
    with pytest.raises(SchemaError, match=r"^at threads\[0\]\.params\.type: port type must"):
        parse_program(json.dumps(doc))


def test_parse_builds_one_instance_per_thread(monkeypatch):
    # the parser reads each init literal against the instance's state type
    # and builds the thread from that same instance: one call per thread
    from stc import builtins, program

    calls = []
    real = builtins.instance

    def counting(fn_name, params):
        calls.append(fn_name)
        return real(fn_name, params)

    monkeypatch.setattr(program, "instance", counting)
    monkeypatch.setattr(builtins, "instance", counting)
    doc = json.loads(MINIMAL)
    doc["threads"] = [
        {"id": 1, "fn": "counter_add", "init_state": 4},
        {"id": 2, "fn": "delay_identity_ms", "params": {"delay_ms": 0}},
        {"id": 3, "fn": "append_tag", "init_state": "q"},
    ]
    doc["word"] = [1, 2]
    parsed = parse_program(json.dumps(doc))
    assert calls == ["counter_add", "delay_identity_ms", "append_tag"]
    assert parsed.graph.edges[3].init_state.payload == "q"
    assert parsed.graph.edges[2].params == {"delay_ms": 0}


def test_replaced_transfer_runs_on_a_shared_instance():
    calls = []

    def echo(x, s):
        calls.append(x)
        return x, s

    graph = build_graph(replace(make_thread(1, "counter_add"), transfer=echo))
    program = Program(graph, Word((1,)), v_list(INT_T, [v_int(4), v_int(5)]), INT_T)
    out, _ = run_program(program, "seq")
    assert out == v_list(INT_T, [v_int(4), v_int(5)]) and calls == [v_int(4), v_int(5)]
    # the claim's own transfer is untouched for the next thread
    fresh = build_graph(make_thread(1, "counter_add"))
    out, _ = run_program(Program(fresh, Word((1,)), program.input, INT_T), "seq")
    assert out == v_list(INT_T, [v_int(4), v_int(6)])


def test_export_dot_seven_edges():
    dot = export_dot(fig1_graph())
    lines = dot.splitlines()
    node_lines = [l for l in lines if "->" not in l and "label" in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 5
    assert len(edge_lines) == 7
    assert '  "a" -> "b" [label="1"];' in lines
    assert '  "a" -> "b" [label="2"];' in lines
    assert dot.endswith("}\n")


def test_export_dot_empty_graph():
    from stc import Multigraph

    dot = export_dot(Multigraph.empty())
    assert dot == "digraph {\n}\n"


def test_export_dot_single_edge():
    from stc import build_graph

    dot = export_dot(build_graph(make_thread(1, "counter_add")))
    assert dot.count("->") == 1


def test_export_dot_deterministic_order():
    dot1 = export_dot(fig1_graph())
    dot2 = export_dot(fig1_graph())
    assert dot1 == dot2
    edge_labels = [l.split('label="')[1][0] for l in dot1.splitlines() if "->" in l]
    assert edge_labels == sorted(edge_labels)


def test_export_dot_extended_labels():
    dot = export_dot(fig1_graph(), extended=True)
    assert 'label="lift(1)"' in dot
    assert "×S" in dot


def test_parse_branch_with_empty_producer_sum_input():
    doc = {
        "threads": [
            {"id": 2, "fn": "add1_tick", "init_state": 0},
            {"id": 4, "fn": "merge_sum"},
        ],
        "word": {"branch": {"producer": [], "left": [2], "right": [], "consumer": [4]}},
        "input": [{"inl": 1}, {"inr": 9}],
        "input_type": "sum(int,int)",
    }
    program = parse_program(json.dumps(doc))
    out, _ = run_program(program, "seq")
    assert [v.payload for v in out.payload] == [2, 9]


def test_parse_rejects_duplicate_thread_ids():
    doc = json.loads(MINIMAL)
    doc["threads"] = [
        {"id": 1, "fn": "counter_add", "init_state": 0},
        {"id": 1, "fn": "scale_by_state", "init_state": 2},
    ]
    from stc import DuplicateThreadId

    with pytest.raises(DuplicateThreadId):
        parse_program(json.dumps(doc))
