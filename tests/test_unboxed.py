"""The raw engine at its edges: type-directed boxing, raw rendering,
replaced functions, hint sampling and the carrier-program fuzzer."""

from __future__ import annotations

import json
import math
import struct

import pytest

from stc import (
    BOOL_T,
    FLOAT_T,
    INT_T,
    STR_T,
    UNIT_T,
    BranchProgram,
    StageKind,
    Word,
    build_graph,
    eval_auto_word,
    eval_branch,
    eval_interleaved,
    eval_psi_ref,
    init_state,
    list_of,
    make_thread,
    pair_of,
    parse_port,
    run_data_parallel_product,
    run_pipeline,
    sum_of,
    v_float,
    v_inl,
    v_inr,
    v_int,
    v_list,
    v_pair,
    v_str,
    wrap64,
)
from stc.cli import _result_json, main
from stc.errors import PortTypeError, SchemaError
from stc.model import replace
from stc.harness import (
    FuzzConfig,
    Xorshift64Star,
    carrier_stream,
    random_port_type,
    run_program,
    sampler,
    verify_classification,
    verify_hints,
)
from stc.program import Program, parse_program, program_to_text, value_to_json
from stc.values import (
    INT64_MAX,
    INT64_MIN,
    Inl,
    Inr,
    TypeKind,
    Value,
    boxer,
    conformer,
    equaler,
    unboxer,
)

MODES = ("seq", "interleaved", "pipeline", "auto")


def _edge_value(pt, rng):
    """A boxed inhabitant of ``pt`` drawn from the edge-value samplers."""
    return boxer(pt)(sampler(pt, True)(rng))
EDGE_FLOATS = [math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -2.5e-320]
EDGE_STRS = ["\ud800", "a\udfffb", "é日本😀", ""]


def _delay(tid, carrier):
    return make_thread(tid, "delay_identity_ms", params={"type": carrier.name})


def _edge_word_program():
    """Delays over pair(list(float),sum(int,str)) holding every edge value."""
    t = pair_of(list_of(FLOAT_T), sum_of(INT_T, STR_T))
    graph = build_graph(_delay(1, t), _delay(2, t), _delay(3, t))
    items = [
        v_pair(v_list(FLOAT_T, [v_float(x) for x in EDGE_FLOATS]), v_inl(v_int(INT64_MIN))),
        v_pair(v_list(FLOAT_T, []), v_inl(v_int(INT64_MAX))),
    ] + [v_pair(v_list(FLOAT_T, [v_float(-0.0)]), v_inr(v_str(s))) for s in EDGE_STRS]
    return Program(graph, Word((1, 2, 3)), v_list(t, items), t)


def _edge_branch_program():
    """Producer delay over sum(float,str); float side, str side, then a
    delay over the sum as the consumer (the sides differ)."""
    t = sum_of(FLOAT_T, STR_T)
    graph = build_graph(_delay(1, t), _delay(2, FLOAT_T), _delay(3, STR_T), _delay(4, t))
    prog = BranchProgram(Word((1,)), Word((2,)), Word((3,)), Word((4,)))
    items = [v_inl(v_float(x)) for x in EDGE_FLOATS] + [v_inr(v_str(s)) for s in EDGE_STRS]
    items += [v_inl(v_float(float(INT64_MAX))), v_inr(v_str("z"))]
    return Program(graph, prog, v_list(t, items), t)


def _reference(program):
    graph, store = program.graph, init_state(program.graph)
    if program.is_branch:
        return eval_branch(graph, program.word, program.input, store)
    return eval_psi_ref(graph, program.word, program.input, store)


def _carrier_programs(n):
    return [p for _, p in zip(range(n), carrier_stream(FuzzConfig(seed=17, trials=1)))]


@pytest.mark.parametrize(
    "program",
    [_edge_word_program(), _edge_branch_program()] + _carrier_programs(12),
    ids=lambda p: "branch" if p.is_branch else "word",
)
def test_run_stdout_equals_boxed_reference(program, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(program_to_text(program), encoding="utf-8")
    expect = _result_json(*_reference(program)) + "\n"
    repeats = not program.is_branch and len(set(program.word.letters)) < len(program.word.letters)
    for mode in MODES if not repeats else ("seq", "pipeline", "auto"):
        assert main(["run", str(path), "--mode", mode, "--workers", "2"]) == 0
        assert capsys.readouterr().out == expect, mode


def test_edge_values_survive_parse_and_render(tmp_path):
    program = _edge_word_program()
    again = parse_program(program_to_text(program))
    assert again == program  # bitwise: NaN equals NaN, -0.0 is not 0.0
    first = again.input.payload[0].payload[0].payload
    assert math.isnan(first[0].payload) and math.copysign(1.0, first[1].payload) < 0


@pytest.mark.parametrize(
    "text",
    ["int", "float", "str", "unit", "bool", "list(sum(int,pair(str,unit)))",
     "pair(float,list(bool))", "sum(list(int),unit)"],
)
def test_box_unbox_round_trip(text):
    pt = parse_port(text)
    rng = Xorshift64Star(len(text))
    for _ in range(50):
        v = _edge_value(pt, rng)
        raw = unboxer(pt)(v)
        assert conformer(pt)(raw)
        assert not isinstance(raw, Value)
        assert boxer(pt)(raw) == v


def test_conformer_rejects_lookalikes():
    assert not conformer(INT_T)(True)
    assert not conformer(INT_T)(INT64_MAX + 1)
    assert not conformer(FLOAT_T)(1)
    assert not conformer(list_of(INT_T))([1])  # a raw list is a tuple
    assert not conformer(INT_T)(v_int(1))  # a Value is no raw value
    assert not conformer(sum_of(INT_T, INT_T))(Inl("x"))


def test_equaler_agrees_with_boxed_equality():
    rng = Xorshift64Star(77)
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        pt = random_port_type(rng)
        eq, box, unbox = equaler(pt), boxer(pt), unboxer(pt)
        for _ in range(5):
            a, b = _edge_value(pt, rng), _edge_value(pt, rng)
            # a random pair, and a pair equal by construction whose raw
            # containers are distinct objects
            for x, y in ((a, b), (a, box(unbox(a)))):
                same = eq(unbox(x), unbox(y))
                assert same == (x == y), (pt.name, x, y)
                verdicts[same] += 1
    assert sum(verdicts.values()) >= 5000
    assert min(verdicts.values()) >= 1000, verdicts


def test_equaler_compares_floats_by_bit_pattern():
    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    cases = [
        (FLOAT_T, math.nan, float("nan"), True),
        (FLOAT_T, math.nan, other_nan, False),  # NaN payloads count
        (FLOAT_T, 0.0, -0.0, False),
        (FLOAT_T, 5e-324, 5e-324, True),
        (list_of(FLOAT_T), (math.nan, -0.0), (float("nan"), -0.0), True),
        (list_of(FLOAT_T), (0.0,), (-0.0,), False),
        (list_of(INT_T), (1, 2), (1,), False),
        (pair_of(INT_T, FLOAT_T), (1, math.nan), (1, float("nan")), True),
        (sum_of(INT_T, INT_T), Inl(1), Inr(1), False),
        (sum_of(FLOAT_T, STR_T), Inl(-0.0), Inl(0.0), False),
        (sum_of(FLOAT_T, STR_T), Inr("\ud800"), Inr("\ud800"), True),
        (list_of(BOOL_T), (True, False), (True, False), True),
        (UNIT_T, None, None, True),
    ]
    for pt, a, b, expect in cases:
        assert equaler(pt)(a, b) is expect, (pt.name, a, b)
        assert (boxer(pt)(a) == boxer(pt)(b)) is expect, (pt.name, a, b)


@pytest.mark.parametrize(
    "doc,path,message",
    [
        ([1, "x"], "input[1]", "expected a 64-bit int, got 'x'"),
        ([1, True], "input[1]", "expected a 64-bit int, got True"),
        ([1, 2**63], "input[1]", f"expected a 64-bit int, got {2**63}"),
    ],
)
def test_flat_input_errors_name_the_first_misfit(doc, path, message, tmp_path):
    text = json.dumps({"threads": [{"id": 1, "fn": "counter_add"}], "word": [1],
                       "input": doc, "input_type": "int"})
    with pytest.raises(SchemaError) as err:
        parse_program(text)
    assert str(err.value) == f"at {path}: {message}"


def test_float_literal_past_the_float_range_exits_2(tmp_path, capsys):
    doc = {"threads": [{"id": 1, "fn": "delay_identity_ms", "params": {"type": "float"}}],
           "word": [1], "input": [1.5, 10**400], "input_type": "float"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "at input[1]:" in capsys.readouterr().err


def test_nested_input_error_path():
    text = json.dumps({
        "threads": [{"id": 1, "fn": "delay_identity_ms", "params": {"type": "list(sum(int,str))"}}],
        "word": [1], "input": [[], [{"inl": 1}, {"inr": 2}]], "input_type": "list(sum(int,str))",
    })
    with pytest.raises(SchemaError) as err:
        parse_program(text)
    assert str(err.value) == "at input[1][1].inr: expected a string, got 2"


@pytest.mark.parametrize("x,s", [(INT64_MAX, 1), (INT64_MIN, -1), (INT64_MAX, INT64_MAX),
                                 (INT64_MIN, INT64_MIN), (3, -7)])
def test_int_kernels_wrap_bit_for_bit(x, s):
    counter = make_thread(1, "counter_add")
    scale = make_thread(2, "scale_by_state")
    tick = make_thread(3, "add1_tick")
    assert counter.transfer(v_int(x), v_int(s)) == (v_int(wrap64(x + s)), v_int(wrap64(s + 1)))
    assert scale.transfer(v_int(x), v_int(s))[0] == v_int(wrap64(x * s))
    assert tick.transfer(v_int(x), v_int(s)) == (v_int(wrap64(x + 1)), v_int(wrap64(s + 1)))
    assert tick.value_part(v_int(x)) == v_int(wrap64(x + 1))


# --- replaced functions -------------------------------------------------------


@pytest.mark.parametrize("half", ["value_part", "state_part"])
def test_auto_runs_a_replaced_half(half):
    # A replicated stage (blocking, 16 elements at workers 2: two replicas)
    # runs a PRODUCT letter's value part once per element, and its state
    # part once per element after the stream. A stage that is not
    # replicated runs the transfer, as seq does.
    base = make_thread(1, "add1_tick", v_int(0))
    calls = []

    def doubled(v):
        calls.append(v)
        return v_int(2 * v.payload)

    spec = replace(base, blocking=True, **{half: doubled})
    graph = build_graph(spec)
    xs = v_list(INT_T, [v_int(n) for n in range(1, 17)])
    expect = eval_psi_ref(graph, Word((1,)), xs, init_state(graph))
    for workers in (1, 2):
        del calls[:]
        out, st = eval_auto_word(graph, Word((1,)), xs, init_state(graph), workers)
        if workers == 1:
            assert calls == [] and (out, st) == expect
        elif half == "value_part":
            assert len(calls) == 16
            assert out == v_list(INT_T, [v_int(2 * n) for n in range(1, 17)])
            assert st.get(1) == v_int(16)
        else:
            assert len(calls) == 16
            assert out == expect[0]
            assert st.get(1) == v_int(0)  # 0 doubled, sixteen times


def _ill_typed_output(result):
    base = make_thread(2, "counter_add", v_int(0))
    return replace(base, transfer=lambda x, sigma: (result, base.transfer(x, sigma)[1]))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("result", [v_str("bad"), v_inl(v_int(1)), 5], ids=["str", "sum", "raw"])
def test_unchecked_ill_typed_output_raises_port_type_error(mode, result):
    graph = build_graph(make_thread(1, "add1_tick", v_int(0)), _ill_typed_output(result),
                        make_thread(3, "counter_add", v_int(0)))
    program = Program(graph, Word((1, 2, 3)), v_list(INT_T, [v_int(4), v_int(5)]), INT_T)
    with pytest.raises(PortTypeError) as err:
        run_program(program, mode, workers=2)
    assert "thread 2 output" in str(err.value)


def test_ill_typed_state_is_kept_as_given_unchecked():
    base = make_thread(1, "counter_add", v_int(0))
    spec = replace(base, transfer=lambda x, sigma: (x, v_str("bad")))
    graph = build_graph(spec)
    for fn in (eval_psi_ref, eval_interleaved, run_pipeline):
        out, st = fn(graph, Word((1,)), v_list(INT_T, [v_int(7)]), init_state(graph))
        assert out == v_list(INT_T, [v_int(7)])
        assert st.get(1) == v_str("bad")  # never boxed under the int tag
    # a blocking product letter's replicas, two over 16 elements, leave its
    # state part to run once per element after the stream
    tick = make_thread(2, "add1_tick", v_int(0))
    tick = replace(tick, state_part=lambda sigma: v_str("bad"), blocking=True)
    xs = v_list(INT_T, [v_int(n) for n in range(16)])
    out, sigma = run_data_parallel_product(tick, xs, v_int(0), workers=2)
    assert out == v_list(INT_T, [v_int(n + 1) for n in range(16)]) and sigma == v_str("bad")


# --- hint sampling --------------------------------------------------------------


def _delays(n, delay_ms=50):
    return [make_thread(i, "delay_identity_ms", params={"delay_ms": delay_ms}) for i in range(n)]


def test_hint_sampling_never_sleeps(monkeypatch):
    import stc.builtins

    slept = []
    monkeypatch.setattr(stc.builtins.time, "sleep", slept.append)
    assert verify_hints(_delays(3), Xorshift64Star(1))
    assert verify_classification(_delays(1)[0], Xorshift64Star(1))
    assert slept == []


def test_hints_sampled_once_per_claim_per_call():
    one, many = Xorshift64Star(5), Xorshift64Star(5)
    assert verify_hints(_delays(1), one)
    same = make_thread(9, "delay_identity_ms", params={"type": " int", "delay_ms": 50.0})
    assert verify_hints(_delays(4) + [same], many)
    assert one.state == many.state
    # another claim, and every new call, draws its own samples
    assert verify_hints(_delays(1, delay_ms=3), many)
    assert verify_hints(_delays(1), many)
    assert one.state != many.state


def test_replaced_transfer_is_sampled_every_time():
    calls = []
    base = make_thread(1, "scale_by_state", v_int(3))

    def transfer(x, sigma):
        calls.append(x)
        return base.transfer(x, sigma)

    specs = [replace(base, transfer=transfer), replace(make_thread(2, "scale_by_state"),
                                                       transfer=transfer)]
    assert verify_hints(specs, Xorshift64Star(1))
    assert len(calls) == 400


def test_lying_hint_is_still_caught():
    spec = replace(make_thread(1, "counter_add"), kind=StageKind.READ_ONLY)
    assert not verify_hints([spec, spec], Xorshift64Star(1))


_PINNED_TYPES = (
    "int", "float", "bool", "unit", "str", "list(float)", "pair(int,float)",
    "sum(int,str)", "sum(float,float)", "list(pair(bool,sum(unit,float)))",
)


def test_hint_verdicts_and_draws_are_pinned():
    # Hint sampling draws from the check rng that later checks share, so
    # a change to how samples are drawn or compared must keep both the
    # verdicts and the rng's end state.
    specs = [
        make_thread(1, "counter_add"),
        make_thread(2, "scale_by_state", v_int(3)),
        make_thread(3, "add1_tick", v_int(-2)),
        make_thread(4, "append_tag", v_str("q")),
        make_thread(5, "branch_even"),
    ]
    specs += [
        make_thread(10 + i, "delay_identity_ms", params={"type": t, "delay_ms": 5})
        for i, t in enumerate(_PINNED_TYPES)
    ]
    specs += [make_thread(30 + i, "merge_sum", params={"type": t}) for i, t in enumerate(_PINNED_TYPES)]
    for seed, state in (
        (1, 13447782176801063096), (2, 12423609457380539788), (3, 16405507458796924484)
    ):
        rng = Xorshift64Star(seed)
        assert verify_hints(specs, rng)
        assert rng.state == state
    lying = [
        replace(make_thread(1, "counter_add"), kind=StageKind.READ_ONLY),
        replace(make_thread(3, "add1_tick"), value_part=lambda v: v),
        replace(make_thread(3, "add1_tick"), state_part=lambda v: v),
    ]
    for spec in lying:
        rng = Xorshift64Star(4)
        assert not verify_hints([spec], rng)
        assert rng.state == 4504699139039237  # caught on the first sample


# --- the carrier fuzzer -------------------------------------------------------------


def _kinds(pt, seen):
    seen.add(pt.kind)
    for a in pt.args:
        _kinds(a, seen)
    return seen


def test_carrier_stream_reaches_the_whole_grammar():
    programs = _carrier_programs(200)
    kinds = set()
    consumers = set()
    values = []
    for p in programs:
        _kinds(p.input_type, kinds)
        if p.is_branch:
            head = p.graph.edges[p.word.consumer.letters[0]]
            consumers.add(head.fn_name)
        values += [value_to_json(v) for v in p.input.payload]
    assert kinds == set(TypeKind)
    assert consumers == {"merge_sum", "delay_identity_ms"}
    text = json.dumps(values)
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "\\ud800",
                  str(INT64_MIN), str(INT64_MAX)):
        assert token in text, token


def test_carrier_stream_is_deterministic():
    a = [program_to_text(p) for p in _carrier_programs(30)]
    b = [program_to_text(p) for p in _carrier_programs(30)]
    assert a == b
