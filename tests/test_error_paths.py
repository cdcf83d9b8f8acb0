"""Error paths of each layer, one table per layer.

Document cases run `stc run` on a broken program document and expect exit
2 with one `validation error:` line, which starts `at <path>:` when the
fault sits at one field. API cases call the layer directly and expect the
exception class and its message.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import replace

import pytest

from stc.builtins import make_thread
from stc.cli import main
from stc.composition import Word, eval_phi, unbox_input
from stc.errors import ExecutionError, PortTypeError, SchemaError, ValidationError
from stc.model import (
    Kernel,
    apply_thread,
    boxed_transfer,
    build_graph,
    init_state,
    raw_step,
    register_kernel,
)
from stc.parallel import (
    BranchProgram,
    join,
    run_data_parallel_product,
    run_data_parallel_readonly,
    split,
    validate_branch,
)
from stc.values import INT_T, STR_T, v_int, v_list, v_str

BASE = {
    "threads": [{"id": 1, "fn": "counter_add", "init_state": 0}],
    "word": [1],
    "input": [1, 2],
    "input_type": "int",
}


def _doc(**fields) -> dict:
    """``BASE`` with ``fields`` replaced; a field set to None is removed."""
    doc = copy.deepcopy(BASE)
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


def _carrier(port_type: str, items: list) -> dict:
    """One zero-delay identity thread over ``port_type`` fed ``items``."""
    thread = {"id": 1, "fn": "delay_identity_ms", "params": {"type": port_type}}
    return _doc(threads=[thread], input=items, input_type=port_type)


BRANCH_KEYS = ("producer", "left", "right", "consumer")

DOCUMENTS = [
    # program.parse_program
    ("missing-field", _doc(input_type=None), "at input_type: missing required field"),
    ("not-an-object", [1, 2], "at <root>: program must be a JSON object"),
    (
        "unknown-thread-field",
        _doc(threads=[{"id": 1, "fn": "counter_add", "colour": "red"}]),
        "at threads[0]: unknown fields ['colour']",
    ),
    (
        "params-not-an-object",
        _doc(threads=[{"id": 1, "fn": "counter_add", "params": [1]}]),
        "at threads[0].params: expected an object",
    ),
    ("anchor-not-a-string", _doc(word=[], anchor=5), "at anchor: expected a port type string"),
    (
        "word-keys",
        _doc(word={"branch": dict.fromkeys(BRANCH_KEYS, []), "extra": []}),
        'at word: expected an array or {"branch": {...}}',
    ),
    (
        "branch-keys",
        _doc(word={"branch": {"producer": [1], "left": [], "right": []}}),
        "at word.branch: expected producer/left/right/consumer arrays",
    ),
    (
        "producer-not-a-sum",
        _doc(word={"branch": {"producer": [1], "left": [], "right": [], "consumer": []}}),
        "at word.branch.producer: must end at a sum vertex, got int",
    ),
    # program._read: literals that do not fit their port type
    ("unit-literal", _carrier("unit", [None, 0]), "at input[1]: expected null for unit, got 0"),
    ("bool-literal", _carrier("bool", [True, 1]), "at input[1]: expected a bool, got 1"),
    ("float-literal", _carrier("float", [1.5, "x"]), "at input[1]: expected a number, got 'x'"),
    ("array-literal", _carrier("list(int)", [[1], 2]), "at input[1]: expected an array, got 2"),
    (
        "pair-literal",
        _carrier("pair(int,str)", [[1, "a"], [1]]),
        "at input[1]: expected a two-element array, got [1]",
    ),
    (
        "sum-literal",
        _carrier("sum(int,int)", [{"inl": 1}, {"inl": 1, "inr": 2}]),
        "at input[1]: expected {\"inl\": ...} or {\"inr\": ...}, got {'inl': 1, 'inr': 2}",
    ),
    # builtins
    (
        "params-type-not-a-string",
        _doc(threads=[{"id": 1, "fn": "merge_sum", "params": {"type": 5}}]),
        "at threads[0].params.type: port type must be a string",
    ),
    (
        "params-delay-out-of-range",
        _doc(
            threads=[
                {"id": 1, "fn": "counter_add"},
                {"id": 2, "fn": "delay_identity_ms", "params": {"delay_ms": -1}},
            ],
            word=[1, 2],
        ),
        "at threads[1].params.delay_ms: delay must be a number from 0 to 1000000000000 ms",
    ),
]


@pytest.mark.parametrize("doc, message", [c[1:] for c in DOCUMENTS], ids=[c[0] for c in DOCUMENTS])
def test_document_errors_exit_2(tmp_path, capsys, doc, message):
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"validation error: {message}\n"


def _raises(call, exc_type, message):
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc_type


def test_builtin_init_state_of_the_wrong_type():
    _raises(
        lambda: make_thread(1, "counter_add", v_str("x")),
        SchemaError,
        f"at init_state: {v_str('x')!r} is not a int for counter_add",
    )


def test_check_table_reports_a_run_that_raises(tmp_path, capsys, monkeypatch):
    from stc import harness

    def run_raw(program, mode, workers=4, check=False):
        if (mode, workers) == ("auto", 4):
            raise ExecutionError("planted fault")
        return real(program, mode, workers=workers, check=check)

    real = harness.run_raw
    monkeypatch.setattr(harness, "run_raw", run_raw)
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    rows = capsys.readouterr().out.splitlines()[3:]
    assert rows == [
        "seq          reference",
        "interleaved  equal",
        "auto@1       equal",
        "auto@4       ERROR ExecutionError('planted fault')",
    ]


def _replaced(transfer):
    """counter_add with its transfer replaced by ``transfer``."""
    return replace(make_thread(1, "counter_add"), transfer=transfer)


def _with_kernel(run):
    """counter_add whose registered raw kernel is ``run``."""
    fn = boxed_transfer(run, INT_T, INT_T, INT_T)
    register_kernel(fn, Kernel(run, run, ("ill-typed", ())))
    return _replaced(fn)


def _not_int(what, r):
    return f"thread 1 {what} {r!r} is not a int"


COUNTER = make_thread(1, "counter_add")
MODEL = [
    (
        "apply-input",
        lambda: apply_thread(COUNTER, v_str("x"), v_int(0), check=True),
        _not_int("input", v_str("x")),
    ),
    (
        "apply-state",
        lambda: apply_thread(COUNTER, v_int(1), v_str("s"), check=True),
        _not_int("state", v_str("s")),
    ),
    (
        "apply-output",
        lambda: apply_thread(
            _replaced(lambda x, s: (v_str("y"), s)), v_int(1), v_int(0), check=True
        ),
        _not_int("output", v_str("y")),
    ),
    (
        "apply-new-state",
        lambda: apply_thread(
            _replaced(lambda x, s: (x, v_str("s"))), v_int(1), v_int(0), check=True
        ),
        _not_int("new state", v_str("s")),
    ),
    ("raw-input", lambda: raw_step(COUNTER, True)("x", 0), _not_int("input", "x")),
    ("raw-state", lambda: raw_step(COUNTER, True)(1, "s"), _not_int("state", "s")),
    (
        "raw-output",
        lambda: raw_step(_with_kernel(lambda x, s: ("y", s)), True)(1, 0),
        _not_int("output", "y"),
    ),
    (
        "raw-new-state",
        lambda: raw_step(_with_kernel(lambda x, s: (x, "s")), True)(1, 0),
        _not_int("new state", "s"),
    ),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in MODEL], ids=[c[0] for c in MODEL])
def test_checked_model_errors(call, message):
    _raises(call, PortTypeError, message)


GRAPH = build_graph(
    make_thread(1, "branch_even"),
    make_thread(2, "append_tag"),
    make_thread(3, "merge_sum"),
    make_thread(4, "counter_add"),
    make_thread(5, "scale_by_state"),
)
EMPTY = Word((), INT_T)
COMPOSITION = [
    (
        "unbox-not-a-list",
        lambda: unbox_input(v_int(1), INT_T),
        PortTypeError,
        f"expected a list value, got {v_int(1)!r}",
    ),
    (
        "unbox-element-type",
        lambda: unbox_input(v_list(STR_T, []), INT_T),
        PortTypeError,
        "input element type str does not feed a int source",
    ),
    (
        "phi-input",
        lambda: eval_phi(GRAPH, Word((4,)), v_str("x"), init_state(GRAPH)),
        PortTypeError,
        f"input {v_str('x')!r} is not a int",
    ),
    (
        "branch-left",
        lambda: validate_branch(GRAPH, BranchProgram(Word((1,)), Word((2,)), EMPTY, Word((3,)))),
        ValidationError,
        "left branch starts at str, producer emits int",
    ),
    (
        "branch-right",
        lambda: validate_branch(GRAPH, BranchProgram(Word((1,)), EMPTY, Word((2,)), Word((3,)))),
        ValidationError,
        "right branch starts at str, producer emits int",
    ),
    (
        "branch-consumer",
        lambda: validate_branch(GRAPH, BranchProgram(Word((1,)), EMPTY, EMPTY, Word((2,)))),
        ValidationError,
        "consumer starts at str, branches produce sum(int,int)",
    ),
    (
        "split-not-sums",
        lambda: split(v_list(INT_T, [])),
        PortTypeError,
        f"split needs a list of sum values, got {v_list(INT_T, [])!r}",
    ),
    (
        "join-not-lists",
        lambda: join(v_int(1), v_list(INT_T, []), ()),
        PortTypeError,
        "join needs two list values",
    ),
    (
        "readonly-kind",
        lambda: run_data_parallel_readonly(GRAPH.edges[4], v_list(INT_T, []), v_int(0)),
        ValidationError,
        "thread 4 is not read-only",
    ),
    (
        "product-kind",
        lambda: run_data_parallel_product(GRAPH.edges[5], v_list(INT_T, []), v_int(1)),
        ValidationError,
        "thread 5 is not a product thread",
    ),
]


@pytest.mark.parametrize(
    "call, exc_type, message", [c[1:] for c in COMPOSITION], ids=[c[0] for c in COMPOSITION]
)
def test_composition_and_parallel_errors(call, exc_type, message):
    _raises(call, exc_type, message)
