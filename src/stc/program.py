"""Serializable program format and graph exporters.

A program file is a UTF-8 JSON document:

    {
      "threads": [{"id": 1, "fn": "counter_add", "init_state": 0,
                   "params": {}}, ...],
      "word": [1, 2] | {"branch": {"producer": [...], "left": [...],
                                   "right": [...], "consumer": [...]}},
      "anchor": "int",            # required iff "word" is the empty list
      "input": [10, 20, 30],
      "input_type": "int"
    }

Word arrays are in *application order*: the first id listed is applied
first. ``init_state`` and ``params`` may be omitted, in which case the
builtin's defaults apply. Value literals are plain JSON, read against the
expected port type: unit is null, pairs are two-element arrays, and sum
values are single-key objects {"inl": ...} or {"inr": ...}.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from .builtins import make_thread
from .composition import Word, validate_word
from .errors import ParseError, SchemaError, ValidationError
from .model import Multigraph, build_graph
from .parallel import BranchProgram, validate_branch
from .values import (
    INT64_MAX,
    INT64_MIN,
    MAX_NESTING,
    PortType,
    Tag,
    TypeKind,
    UNIT,
    Value,
    _int_value,
    parse_port,
    sum_of,
    v_bool,
    v_float,
    v_inl,
    v_inr,
    v_list,
    v_pair,
    v_str,
)


@dataclass(frozen=True)
class Program:
    """One runnable unit: a graph, a word (or branch) over it, and a
    typed input list."""

    graph: Multigraph
    word: Union[Word, BranchProgram]
    input: Value
    input_type: PortType

    @property
    def is_branch(self) -> bool:
        return isinstance(self.word, BranchProgram)


_LITERAL_REPR = reprlib.Repr()
_LITERAL_REPR.maxlevel = 3
_LITERAL_CHARS = 60


def _brief(obj: Any) -> str:
    """A repr of a JSON literal short enough for a one-line error message.

    ``reprlib`` bounds the depth and width it visits, so a huge or deeply
    nested literal costs little; the text is then cut to
    ``_LITERAL_CHARS``."""
    text = _LITERAL_REPR.repr(obj)
    return text if len(text) <= _LITERAL_CHARS else text[:_LITERAL_CHARS] + "..."


def value_from_json(obj: Any, pt: PortType, path: str, depth: int = 0) -> Value:
    """Read a plain JSON literal against an expected port type.

    ``depth`` counts the enclosing lists, pairs and sums; a literal that
    nests deeper than ``MAX_NESTING`` is rejected."""
    if depth > MAX_NESTING:
        raise SchemaError(path, f"value nests deeper than {MAX_NESTING} levels")
    k = pt.kind
    if k is TypeKind.UNIT:
        if obj is not None:
            raise SchemaError(path, f"expected null for unit, got {_brief(obj)}")
        return UNIT
    if k is TypeKind.BOOL:
        if type(obj) is not bool:
            raise SchemaError(path, f"expected a bool, got {_brief(obj)}")
        return v_bool(obj)
    if k is TypeKind.INT:
        if type(obj) is not int or not INT64_MIN <= obj <= INT64_MAX:
            raise SchemaError(path, f"expected a 64-bit int, got {_brief(obj)}")
        return _int_value(obj)
    if k is TypeKind.FLOAT:
        if type(obj) is bool or not isinstance(obj, (int, float)):
            raise SchemaError(path, f"expected a number, got {_brief(obj)}")
        return v_float(float(obj))
    if k is TypeKind.STR:
        if type(obj) is not str:
            raise SchemaError(path, f"expected a string, got {_brief(obj)}")
        return v_str(obj)
    if k is TypeKind.LIST:
        if not isinstance(obj, list):
            raise SchemaError(path, f"expected an array, got {_brief(obj)}")
        items = [
            value_from_json(item, pt.args[0], f"{path}[{i}]", depth + 1)
            for i, item in enumerate(obj)
        ]
        return v_list(pt.args[0], items)
    if k is TypeKind.PAIR:
        if not isinstance(obj, list) or len(obj) != 2:
            raise SchemaError(path, f"expected a two-element array, got {_brief(obj)}")
        return v_pair(
            value_from_json(obj[0], pt.args[0], f"{path}[0]", depth + 1),
            value_from_json(obj[1], pt.args[1], f"{path}[1]", depth + 1),
        )
    if k is TypeKind.SUM:
        if isinstance(obj, dict) and set(obj) == {"inl"}:
            return v_inl(value_from_json(obj["inl"], pt.args[0], f"{path}.inl", depth + 1))
        if isinstance(obj, dict) and set(obj) == {"inr"}:
            return v_inr(value_from_json(obj["inr"], pt.args[1], f"{path}.inr", depth + 1))
        raise SchemaError(path, f'expected {{"inl": ...}} or {{"inr": ...}}, got {_brief(obj)}')
    raise SchemaError(path, f"unsupported port type {pt.name}")


def value_to_json(v: Value) -> Any:
    """Render a value as a plain JSON literal (inverse of value_from_json)."""
    t = v.tag
    if t is Tag.UNIT:
        return None
    if t in (Tag.BOOL, Tag.INT, Tag.FLOAT, Tag.STR):
        return v.payload
    if t is Tag.LIST:
        return [value_to_json(item) for item in v.payload]
    if t is Tag.PAIR:
        return [value_to_json(v.payload[0]), value_to_json(v.payload[1])]
    if t is Tag.SUML:
        return {"inl": value_to_json(v.payload)}
    return {"inr": value_to_json(v.payload)}


def _require(doc: Dict, key: str, path: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _word_from_json(obj: Any, path: str, anchor: Optional[PortType]) -> Word:
    if not isinstance(obj, list) or any(type(n) is not int for n in obj):
        raise SchemaError(path, "expected an array of thread ids")
    if not obj:
        if anchor is None:
            raise SchemaError("anchor", "required when the word is empty")
        return Word((), anchor)
    return Word(tuple(obj))


def parse_program(text: str) -> Program:
    """Parse and fully validate a program document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise SchemaError("", "document nests too deeply") from None
    except ValueError as exc:  # an int literal past the interpreter's digit limit
        raise SchemaError("", str(exc)) from None
    if not isinstance(doc, dict):
        raise SchemaError("", "program must be a JSON object")
    allowed = {"threads", "word", "anchor", "input", "input_type"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError("", f"unknown fields {sorted(unknown)}")

    threads_doc = _require(doc, "threads", "")
    if not isinstance(threads_doc, list):
        raise SchemaError("threads", "expected an array")
    specs = []
    for i, td in enumerate(threads_doc):
        path = f"threads[{i}]"
        if not isinstance(td, dict):
            raise SchemaError(path, "expected an object")
        extra = set(td) - {"id", "fn", "init_state", "params"}
        if extra:
            raise SchemaError(path, f"unknown fields {sorted(extra)}")
        tid = _require(td, "id", path)
        fn = _require(td, "fn", path)
        if type(tid) is not int or tid < 0:
            raise SchemaError(f"{path}.id", "thread id must be a non-negative int")
        if type(fn) is not str:
            raise SchemaError(f"{path}.fn", "fn must be a builtin name")
        params = td.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError(f"{path}.params", "expected an object")
        # Init literals are read against the builtin's state type, so
        # instantiate first with the default, then re-make with the parsed init.
        probe = make_thread(tid, fn, None, params)
        init = None
        if "init_state" in td:
            init = value_from_json(td["init_state"], probe.state_type, f"{path}.init_state")
        specs.append(make_thread(tid, fn, init, params))
    graph = build_graph(*specs)

    input_type_text = _require(doc, "input_type", "")
    if type(input_type_text) is not str:
        raise SchemaError("input_type", "expected a port type string")
    input_type = parse_port(input_type_text, "input_type")

    anchor_doc = doc.get("anchor")
    anchor = None
    if anchor_doc is not None:
        if type(anchor_doc) is not str:
            raise SchemaError("anchor", "expected a port type string")
        anchor = parse_port(anchor_doc, "anchor")

    word_doc = _require(doc, "word", "")
    word: Union[Word, BranchProgram]
    if isinstance(word_doc, dict):
        if set(word_doc) != {"branch"}:
            raise SchemaError("word", 'expected an array or {"branch": {...}}')
        br = word_doc["branch"]
        if not isinstance(br, dict) or set(br) != {"producer", "left", "right", "consumer"}:
            raise SchemaError(
                "word.branch", "expected producer/left/right/consumer arrays"
            )
        producer = _word_from_json(br["producer"], "word.branch.producer", input_type)
        ptgt = validate_word(graph, producer).tgt
        if ptgt.kind is not TypeKind.SUM:
            raise ValidationError(f"producer must end at a sum vertex, got {ptgt.name}")
        left = _word_from_json(br["left"], "word.branch.left", ptgt.args[0])
        right = _word_from_json(br["right"], "word.branch.right", ptgt.args[1])
        ltgt = validate_word(graph, left).tgt
        rtgt = validate_word(graph, right).tgt
        consumer = _word_from_json(br["consumer"], "word.branch.consumer", sum_of(ltgt, rtgt))
        word = BranchProgram(producer, left, right, consumer)
        validate_branch(graph, word)
        src = validate_word(graph, producer).src
    else:
        word = _word_from_json(word_doc, "word", anchor)
        src = validate_word(graph, word).src

    input_doc = _require(doc, "input", "")
    if not isinstance(input_doc, list):
        raise SchemaError("input", "expected an array")
    items = [
        value_from_json(obj, input_type, f"input[{i}]") for i, obj in enumerate(input_doc)
    ]
    input_value = v_list(input_type, items)
    if not input_type.compatible(src):
        raise ValidationError(
            f"input_type {input_type.name} does not feed the word source {src.name}"
        )
    return Program(graph, word, input_value, input_type)


def serialize_program(program: Program) -> Dict[str, Any]:
    """Render a program as its canonical JSON document."""
    threads = []
    for tid in sorted(program.graph.edges):
        spec = program.graph.edges[tid]
        td: Dict[str, Any] = {"id": tid, "fn": spec.fn_name}
        td["init_state"] = value_to_json(spec.init_state)
        if spec.params:
            td["params"] = dict(spec.params)
        threads.append(td)
    doc: Dict[str, Any] = {"threads": threads}
    if isinstance(program.word, BranchProgram):
        doc["word"] = {
            "branch": {
                "producer": list(program.word.producer.letters),
                "left": list(program.word.left.letters),
                "right": list(program.word.right.letters),
                "consumer": list(program.word.consumer.letters),
            }
        }
    else:
        doc["word"] = list(program.word.letters)
        if not program.word.letters:
            doc["anchor"] = program.word.anchor.name
    doc["input"] = [value_to_json(v) for v in program.input.payload]
    doc["input_type"] = program.input_type.name
    return doc


def program_to_text(program: Program) -> str:
    return json.dumps(serialize_program(program), sort_keys=True, separators=(",", ":"))


def program_digest(program: Program) -> str:
    return hashlib.sha256(program_to_text(program).encode("utf-8")).hexdigest()


def export_dot(graph: Multigraph, extended: bool = False) -> str:
    """Graphviz rendering of the thread multigraph.

    Nodes are vertices (labeled by port type name), edges are threads
    (labeled by id), both emitted in sorted order. The extended view
    shows the state-lifted form: vertices paired with the global state
    and edges as the lifted transfer functions.
    """
    lines = ["digraph {"]
    for v in sorted(graph.vertices, key=lambda p: p.name):
        label = f"{v.name}×S" if extended else v.name
        lines.append(f'  "{v.name}" [label="{label}"];')
    for tid in sorted(graph.edges):
        spec = graph.edges[tid]
        label = f"lift({tid})" if extended else str(tid)
        lines.append(f'  "{spec.src.name}" -> "{spec.tgt.name}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
