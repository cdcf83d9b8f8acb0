"""Serializable program format, the program runner, and graph exporters.

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

Literals are read straight into raw values (``read_items``) and raw
results are rendered straight to JSON (``dump_raw``), so ``stc run``
builds no ``Value``; ``run_raw`` plans through ``composition.planner``.
A ``Program`` holds its input list raw, and ``Program.input`` boxes it
on first use for callers of the boxed API.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .builtins import instance, thread_of
from .composition import (
    BranchProgram,
    Shape,
    Word,
    check_feeds,
    endpoints,
    planner,
    unbox_input,
    validate_word,
)
from .errors import ParseError, PortTypeError, SchemaError, ValidationError
from .model import Multigraph, StateStore, boxed_store, build_graph, initial_slots
from .values import (
    INT64_MAX,
    INT64_MIN,
    MAX_NESTING,
    Inl,
    Inr,
    PortType,
    Tag,
    TypeKind,
    Value,
    box_list,
    boxer,
    parse_port,
    sum_of,
)


class Program:
    """One runnable unit: a graph, a word (or branch) over it, and a
    typed input list.

    The input list is held as raw elements of ``input_type``. The
    constructor unboxes a boxed list once, and raises ``PortTypeError``
    unless it is a list whose elements feed ``input_type``; ``from_raw``
    takes raw elements. ``input`` boxes them on first use."""

    __slots__ = ("graph", "word", "input_type", "_items", "_input")

    def __init__(self, graph: Multigraph, word: Shape, input: Value, input_type: PortType):
        if not isinstance(input_type, PortType):
            raise PortTypeError(f"expected a port type, got {input_type!r}")
        self.graph, self.word, self.input_type = graph, word, input_type
        self._items = tuple(unbox_input(input, input_type))
        self._input: Optional[Value] = input

    @classmethod
    def from_raw(
        cls, graph: Multigraph, word: Shape, items: Sequence[Any], input_type: PortType
    ) -> "Program":
        """A program whose raw input elements already inhabit ``input_type``."""
        program = cls.__new__(cls)
        program.graph, program.word, program.input_type = graph, word, input_type
        program._items, program._input = tuple(items), None
        return program

    @property
    def input(self) -> Value:
        if self._input is None:
            self._input = box_list(self.input_type, self._items)
        return self._input

    def raw_input(self, src: PortType) -> tuple:
        """The raw input elements, for a word with source ``src``; raises
        ``PortTypeError`` unless ``input_type`` feeds ``src``."""
        check_feeds(self.input_type, src)
        return self._items

    @property
    def is_branch(self) -> bool:
        return isinstance(self.word, BranchProgram)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return (self.graph, self.word, self.input_type, self.input) == (
            other.graph, other.word, other.input_type, other.input
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Program(word={self.word}, input_type={self.input_type.name})"


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


class _Misfit(Exception):
    """A literal that does not fit its port type. ``steps`` collects the
    path below the point of failure, innermost first, as the error
    unwinds, so no path text is built unless a literal fails."""

    def __init__(self, message: str):
        self.message = message
        self.steps: List[str] = []


def _read(obj: Any, pt: PortType, depth: int) -> Any:
    if depth > MAX_NESTING:
        raise _Misfit(f"value nests deeper than {MAX_NESTING} levels")
    k = pt.kind
    if k is TypeKind.UNIT:
        if obj is not None:
            raise _Misfit(f"expected null for unit, got {_brief(obj)}")
        return None
    if k is TypeKind.BOOL:
        if type(obj) is not bool:
            raise _Misfit(f"expected a bool, got {_brief(obj)}")
        return obj
    if k is TypeKind.INT:
        if type(obj) is not int or not INT64_MIN <= obj <= INT64_MAX:
            raise _Misfit(f"expected a 64-bit int, got {_brief(obj)}")
        return obj
    if k is TypeKind.FLOAT:
        if type(obj) is bool or not isinstance(obj, (int, float)):
            raise _Misfit(f"expected a number, got {_brief(obj)}")
        try:
            return float(obj)
        except OverflowError:  # an int literal past the float range
            raise _Misfit(f"{_brief(obj)} is outside the float range") from None
    if k is TypeKind.STR:
        if type(obj) is not str:
            raise _Misfit(f"expected a string, got {_brief(obj)}")
        return obj
    if k is TypeKind.LIST:
        if not isinstance(obj, list):
            raise _Misfit(f"expected an array, got {_brief(obj)}")
        return tuple(_read_items(obj, pt.args[0], depth + 1))
    if k is TypeKind.PAIR:
        if not isinstance(obj, list) or len(obj) != 2:
            raise _Misfit(f"expected a two-element array, got {_brief(obj)}")
        return (
            _read_at(obj[0], pt.args[0], depth + 1, "[0]"),
            _read_at(obj[1], pt.args[1], depth + 1, "[1]"),
        )
    if isinstance(obj, dict) and len(obj) == 1:
        if "inl" in obj:
            return Inl(_read_at(obj["inl"], pt.args[0], depth + 1, ".inl"))
        if "inr" in obj:
            return Inr(_read_at(obj["inr"], pt.args[1], depth + 1, ".inr"))
    raise _Misfit(f'expected {{"inl": ...}} or {{"inr": ...}}, got {_brief(obj)}')


def _read_at(obj: Any, pt: PortType, depth: int, step: str) -> Any:
    try:
        return _read(obj, pt, depth)
    except _Misfit as bad:
        bad.steps.append(step)
        raise


# element types whose literals need no conversion: JSON type -> kind
_PLAIN = {TypeKind.BOOL: bool, TypeKind.STR: str}


def _read_items(objs: list, pt: PortType, depth: int) -> list:
    """The elements of a JSON array, read at ``depth``. Arrays of flat
    scalars are checked in bulk; only a failing bulk check reads element
    by element to find the first misfit."""
    if depth <= MAX_NESTING:
        types = set(map(type, objs))
        k = pt.kind
        if k is TypeKind.INT and types <= {int}:
            if not objs or (INT64_MIN <= min(objs) and max(objs) <= INT64_MAX):
                return objs
        elif k is TypeKind.FLOAT and types <= {int, float}:
            try:
                return list(map(float, objs))
            except OverflowError:
                pass  # the element loop below names the literal
        elif k in _PLAIN and types <= {_PLAIN[k]}:
            return objs
    out = []
    for i, obj in enumerate(objs):
        try:
            out.append(_read(obj, pt, depth))
        except _Misfit as bad:
            bad.steps.append(f"[{i}]")
            raise
    return out


def _misfit_error(bad: _Misfit, path: str) -> SchemaError:
    return SchemaError(path + "".join(reversed(bad.steps)), bad.message)


def read_items(objs: list, pt: PortType, path: str) -> list:
    """The raw values of the JSON literals in the array ``objs`` at
    ``path``, each read against ``pt``."""
    try:
        return _read_items(objs, pt, 0)
    except _Misfit as bad:
        raise _misfit_error(bad, path) from None


def value_from_json(obj: Any, pt: PortType, path: str) -> Value:
    """Read a plain JSON literal against an expected port type; a literal
    that nests deeper than ``MAX_NESTING`` is rejected."""
    try:
        raw = _read(obj, pt, 0)
    except _Misfit as bad:
        raise _misfit_error(bad, path) from None
    return boxer(pt)(raw)


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


def _sum_json(r: Any) -> Any:
    """``json`` fallback for the one raw constructor it does not know:
    tuples already render as arrays, so only sums need a hand."""
    if type(r) is Inl:
        return {"inl": r.value}
    if type(r) is Inr:
        return {"inr": r.value}
    raise TypeError(f"{type(r).__name__} is not a raw value")


def dump_raw(doc: Any, **kwargs) -> str:
    """``json.dumps`` of a document holding raw values; the text equals
    that of the same document with every value passed through
    ``value_to_json``."""
    return json.dumps(doc, default=_sum_json, **kwargs)


# what ``run_raw`` returns: the output's element type, the raw output
# elements and ``{thread id: raw state}``
RawResult = Tuple[PortType, Sequence[Any], Dict[int, Any]]


def run_raw(program: Program, mode: str, workers: int = 4, check: bool = False) -> RawResult:
    """Evaluate a program like ``run_program`` but build no ``Value``:
    returns the output's element type, the raw output elements and
    ``{thread id: raw state}`` for every thread."""
    plan = planner(program.graph, program.word, check=check)(mode, workers)
    items, slots = plan.core(program.raw_input(plan.src), initial_slots(program.graph))
    return plan.tgt, items, slots


def run_program(
    program: Program,
    mode: str,
    workers: int = 4,
    check: bool = False,
) -> Tuple[Value, StateStore]:
    """Evaluate a program under one of the four execution modes.

    Returns the output list and the final store, boxed."""
    tgt, items, slots = run_raw(program, mode, workers, check)
    return box_list(tgt, items), boxed_store(program.graph, StateStore({}), slots)


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
        # an init literal is read against the state type of the claim
        try:
            made = instance(fn, params)
        except SchemaError as exc:
            raise SchemaError(f"{path}.{exc.path}", exc.message) from None
        init = td.get("init_state")
        if "init_state" in td:
            init = value_from_json(init, made.state_type, f"{path}.init_state")
        specs.append(thread_of(made, tid, init, params))
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
    word: Shape
    if isinstance(word_doc, dict):
        if set(word_doc) != {"branch"}:
            raise SchemaError("word", 'expected an array or {"branch": {...}}')
        br = word_doc["branch"]
        if not isinstance(br, dict) or set(br) != {"producer", "left", "right", "consumer"}:
            raise SchemaError(
                "word.branch", "expected producer/left/right/consumer arrays"
            )
        producer = _word_from_json(br["producer"], "word.branch.producer", input_type)
        ptgt = validate_word(graph, producer)[1]
        if ptgt.kind is not TypeKind.SUM:
            raise SchemaError(
                "word.branch.producer", f"must end at a sum vertex, got {ptgt.name}"
            )
        left = _word_from_json(br["left"], "word.branch.left", ptgt.args[0])
        right = _word_from_json(br["right"], "word.branch.right", ptgt.args[1])
        ltgt = validate_word(graph, left)[1]
        rtgt = validate_word(graph, right)[1]
        consumer = _word_from_json(br["consumer"], "word.branch.consumer", sum_of(ltgt, rtgt))
        word = BranchProgram(producer, left, right, consumer)
    else:
        word = _word_from_json(word_doc, "word", anchor)
    src = endpoints(graph, word)[0]

    input_doc = _require(doc, "input", "")
    if not isinstance(input_doc, list):
        raise SchemaError("input", "expected an array")
    items = read_items(input_doc, input_type, "input")
    if not input_type.compatible(src):
        raise ValidationError(
            f"input_type {input_type.name} does not feed the word source {src.name}"
        )
    return Program.from_raw(graph, word, items, input_type)


def serialize_program(program: Program) -> Dict[str, Any]:
    """Render a program as its canonical JSON document. The input holds
    the program's raw elements, so the document is one for ``dump_raw``."""
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
    doc["input"] = list(program._items)
    doc["input_type"] = program.input_type.name
    return doc


def program_to_text(program: Program) -> str:
    return dump_raw(serialize_program(program), sort_keys=True, separators=(",", ":"))


def program_digest(program: Program) -> str:
    import hashlib  # imported here, so that `stc run` does not load it

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
