"""Deterministic stateful-dataflow engine.

Programs are paths (words) over a multigraph whose edges are stateful
transfer functions, each owning one private state slot. Words lift over
lists with exact sequential semantics, and the same semantics can be
executed pipelined, data-parallel, or task-parallel without changing a
single output bit.
"""

from .builtins import BuiltinEntry, builtin, builtin_names, make_thread
from .composition import (
    BranchProgram,
    Word,
    WordSegmentation,
    eval_branch,
    eval_branch_elementwise,
    eval_interleaved,
    eval_phi,
    eval_psi_ref,
    join,
    segment_word,
    smap_check,
    split,
    validate_branch,
    validate_word,
)
from .errors import (
    DuplicateThreadId,
    ExecutionError,
    FlagMismatch,
    ParseError,
    PathMismatch,
    PortTypeError,
    RepeatedLetter,
    SchemaError,
    StcError,
    UnknownFunction,
    UnknownThreadId,
    ValidationError,
)
from .model import (
    Multigraph,
    StageKind,
    StateStore,
    ThreadSpec,
    build_graph,
    init_state,
    is_acyclic,
    register_thread,
)
from .program import (
    Program,
    export_dot,
    parse_program,
    program_digest,
    run_program,
    serialize_program,
)
from .values import (
    BOOL_T,
    FLOAT_T,
    INT_T,
    STR_T,
    UNIT,
    UNIT_T,
    PortType,
    Value,
    list_of,
    pair_of,
    parse_port,
    sum_of,
    v_bool,
    v_float,
    v_inl,
    v_inr,
    v_int,
    v_list,
    v_pair,
    v_str,
    vertex,
    wrap64,
)

__version__ = "0.1.0"

# The fuzzer and check harness, and the threaded executors, load on first
# use: `stc run` and other importers of the engine alone never compile the
# harness, and `seq` and `interleaved` never load threads.
_HARNESS = ("FuzzConfig", "Xorshift64Star", "gen_random_program", "run_fuzz")
_THREADED = ("eval_auto_word", "run_data_parallel_product", "run_data_parallel_readonly",
             "run_pipeline", "run_task_parallel_branch")


def __getattr__(name: str):
    if name in _HARNESS:
        from . import harness as module
    elif name in _THREADED:
        from . import parallel as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
