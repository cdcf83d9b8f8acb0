"""Exception hierarchy shared by all engine modules.

Two broad families: ``ValidationError`` for structurally bad programs
(rejected before execution, CLI exit code 2) and ``ExecutionError`` for
faults raised while a program is running (CLI exit code 3).
"""

from __future__ import annotations


class StcError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StcError):
    """A program, graph, word, or document failed structural validation."""


class DuplicateThreadId(ValidationError):
    def __init__(self, thread_id: int):
        super().__init__(f"thread id {thread_id} is already registered")
        self.thread_id = thread_id


class UnknownFunction(ValidationError):
    def __init__(self, name: str):
        super().__init__(f"no builtin transfer function named {name!r}")
        self.name = name


class UnknownThreadId(ValidationError):
    def __init__(self, thread_id: int):
        super().__init__(f"word references unknown thread id {thread_id}")
        self.thread_id = thread_id


class PathMismatch(ValidationError):
    """Consecutive letters do not compose: produced type != required type.

    ``position`` is the 1-based index (in application order) of the letter
    whose target fails to meet the next letter's source.
    """

    def __init__(self, position: int, produced: object, required: object):
        super().__init__(
            f"letters {position} and {position + 1} do not compose: "
            f"{produced} != {required}"
        )
        self.position = position
        self.produced = produced
        self.required = required


class RepeatedLetter(ValidationError):
    def __init__(self, thread_id: int):
        super().__init__(f"letter {thread_id} occurs more than once in the word")
        self.thread_id = thread_id


class ParseError(ValidationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(ValidationError):
    def __init__(self, path: str, message: str):
        super().__init__(f"at {path or '<root>'}: {message}")
        self.path = path
        self.message = message


class ExecutionError(StcError):
    """A fault raised while evaluating a validated program."""


class PortTypeError(ExecutionError):
    """A value does not inhabit the port type required at its position."""


class FlagMismatch(ExecutionError):
    """A recombination flag demands an element from an exhausted side."""
