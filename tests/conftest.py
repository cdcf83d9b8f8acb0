from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from stc import (
    INT_T,
    build_graph,
    make_thread,
    v_int,
    vertex,
)
from stc.harness import Xorshift64Star

A, B, C, D, E = (vertex(name, INT_T) for name in "abcde")

# Edges of the running seven-thread example: two parallel a->b edges, a
# fan-in at b, and a two-cycle between d and e.
FIG1_EDGES = [
    (1, A, B),
    (2, A, B),
    (3, C, B),
    (4, B, E),
    (5, C, D),
    (6, E, D),
    (7, D, E),
]


def fig1_graph():
    specs = [
        make_thread(n, "delay_identity_ms").at(src, tgt) for n, src, tgt in FIG1_EDGES
    ]
    return build_graph(*specs)


def counter_scale_graph():
    """Thread 1 counts (y = x + s, s += 1); thread 2 scales by a frozen 3."""
    return build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "scale_by_state", v_int(3)),
    )


def int_list(*ns):
    from stc import v_list

    return v_list(INT_T, [v_int(n) for n in ns])


@pytest.fixture
def rng():
    return Xorshift64Star(0xDECAFBAD)


@contextmanager
def thread_starts(fail_at=None):
    """Collect every ``Thread.start`` inside the block. With ``fail_at=n``
    the n-th call raises, as it does when the OS cannot start another
    thread."""
    calls = []
    real_start = threading.Thread.start

    def start(thread, *args, **kwargs):
        calls.append(thread)
        if len(calls) == fail_at:
            raise RuntimeError("can't start new thread")
        return real_start(thread, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", start)
        yield calls
