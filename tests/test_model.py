from __future__ import annotations

import pytest

from stc import (
    DuplicateThreadId,
    INT_T,
    Multigraph,
    PortTypeError,
    STR_T,
    UnknownFunction,
    build_graph,
    init_state,
    is_acyclic,
    make_thread,
    register_thread,
    v_int,
    v_str,
    vertex,
)
from conftest import A, B, C, fig1_graph


def test_register_single_counter():
    graph = register_thread(make_thread(1, "counter_add", v_int(0)), Multigraph())
    assert set(graph.edges) == {1}
    assert graph.vertices == {INT_T}
    assert graph.src(1) == INT_T and graph.tgt(1) == INT_T


def test_register_duplicate_id_rejected():
    graph = register_thread(make_thread(1, "counter_add"), Multigraph())
    with pytest.raises(DuplicateThreadId):
        register_thread(make_thread(1, "scale_by_state"), graph)


def test_build_graph_makes_one_multigraph(monkeypatch):
    # one dict filled in one pass: a graph per spec would copy the edges
    # once per spec, and parsing would grow with the square of the thread count
    made = []
    real_init = Multigraph.__init__

    def counting_init(graph, *args, **kwargs):
        made.append(graph)
        real_init(graph, *args, **kwargs)

    monkeypatch.setattr(Multigraph, "__init__", counting_init)
    graph = build_graph(*(make_thread(n, "counter_add") for n in range(1, 101)))
    assert made == [graph]
    assert list(graph.edges) == list(range(1, 101)) and graph.vertices == {INT_T}


def test_build_graph_rejects_the_first_repeated_id():
    specs = [make_thread(n, "counter_add") for n in (1, 2, 2, 1)]
    with pytest.raises(DuplicateThreadId, match="^thread id 2 is already registered$"):
        build_graph(*specs)


def test_unknown_function_rejected():
    with pytest.raises(UnknownFunction):
        make_thread(1, "nope")


def test_register_is_nondestructive():
    g0 = Multigraph()
    g1 = register_thread(make_thread(1, "counter_add"), g0)
    assert not g0.edges and len(g1.edges) == 1


def test_seven_edge_graph_shape():
    graph = fig1_graph()
    assert len(graph.edges) == 7
    assert len(graph.vertices) == 5


def test_init_state_empty_graph():
    assert init_state(Multigraph()).as_dict() == {}


def test_init_state_copies_declared_inits():
    graph = build_graph(make_thread(1, "counter_add", v_int(0)))
    assert init_state(graph).as_dict() == {1: v_int(0)}

    graph = build_graph(
        make_thread(3, "counter_add", v_int(10)),
        make_thread(5, "append_tag", v_str("x")),
    )
    assert init_state(graph).as_dict() == {3: v_int(10), 5: v_str("x")}


def test_is_acyclic_on_cycle():
    assert is_acyclic(fig1_graph()) is False


def test_is_acyclic_single_edge():
    graph = build_graph(make_thread(1, "delay_identity_ms").at(A, B))
    assert is_acyclic(graph) is True


def test_is_acyclic_parallel_edges_are_not_cycles():
    graph = build_graph(
        make_thread(1, "delay_identity_ms").at(A, B),
        make_thread(2, "delay_identity_ms").at(B, C),
        make_thread(3, "delay_identity_ms").at(A, B),
    )
    assert is_acyclic(graph) is True


def test_is_acyclic_self_loop():
    graph = build_graph(make_thread(1, "counter_add"))
    assert is_acyclic(graph) is False  # int -> int is a self-loop vertex-wise


def test_state_store_domain_is_fixed():
    graph = build_graph(make_thread(1, "counter_add"))
    store = init_state(graph)
    with pytest.raises(KeyError):
        store.set(2, v_int(1))
    assert store.domain == frozenset({1})


def test_state_store_set_replaces_a_slot_and_prints_sorted():
    graph = build_graph(make_thread(2, "append_tag", v_str("t")), make_thread(1, "counter_add"))
    store = init_state(graph)
    store.set(1, v_int(7))
    assert store.get(1) == v_int(7) and store.domain == frozenset({1, 2})
    assert repr(store) == f"{{1: {v_int(7)!r}, 2: {v_str('t')!r}}}"


def test_vertex_renaming_rejects_an_incompatible_carrier():
    with pytest.raises(PortTypeError, match="cannot move to incompatible vertices"):
        make_thread(9, "counter_add").at(vertex("a", STR_T), vertex("b", INT_T))


def test_vertex_renaming_keeps_structure():
    spec = make_thread(9, "delay_identity_ms").at(vertex("a", INT_T), vertex("b", INT_T))
    assert spec.src.name == "a" and spec.tgt.name == "b"
    assert spec.src.compatible(INT_T)


def test_records_compare_hash_and_print_by_their_fields():
    # the records are plain classes that compare, hash and print as the
    # frozen dataclasses they replace did
    from stc import Word
    from stc.model import replace
    from stc.values import TypeKind

    assert repr(INT_T) == "PortType(name='int', kind=<TypeKind.INT: 'int'>, args=())"
    assert hash(INT_T) == hash(("int", TypeKind.INT, ()))
    assert INT_T != ("int", TypeKind.INT, ()) and vertex("a", INT_T) != INT_T
    assert Word((1, 2)) == Word((1, 2)) and hash(Word((1, 2))) == hash(((1, 2), None))
    assert repr(Word((), INT_T)) == f"Word(letters=(), anchor={INT_T!r})"
    spec = make_thread(1, "counter_add", v_int(4))
    # neither the blocking hint nor the functions take part in ==, and
    # repr shows the hint but no function
    assert spec == replace(spec, blocking=True, transfer=None)
    assert spec != replace(spec, init_state=v_int(5))
    assert repr(spec).endswith("fn_name='counter_add', params={}, "
                               "kind=<StageKind.GENERAL: 'general'>, blocking=False)")
    with pytest.raises(TypeError):
        hash(spec)  # its params are a dict
    with pytest.raises(TypeError):
        replace(spec, colour="red")
    assert Multigraph().edges == {} and Multigraph().edges is not Multigraph().edges
