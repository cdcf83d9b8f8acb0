from __future__ import annotations

import pytest

from stc import (
    INT_T,
    PathMismatch,
    RepeatedLetter,
    UnknownThreadId,
    Word,
    build_graph,
    eval_interleaved,
    eval_phi,
    eval_psi_ref,
    init_state,
    make_thread,
    segment_word,
    smap_check,
    v_int,
    v_list,
    validate_word,
)
from stc.errors import ValidationError
from stc.harness import program_stream, FuzzConfig
from conftest import B, counter_scale_graph, fig1_graph, int_list


def test_validate_composable_path():
    word = Word((1, 4))  # displays as [4,1]
    src, tgt = validate_word(fig1_graph(), word)
    assert src.name == "a" and tgt.name == "e"
    assert str(word) == "[4,1]"


def test_validate_empty_word_is_identity_anchor():
    src, tgt = validate_word(fig1_graph(), Word((), B))
    assert src == tgt == B


def test_validate_broken_path():
    with pytest.raises(PathMismatch) as err:
        validate_word(fig1_graph(), Word((1, 5)))  # a->b then c->d
    assert err.value.position == 1
    assert err.value.produced.name == "b"
    assert err.value.required.name == "c"


def test_validate_unknown_letter():
    with pytest.raises(UnknownThreadId):
        validate_word(fig1_graph(), Word((99,)))


def test_validate_empty_word_needs_anchor():
    with pytest.raises(ValidationError):
        validate_word(fig1_graph(), Word(()))


def test_phi_empty_word_is_identity():
    graph = counter_scale_graph()
    store = init_state(graph)
    y, out = eval_phi(graph, Word((), INT_T), v_int(7), store)
    assert y == v_int(7)
    assert out == store


def test_phi_counter_single_step():
    graph = counter_scale_graph()
    y, out = eval_phi(graph, Word((1,)), v_int(10), init_state(graph))
    assert y == v_int(10)
    assert out.get(1) == v_int(1)
    assert out.get(2) == v_int(3)  # untouched slot


def test_phi_two_stage_composition():
    graph = counter_scale_graph()
    y, out = eval_phi(graph, Word((1, 2)), v_int(10), init_state(graph))
    assert y == v_int(30)  # (10 + 0) * 3
    assert out.as_dict() == {1: v_int(1), 2: v_int(3)}


def test_psi_empty_list_is_identity():
    graph = counter_scale_graph()
    store = init_state(graph)
    out, st = eval_psi_ref(graph, Word((1, 2)), v_list(INT_T, []), store)
    assert out == v_list(INT_T, [])
    assert st == store


def test_psi_counter_list():
    graph = build_graph(make_thread(1, "counter_add", v_int(0)))
    out, st = eval_psi_ref(graph, Word((1,)), int_list(10, 20, 30), init_state(graph))
    assert out == int_list(10, 21, 32)
    assert st.as_dict() == {1: v_int(3)}


def test_psi_two_stage_list():
    graph = counter_scale_graph()
    out, st = eval_psi_ref(graph, Word((1, 2)), int_list(10, 20), init_state(graph))
    assert out == int_list(30, 63)
    assert st.as_dict() == {1: v_int(2), 2: v_int(3)}


def test_interleaved_empty_list():
    graph = counter_scale_graph()
    store = init_state(graph)
    out, st = eval_interleaved(graph, Word((1, 2)), v_list(INT_T, []), store)
    assert out == v_list(INT_T, [])
    assert st == store


def test_interleaved_matches_reference():
    graph = build_graph(make_thread(1, "counter_add", v_int(0)))
    xs = int_list(10, 20, 30)
    assert eval_interleaved(graph, Word((1,)), xs, init_state(graph)) == eval_psi_ref(
        graph, Word((1,)), xs, init_state(graph)
    )


def test_interleaved_rejects_repeated_letters():
    graph = build_graph(make_thread(1, "counter_add", v_int(0)))
    with pytest.raises(RepeatedLetter) as err:
        eval_interleaved(graph, Word((1, 1)), int_list(1), init_state(graph))
    assert err.value.thread_id == 1


def test_smap_check():
    assert smap_check(Word((1, 4))) == frozenset()
    assert smap_check(Word((6, 7, 6))) == frozenset({6})
    assert smap_check(Word((), B)) == frozenset()


def test_segment_word_already_distinct():
    seg = segment_word(Word((1, 4)))
    assert [s.letters for s in seg] == [(1, 4)]


def test_segment_word_greedy_from_first_applied():
    seg = segment_word(Word((6, 7, 6)))
    assert [s.letters for s in seg] == [(6, 7), (6,)]


def test_segment_word_empty():
    seg = segment_word(Word((), B))
    assert [s.letters for s in seg] == [()]
    assert seg[0].anchor == B


def test_segment_concatenation_reproduces_word(rng):
    for _ in range(200):
        letters = tuple(rng.below(4) + 1 for _ in range(rng.below(10)))
        word = Word(letters, INT_T if not letters else None)
        seg = segment_word(word)
        rebuilt = ()
        for s in seg:
            assert len(set(s.letters)) == len(s.letters)
            rebuilt += s.letters
        assert rebuilt == letters


def _random_program(seed):
    stream = program_stream(FuzzConfig(seed=seed, trials=1))
    while True:
        p = next(stream)
        if not p.is_branch:
            return p


def test_identity_law(rng):
    for seed in range(10):
        p = _random_program(seed)
        store = init_state(p.graph)
        empty = Word((), p.input_type)
        out, st = eval_psi_ref(p.graph, empty, p.input, store)
        assert out == p.input and st == store
        if p.input.payload:
            y, st2 = eval_phi(p.graph, empty, p.input.payload[0], store)
            assert y == p.input.payload[0] and st2 == store


def test_composition_law_phi(rng):
    for seed in range(30):
        p = _random_program(seed)
        word = p.word
        if not word.letters or not p.input.payload:
            continue
        cut = rng.below(len(word.letters) + 1)
        src, _ = validate_word(p.graph, word)
        first = Word(word.letters[:cut], src if cut == 0 else None)
        rest = Word(word.letters[cut:], src if cut == len(word.letters) else None)
        x = p.input.payload[0]
        store = init_state(p.graph)
        whole = eval_phi(p.graph, word, x, store)
        mid, st1 = eval_phi(p.graph, first, x, store)
        assert eval_phi(p.graph, rest, mid, st1) == whole


def test_let_floating_equivalence():
    for seed in range(40):
        p = _random_program(seed)
        if smap_check(p.word):
            continue
        store = init_state(p.graph)
        assert eval_interleaved(p.graph, p.word, p.input, store) == eval_psi_ref(
            p.graph, p.word, p.input, store
        )


def test_functor_law_psi(rng):
    for seed in range(40):
        p = _random_program(seed)
        word = p.word
        cut = rng.below(len(word.letters) + 1)
        src, _ = validate_word(p.graph, word)
        first = Word(word.letters[:cut], src if cut == 0 else None)
        rest = Word(word.letters[cut:], src if cut == len(word.letters) else None)
        store = init_state(p.graph)
        whole = eval_psi_ref(p.graph, word, p.input, store)
        mid, st1 = eval_psi_ref(p.graph, first, p.input, store)
        assert eval_psi_ref(p.graph, rest, mid, st1) == whole


def test_state_frame_untouched_slots():
    graph = counter_scale_graph()
    store = init_state(graph)
    _, st = eval_psi_ref(graph, Word((1,)), int_list(5, 6), store)
    assert st.get(2) == store.get(2)
    assert store.get(1) == v_int(0)  # input store never mutated


def test_word_then_composes_in_application_order():
    w = Word((1,)).then(Word((2,)))
    assert w.letters == (1, 2)
    assert str(w) == "[2,1]"


def test_state_isolation_across_evaluators():
    # Every evaluator touches only the slots named in the word.
    graph = build_graph(
        make_thread(1, "counter_add", v_int(0)),
        make_thread(2, "counter_add", v_int(7)),  # never in the word
    )
    from stc import eval_auto_word, run_pipeline

    xs = int_list(1, 2, 3)
    store = init_state(graph)
    word = Word((1,))
    for result in (
        eval_psi_ref(graph, word, xs, store),
        eval_interleaved(graph, word, xs, store),
        eval_auto_word(graph, word, xs, store),
        run_pipeline(graph, word, xs, store, 2),
    ):
        _, st = result
        assert st.get(2) == v_int(7)
        assert st.get(1) == v_int(3)
    assert store.get(1) == v_int(0)


def test_type_preservation_of_outputs():
    graph = counter_scale_graph()
    word = Word((1, 2))
    _, tgt = validate_word(graph, word)
    out, _ = eval_psi_ref(graph, word, int_list(1, 2), init_state(graph))
    assert out.elem == tgt
    assert all(v.matches(tgt) for v in out.payload)
