import json

import pytest
from collections import Counter

from hypothesis import given, strategies as st

from plactic_lab import StalacticTableau, TaigaTree, Word, ev, fp, p_stal, p_taig

EXAMPLE = Word.letters("3613151265")

letter_seqs = st.lists(st.integers(1, 9), max_size=24)
nonempty_seqs = st.lists(st.integers(1, 9), min_size=1, max_size=24)


def naive_stal(seq):
    """Column list built letter by letter, straight from the definition."""
    columns = []
    for a in reversed(seq):
        for i, (b, m) in enumerate(columns):
            if b == a:
                columns[i] = (b, m + 1)
                break
        else:
            columns.insert(0, (a, 1))
    return tuple(columns)


def naive_taiga(seq):
    """Nested-dict BST with multiplicities, inserted right to left."""

    def insert(node, a):
        if node is None:
            return {"label": a, "mult": 1, "left": None, "right": None}
        if a == node["label"]:
            node["mult"] += 1
        elif a < node["label"]:
            node["left"] = insert(node["left"], a)
        else:
            node["right"] = insert(node["right"], a)
        return node

    root = None
    for a in reversed(seq):
        root = insert(root, a)
    return root


def as_dict(tree: TaigaTree):
    return tree.to_json_dict()


def test_example_tableau():
    t = p_stal(EXAMPLE)
    assert t.columns == ((3, 2), (1, 3), (2, 1), (6, 2), (5, 2))
    assert t.letters() == (3, 1, 2, 6, 5)
    assert t.total() == 10


def test_example_tableau_render():
    assert p_stal(EXAMPLE).render() == "3 1 2 6 5\n3 1   6 5\n  1"
    assert StalacticTableau().render() == "(empty)"


@given(letter_seqs)
def test_stal_matches_naive(seq):
    assert p_stal(seq).columns == naive_stal(seq)


@given(letter_seqs)
def test_stal_counts_and_column_order(seq):
    t = p_stal(seq)
    assert t.as_counter() == ev(seq)
    assert t.letters() == fp(seq).symbols


@given(letter_seqs, letter_seqs)
def test_stal_product_is_concatenation(u, v):
    assert p_stal(u) * p_stal(v) == p_stal(tuple(u) + tuple(v))


def test_stal_insert_steps():
    # an unseen letter opens a new leftmost column, a repeat deepens its own
    t = StalacticTableau()
    t = t.insert(2)
    assert t.columns == ((2, 1),)
    t = t.insert(1)
    assert t.columns == ((1, 1), (2, 1))
    t = t.insert(2)
    assert t.columns == ((1, 1), (2, 2))


def test_stal_json_roundtrip():
    t = p_stal(EXAMPLE)
    data = json.loads(json.dumps(t.to_json_dict()))
    assert StalacticTableau.from_json_dict(data) == t


def test_stal_rejects_bad_columns():
    with pytest.raises(ValueError):
        StalacticTableau(((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        StalacticTableau(((1, 0),))
    for column in ((1.5, 2), (2, 1.0), (True, 1), (2, True)):  # no coercion to int
        with pytest.raises(ValueError):
            StalacticTableau((column,))


def test_stal_reading_word_rebuilds():
    t = StalacticTableau(((3, 2), (1, 1)))
    assert p_stal(t.reading_word()) == t


def test_example_taiga_shape():
    t = p_taig(EXAMPLE)
    assert t.root_label() == 5
    d = as_dict(t)
    assert d["mult"] == 2
    assert d["left"]["label"] == 2 and d["left"]["mult"] == 1
    assert d["left"]["left"]["label"] == 1 and d["left"]["left"]["mult"] == 3
    assert d["left"]["right"]["label"] == 3 and d["left"]["right"]["mult"] == 2
    assert d["right"]["label"] == 6 and d["right"]["mult"] == 2
    assert t.total() == 10


@given(letter_seqs)
def test_taiga_matches_naive(seq):
    assert as_dict(p_taig(seq)) == naive_taiga(seq)


@given(letter_seqs)
def test_taiga_counts_and_validity(seq):
    t = p_taig(seq)
    assert t.as_counter() == ev(seq)
    assert t.is_valid()


@given(nonempty_seqs)
def test_taiga_root_is_last_letter(seq):
    assert p_taig(seq).root_label() == seq[-1]


@given(letter_seqs, letter_seqs)
def test_taiga_product_is_concatenation(u, v):
    assert p_taig(u) * p_taig(v) == p_taig(tuple(u) + tuple(v))


def test_taiga_reading_word_rebuilds():
    t = p_taig(EXAMPLE)
    rebuilt = p_taig(t.reading_word())
    assert rebuilt == t


def test_taiga_json_roundtrip():
    t = p_taig(EXAMPLE)
    data = json.loads(json.dumps(t.to_json_dict()))
    assert TaigaTree.from_json_dict(data) == t
    assert TaigaTree.from_json_dict(None) == TaigaTree()


def test_taiga_render_and_dot():
    t = p_taig(Word.letters("212"))
    text = t.render()
    assert "2^2" in text and "1^1" in text
    dot = t.to_dot()
    assert dot.startswith("digraph")
    assert 'label="2^2"' in dot
    assert TaigaTree().render() == "(empty)"


def test_taiga_validity_check_catches_bad_trees():
    bad = TaigaTree((5, 1, (7, 1, None, None), None))
    assert not bad.is_valid()
    bad_mult = TaigaTree((5, 0, None, None))
    assert not bad_mult.is_valid()
