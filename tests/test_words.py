import pytest
from collections import Counter

from hypothesis import given, strategies as st

from plactic_lab import (
    Identity,
    Word,
    con,
    ev,
    fp,
    ip,
    load_identity_system,
    mix,
)
from plactic_lab.words import _parse_word
from reference import directional_occ, restrict

EXAMPLE = Word.letters("3613151265")

letter_words = st.lists(st.integers(1, 9), max_size=20).map(Word.letters)
variable_words = st.lists(st.from_regex(r"[a-zA-Z][a-z0-9_]{0,2}", fullmatch=True),
                          max_size=6).map(Word.variables)


def test_letter_parsing_compact_and_spaced():
    assert Word.letters("212").symbols == (2, 1, 2)
    assert Word.letters("12 3 12").symbols == (12, 3, 12)
    assert Word.letters([4, 4, 1]).symbols == (4, 4, 1)
    assert Word.letters("").symbols == ()
    # any whitespace splits, not only spaces
    assert Word.letters("12\t3").symbols == (12, 3)
    assert Word.letters("1\n2").symbols == (1, 2)


def test_variable_parsing():
    assert Word.variables("xyx").symbols == ("x", "y", "x")
    assert Word.variables("foo bar foo").symbols == ("foo", "bar", "foo")
    assert Word.variables("x\ty").symbols == ("x", "y")
    with pytest.raises(ValueError):
        Word.variables("2x")
    assert Word.variables(["X1", "y_2"]).symbols == ("X1", "y_2")
    for bad in ([1, 2], "12", ["x", "2x"], ["x", ""], "x y-z"):
        with pytest.raises(ValueError):  # the named constructor enforces its kind
            Word.variables(bad)


def test_letter_validation():
    with pytest.raises(ValueError):
        Word.letters([0])
    with pytest.raises(ValueError):
        Word.letters("1 0")
    for bad in (["x"], "xy", [1, "x"], "1 x", [1, 2.0]):
        with pytest.raises(ValueError):  # the named constructor enforces its kind
            Word.letters(bad)
    # letter text is ASCII digits: no Arabic-Indic digits, no superscripts
    for bad in ("\u0661\u0662", "\u00b2"):
        with pytest.raises(ValueError, match="no decimal number"):
            Word.letters(bad)


def test_mixed_kinds_rejected():
    with pytest.raises(ValueError):
        Word([1, "x"])
    with pytest.raises(ValueError):
        Word.letters("12") + Word.variables("xy")
    with pytest.raises(TypeError):  # only a word concatenates with a word
        Word.letters("1") + 3


def test_empty_word_concatenates_with_both_kinds():
    empty = Word()
    assert (empty + Word.letters("12")).symbols == (1, 2)
    assert (Word.variables("xy") + empty).symbols == ("x", "y")
    assert empty.kind is None


@given(st.lists(st.integers(1, 20), max_size=20).map(Word.letters) | variable_words)
def test_text_roundtrip(w):
    # "12" is two letters: a lone symbol of two or more characters keeps a space
    parse = Word.variables if w.kind == "variable" else Word.letters
    assert parse(w.text()) == w == _parse_word(w.text())


@given(letter_words, letter_words)
def test_ev_additive_under_concat(u, v):
    assert ev(u + v) == ev(u) + ev(v)


def test_content_and_counts():
    assert con(EXAMPLE) == frozenset({1, 2, 3, 5, 6})
    assert ev(EXAMPLE) == Counter({1: 3, 3: 2, 5: 2, 6: 2, 2: 1})


def test_skeletons_of_example():
    assert ip(EXAMPLE).text() == "36152"
    assert fp(EXAMPLE).text() == "31265"
    assert mix(EXAMPLE).text() == "361351265"


@given(letter_words)
def test_ip_is_reverse_of_fp_of_reverse(w):
    assert ip(w) == fp(w.reverse()).reverse()


@given(letter_words)
def test_skeletons_are_simple(w):
    for sk in (ip(w), fp(w)):
        assert len(set(sk.symbols)) == len(sk.symbols)
        assert set(sk.symbols) == set(w.symbols)


@given(letter_words)
def test_mix_contains_ip_and_fp_positions(w):
    m = Counter(mix(w).symbols)
    for s in con(w):
        assert m[s] == (1 if w.symbols.count(s) == 1 else 2)


def test_directional_occ_on_example():
    # last 1 sits before the suffix 265; first 5 sits after the prefix 36131
    assert directional_occ("after", 1, 2, EXAMPLE) == 1
    assert directional_occ("after", 1, 6, EXAMPLE) == 1
    assert directional_occ("after", 1, 3, EXAMPLE) == 0
    assert directional_occ("before", 5, 3, EXAMPLE) == 2
    assert directional_occ("before", 5, 1, EXAMPLE) == 2
    assert directional_occ("before", 5, 6, EXAMPLE) == 1
    assert directional_occ("before", 3, 3, EXAMPLE) == 0


def test_restrict():
    assert restrict(EXAMPLE, {1, 3}).text() == "31311"
    assert restrict(EXAMPLE, set()).symbols == ()


@given(letter_words, st.sets(st.integers(1, 9)))
def test_restrict_idempotent(w, keep):
    once = restrict(w, keep)
    assert restrict(once, keep) == once


def test_identity_parse_and_text():
    ident = Identity.parse("xyx = yxx")
    assert ident.lhs == Word.variables("xyx")
    assert ident.text() == "xyx = yxx"
    assert Identity.parse("xysxty ≈ yxsxty").variables() == ("s", "t", "x", "y")
    assert Identity.parse("x = x").is_trivial()
    assert Identity.parse("foo = bar").lhs.symbols == ("f", "o", "o")  # each side is stripped
    with pytest.raises(ValueError):
        Identity.parse("xy = yx = xx")
    with pytest.raises(ValueError):
        Identity(Word.letters("12"), Word.letters("21"))


def test_load_identity_system(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text("# basis\nxyx = yxx\n\nxy = yx  # swap\n")
    rules = load_identity_system(path)
    assert [r.text() for r in rules] == ["xyx = yxx", "xy = yx"]


def test_word_slicing_and_indexing():
    assert EXAMPLE[0] == 3
    assert EXAMPLE[2:5] == Word.letters("131")
    assert EXAMPLE.reverse().reverse() == EXAMPLE
    assert len(EXAMPLE) == 10
