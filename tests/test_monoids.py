import enum
import hashlib
import itertools
import pickle
import random

import pytest

from hypothesis import given, strategies as st

from plactic_lab import (
    BaxterObject,
    Exhaustive,
    FiniteMonoid,
    Identity,
    L21,
    LeftStrictBST,
    MonoidFamily,
    R21,
    RankViolationError,
    RightStrictBST,
    StalacticTableau,
    TaigaTree,
    UnboundVariableError,
    Word,
    alphabet_cap,
    canonical,
    check_rank,
    equivalent,
    eval_in_finite,
    ev,
    oracle,
    p_baxt,
    p_stal,
    p_sylv,
    p_sylv_sharp,
    p_taig,
)
from plactic_lab import bst, tableaux
from plactic_lab.monoids import _FAMILIES

INSERTION = (
    MonoidFamily.STAL,
    MonoidFamily.TAIG,
    MonoidFamily.SYLV,
    MonoidFamily.SYLV_SHARP,
    MonoidFamily.BAXT,
)

letter_seqs = st.lists(st.integers(1, 6), max_size=18)


def test_family_parsing():
    assert MonoidFamily.parse("sylv") is MonoidFamily.SYLV
    assert MonoidFamily.parse("sylvsharp") is MonoidFamily.SYLV_SHARP
    assert str(MonoidFamily.BAXT) == "baxt"
    with pytest.raises(ValueError):
        MonoidFamily.parse("plactic")


def test_alphabet_caps():
    assert alphabet_cap(MonoidFamily.FREE_MONOGENIC) == 1
    assert alphabet_cap(MonoidFamily.LEFT_ZERO) == 2
    assert alphabet_cap(MonoidFamily.RIGHT_ZERO) == 2
    assert alphabet_cap(MonoidFamily.SYLV) is None


def test_check_rank():
    check_rank(Word.letters("123"), 3)
    with pytest.raises(RankViolationError):
        check_rank(Word.letters("123"), 2)


def test_adjoined_zero_tables():
    for x in ("a", "b"):
        for y in ("a", "b"):
            assert L21.mul(x, y) == x
            assert R21.mul(x, y) == y
    for m in (L21, R21):
        for x in m.elements:
            assert m.mul("1", x) == x == m.mul(x, "1")


def test_finite_monoid_validation():
    with pytest.raises(ValueError):
        FiniteMonoid("bad", ("1", "a"), "1", {("1", "1"): "1"})
    with pytest.raises(ValueError, match="duplicate elements"):
        FiniteMonoid("twice", ("1", "1"), "1", {("1", "1"): "1"})
    with pytest.raises(ValueError, match="unit must be an element"):
        FiniteMonoid("no-such-unit", ("a",), "1", {("a", "a"): "a"})
    table = {
        (x, y): "a" for x, y in itertools.product(("1", "a"), repeat=2)
    }
    with pytest.raises(ValueError):
        FiniteMonoid("no-unit", ("1", "a"), "1", table)
    # xy = x on both letters but broken associativity via a sneaky unit row
    assoc_break = {
        ("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "1",
        ("1", "b"): "b", ("b", "1"): "b", ("b", "b"): "a", ("a", "b"): "b",
        ("b", "a"): "b",
    }
    with pytest.raises(ValueError):
        FiniteMonoid("nonassoc", ("1", "a", "b"), "1", assoc_break)


def test_fold():
    assert L21.fold([]) == "1"
    assert L21.fold(["a", "b", "a"]) == "a"
    assert R21.fold(["a", "b"]) == "b"


def test_eval_in_finite():
    w = Word.variables("xyx")
    assert eval_in_finite(L21, w, {"x": "a", "y": "b"}) == "a"
    assert eval_in_finite(R21, w, {"x": "a", "y": "b"}) == "a"
    assert eval_in_finite(R21, Word.variables("xy"), {"x": "a", "y": "1"}) == "a"
    with pytest.raises(UnboundVariableError):
        eval_in_finite(L21, w, {"x": "a"})
    with pytest.raises(ValueError):
        eval_in_finite(L21, w, {"x": "a", "y": "z"})


def test_canonical_dispatch():
    w = Word.letters("212")
    assert canonical(MonoidFamily.STAL, w) == p_stal(w)
    assert canonical(MonoidFamily.TAIG, w) == p_taig(w)
    assert canonical(MonoidFamily.SYLV, w) == p_sylv(w)
    assert canonical(MonoidFamily.SYLV_SHARP, w) == p_sylv_sharp(w)
    assert canonical(MonoidFamily.BAXT, w) == p_baxt(w)
    assert canonical(MonoidFamily.FREE_MONOGENIC, Word.letters("111")) == 3
    assert canonical(MonoidFamily.LEFT_ZERO, w) == "b"
    assert canonical(MonoidFamily.RIGHT_ZERO, w) == "b"
    assert canonical(MonoidFamily.RIGHT_ZERO, Word.letters("21")) == "a"


def test_canonical_rejects_letters_outside_cap():
    with pytest.raises(RankViolationError):
        canonical(MonoidFamily.FREE_MONOGENIC, Word.letters("12"))
    with pytest.raises(RankViolationError):
        canonical(MonoidFamily.LEFT_ZERO, Word.letters("123"))


@pytest.mark.parametrize("insert", [p_stal, p_taig, p_sylv, p_sylv_sharp, p_baxt])
@pytest.mark.parametrize("seq", [[1.5, 2], [2.5], [2.0], [True, 2], [2, False], [0], [3, -1],
                                 ["x", "y"], [1, "x"], Word.variables("xy")])
def test_insertion_refuses_non_letters(insert, seq):
    for w in (seq, tuple(seq)):  # a tuple goes straight to the letter check
        with pytest.raises(ValueError):  # letters are integers >= 1, as in Word
            insert(w)


class Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize("bad", [0, -3, True, 1.5, Colour.RED, None],
                         ids=["0", "-3", "True", "1.5", "IntEnum", "None"])
def test_every_symbol_check_refuses_the_same_non_letters(bad):
    # letters are exact ints >= 1 wherever the package meets them
    seq = [2, bad, 1]
    loaders = [
        lambda: RightStrictBST.from_json_dict({"label": bad, "left": None, "right": None}),
        lambda: LeftStrictBST.from_json_dict({"label": bad, "left": None, "right": None}),
        lambda: TaigaTree.from_json_dict({"label": bad, "mult": 1, "left": None, "right": None}),
        lambda: TaigaTree.from_json_dict({"label": 1, "mult": bad, "left": None, "right": None}),
        lambda: StalacticTableau.from_json_dict({"columns": [{"letter": bad, "mult": 1}]}),
        lambda: StalacticTableau.from_json_dict({"columns": [{"letter": 1, "mult": bad}]}),
        lambda: BaxterObject.from_json_dict({"sharp": {"label": bad, "left": None, "right": None},
                                             "plain": {"label": bad, "left": None, "right": None}}),
    ]
    refusers = ([lambda: Word.letters(seq), lambda: Word(seq), lambda: check_rank(seq, 9)]
                + [lambda f=f: f(seq) for f in (p_stal, p_taig, p_sylv, p_sylv_sharp, p_baxt)]
                + [lambda fam=fam, w=w: canonical(fam, w) for fam in MonoidFamily
                   for w in (seq, tuple(seq))]
                + [lambda fam=fam, u=u, v=v: equivalent(fam, u, v) for fam in MonoidFamily
                   for u, v in ((seq, (1,)), ((1,), tuple(seq)))] + loaders)
    for refuse in refusers:
        with pytest.raises(ValueError):
            refuse()
    # one bad symbol in a long word: the message names it, not the word
    long = [1] * 50_000 + [bad] + [2] * 49_999
    for refuse in (lambda: Word.letters(long), lambda: check_rank(long, 9),
                   lambda: p_sylv(long), lambda: canonical(MonoidFamily.LEFT_ZERO, long)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert len(str(info.value)) < 200
    for text in ("1" * 50_000 + "x", "x" * 50_000 + "1"):
        for parse in (Word.letters, Word.variables):
            with pytest.raises(ValueError) as info:
                parse(text)
            assert len(str(info.value)) < 200


def test_every_kind_of_word_gives_the_same_object():
    w = (3, 6, 1, 3, 1, 5, 1, 2, 6, 5)
    for fam in INSERTION:
        objs = [canonical(fam, x) for x in (w, list(w), Word(w), "3613151265", iter(w))]
        assert all(obj == objs[0] and obj.reading_word() == w for obj in objs)


def test_canonical_calls_the_public_insertion_once(monkeypatch):
    # code that wraps these functions, like the bench's traced pass, sees every call
    names = [(tableaux, "p_stal"), (tableaux, "p_taig"), (bst, "p_sylv"),
             (bst, "p_sylv_sharp"), (bst, "p_baxt")]
    calls = []

    def counting(name, insert):
        def counted(w):
            calls.append(name)
            return insert(w)
        return counted

    for module, name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for fam, (module, name) in zip(INSERTION, names):
        calls.clear()
        canonical(fam, (2, 1, 3))
        assert calls == [name]


def test_families_pickle_to_themselves_and_key_dicts():
    table = {fam: fam.value for fam in MonoidFamily}
    for fam in MonoidFamily:
        copy = pickle.loads(pickle.dumps(fam))
        assert copy is fam and hash(copy) == hash(fam) and table[copy] == fam.value
        assert MonoidFamily.parse(fam.value) is fam and MonoidFamily(fam.value) is fam
    assert len(set(MonoidFamily)) == len(table) == 8


def test_insertion_keys_are_pinned():
    # pickles and hashes rest on the keys: a faster kernel must keep them byte for byte
    rng = random.Random(21)
    words = []
    for _ in range(2000):
        rank = rng.randint(1, 9)
        n = rng.randint(0, 40)
        words.append(tuple(rng.randint(1, rank) for _ in range(n)))
    long = _long_words(600)
    words += [long["monotone"], long["monotone"][::-1], long["zigzag"], long["binary"], (5,) * 600]
    digest = hashlib.sha256()
    for fam in INSERTION:
        for w in words:
            key = canonical(fam, w)._key
            assert key == _FAMILIES[fam].key(list(w))  # the oracle hands the key builders lists
            digest.update(repr(key).encode())
    assert (len(INSERTION) * len(words), digest.hexdigest()) == (
        10025, "fd45181d3be3586a3435d4933685416c55e4fc05e60c5b0fd611e7ea973aa3c7")


@given(letter_seqs, letter_seqs)
def test_equivalent_agrees_with_canonical_objects(u, v):
    for fam in INSERTION:
        assert equivalent(fam, u, v) == (canonical(fam, u) == canonical(fam, v))
    # the reference monoids take words over {1, 2} (l21, r21) and {1} (free1)
    for fam in (MonoidFamily.LEFT_ZERO, MonoidFamily.RIGHT_ZERO, MonoidFamily.FREE_MONOGENIC):
        cap = alphabet_cap(fam)
        cu, cv = [(a - 1) % cap + 1 for a in u], [(a - 1) % cap + 1 for a in v]
        assert equivalent(fam, cu, cv) == (canonical(fam, cu) == canonical(fam, cv))


@given(st.lists(st.integers(1, 2), max_size=14), st.lists(st.integers(1, 2), max_size=14))
def test_rank_two_stal_and_taiga_coincide(u, v):
    assert equivalent(MonoidFamily.STAL, u, v) == equivalent(MonoidFamily.TAIG, u, v)


@given(letter_seqs)
def test_baxter_equivalence_is_conjunction(seq):
    # the pair object separates words exactly when one of its components does
    u = tuple(seq)
    v = tuple(reversed(seq))
    both = equivalent(MonoidFamily.SYLV, u, v) and equivalent(
        MonoidFamily.SYLV_SHARP, u, v
    )
    assert equivalent(MonoidFamily.BAXT, u, v) == both


def _long_words(n):
    return {
        "monotone": tuple(range(1, n + 1)),
        "zigzag": tuple(i // 2 + 1 if i % 2 == 0 else n - i // 2 for i in range(n)),
        "binary": tuple(1 + (i * 7919 % 13 < 6) for i in range(n)),
    }


@pytest.mark.parametrize("shape", ["monotone", "zigzag", "binary"])
def test_tree_families_on_long_words(shape):
    # trees about as deep as the word is long: no step may recurse per level
    w = _long_words(10**5)[shape]
    counts = ev(w)
    for fam in (MonoidFamily.TAIG, MonoidFamily.SYLV, MonoidFamily.SYLV_SHARP,
                MonoidFamily.BAXT):
        obj = canonical(fam, w)
        assert equivalent(fam, w, w)
        assert hash(obj) == hash(canonical(fam, w))
        assert obj.as_counter() == counts
        assert type(obj).from_json_dict(obj.to_json_dict()) == obj
        nodes = len(counts) if fam is MonoidFamily.TAIG else len(w)
        for tree in (obj.sharp, obj.plain) if fam is MonoidFamily.BAXT else (obj,):
            assert tree.render().count("\n") == nodes - 1
            assert tree.to_dot().count("->") == nodes - 1
            assert repr(tree).startswith(f"{type(tree).__name__}((")
            assert type(tree)(tree.root) == tree
    assert p_sylv(w).root_label() == p_taig(w).root_label() == w[-1]
    assert p_sylv_sharp(w).root_label() == w[0]
    assert not equivalent(MonoidFamily.SYLV, w, w[1:] + w[:1])


@given(letter_seqs, letter_seqs)
def test_objects_are_their_family_keys(u, v):
    # an insertion family's object is its equivalence key plus the word, so
    # object equality is, by construction, the relation equivalent decides
    for fam in INSERTION:
        key_u, key_v = _FAMILIES[fam].key(tuple(u)), _FAMILIES[fam].key(tuple(v))
        obj_u, obj_v = canonical(fam, u), canonical(fam, v)
        assert obj_u._key == key_u and obj_v._key == key_v
        assert (obj_u == obj_v) == (key_u == key_v)
        if key_u == key_v:
            assert hash(obj_u) == hash(obj_v)
        assert hash(obj_u) == hash(type(obj_u)._make(key_u))


def test_objects_words_and_verdicts_pickle():
    w = Word.letters("3613151265")
    objects = [canonical(fam, w) for fam in INSERTION]
    ident = Identity.parse("xyx = yxx")
    for value in objects + [w, ident]:
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
        with pytest.raises(AttributeError):
            copy._key = None
    for obj in objects:
        assert pickle.loads(pickle.dumps(obj)).reading_word() == w.symbols
    verdict = oracle(MonoidFamily.SYLV, 2, ident, Exhaustive(1))
    copy = pickle.loads(pickle.dumps(verdict))
    assert copy == verdict and copy.substitution["x"] == Word.letters("2")
