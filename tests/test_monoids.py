import enum
import hashlib
import itertools
import json
import math
import pickle
import random

import pytest

from hypothesis import given, strategies as st

from plactic_lab import (
    BaxterObject,
    Exhaustive,
    Identity,
    LeftStrictBST,
    MonoidFamily,
    RankViolationError,
    RightStrictBST,
    StalacticTableau,
    TaigaTree,
    Word,
    alphabet_cap,
    canonical,
    check_rank,
    equivalent,
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
from reference import ELEMENTS, L21, R21, fold, relation_classes, same_columns

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
    # a word is read as insertion reads it: text "12" is the letters 1 and 2
    check_rank("12", 2)
    check_rank("10 2", 10)
    with pytest.raises(RankViolationError, match=r"^the word is not over the letters 1\.\.2$"):
        check_rank("13", 2)
    for rank in (2.5, 3.0, True):  # the rank is an exact int
        with pytest.raises(TypeError, match="^rank must be an int"):
            check_rank("12", rank)
    for bad in ((1, 0), [1, "x"], (True,), "1x"):  # no letter word: insertion's ValueError
        with pytest.raises(ValueError) as info:
            check_rank(bad, 9)
        assert type(info.value) is ValueError


def test_adjoined_zero_tables():
    # the tables are monoids with unit 1, a left and a right zero semigroup on {a, b}
    for table, zero in ((L21, lambda x, y: x), (R21, lambda x, y: y)):
        for x in ELEMENTS:
            assert table["1", x] == x == table[x, "1"]
        for x, y in itertools.product("ab", repeat=2):
            assert table[x, y] == zero(x, y)
        for x, y, z in itertools.product(ELEMENTS, repeat=3):
            assert table[table[x, y], z] == table[x, table[y, z]]
    # every word over {1, 2} of length <= 8, as a tuple and as the oracle's bytes;
    # (), (1,) and (2,) spell the three elements
    words = [w for n in range(9) for w in itertools.product((1, 2), repeat=n)]
    assert len(words) == 511
    for fam, table in ((MonoidFamily.LEFT_ZERO, L21), (MonoidFamily.RIGHT_ZERO, R21)):
        element = {w: fold(table, ("ab"[a - 1] for a in w)) for w in words}
        for w in words:
            for seq in (w, bytes(w)):
                assert canonical(fam, seq) == _FAMILIES[fam].key(seq) == element[w]
                for rep in words[:3]:
                    assert equivalent(fam, seq, rep) == (element[w] == element[rep])


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
    # the capped families check the letters once: a letter above the cap is a
    # rank violation, a non-letter the insertion functions' ValueError
    for fam in (MonoidFamily.LEFT_ZERO, MonoidFamily.RIGHT_ZERO, MonoidFamily.FREE_MONOGENIC):
        cap = alphabet_cap(fam)
        message = rf"^the word is not over the letters 1\.\.{cap}$"
        for refuse in (lambda: canonical(fam, (1, cap + 1)),
                       lambda: canonical(fam, Word.letters(str(cap + 1))),
                       lambda: equivalent(fam, (1,), [cap + 1])):
            with pytest.raises(RankViolationError, match=message):
                refuse()
        for bad in ((1, 0), [1, "x"], (True,), (1, 1.0)):
            for refuse in (lambda: canonical(fam, bad), lambda: equivalent(fam, bad, (1,))):
                with pytest.raises(ValueError, match="^not a letter word: letters") as info:
                    refuse()
                assert type(info.value) is ValueError


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


def _short_words():
    """2,000 seeded words of ranks 1-9 and lengths 0-40."""
    rng = random.Random(21)
    words = []
    for _ in range(2000):
        rank = rng.randint(1, 9)
        n = rng.randint(0, 40)
        words.append(tuple(rng.randint(1, rank) for _ in range(n)))
    return words


def test_insertion_keys_are_pinned():
    # pickles and hashes rest on the keys: a faster kernel must keep them byte for byte
    words = _short_words()
    long = _long_words(600)
    words += [long["monotone"], long["monotone"][::-1], long["zigzag"], long["binary"], (5,) * 600]
    digest = hashlib.sha256()
    for fam in INSERTION:
        for w in words:
            key = canonical(fam, w)._key
            # canonical keys tuples and the oracle bytes up to rank 255 (tuples
            # above); any other letter sequence gives the same key
            assert key == _FAMILIES[fam].key(list(w))
            if max(w, default=1) <= 255:
                assert key == _FAMILIES[fam].key(bytes(w))
            digest.update(repr(key).encode())
    assert (len(INSERTION) * len(words), digest.hexdigest()) == (
        10025, "fd45181d3be3586a3435d4933685416c55e4fc05e60c5b0fd611e7ea973aa3c7")
    for fam in (MonoidFamily.LEFT_ZERO, MonoidFamily.RIGHT_ZERO, MonoidFamily.FREE_MONOGENIC):
        cap = alphabet_cap(fam)
        for w in words[:2000]:
            capped = tuple((a - 1) % cap + 1 for a in w)
            assert _FAMILIES[fam].key(bytes(capped)) == canonical(fam, capped)


def test_each_key_partitions_words_as_the_defining_relations_do():
    # the oracle's ground truth is the keys: each must split every word of [2]^7, [3]^6
    # and [4]^5 into exactly the classes that its monoid's relations close
    for rank, length in ((2, 7), (3, 6), (4, 5)):
        words = list(itertools.product(range(1, rank + 1), repeat=length))
        for fam in INSERTION:
            classes = {}
            for w in words:
                classes.setdefault(_FAMILIES[fam].key(w), set()).add(w)
            assert set(map(frozenset, classes.values())) == relation_classes(fam, words), (
                fam, rank, length)


def test_equivalent_agrees_with_the_defining_relations_on_samples():
    # the public entry point, on tuples and on text: yes for two words of one class,
    # no for words of two classes
    rng = random.Random(11)
    text = lambda w: "".join(map(str, w))
    for rank, length in ((2, 7), (3, 6), (4, 5)):
        words = list(itertools.product(range(1, rank + 1), repeat=length))
        for fam in INSERTION:
            classes = sorted(map(sorted, relation_classes(fam, words)))
            for members in classes:
                u, v = rng.choice(members), rng.choice(members)
                assert equivalent(fam, u, v) and equivalent(fam, text(u), text(v)), (fam, u, v)
            for _ in range(100):
                one, other = rng.sample(classes, 2)
                u, v = rng.choice(one), rng.choice(other)
                assert not equivalent(fam, u, v) and not equivalent(fam, text(u), text(v)), (
                    fam, u, v)


def test_stal_and_taig_class_counts_on_all_words():
    # k distinct letters of r, each with a positive multiplicity summing to n, in one of
    # k! column orders (stal) or on one of Catalan(k) search trees (taig)
    def classes(r, n, arrangements):
        return sum(math.comb(r, k) * arrangements(k) * math.comb(n - 1, k - 1)
                   for k in range(1, min(r, n) + 1))

    catalan = lambda k: math.comb(2 * k, k) // (k + 1)
    for r in range(1, 5):
        for n in range(1, 8):
            words = list(itertools.product(range(1, r + 1), repeat=n))
            for fam, arrangements in ((MonoidFamily.STAL, math.factorial),
                                      (MonoidFamily.TAIG, catalan)):
                key = _FAMILIES[fam].key
                assert len(set(map(key, words))) == classes(r, n, arrangements), (fam, r, n)


def test_class_counts_on_permutations():
    # n! in stal, the Catalan numbers in taig, sylv and sylvsharp, the Baxter numbers in baxt
    def baxter(n):
        return sum(math.comb(n + 1, k - 1) * math.comb(n + 1, k) * math.comb(n + 1, k + 1)
                   for k in range(1, n + 1)) // (math.comb(n + 1, 1) * math.comb(n + 1, 2))

    catalan = lambda n: math.comb(2 * n, n) // (n + 1)
    closed = {"stal": math.factorial, "taig": catalan, "sylv": catalan, "sylvsharp": catalan,
              "baxt": baxter}
    assert [baxter(n) for n in range(1, 8)] == [1, 2, 6, 22, 92, 422, 2074]
    for fam in INSERTION:
        key = _FAMILIES[fam].key
        counts = [len({key(p) for p in itertools.permutations(range(1, n + 1))})
                  for n in range(1, 8)]
        assert counts == [closed[str(fam)](n) for n in range(1, 8)], fam


def test_short_json_payloads_are_pinned():
    # payloads of shallow trees are nested, as they always were, byte for byte
    words, digest = _short_words(), hashlib.sha256()
    for fam in INSERTION:
        for w in words:
            digest.update(json.dumps(canonical(fam, w).to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "002127cac47082af52a2cb6b7b2b0aaa02d72bc253a8b866971853b91d703285")


@given(letter_seqs, letter_seqs)
def test_equivalent_agrees_with_canonical_objects(u, v):
    for fam in INSERTION:
        assert equivalent(fam, u, v) == (canonical(fam, u) == canonical(fam, v))
    # the reference monoids take words over {1, 2} (l21, r21) and {1} (free1)
    for fam in (MonoidFamily.LEFT_ZERO, MonoidFamily.RIGHT_ZERO, MonoidFamily.FREE_MONOGENIC):
        cap = alphabet_cap(fam)
        cu, cv = [(a - 1) % cap + 1 for a in u], [(a - 1) % cap + 1 for a in v]
        assert equivalent(fam, cu, cv) == (canonical(fam, cu) == canonical(fam, cv))


# two letter words over one rank of 1-9, of 0-40 letters each
word_pairs = st.integers(1, 9).flatmap(
    lambda rank: st.tuples(*[st.lists(st.integers(1, rank), max_size=40).map(tuple)] * 2))


@given(word_pairs, st.randoms(use_true_random=False))
def test_equal_pre_keys_give_equal_keys(pair, rng):
    # the oracle and equivalent build keys only for words whose pre-keys differ;
    # taig's pre-key is the stalactic columns, and no other row has one
    assert [fam for fam in MonoidFamily if _FAMILIES[fam].pre] == [MonoidFamily.TAIG]
    row, (u, other) = _FAMILIES[MonoidFamily.TAIG], pair
    same = same_columns(u, rng)
    assert row.pre(same) == row.pre(u)
    # different columns, equal taiga trees: the keys decide
    assert row.pre((1, 3, 2)) != row.pre((3, 1, 2)) and row.key((1, 3, 2)) == row.key((3, 1, 2))
    pairs = [(u, same), (u, other), ((1, 3, 2), (3, 1, 2))]
    for x, y in pairs + [(bytes(x), bytes(y)) for x, y in pairs]:  # the oracle's sides to 255
        assert (row.pre(x), row.key(x)) == (row.pre(tuple(x)), row.key(tuple(x)))
        if row.pre(x) == row.pre(y):
            assert row.key(x) == row.key(y)
        assert equivalent(MonoidFamily.TAIG, x, y) == (
            canonical(MonoidFamily.TAIG, x) == canonical(MonoidFamily.TAIG, y))


def no_key(seq):
    raise AssertionError("a key was built")


def test_homogeneous_rows_keep_one_evaluation_per_class(monkeypatch):
    # equivalent says no without a key to words of different evaluations in a
    # homogeneous row, so each class of its keys must hold one sorted word
    assert [fam for fam in MonoidFamily if _FAMILIES[fam].cap is None] == list(INSERTION)
    words = [w for n in range(7) for w in itertools.product((1, 2, 3), repeat=n)]
    for fam in INSERTION:
        key = _FAMILIES[fam].key
        for pack in (tuple, bytes):  # bytes: the oracle's sides up to rank 255
            classes = {}
            for w in words:
                classes.setdefault(key(pack(w)), set()).add(tuple(sorted(w)))
            assert len(classes) < len(words)
            assert all(len(evaluations) == 1 for evaluations in classes.values())
        # the letters are checked before the screen: a bad letter still raises
        with pytest.raises(ValueError, match="letter word"):
            equivalent(fam, (1, 2), (0,))
        # different lengths, then different sorted words: no pre-key, no key
        monkeypatch.setitem(_FAMILIES, fam, _FAMILIES[fam]._replace(key=no_key, pre=no_key))
        assert not equivalent(fam, (1, 2), (1,)) and not equivalent(fam, (1, 2), (1, 1))
    # 12 = 1 in l21 and 12 = 2 in r21: no screen there
    assert equivalent(MonoidFamily.LEFT_ZERO, (1, 2), (1,))
    assert equivalent(MonoidFamily.RIGHT_ZERO, (1, 2), (2,))
    assert not equivalent(MonoidFamily.LEFT_ZERO, (1, 2), (2,))
    with pytest.raises(RankViolationError):
        equivalent(MonoidFamily.LEFT_ZERO, (1, 2), (3,))


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


def test_evaluation_screen_on_long_words():
    # a changed letter is told apart by the evaluations alone; a swap of the
    # first two letters keeps them, and then the keys still decide
    rng = random.Random(5)
    w = tuple(rng.randint(1, 9) for _ in range(10**5))
    w = (1, 2) + w[2:]
    changed = w[:50_000] + (w[50_000] % 9 + 1,) + w[50_001:]
    swapped = (2, 1) + w[2:]
    verdicts = []
    for fam in INSERTION:
        assert not equivalent(fam, w, changed)
        verdicts.append(equivalent(fam, w, swapped))
        assert verdicts[-1] == (canonical(fam, w) == canonical(fam, swapped))
    # sylv# and baxt trees have the first letter at the root
    assert verdicts == [True, True, True, False, False]


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
