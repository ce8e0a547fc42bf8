import itertools
import logging
import pickle
import random
import re
import time
from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from plactic_lab import (
    CounterExample,
    DecisionMismatchError,
    DerivationStep,
    Exhaustive,
    HoldsWithinBound,
    Identity,
    MonoidFamily,
    RandomSearch,
    RankViolationError,
    UnboundVariableError,
    Word,
    alphabet_cap,
    apply_substitution,
    basis,
    canonical,
    con,
    equivalent,
    ev,
    find_counterexample,
    fp,
    ip,
    normal_form,
    normalize_derivation,
    oracle,
    satisfies,
    verdict_to_json,
)
from reference import directional_occ, full_key_scan, same_columns, substitutions

F = MonoidFamily
INSERTION = (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT)

var_words = st.lists(st.sampled_from("xyz"), min_size=1, max_size=7).map(Word.variables)
identities = st.tuples(var_words, var_words).map(lambda uv: Identity(*uv))


def brute_holds(family, ident, rank, max_len):
    """Reference oracle: plain nested loops, no shared code with the package."""
    images = [()]
    for length in range(1, max_len + 1):
        images.extend(itertools.product(range(1, rank + 1), repeat=length))
    names = ident.variables()
    for combo in itertools.product(images, repeat=len(names)):
        sub = dict(zip(names, combo))
        lhs = [a for nm in ident.lhs.symbols for a in sub[nm]]
        rhs = [a for nm in ident.rhs.symbols for a in sub[nm]]
        if canonical(family, lhs) != canonical(family, rhs):
            return False
    return True


def test_bases_are_satisfied():
    for fam in INSERTION:
        for rule in basis(fam):
            assert satisfies(fam, rule)


def test_basis_contents():
    assert [r.text() for r in basis(F.STAL)] == ["xyx = yxx"]
    assert basis(F.TAIG) == basis(F.STAL)
    assert [r.text() for r in basis(F.SYLV)] == ["xysxty = yxsxty"]
    assert [r.text() for r in basis(F.SYLV_SHARP)] == ["ytxsyx = ytxsxy"]
    assert [r.text() for r in basis(F.BAXT)] == [
        "ysxtxyhxky = ysxtyxhxky",
        "xsytxyhxky = xsytyxhxky",
    ]
    with pytest.raises(ValueError):
        basis(F.FREE_MONOGENIC)


ENTRY_POINTS = pytest.mark.parametrize("call", [
    lambda fam: canonical(fam, Word.letters("12")),
    lambda fam: equivalent(fam, Word.letters("12"), Word.letters("21")),
    lambda fam: satisfies(fam, Identity.parse("xx = x")),
    lambda fam: satisfies(fam, Identity.parse("xy = yx")),
    lambda fam: normal_form(fam, Word.variables("xy")),
    basis,
    lambda fam: normalize_derivation(fam, Word.variables("xy")),
    lambda fam: oracle(fam, 2, Identity.parse("xy = yx"), Exhaustive(1)),
    alphabet_cap,
], ids=["canonical", "equivalent", "satisfies-unequal-content", "satisfies",
        "normal_form", "basis", "normalize_derivation", "oracle", "alphabet_cap"])


@ENTRY_POINTS
def test_unknown_family_is_rejected(call):
    # a family name passed as a plain string is not a MonoidFamily, nor is None or an int
    for family in ("sylv", None, 3):
        with pytest.raises(ValueError, match=re.escape(f"unknown family {family!r}")):
            call(family)


@ENTRY_POINTS
def test_unhashable_family_is_a_type_error(call):
    # the family tables are dicts: an unhashable key fails before any lookup
    with pytest.raises(TypeError):
        call([])


def test_satisfies_known_cases():
    assert satisfies(F.SYLV, Identity.parse("xyxy = yxxy"))
    assert not satisfies(F.SYLV, Identity.parse("xyxy = xyyx"))
    assert not satisfies(F.SYLV, Identity.parse("xy = yx"))
    assert not satisfies(F.STAL, Identity.parse("xy = yx"))
    assert satisfies(F.STAL, Identity.parse("xyxz = yxxz"))
    assert not satisfies(F.BAXT, Identity.parse("xyxy = yxxy"))
    assert satisfies(F.BAXT, Identity.parse("xyxyxy = xyyxxy"))
    assert satisfies(F.SYLV_SHARP, Identity.parse("yxyx = yxxy"))
    assert satisfies(F.FREE_MONOGENIC, Identity.parse("xy = yx"))
    assert satisfies(F.LEFT_ZERO, Identity.parse("xyy = xy"))
    assert not satisfies(F.LEFT_ZERO, Identity.parse("xy = yx"))
    assert satisfies(F.RIGHT_ZERO, Identity.parse("xxy = xy"))


def paper_holds(family, ident):
    """Each family's characterisation as stated, from public statistics only.

    After Cain, Malheiro and Ribeiro: stal and taig, equal ev and fp; sylv, equal ev
    and fp, and for every pair x, y as many y after the last x; sylvsharp, equal ev
    and ip, and as many y before the first x; baxt, all of these.  l21: equal ip;
    r21: equal fp; free1: equal ev.
    """
    u, v = ident.lhs, ident.rhs
    statistics, directions = {
        F.STAL: ((ev, fp), ()), F.TAIG: ((ev, fp), ()), F.SYLV: ((ev, fp), ("after",)),
        F.SYLV_SHARP: ((ev, ip), ("before",)), F.BAXT: ((ev, fp, ip), ("after", "before")),
        F.LEFT_ZERO: ((ip,), ()), F.RIGHT_ZERO: ((fp,), ()), F.FREE_MONOGENIC: ((ev,), ()),
    }[family]
    if any(statistic(u) != statistic(v) for statistic in statistics):
        return False
    # every family with a direction compares ev first, so both sides have u's content
    return all(directional_occ(direction, x, y, u) == directional_occ(direction, x, y, v)
               for direction in directions for x, y in itertools.product(con(u), repeat=2))


def test_satisfies_matches_the_paper_condition():
    # every balanced pair (v a rearrangement of u) up to 5 letters over x, y, z
    held = Counter()
    for n in range(6):
        for u in itertools.product("xyz", repeat=n):
            for v in set(itertools.permutations(u)):
                ident = Identity(Word.variables(u), Word.variables(v))
                for fam in F:
                    expected = paper_holds(fam, ident)
                    assert satisfies(fam, ident) == expected, (fam, ident)
                    held[fam] += expected
    assert held == {F.STAL: 1480, F.TAIG: 1480, F.SYLV: 508, F.SYLV_SHARP: 508, F.BAXT: 364,
                    F.LEFT_ZERO: 1480, F.RIGHT_ZERO: 1480, F.FREE_MONOGENIC: 5404}


@given(identities)
def test_sharp_is_sylv_on_reversed_sides(ident):
    mirrored = Identity(ident.lhs.reverse(), ident.rhs.reverse())
    assert satisfies(F.SYLV_SHARP, ident) == satisfies(F.SYLV, mirrored)


@given(identities)
def test_baxt_is_sylv_and_sharp_together(ident):
    assert satisfies(F.BAXT, ident) == (
        satisfies(F.SYLV, ident) and satisfies(F.SYLV_SHARP, ident)
    )


@given(identities)
def test_taig_and_stal_satisfy_the_same_identities(ident):
    assert satisfies(F.STAL, ident) == satisfies(F.TAIG, ident)


@given(var_words, var_words, var_words)
def test_sylv_absorbs_prefix_reorderings(p, q, r):
    # both sides end with a word containing every variable in play
    tail = r + p + q
    lhs = p + q + tail
    rhs = q + p + tail
    assert satisfies(F.SYLV, Identity(lhs, rhs))
    assert satisfies(F.SYLV_SHARP, Identity(lhs.reverse(), rhs.reverse()))


@given(identities, var_words)
def test_satisfied_identities_survive_context(ident, w):
    for fam in INSERTION:
        if satisfies(fam, ident):
            assert satisfies(fam, Identity(w + ident.lhs, w + ident.rhs))
            assert satisfies(fam, Identity(ident.lhs + w, ident.rhs + w))


def test_normal_form_frozen_cases():
    assert normal_form(F.STAL, Word.variables("xyx")).text() == "yxx"
    assert normal_form(F.SYLV, Word.variables("yxsxty")).text() == "xysxty"
    assert normal_form(F.SYLV, Word.variables("xysxty")).text() == "xysxty"
    assert normal_form(F.SYLV_SHARP, Word.variables("ytxsxy")).text() == "ytxsyx"
    assert (
        normal_form(F.BAXT, Word.variables("ysxtxyhxky")).text() == "ysxtyxhxky"
    )
    assert normal_form(F.SYLV, Word()).symbols == ()
    # the reference monoids: ip in l21, fp in r21, the sorted word in free1
    for fam, text in ((F.LEFT_ZERO, "yxz"), (F.RIGHT_ZERO, "zxy"), (F.FREE_MONOGENIC, "xxyyz")):
        assert normal_form(fam, Word.variables("yxzxy")).text() == text


@given(identities)
def test_normal_form_characterizes_satisfies(ident):
    for fam in INSERTION:
        assert satisfies(fam, ident) == (
            normal_form(fam, ident.lhs) == normal_form(fam, ident.rhs)
        )


@given(var_words)
def test_normal_form_idempotent_and_equivalent(w):
    for fam in INSERTION:
        nf = normal_form(fam, w)
        assert normal_form(fam, nf) == nf
        assert satisfies(fam, Identity(w, nf))


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_normal_form_on_long_words(copies):
    # shuffled permutations of 1..k, concatenated: 10^5 letters in all
    rng = random.Random(copies)
    k = 10**5 // copies
    w = Word.letters([a for _ in range(copies) for a in rng.sample(range(1, k + 1), k)])
    for fam in (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT):
        nf = normal_form(fam, w)
        assert normal_form(fam, nf) == nf
        assert equivalent(fam, w, nf)
        # last occurrences stay put, and in baxt first ones too: a doubled word moves
        # in every family but baxt, only a tripled one in baxt
        assert (nf != w) == (copies > (2 if fam is F.BAXT else 1))


def test_normal_form_memory_is_linear(peak_bytes):
    # 4,000 distinct letters: a table of the counts after every letter holds 8 million
    w = Word.letters(random.Random(0).sample(range(1, 4001), 4000))
    for fam in (F.SYLV, F.SYLV_SHARP, F.BAXT):
        nf, peak = peak_bytes(normal_form, fam, w)
        assert nf == w
        assert peak < 8 * 2**20, fam


def test_satisfies_memory_is_linear(peak_bytes):
    # 4,000 distinct variables: tables of the counts after every variable hold 16 million
    # entries for the two sides
    names = [f"v{i}" for i in range(4000)]
    lhs = Word.variables(names + names)
    rhs = Word.variables(names[::-1] + names)
    for fam, expected in ((F.SYLV, True), (F.SYLV_SHARP, False), (F.BAXT, False)):
        holds, peak = peak_bytes(satisfies, fam, Identity(lhs, rhs))
        assert holds == expected, fam
        assert peak < 8 * 2**20, fam


def test_apply_substitution():
    sub = {"x": Word.letters("21"), "y": Word.letters("3")}
    assert apply_substitution(sub, Word.variables("xyx")).text() == "21321"
    with pytest.raises(UnboundVariableError):
        apply_substitution({}, Word.variables("x"))


def test_oracle_finds_first_counterexample_in_shortlex_order():
    verdict = oracle(F.SYLV, 2, Identity.parse("xyx = yxx"), Exhaustive(1))
    assert isinstance(verdict, CounterExample)
    assert {k: w.text() for k, w in verdict.substitution.items()} == {"x": "2", "y": "1"}
    assert verdict.lhs_object != verdict.rhs_object


def test_oracle_holds_within_bound_counts_substitutions():
    verdict = oracle(F.STAL, 2, Identity.parse("xyx = yxx"), Exhaustive(2))
    assert verdict == HoldsWithinBound(checked=49)
    assert verdict_to_json(verdict) == {"verdict": "holds", "checked": 49}


def test_oracle_counterexample_json():
    verdict = oracle(F.STAL, 2, Identity.parse("xy = yx"), Exhaustive(1))
    assert verdict_to_json(verdict) == {
        "verdict": "counterexample",
        "sub": {"x": "1", "y": "2"},
    }


def test_counterexample_rejects_equal_objects():
    t = canonical(F.STAL, Word.letters("12"))
    with pytest.raises(ValueError):
        CounterExample({}, t, t)


_V = Word.variables
# record, its fields in order, a field change its checks refuse (None: it has none), repr
RECORDS = [
    (Identity, (_V("xyx"), _V("yxx")), {"rhs": Word.letters("1")}, "Identity('xyx = yxx')"),
    (Exhaustive, (1,), {"max_len": -1}, "Exhaustive(max_len=1)"),
    (RandomSearch, (3, 2, 7), {"trials": -1}, "RandomSearch(trials=3, max_len=2, seed=7)"),
    (HoldsWithinBound, (49,), None, "HoldsWithinBound(checked=49)"),
    (CounterExample, ({"x": Word.letters("1")}, "a", "b"), {"rhs_object": "a"},
     "CounterExample(substitution={'x': Word('1')}, lhs_object='a', rhs_object='b')"),
    (DerivationStep, (_V("xy"), _V("yx"), 0, "ltr", _V(""), _V(""), {"x": _V("x"), "y": _V("y")}),
     None, "DerivationStep(before=Word('xy'), after=Word('yx'), rule_index=0, direction='ltr', "
           "prefix=Word(''), suffix=Word(''), endo={'x': Word('x'), 'y': Word('y')})"),
]


@pytest.mark.parametrize("cls, fields, bad, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_hash_and_pickle_as_frozen_records(cls, fields, bad, text):
    rec, by_name = cls(*fields), dict(zip(cls._fields, fields))
    assert rec == cls(**by_name) and not rec != cls(**by_name) and repr(rec) == text
    # equal only to a record of its own type: never a plain tuple or another record type
    twin = type("Twin", (cls,), {"__slots__": ()})(*fields)
    for other in (fields, twin, HoldsWithinBound(1) if cls is Exhaustive else Exhaustive(1)):
        assert rec != other and other != rec and not rec == other and not other == rec
    assert Exhaustive(1) != HoldsWithinBound(1)
    try:
        expected = hash(fields)  # a frozen dataclass hashes its field tuple
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected
    for name in (cls._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[0])
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is cls
    if bad is not None:
        changed = {**by_name, **bad}
        for make in (lambda: cls(**changed), lambda: cls(*changed.values()),
                     lambda: rec._replace(**bad)):
            with pytest.raises(ValueError):
                make()
    for name in {"trials", "max_len"} & set(cls._fields):  # bounds are exact ints
        for value in (1.5, 2.0, True):
            for make in (lambda: cls(**{**by_name, name: value}),
                         lambda: rec._replace(**{name: value})):
                with pytest.raises(TypeError, match=f"^{name} must be an int"):
                    make()
    assert RandomSearch(3, 2) == RandomSearch(trials=3, max_len=2, seed=0)


def test_oracle_random_mode_is_reproducible():
    ident = Identity.parse("xyxy = xyyx")
    a = oracle(F.SYLV, 3, ident, RandomSearch(trials=200, max_len=3, seed=5))
    b = oracle(F.SYLV, 3, ident, RandomSearch(trials=200, max_len=3, seed=5))
    assert isinstance(a, CounterExample)
    assert a.substitution == b.substitution
    assert {name: w.text() for name, w in a.substitution.items()} == {"x": "21", "y": "313"}
    held = oracle(F.SYLV, 3, Identity.parse("x = x"), RandomSearch(10, 2, seed=1))
    assert held == HoldsWithinBound(checked=10)
    # no variables: each trial is the one empty substitution
    assert oracle(F.SYLV, 2, Identity.parse(" = "), RandomSearch(5, 2)) == HoldsWithinBound(5)


def test_oracle_rank_validation():
    with pytest.raises(RankViolationError):
        oracle(F.LEFT_ZERO, 3, Identity.parse("xy = yx"), Exhaustive(1))
    for rank in (2.5, 2.0, True):  # an exact int only, refused before any scan
        with pytest.raises(TypeError, match="^rank must be an int"):
            oracle(F.SYLV, rank, Identity.parse("xy = yx"), Exhaustive(1))
    with pytest.raises(RankViolationError):
        oracle(F.FREE_MONOGENIC, 2, Identity.parse("xy = yx"), Exhaustive(1))
    with pytest.raises(RankViolationError):
        oracle(F.SYLV, 0, Identity.parse("xy = yx"), Exhaustive(1))


def test_oracle_modes_refuse_negative_bounds():
    # a negative bound scans nothing and would report "holds" for xy = yx
    for make in (lambda: Exhaustive(-2), lambda: RandomSearch(trials=-3, max_len=2),
                 lambda: RandomSearch(trials=3, max_len=-1)):
        with pytest.raises(ValueError):
            make()
    assert oracle(F.SYLV, 2, Identity.parse("x = x"), Exhaustive(0)) == HoldsWithinBound(1)
    assert oracle(F.SYLV, 2, Identity.parse("x = x"), RandomSearch(0, 0)) == HoldsWithinBound(0)
    with pytest.raises(TypeError, match="unknown oracle mode"):  # a mode of neither kind
        oracle(F.SYLV, 2, Identity.parse("x = x"), "exhaustive")


def test_oracle_trivial_identity_with_no_shared_variables():
    verdict = oracle(F.SYLV, 2, Identity.parse("x = y"), Exhaustive(1))
    assert isinstance(verdict, CounterExample)
    assert oracle(F.SYLV, 2, Identity.parse(" = "), Exhaustive(2)) == HoldsWithinBound(1)


def test_find_counterexample_frozen_case():
    sub = find_counterexample(F.STAL, Identity.parse("xy = yx"))
    assert {k: w.text() for k, w in sub.items()} == {"x": "1", "y": "2"}


def test_find_counterexample_uses_rank_one_for_monogenic():
    sub = find_counterexample(F.FREE_MONOGENIC, Identity.parse("xyx = yy"))
    lhs = apply_substitution(sub, Word.variables("xyx"))
    rhs = apply_substitution(sub, Word.variables("yy"))
    assert len(lhs) != len(rhs)
    assert set(lhs.symbols) <= {1} and set(rhs.symbols) <= {1}


def test_find_counterexample_raises_on_satisfied_identity():
    with pytest.raises(DecisionMismatchError):
        find_counterexample(F.STAL, Identity.parse("xyx = yxx"), cap=2)


@pytest.mark.parametrize("cap", [0, -1])
def test_find_counterexample_refuses_a_cap_below_one(cap):
    # nothing would be searched, so no disagreement could have been found
    with pytest.raises(ValueError, match="cap must be >= 1"):
        find_counterexample(F.STAL, Identity.parse("xy = yx"), cap=cap)
    # and an exact int: a float cap would fail deep in the scan
    with pytest.raises(TypeError, match="^cap must be an int"):
        find_counterexample(F.STAL, Identity.parse("xy = yx"), cap=cap + 1.5)


@settings(deadline=None, max_examples=60)
@given(st.tuples(
    st.lists(st.sampled_from("xy"), min_size=1, max_size=4).map(Word.variables),
    st.lists(st.sampled_from("xy"), min_size=1, max_size=4).map(Word.variables),
).map(lambda uv: Identity(*uv)))
def test_decision_matches_reference_oracle(ident):
    for fam in INSERTION:
        assert satisfies(fam, ident) == brute_holds(fam, ident, rank=2, max_len=3)


def reference_scan(family, rank, ident, mode):
    """The oracle written plainly: a dict per substitution, both sides always compared."""
    names = sorted(set(ident.lhs.symbols) | set(ident.rhs.symbols))
    checked = 0
    for combo in substitutions(names, rank, mode):
        checked += 1
        sub = dict(zip(names, combo))
        lhs = [a for nm in ident.lhs.symbols for a in sub[nm]]
        rhs = [a for nm in ident.rhs.symbols for a in sub[nm]]
        if canonical(family, lhs) != canonical(family, rhs):
            return sub, canonical(family, lhs), canonical(family, rhs)
    return checked


def assert_same_verdict(verdict, expected):
    """The oracle's verdict against a reference scan's count or counterexample."""
    if isinstance(expected, int):
        assert verdict == HoldsWithinBound(checked=expected)
    else:
        sub, lhs_object, rhs_object = expected
        assert isinstance(verdict, CounterExample)
        assert verdict.substitution == {nm: Word(img) for nm, img in sub.items()}
        assert (verdict.lhs_object, verdict.rhs_object) == (lhs_object, rhs_object)
        assert_ints(verdict)


def assert_ints(verdict):
    """The scan's bytes stay inside it: the counterexample's words hold ints."""
    for obj in (verdict.lhs_object, verdict.rhs_object):
        if hasattr(obj, "reading_word"):
            word = obj.reading_word()
            assert type(word) is tuple and all(type(a) is int for a in word)
    for img in verdict.substitution.values():
        assert type(img) is Word and all(type(a) is int for a in img.symbols)


@settings(deadline=None, max_examples=50)
@given(identities, st.integers(0, 2), st.integers(0, 2**16))
def test_oracle_matches_reference_scan(ident, max_len, seed):
    for fam in F:
        rank = min(2, alphabet_cap(fam) or 2)
        runs = [(rank, Exhaustive(max_len)), (rank, RandomSearch(30, 3, seed=seed))]
        if alphabet_cap(fam) is None:  # images are bytes up to rank 255, tuples above
            runs += [(255, RandomSearch(30, 3, seed=seed)), (256, RandomSearch(30, 3, seed=seed))]
        for rank, mode in runs:
            assert_same_verdict(oracle(fam, rank, ident, mode),
                                reference_scan(fam, rank, ident, mode))


def _parity_identities():
    """The basis rules, xzy = zxy, and 50 seeded identities over 2-4 variables:
    half of them a word against a reordering with the same last occurrences,
    which taig satisfies, so that every substitution is scanned; half two words
    drawn apart."""
    rng = random.Random(29)
    # at rank 3, the first three draws of RandomSearch(60, 3, seed=3) with different
    # columns in xzy = zxy, such as 132 = 312, have equal taiga trees: the keys decide
    idents = [rule for fam in INSERTION for rule in basis(fam)] + [Identity.parse("xzy = zxy")]
    for n in range(50):
        names = "xyzt"[:rng.randint(2, 4)]
        lhs = [rng.choice(names) for _ in range(rng.randint(2, 8))]
        rhs = (same_columns(lhs, rng) if n % 2 else
               [rng.choice(names) for _ in range(rng.randint(1, 8))])
        idents.append(Identity(Word.variables(lhs), Word.variables(rhs)))
    return idents


@pytest.mark.parametrize("rank", [2, 3, 255, 256])
def test_taig_oracle_matches_the_full_key_scan(rank):
    # the taig oracle builds keys only for sides with different columns; the
    # reference builds them for all different sides, and must meet the same verdict
    modes = [Exhaustive(0), Exhaustive(1), Exhaustive(2), RandomSearch(60, 3, seed=rank),
             RandomSearch(20, 8, seed=rank + 1)]
    for ident in _parity_identities():
        for mode in modes:
            if isinstance(mode, Exhaustive):  # at most 2,401 substitutions
                per_var = sum(rank ** n for n in range(mode.max_len + 1))
                if per_var ** len(ident.variables()) > 2401:
                    continue
            assert_same_verdict(oracle(F.TAIG, rank, ident, mode),
                                full_key_scan(F.TAIG, rank, ident, mode))


def test_oracle_scans_both_sides_of_the_bytes_boundary():
    # images are bytes up to rank 255 and tuples above, and taig takes the columns of
    # both before any key; Exhaustive(1) has rank + 1 per variable
    for fam, rank in itertools.product((F.STAL, F.TAIG), (255, 256)):
        cex = oracle(fam, rank, Identity.parse("xy = yx"), Exhaustive(1))
        assert cex.substitution == {"x": Word.letters("1"), "y": Word.letters("2")}
        assert cex.lhs_object == canonical(fam, (1, 2)) != cex.rhs_object
        assert_ints(cex)
        holds = oracle(fam, rank, Identity.parse("xyx = yxx"), Exhaustive(1))
        assert holds == HoldsWithinBound(checked=(rank + 1) ** 2)


def test_oracle_logs_one_debug_record_per_call(caplog):
    ident = Identity.parse("xy = yx")
    oracle(F.SYLV, 2, ident, Exhaustive(1))
    assert not [r for r in caplog.records if r.name == "plactic_lab.oracle"]  # off by default
    with caplog.at_level(logging.DEBUG, logger="plactic_lab.oracle"):
        oracle(F.SYLV, 2, ident, Exhaustive(1))
        oracle(F.STAL, 2, Identity.parse("xyx = yxx"), Exhaustive(1))
        oracle(F.TAIG, 2, Identity.parse("xyx = yxx"), Exhaustive(1))
    first, second, third = [r.getMessage() for r in caplog.records
                            if r.name == "plactic_lab.oracle"]
    # of the six substitutions up to x = 1, y = 2 only the last gives two different words
    assert first.startswith("sylv rank 2 Exhaustive(max_len=1): 6 substitutions, 1 keyed, "
                            "CounterExample in ")
    # the sides differ for 2 of the 9 (x, y = 1, 2 and 2, 1)
    assert second.startswith("stal rank 2 Exhaustive(max_len=1): 9 substitutions, 2 keyed, "
                             "HoldsWithinBound in ")
    # taig keys neither: the two have equal columns
    assert third.startswith("taig rank 2 Exhaustive(max_len=1): 9 substitutions, 0 keyed, "
                            "HoldsWithinBound in ")


def test_oracle_ignores_threads_env(monkeypatch):
    # the oracle scans serially and reads no environment variable: setting the
    # one that used to choose a worker pool changes no verdict
    ident = Identity.parse("xyxy = yxxy")
    plain_cex = oracle(F.BAXT, 2, ident, Exhaustive(2))
    monkeypatch.setenv("PLACTIC_LAB_THREADS", "2")
    env_cex = oracle(F.BAXT, 2, ident, Exhaustive(2))
    assert isinstance(plain_cex, CounterExample)
    assert plain_cex.substitution == env_cex.substitution

    plain_hold = oracle(F.SYLV, 2, Identity.parse("xyxy = yxxy"), Exhaustive(2))
    monkeypatch.setenv("PLACTIC_LAB_THREADS", "3")
    env_hold = oracle(F.SYLV, 2, Identity.parse("xyxy = yxxy"), Exhaustive(2))
    assert plain_hold == env_hold == HoldsWithinBound(checked=49)


def test_oracle_stops_at_first_hit():
    # xy = x fails in l21 only for x empty, the first candidate; every later
    # candidate holds, and scanning the 4.2 million of them would take ~20 s
    ident = Identity.parse("xy = x")
    expected = oracle(F.LEFT_ZERO, 2, ident, Exhaustive(10)).substitution
    start = time.perf_counter()
    verdict = oracle(F.LEFT_ZERO, 2, ident, Exhaustive(10))
    assert time.perf_counter() - start < 8
    assert verdict.substitution == expected == {"x": Word(()), "y": Word((1,))}


def test_threads_env_garbage_is_ignored(monkeypatch):
    # a value that is no thread count is not read either
    monkeypatch.setenv("PLACTIC_LAB_THREADS", "many")
    verdict = oracle(F.STAL, 2, Identity.parse("xy = yx"), Exhaustive(1))
    assert isinstance(verdict, CounterExample)
