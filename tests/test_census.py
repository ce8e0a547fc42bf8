"""Census: every small identity, decided exactly and by the oracle, in each insertion family.

The identities are enumerated here, never through a package helper: every
u = v with |u|, |v| <= 4 over x, y, z, plus the balanced ones (v a
rearrangement of u) with |u| = 5, each up to renaming and swapping sides.
None of these holds in baxt, so a second census groups words of length 8 by
their normal form in baxt, sylv and sylvsharp, checks the identities within
each class and refutes the near misses between classes.
"""
import itertools
from collections import Counter

import pytest

from plactic_lab import (
    CounterExample,
    Exhaustive,
    HoldsWithinBound,
    Identity,
    MonoidFamily,
    Word,
    basis,
    derivation_certificate,
    normal_form,
    oracle,
    satisfies,
    verify_derivation,
)

F = MonoidFamily
INSERTION = (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT)


def _renamed(u: tuple, v: tuple) -> tuple:
    """u, v with the variables renamed x, y, z in order of first occurrence in u + v."""
    names = dict(zip(dict.fromkeys(u + v), "xyz"))
    return tuple(names[c] for c in u), tuple(names[c] for c in v)


def census() -> list:
    """The nontrivial identities of the census, one per class under renaming and swapping."""
    short = [w for n in range(5) for w in itertools.product("xyz", repeat=n)]
    pairs = itertools.chain(
        itertools.product(short, repeat=2),
        ((u, v) for u in itertools.product("xyz", repeat=5) for v in set(itertools.permutations(u))))
    classes = {min(_renamed(u, v), _renamed(v, u)) for u, v in pairs if u != v}
    return [Identity(Word.variables(u), Word.variables(v)) for u, v in sorted(classes)]


def test_census_of_small_identities():
    idents = census()
    assert len(idents) == 1244 + 380
    held = Counter()
    for ident in idents:
        for fam in INSERTION:
            holds = satisfies(fam, ident)
            verdict = oracle(fam, 2, ident, Exhaustive(2))
            assert holds == isinstance(verdict, HoldsWithinBound), (fam, ident)
            if holds:
                assert verify_derivation(basis(fam), derivation_certificate(fam, ident))
                held[fam] += 1
    # satisfied identities per family: stal and taig satisfy the same ones, and baxt,
    # whose shortest nontrivial identities have 6 letters, none of these
    assert held == {F.STAL: 93, F.TAIG: 93, F.SYLV: 12, F.SYLV_SHARP: 12}


@pytest.mark.parametrize("name, rank, counts, near_misses", [
    ("baxt", 3, (840, 102, 126), None),  # its 27,195 near misses take about 3 s
    ("sylv", 2, (482, 226, 484), 7577),
    ("sylvsharp", 2, (252, 166, 714), 2190),
], ids=["baxt", "sylv", "sylvsharp"])
def test_census_of_classes(name, rank, counts, near_misses):
    # the satisfied side: every word of length 8 that uses exactly x, y, z, in that
    # order of first occurrence, grouped by its normal form; each class's first word
    # against each other member is an identity that holds, with a certificate, and
    # the certificates reach every basis rule (in baxt, both ten-letter rules)
    fam = F(name)
    words = [Word.variables(w) for w in itertools.product("xyz", repeat=8)
             if set(w) == {"x", "y", "z"} and _renamed(w, ()) == (w, ())]
    classes = {}
    for w in words:
        classes.setdefault(normal_form(fam, w), []).append(w)
    pairs = [Identity(first, other) for first, *others in classes.values() for other in others]
    big = sum(len(members) > 1 for members in classes.values())
    assert (len(words), len(classes), big, len(pairs)) == (966, *counts)
    sigma, rules = basis(fam), set()
    for ident in pairs:
        assert isinstance(oracle(fam, rank, ident, Exhaustive(1)), HoldsWithinBound), ident
        cert = derivation_certificate(fam, ident)
        assert verify_derivation(sigma, cert), ident
        rules.update(ri for _, ri, _, _ in cert.apps)
    assert rules == set(range(len(sigma)))
    if near_misses is None:
        return
    # near misses: the first words of two classes with the same letters fail, and
    # the oracle finds the counterexample
    by_ev = {}
    for first, *_ in classes.values():
        by_ev.setdefault(tuple(sorted(first.symbols)), []).append(first)
    near = [Identity(u, v) for reps in by_ev.values() for u, v in itertools.combinations(reps, 2)]
    assert len(near) == near_misses
    for ident in near:
        assert isinstance(oracle(fam, rank, ident, Exhaustive(1)), CounterExample), ident
