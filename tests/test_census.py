"""Census: every small identity, decided exactly and by the oracle, in each insertion family.

The identities are enumerated here, never through a package helper: every
u = v with |u|, |v| <= 4 over x, y, z, plus the balanced ones (v a
rearrangement of u) with |u| = 5, each up to renaming and swapping sides.
None of these holds in baxt, so a second census groups words of length 8 by
their Baxter normal form and checks the identities within each class.
"""
import itertools
from collections import Counter

from plactic_lab import (
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


def test_census_of_baxter_classes():
    # Baxter's satisfied side: every word of length 8 that uses exactly x, y, z, in
    # that order of first occurrence, grouped by its normal form; each class's first
    # word against each other member is an identity that holds, with a certificate
    # that reaches both ten-letter rules
    words = [Word.variables(w) for w in itertools.product("xyz", repeat=8)
             if set(w) == {"x", "y", "z"} and _renamed(w, ()) == (w, ())]
    classes = {}
    for w in words:
        classes.setdefault(normal_form(F.BAXT, w), []).append(w)
    pairs = [Identity(first, other) for first, *others in classes.values() for other in others]
    assert (len(words), len(classes), len(pairs)) == (966, 840, 126)
    sigma, rules = basis(F.BAXT), set()
    for ident in pairs:
        assert isinstance(oracle(F.BAXT, 3, ident, Exhaustive(1)), HoldsWithinBound), ident
        cert = derivation_certificate(F.BAXT, ident)
        assert verify_derivation(sigma, cert), ident
        rules.update(ri for _, ri, _, _ in cert.apps)
    assert rules == {0, 1}
