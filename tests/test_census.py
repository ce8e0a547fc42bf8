"""Census: every small identity, decided exactly and by the oracle, in each insertion family.

The identities are enumerated here, never through a package helper: every
u = v with |u|, |v| <= 4 over x, y, z, plus the balanced ones (v a
rearrangement of u) with |u| = 5, each up to renaming and swapping sides.
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
