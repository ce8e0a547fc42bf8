"""Monoid families and their canonical objects.

Each of the eight families is described once, by its row in _FAMILIES: the
raw key builder, the object builder, the alphabet cap and the pre-key; the
table itself refuses any other family with ValueError.  The key builder maps a
letter tuple to a plain hashable value that is equal exactly for equivalent
words.  A pre-key is a cheaper function the key is built from (taig's
stalactic columns), so equal pre-keys mean equal keys.  The object builder
returns canonical()'s public object: a tableau or tree for the insertion
families, an element name or an exponent.  The cap is the largest letter the
family admits (words._letters, the one letter reader, checks it; the oracle
checks its rank against it); the uncapped rows are the five insertion families,
and as insertion never adds or drops a letter, equivalent() says no to unequal
sorted words there before it builds a pre-key or key (free1 keeps evaluations
too, but its key already is the length).
MonoidFamily and RankViolationError live in words.py.

Besides the five insertion families there are three reference monoids: the
two three-element monoids {1, a, b} obtained by adjoining a unit 1 to the left
zero and right zero semigroups on {a, b}, and the free monoid on one
generator.  Letter 1 stands for a and letter 2 for b; as ab = a in the first
and ab = b in the second, a nonempty word is its first letter in l21 and its
last in r21.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import bst, tableaux
from .words import MonoidFamily, RankViolationError, _check_count, _columns, _FamilyTable, _letters


def check_rank(w, rank: int) -> None:
    """Ensure w, read and checked as insertion reads it, has no letter above rank, an
    exact int >= 1 (TypeError for any other type)."""
    _check_count("rank", rank, 1, RankViolationError)
    _letters(w, rank)


def _l21(seq) -> str:
    return "1ab"[seq[0] if seq else 0]


def _r21(seq) -> str:
    return "1ab"[seq[-1] if seq else 0]


class _Family(NamedTuple):
    key: Callable       # letter tuple -> hashable value, equal exactly for equivalent words
    obj: Callable       # word -> public canonical object; gets checked letters if cap is set
    cap: Optional[int]  # largest letter admitted; None means any: an insertion family
    pre: Optional[Callable] = None  # pre-key: key is built from it, so equal pre-keys, equal keys


# The object builders look the insertion functions up at call time, so that
# code which wraps tableaux.p_* or bst.p_* (tracing, say) sees every call.
_FAMILIES = _FamilyTable({
    MonoidFamily.STAL: _Family(_columns, lambda w: tableaux.p_stal(w), None),
    MonoidFamily.TAIG: _Family(tableaux._taiga_key, lambda w: tableaux.p_taig(w), None, _columns),
    MonoidFamily.SYLV: _Family(bst._sylv_key, lambda w: bst.p_sylv(w), None),
    MonoidFamily.SYLV_SHARP: _Family(bst._sylv_sharp_key, lambda w: bst.p_sylv_sharp(w), None),
    MonoidFamily.BAXT: _Family(bst._baxt_key, lambda w: bst.p_baxt(w), None),
    MonoidFamily.LEFT_ZERO: _Family(_l21, _l21, 2),
    MonoidFamily.RIGHT_ZERO: _Family(_r21, _r21, 2),
    MonoidFamily.FREE_MONOGENIC: _Family(len, len, 1),
})


def alphabet_cap(family: MonoidFamily) -> Optional[int]:
    """Largest letter the family admits; None means any."""
    return _FAMILIES[family].cap


def canonical(family: MonoidFamily, w):
    """Canonical object of a letter word in the given family.

    Insertion families return their tableau/tree objects; free1 returns the
    exponent of the single generator; l21/r21 return the monoid element.
    """
    row = _FAMILIES[family]
    return row.obj(w if row.cap is None else _letters(w, row.cap))  # insertion checks w itself


def equivalent(family: MonoidFamily, u, v) -> bool:
    """Do u and v define the same element?  After the letter check, equal words
    say yes, different lengths or sorted words in an uncapped (insertion) row say no,
    equal pre-keys say yes, and only then are the two keys built and compared."""
    row = _FAMILIES[family]
    a, b = _letters(u, row.cap), _letters(v, row.cap)
    if a == b:
        return True
    if row.cap is None and (len(a) != len(b) or sorted(a) != sorted(b)):
        return False
    return row.pre is not None and row.pre(a) == row.pre(b) or row.key(a) == row.key(b)
