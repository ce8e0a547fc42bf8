"""Monoid families and their canonical objects.

Each of the eight families is described once, by its row in _FAMILIES: the
raw key builder, the object builder and the alphabet cap; the table itself
refuses any other family with ValueError.  The key builder maps a letter tuple
to a plain hashable value that is equal exactly for equivalent words;
equivalent() and the oracle compare keys.  The object builder returns the
public canonical object that canonical() hands out: a tableau or tree for the
five insertion families, an element name or an exponent.  The cap is the
largest letter the family admits; _letters, shared with check_rank, holds the one
comparison with a cap.  MonoidFamily and RankViolationError live in words.py.

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
from .words import MonoidFamily, RankViolationError, _columns, _FamilyTable


def check_rank(w, rank: int) -> None:
    """Ensure w, read and checked as insertion reads it, has no letter above rank."""
    if rank < 1:
        raise RankViolationError(f"rank must be >= 1, got {rank}")
    _letters(w, rank)


def _l21(seq) -> str:
    return "1ab"[seq[0] if seq else 0]


def _r21(seq) -> str:
    return "1ab"[seq[-1] if seq else 0]


class _Family(NamedTuple):
    key: Callable       # letter tuple -> hashable value, equal exactly for equivalent words
    obj: Callable       # word -> public canonical object; gets checked letters if cap is set
    cap: Optional[int]  # largest letter admitted; None means any


# The object builders look the insertion functions up at call time, so that
# code which wraps tableaux.p_* or bst.p_* (tracing, say) sees every call.
_FAMILIES = _FamilyTable({
    MonoidFamily.STAL: _Family(_columns, lambda w: tableaux.p_stal(w), None),
    MonoidFamily.TAIG: _Family(tableaux._taiga_key, lambda w: tableaux.p_taig(w), None),
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


def _letters(w, cap: Optional[int]) -> tuple:
    """The letters of w, checked once as insertion checks them, and none above cap."""
    seq = tableaux._letter_seq(w)
    if cap is not None and seq and max(seq) > cap:
        raise RankViolationError(f"the word is not over the letters 1..{cap}")
    return seq


def canonical(family: MonoidFamily, w):
    """Canonical object of a letter word in the given family.

    Insertion families return their tableau/tree objects; free1 returns the
    exponent of the single generator; l21/r21 return the monoid element.
    """
    row = _FAMILIES[family]
    return row.obj(w if row.cap is None else _letters(w, row.cap))  # insertion checks w itself


def equivalent(family: MonoidFamily, u, v) -> bool:
    """Do u and v define the same element, i.e. the same canonical object?"""
    row = _FAMILIES[family]
    a, b = _letters(u, row.cap), _letters(v, row.cap)
    return a == b or row.key(a) == row.key(b)
