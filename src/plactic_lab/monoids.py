"""Monoid families and their canonical objects.

Each of the eight families is described once, by its row in _FAMILIES: the
raw key builder, the object builder and the alphabet cap; the table itself
refuses any other family with ValueError.  The key builder maps a letter tuple
to a plain hashable value that is equal exactly for equivalent words;
equivalent() and the oracle compare keys.  The object builder returns the
public canonical object that canonical() hands out: a tableau or tree for the
five insertion families, an element name or an exponent.  The cap is the
largest letter the family admits.  MonoidFamily and RankViolationError are
words.py's, imported here, so that only building objects or keys loads tree code.

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
from .words import MonoidFamily, RankViolationError, _are_letters, _FamilyTable, _symbols


def check_rank(w, rank: int) -> None:
    """Ensure every letter of w lies in 1..rank."""
    if rank < 1:
        raise RankViolationError(f"rank must be >= 1, got {rank}")
    seq = _symbols(w)
    if not (_are_letters(seq) and max(seq, default=1) <= rank):
        raise RankViolationError(f"the word is not over the letters 1..{rank}")


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
    MonoidFamily.STAL: _Family(tableaux._stal_columns, lambda w: tableaux.p_stal(w), None),
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


def _letters(row: _Family, w) -> tuple:
    seq = tableaux._letter_seq(w)  # checks the letters once
    if row.cap is not None and seq and max(seq) > row.cap:
        raise RankViolationError(f"the word is not over the letters 1..{row.cap}")
    return seq


def canonical(family: MonoidFamily, w):
    """Canonical object of a letter word in the given family.

    Insertion families return their tableau/tree objects; free1 returns the
    exponent of the single generator; l21/r21 return the monoid element.
    """
    row = _FAMILIES[family]
    return row.obj(w if row.cap is None else _letters(row, w))  # insertion checks w itself


def equivalent(family: MonoidFamily, u, v) -> bool:
    """Do u and v define the same element, i.e. the same canonical object?"""
    row = _FAMILIES[family]
    a, b = _letters(row, u), _letters(row, v)
    return a == b or row.key(a) == row.key(b)
