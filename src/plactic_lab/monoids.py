"""Monoid families, canonical objects, and small finite monoids.

Each of the eight families is described once, by its row in _FAMILIES: the
raw key builder, the object builder and the alphabet cap.  The key builder
maps a letter tuple to a plain hashable value that is equal exactly for
equivalent words; equivalent() and the oracle compare keys.  The object
builder returns the public canonical object that canonical() hands out: a
tableau or tree for the five insertion families, the element of a finite
monoid, or an exponent.  The cap is the largest letter the family admits.

Besides the five insertion families there are three reference monoids: the
two three-element monoids obtained by adjoining a unit to the left zero and
right zero semigroups on {a, b}, and the free monoid on one generator.
"""
from __future__ import annotations

import enum
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import bst, tableaux
from .words import _are_letters, _symbols


class RankViolationError(ValueError):
    """A word uses letters outside the declared alphabet."""


class UnboundVariableError(ValueError):
    """A substitution or assignment is missing a variable it needs."""


class MonoidFamily(enum.Enum):
    STAL = "stal"
    TAIG = "taig"
    SYLV = "sylv"
    SYLV_SHARP = "sylvsharp"
    BAXT = "baxt"
    LEFT_ZERO = "l21"
    RIGHT_ZERO = "r21"
    FREE_MONOGENIC = "free1"

    # members are singletons equal by identity; Enum's hash is Python code, run per lookup
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name: str) -> "MonoidFamily":
        for fam in cls:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown monoid family {name!r}")

    def __str__(self) -> str:
        return self.value


def check_rank(w, rank: int) -> None:
    """Ensure every letter of w lies in 1..rank."""
    if rank < 1:
        raise RankViolationError(f"rank must be >= 1, got {rank}")
    seq = _symbols(w)
    if not (_are_letters(seq) and max(seq, default=1) <= rank):
        raise RankViolationError(f"the word is not over the letters 1..{rank}")


class FiniteMonoid:
    """A finite monoid given by its full multiplication table.

    Associativity and the unit laws are checked exhaustively on construction.
    """

    def __init__(self, name: str, elements: Iterable[str], unit: str, table: Mapping):
        self.name = name
        self.elements = tuple(elements)
        self.unit = unit
        self.table = dict(table)
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise ValueError("duplicate elements")
        if unit not in elems:
            raise ValueError("unit must be an element")
        for a in self.elements:
            for b in self.elements:
                if self.table.get((a, b)) not in elems:
                    raise ValueError(f"table incomplete or out of range at {(a, b)!r}")
        for a in self.elements:
            if self.table[(unit, a)] != a or self.table[(a, unit)] != a:
                raise ValueError(f"unit law fails at {a!r}")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                        raise ValueError(f"associativity fails at {(a, b, c)!r}")

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def fold(self, items: Iterable[str]) -> str:
        acc = self.unit
        for x in items:
            acc = self.table[(acc, x)]
        return acc

    def __repr__(self) -> str:
        return f"FiniteMonoid({self.name!r})"


def _adjoined_zero_monoid(name: str, left: bool) -> FiniteMonoid:
    # On {a, b} the product is the left factor (left zero) or the right one.
    elements = ("1", "a", "b")
    table = {}
    for x in elements:
        table[("1", x)] = x
        table[(x, "1")] = x
    for x in ("a", "b"):
        for y in ("a", "b"):
            table[(x, y)] = x if left else y
    return FiniteMonoid(name, elements, "1", table)


L21 = _adjoined_zero_monoid("L2^1", left=True)
R21 = _adjoined_zero_monoid("R2^1", left=False)

# Letter words over {1, 2} map into the adjoined zero monoids generator-wise.
_GENERATORS = {1: "a", 2: "b"}


def eval_in_finite(monoid: FiniteMonoid, w, assignment: Mapping[str, str]) -> str:
    """Evaluate a variable word in a finite monoid under the assignment."""
    values = []
    for name in _symbols(w):
        if name not in assignment:
            raise UnboundVariableError(f"variable {name!r} has no assigned value")
        value = assignment[name]
        if value not in monoid.elements:
            raise ValueError(f"{value!r} is not an element of {monoid.name}")
        values.append(value)
    return monoid.fold(values)


def _fold_in(monoid: FiniteMonoid) -> Callable:
    return lambda seq: monoid.fold(_GENERATORS[s] for s in seq)


class _Family(NamedTuple):
    key: Callable       # letter tuple -> hashable value, equal exactly for equivalent words
    obj: Callable       # word -> public canonical object; gets checked letters if cap is set
    cap: Optional[int]  # largest letter admitted; None means any


# The object builders look the insertion functions up at call time, so that
# code which wraps tableaux.p_* or bst.p_* (tracing, say) sees every call.
_FAMILIES = {
    MonoidFamily.STAL: _Family(tableaux._stal_columns, lambda w: tableaux.p_stal(w), None),
    MonoidFamily.TAIG: _Family(tableaux._taiga_key, lambda w: tableaux.p_taig(w), None),
    MonoidFamily.SYLV: _Family(bst._sylv_key, lambda w: bst.p_sylv(w), None),
    MonoidFamily.SYLV_SHARP: _Family(bst._sylv_sharp_key, lambda w: bst.p_sylv_sharp(w), None),
    MonoidFamily.BAXT: _Family(bst._baxt_key, lambda w: bst.p_baxt(w), None),
    MonoidFamily.LEFT_ZERO: _Family(_fold_in(L21), _fold_in(L21), 2),
    MonoidFamily.RIGHT_ZERO: _Family(_fold_in(R21), _fold_in(R21), 2),
    MonoidFamily.FREE_MONOGENIC: _Family(len, len, 1),
}


def _lookup(table: Mapping, family):
    """The table's row for a family; a miss raises ValueError."""
    try:
        return table[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None


def _family(family: MonoidFamily) -> _Family:
    return _lookup(_FAMILIES, family)


def alphabet_cap(family: MonoidFamily) -> Optional[int]:
    """Largest letter the family admits; None means any."""
    return _family(family).cap


def _letters(row: _Family, w) -> tuple:
    seq = tableaux._letter_seq(w)
    if row.cap is not None:
        check_rank(seq, row.cap)
    return seq


def canonical(family: MonoidFamily, w):
    """Canonical object of a letter word in the given family.

    Insertion families return their tableau/tree objects; free1 returns the
    exponent of the single generator; l21/r21 return the monoid element.
    """
    row = _family(family)
    if row.cap is None:
        return row.obj(w)  # the insertion functions check the word themselves
    return row.obj(_letters(row, w))


def equivalent(family: MonoidFamily, u, v) -> bool:
    """Do u and v define the same element, i.e. the same canonical object?"""
    row = _family(family)
    a, b = _letters(row, u), _letters(row, v)
    return a == b or row.key(a) == row.key(b)
