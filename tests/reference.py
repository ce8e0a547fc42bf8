"""Independent references the tests compare the package against.

L21 and R21 are the multiplication tables of the three-element monoids that
the l21 and r21 families realise: a unit 1 adjoined to the left zero and the
right zero semigroup on {a, b}.  directional_occ is the statistic in which
Cain, Malheiro and Ribeiro state the sylvester, #-sylvester and Baxter
characterisations.  restrict makes subwords for tests of the package's words.
step_json writes each step of a derivation as its texts, the form whose
digests the tests pin.  same_columns rearranges a word without changing its
stalactic columns.  substitutions is the oracle's stream written plainly, and
full_key_scan the oracle with no pre-key: it builds both keys for every
substitution whose sides differ.
"""
import itertools
import random

from plactic_lab import Exhaustive, Word, canonical
from plactic_lab.monoids import _FAMILIES

ELEMENTS = ("1", "a", "b")


def _adjoined_zero(left: bool) -> dict:
    # 1 is the unit; on {a, b} the product is the left factor (left zero) or the right one
    return {(x, y): y if x == "1" else x if y == "1" or left else y
            for x in ELEMENTS for y in ELEMENTS}


L21, R21 = _adjoined_zero(left=True), _adjoined_zero(left=False)


def fold(table: dict, elements) -> str:
    """The product of the elements in the monoid of the table."""
    acc = "1"
    for x in elements:
        acc = table[acc, x]
    return acc


def directional_occ(direction: str, anchor, x, w) -> int:
    """Occurrences of x before the first anchor ("before") or after the last one
    ("after"); the anchor occurs in w."""
    syms = tuple(w) if direction == "before" else tuple(w)[::-1]
    return syms[:syms.index(anchor)].count(x)


def restrict(w, symbols) -> Word:
    """The subword of w of the occurrences of the given symbols."""
    wanted = set(symbols)
    return Word(s for s in w if s in wanted)


def step_json(steps) -> list:
    """Each step as the texts of its words, its rule and direction, and its images."""
    return [{"before": step.before.text(), "after": step.after.text(), "rule": step.rule_index,
             "direction": step.direction, "prefix": step.prefix.text(),
             "suffix": step.suffix.text(),
             "endo": {name: img.text() for name, img in sorted(step.endo.items())}}
            for step in steps]


def same_columns(word, rng) -> tuple:
    """The symbols of word that are not last occurrences in a shuffled order, then
    the last occurrences in their order: the same ev and fp, so the same columns."""
    last = {a: i for i, a in enumerate(word)}
    rest = [a for i, a in enumerate(word) if last[a] != i]
    rng.shuffle(rest)
    return tuple(rest) + tuple(a for i, a in enumerate(word) if last[a] == i)


def substitutions(names, rank, mode):
    """Image tuples for names, letters 1..rank: all in shortlex order for
    Exhaustive, first name most significant, or the RandomSearch seed's draws."""
    if isinstance(mode, Exhaustive):
        images = [()]
        for length in range(1, mode.max_len + 1):
            images.extend(itertools.product(range(1, rank + 1), repeat=length))
        return itertools.product(images, repeat=len(names))
    rng = random.Random(mode.seed)  # each image draws its length, then its letters
    return ([tuple(rng.randint(1, rank) for _ in range(rng.randint(0, mode.max_len)))
             for _ in names] for _ in range(mode.trials))


def full_key_scan(family, rank, ident, mode):
    """The count of substitutions scanned, or the first one whose sides have
    different keys, with the objects of both sides."""
    names, key = ident.variables(), _FAMILIES[family].key
    checked = 0
    for checked, combo in enumerate(substitutions(names, rank, mode), 1):
        sub = dict(zip(names, combo))
        lhs, rhs = (tuple(a for name in side.symbols for a in sub[name])
                    for side in (ident.lhs, ident.rhs))
        if lhs != rhs and key(lhs) != key(rhs):
            return sub, canonical(family, lhs), canonical(family, rhs)
    return checked
