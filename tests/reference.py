"""Independent references the tests compare the package against.

L21 and R21 are the multiplication tables of the three-element monoids that
the l21 and r21 families realise: a unit 1 adjoined to the left zero and the
right zero semigroup on {a, b}.  directional_occ is the statistic in which
Cain, Malheiro and Ribeiro state the sylvester, #-sylvester and Baxter
characterisations.  restrict makes subwords for tests of the package's words.
step_json writes each step of a derivation as its texts, the form whose
digests the tests pin.
"""
from plactic_lab import Word

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
