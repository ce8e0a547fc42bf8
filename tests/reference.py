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
substitution whose sides differ.  RELATIONS are the defining relations of the
five insertion monoids, as the conditions under which two adjacent letters
swap; relation_classes closes a set of words under them, and class_walk and
occurrence_inversions make and measure pairs of words of one class.  These
four import nothing from the package.
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


# When the adjacent letters lo < hi, in either order, may swap, given the letters
# before and after the pair.  stal: one of them occurs again later; taig: a later b
# has lo <= b <= hi (Priez 2013); sylv: a later b has lo <= b < hi (Hivert, Novelli
# and Thibon 2005); sylvsharp: an earlier b has lo < b <= hi; baxt: an earlier c and
# a later b have lo <= b < c <= hi, or an earlier b and a later c have
# lo < b <= c < hi (Giraudo 2012).
RELATIONS = {
    "stal": lambda lo, hi, before, after: lo in after or hi in after,
    "taig": lambda lo, hi, before, after: any(lo <= b <= hi for b in after),
    "sylv": lambda lo, hi, before, after: any(lo <= b < hi for b in after),
    "sylvsharp": lambda lo, hi, before, after: any(lo < b <= hi for b in before),
    "baxt": lambda lo, hi, before, after: (
        any(lo <= b < c <= hi for c in before for b in after)
        or any(lo < b <= c < hi for b in before for c in after)),
}


def relation_classes(family, words) -> set:
    """The classes, as frozensets, into which the family's relations close words, a
    set closed under them (all words of one length over one alphabet): a union-find."""
    parent = {w: w for w in words}

    def find(w):
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    swaps = RELATIONS[str(family)]
    for w in words:
        for p in range(len(w) - 1):
            a, c = w[p], w[p + 1]
            if a != c and swaps(min(a, c), max(a, c), w[:p], w[p + 2:]):
                parent[find(w)] = find(w[:p] + (c, a) + w[p + 2:])
    classes = {}
    for w in words:
        classes.setdefault(find(w), set()).add(w)
    return {frozenset(members) for members in classes.values()}


def class_walk(family, word, rng, swaps: int) -> tuple:
    """A word of word's class: swaps random adjacent swaps, each drawn among those
    that keep every bound in place, the last occurrences (sylv), the first ones
    (sylvsharp) or both (baxt), so that the family's basis rule applies."""
    w = list(word)
    last = {a: i for i, a in enumerate(w)}
    first = {a: i for i, a in reversed(list(enumerate(w)))}
    bounds = {"sylv": set(last.values()), "sylvsharp": set(first.values()),
              "baxt": set(last.values()) | set(first.values())}[str(family)]
    for _ in range(swaps):
        free = [p for p in range(len(w) - 1)
                if w[p] != w[p + 1] and p not in bounds and p + 1 not in bounds]
        if not free:
            break
        p = rng.choice(free)
        w[p], w[p + 1] = w[p + 1], w[p]
    return tuple(w)


def occurrence_inversions(u, v) -> int:
    """The pairs of occurrences that u and v hold in opposite orders, the k-th copy of
    a symbol in u standing for its k-th copy in v: the fewest adjacent swaps from u to v."""
    at, seen = {}, {}
    for j, a in enumerate(v):
        at.setdefault(a, []).append(j)
    places = []
    for a in u:
        places.append(at[a][seen.get(a, 0)])
        seen[a] = seen.get(a, 0) + 1
    return sum(x > y for i, x in enumerate(places) for y in places[i + 1:])
