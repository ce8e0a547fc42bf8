"""Identities and their checking: exact decisions, normal forms, oracles, derivations.

Identity (two variable words) and load_identity_system are defined here; the
CLI loads this module only for check-identity, nf, oracle and derive; only the
oracle loads monoids and the tree code.  Its six records are namedtuples.

Each of the eight families has one row in _THEORIES: its finite identity
basis, a normal form for variable words, such that an identity holds exactly
when both sides have the same normal form (satisfies compares the two), and
the rewriting that derives that normal form with basis rules only.  The three
reference monoids l21, r21 and free1 have a normal form (ip, fp and the sorted
word) but no basis or derivation, which basis() alone refuses.  stal and taig
share one row: its normal form is the stalactic columns (words._columns, also
the stal key), spelled.  The brute force oracle substitutes letter words for
variables and compares the raw keys of monoids._FAMILIES; the test suite checks
the normal forms against it and against the characterisations of Cain,
Malheiro and Ribeiro as stated.

The sylv and baxt normal forms are each described once, as bounds (positions
kept in place, words._bounds) and an order in which every stretch between two
bounds sorts: normal_form sorts each stretch in O(n log n), and the derivation
bubble sorts each stretch toward that normal form, one adjacent swap, one basis
rule application, at a time.  sylvsharp is the mirror image of sylv.

A Derivation holds its start word and one rule application per step: where,
which rule, which way and the images, given or, in O(1), as lengths read off
the word when it is replayed; + joins two, building no step.  It is also its
own JSON: derivation_to_json writes it as it is held, texts for its words, and
derivation_from_json reads it back, for verify_derivation to check.  An image
may be empty, substituting the unit element, which makes short consequences of
long rules reachable, e.g. xyxy = yxxy from xysxty = yxsxty.  verify_derivation
can reject empty images (the semigroup notion); derive_search uses nonempty ones.
"""
from __future__ import annotations

import itertools
import operator
import random
import sys
import time
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .words import (
    LETTERS,
    MonoidFamily,
    RankViolationError,
    Word,
    _bounds,
    _check_count,
    _columns,
    _FamilyTable,
    _first_last_positions,
    _fp,
    _ip,
    _like,
    _parse_word,
    _spelled,
    _symbols,
)

LTR = "ltr"
RTL = "rtl"


class DecisionMismatchError(RuntimeError):
    """The escalating counterexample search ran out of budget."""


class DerivationError(RuntimeError):
    """A derivation failed its own check; this is a bug, not a negative answer."""


class UnboundVariableError(ValueError):
    """A substitution is missing a variable it needs."""


def _debug_log(name: str):
    """The named logger if the program has turned its DEBUG records on, else None."""
    # whoever turns a record on has imported logging; importing it here slows start-up
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(name)
    return log if log and log.isEnabledFor(logging.DEBUG) else None


class _Record:
    """The records' mixin: a record equals only a record of its own type, never a plain
    tuple, and hashes as its field tuple.  As a namedtuple, it pickles and is immutable."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's own
    __hash__ = tuple.__hash__

    # namedtuple's _replace calls _make: through __new__, both run the record's checks
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class Identity(_Record, namedtuple("Identity", "lhs rhs")):
    """A formal identity between two variable words, lhs and rhs."""

    __slots__ = ()

    def __new__(cls, lhs: Word, rhs: Word):
        if LETTERS in (lhs.kind, rhs.kind):
            raise ValueError("identity sides must be variable words")
        return super().__new__(cls, lhs, rhs)

    @classmethod
    def parse(cls, text: str) -> "Identity":
        """Parse "xyx = yxx" or "xyx ≈ yxx": each side as Word.variables reads it, less the
        text's outer whitespace and one whitespace character by the '='.  So "foo = bar"
        reads f o o = b a r, and "foo  =  bar", as text() writes it, foo = bar."""
        norm = text.replace("≈", "=")
        if norm.count("=") != 1:
            raise ValueError(f"identity must contain exactly one '=': {text!r}")
        left, right = norm.strip().split("=")
        return cls(Word.variables(left[:-1] if left[-1:].isspace() else left),
                   Word.variables(right[1:] if right[:1].isspace() else right))

    def text(self) -> str:
        """What parse reads back: a lone longer variable's space is next to the '='."""
        rhs = self.rhs.text()
        return f"{self.lhs.text()} = {' ' + rhs[:-1] if rhs.endswith(' ') else rhs}"

    def variables(self) -> tuple:
        """Sorted names occurring on either side."""
        return tuple(sorted(set(self.lhs.symbols) | set(self.rhs.symbols)))

    def is_trivial(self) -> bool:
        return self.lhs == self.rhs

    def __repr__(self) -> str:
        return f"Identity({self.text()!r})"


def load_identity_system(path) -> list:
    """Read identities from a file, one per line; '#' starts a comment."""
    rules = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                rules.append(Identity.parse(line))
    return rules


def _rules(text_pairs) -> tuple:
    return tuple(map(Identity.parse, text_pairs))


def basis(family: MonoidFamily) -> tuple:
    """The family's finite identity basis; ValueError if its row has none (l21, r21, free1)."""
    rules = _THEORIES[family].basis
    if rules is None:
        raise ValueError(f"no basis registered for {family}")
    return rules


# ---------------------------------------------------------------------------
# exact decision


def satisfies(family: MonoidFamily, ident: Identity) -> bool:
    """Decide whether the family satisfies the identity, for every rank >= 2.

    The sides must have the same normal form.  After Cain, Malheiro and Ribeiro,
    that is equal ev and fp in stal and taig; in sylv, also as many y after the
    last x, for all x and y; in sylvsharp, the mirror image (ip, and the y before
    the first x); in baxt, both; in l21 equal ip, in r21 fp and in free1 ev.
    """
    nf = _THEORIES[family].normal_form
    return nf(ident.lhs.symbols) == nf(ident.rhs.symbols)


# ---------------------------------------------------------------------------
# normal forms


def _sorted_stretches(syms: tuple, bounds: list, order: tuple, bound_last: bool = False) -> tuple:
    """syms with each stretch strictly between consecutive bounds (the last symbol is
    one) sorted in the order of the symbols of order, by a C-level key; with bound_last,
    the copies of the symbol at the bound that ends the stretch go last."""
    rank, out, prev = dict(zip(order, itertools.count())).__getitem__, [], 0
    for pos in bounds:
        stretch = sorted(syms[prev:pos], key=rank) if pos - prev > 1 else syms[prev:pos]
        k = stretch.count(syms[pos]) if bound_last else 0
        out += stretch[k:] + stretch[:k] if k else stretch
        out.append(syms[pos])
        prev = pos + 1
    return tuple(out)


def _sylv_form(syms: tuple) -> tuple:
    """The sylvester normal form: each stretch sorts in fp order, except that the copies
    of the letter whose last occurrence ends it, which fp order puts first, go last."""
    bounds = _bounds(syms)  # the fp order is that of the symbols at the bounds
    return _sorted_stretches(syms, bounds, [syms[pos] for pos in bounds], bound_last=True)


def _baxt_form(syms: tuple) -> tuple:
    """The Baxter normal form: each stretch sorts in ip order."""
    return _sorted_stretches(syms, _bounds(syms, first_too=True), _ip(syms))


def normal_form(family: MonoidFamily, w: Word) -> Word:
    """Canonical representative of w's class; equal exactly for equivalent words."""
    return _like(w, _THEORIES[family].normal_form(_symbols(w)))


# ---------------------------------------------------------------------------
# substitution and brute force oracle


def _substitute(images: Mapping, syms: tuple) -> tuple:
    """Concatenate the images of the variables in syms."""
    out = []
    for name in syms:
        out.extend(images[name])
    return tuple(out)


def apply_substitution(sub: Mapping[str, Word], w: Word) -> Word:
    """Replace each variable of w by its image; images are letter words."""
    images = {name: img.symbols for name, img in sub.items()}
    unbound = [name for name in w.symbols if name not in images]
    if unbound:
        raise UnboundVariableError(f"variable {unbound[0]!r} has no image")
    return Word(_substitute(images, w.symbols))


class Exhaustive(_Record, namedtuple("Exhaustive", "max_len")):
    """Scan all substitutions with images of length 0..max_len."""

    __slots__ = ()

    def __new__(cls, max_len: int):
        _check_count("max_len", max_len, 0)
        return super().__new__(cls, max_len)


class RandomSearch(_Record, namedtuple("RandomSearch", "trials max_len seed")):
    """Try seeded random substitutions with images of length 0..max_len."""

    __slots__ = ()

    def __new__(cls, trials: int, max_len: int, seed: int = 0):
        _check_count("trials", trials, 0)
        _check_count("max_len", max_len, 0)
        return super().__new__(cls, trials, max_len, seed)


class HoldsWithinBound(_Record, namedtuple("HoldsWithinBound", "checked")):
    __slots__ = ()


class CounterExample(_Record, namedtuple("CounterExample", "substitution lhs_object rhs_object")):
    """A substitution (name -> letter Word) whose sides have different objects."""

    __slots__ = ()

    def __new__(cls, substitution: dict, lhs_object, rhs_object):
        if lhs_object == rhs_object:
            raise ValueError("counterexample objects are equal; not a counterexample")
        return super().__new__(cls, substitution, lhs_object, rhs_object)


def _image_candidates(rank: int, max_len: int, pack: Callable) -> list:
    """All letter words of length 0..max_len over 1..rank, shortest first, packed."""
    letters = range(1, rank + 1)
    return [pack(w) for n in range(max_len + 1) for w in itertools.product(letters, repeat=n)]


def _random_images(rng: random.Random, trials: int, rank: int, max_len: int, count: int, pack):
    """trials tuples of count images, each drawn as a length, then its letters."""
    for _ in range(trials):
        yield tuple(pack(rng.randint(1, rank) for _ in range(rng.randint(0, max_len)))
                    for _ in range(count))


def _picker(indices: list) -> Callable:
    """Images -> the images at these indices; itemgetter needs two or more."""
    return (operator.itemgetter(*indices) if len(indices) > 1 else
            lambda imgs: [imgs[i] for i in indices])


def oracle(family: MonoidFamily, rank: int, ident: Identity, mode):
    """Substitute letter words over 1..rank for the variables and compare.

    Exhaustive mode enumerates images in shortlex order, first variable most
    significant, and reports the first counterexample; Random mode replays a
    seeded stream.  Both scan serially and key only sides that are different
    words with different pre-keys (taig's columns).  Unlike equivalent(), no
    evaluation screen: each pair keyed before the first counterexample has equal
    keys, hence equal evaluations, so two sorts per substitution would save one
    key pair at most.  A side joins its images: bytes to rank 255, tuples above.
    """
    from .monoids import _FAMILIES

    log = _debug_log("plactic_lab.oracle")
    start = time.perf_counter() if log else None
    row = _FAMILIES[family]
    _check_count("rank", rank, 1, RankViolationError)
    if row.cap is not None and rank > row.cap:
        raise RankViolationError(f"{family} admits rank at most {row.cap}")
    names = ident.variables()
    pack, join = ((bytes, b"".join) if rank <= 255 else  # a byte holds a letter up to 255
                  (tuple, lambda parts: tuple(itertools.chain.from_iterable(parts))))
    if isinstance(mode, Exhaustive):
        stream = itertools.product(_image_candidates(rank, mode.max_len, pack), repeat=len(names))
    elif isinstance(mode, RandomSearch):
        stream = _random_images(random.Random(mode.seed), mode.trials, rank, mode.max_len,
                                len(names), pack)
    else:
        raise TypeError(f"unknown oracle mode {mode!r}")
    at, key, pre = {name: i for i, name in enumerate(names)}, row.key, row.pre
    lhs, rhs = (_picker([at[n] for n in side.symbols]) for side in (ident.lhs, ident.rhs))
    checked = keyed = 0
    for checked, imgs in enumerate(stream, 1):
        u, v = join(lhs(imgs)), join(rhs(imgs))
        if u != v and (pre is None or pre(u) != pre(v)):  # else the keys are equal
            keyed += 1
            if key(u) != key(v):
                # from tuples: the objects and Words of a counterexample hold ints, not bytes
                verdict = CounterExample({n: Word(tuple(img)) for n, img in zip(names, imgs)},
                                         row.obj(tuple(u)), row.obj(tuple(v)))
                break
    else:
        verdict = HoldsWithinBound(checked=checked)
    if log:
        log.debug("%s rank %d %r: %d substitutions, %d keyed, %s in %.6f s", family, rank,
                  mode, checked, keyed, type(verdict).__name__, time.perf_counter() - start)
    return verdict


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, HoldsWithinBound):
        return {"verdict": "holds", "checked": verdict.checked}
    return {
        "verdict": "counterexample",
        "sub": {name: w.text() for name, w in sorted(verdict.substitution.items())},
    }


def find_counterexample(family: MonoidFamily, ident: Identity, cap: int = 6) -> dict:
    """Search with growing image length for a substitution separating the sides.

    Uses rank 2, or the family's alphabet cap when that is smaller.
    Raises DecisionMismatchError if nothing is found up to image length cap
    (>= 1); that would mean the exact decision and the oracle disagree.
    """
    from .monoids import alphabet_cap

    _check_count("cap", cap, 1)
    rank = min(2, alphabet_cap(family) or 2)
    for max_len in range(1, cap + 1):
        verdict = oracle(family, rank, ident, Exhaustive(max_len))
        if isinstance(verdict, CounterExample):
            return verdict.substitution
    raise DecisionMismatchError(
        f"no counterexample for {ident.text()!r} in {family} up to image length {cap}"
    )


# ---------------------------------------------------------------------------
# derivations


class DerivationStep(_Record, namedtuple(
        "DerivationStep", "before after rule_index direction prefix suffix endo")):
    """One rewrite: before = prefix + endo(side) + suffix, after uses the other side.

    endo maps every variable of the applied rule to a word; an image may be
    empty, which substitutes the unit element for that variable.
    """

    __slots__ = ()


def _step(item) -> DerivationStep:
    """The step of a _replay item, built before its rewrite; DerivationError on False."""
    if not item:
        raise DerivationError("the applications do not replay from start to end")
    word, start, stop, rule_index, direction, images, target_side = item
    before, make = tuple(word), Word._make
    after = before[:start] + _substitute(images, target_side) + before[stop:]
    endo = {name: make(tuple(img)) for name, img in images.items()}
    return DerivationStep(make(before), make(after), rule_index, direction, make(before[:start]),
                          make(before[stop:]), endo)


class Derivation:
    """A derivation held as its start word and one rule application per step.

    An application (start, rule_index, direction, lengths) rewrites the factor
    at start by rules[rule_index] read in direction; lengths are those of the
    images of the rule's variables in sorted order, read off the word, or a dict
    of the images as Words.  end is the last word.  len replays nothing; [i] replays
    every application, as an iteration does on one list, and builds only step i, so
    iterate rather than index.  Both raise DerivationError unless start reaches end.
    d + e over equal rules joins the apps and builds no step; the replay checks the ends.
    """

    __slots__ = ("rules", "start", "apps", "end")

    def __init__(self, rules: Sequence[Identity], start: Word, apps: Iterable, end: Word):
        self.rules, self.start, self.apps, self.end = tuple(rules), start, tuple(apps), end

    def __len__(self) -> int:
        return len(self.apps)

    def __iter__(self) -> Iterator[DerivationStep]:
        return map(_step, _replay(self.rules, self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        at = range(len(self.apps))[index]  # IndexError when out of range
        return [_step(x) for i, x in enumerate(_replay(self.rules, self)) if i == at or not x][0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Derivation)):
            return NotImplemented
        return ((isinstance(other, list) or other.rules == self.rules) and len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))

    def __add__(self, other) -> Derivation:
        return (Derivation(self.rules, self.start, self.apps + other.apps, other.end)
                if isinstance(other, Derivation) and other.rules == self.rules else NotImplemented)

    def __repr__(self) -> str:
        return f"Derivation({self.start.text()!r} => {self.end.text()!r}, steps={len(self)})"


def _replay(sigma: Sequence[Identity], d: Derivation, require_nonempty_images: bool = False):
    """Replay d on one list, rebuilding each rule application from sigma.  Yields
    (word, start, stop, rule_index, direction, images, target side) before each
    rewrite of word[start:stop], and False, then stops, at the first failed check.
    d must have sigma as its rules and Words as its start and end, and reach its
    end.  Given images are Words, one per variable of the rule; they, the start and the
    end are of one kind: kinds holds the kinds met so far, None the empty word's."""
    layouts, fits = {}, d.rules == tuple(sigma) and type(d.start) is Word is type(d.end)
    word, kinds = ([*d.start.symbols], {d.start.kind, d.end.kind, None}) if fits else (None, None)
    for app in d.apps if fits else ():
        if type(app) is not tuple or len(app) != 4:
            break
        start, ri, direction, lengths = app
        # an exact int: True would pick rule 1
        if (type(ri) is not int or not 0 <= ri < len(sigma) or direction not in (LTR, RTL)
                or type(start) is not int or start < 0):
            break
        if (ri, direction) not in layouts:
            rule = sigma[ri]
            src, dst = (rule.lhs, rule.rhs) if direction == LTR else (rule.rhs, rule.lhs)
            names = rule.variables()  # lengths follow this order
            layouts[ri, direction] = (src.symbols, dst.symbols, [*map(names.index, src)],
                                      dict.fromkeys(names))
        src, dst, reads, known = layouts[ri, direction]  # each name maps to None: no image yet
        if isinstance(lengths, dict):  # the images themselves; extra names are ignored
            if (set(map(type, lengths.values())) - {Word} or known.keys() - lengths.keys()
                    or len(kinds := kinds | {lengths[name].kind for name in known}) > 2):
                break  # no Word, an image missing, or both kinds
            known = {name: [*lengths[name].symbols] for name in known}
            lengths = tuple(map(len, known.values()))
        stop, images = _read_images(word, start, src, reads, lengths, known)
        if stop > len(word) or require_nonempty_images and not all(images.values()):
            break
        yield word, start, stop, ri, direction, images, dst
        word[start:stop] = _substitute(images, dst)
    else:
        if fits and tuple(word) == d.end.symbols:
            return
    yield False


def _read_images(word: list, pos: int, side: tuple, reads: list, lengths, known: dict) -> tuple:
    """Where side's factor from pos ends (past word's end at a failure), and the images
    of known's names: one not known (None) is read off word where side first uses it,
    lengths[reads[i]] symbols for side[i], and each later occurrence must spell it.
    Kept out of _replay: tracemalloc's cost per allocation grows with function length."""
    images = dict(known)
    if type(lengths) is not tuple or len(lengths) != len(images):
        return len(word) + 1, images
    for name, k in zip(side, reads):
        size, seen = lengths[k], images[name]
        piece = word[pos : pos + size] if type(size) is int and size >= 0 else None
        if piece is None or seen is not None and seen != piece:
            return len(word) + 1, images
        images[name] = piece
        pos += size
    return len(word) + 1 if None in images.values() else pos, images


def verify_derivation(sigma: Sequence[Identity], d: Derivation,
                      require_nonempty_images: bool = False) -> bool:
    """Replay a Derivation, rebuilding each rule application from sigma; anything
    that is no Derivation gives False."""
    return type(d) is Derivation and all(_replay(sigma, d, require_nonempty_images))


def invert_steps(d: Derivation) -> Derivation:
    """Run a derivation backwards: reverse the order and flip each step.  An
    application that is no 4-tuple stays as it is, for the replay to refuse."""
    if type(d) is not Derivation:
        raise TypeError(f"invert_steps takes a Derivation, not {type(d).__name__}")
    flipped = [(*app[:2], RTL if app[2] == LTR else LTR, app[3])
               if type(app) is tuple and len(app) == 4 else app for app in reversed(d.apps)]
    return Derivation(d.rules, d.end, flipped, d.start)


def _gather_steps(w: Word, rules: tuple, nf: tuple) -> Derivation:
    """Drive a word to the gathered form, its normal form nf, using xyx = yxx only.

    Working right to left, the currently last letter of the unfinished prefix
    is pulled together: scanning leftwards, each stray copy hops over the gap
    separating it from the block of copies, which is one application of the
    rule with x bound to the letter and y to the gap, and joins the block.
    """
    syms, apps = list(w.symbols), []
    boundary = len(syms)
    while boundary > 0:
        z = syms[boundary - 1]
        start = boundary - 1  # the block of copies of z is syms[start:boundary]
        for i in range(start - 1, -1, -1):
            if syms[i] == z:
                if i < start - 1:
                    syms[i : start + 1] = syms[i + 1 : start] + [z, z]
                    apps.append((i, 0, LTR, (1, start - i - 1)))
                start -= 1
        boundary = start
    return Derivation(rules, w, apps, Word._make(tuple(syms)))


def _sort_steps(w: Word, rules: tuple, nf: tuple, swap: Callable, first_too: bool = False,
                mirrored: bool = False) -> Derivation:
    """Bubble sort each stretch of w between its _bounds(w, first_too) toward nf, w's
    normal form (see _sorted_stretches), one application per swap.

    swap(syms, p, first, last) is the application (start, stop, rule_index,
    direction, lengths) that swaps syms[p] and syms[p + 1]; it reads only the
    first and last occurrences that are bounds, which stay put.
    mirrored sorts w reversed and mirrors each start to n - stop: the xysxty rules
    of sylv become the ytxsyx rules of sylvsharp.
    """
    given, target = (w.symbols[::-1], nf[::-1]) if mirrored else (w.symbols, nf)
    syms, n, apps = list(given), len(given), []
    first, last = _first_last_positions(given)
    prev = -1
    for pos in _bounds(given, first_too):
        # a symbol's place in the sorted stretch: one symbol's copies are adjacent there
        rank = dict(zip(target[prev + 1 : pos], itertools.count())).__getitem__
        changed = True
        while changed:
            changed = False
            for p in range(prev + 1, pos - 1):
                a, c = syms[p], syms[p + 1]
                if a != c and rank(a) > rank(c):
                    start, stop, ri, direction, lengths = swap(syms, p, first, last)
                    apps.append((n - stop if mirrored else start, ri, direction, lengths))
                    syms[p], syms[p + 1] = c, a
                    changed = True
        prev = pos
    end = tuple(syms)
    return Derivation(rules, w, apps, Word._make(end[::-1] if mirrored else end))


def _sylv_swap(syms: list, p: int, first: Mapping, last: Mapping) -> tuple:
    """The xysxty = yxsxty application that swaps the adjacent pair at p, p+1.

    Both letters occur again later; the one whose final occurrence comes
    first anchors x, the other y, which decides the rule direction.
    The images of s, t, x, y are syms[p+2:q], syms[q+1:r], ex and ey.
    """
    a, b = syms[p], syms[p + 1]
    ex, ey = (a, b) if last[a] < last[b] else (b, a)
    q, r = last[ex], last[ey]
    return p, r + 1, 0, LTR if ex == a else RTL, (q - p - 2, r - q - 1, 1, 1)


def _baxt_swap(syms: list, p: int, first: Mapping, last: Mapping) -> tuple:
    """The application of one of the two ten-letter rules that swaps p, p+1.

    The rule and direction are picked so that the four anchor occurrences
    (both letters before the pair and after it) appear in the rule's order.
    The images of h, k, s, t, x, y are syms[p+2:j1], syms[j1+1:j2], syms[i1+1:i2],
    syms[i2+1:p], ex and ey.
    """
    a, b = syms[p], syms[p + 1]
    ex, ey = (a, b) if last[a] < last[b] else (b, a)
    ri = int((first[a] < first[b]) == (ex == a))
    i1, i2 = sorted((first[a], first[b]))
    j1, j2 = last[ex], last[ey]
    return (i1, j2 + 1, ri, LTR if ex == a else RTL,
            (j1 - p - 2, j2 - j1 - 1, i2 - i1 - 1, p - i2 - 1, 1, 1))


def _rewriting(family: MonoidFamily, w: Word, nf: tuple) -> Derivation:
    """The family's derivation from w to nf, its normal form.  Every family's rewriting
    has its end checked here, and only here: DerivationError if it ends on any other word."""
    d = _THEORIES[family].derivation(w, basis(family), nf)  # basis refuses a row with none
    if d.end.symbols != nf:
        raise DerivationError(f"the {family} rewriting did not end on the normal form")
    return d


def normalize_derivation(family: MonoidFamily, w: Word) -> Derivation:
    """A derivation from w to normal_form(family, w), basis rules only, with no steps
    when w is already normal."""
    return _rewriting(family, w, _THEORIES[family].normal_form(w.symbols))


class _Theory(NamedTuple):
    basis: Optional[tuple]
    normal_form: Callable            # symbol tuple -> symbol tuple, equal iff an identity holds
    derivation: Optional[Callable]   # (Word, basis, its normal form) -> Derivation to it


_GATHER = _Theory(_rules(["xyx = yxx"]), lambda syms: _spelled(_columns(syms)), _gather_steps)
_THEORIES = _FamilyTable({
    MonoidFamily.STAL: _GATHER,
    MonoidFamily.TAIG: _GATHER,
    MonoidFamily.SYLV: _Theory(
        _rules(["xysxty = yxsxty"]), _sylv_form,
        lambda w, rules, nf: _sort_steps(w, rules, nf, _sylv_swap)),
    MonoidFamily.SYLV_SHARP: _Theory(
        _rules(["ytxsyx = ytxsxy"]), lambda syms: _sylv_form(syms[::-1])[::-1],
        lambda w, rules, nf: _sort_steps(w, rules, nf, _sylv_swap, mirrored=True)),
    MonoidFamily.BAXT: _Theory(
        _rules(["ysxtxyhxky = ysxtyxhxky", "xsytxyhxky = xsytyxhxky"]), _baxt_form,
        lambda w, rules, nf: _sort_steps(w, rules, nf, _baxt_swap, first_too=True)),
    MonoidFamily.LEFT_ZERO: _Theory(None, _ip, None),
    MonoidFamily.RIGHT_ZERO: _Theory(None, _fp, None),
    MonoidFamily.FREE_MONOGENIC: _Theory(None, lambda syms: tuple(sorted(syms)), None),
})


def derivation_certificate(family: MonoidFamily, ident: Identity) -> Derivation:
    """Derivation from lhs to rhs through the shared normal form, computed once per side:
    ValueError, before any rewriting, if the sides have different ones."""
    lhs, rhs = map(_THEORIES[family].normal_form, (ident.lhs.symbols, ident.rhs.symbols))
    if lhs != rhs:
        raise ValueError(f"{family} does not satisfy {ident.text()!r}")
    return _rewriting(family, ident.lhs, lhs) + invert_steps(_rewriting(family, ident.rhs, rhs))


# ---------------------------------------------------------------------------
# bounded search for derivations over arbitrary rule systems


def _matches(pattern: tuple, syms: tuple, start: int) -> list:
    """Every (end, images) by which pattern spells syms[start:end].

    Each variable's image is a nonempty tuple; sorted by end, then by the
    sorted images.
    """
    n, last = len(syms), len(pattern) - 1
    out = []
    stack = [(0, start, {})]  # pattern position, word position, images so far
    while stack:
        pi, fi, bound = stack.pop()
        if pi > last:
            out.append((fi, bound))
            continue
        name = pattern[pi]
        img = bound.get(name)
        if img is not None:
            if syms[fi : fi + len(img)] == img:
                stack.append((pi + 1, fi + len(img), bound))
            continue
        # leave at least one symbol for each later pattern position
        for stop in range(fi + 1, n - last + pi + 1):
            stack.append((pi + 1, stop, {**bound, name: syms[fi:stop]}))
    out.sort(key=lambda m: (m[0], sorted(m[1].items())))
    return out


def _neighbors(syms: tuple, sigma: Sequence[Identity]) -> Iterator[tuple]:
    """Every single rewrite of syms with nonempty images, in a fixed order, as
    (after, (start, rule_index, direction, images)), each image a tuple."""
    for ri, rule in enumerate(sigma):
        for direction, src, dst in ((LTR, rule.lhs, rule.rhs), (RTL, rule.rhs, rule.lhs)):
            if not src or not set(dst.symbols).issubset(src.symbols):
                continue
            for start in range(len(syms)):
                for end, images in _matches(src.symbols, syms, start):
                    yield (syms[:start] + _substitute(images, dst.symbols) + syms[end:],
                           (start, ri, direction, images))


def derive_search(sigma: Sequence[Identity], u: Word, v: Word, max_steps: int = 8,
                  max_word_len: int = 16) -> Optional[Derivation]:
    """Bidirectional breadth-first search for a derivation u -> v over sigma.

    Single steps use nonempty variable images only.  Returns a Derivation that
    gives its images as dicts (no steps when u equals v), or None when no
    derivation exists within the bounds.
    Each call logs one DEBUG record to plactic_lab.derive: the outcome, the
    depth reached, the words reached from each side and, when there are any,
    the rewrites pruned because they are longer than max_word_len.
    """
    _check_count("max_steps", max_steps, 0)
    _check_count("max_word_len", max_word_len, 0)
    forward, backward = {u: None}, {v: None}
    ffront, bfront = [u], [v]
    depth = pruned = 0
    log = _debug_log("plactic_lab.derive")

    def done(found: Optional[Derivation]) -> Optional[Derivation]:
        if log:
            outcome = ("found" if found is not None else
                       "step bound reached" if ffront and bfront else "frontier exhausted")
            log.debug("%s at depth %d; words reached: %d forward, %d backward%s", outcome,
                      depth, len(forward), len(backward),
                      f"; {pruned} rewrites longer than max_word_len pruned" if pruned else "")
        return found

    def trail(tree: dict, end: Word) -> Derivation:
        """The derivation in tree from its root to end, its images made Words."""
        apps, node = [], end
        while tree[node] is not None:
            node, (start, ri, direction, images) = tree[node]
            apps.append((start, ri, direction, dict(zip(images, map(Word._make, images.values())))))
        return Derivation(sigma, node, apps[::-1], end)

    if u == v:
        return done(Derivation(sigma, u, (), v))
    while ffront and bfront and depth < max_steps:
        depth += 1
        if len(ffront) <= len(bfront):
            front, seen, other = ffront, forward, backward
        else:
            front, seen, other = bfront, backward, forward
        new = []
        for word in front:
            for after, app in _neighbors(word.symbols, sigma):
                if len(after) > max_word_len:
                    pruned += 1
                    continue
                nw = Word._make(after)
                if nw in seen:
                    continue
                seen[nw] = (word, app)
                new.append(nw)
                if nw in other:
                    return done(trail(forward, nw) + invert_steps(trail(backward, nw)))
        if front is ffront:
            ffront = new
        else:
            bfront = new
    return done(None)


# ---------------------------------------------------------------------------
# serialization


def derivation_to_json(d: Derivation) -> dict:
    """d as it is held, in JSON values: each rule as its two side texts, the start and
    end texts, and each application as [start, rule, direction, lengths or images]."""
    return {"rules": [[rule.lhs.text(), rule.rhs.text()] for rule in d.rules],
            "start": d.start.text(), "end": d.end.text(),
            "apps": [[start, ri, direction, {name: img.text() for name, img in images.items()}
                      if type(images) is dict else [*images]]
                     for start, ri, direction, images in d.apps]}


def _exact(value, kind: type, size: Optional[int] = None):
    """value if its type is kind and, for a size, its length is size; else TypeError."""
    if type(value) is not kind or size is not None and len(value) != size:
        raise TypeError(f"expected a {kind.__name__}{f' of {size}' if size else ''}, "
                        f"got {type(value).__name__}")
    return value


def derivation_from_json(data) -> Derivation:
    """The Derivation of a derivation_to_json payload, lists made tuples and texts Words,
    each read as the kind it spells.  ValueError if the payload has the wrong shape or its
    texts spell both letter and variable words; verify_derivation checks the rest."""
    try:
        rules = [Identity(*(Word.variables(_exact(side, str)) for side in _exact(sides, list, 2)))
                 for sides in _exact(data["rules"], list)]
        words = [_parse_word(_exact(data["start"], str)), _parse_word(_exact(data["end"], str))]
        apps = []
        for app in _exact(data["apps"], list):
            start, ri, direction, images = _exact(app, list, 4)
            if type(images) is dict:
                images = {name: _parse_word(_exact(text, str)) for name, text in images.items()}
                words += images.values()
            else:  # the lengths
                images = tuple(_exact(images, list))
            apps.append((start, ri, direction, images))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a valid Derivation payload: {exc}") from None
    if len({w.kind for w in words} - {None}) > 1:
        raise ValueError("a derivation's texts spell both letter and variable words")
    return Derivation(rules, words[0], apps, words[1])
