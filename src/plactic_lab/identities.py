"""Identities and their checking: exact decisions, normal forms, oracles, derivations.

Identity (two variable words) and load_identity_system are defined here; the
CLI loads this module only for check-identity, nf, oracle and derive; only the
oracle loads monoids and the tree code.  Its six records are namedtuples.

Each of the eight families has one row in _THEORIES: its finite identity basis,
a normal form for variable words, such that an identity holds exactly when both
sides have the same normal form (satisfies compares the two), and the rewriting
toward any word of the class with basis rules only: a word's normal form, or an
identity's rhs from its lhs.  The three reference monoids l21, r21 and free1
have a normal form (ip, fp and the sorted word) but no basis or derivation,
which basis() alone refuses.  stal and taig share one row: its normal form is
the stalactic columns (words._columns, also the stal key), spelled.  The brute
force oracle substitutes letter words for variables and compares the raw keys of
monoids._FAMILIES; the test suite checks the normal forms against it and against
the characterisations of Cain, Malheiro and Ribeiro as stated.

The sylv and baxt normal forms are each described once, as bounds (positions
kept in place, words._bounds) and an order in which every stretch between two
bounds sorts: normal_form sorts each stretch in O(n log n), and the derivation
bubble sorts each stretch toward any word of the class, one adjacent swap, one
basis rule application, per inversion.  sylvsharp is the mirror image of sylv.

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
        return map(_step, _replay(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        at = range(len(self.apps))[index]  # IndexError when out of range
        return [_step(x) for i, x in enumerate(_replay(self)) if i == at or not x][0]

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


def _replay(d: Derivation, require_nonempty_images: bool = False):
    """Replay d on one list, rebuilding each rule application from d.rules.  Yields
    (word, start, stop, rule_index, direction, images, target side) before each
    rewrite of word[start:stop], and False, then stops, at the first failed check.
    d must have Words as its start and end, and reach its end.  Given images are
    Words, one per variable of the rule; they, the start and the end are of one
    kind: kinds holds the kinds met so far, None the empty word's."""
    layouts, fits = {}, type(d.start) is Word is type(d.end)
    word, kinds = ([*d.start.symbols], {d.start.kind, d.end.kind, None}) if fits else (None, None)
    for app in d.apps if fits else ():
        if type(app) is not tuple or len(app) != 4:
            break
        start, ri, direction, lengths = app
        # an exact int: True would pick rule 1
        if (type(ri) is not int or not 0 <= ri < len(d.rules) or direction not in (LTR, RTL)
                or type(start) is not int or start < 0):
            break
        if (ri, direction) not in layouts:
            rule = d.rules[ri]
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
    """Replay a Derivation whose rules are sigma, rebuilding each rule application;
    anything that is no Derivation gives False."""
    return (type(d) is Derivation and d.rules == tuple(sigma)
            and all(_replay(d, require_nonempty_images)))


def invert_steps(d: Derivation) -> Derivation:
    """Run a derivation backwards: reverse the order and flip each step.  An
    application that is no 4-tuple stays as it is, for the replay to refuse."""
    if type(d) is not Derivation:
        raise TypeError(f"invert_steps takes a Derivation, not {type(d).__name__}")
    flipped = [(*app[:2], RTL if app[2] == LTR else LTR, app[3])
               if type(app) is tuple and len(app) == 4 else app for app in reversed(d.apps)]
    return Derivation(d.rules, d.end, flipped, d.start)


def _gather_steps(syms: tuple, target: tuple) -> tuple:
    """The applications that drive syms toward target, any word of the class, by xyx = yxx,
    and their end: the gathering of syms, then that of target run backwards.

    Working right to left, the currently last letter of the unfinished prefix
    is pulled together: scanning leftwards, each stray copy hops over the gap
    separating it from the block of copies, which is one application of the
    rule with x bound to the letter and y to the gap, and joins the block.
    """
    runs = []
    for word in map(list, (syms, target)):
        apps, boundary = [], len(word)
        while boundary > 0:
            z = word[boundary - 1]
            start = boundary - 1  # the block of copies of z is word[start:boundary]
            for i in range(start - 1, -1, -1):
                if word[i] == z:
                    if i < start - 1:
                        word[i : start + 1] = word[i + 1 : start] + [z, z]
                        apps.append((i, 0, LTR, (1, start - i - 1)))
                    start -= 1
            boundary = start
        runs.append((apps, tuple(word)))
    (apps, end), (back, meet) = runs  # the gatherings meet when target is in the class
    return apps + [(i, ri, RTL, k) for i, ri, _, k in back[::-1]], target if end == meet else end


def _sort_steps(syms: tuple, target: tuple, swap: Callable, first_too: bool = False,
                mirrored: bool = False) -> tuple:
    """The applications that bubble sort each stretch of syms between its _bounds(syms,
    first_too) toward target, any word of the class, one per swap, and their end.

    Two stable index sorts rank the k-th copy of a symbol as the place of the k-th copy in
    target, so copies of one symbol never invert and each swap undoes one inversion between
    the two words.  swap(word, p, first, last) is the application (start, stop, rule_index,
    direction, lengths) that swaps word[p] and word[p + 1]; it reads only the first and last
    occurrences that are bounds, which stay put.  mirrored sorts syms reversed, counting copies
    from the right, and mirrors each start to n - stop: sylv's xysxty becomes sylvsharp's ytxsyx.
    """
    given, target = (syms[::-1], target[::-1]) if mirrored else (syms, target)
    word, n, apps, prev = list(given), len(given), [], -1
    rank = dict(zip(*(sorted(range(n), key=side.__getitem__) for side in (given, target))))
    first, last = _first_last_positions(given)
    for pos in _bounds(given, first_too):
        changed = True
        while changed:
            changed = False
            for p in range(prev + 1, pos - 1):
                if rank[p] > rank[p + 1]:
                    start, stop, ri, direction, lengths = swap(word, p, first, last)
                    apps.append((n - stop if mirrored else start, ri, direction, lengths))
                    word[p], word[p + 1] = word[p + 1], word[p]
                    rank[p], rank[p + 1] = rank[p + 1], rank[p]
                    changed = True
        prev = pos
    return apps, tuple(word[::-1] if mirrored else word)


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


def _rewriting(family: MonoidFamily, w: Word, target: Word) -> Derivation:
    """The derivation of the family's row from w to target, any word of w's class, over
    basis(family), which alone refuses; DerivationError if the applications end elsewhere."""
    rules = basis(family)  # first: a row without a basis has no rewriting either
    apps, end = _THEORIES[family].derivation(w.symbols, target.symbols)
    if end != target.symbols:
        raise DerivationError(f"the {family} rewriting did not end on the normal form or target")
    return Derivation(rules, w, apps, target)


def normalize_derivation(family: MonoidFamily, w) -> Derivation:
    """A derivation from w to normal_form(family, w), basis rules only, with no steps
    when w is already normal; a w that is no Word is read as a checked Word(w)."""
    w = w if isinstance(w, Word) else Word(w)
    return _rewriting(family, w, Word._make(_THEORIES[family].normal_form(w.symbols)))


class _Theory(NamedTuple):
    basis: Optional[tuple]
    normal_form: Callable            # symbol tuple -> symbol tuple, equal iff an identity holds
    derivation: Optional[Callable]   # (symbols, target in their class) -> (applications, end)


_GATHER = _Theory(_rules(["xyx = yxx"]), lambda syms: _spelled(_columns(syms)), _gather_steps)
_THEORIES = _FamilyTable({
    MonoidFamily.STAL: _GATHER,
    MonoidFamily.TAIG: _GATHER,
    MonoidFamily.SYLV: _Theory(
        _rules(["xysxty = yxsxty"]), _sylv_form,
        lambda syms, target: _sort_steps(syms, target, _sylv_swap)),
    MonoidFamily.SYLV_SHARP: _Theory(
        _rules(["ytxsyx = ytxsxy"]), lambda syms: _sylv_form(syms[::-1])[::-1],
        lambda syms, target: _sort_steps(syms, target, _sylv_swap, mirrored=True)),
    MonoidFamily.BAXT: _Theory(
        _rules(["ysxtxyhxky = ysxtyxhxky", "xsytxyhxky = xsytyxhxky"]), _baxt_form,
        lambda syms, target: _sort_steps(syms, target, _baxt_swap, first_too=True)),
    MonoidFamily.LEFT_ZERO: _Theory(None, _ip, None),
    MonoidFamily.RIGHT_ZERO: _Theory(None, _fp, None),
    MonoidFamily.FREE_MONOGENIC: _Theory(None, lambda syms: tuple(sorted(syms)), None),
})


def derivation_certificate(family: MonoidFamily, ident: Identity) -> Derivation:
    """Derivation straight from lhs to rhs, one swap per pair of occurrences the sides
    order differently: ValueError, before any rewriting, if the family fails ident."""
    if not satisfies(family, ident):
        raise ValueError(f"{family} does not satisfy {ident.text()!r}")
    return _rewriting(family, ident.lhs, ident.rhs)


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


def _trail(sigma: Sequence[Identity], tree: dict, end: Word) -> Derivation:
    """The derivation in a search tree from its root to end, its images made Words."""
    apps, node = [], end
    while tree[node] is not None:
        node, (start, ri, direction, images) = tree[node]
        apps.append((start, ri, direction, dict(zip(images, map(Word._make, images.values())))))
    return Derivation(sigma, node, apps[::-1], end)


def derive_search(sigma: Sequence[Identity], u: Word, v: Word, max_steps: int = 8,
                  max_word_len: int = 16) -> Optional[Derivation]:
    """Bidirectional breadth-first search for a derivation u -> v over sigma.

    Single steps use nonempty variable images only.  Each depth grows the smaller
    front (u's on a tie), and the search stops at the first word both sides reach.
    Returns a Derivation that gives its images as dicts (no steps when u equals v),
    or None when no derivation exists within the bounds.
    Each call logs one DEBUG record to plactic_lab.derive: the outcome, the
    depth reached, the words reached from each side and, when there are any,
    the rewrites pruned because they are longer than max_word_len.
    """
    _check_count("max_steps", max_steps, 0)
    _check_count("max_word_len", max_word_len, 0)
    trees, fronts = ({u: None}, {v: None}), [[u], [v]]  # side 0 from u, side 1 from v
    meet = u if u == v else None
    depth = pruned = 0
    while meet is None and all(fronts) and depth < max_steps:
        depth += 1
        side = int(len(fronts[0]) > len(fronts[1]))
        seen, other, new = trees[side], trees[1 - side], []
        for word, (after, app) in ((w, rewrite) for w in fronts[side]
                                   for rewrite in _neighbors(w.symbols, sigma)):
            if len(after) > max_word_len:
                pruned += 1
            elif (nw := Word._make(after)) not in seen:
                seen[nw] = (word, app)
                new.append(nw)
                if nw in other:
                    meet = nw
                    break
        fronts[side] = new
    if log := _debug_log("plactic_lab.derive"):
        outcome = ("found" if meet is not None else
                   "step bound reached" if all(fronts) else "frontier exhausted")
        log.debug("%s at depth %d; words reached: %d forward, %d backward%s", outcome, depth,
                  *map(len, trees),
                  f"; {pruned} rewrites longer than max_word_len pruned" if pruned else "")
    return None if meet is None else (_trail(sigma, trees[0], meet)
                                      + invert_steps(_trail(sigma, trees[1], meet)))


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
