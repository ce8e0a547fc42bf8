"""Identities and their checking: exact decisions, normal forms, oracles, derivations.

Identity (two variable words) and load_identity_system are defined here, the
one module of the package that uses dataclasses; the CLI loads it only for
check-identity, nf, oracle and derive.

Each of the eight families has one row in _THEORIES: its finite identity
basis, the invariant that decides satisfaction (an identity holds exactly
when both sides have equal invariants), a normal form for variable words
such that an identity holds exactly when both sides have the same normal
form, and the rewriting that derives that normal form with basis rules only.
The three reference monoids l21, r21 and free1 have an invariant but no
basis, normal form or derivation.  The invariants, the normal forms and the
brute force oracle, which substitutes letter words for variables and
compares the raw keys of monoids._FAMILIES, are written separately and
cross-validated in the test suite.

The sylv and baxt normal forms are each described once, as bounds (positions
that stay in place) and a sort key for every stretch between two bounds:
normal_form sorts each stretch in O(n log n), and the derivation performs the
same sort one adjacent swap, one basis rule application, at a time.  sylvsharp
is the mirror image of sylv.

A Derivation holds its start word and one rule application per step: where,
which rule, which way and the images, given or, in O(1), as lengths read off
the word when it is replayed.  An image may be empty, substituting the unit
element; this makes short consequences of long rules reachable, e.g.
xyxy = yxxy from xysxty = yxsxty.  verify_derivation can reject empty images
(the semigroup notion), and derive_search explores nonempty images only.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .monoids import (
    MonoidFamily,
    RankViolationError,
    UnboundVariableError,
    _family,
    _lookup,
    alphabet_cap,
    canonical,
    check_rank,
)
from .words import (
    LETTERS,
    Word,
    _first_last_positions,
    _fp,
    _ip,
    _last_stretches,
    _like,
    _mix_positions,
    _parse_word,
    _symbols,
)

LTR = "ltr"
RTL = "rtl"


class DecisionMismatchError(RuntimeError):
    """The escalating counterexample search ran out of budget."""


class DerivationError(RuntimeError):
    """A derivation failed its own check; this is a bug, not a negative answer."""


def _debug_log(name: str):
    """The named logger if the program has turned its DEBUG records on, else None."""
    # whoever turns a record on has imported logging; importing it here slows start-up
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger(name)
    return log if log and log.isEnabledFor(logging.DEBUG) else None


@dataclass(frozen=True)
class Identity:
    """A formal identity between two variable words."""

    lhs: Word
    rhs: Word

    def __post_init__(self):
        for side in (self.lhs, self.rhs):
            if side.kind == LETTERS:
                raise ValueError("identity sides must be variable words")

    @classmethod
    def parse(cls, text: str) -> "Identity":
        """Parse "xyx = yxx"; also accepts the unicode approx sign."""
        norm = text.replace("≈", "=")
        if norm.count("=") != 1:
            raise ValueError(f"identity must contain exactly one '=': {text!r}")
        left, right = norm.split("=")
        return cls(Word.variables(left.strip()), Word.variables(right.strip()))

    def text(self) -> str:
        return f"{self.lhs.text()} = {self.rhs.text()}"

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


def _theory(family: MonoidFamily, part: str):
    """One part of the family's row in _THEORIES (defined below)."""
    value = getattr(_lookup(_THEORIES, family), part)
    if value is None:
        raise ValueError(f"no {part.replace('_', ' ')} registered for {family}")
    return value


def basis(family: MonoidFamily) -> tuple:
    """The finite identity basis of an insertion family."""
    return _theory(family, "basis")


# ---------------------------------------------------------------------------
# exact decision


def satisfies(family: MonoidFamily, ident: Identity) -> bool:
    """Decide whether the family satisfies the identity, for every rank >= 2.

    The sides must have equal invariants, after Cain, Malheiro and Ribeiro:
    stal and taig compare ev and fp; sylv adds how many y follow the last x,
    for all x and y; sylvsharp is the mirror image of sylv; baxt needs both.
    """
    invariant = _lookup(_THEORIES, family).invariant
    return invariant(ident.lhs.symbols) == invariant(ident.rhs.symbols)


# ---------------------------------------------------------------------------
# normal forms


def _gathered(syms: tuple) -> tuple:
    """The gathered form: the copies of each symbol together, symbols in fp order."""
    return tuple(sorted(syms, key=dict(zip(_fp(syms), itertools.count())).__getitem__))


def _sylv_stretches(syms: tuple) -> tuple:
    """The sylvester normal form as (bounds, rank_at): see _sorted_stretches.

    The bounds are the last occurrences.  In each stretch, the letter whose
    last occurrence ends it sorts after the rest; the others sort in fp order.
    """
    _, last = _first_last_positions(syms)
    fpidx = dict(zip(_fp(syms), itertools.count()))

    def rank_at(pos):
        xk = syms[pos]
        return lambda c: len(fpidx) if c == xk else fpidx[c]

    return sorted(last.values()), rank_at


def _baxt_stretches(syms: tuple) -> tuple:
    """The Baxter normal form as (bounds, rank_at): see _sorted_stretches.

    The bounds are the first and last occurrences; every stretch sorts in ip order.
    """
    ipidx = dict(zip(_ip(syms), itertools.count()))
    return sorted(_mix_positions(syms)), lambda pos: ipidx.__getitem__


def _sorted_stretches(syms: tuple, stretches: Callable) -> tuple:
    """syms with each stretch strictly between consecutive bounds sorted.

    stretches(syms) gives the sorted bound positions, whose symbols stay in
    place, and rank_at: rank_at(pos) is the sort key of the stretch ending at
    pos.  The last symbol is always a bound.
    """
    bounds, rank_at = stretches(syms)
    out, prev = [], -1
    for pos in bounds:
        out += sorted(syms[prev + 1 : pos], key=rank_at(pos))
        out.append(syms[pos])
        prev = pos
    return tuple(out)


def normal_form(family: MonoidFamily, w: Word) -> Word:
    """Canonical representative of w's class; equal exactly for equivalent words."""
    return _like(w, _theory(family, "normal_form")(_symbols(w)))


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
    try:
        return Word(_substitute(images, w.symbols))
    except KeyError as exc:
        raise UnboundVariableError(f"variable {exc.args[0]!r} has no image") from None


@dataclass(frozen=True)
class Exhaustive:
    """Scan all substitutions with images of length 0..max_len."""

    max_len: int

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {self.max_len}")


@dataclass(frozen=True)
class RandomSearch:
    """Try seeded random substitutions with images of length 0..max_len."""

    trials: int
    max_len: int
    seed: int = 0

    def __post_init__(self):
        if self.trials < 0 or self.max_len < 0:
            raise ValueError(f"trials and max_len must be >= 0, got {self.trials}, {self.max_len}")


@dataclass(frozen=True)
class HoldsWithinBound:
    checked: int


@dataclass
class CounterExample:
    substitution: dict
    lhs_object: object
    rhs_object: object

    def __post_init__(self):
        if self.lhs_object == self.rhs_object:
            raise ValueError("counterexample objects are equal; not a counterexample")


def _image_candidates(rank: int, max_len: int) -> list:
    """All letter tuples of length 0..max_len over 1..rank, shortest first."""
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(range(1, rank + 1), repeat=length))
    return out


def _counterexample(family, images: dict, u: list, v: list) -> CounterExample:
    return CounterExample(substitution={name: Word(img) for name, img in images.items()},
                          lhs_object=canonical(family, u), rhs_object=canonical(family, v))


def _random_images(rng: random.Random, trials: int, rank: int, max_len: int, count: int):
    """trials tuples of count images, each drawn as a length, then its letters."""
    for _ in range(trials):
        yield tuple(tuple(rng.randint(1, rank) for _ in range(rng.randint(0, max_len)))
                    for _ in range(count))


def oracle(family: MonoidFamily, rank: int, ident: Identity, mode):
    """Substitute letter words over 1..rank for the variables and compare.

    Exhaustive mode enumerates images in shortlex order, first variable most
    significant, and reports the first counterexample; Random mode replays a
    seeded stream.  Both scan serially, one substitution at a time, and
    build keys only when the two substituted sides are different words.
    """
    log = _debug_log("plactic_lab.oracle")
    start = time.perf_counter() if log else None
    row = _family(family)
    check_rank((), rank)  # rank >= 1
    if row.cap is not None and rank > row.cap:
        raise RankViolationError(f"{family} admits rank at most {row.cap}")
    names = ident.variables()
    if isinstance(mode, Exhaustive):
        stream = itertools.product(_image_candidates(rank, mode.max_len), repeat=len(names))
    elif isinstance(mode, RandomSearch):
        stream = _random_images(random.Random(mode.seed), mode.trials, rank, mode.max_len,
                                len(names))
    else:
        raise TypeError(f"unknown oracle mode {mode!r}")
    at = {name: i for i, name in enumerate(names)}
    key, lhs, rhs = row.key, [at[n] for n in ident.lhs.symbols], [at[n] for n in ident.rhs.symbols]
    checked = keyed = 0
    # lists, not tuple(iterator): those tuples are resized and flood the free lists
    for checked, imgs in enumerate(stream, 1):
        u = [*itertools.chain.from_iterable(map(imgs.__getitem__, lhs))]
        v = [*itertools.chain.from_iterable(map(imgs.__getitem__, rhs))]
        if u != v:  # equal words have equal keys
            keyed += 1
            if key(u) != key(v):
                verdict = _counterexample(family, dict(zip(names, imgs)), u, v)
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
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
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


@dataclass(frozen=True)
class DerivationStep:
    """One rewrite: before = prefix + endo(side) + suffix, after uses the other side.

    endo maps every variable of the applied rule to a word; an image may be
    empty, which substitutes the unit element for that variable.
    """

    before: Word
    after: Word
    rule_index: int
    direction: str
    prefix: Word
    suffix: Word
    endo: dict


def _step(item, endo: Optional[dict] = None) -> DerivationStep:
    """The step of a _replay item, built before its rewrite; DerivationError on False."""
    if not item:
        raise DerivationError("the applications do not replay from start to end")
    word, start, stop, rule_index, direction, images, target_side = item
    before, make = tuple(word), Word._make
    after = before[:start] + _substitute(images, target_side) + before[stop:]
    endo = endo or {name: make(tuple(img)) for name, img in images.items()}  # a list step's own
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
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other) -> list:
        return [*self, *other] if isinstance(other, (list, Derivation)) else NotImplemented

    def __radd__(self, other) -> list:
        return [*other, *self] if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"Derivation({self.start.text()!r} => {self.end.text()!r}, steps={len(self)})"


def _replay(sigma: Sequence[Identity], d: Derivation, require_nonempty_images: bool = False):
    """Replay d on one list, rebuilding each rule application from sigma.  Yields
    (word, start, stop, rule_index, direction, images, target side) before each
    rewrite of word[start:stop], and False, then stops, at the first failed check.
    d must have sigma as its rules and Words as its start and end, and reach its
    end.  Given images are Words of one kind, one per variable of the rule."""
    layouts, fits = {}, d.rules == tuple(sigma) and type(d.start) is Word is type(d.end)
    word = [*d.start.symbols] if fits else None
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
                    or len({lengths[name].kind for name in known} - {None}) > 1):  # both kinds
                break
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


def verify_derivation(sigma: Sequence[Identity], steps: Iterable[DerivationStep],
                      require_nonempty_images: bool = False) -> bool:
    """Replay a Derivation, rebuilding each rule application from sigma.  A list
    of DerivationSteps is replayed once as the Derivation of its own images, each endo
    applied at len(prefix); its words must be Words equal to the replayed steps'."""
    if type(steps) is Derivation:
        return all(_replay(sigma, steps, require_nonempty_images))
    steps = list(steps)
    if not steps or not all(isinstance(st, DerivationStep) and isinstance(st.endo, dict)
                            and type(st.before) is type(st.after) is Word is type(st.prefix)
                            is type(st.suffix) for st in steps):
        return not steps  # an empty list verifies, a malformed one does not
    d = Derivation(sigma, steps[0].before, [(len(st.prefix), st.rule_index, st.direction, st.endo)
                                            for st in steps], steps[-1].after)
    # zip drops a trailing False only after every step matched, the last up to d.end
    return all(item and _step(item, st.endo) == st
               for item, st in zip(_replay(sigma, d, require_nonempty_images), steps))


def invert_steps(steps: Sequence[DerivationStep]) -> Derivation | list:
    """Run a derivation backwards: reverse the order and flip each step.  An
    application that is no 4-tuple stays as it is, for the replay to refuse."""
    if type(steps) is Derivation:
        flipped = [(*app[:2], RTL if app[2] == LTR else LTR, app[3])
                   if type(app) is tuple and len(app) == 4 else app for app in reversed(steps.apps)]
        return Derivation(steps.rules, steps.end, flipped, steps.start)
    return [replace(st, before=st.after, after=st.before,
                    direction=RTL if st.direction == LTR else LTR) for st in reversed(steps)]


def _gather_steps(w: Word, rules: tuple) -> Derivation:
    """Drive a word to the gathered form using xyx = yxx only.

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


def _sort_steps(w: Word, rules: tuple, stretches: Callable, swap: Callable,
                mirrored: bool = False) -> Derivation:
    """Bubble sort the stretches of w (see _sorted_stretches), one application per swap.

    swap(syms, p, first, last) is the application (start, stop, rule_index,
    direction, lengths) that swaps syms[p] and syms[p + 1]; it reads only the
    first and last occurrences that are bounds, which stay put.
    mirrored sorts w reversed and mirrors each start to n - stop: the xysxty rules
    of sylv become the ytxsyx rules of sylvsharp.
    """
    given = w.symbols[::-1] if mirrored else w.symbols
    syms, n, apps = list(given), len(given), []
    first, last = _first_last_positions(given)
    bounds, rank_at = stretches(given)
    prev = -1
    for pos in bounds:
        rank = rank_at(pos)
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
    if end != _sorted_stretches(given, stretches):
        raise DerivationError("sorting one swap at a time did not land on the normal form")
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


def normalize_derivation(family: MonoidFamily, w: Word) -> Derivation:
    """A verified derivation from w to normal_form(family, w), basis rules only.

    It has no steps when w is already normal.
    """
    return _theory(family, "derivation")(w, basis(family))


class _Theory(NamedTuple):
    basis: Optional[tuple]
    invariant: Callable              # symbol tuple -> value, equal iff an identity holds
    normal_form: Optional[Callable]  # symbol tuple -> symbol tuple
    derivation: Optional[Callable]   # (Word, basis) -> Derivation to its normal form


_GATHER = _Theory(_rules(["xyx = yxx"]), lambda syms: (Counter(syms), _fp(syms)), _gathered,
                  _gather_steps)
_THEORIES = {
    MonoidFamily.STAL: _GATHER,
    MonoidFamily.TAIG: _GATHER,
    MonoidFamily.SYLV: _Theory(_rules(["xysxty = yxsxty"]), _last_stretches,
                               lambda syms: _sorted_stretches(syms, _sylv_stretches),
                               lambda w, rules: _sort_steps(w, rules, _sylv_stretches, _sylv_swap)),
    MonoidFamily.SYLV_SHARP: _Theory(
        _rules(["ytxsyx = ytxsxy"]), lambda syms: _last_stretches(syms[::-1]),
        lambda syms: _sorted_stretches(syms[::-1], _sylv_stretches)[::-1],
        lambda w, rules: _sort_steps(w, rules, _sylv_stretches, _sylv_swap, mirrored=True)),
    MonoidFamily.BAXT: _Theory(
        _rules(["ysxtxyhxky = ysxtyxhxky", "xsytxyhxky = xsytyxhxky"]),
        lambda syms: (_last_stretches(syms), _last_stretches(syms[::-1])),
        lambda syms: _sorted_stretches(syms, _baxt_stretches),
        lambda w, rules: _sort_steps(w, rules, _baxt_stretches, _baxt_swap)),
    MonoidFamily.LEFT_ZERO: _Theory(None, _ip, None, None),
    MonoidFamily.RIGHT_ZERO: _Theory(None, _fp, None, None),
    MonoidFamily.FREE_MONOGENIC: _Theory(None, Counter, None, None),
}


def derivation_certificate(family: MonoidFamily, ident: Identity) -> Derivation:
    """Derivation from lhs to rhs through the shared normal form."""
    if not satisfies(family, ident):
        raise ValueError(f"{family} does not satisfy {ident.text()!r}")
    down = normalize_derivation(family, ident.lhs)
    up = invert_steps(normalize_derivation(family, ident.rhs))
    return Derivation(down.rules, ident.lhs, down.apps + up.apps, ident.rhs)


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
    if max_steps < 0 or max_word_len < 0:
        raise ValueError(f"max_steps and max_word_len must be >= 0: {max_steps}, {max_word_len}")
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
                    down, up = trail(forward, nw), invert_steps(trail(backward, nw))
                    return done(Derivation(sigma, u, down.apps + up.apps, v))
        if front is ffront:
            ffront = new
        else:
            bfront = new
    return done(None)


# ---------------------------------------------------------------------------
# serialization


def step_to_json(step: DerivationStep) -> dict:
    return {
        "before": step.before.text(),
        "after": step.after.text(),
        "rule": step.rule_index,
        "direction": step.direction,
        "prefix": step.prefix.text(),
        "suffix": step.suffix.text(),
        "endo": {name: img.text() for name, img in sorted(step.endo.items())},
    }


def step_from_json(data: dict) -> DerivationStep:
    """Read each text as the kind it spells; ValueError if texts of both kinds occur,
    or if the payload is no step_to_json payload: the rule an exact int >= 0, the
    direction "ltr" or "rtl"."""
    try:
        words = {k: _parse_word(data[k]) for k in ("before", "after", "prefix", "suffix")}
        endo = {name: _parse_word(img) for name, img in data["endo"].items()}
        rule, direction = data["rule"], data["direction"]
    except (KeyError, TypeError, AttributeError):  # a missing field, or one of a wrong type
        raise ValueError("not a valid DerivationStep payload") from None
    if type(rule) is not int or rule < 0 or direction not in (LTR, RTL):
        raise ValueError(f"not a valid DerivationStep payload: rule {rule!r}, "
                         f"direction {direction!r}")
    if len({w.kind for w in (*words.values(), *endo.values())} - {None}) > 1:
        raise ValueError("a step's texts spell both letter and variable words")
    return DerivationStep(rule_index=rule, direction=direction, endo=endo, **words)


def derivation_to_json(steps: Iterable[DerivationStep]) -> list:
    return [*map(step_to_json, steps)]
