"""Identity checking: exact decisions, normal forms, oracles, derivations.

Each of the eight families has one row in _THEORIES: its finite identity
basis, the word statistics that decide satisfaction (an identity holds
exactly when both sides agree on every statistic), a normal form for
variable words such that an identity holds exactly when both sides have the
same normal form, and the rewriting that derives that normal form with basis
rules only.  The three reference monoids l21, r21 and free1 have statistics
but no basis, normal form or derivation.  Decisions are independent of the
brute force oracle, which substitutes letter words for variables and
compares the raw keys of monoids._FAMILIES; the two are cross-validated in
the test suite.

Derivation steps apply one basis rule inside a context.  Step endomorphisms
may assign the empty word to a rule variable (substituting the unit element);
this is what makes short consequences of long rules reachable, e.g.
xyxy = yxxy from xysxty = yxsxty.  verify_derivation can optionally reject
empty images to model the stricter semigroup notion, and derive_search
explores nonempty images only.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

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
from .tableaux import _spell_columns, _stal_columns
from .words import (
    Identity,
    Word,
    _after_table,
    _before_table,
    _first_last_positions,
    _mix_positions,
    _symbols,
    fp,
    ip,
)

LTR = "ltr"
RTL = "rtl"


class DecisionMismatchError(RuntimeError):
    """The escalating counterexample search ran out of budget."""


class DerivationError(RuntimeError):
    """A derivation failed its own check; this is a bug, not a negative answer."""


def _rules(text_pairs) -> tuple:
    return tuple(Identity.parse(t) for t in text_pairs)


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

    The conditions compare word statistics of the two sides: evaluations,
    the ip/fp skeletons, and the directional occurrence tables, in the
    combination appropriate to the family.
    """
    u, v = ident.lhs.symbols, ident.rhs.symbols
    return all(stat(u) == stat(v) for stat in _lookup(_THEORIES, family).stats)


# ---------------------------------------------------------------------------
# normal forms


def _nf_sylv(syms: tuple) -> tuple:
    if not syms:
        return ()
    counts = Counter(syms)
    order = list(fp(syms))
    after = _after_table(syms)
    out = []
    m = len(order)
    for i, xi in enumerate(order):
        # letters strictly between the previous block and this one
        for j in range(i + 1, m):
            xj = order[j]
            if i == 0:
                g = counts[xj] - after[order[0]].get(xj, 0)
            else:
                g = after[order[i - 1]].get(xj, 0) - after[xi].get(xj, 0)
            out.extend([xj] * g)
        e = counts[xi] if i == 0 else after[order[i - 1]].get(xi, 0)
        out.extend([xi] * e)
    return tuple(out)


def _nf_baxt(syms: tuple) -> tuple:
    ipidx = {s: k for k, s in enumerate(ip(syms))}
    out = []
    prev = -1
    for pos in sorted(_mix_positions(syms)):
        out.extend(sorted(syms[prev + 1 : pos], key=ipidx.__getitem__))
        out.append(syms[pos])
        prev = pos
    return tuple(out)


def normal_form(family: MonoidFamily, w: Word) -> Word:
    """Canonical representative of w's class; equal exactly for equivalent words."""
    return Word(_theory(family, "normal_form")(_symbols(w)))


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
    # whoever turns the record on has imported logging; importing it here slows start-up
    logging = sys.modules.get("logging")
    log = logging.getLogger("plactic_lab.oracle") if logging else None
    start = time.perf_counter() if log and log.isEnabledFor(logging.DEBUG) else None
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
    if start is not None:
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
    Raises DecisionMismatchError if nothing is found up to image length cap;
    that would mean the exact decision and the oracle disagree.
    """
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
    endo: dict = field(compare=True)


def verify_derivation(sigma: Sequence[Identity], steps: Iterable[DerivationStep],
                      require_nonempty_images: bool = False) -> bool:
    """Recompute every step from its parts and check the chain links up."""
    prev = None
    for st in steps:
        if not isinstance(st.rule_index, int) or not 0 <= st.rule_index < len(sigma):
            return False
        rule = sigma[st.rule_index]
        if st.direction == LTR:
            src, dst = rule.lhs, rule.rhs
        elif st.direction == RTL:
            src, dst = rule.rhs, rule.lhs
        else:
            return False
        needed = set(src.symbols) | set(dst.symbols)
        if not needed.issubset(st.endo):
            return False
        if require_nonempty_images and any(not st.endo[v] for v in needed):
            return False
        images = {name: img.symbols for name, img in st.endo.items()}
        try:
            before = st.prefix + Word(_substitute(images, src.symbols)) + st.suffix
            after = st.prefix + Word(_substitute(images, dst.symbols)) + st.suffix
        except ValueError:
            return False
        if st.before != before or st.after != after:
            return False
        if prev is not None and st.before != prev:
            return False
        prev = st.after
    return True


def invert_steps(steps: Sequence[DerivationStep]) -> list:
    """Run a derivation backwards: reverse the order and flip each step."""
    return [DerivationStep(before=st.after, after=st.before, rule_index=st.rule_index,
                           direction=RTL if st.direction == LTR else LTR,
                           prefix=st.prefix, suffix=st.suffix, endo=st.endo)
            for st in reversed(steps)]


def _gather_steps(w: Word) -> list:
    """Drive a word to the gathered form using xyx = yxx only.

    Working right to left, the currently last letter of the unfinished prefix
    is pulled together: each stray copy hops over the gap separating it from
    the next copy, which is one application of the rule with x bound to the
    letter and y to the gap.
    """
    syms = list(w.symbols)
    steps = []
    boundary = len(syms)
    while boundary > 0:
        z = syms[boundary - 1]
        positions = [i for i in range(boundary) if syms[i] == z]
        while True:
            run = 1
            while run < len(positions) and positions[-run - 1] == positions[-run] - 1:
                run += 1
            if run == len(positions):
                break
            i = positions[-run - 1]
            j = positions[-run]
            gap = syms[i + 1 : j]
            before, prefix, suffix = Word(syms), Word(syms[:i]), Word(syms[j + 1 :])
            syms[i : j + 1] = gap + [z, z]
            steps.append(DerivationStep(before=before, after=Word(syms), rule_index=0,
                                        direction=LTR, prefix=prefix, suffix=suffix,
                                        endo={"x": Word((z,)), "y": Word(gap)}))
            positions = [i for i in range(boundary) if syms[i] == z]
        boundary -= len(positions)
    return steps


def _swap_step(syms: list, p: int, start: int, stop: int, rule_index: int,
               direction: str, endo: dict) -> DerivationStep:
    """Swap syms[p] and syms[p + 1] in place: one rule applied to syms[start:stop]."""
    before = Word(syms)
    syms[p], syms[p + 1] = syms[p + 1], syms[p]
    return DerivationStep(before=before, after=Word(syms), rule_index=rule_index,
                          direction=direction, prefix=Word(syms[:start]),
                          suffix=Word(syms[stop:]), endo=endo)


def _sort_stretches(syms: list, bounds, rank_at, swap) -> list:
    """Bubble sort, in place, each stretch strictly between consecutive bounds.

    rank_at(pos) is the sort key of the stretch that ends at pos; swap(p)
    exchanges syms[p] and syms[p + 1] and returns the step that does it.
    """
    steps = []
    prev = -1
    for pos in bounds:
        rank = rank_at(pos)
        changed = True
        while changed:
            changed = False
            for p in range(prev + 1, pos - 1):
                a, c = syms[p], syms[p + 1]
                if a != c and rank(a) > rank(c):
                    steps.append(swap(p))
                    changed = True
        prev = pos
    return steps


def _sylv_swap(syms: list, p: int, last: Mapping) -> DerivationStep:
    """Swap the adjacent pair at p, p+1 as one xysxty = yxsxty application.

    Both letters occur again later; the one whose final occurrence comes
    first anchors x, the other y, which decides the rule direction.
    """
    a, b = syms[p], syms[p + 1]
    ex, ey = (a, b) if last[a] < last[b] else (b, a)
    q, r = last[ex], last[ey]
    direction = LTR if ex == a else RTL
    endo = {
        "x": Word((ex,)),
        "y": Word((ey,)),
        "s": Word(syms[p + 2 : q]),
        "t": Word(syms[q + 1 : r]),
    }
    return _swap_step(syms, p, p, r + 1, 0, direction, endo)


def _sylv_steps(w: Word) -> list:
    """Sort each stretch between last occurrences, emitting one step per swap."""
    syms = list(w.symbols)
    _, last = _first_last_positions(w.symbols)
    fpidx = {s: k for k, s in enumerate(fp(w.symbols))}

    def rank_at(pos):
        # the letter whose last occurrence ends the stretch sorts after the rest
        xk = syms[pos]
        return lambda c: len(fpidx) if c == xk else fpidx[c]

    steps = _sort_stretches(syms, sorted(last.values()), rank_at,
                            lambda p: _sylv_swap(syms, p, last))
    if tuple(syms) != _nf_sylv(w.symbols):
        raise DerivationError("sorting did not land on the sylvester normal form")
    return steps


def _mirror_steps(steps: Sequence[DerivationStep]) -> list:
    """Reverse every word in a derivation; xysxty rules become ytxsyx rules."""
    return [DerivationStep(before=st.before.reverse(), after=st.after.reverse(),
                           rule_index=st.rule_index, direction=st.direction,
                           prefix=st.suffix.reverse(), suffix=st.prefix.reverse(),
                           endo={name: img.reverse() for name, img in st.endo.items()})
            for st in steps]


def _baxt_swap(syms: list, p: int, first: Mapping, last: Mapping) -> DerivationStep:
    """Swap at p, p+1 with one of the two ten-letter rules.

    The rule and direction are picked so that the four anchor occurrences
    (both letters before the pair and after it) appear in the rule's order.
    """
    a, b = syms[p], syms[p + 1]
    ex, ey = (a, b) if last[a] < last[b] else (b, a)
    ri = int((first[a] < first[b]) == (ex == a))
    i1, i2 = sorted((first[a], first[b]))
    j1, j2 = last[ex], last[ey]
    direction = LTR if ex == a else RTL
    endo = {
        "x": Word((ex,)),
        "y": Word((ey,)),
        "s": Word(syms[i1 + 1 : i2]),
        "t": Word(syms[i2 + 1 : p]),
        "h": Word(syms[p + 2 : j1]),
        "k": Word(syms[j1 + 1 : j2]),
    }
    return _swap_step(syms, p, i1, j2 + 1, ri, direction, endo)


def _baxt_steps(w: Word) -> list:
    """Sort the letters strictly between first/last occurrences into ip order."""
    syms = list(w.symbols)
    first, last = _first_last_positions(w.symbols)
    ipidx = {s: k for k, s in enumerate(ip(w.symbols))}
    keep = sorted(_mix_positions(w.symbols))
    steps = _sort_stretches(syms, keep, lambda pos: ipidx.__getitem__,
                            lambda p: _baxt_swap(syms, p, first, last))
    if tuple(syms) != _nf_baxt(w.symbols):
        raise DerivationError("sorting did not land on the Baxter normal form")
    return steps


def normalize_derivation(family: MonoidFamily, w: Word) -> list:
    """A verified derivation from w to normal_form(family, w), basis rules only.

    Returns the empty list when w is already normal.
    """
    return _theory(family, "derivation")(w)


class _Theory(NamedTuple):
    basis: Optional[tuple]
    stats: tuple                     # an identity holds iff its sides agree on each
    normal_form: Optional[Callable]  # symbol tuple -> symbol tuple
    derivation: Optional[Callable]   # Word -> steps to its normal form


# the gathered form spells out the word's stalactic columns
_GATHER = _Theory(_rules(["xyx = yxx"]), (Counter, fp),
                  lambda syms: _spell_columns(_stal_columns(syms)), _gather_steps)
_THEORIES = {
    MonoidFamily.STAL: _GATHER,
    MonoidFamily.TAIG: _GATHER,
    MonoidFamily.SYLV: _Theory(_rules(["xysxty = yxsxty"]), (Counter, fp, _after_table),
                               _nf_sylv, _sylv_steps),
    MonoidFamily.SYLV_SHARP: _Theory(
        _rules(["ytxsyx = ytxsxy"]), (Counter, ip, _before_table),
        lambda syms: _nf_sylv(syms[::-1])[::-1],
        lambda w: _mirror_steps(_sylv_steps(w.reverse()))),
    MonoidFamily.BAXT: _Theory(
        _rules(["ysxtxyhxky = ysxtyxhxky", "xsytxyhxky = xsytyxhxky"]),
        (Counter, ip, fp, _after_table, _before_table), _nf_baxt, _baxt_steps),
    MonoidFamily.LEFT_ZERO: _Theory(None, (ip,), None, None),
    MonoidFamily.RIGHT_ZERO: _Theory(None, (fp,), None, None),
    MonoidFamily.FREE_MONOGENIC: _Theory(None, (Counter,), None, None),
}


def derivation_certificate(family: MonoidFamily, ident: Identity) -> list:
    """Derivation from lhs to rhs through the shared normal form."""
    if not satisfies(family, ident):
        raise ValueError(f"{family} does not satisfy {ident.text()!r}")
    down = normalize_derivation(family, ident.lhs)
    up = invert_steps(normalize_derivation(family, ident.rhs))
    return down + up


# ---------------------------------------------------------------------------
# bounded search for derivations over arbitrary rule systems


def _match_pattern(pattern: tuple, factor: tuple) -> list:
    """All consistent variable -> nonempty tuple maps with image concat = factor."""
    results = []
    _extend_match(pattern, factor, 0, 0, {}, results)
    results.sort(key=lambda d: tuple(sorted(d.items())))
    return results


def _extend_match(pattern, factor, pi, fi, bound, results) -> None:
    """Extend the map bound so that pattern[pi:] matches factor[fi:]."""
    if pi == len(pattern):
        if fi == len(factor):
            results.append(dict(bound))
        return
    name = pattern[pi]
    if name in bound:
        img = bound[name]
        if factor[fi : fi + len(img)] == img:
            _extend_match(pattern, factor, pi + 1, fi + len(img), bound, results)
        return
    slack = len(factor) - fi - (len(pattern) - pi - 1)
    for length in range(1, slack + 1):
        bound[name] = factor[fi : fi + length]
        _extend_match(pattern, factor, pi + 1, fi + length, bound, results)
        del bound[name]


def _neighbors(word: Word, sigma: Sequence[Identity], max_word_len: int) -> list:
    """All single rewrites of word, nonempty images, deterministic order."""
    syms = word.symbols
    n = len(syms)
    out = []
    for ri, rule in enumerate(sigma):
        for direction, src, dst in ((LTR, rule.lhs, rule.rhs), (RTL, rule.rhs, rule.lhs)):
            if not set(dst.symbols).issubset(set(src.symbols)):
                continue
            plen = len(src.symbols)
            if plen == 0:
                continue
            for start in range(n):
                for end in range(start + plen, n + 1):
                    for images in _match_pattern(src.symbols, syms[start:end]):
                        replaced = (
                            syms[:start] + _substitute(images, dst.symbols) + syms[end:]
                        )
                        if len(replaced) > max_word_len:
                            continue
                        after = Word(replaced)
                        out.append((after, DerivationStep(
                            before=word, after=after, rule_index=ri, direction=direction,
                            prefix=Word(syms[:start]), suffix=Word(syms[end:]),
                            endo={k: Word(v) for k, v in images.items()})))
    return out


def derive_search(
    sigma: Sequence[Identity],
    u: Word,
    v: Word,
    max_steps: int = 8,
    max_word_len: int = 16,
) -> Optional[list]:
    """Bidirectional breadth-first search for a derivation u -> v over sigma.

    Single steps use nonempty variable images only.  Returns the step list,
    [] when u equals v, or None when no derivation exists within the bounds.
    """
    if u == v:
        return []
    forward = {u: None}
    backward = {v: None}
    ffront, bfront = [u], [v]
    depth = 0

    def rebuild(meet: Word) -> list:
        path = []
        node = meet
        while forward[node] is not None:
            parent, step = forward[node]
            path.append(step)
            node = parent
        path.reverse()
        node = meet
        while backward[node] is not None:
            parent, step = backward[node]
            path.extend(invert_steps([step]))
            node = parent
        return path

    while ffront and bfront and depth < max_steps:
        depth += 1
        if len(ffront) <= len(bfront):
            front, seen, other = ffront, forward, backward
        else:
            front, seen, other = bfront, backward, forward
        new = []
        for word in front:
            for nw, step in _neighbors(word, sigma, max_word_len):
                if nw in seen:
                    continue
                seen[nw] = (word, step)
                new.append(nw)
                if nw in other:
                    return rebuild(nw)
        if front is ffront:
            ffront = new
        else:
            bfront = new
    return None


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


def step_from_json(data: dict, kind: str = "variable") -> DerivationStep:
    parse = Word.variables if kind == "variable" else Word.letters
    return DerivationStep(
        before=parse(data["before"]),
        after=parse(data["after"]),
        rule_index=data["rule"],
        direction=data["direction"],
        prefix=parse(data["prefix"]),
        suffix=parse(data["suffix"]),
        endo={name: parse(img) for name, img in data["endo"].items()},
    )


def derivation_to_json(steps: Iterable[DerivationStep]) -> list:
    return [step_to_json(st) for st in steps]
