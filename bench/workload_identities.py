"""identities: exact decisions (phase A) and the serial oracle (phase B).

The identity set is seeded: 480 identities with sides of length 1-16 over
2-4 variables, plus every basis rule.  Half of them have as right side the
normal form of the left side in one family (a permutation, as in criterion
5, that holds in that family), half a random right side.

Phase A does no insertion: per (identity, family) it parses the identity,
runs ``satisfies`` and ``normal_form`` on both sides and, when the identity
holds, ``derivation_certificate`` + ``verify_derivation``; a few small
``derive_search`` calls ride along.  Phase B runs the serial exhaustive
oracle at rank 2 on the first 120 identities and the basis rules, which
spends its time inserting many tiny words; its work is counted in
substitutions scanned, since one 4-variable identity that holds costs 2,401
of them and one refuted early costs a handful.  One round is phase A then
phase B.  Variable counts and side lengths cycle through fixed values, so
every seed has the same profile.
"""
from __future__ import annotations

import random

from plactic_lab import (
    CounterExample,
    Exhaustive,
    HoldsWithinBound,
    Identity,
    MonoidFamily,
    Word,
    basis,
    derivation_certificate,
    derive_search,
    normal_form,
    oracle,
    satisfies,
    verify_derivation,
)

from harness import Tally, exc_name, length_profile, now

FAMILIES = (MonoidFamily.STAL, MonoidFamily.TAIG, MonoidFamily.SYLV,
            MonoidFamily.SYLV_SHARP, MonoidFamily.BAXT)
IDENTITIES = 480
ORACLE_IDENTITIES = 120
DERIVE_SEARCHES = 4
RANK = 2
# Exhaustive(2) at rank 2 has 7^k substitutions for k variables; the two
# six-variable Baxter rules would take seconds per family, so identities with
# more than four variables are scanned with image length 1 (3^k substitutions).
MAX_VARS_LEN2 = 4
TRACE_ROUNDS = 3


def _scanned(substitution, names, per_var) -> int:
    """Substitutions the exhaustive scan tried up to and including this one.

    The oracle enumerates images shortlex over 1..RANK, the first (sorted)
    variable most significant, and stops at the first counterexample.
    """
    position = 0
    for name in names:
        img = substitution[name].symbols
        index = sum(RANK ** k for k in range(len(img)))   # shorter images first
        for j, a in enumerate(img):
            index += (a - 1) * RANK ** (len(img) - 1 - j)
        position = position * per_var + index
    return position + 1


class Identities:

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        texts = []
        for i in range(12 if tiny else IDENTITIES):
            names = "xyzw"[: 2 + i % 3]
            lhs = [rng.choice(names) for _ in range(1 + i % 16)]
            if i % 2 == 0:
                # a permutation that holds in one family, rotating
                fam = FAMILIES[i // 2 % len(FAMILIES)]
                rhs = list(normal_form(fam, Word.variables(lhs)).symbols)
            else:
                rhs = [rng.choice(names) for _ in range(1 + (i * 7 + 3) % 16)]
            texts.append(f"{''.join(lhs)} = {''.join(rhs)}")
        rules = []
        for fam in FAMILIES:
            rules += [r.text() for r in basis(fam) if r.text() not in rules]
        self.texts = texts + rules
        self.oracle_texts = texts[: 3 if tiny else ORACLE_IDENTITIES] + rules
        self.searches = []
        while len(self.searches) < (2 if tiny else DERIVE_SEARCHES):
            # half reach the stal normal form, half a random rearrangement
            u = Word.variables([rng.choice("xyz") for _ in range(rng.randint(4, 5))])
            if len(self.searches) % 2 == 0:
                v = normal_form(MonoidFamily.STAL, u)
            else:
                v = Word.variables(rng.sample(u.symbols, len(u)))
            if u != v:
                self.searches.append((u, v))
        self.trace_rounds = 1 if tiny else TRACE_ROUNDS

    def round(self, tr, tally: Tally, acc) -> None:
        holds = {}
        for text in self.texts:
            for fam in FAMILIES:
                tr.new_request()
                holds[text, fam] = self._decide(text, fam, tr, tally, acc)
        sigma = basis(MonoidFamily.STAL)
        for u, v in self.searches:
            tr.new_request()
            self._search(sigma, u, v, tr, tally, acc)
        for text in self.oracle_texts:
            ident = Identity.parse(text)
            for fam in FAMILIES:
                tr.new_request()
                self._oracle(ident, fam, holds.get((text, fam)), tr, tally, acc)

    def _decide(self, text, fam, tr, tally, acc):
        name = f"identities/{text}/{fam}"
        steps = None
        t0 = now()
        try:
            with tr.span("words.parse"):
                ident = Identity.parse(text)
            with tr.span("identities.satisfies"):
                holds = satisfies(fam, ident)
            with tr.span("identities.normal_form"):
                left = normal_form(fam, ident.lhs)
            with tr.span("identities.normal_form"):
                right = normal_form(fam, ident.rhs)
            if holds:
                with tr.span("identities.derivation_certificate") as sp:
                    steps = derivation_certificate(fam, ident)
                    sp.count("steps", len(steps))
                with tr.span("identities.verify_derivation"):
                    verified = verify_derivation(basis(fam), steps)
        except Exception as exc:
            acc.main((text, str(fam)), now() - t0, 0)
            tally.fail(f"{name}/decide", exc_name(exc))
            return None
        elapsed = now() - t0
        acc.main((text, str(fam)), elapsed, 1)
        acc.latency((text, str(fam)), elapsed)
        tally.check(holds == (left == right), f"{name}/satisfies_vs_normal_form")
        if steps is not None:
            tally.check(verified, f"{name}/verify_derivation")
            linked = (steps[0].before == ident.lhs and steps[-1].after == ident.rhs
                      if steps else ident.lhs == ident.rhs)
            tally.check(linked, f"{name}/certificate_links_sides")
        return holds

    def _search(self, sigma, u, v, tr, tally, acc):
        name = f"identities/derive_search/{u.text()}->{v.text()}"
        t0 = now()
        try:
            with tr.span("identities.derive_search") as sp:
                steps = derive_search(sigma, u, v, max_steps=4, max_word_len=len(u))
                sp.count("found", steps is not None)
        except Exception as exc:
            acc.main(name, now() - t0, 0)
            tally.fail(name, exc_name(exc))
            return
        elapsed = now() - t0
        acc.main(name, elapsed, 1)
        acc.latency(name, elapsed)
        if steps is None:
            tally.ok()
            return
        linked = (steps[0].before == u and steps[-1].after == v) if steps else u == v
        tally.check(verify_derivation(sigma, steps) and linked, f"{name}/verify")
        tally.check(satisfies(MonoidFamily.STAL, Identity(u, v)), f"{name}/sound")

    def _oracle(self, ident, fam, holds, tr, tally, acc):
        name = f"identities/{ident.text()}/{fam}/oracle"
        names = ident.variables()
        max_len = 2 if len(names) <= MAX_VARS_LEN2 else 1
        t0 = now()
        try:
            with tr.span("identities.oracle") as sp:
                verdict = oracle(fam, RANK, ident, Exhaustive(max_len))
                if isinstance(verdict, HoldsWithinBound):
                    sp.count("subs_checked", verdict.checked)
                else:
                    sp.count("counterexamples")
        except Exception as exc:
            acc.side(name, now() - t0, 0)
            tally.fail(name, exc_name(exc))
            return
        elapsed = now() - t0
        per_var = sum(RANK ** k for k in range(max_len + 1))
        if isinstance(verdict, HoldsWithinBound):
            acc.side(name, elapsed, verdict.checked)
            tally.check(verdict.checked == per_var ** len(names), name, "wrong scan count")
        else:
            acc.side(name, elapsed, _scanned(verdict.substitution, names, per_var))
        if holds:
            tally.check(isinstance(verdict, HoldsWithinBound), name,
                        "satisfied identity without HoldsWithinBound")
        else:
            # a bounded scan may miss a counterexample, but any it finds is real
            tally.check(not isinstance(verdict, CounterExample)
                        or verdict.lhs_object != verdict.rhs_object, name)

    def inputs(self) -> dict:
        sides = []
        nvars = set()
        for text in self.texts:
            ident = Identity.parse(text)
            sides += [len(ident.lhs), len(ident.rhs)]
            nvars.add(len(ident.variables()))
        return {"identities": len(self.texts), "side_lengths": length_profile(sides),
                "variables": sorted(nvars),
                "derive_searches": len(self.searches),
                "oracle": f"serial, rank {RANK}, Exhaustive(2) up to "
                          f"{MAX_VARS_LEN2} variables, Exhaustive(1) above",
                "max_tree_depth": "at most 32: oracle words have 16 variables x 2 letters"}

    NAMED = {"decisions_per_s": ("primary_per_s", "1/s"),
             "oracle_substitutions_per_s": ("secondary_per_s", "1/s"),
             "decision_p50_ms": ("p50_ms", "ms"), "decision_p90_ms": ("p90_ms", "ms")}
