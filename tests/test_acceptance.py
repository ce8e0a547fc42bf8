"""Acceptance gate: nine criteria, one test and one reported line each.

Run with -s (or read the terminal summary) to see the per-criterion lines;
every bound below is part of the contract, not a soft target.
"""
import functools
import itertools
import random
import time

import conftest
from reference import ELEMENTS, L21, R21, fold

from plactic_lab import (
    CounterExample,
    Exhaustive,
    HoldsWithinBound,
    Identity,
    MonoidFamily,
    Word,
    apply_substitution,
    basis,
    canonical,
    derivation_certificate,
    equivalent,
    ev,
    find_counterexample,
    fp,
    ip,
    normal_form,
    normalize_derivation,
    oracle,
    p_stal,
    p_taig,
    satisfies,
    verify_derivation,
)

F = MonoidFamily
INSERTION = (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT)

EXAMPLE = "3613151265"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_1_figure_reproduction():
    expected = ((3, 2), (1, 3), (2, 1), (6, 2), (5, 2))
    p_stal(EXAMPLE)  # warm parse/caches
    t0 = time.perf_counter()
    tableau = p_stal(EXAMPLE)
    elapsed = time.perf_counter() - t0
    exact = tableau.columns == expected
    _report(1, exact and elapsed < 0.001,
            f"columns exact={exact}, {elapsed * 1e6:.0f}us < 1ms")


def test_criterion_2_evaluation_preservation():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(100_000):
        rank = rng.randint(1, 9)
        n = rng.randint(1, 40)
        seq = tuple(rng.randint(1, rank) for _ in range(n))
        expected = ev(seq)
        for fam in INSERTION:
            if canonical(fam, seq).as_counter() != expected:
                failures += 1
    elapsed = time.perf_counter() - t0
    example = p_taig(EXAMPLE)
    example_ok = example.total() == 10 and example.as_counter()[1] == 3
    _report(2, failures == 0 and example_ok and elapsed < 30,
            f"failures={failures}/500000 objects, example node mults sum to 10: "
            f"{example_ok}, {elapsed:.1f}s < 30s")


def test_criterion_3_basis_identities_hold():
    cases = [(fam, rule) for fam in INSERTION for rule in basis(fam)]
    rng = random.Random(3)
    t0 = time.perf_counter()
    bad = 0
    all_satisfied = True
    for fam, rule in cases:
        if not satisfies(fam, rule):
            all_satisfied = False
        names = rule.variables()
        for _ in range(10_000):
            sub = {
                name: Word.letters(
                    [rng.randint(1, 8) for _ in range(rng.randint(0, 6))]
                )
                for name in names
            }
            lhs = apply_substitution(sub, rule.lhs)
            rhs = apply_substitution(sub, rule.rhs)
            if not equivalent(fam, lhs, rhs):
                bad += 1
    elapsed = time.perf_counter() - t0
    _report(3, all_satisfied and bad == 0 and elapsed < 60,
            f"{len(cases)} basis identities, satisfies all true={all_satisfied}, "
            f"counterexamples={bad}/60000 substitutions, {elapsed:.1f}s < 60s")


def _two_variable_words(max_len: int):
    out = []
    for n in range(1, max_len + 1):
        out.extend(Word.variables(t) for t in itertools.product("xy", repeat=n))
    return out


def test_criterion_4_decision_oracle_agreement():
    words = _two_variable_words(5)
    t0 = time.perf_counter()
    disagreements = 0
    worst_image = 0
    true_pairs = 0
    for u in words:
        for v in words:
            ident = Identity(u, v)
            for fam in INSERTION:
                if satisfies(fam, ident):
                    true_pairs += 1
                    verdict = oracle(fam, 2, ident, Exhaustive(2))
                    if not isinstance(verdict, HoldsWithinBound):
                        disagreements += 1
                else:
                    sub = find_counterexample(fam, ident)
                    worst_image = max(worst_image, max(len(w) for w in sub.values()))
                    if worst_image > 3:
                        disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(4, disagreements == 0 and elapsed < 600,
            f"62x62 pairs x 5 families, disagreements={disagreements}, "
            f"satisfied={true_pairs}, max counterexample image len={worst_image} "
            f"<= 3, {elapsed:.1f}s < 600s")


@functools.lru_cache(maxsize=1)
def _criterion_5_space():
    idents = []
    words = _two_variable_words(5)
    for u in words:
        for v in words:
            idents.append(Identity(u, v))
    rng = random.Random(55)
    for _ in range(10_000):
        u = [rng.choice("xyz") for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            v = u[:]
            rng.shuffle(v)
        else:
            v = [rng.choice("xyz") for _ in range(rng.randint(1, 8))]
        idents.append(Identity(Word.variables(u), Word.variables(v)))
    return tuple(idents)


def test_criterion_5_normal_form_characterization():
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for ident in _criterion_5_space():
        for fam in INSERTION:
            checked += 1
            holds = satisfies(fam, ident)
            same_nf = normal_form(fam, ident.lhs) == normal_form(fam, ident.rhs)
            if holds != same_nf:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(5, disagreements == 0,
            f"disagreements={disagreements}/{checked} family-identity checks, "
            f"{elapsed:.1f}s")


def test_criterion_6_derivation_certificates():
    t0 = time.perf_counter()
    verified = 0
    failed = 0
    for ident in _criterion_5_space():
        for fam in INSERTION:
            if not satisfies(fam, ident):
                continue
            sigma = basis(fam)
            cert = derivation_certificate(fam, ident)
            ok = verify_derivation(sigma, cert)
            ok = ok and all(0 <= s.rule_index < len(sigma) for s in cert)
            # verify_derivation has replayed cert from cert.start to cert.end
            ok = ok and (cert.start, cert.end) == (ident.lhs, ident.rhs)
            if ok:
                verified += 1
            else:
                failed += 1
    elapsed = time.perf_counter() - t0
    _report(6, failed == 0 and verified > 0,
            f"certificates verified={verified}, failed={failed} "
            f"(100% required), {elapsed:.1f}s")


def test_criterion_7_three_element_monoid_realization():
    words = []
    for n in range(1, 5):
        words.extend(Word.variables(t) for t in itertools.product("xy", repeat=n))
    assignments = [
        {"x": a, "y": b} for a in ELEMENTS for b in ELEMENTS
    ]
    t0 = time.perf_counter()
    disagreements = 0
    for u in words:
        for v in words:
            ident = Identity(u, v)
            left_holds = all(
                fold(L21, map(sub.get, u)) == fold(L21, map(sub.get, v))
                for sub in assignments
            )
            right_holds = all(
                fold(R21, map(sub.get, u)) == fold(R21, map(sub.get, v))
                for sub in assignments
            )
            if left_holds != (ip(u) == ip(v)):
                disagreements += 1
            if right_holds != (fp(u) == fp(v)):
                disagreements += 1
            if left_holds != satisfies(F.LEFT_ZERO, ident):
                disagreements += 1
            if right_holds != satisfies(F.RIGHT_ZERO, ident):
                disagreements += 1
            # occurrence counts: substitution of powers of one generator
            mono_holds = all(
                sum(k[nm] for nm in u.symbols) == sum(k[nm] for nm in v.symbols)
                for k in ({"x": i, "y": j} for i in range(4) for j in range(4))
            )
            if mono_holds != satisfies(F.FREE_MONOGENIC, ident):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(7, disagreements == 0 and elapsed < 10,
            f"900 identity pairs, exhaustive substitution vs ip/fp/occ "
            f"conditions, disagreements={disagreements}, {elapsed:.1f}s < 10s")


def test_criterion_8_rank_collapse():
    rng = random.Random(88)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        u = [rng.choice("xy") for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            v = u[:]
            rng.shuffle(v)
        else:
            v = [rng.choice("xy") for _ in range(rng.randint(1, 5))]
        ident = Identity(Word.variables(u), Word.variables(v))
        for fam in INSERTION:
            kinds = {
                isinstance(oracle(fam, rank, ident, Exhaustive(2)), HoldsWithinBound)
                for rank in (2, 3, 4)
            }
            if len(kinds) != 1:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(8, disagreements == 0,
            f"1000 identities x 5 families at ranks 2/3/4, verdict kind "
            f"disagreements={disagreements}, {elapsed:.1f}s")


def test_criterion_9_congruence():
    rng = random.Random(99)
    t0 = time.perf_counter()
    failures = 0
    setup_failures = 0
    for fam in INSERTION:
        for _ in range(2000):
            rank = rng.randint(1, 5)
            u = Word.letters([rng.randint(1, rank) for _ in range(rng.randint(1, 14))])
            v = normal_form(fam, u)
            w = Word.letters([rng.randint(1, rank) for _ in range(rng.randint(0, 10))])
            if not equivalent(fam, u, v):
                setup_failures += 1
                continue
            if not equivalent(fam, u + w, v + w):
                failures += 1
            if not equivalent(fam, w + u, w + v):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(9, failures == 0 and setup_failures == 0,
            f"10000 triples (2000 per family), scrambles equivalent={10000 - setup_failures}, "
            f"congruence failures={failures}, {elapsed:.1f}s")
