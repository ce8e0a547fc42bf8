import hashlib
import json
import logging
import random
from dataclasses import replace

import pytest

from hypothesis import given, settings, strategies as st

from plactic_lab import (
    DerivationStep,
    Identity,
    MonoidFamily,
    Word,
    basis,
    derivation_certificate,
    derivation_to_json,
    derive_search,
    fp,
    invert_steps,
    ip,
    mix,
    normal_form,
    normalize_derivation,
    restrict,
    satisfies,
    step_from_json,
    step_to_json,
    verify_derivation,
)

F = MonoidFamily
INSERTION = (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT)

var_words = st.lists(st.sampled_from("wxyz"), max_size=9).map(Word.variables)


def assert_chain(fam, w, steps):
    assert verify_derivation(basis(fam), steps)
    target = normal_form(fam, w)
    if steps:
        assert steps[0].before == w
        assert steps[-1].after == target
    else:
        assert w == target


@given(var_words)
@settings(deadline=None)
def test_normalize_derivation_reaches_normal_form(w):
    for fam in INSERTION:
        assert_chain(fam, w, normalize_derivation(fam, w))


def test_normalize_derivation_on_letter_words():
    w = Word.letters("3613151265")
    for fam in INSERTION:
        steps = normalize_derivation(fam, w)
        assert_chain(fam, w, steps)


def test_normalize_already_normal_word_is_empty():
    for fam in INSERTION:
        w = normal_form(fam, Word.variables("xyxzy"))
        assert normalize_derivation(fam, w) == []


def test_gather_step_shape():
    steps = normalize_derivation(F.STAL, Word.variables("xyx"))
    assert len(steps) == 1
    st0 = steps[0]
    assert st0.direction == "ltr"
    assert st0.rule_index == 0
    assert st0.endo["x"].text() == "x"
    assert st0.endo["y"].text() == "y"
    assert st0.before.text() == "xyx" and st0.after.text() == "yxx"


def test_unit_images_reach_short_consequences():
    # both sides are shorter than any nonempty instance of the basis rule
    cert = derivation_certificate(F.SYLV, Identity.parse("xyxy = yxxy"))
    assert len(cert) == 1
    assert verify_derivation(basis(F.SYLV), cert)
    assert not verify_derivation(basis(F.SYLV), cert, require_nonempty_images=True)
    empties = [name for name, img in cert[0].endo.items() if not img]
    assert empties


def test_certificates_connect_the_sides():
    cases = [
        (F.STAL, "xyxzx = yzxxx"),
        (F.SYLV, "xysxty = yxsxty"),
        (F.SYLV_SHARP, "ytxsyx = ytxsxy"),
        (F.BAXT, "ysxtxyhxky = ysxtyxhxky"),
        (F.BAXT, "xyxyxy = xyyxxy"),
    ]
    for fam, text in cases:
        ident = Identity.parse(text)
        assert satisfies(fam, ident)
        cert = derivation_certificate(fam, ident)
        assert verify_derivation(basis(fam), cert)
        if cert:
            assert cert[0].before == ident.lhs
            assert cert[-1].after == ident.rhs


def test_certificate_requires_satisfied_identity():
    with pytest.raises(ValueError):
        derivation_certificate(F.SYLV, Identity.parse("xy = yx"))


@given(st.tuples(var_words, var_words).map(lambda uv: Identity(*uv)))
@settings(deadline=None, max_examples=60)
def test_certificates_for_random_satisfied_identities(ident):
    for fam in INSERTION:
        if satisfies(fam, ident):
            cert = derivation_certificate(fam, ident)
            assert verify_derivation(basis(fam), cert)


def test_verify_rejects_tampering():
    sigma = basis(F.SYLV)
    cert = derivation_certificate(F.SYLV, Identity.parse("xyxy = yxxy"))
    good = cert[0]
    wrong_after = DerivationStep(good.before, Word.variables("xyyx"), 0,
                                 good.direction, good.prefix, good.suffix, good.endo)
    assert not verify_derivation(sigma, [wrong_after])
    wrong_rule = DerivationStep(good.before, good.after, 3, good.direction,
                                good.prefix, good.suffix, good.endo)
    assert not verify_derivation(sigma, [wrong_rule])
    wrong_dir = DerivationStep(good.before, good.after, 0, "down",
                               good.prefix, good.suffix, good.endo)
    assert not verify_derivation(sigma, [wrong_dir])
    flipped = DerivationStep(good.before, good.after, 0,
                             "rtl" if good.direction == "ltr" else "ltr",
                             good.prefix, good.suffix, good.endo)
    assert not verify_derivation(sigma, [flipped])
    missing_var = DerivationStep(good.before, good.after, 0, good.direction,
                                 good.prefix, good.suffix,
                                 {k: v for k, v in good.endo.items() if k != "s"})
    assert not verify_derivation(sigma, [missing_var])
    # images of both kinds make no word, so the step cannot be recomputed
    mixed_images = DerivationStep(good.before, good.after, 0, good.direction,
                                  good.prefix, good.suffix, {**good.endo, "x": Word.letters("1")})
    assert not verify_derivation(sigma, [mixed_images])
    # letter images make a letter factor inside a variable context
    letter_images = DerivationStep(good.before, good.after, 0, good.direction, good.prefix,
                                   good.suffix, {k: Word.letters([1] * len(img)) if img else img
                                                 for k, img in good.endo.items()})
    assert not verify_derivation(sigma, [letter_images])
    # a tuple where a word belongs makes no step
    tuple_endo = replace(good, endo={k: img.symbols for k, img in good.endo.items()})
    assert not verify_derivation(sigma, [tuple_endo])
    assert not verify_derivation(sigma, [replace(good, prefix=good.prefix.symbols)])
    # True equals 1, but it is no rule index
    baxt = derivation_certificate(F.BAXT, Identity.parse("xyxyxy = xyyxxy"))
    assert [step.rule_index for step in baxt] == [1]
    assert verify_derivation(basis(F.BAXT), baxt)
    assert not verify_derivation(basis(F.BAXT), [replace(baxt[0], rule_index=True)])
    # an endo that is no dict of images
    assert not verify_derivation(sigma, [replace(good, endo=None)])
    assert not verify_derivation(sigma, [replace(good, endo=5)])
    # a letter prefix before variable images makes no word
    assert not verify_derivation(sigma, [replace(good, prefix=Word.letters("1"))])


def test_verify_rejects_broken_chains():
    sigma = basis(F.STAL)
    steps = normalize_derivation(F.STAL, Word.variables("xyxyx"))
    assert len(steps) >= 2
    assert verify_derivation(sigma, steps)
    assert not verify_derivation(sigma, steps[::-1])
    assert not verify_derivation(sigma, [steps[0], steps[0]])


def test_invert_steps_roundtrip():
    sigma = basis(F.BAXT)
    w = Word.variables("xyyxyxxy")
    steps = normalize_derivation(F.BAXT, w)
    assert len(steps) >= 2
    back = invert_steps(steps)
    assert verify_derivation(sigma, back)
    assert back[0].before == normal_form(F.BAXT, w)
    assert back[-1].after == w
    assert invert_steps(back) == steps


def test_baxt_uses_both_rules():
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        w = Word.variables([rng.choice("xyz") for _ in range(rng.randint(4, 9))])
        for step in normalize_derivation(F.BAXT, w):
            seen.add(step.rule_index)
        if seen == {0, 1}:
            break
    assert seen == {0, 1}


def test_derive_search_finds_short_derivations():
    sigma = basis(F.STAL)
    u, v = Word.variables("xyxx"), Word.variables("yxxx")
    steps = derive_search(sigma, u, v, max_steps=4, max_word_len=8)
    assert steps is not None and len(steps) == 1
    assert verify_derivation(sigma, steps)
    assert steps[0].before == u and steps[-1].after == v


def test_derive_search_trivial_and_absent():
    sigma = basis(F.STAL)
    w = Word.variables("xyx")
    assert derive_search(sigma, w, w, 2, 8) == []
    assert derive_search(sigma, Word.variables("xy"), Word.variables("yx"), 4, 8) is None


def test_derive_search_nonempty_images_cannot_shorten():
    # reachable only through unit images, so the bounded search must fail
    sigma = basis(F.SYLV)
    assert derive_search(sigma, Word.variables("xyxy"), Word.variables("yxxy"),
                         max_steps=4, max_word_len=10) is None


def test_derive_search_multi_step():
    sigma = basis(F.STAL)
    u = Word.variables("xyxyx")
    v = normal_form(F.STAL, u)
    steps = derive_search(sigma, u, v, max_steps=6, max_word_len=10)
    assert steps is not None
    assert verify_derivation(sigma, steps)
    assert steps[0].before == u and steps[-1].after == v


def test_derive_search_respects_word_length_bound():
    sigma = [Identity.parse("x = xx")]
    u, v = Word.variables("x"), Word.variables("xxxx")
    assert derive_search(sigma, u, v, max_steps=10, max_word_len=3) is None
    found = derive_search(sigma, u, v, max_steps=10, max_word_len=4)
    assert found is not None
    assert verify_derivation(sigma, found)


def test_derive_search_refuses_negative_bounds():
    sigma, w = basis(F.STAL), Word.variables("xyx")
    for bounds in ({"max_steps": -1}, {"max_word_len": -1}):
        with pytest.raises(ValueError, match="must be >= 0"):
            derive_search(sigma, w, Word.variables("yxx"), **bounds)


def test_derive_search_matches_a_rule_side_longer_than_the_recursion_limit():
    names = [f"x{i}" for i in range(1200)]
    sigma = [Identity(Word.variables(names), Word.variables(["x0"]))]
    steps = derive_search(sigma, Word.variables("a" * 1200), Word.variables("a"),
                          max_steps=1, max_word_len=1300)
    assert steps is not None and len(steps) == 1
    assert steps[0].endo == {name: Word.variables("a") for name in names}
    assert verify_derivation(sigma, steps)


def test_derive_search_rewrites_every_factor_in_order():
    # neighbours come in order of start, then end: the leftmost square first
    sigma = [Identity.parse("xx = x")]
    w = Word.variables("aaab")
    steps = derive_search(sigma, w, Word.variables("ab"), max_steps=2, max_word_len=4)
    assert [step.after.text() for step in steps] == ["aab", "ab"]
    assert [(len(step.prefix), len(step.suffix)) for step in steps] == [(0, 2), (0, 1)]
    assert verify_derivation(sigma, steps)


def test_derive_search_logs_one_debug_record_per_call(caplog):
    sigma = basis(F.STAL)
    xyxy, yxyx = Word.variables("xyxy"), Word.variables("yxyx")
    derive_search(sigma, xyxy, yxyx)
    assert not [r for r in caplog.records if r.name == "plactic_lab.derive"]  # off by default
    with caplog.at_level(logging.DEBUG, logger="plactic_lab.derive"):
        derive_search(sigma, xyxy, xyxy)
        derive_search(sigma, Word.variables("xyx"), Word.variables("yxx"))
        derive_search(sigma, xyxy, yxyx, max_steps=1)
        derive_search(sigma, Word.variables("xy"), Word.variables("yx"))
    assert [r.getMessage() for r in caplog.records if r.name == "plactic_lab.derive"] == [
        "found at depth 0; words reached: 1 forward, 1 backward",
        "found at depth 1; words reached: 2 forward, 1 backward",
        # xyxy rewrites to yxxy and xxyy, then the bound stops the search
        "step bound reached at depth 1; words reached: 3 forward, 1 backward",
        # no factor of xy matches xyx with nonempty images
        "frontier exhausted at depth 1; words reached: 1 forward, 1 backward",
    ]


any_words = st.one_of(st.lists(st.integers(1, 4), max_size=14).map(Word.letters),
                      st.lists(st.sampled_from("wxyz"), max_size=14).map(Word.variables))


def step_words(steps):
    for step in steps:
        yield from (step.before, step.after, step.prefix, step.suffix, *step.endo.values())


@settings(max_examples=60, deadline=None)
@given(any_words, any_words, st.data())
def test_derived_words_match_the_checked_constructor(w, other, data):
    # words built from checked words skip the symbol check; each must still be
    # exactly the word that Word(...) makes of its symbols, kind included
    i, j = data.draw(st.integers(-16, 16)), data.draw(st.integers(-16, 16))
    stride = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    out = [w[i:j:stride], w[i:], w[:j], w.reverse(), ip(w), fp(w), mix(w),
           restrict(w, w.symbols[::2])]
    if {w.kind, other.kind} == {"letter", "variable"}:
        with pytest.raises(ValueError):
            w + other
    else:
        out += [w + other, other + w]
    for fam in INSERTION:
        out.append(normal_form(fam, w))
        out.extend(step_words(normalize_derivation(fam, w)))
        if w.kind == "variable":
            perm = Word.variables(data.draw(st.permutations(w.symbols)))
            for ident in (Identity(w, normal_form(fam, w)), Identity(normal_form(fam, w), w),
                          Identity(w, perm)):
                if satisfies(fam, ident):
                    out.extend(step_words(derivation_certificate(fam, ident)))
    short = w[:5]
    out.extend(step_words(derive_search(basis(F.STAL), short, normal_form(F.STAL, short),
                                        max_steps=3, max_word_len=5) or []))
    for word in out:
        fresh = Word(word.symbols)
        assert type(word) is Word
        assert (word.symbols, word.kind) == (fresh.symbols, fresh.kind)


def test_step_json_roundtrip():
    cert = derivation_certificate(F.SYLV, Identity.parse("xyxy = yxxy"))
    payload = json.loads(json.dumps(derivation_to_json(cert)))
    restored = [step_from_json(d) for d in payload]
    assert restored == cert
    assert verify_derivation(basis(F.SYLV), restored)


def test_letter_step_json_roundtrip():
    w = Word.letters("212212")
    steps = normalize_derivation(F.SYLV, w)
    assert steps, "example word is not normal, so steps must exist"
    payload = json.loads(json.dumps(derivation_to_json(steps)))
    restored = [step_from_json(d) for d in payload]
    assert restored == steps
    assert verify_derivation(basis(F.SYLV), restored)


def test_step_json_refuses_mixed_kinds():
    step = step_to_json(normalize_derivation(F.SYLV, Word.letters("212212"))[0])
    step["endo"] = {name: "x" * len(img) for name, img in step["endo"].items()}
    with pytest.raises(ValueError, match="both letter and variable"):
        step_from_json(step)
    # a payload that is no step at all is refused the same way, like every loader
    good = step_to_json(normalize_derivation(F.SYLV, Word.letters("212212"))[0])
    for bad in ({k: v for k, v in good.items() if k != "before"},
                {k: v for k, v in good.items() if k != "rule"},
                dict(good, before=5), dict(good, endo=None), [good],
                # each loaded at the parent; no basis can verify such a step
                dict(good, rule="0"), dict(good, rule=True), dict(good, rule=-1),
                dict(good, rule=1.0), dict(good, direction="sideways")):
        with pytest.raises(ValueError, match="not a valid DerivationStep payload"):
            step_from_json(bad)


def test_sylvsharp_certificate_costs_no_more_than_sylv(peak_bytes):
    # sylvsharp mirrors the sylv steps of the reversed word one at a time
    rng = random.Random(1)
    w = Word.variables([rng.choice("abcdefgh") for _ in range(150)])
    sylv, sylv_peak = peak_bytes(normalize_derivation, F.SYLV, w.reverse())
    sharp, sharp_peak = peak_bytes(normalize_derivation, F.SYLV_SHARP, w)
    assert len(sharp) == len(sylv) > 1000
    assert sharp_peak <= 1.3 * sylv_peak


def test_normal_forms_and_steps_are_pinned():
    # the normal form text and step JSON of 400 seeded words in every insertion family,
    # plus the certificate from each variable word to a shuffle of it, where the family allows
    rng = random.Random(12)
    digest = hashlib.sha256()
    for i in range(400):
        k = rng.randint(1, 6)
        if i % 2:
            w = Word.letters([rng.randint(1, k) for _ in range(rng.randint(0, 30))])
            v = None
        else:
            w = Word.variables([rng.choice("abcdef"[:k]) for _ in range(rng.randint(0, 30))])
            v = Word.variables(rng.sample(w.symbols, len(w)))
        for fam in INSERTION:
            steps = normalize_derivation(fam, w)
            if v is not None and satisfies(fam, Identity(w, v)):
                steps = steps + derivation_certificate(fam, Identity(w, v))
            digest.update(json.dumps([normal_form(fam, w).text(),
                                      derivation_to_json(steps)]).encode())
    assert digest.hexdigest() == (
        "dc19ee713182975b5eadbc51af40ced3c6540a804ba7f9adede341db30223ecd")


def test_mirrored_steps_use_sharp_basis_instances():
    w = Word.variables("yxyx")
    steps = normalize_derivation(F.SYLV_SHARP, w)
    assert steps
    assert verify_derivation(basis(F.SYLV_SHARP), steps)
    for step in steps:
        assert step.rule_index == 0
