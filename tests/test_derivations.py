import json
import logging
import random

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
    restored = [step_from_json(d, kind="letter") for d in payload]
    assert restored == steps
    assert verify_derivation(basis(F.SYLV), restored)


def test_mirrored_steps_use_sharp_basis_instances():
    w = Word.variables("yxyx")
    steps = normalize_derivation(F.SYLV_SHARP, w)
    assert steps
    assert verify_derivation(basis(F.SYLV_SHARP), steps)
    for step in steps:
        assert step.rule_index == 0
