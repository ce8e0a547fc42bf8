import hashlib
import itertools
import json
import logging
import pickle
import random
import time

import pytest

from hypothesis import given, settings, strategies as st

from plactic_lab import (
    Derivation,
    DerivationError,
    DerivationStep,
    Identity,
    MonoidFamily,
    Word,
    basis,
    derivation_certificate,
    derivation_from_json,
    derivation_to_json,
    derive_search,
    fp,
    identities,
    invert_steps,
    ip,
    mix,
    normal_form,
    normalize_derivation,
    satisfies,
    verify_derivation,
)
from reference import class_walk, occurrence_inversions, restrict, same_columns, step_json
from test_acceptance import _criterion_5_space

F = MonoidFamily
INSERTION = (F.STAL, F.TAIG, F.SYLV, F.SYLV_SHARP, F.BAXT)

var_words = st.lists(st.sampled_from("wxyz"), max_size=9).map(Word.variables)


def inverted(steps) -> list:
    """The steps backwards, each one flipped: what invert_steps of their Derivation gives."""
    return [DerivationStep(st.after, st.before, st.rule_index,
                           "rtl" if st.direction == "ltr" else "ltr", st.prefix, st.suffix, st.endo)
            for st in reversed(steps)]


def reread(payload):
    """A payload through JSON text and derivation_from_json."""
    return derivation_from_json(json.loads(json.dumps(payload)))


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


@pytest.mark.parametrize("fam", INSERTION, ids=str)
def test_normalize_derivation_refuses_a_rewriting_that_ends_off_the_normal_form(fam, monkeypatch):
    # a builder that stops at once: xyyxyxxy is not normal in any insertion family
    row = identities._THEORIES[fam]
    monkeypatch.setitem(identities._THEORIES, fam,
                        row._replace(derivation=lambda syms, nf: ((), syms)))
    with pytest.raises(DerivationError, match="did not end on the normal form"):
        normalize_derivation(fam, Word.variables("xyyxyxxy"))


@pytest.mark.parametrize("fam, satisfied", [(F.LEFT_ZERO, "xyx = xy"), (F.RIGHT_ZERO, "xyx = yx"),
                                             (F.FREE_MONOGENIC, "xy = yx")], ids=str)
def test_a_family_without_a_basis_is_refused_by_basis_alone(fam, satisfied):
    # basis is the one refusal: the rewritings reach it, and say what basis says
    ident = Identity.parse(satisfied)
    assert satisfies(fam, ident)
    message = f"no basis registered for {fam}"
    for call in (lambda: basis(fam), lambda: normalize_derivation(fam, ident.lhs),
                 lambda: derivation_certificate(fam, ident)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_normalize_derivation_on_letter_words():
    w = Word.letters("3613151265")
    for fam in INSERTION:
        steps = normalize_derivation(fam, w)
        assert_chain(fam, w, steps)


def test_normalize_derivation_reads_a_sequence_as_normal_form_does():
    # a tuple is read as a checked Word: the certificate is the one of Word.letters("3121")
    w = Word.letters("3121")
    for fam in INSERTION:
        d = normalize_derivation(fam, (3, 1, 2, 1))
        assert derivation_to_json(d) == derivation_to_json(normalize_derivation(fam, w))
        assert d.start == w and d.end == normal_form(fam, (3, 1, 2, 1))
        assert verify_derivation(basis(fam), d)
    with pytest.raises(ValueError):
        normalize_derivation(F.SYLV, (3, "x"))


def test_normalize_already_normal_word_is_empty():
    for fam in INSERTION:
        w = normal_form(fam, Word.variables("xyxzy"))
        assert normalize_derivation(fam, w) == []


def test_certificate_refuses_a_long_unsatisfied_identity_before_rewriting():
    # a side's normal form decides: rewriting 20,000 letters would take minutes
    w = Word.variables(random.Random(31).choices("abcdefgh", k=20000))
    for fam in INSERTION:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="does not satisfy"):
            derivation_certificate(fam, Identity(w, w.reverse()))
        assert time.perf_counter() - start < 1, fam


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


def test_nonempty_images_are_required_on_both_sides():
    # y occurs only on the target side of x = xy; its empty image must count too
    sigma = [Identity.parse("x = xy")]
    d = reread({"rules": [["x", "xy"]], "start": "a", "end": "a",
                "apps": [[0, 0, "ltr", {"x": "a", "y": ""}]]})
    assert verify_derivation(sigma, d)
    assert not verify_derivation(sigma, d, require_nonempty_images=True)


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
    good = derivation_to_json(cert)
    [(start, rule, direction, lengths)] = good["apps"]
    flipped = "rtl" if direction == "ltr" else "ltr"
    # the same application, its images given
    images = {name: img.text() for name, img in cert[0].endo.items()}
    for payload in (good, dict(good, apps=[[start, rule, direction, images]])):
        assert verify_derivation(sigma, reread(payload))
    # each loads, and none verifies
    for bad in (dict(good, end="xyyx"), dict(good, start="x" + good["start"]),
                dict(good, apps=[[start, 3, direction, lengths]]),
                dict(good, apps=[[start, -1, direction, lengths]]),
                dict(good, apps=[[start, "0", direction, lengths]]),
                dict(good, apps=[[start, True, direction, lengths]]),  # True is 1, but no index
                dict(good, apps=[[start, rule, "down", lengths]]),
                dict(good, apps=[[start, rule, flipped, lengths]]),
                dict(good, apps=[[start + 1, rule, direction, lengths]]),
                dict(good, apps=[[start, rule, direction, lengths[:-1]]]),
                dict(good, apps=[[start, rule, direction, [*lengths[:-1], 1.0]]]),
                dict(good, apps=[[start, rule, direction, {**images, "x": "y"}]]),
                # a missing image
                dict(good, apps=[[start, rule, direction, {k: images[k] for k in "txy"}]]),
                dict(good, apps=[[start, rule, direction, [*images.values()]]]),
                dict(good, rules=[["yxsxty", "xysxty"]])):
        assert not verify_derivation(sigma, reread(bad)), bad
    # images of both kinds make no word
    for mixed in ({**images, "x": "1"}, {k: "1" * len(v) for k, v in images.items()}):
        with pytest.raises(ValueError, match="both letter and variable"):
            reread(dict(good, apps=[[start, rule, direction, mixed]]))
    # no word text, no list of four, no images
    for bad in (dict(good, start=["x", "y"]), dict(good, start="1x"),
                dict(good, apps=[[start, rule, direction]]), dict(good, apps=[(*good["apps"][0],)]),
                dict(good, apps=[[start, rule, direction, None]]),
                dict(good, apps=[[start, rule, direction, 5]])):
        with pytest.raises(ValueError, match="not a valid Derivation payload"):
            derivation_from_json(bad)
    # sides without a common variable: each substituted side is of one kind
    with pytest.raises(ValueError, match="both letter and variable"):
        derivation_from_json({"rules": [["x", "y"]], "start": "1", "end": "z",
                              "apps": [[0, 0, "ltr", {"x": "1", "y": "z"}]]})


def test_verify_rejects_broken_chains():
    sigma = basis(F.STAL)
    d = normalize_derivation(F.STAL, Word.variables("xyxyx"))
    good = derivation_to_json(d)
    assert len(d) >= 2
    assert verify_derivation(sigma, reread(good))
    assert not verify_derivation(sigma, reread(dict(good, apps=good["apps"][::-1])))
    assert not verify_derivation(sigma, reread(dict(good, apps=good["apps"][:1] * 2)))
    # a list of the steps is no Derivation
    assert not verify_derivation(sigma, list(d)) and not verify_derivation(sigma, good)


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
    assert back == inverted(steps)
    # the inverse's payload is the reversed applications, each direction flipped
    payload, forward = derivation_to_json(back), derivation_to_json(steps)
    assert payload["apps"] == [[*app[:2], "rtl" if app[2] == "ltr" else "ltr", app[3]]
                               for app in forward["apps"][::-1]]
    assert (payload["start"], payload["end"]) == (forward["end"], forward["start"])
    assert reread(payload) == back and verify_derivation(sigma, reread(payload))
    with pytest.raises(TypeError):
        invert_steps(list(steps))


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
    # and exact ints: max_steps=1.5 would search two levels
    for name, value in itertools.product(("max_steps", "max_word_len"), (1.5, 8.0, True)):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            derive_search(sigma, w, Word.variables("yxx"), **{name: value})


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
        derive_search(sigma, Word.variables("xyxyx"), Word.variables("yyxxx"))
        derive_search([Identity.parse("xy = x")], Word.variables("aab"), Word.variables("aabb"))
    assert [r.getMessage() for r in caplog.records if r.name == "plactic_lab.derive"] == [
        "found at depth 0; words reached: 1 forward, 1 backward",
        "found at depth 1; words reached: 2 forward, 1 backward",
        # xyxy rewrites to yxxy and xxyy, then the bound stops the search
        "step bound reached at depth 1; words reached: 3 forward, 1 backward",
        # no factor of xy matches xyx with nonempty images
        "frontier exhausted at depth 1; words reached: 1 forward, 1 backward",
        # depth 1 grows u's front (a tie), depth 2 the smaller backward front, and
        # the search stops at the first word of that front that u's side reached
        "found at depth 2; words reached: 5 forward, 2 backward",
        "found at depth 2; words reached: 4 forward, 3 backward",
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
    swap = [Identity.parse("x y = y x")]
    # the search's images are lone multi-character variables: x -> foo, y -> bar
    for rules, cert in ((basis(F.SYLV), derivation_certificate(F.SYLV, Identity.parse("xyxy = yxxy"))),
                        (swap, derive_search(swap, Word.variables("foo bar"),
                                             Word.variables("bar foo")))):
        payload = derivation_to_json(cert)
        assert json.loads(json.dumps(payload)) == payload
        restored = reread(payload)
        assert restored == cert and restored.rules == tuple(rules)
        assert verify_derivation(rules, restored)
    assert payload == {"rules": [["xy", "yx"]], "start": "foo bar", "end": "bar foo",
                       "apps": [[0, 0, "ltr", {"x": "foo ", "y": "bar "}]]}


def test_letter_step_json_roundtrip():
    w = Word.letters("212212")
    steps = normalize_derivation(F.SYLV, w)
    assert steps, "example word is not normal, so steps must exist"
    restored = reread(derivation_to_json(steps))
    assert restored == steps and (restored.start, restored.end) == (w, steps.end)
    assert verify_derivation(basis(F.SYLV), restored)
    # a letter-word search gives its images as letter texts
    sigma = basis(F.STAL)
    found = derive_search(sigma, Word.letters("1211"), Word.letters("2111"))
    payload = derivation_to_json(found)
    assert payload["apps"] == [[0, 0, "ltr", {"x": "1", "y": "2"}]]
    assert reread(payload) == found and verify_derivation(sigma, reread(payload))


def test_step_json_refuses_mixed_kinds():
    good = derivation_to_json(normalize_derivation(F.SYLV, Word.letters("212212")))
    with pytest.raises(ValueError, match="both letter and variable"):
        derivation_from_json(dict(good, end="xyxyxy"))
    # a payload that is no derivation at all is refused the same way, like every loader
    for bad in ({k: v for k, v in good.items() if k != "start"},
                {k: v for k, v in good.items() if k != "apps"},
                dict(good, start=5), dict(good, apps=None), dict(good, rules=[["xy"]]),
                dict(good, rules=[["x", "1"]]), dict(good, rules="xy"), [good], None):
        with pytest.raises(ValueError, match="not a valid Derivation payload"):
            derivation_from_json(bad)


def test_every_certificate_and_search_result_round_trips_through_json():
    def round_trip(rules, d):
        payload = derivation_to_json(d)
        assert json.loads(json.dumps(payload)) == payload  # JSON values only: lists, no tuples
        restored = reread(payload)
        assert restored == d and restored.rules == tuple(rules)
        assert verify_derivation(restored.rules, restored)

    for ident in _criterion_5_space():
        for fam in INSERTION:
            if satisfies(fam, ident):
                round_trip(basis(fam), derivation_certificate(fam, ident))
    # 150 seeded searches; their steps hash as they did when derive wrote each step's texts
    systems = [basis(F.STAL), [Identity.parse("xx = x")], [Identity.parse("x = xx")]]
    rng, digest, found = random.Random(7), hashlib.sha256(), 0
    for i in range(150):
        sigma = systems[i % 3]
        u = Word.variables([rng.choice("xyz"[: rng.randint(1, 3)])
                            for _ in range(rng.randint(1, 6))])
        if i % 3 == 0:
            v = (normal_form(F.STAL, u) if rng.random() < 0.7 else
                 Word.variables(rng.sample(u.symbols, len(u))))
        else:
            v = Word.variables([rng.choice("xyz") for _ in range(rng.randint(1, 6))])
        d = derive_search(sigma, u, v, max_steps=rng.randint(1, 6), max_word_len=rng.randint(4, 9))
        if d is not None:
            found += 1
            round_trip(sigma, d)
        digest.update(json.dumps(None if d is None else step_json(d), sort_keys=True).encode())
    assert (found, digest.hexdigest()) == (
        45, "22a918121a70450372a9d779683705444d27f668a0ce50da40e6fae77feadfa1")


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
                steps = [*steps, *derivation_certificate(fam, Identity(w, v))]
            digest.update(json.dumps([normal_form(fam, w).text(), step_json(steps)]).encode())
    assert digest.hexdigest() == (
        "63805418342eb1c48dbc894a82a5010b8c96c9856383eb6b3f2abf7198ab3ed3")


def test_certificates_go_straight_from_lhs_to_rhs():
    # seeded class pairs of 20-120 letters, rhs a random walk of basis swaps from lhs: the
    # certificate makes one swap per occurrence inversion, never more than the way through
    # the normal form; stal and taig gather both sides, and keep that way byte for byte
    totals = {}
    for fam in INSERTION:
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(20, 120)
            w = [rng.choice("abcdefgh") for _ in range(n)]
            other = (same_columns(w, rng) if fam in (F.STAL, F.TAIG) else
                     class_walk(fam, w, rng, 3 * n))
            lhs, rhs = Word.variables(w), Word.variables(other)
            cert = derivation_certificate(fam, Identity(lhs, rhs))
            join = normalize_derivation(fam, lhs) + invert_steps(normalize_derivation(fam, rhs))
            assert verify_derivation(basis(fam), cert) and (cert.start, cert.end) == (lhs, rhs)
            if fam in (F.STAL, F.TAIG):
                assert derivation_to_json(cert) == derivation_to_json(join)
            else:
                assert len(cert) == occurrence_inversions(w, other) <= len(join)
            totals[fam] = [a + b for a, b in zip(totals.get(fam, (0, 0)), (len(cert), len(join)))]
    assert totals == {F.STAL: [4260, 4260], F.TAIG: [4260, 4260], F.SYLV: [2319, 52759],
                      F.SYLV_SHARP: [2013, 41913], F.BAXT: [2186, 30174]}


def test_mirrored_steps_use_sharp_basis_instances():
    w = Word.variables("yxyx")
    steps = normalize_derivation(F.SYLV_SHARP, w)
    assert steps
    assert verify_derivation(basis(F.SYLV_SHARP), steps)
    for step in steps:
        assert step.rule_index == 0


@settings(max_examples=60, deadline=None)
@given(any_words)
def test_a_derivation_is_the_sequence_of_its_steps(w):
    # each family's derivation to the normal form and, for a variable word, the
    # certificate from its normal form back to it
    for fam in INSERTION:
        derivations = [normalize_derivation(fam, w)]
        if w.kind == "variable":
            derivations.append(derivation_certificate(fam, Identity(normal_form(fam, w), w)))
        for d in derivations:
            assert type(d) is Derivation
            steps = list(d)
            assert verify_derivation(basis(fam), d) and not verify_derivation(basis(fam), steps)
            assert steps == [d[i] for i in range(len(d))] == [d[i - len(d)] for i in range(len(d))]
            assert steps == d
            assert bool(d) == bool(steps)
            if d:
                assert (d[0].before, d[-1].after) == (d.start, d.end)
            assert pickle.loads(pickle.dumps(d)) == d
        down = derivations[0]
        if down:
            assert down[0].before == w and down[-1].after == normal_form(fam, w)


def test_a_derivation_supports_the_list_operations():
    d = normalize_derivation(F.SYLV, Word.variables("yxzxyzx"))
    steps = list(d)
    assert len(d) == len(steps) == 4
    assert d[-1] == steps[-1] and d[-4] == steps[0]
    assert d[1:3] == steps[1:3] and d[::-1] == steps[::-1]
    # + joins two Derivations over equal rules into one, and nothing else
    there_and_back = d + invert_steps(d)
    assert type(there_and_back) is Derivation
    assert there_and_back == steps + list(invert_steps(d))
    stal = normalize_derivation(F.STAL, Word.variables("yxzxyzx"))
    for left, right in ((d, steps), (steps, d), (d, stal)):
        with pytest.raises(TypeError):
            left + right
    # a join whose ends do not meet is refused where any malformed Derivation is
    assert not verify_derivation(basis(F.SYLV), d + d)
    with pytest.raises(DerivationError):
        list(d + d)
    assert d != steps[:-1] and d != steps[::-1] and d != tuple(steps) and d != "steps"
    assert d == Derivation(d.rules, d.start, d.apps, d.end)
    assert invert_steps(d) == inverted(steps)
    with pytest.raises(TypeError):
        invert_steps(steps)
    assert repr(d) == "Derivation('yxzxyzx' => 'zxxyyzx', steps=4)"
    with pytest.raises(IndexError):
        d[4]
    with pytest.raises(IndexError):
        d[-5]
    # a rule whose target side drops a variable cannot be read backwards from the end
    erase = [Identity.parse("xy = x")]
    a, ab = Word.variables("a"), Word.variables("ab")
    d = Derivation(erase, ab, [(0, 0, "ltr", (1, 1))], a)
    assert verify_derivation(erase, d)
    assert d[-1] == d[0] == DerivationStep(ab, a, 0, "ltr", a[:0], a[:0], {"x": a, "y": ab[1:]})


def test_verify_rejects_tampered_applications():
    sigma = basis(F.BAXT)
    d = normalize_derivation(F.BAXT, Word.variables("xyyxyxxy"))
    assert len(d) == 3 and verify_derivation(sigma, d)
    start, ri, direction, lengths = d.apps[1]
    assert ri == 1
    flipped = "ltr" if direction == "rtl" else "rtl"
    bad_apps = [
        (-1, ri, direction, lengths), (len(d.start) + 1, ri, direction, lengths),
        (start + 1, ri, direction, lengths),  # a window that does not spell the rule's side
        (start, ri, direction, lengths[:-1]), (start, ri, direction, lengths + (0,)),
        (start, ri, direction, lengths[:2] + (-1,) + lengths[3:]),
        (start, ri, direction, list(lengths)), (start, ri, direction, (1.0,) + lengths[1:]),
        (start, True, direction, lengths), (start, 2, direction, lengths),
        (start, ri, "down", lengths), (start, ri, flipped, lengths),
        (start, 0, direction, lengths),
        (start, ri, direction), (start, ri, direction, lengths, 0), [start, ri, direction, lengths],
    ]
    for app in bad_apps:
        apps = [d.apps[0], app, d.apps[2]]
        tampered = Derivation(d.rules, d.start, apps, d.end)
        assert not verify_derivation(sigma, tampered), app
        with pytest.raises(DerivationError):
            list(tampered)
    # the replay must reach the recorded end word
    assert not verify_derivation(sigma, Derivation(d.rules, d.start, d.apps, d.start))
    assert not verify_derivation(sigma, Derivation(d.rules, d.start, d.apps[:2], d.end))
    # its start and end must be words, and its rules sigma
    assert not verify_derivation(sigma, Derivation(d.rules, d.start.symbols, d.apps, d.end))
    assert not verify_derivation(sigma, Derivation(d.rules, d.start, d.apps, d.end.text()))
    assert not verify_derivation(sigma[::-1], d) and not verify_derivation(basis(F.SYLV), d)
    # a renamed rule spells the same rewrite, but the steps name the derivation's own rule
    stal = normalize_derivation(F.STAL, Word.variables("xyx"))
    renamed = [Identity.parse("yxy = xyy")]
    assert verify_derivation(basis(F.STAL), stal)
    assert not verify_derivation(renamed, stal) and not verify_derivation(renamed, list(stal))
    assert not verify_derivation(sigma, d, require_nonempty_images=True)  # s and t are empty
    # a malformed last application: inverting keeps it, so d[-1] fails as iteration does
    bad = Derivation(d.rules, d.start, [*d.apps[:2], (1, 2)], d.end)
    assert invert_steps(bad).apps[0] == (1, 2)
    assert not verify_derivation(sigma, bad) and not verify_derivation(sigma, invert_steps(bad))
    # a malformed first application: d[-1] replays it too, so every index fails alike
    bad_first = Derivation(d.rules, d.start, [(1, 2), *d.apps[1:]], d.end)
    assert not verify_derivation(sigma, bad_first)
    for tampered in (bad, bad_first):
        for index in (0, 2, -1, -3):
            with pytest.raises(DerivationError):
                tampered[index]


def test_a_400_letter_certificate_builds_and_verifies_in_little_memory(peak_bytes):
    # each step is one O(1) application, replayed on one list; at the parent
    # design of six words per step this certificate peaked at about 366 MB
    rng = random.Random(1)
    w = Word.variables([rng.choice("abcdefgh") for _ in range(400)])

    def build_and_verify():
        d = normalize_derivation(F.SYLV_SHARP, w)
        return len(d), verify_derivation(basis(F.SYLV_SHARP), d)

    def join_and_verify():
        # + joins the applications, building no step of either half
        d = normalize_derivation(F.SYLV_SHARP, w)
        there_and_back = d + invert_steps(d)
        return len(there_and_back), verify_derivation(basis(F.SYLV_SHARP), there_and_back)

    (steps, ok), peak = peak_bytes(build_and_verify)
    assert (steps, ok) == (34350, True)
    assert peak <= 20_000_000
    (steps, ok), peak = peak_bytes(join_and_verify)
    assert (steps, ok) == (2 * 34350, True)
    assert peak <= 20_000_000


def test_derive_record_counts_the_rewrites_the_length_bound_prunes(caplog):
    sigma, x, xxxx = [Identity.parse("x = xx")], Word.variables("x"), Word.variables("xxxx")
    derive_search(sigma, x, xxxx, max_steps=10, max_word_len=3)
    assert not caplog.records  # off by default
    with caplog.at_level(logging.DEBUG, logger="plactic_lab.derive"):
        derive_search(sigma, x, xxxx, max_steps=10, max_word_len=3)
        derive_search(sigma, x, xxxx, max_steps=10, max_word_len=4)
    # the rewrite xx -> xxxx is pruned, and so are the six of xxx, all longer than 3
    assert [r.getMessage() for r in caplog.records if r.name == "plactic_lab.derive"] == [
        "frontier exhausted at depth 3; words reached: 3 forward, 1 backward; "
        "7 rewrites longer than max_word_len pruned",
        "found at depth 2; words reached: 4 forward, 1 backward",
    ]


def test_derive_search_returns_a_derivation():
    # found forwards, and backwards: with x = xx both ways, and with xy = x, whose
    # inverted x -> xy step gives y an image that its source side cannot show
    stal, grow, erase = basis(F.STAL), [Identity.parse("x = xx")], [Identity.parse("xy = x")]
    cases = [(stal, "xyxyx", normal_form(F.STAL, Word.variables("xyxyx")).text()),
             (grow, "x", "xxxx"), (grow, "xxxx", "x"), (erase, "aab", "aabb")]
    for sigma, u, v in cases:
        u, v = Word.variables(u), Word.variables(v)
        d = derive_search(sigma, u, v, max_steps=6, max_word_len=6)
        assert type(d) is Derivation and (d.start, d.end, d.rules) == (u, v, tuple(sigma))
        steps = list(d)
        assert verify_derivation(sigma, d) and not verify_derivation(sigma, steps)
        assert pickle.loads(pickle.dumps(d)) == d == steps
        assert d[-1] == steps[-1] and (d[0].before, d[-1].after) == (u, v)
        back = invert_steps(d)
        assert type(back) is Derivation and back == inverted(steps)
        assert verify_derivation(sigma, back) and not verify_derivation(sigma, list(back))
        assert back[-1] == inverted(steps)[-1] and back[-1].after == u
    assert [app[2] for app in derive_search(erase, Word.variables("aab"),
                                            Word.variables("aabb")).apps] == ["ltr", "rtl"]
    empty = derive_search(stal, Word.variables("xyx"), Word.variables("xyx"))
    assert type(empty) is Derivation and not empty and verify_derivation(stal, empty)


def test_derivations_over_other_rules_are_not_equal():
    # a payload whose rule list gained a rule fails verification: it must not read back ==
    d = normalize_derivation(F.STAL, Word.variables("xyx"))
    extra = Derivation([*d.rules, Identity.parse("xy = yx")], d.start, d.apps, d.end)
    assert len(d) == 1 and d == Derivation(d.rules, d.start, d.apps, d.end) and d == list(d)
    assert extra != d and d != extra and not d == extra and extra == list(d)
    assert not verify_derivation(basis(F.STAL), extra)
    assert reread(derivation_to_json(extra)) != d


def test_given_images_are_checked_like_list_steps():
    # an application may give its images as a dict of Words, as a step's endo does
    sigma = [Identity.parse("xy = x")]
    a, ab, b = Word.variables("a"), Word.variables("ab"), Word.variables("b")
    good = Derivation(sigma, a, [(0, 0, "rtl", {"x": a, "y": b})], ab)
    assert verify_derivation(sigma, good) and list(good) == [
        DerivationStep(a, ab, 0, "rtl", a[:0], a[:0], {"x": a, "y": b})]
    assert verify_derivation(sigma, Derivation(sigma, a, [(0, 0, "rtl", {"x": a, "y": b,
                                                                          "z": a})], ab))
    for images in ({"x": a}, {"x": a, "y": b.symbols}, {"x": a, "y": Word.letters("1")},
                   {"x": b, "y": b}, {"x": a, "y": a}):
        tampered = Derivation(sigma, a, [(0, 0, "rtl", images)], ab)
        assert not verify_derivation(sigma, tampered), images
        with pytest.raises(DerivationError):
            list(tampered)
    # a payload gives images as texts: extra names pass, every text must be there
    payload = derivation_to_json(good)
    assert payload["apps"] == [[0, 0, "rtl", {"x": "a", "y": "b"}]]
    assert verify_derivation(sigma, reread(dict(payload, apps=[[0, 0, "rtl", {"x": "a", "y": "b",
                                                                                "z": "a"}]])))
    for field in ("start", "end"):
        with pytest.raises(ValueError, match="not a valid Derivation payload"):
            derivation_from_json(dict(payload, **{field: None}))
    assert not verify_derivation(sigma, reread(dict(payload, apps=[[0, 0, "rtl", [1, 1]]])))
    assert not verify_derivation(sigma, reread(dict(payload, end="abb")))
    # the steps, or the payload, are no Derivation: refused, not an error
    assert not verify_derivation(sigma, list(good)) and not verify_derivation(sigma, payload)
    assert not verify_derivation(sigma, [good[0]._asdict()])


def test_a_replay_holds_one_kind_across_its_applications():
    # each application gives images of one kind, but the two together put a
    # letter into a variable word, a -> 1a -> a; over variables, a -> ba -> a
    sigma = [Identity.parse("x = xy")]
    a, empty = Word.variables("a"), Word(())
    for y, holds in ((Word.letters("1"), False), (Word.variables("b"), True)):
        images = {"x": empty, "y": y}
        d = Derivation(sigma, a, [(0, 0, "ltr", images), (0, 0, "rtl", images)], a)
        assert verify_derivation(sigma, d) is holds, y
        if holds:
            assert [step.after for step in d] == [Word.variables("ba"), a]
            assert verify_derivation(sigma, reread(derivation_to_json(d)))
        else:  # as its JSON is refused
            with pytest.raises(DerivationError):
                list(d)
            with pytest.raises(ValueError, match="both letter and variable"):
                derivation_from_json(derivation_to_json(d))
    # with an empty start and end, the kinds meet across applications alone
    sigma, one, b = [Identity.parse(" = x")], Word.letters("1"), Word.variables("b")
    apps = [(0, 0, "ltr", {"x": one}), (0, 0, "ltr", {"x": b}), (0, 0, "rtl", {"x": b}),
            (0, 0, "rtl", {"x": one})]
    assert not verify_derivation(sigma, Derivation(sigma, empty, apps, empty))
    apps = [(0, 0, direction, {"x": b}) for direction in ("ltr", "ltr", "rtl", "rtl")]
    assert verify_derivation(sigma, Derivation(sigma, empty, apps, empty))
