"""cli: the command line as a user runs it, one subprocess per call.

A fixed rotation covers all eight subcommands with text, json and dot output,
one usage error (exit 2) and a ``render`` of a 3,000-letter monotone word.
Each call runs twice: as ``python -m plactic_lab.cli`` in a fresh interpreter
(timed: start-up, import, argparse and the command) and in-process through
``cli.main(argv)`` with stdout captured.  Both are checked against results
computed with the library directly: exit code (0 positive, 1 negative, 2
error) and stdout.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys

from plactic_lab import (
    Exhaustive,
    HoldsWithinBound,
    Identity,
    MonoidFamily,
    Word,
    canonical,
    derivation_certificate,
    derivation_to_json,
    equivalent,
    ev,
    fp,
    ip,
    mix,
    normal_form,
    oracle,
    satisfies,
    verdict_to_json,
)
from plactic_lab import cli

from harness import Tally, exc_name, length_profile, now

F = MonoidFamily
LONG_RENDER = 3000
TRACE_ROUNDS = 1
SUBCOMMANDS = ("object", "render", "equiv", "stats", "check-identity", "nf", "oracle",
               "derive")


def _letters(rng, rank, n):
    return " ".join(str(rng.randint(1, rank)) for _ in range(n))


def _variables(rng, names, n):
    return "".join(rng.choice(names) for _ in range(n))


class _Ref:
    """What the library says a call must print: exit code and a stdout test."""

    def __init__(self, code, accepts=None, why=None):
        self.code = code
        self.accepts = accepts
        self.why = why


def _parse_letters(tr, text):
    with tr.span("words.parse"):
        return Word.letters(text)


def _parse_identity(tr, text):
    with tr.span("words.parse"):
        return Identity.parse(text)


def _ref_object(tr, fam, text, fmt):
    w = _parse_letters(tr, text)
    with tr.span("monoids.canonical"):
        obj = canonical(fam, w)
    if fmt == "json":
        payload = obj.to_json_dict()
        return _Ref(0, lambda out: json.loads(out) == payload)
    line = f"object: {obj!r}"
    return _Ref(0, lambda out: line in out.splitlines())


def _ref_render(tr, fam, text, fmt):
    w = _parse_letters(tr, text)
    with tr.span("monoids.canonical"):
        obj = canonical(fam, w)
    layer = "tableaux" if fam in (F.STAL, F.TAIG) else "bst"
    with tr.span(f"{layer}.render"):
        if fam is F.BAXT and fmt == "dot":
            expected = obj.sharp.to_dot() + "\n" + obj.plain.to_dot() + "\n"
        elif fam is F.BAXT:
            expected = ("left-strict component:\n" + obj.sharp.render()
                        + "\nright-strict component:\n" + obj.plain.render() + "\n")
        elif fmt == "dot":
            expected = obj.to_dot() + "\n"
        else:
            expected = obj.render() + "\n"
    return _Ref(0, lambda out: out == expected)


def _ref_equiv(tr, fam, lhs, rhs, fmt):
    u, v = _parse_letters(tr, lhs), _parse_letters(tr, rhs)
    with tr.span("monoids.equivalent"):
        same = equivalent(fam, u, v)
    if fmt == "json":
        return _Ref(0 if same else 1, lambda out: json.loads(out) == {"equivalent": same})
    text = "equivalent\n" if same else "not equivalent\n"
    return _Ref(0 if same else 1, lambda out: out == text)


def _ref_stats(tr, text, fmt):
    w = _parse_letters(tr, text)
    with tr.span("words.skeleton"):
        counts = ev(w)
        payload = {"con": sorted(counts), "ev": {str(a): counts[a] for a in sorted(counts)},
                   "ip": ip(w).text(), "fp": fp(w).text(), "mix": mix(w).text()}
    if fmt == "json":
        return _Ref(0, lambda out: json.loads(out) == payload)
    lines = [f"ip:  {payload['ip']}", f"fp:  {payload['fp']}", f"mix: {payload['mix']}"]
    return _Ref(0, lambda out: all(line in out.splitlines() for line in lines))


def _ref_check(tr, fam, text, fmt):
    ident = _parse_identity(tr, text)
    with tr.span("identities.satisfies"):
        holds = satisfies(fam, ident)
    if fmt == "json":
        payload = {"identity": ident.text(), "holds": holds}
        return _Ref(0 if holds else 1, lambda out: json.loads(out) == payload)
    line = "holds\n" if holds else "does not hold\n"
    return _Ref(0 if holds else 1, lambda out: out == line)


def _ref_nf(tr, fam, text, fmt):
    with tr.span("words.parse"):
        try:
            w = Word.letters(text)
        except ValueError:
            w = Word.variables(text)
    with tr.span("identities.normal_form"):
        out_word = normal_form(fam, w)
    if fmt == "json":
        payload = {"word": w.text(), "normal_form": out_word.text()}
        return _Ref(0, lambda out: json.loads(out) == payload)
    return _Ref(0, lambda out: out == out_word.text() + "\n")


def _ref_oracle(tr, fam, text, fmt):
    ident = _parse_identity(tr, text)
    with tr.span("identities.oracle"):
        verdict = oracle(fam, 2, ident, Exhaustive(2))
    code = 0 if isinstance(verdict, HoldsWithinBound) else 1
    if fmt == "json":
        payload = verdict_to_json(verdict)
        return _Ref(code, lambda out: json.loads(out) == payload)
    head = "holds within bound" if code == 0 else "counterexample:"
    return _Ref(code, lambda out: out.startswith(head))


def _ref_derive(tr, fam, text, fmt):
    ident = _parse_identity(tr, text)
    with tr.span("identities.satisfies"):
        holds = satisfies(fam, ident)
    if not holds:
        return _Ref(1, lambda out: out == "")
    with tr.span("identities.derivation_certificate") as sp:
        steps = derivation_certificate(fam, ident)
        sp.count("steps", len(steps))
    if fmt == "json":
        payload = derivation_to_json(steps)
        return _Ref(0, lambda out: json.loads(out) == payload)
    return _Ref(0, lambda out: len(out.splitlines()) == max(1, len(steps)))


class CliCalls:

    def __init__(self, seed: int, env: dict, root: str, tiny: bool = False):
        rng = random.Random(seed)
        self.env = env
        self.root = root
        self.trace_rounds = TRACE_ROUNDS
        w1 = _letters(rng, 4, 12)
        w2 = _letters(rng, 6, 16)
        partner = normal_form(F.SYLV, Word.letters(w1)).text()
        other = _letters(rng, 4, 12)
        u = _variables(rng, "xyz", 7)
        holds_baxt = f"{u} = {normal_form(F.BAXT, Word.variables(u)).text()}"
        holds_taig = f"{u} = {normal_form(F.TAIG, Word.variables(u)).text()}"
        holds_stal = f"{u} = {normal_form(F.STAL, Word.variables(u)).text()}"
        loose = f"{_variables(rng, 'xyz', 6)} = {_variables(rng, 'xyz', 6)}"
        long_word = " ".join(str(i) for i in range(1, (60 if tiny else LONG_RENDER) + 1))
        # (label, argv, reference)
        calls = [
            ("object-stal", ["object", "--monoid", "stal", "--word", w1],
             lambda tr: _ref_object(tr, F.STAL, w1, "text")),
            ("object-baxt-json", ["object", "--monoid", "baxt", "--word", w1,
                                  "--format", "json"],
             lambda tr: _ref_object(tr, F.BAXT, w1, "json")),
            ("render-taig", ["render", "--monoid", "taig", "--word", w2],
             lambda tr: _ref_render(tr, F.TAIG, w2, "text")),
            ("render-baxt-dot", ["render", "--monoid", "baxt", "--word", w1,
                                 "--format", "dot"],
             lambda tr: _ref_render(tr, F.BAXT, w1, "dot")),
            (f"render-sylv-{len(long_word.split())}",
             ["render", "--monoid", "sylv", "--word", long_word],
             lambda tr: _ref_render(tr, F.SYLV, long_word, "text")),
            ("equiv-sylv", ["equiv", "--monoid", "sylv", "--lhs", w1, "--rhs", partner],
             lambda tr: _ref_equiv(tr, F.SYLV, w1, partner, "text")),
            ("equiv-sylvsharp-json", ["equiv", "--monoid", "sylvsharp", "--lhs", w1,
                                      "--rhs", other, "--format", "json"],
             lambda tr: _ref_equiv(tr, F.SYLV_SHARP, w1, other, "json")),
            ("stats-json", ["stats", "--word", w2, "--format", "json"],
             lambda tr: _ref_stats(tr, w2, "json")),
            ("stats", ["stats", "--word", w2], lambda tr: _ref_stats(tr, w2, "text")),
            ("check-baxt", ["check-identity", "--monoid", "baxt", "--id", holds_baxt],
             lambda tr: _ref_check(tr, F.BAXT, holds_baxt, "text")),
            ("check-sylv-json", ["check-identity", "--monoid", "sylv", "--id", loose,
                                 "--format", "json"],
             lambda tr: _ref_check(tr, F.SYLV, loose, "json")),
            ("nf-sylv", ["nf", "--monoid", "sylv", "--word", u],
             lambda tr: _ref_nf(tr, F.SYLV, u, "text")),
            ("nf-baxt-json", ["nf", "--monoid", "baxt", "--word", w2, "--format", "json"],
             lambda tr: _ref_nf(tr, F.BAXT, w2, "json")),
            ("oracle-taig-json", ["oracle", "--monoid", "taig", "--id", holds_taig,
                                  "--format", "json"],
             lambda tr: _ref_oracle(tr, F.TAIG, holds_taig, "json")),
            ("oracle-sylv", ["oracle", "--monoid", "sylv", "--id", loose],
             lambda tr: _ref_oracle(tr, F.SYLV, loose, "text")),
            ("derive-stal-json", ["derive", "--monoid", "stal", "--id", holds_stal,
                                  "--format", "json"],
             lambda tr: _ref_derive(tr, F.STAL, holds_stal, "json")),
            ("derive-sylv", ["derive", "--monoid", "sylv", "--id", loose],
             lambda tr: _ref_derive(tr, F.SYLV, loose, "text")),
            ("usage-error", ["object", "--monoid", "sylv", "--word", "120"],
             lambda tr: _Ref(2, lambda out: out == "")),
        ]
        self.calls = calls
        self.word_lengths = [len(w1.split()), len(w2.split()), len(other.split()),
                             len(long_word.split())]
        self.per_sub = {sub: [] for sub in SUBCOMMANDS}
        self.startup = []

    def round(self, tr, tally: Tally, acc) -> None:
        for label, argv, reference in self.calls:
            tr.new_request()
            name = f"cli/{label}"
            try:
                ref = reference(tr)
            except Exception as exc:
                # the library itself cannot produce the answer; the call
                # still has to exit 0 for a positive command
                ref = _Ref(0, None, f"library raised {exc_name(exc)}")
            t0 = now()
            proc = self.spawn(argv)
            wall = now() - t0
            acc.main(label, wall, 1)
            acc.latency(label, wall)
            crashed = "Traceback (most recent call last)" in proc.stderr
            self._check(tally, f"{name}/subprocess", ref, proc.returncode, proc.stdout,
                        crashed and f"exit {proc.returncode} with a traceback")

            out = io.StringIO()
            crashed = None
            t0 = now()
            with tr.span(f"cli.{argv[0]}"):
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    code, crashed = None, f"raised {exc_name(exc)}"
            inproc = now() - t0
            acc.side(label, inproc, 1)
            self.per_sub[argv[0]].append(inproc)
            self.startup.append(wall - inproc)
            self._check(tally, f"{name}/in-process", ref, code, out.getvalue(), crashed)

    def spawn(self, argv):
        return subprocess.run([sys.executable, "-m", "plactic_lab.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=120)

    @staticmethod
    def _check(tally, name, ref, code, stdout, crashed):
        if crashed:
            tally.fail(name, f"crashed: {crashed}")
        elif code != ref.code:
            # exit 2 reports an error honestly; 0 for 1 (or 1 for 0) is a wrong answer
            tally.fail(name, f"exit {code}, expected {ref.code}", wrong=code != 2)
        elif ref.accepts is None:
            tally.fail(name, f"output unchecked: {ref.why}")
        else:
            try:
                good = ref.accepts(stdout)
            except ValueError:   # json that does not parse
                good = False
            tally.check(good, name, "stdout differs from the library")

    def inputs(self) -> dict:
        return {"calls_per_round": len(self.calls), "subcommands": list(SUBCOMMANDS),
                "formats": ["text", "json", "dot"],
                "letter_words": length_profile(self.word_lengths), "alphabet_size": 6,
                "max_tree_depth": {"monotone": self.word_lengths[-1]}}

    NAMED = {"cli_calls_per_s": ("primary_per_s", "1/s"),
             "cli_main_calls_per_s": ("secondary_per_s", "1/s"),
             "cli_p50_ms": ("p50_ms", "ms"), "cli_p90_ms": ("p90_ms", "ms")}
