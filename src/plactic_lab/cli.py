"""Command line front end.

Exit codes: 0 for positive results (equivalent, identity holds, derivation
found), 1 for negative ones (not equivalent, counterexample, no derivation),
2 for usage or parse errors, for a derivation that fails its own check, and
for an input too large or too deep to process (a RecursionError or a
MemoryError).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import identities, monoids, words
from .monoids import MonoidFamily
from .words import Word, _parse_word


def _family(value: str) -> MonoidFamily:
    try:
        return MonoidFamily.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _cmd_object(args) -> int:
    obj = monoids.canonical(args.monoid, Word.letters(args.word))
    if args.format == "json":
        if hasattr(obj, "to_json_dict"):
            payload = obj.to_json_dict()
        elif isinstance(obj, int):
            payload = {"exponent": obj}
        else:
            payload = {"element": obj}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"family: {args.monoid}")
    if hasattr(obj, "reading_word"):
        print(f"reading word: {Word.letters(obj.reading_word()).text()}")
    print(f"object: {obj!r}")
    return 0


def _cmd_render(args) -> int:
    obj = monoids.canonical(args.monoid, Word.letters(args.word))
    if args.format == "dot":
        if not hasattr(obj, "to_dot"):
            print(f"no dot rendering for {args.monoid}", file=sys.stderr)
            return 2
        print(obj.to_dot())
    else:
        print(obj.render() if hasattr(obj, "render") else repr(obj))
    return 0


def _cmd_equiv(args) -> int:
    same = monoids.equivalent(args.monoid, Word.letters(args.lhs), Word.letters(args.rhs))
    if args.format == "json":
        print(json.dumps({"equivalent": same}))
    else:
        print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_stats(args) -> int:
    w = Word.letters(args.word)
    ev = words.ev(w)
    payload = {
        "con": sorted(ev),
        "ev": {str(a): ev[a] for a in sorted(ev)},
        "ip": words.ip(w).text(),
        "fp": words.fp(w).text(),
        "mix": words.mix(w).text(),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"con: {payload['con']}")
    print(f"ev:  {payload['ev']}")
    print(f"ip:  {payload['ip']}")
    print(f"fp:  {payload['fp']}")
    print(f"mix: {payload['mix']}")
    return 0


def _cmd_check_identity(args) -> int:
    ident = words.Identity.parse(args.id)
    holds = identities.satisfies(args.monoid, ident)
    if args.format == "json":
        print(json.dumps({"identity": ident.text(), "holds": holds}))
    else:
        print("holds" if holds else "does not hold")
    return 0 if holds else 1


def _cmd_nf(args) -> int:
    w = _parse_word(args.word)
    out = identities.normal_form(args.monoid, w)
    if args.format == "json":
        print(json.dumps({"word": w.text(), "normal_form": out.text()}))
    else:
        print(out.text())
    return 0


def _cmd_oracle(args) -> int:
    ident = words.Identity.parse(args.id)
    if args.trials is not None:
        mode = identities.RandomSearch(trials=args.trials, max_len=args.max_len,
                                       seed=args.seed)
    else:
        mode = identities.Exhaustive(max_len=args.max_len)
    verdict = identities.oracle(args.monoid, args.rank, ident, mode)
    if args.format == "json":
        print(json.dumps(identities.verdict_to_json(verdict), sort_keys=True))
    elif isinstance(verdict, identities.HoldsWithinBound):
        print(f"holds within bound ({verdict.checked} substitutions)")
    else:
        parts = ", ".join(
            f"{name} -> {w.text()!r}" for name, w in sorted(verdict.substitution.items())
        )
        print(f"counterexample: {parts}")
    return 0 if isinstance(verdict, identities.HoldsWithinBound) else 1


def _describe_step(step) -> str:
    images = ", ".join(
        f"{name}->{img.text()!r}" for name, img in sorted(step.endo.items())
    )
    return (
        f"{step.before.text()}  =>  {step.after.text()}"
        f"   [rule {step.rule_index} {step.direction}] {images}"
    )


def _cmd_derive(args) -> int:
    if args.sigma:
        try:
            sigma = words.load_identity_system(args.sigma)
        except OSError as exc:  # a missing file is an error, not "no derivation"
            print(f"error: cannot read {args.sigma}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        if not (args.lhs and args.rhs):
            print("derive with --sigma requires --lhs and --rhs", file=sys.stderr)
            return 2
        u, v = _parse_word(args.lhs), _parse_word(args.rhs)
        steps = identities.derive_search(sigma, u, v, max_steps=args.max_steps,
                                         max_word_len=args.max_word_len)
        if steps is None:
            print("no derivation found within bounds", file=sys.stderr)
            return 1
    else:
        if not args.id:
            print("derive requires --id or --sigma", file=sys.stderr)
            return 2
        ident = words.Identity.parse(args.id)
        if not identities.satisfies(args.monoid, ident):
            print(f"{args.monoid} does not satisfy {ident.text()}", file=sys.stderr)
            return 1
        sigma = identities.basis(args.monoid)
        steps = identities.derivation_certificate(args.monoid, ident)
    if not identities.verify_derivation(sigma, steps):
        raise identities.DerivationError("derivation failed verification")
    if args.format == "json":
        print(json.dumps(identities.derivation_to_json(steps), indent=2))
    else:
        if not steps:
            print("(empty derivation: sides already identical)")
        for step in steps:
            print(_describe_step(step))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plactic-lab",
        description="Insertion algorithms, identity checking, and derivations "
        "for the stalactic, taiga, sylvester, #-sylvester, and Baxter monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, formats=("text", "json"), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default="text")
        return p

    p = add("object", _cmd_object, help="canonical object of a letter word")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--word", required=True)

    p = add("render", _cmd_render, ("text", "dot"), help="draw the canonical object")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--word", required=True)

    p = add("equiv", _cmd_equiv, help="decide whether two letter words are equivalent")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("stats", _cmd_stats, help="content, evaluation, and skeletons of a word")
    p.add_argument("--word", required=True)

    p = add("check-identity", _cmd_check_identity,
            help="exact decision: does the monoid satisfy the identity")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--id", required=True)

    p = add("nf", _cmd_nf, help="normal form of a word")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--word", required=True)

    p = add("oracle", _cmd_oracle, help="brute force check by substitution")
    p.add_argument("--monoid", type=_family, required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-len", type=int, default=2)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("derive", _cmd_derive, help="derivation certificate or bounded search")
    p.add_argument("--monoid", type=_family, default=MonoidFamily.SYLV)
    p.add_argument("--id", default=None)
    p.add_argument("--sigma", default=None, help="file with one identity per line")
    p.add_argument("--lhs", default=None)
    p.add_argument("--rhs", default=None)
    p.add_argument("--max-steps", type=int, default=8)
    p.add_argument("--max-word-len", type=int, default=16)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, identities.DerivationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # a resource limit is an error, and must not read as a negative answer
        print(f"error: input too large or too deep ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
