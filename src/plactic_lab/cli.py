"""Command line front end: one table of subcommands, one output path, one failure path.

A subcommand maps the parsed arguments to its exit code and its output
(``None`` for none): one thunk per ``--format`` value, returning a JSON value
or the text lines.  ``main`` runs only the requested thunk and writes all of
stdout, any JSON value as one line with sorted keys.  Exit codes: 0 for
positive results (equivalent, identity holds, derivation found), 1 for
negative ones, and 2 for any failure, while computing the answer or while
writing it: usage or parse errors, a derivation that fails its own check, an
input too large or too deep (a RecursionError or a MemoryError), or a stdout
that cannot be written, such as a full disk.  A failure writes one ``error:
...`` line on stderr.  A reader closing stdout early changes no code.

A call loads only what it runs: identities (and with it dataclasses) only for
check-identity, nf, oracle and derive, json only for JSON output, and the
parser is built once per process.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import monoids, words
from .monoids import MonoidFamily
from .words import Word, _parse_word


def _family(value: str) -> MonoidFamily:
    try:
        return MonoidFamily.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _object(args):
    obj = monoids.canonical(args.monoid, Word.letters(args.word))

    def text():
        yield f"family: {args.monoid}"
        if hasattr(obj, "reading_word"):
            yield f"reading word: {Word.letters(obj.reading_word()).text()}"
        yield f"object: {obj!r}"

    payload = getattr(obj, "to_json_dict", None) or (
        lambda: {("exponent" if isinstance(obj, int) else "element"): obj})
    return 0, {"text": text, "json": payload}


def _render(args):
    obj = monoids.canonical(args.monoid, Word.letters(args.word))

    def dot():
        if not hasattr(obj, "to_dot"):
            raise ValueError(f"no dot rendering for {args.monoid}")
        return [obj.to_dot()]

    return 0, {"text": lambda: [obj.render() if hasattr(obj, "render") else repr(obj)],
               "dot": dot}


def _equiv(args):
    same = monoids.equivalent(args.monoid, Word.letters(args.lhs), Word.letters(args.rhs))
    return 0 if same else 1, {"json": lambda: {"equivalent": same},
                              "text": lambda: ["equivalent" if same else "not equivalent"]}


def _stats(args):
    w = Word.letters(args.word)
    ev = words.ev(w)
    payload = {"con": sorted(ev), "ev": {str(a): ev[a] for a in sorted(ev)},
               "ip": words.ip(w).text(), "fp": words.fp(w).text(), "mix": words.mix(w).text()}
    return 0, {"json": lambda: payload, "text": lambda: (
        f"{name + ':':5}{payload[name]}" for name in ("con", "ev", "ip", "fp", "mix"))}


def _check_identity(args):
    from . import identities

    ident = identities.Identity.parse(args.id)
    holds = identities.satisfies(args.monoid, ident)
    return 0 if holds else 1, {"json": lambda: {"identity": ident.text(), "holds": holds},
                               "text": lambda: ["holds" if holds else "does not hold"]}


def _nf(args):
    from . import identities

    w = _parse_word(args.word)
    out = identities.normal_form(args.monoid, w)
    return 0, {"json": lambda: {"word": w.text(), "normal_form": out.text()},
               "text": lambda: [out.text()]}


def _oracle(args):
    from . import identities

    ident = identities.Identity.parse(args.id)
    mode = (identities.Exhaustive(max_len=args.max_len) if args.trials is None else
            identities.RandomSearch(trials=args.trials, max_len=args.max_len, seed=args.seed))
    verdict = identities.oracle(args.monoid, args.rank, ident, mode)
    holds = isinstance(verdict, identities.HoldsWithinBound)

    def text():
        if holds:
            return [f"holds within bound ({verdict.checked} substitutions)"]
        return ["counterexample: " + ", ".join(
            f"{name} -> {w.text()!r}" for name, w in sorted(verdict.substitution.items()))]

    return 0 if holds else 1, {"json": lambda: identities.verdict_to_json(verdict), "text": text}


def _describe_step(step) -> str:
    images = ", ".join(f"{name}->{img.text()!r}" for name, img in sorted(step.endo.items()))
    return (f"{step.before.text()}  =>  {step.after.text()}"
            f"   [rule {step.rule_index} {step.direction}] {images}")


def _derive(args):
    from . import identities

    if args.sigma:
        try:
            sigma = identities.load_identity_system(args.sigma)
        except OSError as exc:  # a missing file is an error, not "no derivation"
            raise ValueError(f"cannot read {args.sigma}: {exc.strerror or exc}") from None
        if not (args.lhs and args.rhs):
            raise ValueError("derive with --sigma requires --lhs and --rhs")
        steps = identities.derive_search(sigma, _parse_word(args.lhs), _parse_word(args.rhs),
                                         max_steps=args.max_steps, max_word_len=args.max_word_len)
        if steps is None:
            print("no derivation found within bounds", file=sys.stderr)
            return 1, None
    else:
        if not args.id:
            raise ValueError("derive requires --id or --sigma")
        ident = identities.Identity.parse(args.id)
        if not identities.satisfies(args.monoid, ident):
            print(f"{args.monoid} does not satisfy {ident.text()}", file=sys.stderr)
            return 1, None
        sigma = identities.basis(args.monoid)
        steps = identities.derivation_certificate(args.monoid, ident)
    if not identities.verify_derivation(sigma, steps):
        raise identities.DerivationError("derivation failed verification")
    return 0, {"json": lambda: identities.derivation_to_json(steps),
               "text": lambda: map(_describe_step, steps) if steps
               else ["(empty derivation: sides already identical)"]}


_TEXT_JSON = ("text", "json")
_MONOID = ("--monoid", dict(type=_family, required=True))
_WORD, _ID = ("--word", dict(required=True)), ("--id", dict(required=True))

# name: (subcommand, help, --format choices, further arguments as (flag, keywords))
SUBCOMMANDS = {
    "object": (_object, "canonical object of a letter word", _TEXT_JSON, (_MONOID, _WORD)),
    "render": (_render, "draw the canonical object", ("text", "dot"), (_MONOID, _WORD)),
    "equiv": (_equiv, "decide whether two letter words are equivalent", _TEXT_JSON,
              (_MONOID, ("--lhs", dict(required=True)), ("--rhs", dict(required=True)))),
    "stats": (_stats, "content, evaluation, and skeletons of a word", _TEXT_JSON, (_WORD,)),
    "check-identity": (_check_identity, "exact decision: does the monoid satisfy the identity",
                       _TEXT_JSON, (_MONOID, _ID)),
    "nf": (_nf, "normal form of a word", _TEXT_JSON, (_MONOID, _WORD)),
    "oracle": (_oracle, "brute force check by substitution", _TEXT_JSON,
               (_MONOID, _ID, ("--rank", dict(type=int, default=2)),
                ("--max-len", dict(type=int, default=2)), ("--trials", dict(type=int)),
                ("--seed", dict(type=int, default=0)))),
    "derive": (_derive, "derivation certificate or bounded search", _TEXT_JSON,
               (("--monoid", dict(type=_family, default=MonoidFamily.SYLV)), ("--id", {}),
                ("--sigma", dict(help="file with one identity per line")), ("--lhs", {}),
                ("--rhs", {}), ("--max-steps", dict(type=int, default=8)),
                ("--max-word-len", dict(type=int, default=16)))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args gives each call a fresh namespace."""
    parser = argparse.ArgumentParser(prog="plactic-lab", description="Insertion algorithms, "
        "identity checking, and derivations for the stalactic, taiga, sylvester, "
        "#-sylvester, and Baxter monoids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, formats, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=formats, default="text")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = None  # the answer's exit code, once it is known
    try:
        code, forms = args.func(args)
        if forms is not None:
            lines = forms[args.format]()
            if args.format == "json":
                import json  # only JSON output needs it
                lines = [json.dumps(lines, sort_keys=True)]
            for line in lines:
                print(line)
            print(end="", flush=True)  # a write fails here, not at exit; no-op without stdout
        return code
    except Exception as exc:
        if code is not None and isinstance(exc, OSError):
            # writing stdout failed: send what is left to devnull, as the Python
            # docs' note on SIGPIPE advises, lest the exit flush fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):  # the reader left: the answer stands
                return code
        # a resource limit is an error, and must not read as a negative answer
        limit = isinstance(exc, (RecursionError, MemoryError))
        try:
            print(f"error: input too large or too deep ({type(exc).__name__})" if limit
                  else f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr cannot be written either: the exit code still says it
            pass
        return 2


if __name__ == "__main__":
    sys.exit(main())
