import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import plactic_lab
from plactic_lab import Identity, MonoidFamily, Word, canonical, equivalent, identities
from plactic_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_object_text(capsys):
    code, out, _ = run(capsys, "object", "--monoid", "stal", "--word", "3613151265")
    assert code == 0
    assert "family: stal" in out
    # insertion memoizes the building word, which is itself a reading word
    assert "reading word: 3613151265" in out


def test_object_json(capsys):
    code, out, _ = run(capsys, "object", "--monoid", "stal", "--word", "3613151265",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["columns"][0] == {"letter": 3, "mult": 2}


def test_object_free_monogenic(capsys):
    code, out, _ = run(capsys, "object", "--monoid", "free1", "--word", "111",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"exponent": 3}


def test_render_text_and_dot(capsys):
    code, out, _ = run(capsys, "render", "--monoid", "taig", "--word", "3613151265")
    assert code == 0
    assert "5^2" in out
    code, out, _ = run(capsys, "render", "--monoid", "sylv", "--word", "212",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "render", "--monoid", "baxt", "--word", "212",
                       "--format", "dot")
    assert code == 0
    assert out.count("digraph") == 2
    code, _, err = run(capsys, "render", "--monoid", "stal", "--word", "21",
                       "--format", "dot")
    assert code == 2
    assert "no dot rendering" in err
    code, out, _ = run(capsys, "render", "--monoid", "baxt", "--word", "3121")
    assert code == 0
    assert out == (
        "left-strict component:\n"
        "3\n"
        "  L: 1\n"
        "    R: 2\n"
        "      L: 1\n"
        "right-strict component:\n"
        "1\n"
        "  L: 1\n"
        "  R: 2\n"
        "    R: 3\n"
    )


def test_equiv_exit_codes(capsys):
    code, out, _ = run(capsys, "equiv", "--monoid", "sylv", "--lhs", "212",
                       "--rhs", "212")
    assert code == 0 and "equivalent" in out
    code, out, _ = run(capsys, "equiv", "--monoid", "sylv", "--lhs", "212",
                       "--rhs", "122")
    assert code == 1 and "not equivalent" in out


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "--word", "3613151265", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ip"] == "36152"
    assert data["fp"] == "31265"
    assert data["mix"] == "361351265"
    assert data["ev"]["1"] == 3


def test_check_identity(capsys):
    code, out, _ = run(capsys, "check-identity", "--monoid", "sylv", "--id",
                       "xyxy = yxxy")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "check-identity", "--monoid", "baxt", "--id",
                       "xyxy = yxxy")
    assert code == 1 and "does not hold" in out


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "--monoid", "sylv", "--word", "yxsxty")
    assert code == 0
    assert out.strip() == "xysxty"
    code, out, _ = run(capsys, "nf", "--monoid", "sylv", "--word", "212212")
    assert code == 0
    assert out.strip() == "222112"


def test_nf_answers_in_the_reference_families(capsys):
    # ip in l21, fp in r21, the sorted word in free1
    for family, expected in (("l21", "yxz"), ("r21", "zxy"), ("free1", "xxyyz")):
        code, out, _ = run(capsys, "nf", "--monoid", family, "--word", "yxzxy")
        assert code == 0 and out == f"{expected}\n"
        code, out, _ = run(capsys, "nf", "--monoid", family, "--word", "yxzxy", "--format", "json")
        assert code == 0 and json.loads(out) == {"word": "yxzxy", "normal_form": expected}
    # their bases and rewritings remain open: l21 satisfies xyx = xy, but derive refuses it
    code, out, err = run(capsys, "derive", "--monoid", "l21", "--id", "xyx = xy")
    assert code == 2 and not out and err == "error: no basis registered for l21\n"


def test_oracle_holds_and_counterexample(capsys):
    code, out, _ = run(capsys, "oracle", "--monoid", "stal", "--id", "xyx = yxx",
                       "--rank", "2", "--max-len", "2")
    assert code == 0 and "holds within bound (49" in out
    code, out, _ = run(capsys, "oracle", "--monoid", "sylv", "--id", "xyx = yxx",
                       "--rank", "2", "--max-len", "1", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"verdict": "counterexample", "sub": {"x": "2", "y": "1"}}


def test_oracle_random_mode(capsys):
    code, out, _ = run(capsys, "oracle", "--monoid", "sylv", "--id", "x = x",
                       "--trials", "5", "--seed", "3")
    assert code == 0 and "holds within bound (5" in out


@pytest.mark.parametrize("bound", [["--max-len", "-1"], ["--trials", "-1"],
                                   ["--trials", "3", "--max-len", "-2"]])
def test_oracle_negative_bounds_exit_two(capsys, bound):
    code, out, err = run(capsys, "oracle", "--monoid", "sylv", "--id", "xy = yx", *bound)
    assert code == 2 and not out and err.startswith("error: ")


def test_oracle_rank_violation(capsys):
    code, _, err = run(capsys, "oracle", "--monoid", "free1", "--id", "xy = yx",
                       "--rank", "2")
    assert code == 2 and "error" in err


def test_derive_certificate(capsys):
    code, out, _ = run(capsys, "derive", "--monoid", "sylv", "--id", "xyxy = yxxy")
    assert code == 0
    assert "=>" in out and "rule 0" in out
    code, out, _ = run(capsys, "derive", "--monoid", "sylv", "--id", "xyxy = yxxy",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["start"], payload["end"]) == ("xyxy", "yxxy") and len(payload["apps"]) == 1


def test_derive_failed_verification_exits_two(capsys, monkeypatch):
    # a certificate that does not verify is an internal error, never a "no"
    monkeypatch.setattr(identities, "verify_derivation", lambda *args, **kwargs: False)
    code, out, err = run(capsys, "derive", "--monoid", "sylv", "--id", "xysxty = yxsxty")
    assert code == 2
    assert out == ""
    assert err == "error: derivation failed verification\n"


def test_derive_unsatisfied_identity(capsys):
    code, _, err = run(capsys, "derive", "--monoid", "sylv", "--id", "xy = yx")
    assert code == 1
    assert "does not satisfy" in err


def test_derive_trivial_identity(capsys):
    code, out, _ = run(capsys, "derive", "--monoid", "sylv", "--id", "x = x")
    assert code == 0
    assert "empty derivation" in out


def test_derive_search_with_sigma_file(tmp_path, capsys):
    sigma = tmp_path / "rules.txt"
    sigma.write_text("xyx = yxx\n")
    code, out, _ = run(capsys, "derive", "--sigma", str(sigma), "--lhs", "xyxx",
                       "--rhs", "yxxx")
    assert code == 0
    assert "=>" in out
    code, _, err = run(capsys, "derive", "--sigma", str(sigma), "--lhs", "xy",
                       "--rhs", "yx", "--max-steps", "3")
    assert code == 1
    assert "no derivation" in err
    code, _, err = run(capsys, "derive", "--sigma", str(sigma))
    assert code == 2
    # a negative bound is a usage error, not a failed search
    for flag in ("--max-steps", "--max-word-len"):
        code, _, err = run(capsys, "derive", "--sigma", str(sigma), "--lhs", "xyx",
                           "--rhs", "yxx", flag, "-1")
        assert code == 2 and err.startswith("error: ")


def test_derive_json_is_one_line_of_the_library_payload(tmp_path, capsys):
    # the Derivation as it is held, which derivation_from_json reads back
    sigma = tmp_path / "rules.txt"
    sigma.write_text("xyx = yxx\nxx = x\n")
    rules = identities.load_identity_system(sigma)
    for lhs, rhs in (("xyxyx", "yyxxx"), ("aaab", "ab"), ("xyx", "xyx")):
        code, out, _ = run(capsys, "derive", "--sigma", str(sigma), "--lhs", lhs, "--rhs", rhs,
                           "--format", "json")
        d = identities.derive_search(rules, Word.variables(lhs), Word.variables(rhs))
        assert code == 0 and out == json.dumps(identities.derivation_to_json(d),
                                               sort_keys=True) + "\n"
        restored = identities.derivation_from_json(json.loads(out))
        assert restored == d and identities.verify_derivation(rules, restored)
    assert json.loads(out) == {"rules": [["xyx", "yxx"], ["xx", "x"]], "start": "xyx",
                               "end": "xyx", "apps": []}
    code, out, _ = run(capsys, "derive", "--monoid", "sylv", "--id", "xyzxyzxyz = xxyyzzxyz",
                       "--format", "json")
    cert = identities.derivation_certificate(F.SYLV, Identity.parse("xyzxyzxyz = xxyyzzxyz"))
    assert len(cert) > 1 and code == 0
    assert out == json.dumps(identities.derivation_to_json(cert), sort_keys=True) + "\n"


def test_unreadable_sigma_file_exits_two(tmp_path, capsys):
    # exit 1 would read as "no derivation found"
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "derive", "--sigma", str(path), "--lhs", "x",
                             "--rhs", "x")
        assert code == 2 and not out
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv", "--monoid", "nope", "--lhs", "1", "--rhs", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    # every error the subcommands report is one line that says so
    for argv in (["equiv", "--monoid", "sylv", "--lhs", "x1", "--rhs", "11"],
                 ["render", "--monoid", "stal", "--word", "21", "--format", "dot"],
                 ["derive"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1
    # --format offers only the values the subcommand uses
    for argv in (["render", "--monoid", "sylv", "--word", "12", "--format", "json"],
                 ["equiv", "--monoid", "sylv", "--lhs", "1", "--rhs", "1", "--format", "dot"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["render", "--monoid", "sylv"],
                                  ["object", "--format", "json", "--monoid"]])
def test_deep_tree_output_exits_zero_without_traceback(argv):
    # a 3,000-level tree: render draws it, and its JSON is flat lists, which the
    # stdlib's json writes and reads back at any depth
    letters = range(1, 3001)
    word = " ".join(map(str, letters))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
    for family in ([None] if argv[0] == "render" else ["taig", "sylv", "sylvsharp", "baxt"]):
        proc = subprocess.run([sys.executable, "-m", "plactic_lab.cli", *argv,
                               *([family] if family else []), "--word", word],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and not proc.stderr
        if family is None:
            assert proc.stdout.count("\n") == 3000
            continue
        obj = canonical(MonoidFamily(family), tuple(letters))
        assert type(obj).from_json_dict(json.loads(proc.stdout)) == obj


@pytest.mark.parametrize("family", list(MonoidFamily), ids=str)
def test_json_of_the_empty_word_loads_back(capsys, family):
    # an empty tree is null, one JSON value like any other
    code, out, err = run(capsys, "object", "--monoid", str(family), "--word", "", "--format",
                         "json")
    assert (code, err) == (0, "") and out.count("\n") == 1
    obj = canonical(family, ())
    if hasattr(obj, "from_json_dict"):
        assert type(obj).from_json_dict(json.loads(out)) == obj
    else:
        assert json.loads(out) == ({"exponent": 0} if family is MonoidFamily.FREE_MONOGENIC else
                                   {"element": obj})


def test_json_of_10_to_the_5_letters_loads_back(capsys):
    rng = random.Random(5)
    for word in (tuple(range(1, 10**5 + 1)), tuple(rng.choice((1, 2)) for _ in range(10**5))):
        text = " ".join(map(str, word))
        for family in ("taig", "sylv", "sylvsharp", "baxt"):
            code, out, err = run(capsys, "object", "--monoid", family, "--word", text,
                                 "--format", "json")
            assert (code, err) == (0, "")
            obj = canonical(MonoidFamily(family), word)
            assert type(obj).from_json_dict(json.loads(out)) == obj


@pytest.mark.parametrize("limit", [RecursionError, MemoryError])
def test_resource_limits_exit_two_without_traceback(capsys, monkeypatch, limit):
    # an input too large or too deep is an error, never a negative answer
    from plactic_lab import monoids

    def canonical(*args):
        raise limit("too deep")

    monkeypatch.setattr(monoids, "canonical", canonical)
    code, out, err = run(capsys, "object", "--monoid", "sylv", "--word", "12", "--format", "json")
    assert (code, out, err) == (2, "", f"error: input too large or too deep ({limit.__name__})\n")


def test_closed_pipe_keeps_exit_code_without_traceback():
    # `plactic-lab render ... | head -1`: the reader leaves after one line of 3,000
    word = " ".join(str(i) for i in range(1, 3001))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "plactic_lab.cli", "render", "--monoid",
                             "sylv", "--word", word], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "3000\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == ""
    # a stdout closed before the start (`>&-`) is no error either
    proc = subprocess.run(["sh", "-c", '"$0" -m plactic_lab.cli stats --word 12 >&-',
                           sys.executable], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("ident", ["xyxy = yxxy", "xy = yx"], ids=["holds", "fails"])
def test_unwritable_stdout_exits_two(buffering, ident):
    # a full disk is an error for either answer: exit 1 would read as "does not hold"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *buffering, "-m", "plactic_lab.cli",
                               "check-identity", "--monoid", "sylv", "--id", ident],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("argv", [["object", "--monoid", "sylv", "--word", "120"],
                                  ["derive", "--monoid", "sylv", "--id", "xy = yx"]],
                         ids=["bad-word", "unsatisfied"])
def test_unwritable_stderr_exits_two(argv):
    # the error line cannot be written, yet exit 1 would read as a negative answer
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "plactic_lab.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=full, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")


def test_failure_mid_output_exits_two(capsys, monkeypatch):
    # the text of derive is written step by step; a failure after the first line
    # is still one error line and exit 2
    from plactic_lab import cli

    def describe(step):
        if described:
            raise RuntimeError("cannot describe the second step")
        described.append(step)
        return "first step"

    described = []
    monkeypatch.setattr(cli, "_describe_step", describe)
    code, out, err = run(capsys, "derive", "--monoid", "sylv", "--id", "xyzxyzxyz = xxyyzzxyz")
    assert (code, out, err) == (2, "first step\n", "error: cannot describe the second step\n")


F = MonoidFamily
_JSON_CASES = [
    (["object", "--monoid", "baxt", "--word", "3613151265"],
     lambda: canonical(F.BAXT, Word.letters("3613151265")).to_json_dict()),
    (["equiv", "--monoid", "sylv", "--lhs", "212", "--rhs", "122"],
     lambda: {"equivalent": equivalent(F.SYLV, Word.letters("212"), Word.letters("122"))}),
    (["stats", "--word", "3613151265"],
     lambda: {"con": [1, 2, 3, 5, 6], "ev": {"1": 3, "2": 1, "3": 2, "5": 2, "6": 2},
              "ip": "36152", "fp": "31265", "mix": "361351265"}),
    (["check-identity", "--monoid", "baxt", "--id", "xyxy = yxxy"],
     lambda: {"identity": "xyxy = yxxy",
              "holds": identities.satisfies(F.BAXT, Identity.parse("xyxy = yxxy"))}),
    (["nf", "--monoid", "sylv", "--word", "yxsxty"],
     lambda: {"word": "yxsxty",
              "normal_form": identities.normal_form(F.SYLV, Word.variables("yxsxty")).text()}),
    (["oracle", "--monoid", "sylv", "--id", "xyx = yxx", "--max-len", "1"],
     lambda: identities.verdict_to_json(identities.oracle(
         F.SYLV, 2, Identity.parse("xyx = yxx"), identities.Exhaustive(max_len=1)))),
    (["derive", "--monoid", "sylv", "--id", "xyxy = yxxy"],
     lambda: identities.derivation_to_json(
         identities.derivation_certificate(F.SYLV, Identity.parse("xyxy = yxxy")))),
]


@pytest.mark.parametrize("argv, expected", _JSON_CASES, ids=[a[0] for a, _ in _JSON_CASES])
def test_json_is_one_sorted_line_of_the_library_value(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code in (0, 1)
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == expected()
    assert out == json.dumps(expected(), sort_keys=True) + "\n"


def _fresh_process(argv, env):
    return subprocess.run([sys.executable, "-m", "plactic_lab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cached_parser_leaks_no_state_between_calls(capsys, monkeypatch):
    from plactic_lab import cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
    # the text call comes after a json call and a usage error of the same subcommand
    calls = [["object", "--monoid", "baxt", "--word", "3121", "--format", "json"],
             ["object", "--monoid", "nope", "--word", "3121"],
             ["object", "--monoid", "baxt", "--word", "3121"],
             ["equiv", "--help"],
             ["equiv", "--monoid", "sylv", "--lhs", "12", "--rhs", "21"]]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = _fresh_process(argv, env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert [_fresh_process(argv, env).returncode for argv in calls] == [0, 2, 0, 0, 1]


_NO_OUTPUT = object()  # derive's exit 1: the reason goes to stderr


def _library_answer(command, name, text, form, extra):
    """The exit code and the JSON value (text: any value) that the library gives
    for a sweep case; it raises where the CLI must exit 2."""
    if command == "stats":
        w = Word.letters(text)
        ev = plactic_lab.ev(w)
        return 0, {"con": sorted(ev), "ev": {str(a): ev[a] for a in sorted(ev)},
                   "ip": plactic_lab.ip(w).text(), "fp": plactic_lab.fp(w).text(),
                   "mix": plactic_lab.mix(w).text()}
    family = MonoidFamily.parse(name)
    if command in ("object", "render"):
        obj = canonical(family, Word.letters(text))
        if command == "render":
            return 0, obj.to_dot() if form == "dot" else obj
        if hasattr(obj, "to_json_dict"):
            return 0, obj.to_json_dict()
        return 0, {("exponent" if isinstance(obj, int) else "element"): obj}
    if command == "equiv":
        same = equivalent(family, Word.letters(text), Word.letters("1"))
        return 1 - same, {"equivalent": same}
    if command == "nf":
        w = plactic_lab.words._parse_word(text)
        return 0, {"word": w.text(), "normal_form": identities.normal_form(family, w).text()}
    ident = Identity.parse(text)
    if command == "check-identity":
        holds = identities.satisfies(family, ident)
        return 1 - holds, {"identity": ident.text(), "holds": holds}
    if command == "derive":
        if not identities.satisfies(family, ident):
            return 1, _NO_OUTPUT
        return 0, identities.derivation_to_json(identities.derivation_certificate(family, ident))
    options = {"--rank": 2, "--max-len": 2, "--trials": None}
    options.update((flag, int(value)) for flag, value in zip(extra[::2], extra[1::2]))
    mode = (identities.Exhaustive(options["--max-len"]) if options["--trials"] is None else
            identities.RandomSearch(options["--trials"], options["--max-len"], seed=0))
    verdict = identities.oracle(family, options["--rank"], ident, mode)
    return (int(isinstance(verdict, identities.CounterExample)),
            identities.verdict_to_json(verdict))


# the flag that takes the boundary text, and the further arguments to try with it
_SWEEP = {"object": ("--word", [[]]), "render": ("--word", [[]]),
          "equiv": ("--lhs", [["--rhs", "1"]]), "stats": ("--word", [[]]),
          "check-identity": ("--id", [[]]), "nf": ("--word", [[]]),
          "oracle": ("--id", [[], ["--rank", "0"], ["--rank", "256"], ["--max-len", "-1"],
                              ["--trials", "-1"]]),
          "derive": ("--id", [[]])}
_BOUNDARY_TEXTS = ["", "1", "0", "a1", "foo bar", " = ", "x = y = z", "12345678901234567890 "]


def test_every_subcommand_keeps_the_exit_code_contract_on_boundary_inputs(capsys):
    # exit 0 or 1 only with the library's answer and parseable JSON, and exit 2
    # only where the library raises, with an empty stdout and a last stderr line
    # that says error
    from plactic_lab.cli import SUBCOMMANDS

    assert set(_SWEEP) == set(SUBCOMMANDS)
    codes = set()
    for command, (flag, extras) in _SWEEP.items():
        names = [None] if command == "stats" else [*map(str, MonoidFamily), "nope"]
        for name, form, text, extra in itertools.product(names, SUBCOMMANDS[command][2],
                                                         _BOUNDARY_TEXTS, extras):
            argv = [command, "--format", form, flag, text, *extra,
                    *(["--monoid", name] if name else [])]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
            out, err = capsys.readouterr()
            codes.add(code)
            try:
                expected = _library_answer(command, name, text, form, extra)
            except (ValueError, TypeError, AttributeError):
                expected = None
            if code == 2:
                assert expected is None and not out, argv
                last = err.splitlines()[-1]
                assert last.startswith(("error: ", f"plactic-lab {command}: error: ")), argv
                continue
            assert expected is not None and code == expected[0], argv
            if expected[1] is _NO_OUTPUT:
                assert not out, argv
            else:
                assert out and (form != "json" or json.loads(out) == expected[1]), argv
    assert codes == {0, 1, 2}
