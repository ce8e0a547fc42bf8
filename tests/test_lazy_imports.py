"""The package loads a submodule only when one of its names is used, and the
CLI loads the tree code (monoids, bst, tableaux) and identities only for the
subcommands that need them, dataclasses and inspect never, and json only to
write JSON.  Each check runs in a child interpreter, whose sys.modules starts
empty of the package; the checks of one CLI argv share one."""
import functools
import importlib
import json
import os
import subprocess
import sys

import pytest

import plactic_lab

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plactic_lab.__file__)))
HEAVY = ("plactic_lab.identities", "dataclasses")

# run the CLI as `python -m plactic_lab.cli` does, then report which of the
# watched modules it loaded, before the report itself loads json
_CLI_PROBE = """
import runpy, sys
try:
    runpy.run_module("plactic_lab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(set(%r) & set(sys.modules))
import json
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def _loaded_after_cli(*argv, watch):
    code, loaded = _cli_run(argv)
    return code, sorted(set(loaded) & set(watch))


@functools.cache
def _cli_run(argv):
    """One child interpreter per argv, watching every module a test here watches."""
    watch = (*HEAVY, *TREES, *IDS, "inspect", "json")
    proc = subprocess.run([sys.executable, "-c", _CLI_PROBE % (watch,), *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


def test_setup_call_loads_no_identities():
    code = ("import sys, plactic_lab as p; p.canonical(p.MonoidFamily.BAXT, (2, 1, 3)); "
            f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv, exit_code", [
    (["object", "--monoid", "stal", "--word", "121"], 0),
    (["render", "--monoid", "baxt", "--word", "3121", "--format", "dot"], 0),
    (["equiv", "--monoid", "sylv", "--lhs", "12", "--rhs", "21"], 1),
    (["stats", "--word", "3613151265", "--format", "json"], 0),
    (["object", "--monoid", "sylv", "--word", "120"], 2),
], ids=["object", "render", "equiv", "stats", "bad-word"])
def test_cli_without_identities_loads_neither(argv, exit_code):
    assert _loaded_after_cli(*argv, watch=HEAVY) == (exit_code, [])


TREES =("plactic_lab.bst", "plactic_lab.monoids", "plactic_lab.tableaux")
IDS = ("plactic_lab.identities",)


@pytest.mark.parametrize("argv, exit_code, loaded", [
    (["object", "--monoid", "stal", "--word", "121"], 0, TREES),
    (["render", "--monoid", "baxt", "--word", "3121", "--format", "dot"], 0, TREES),
    (["equiv", "--monoid", "sylv", "--lhs", "12", "--rhs", "21"], 1, TREES),
    (["stats", "--word", "3613151265", "--format", "json"], 0, ()),
    (["check-identity", "--monoid", "sylv", "--id", "xyxy = yxxy"], 0, IDS),
    (["nf", "--monoid", "baxt", "--word", "yxsxty", "--format", "json"], 0, IDS),
    (["derive", "--monoid", "sylv", "--id", "xysxty = yxsxty"], 0, IDS),
    (["oracle", "--monoid", "sylv", "--id", "xyx = yxx", "--max-len", "1"], 1, TREES + IDS),
    (["object", "--monoid", "sylv", "--word", "120"], 2, ()),
    (["equiv", "--monoid", "nope", "--lhs", "1", "--rhs", "1"], 2, ()),
], ids=["object", "render", "equiv", "stats", "check-identity", "nf", "derive", "oracle",
        "bad-word", "usage-error"])
def test_each_subcommand_loads_only_what_it_runs(argv, exit_code, loaded):
    # the identity subcommands name a family through words.py, and build no tree
    watch = (*TREES, *IDS, "dataclasses", "inspect")
    assert _loaded_after_cli(*argv, watch=watch) == (exit_code, sorted(loaded))


def test_only_json_output_loads_json():
    argv = ["object", "--monoid", "baxt", "--word", "3121"]
    assert _loaded_after_cli(*argv, watch=("json",)) == (0, [])
    assert _loaded_after_cli(*argv, "--format", "json", watch=("json",)) == (0, ["json"])


def test_all_is_the_table_of_names():
    table = [name for names in plactic_lab._SOURCES.values() for name in names]
    assert len(set(table)) == len(table)
    assert plactic_lab.__all__ == sorted(table)
    assert set(plactic_lab.__all__) <= set(dir(plactic_lab))


def test_each_name_is_its_submodules_attribute():
    for module, names in plactic_lab._SOURCES.items():
        source = importlib.import_module(f"plactic_lab.{module}")
        assert getattr(plactic_lab, module) is source
        for name in names:
            assert getattr(plactic_lab, name) is getattr(source, name), name


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from plactic_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(plactic_lab.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        plactic_lab.no_such_name
    with pytest.raises(ImportError):
        exec("from plactic_lab import no_such_name", {})


def test_submodules_resolve_after_a_bare_import():
    code = ("import sys, plactic_lab; assert 'plactic_lab.identities' not in sys.modules; "
            "print(plactic_lab.identities.satisfies.__module__, plactic_lab.words.Word.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "plactic_lab.identities plactic_lab.words\n"
