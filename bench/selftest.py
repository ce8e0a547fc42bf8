"""Self-test of the benchmark harness: a tiny version of every workload.

    python3 bench/selftest.py

Checks that each workload runs in both modes, that its output has the
promised shape (the metric names and units of BENCHMARK.json), that the tiny
inputs produce no failures, that the depth routine matches the library's
trees, and that ``run.py`` refuses to run without the package source.
Exits 0 when all of that holds.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

from plactic_lab import MonoidFamily, canonical  # noqa: E402

from depth import insertion_depth  # noqa: E402


def _json_depth(node) -> int:
    best, stack = 0, [(node, 1)] if node else []
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        stack += [(c, d + 1) for c in (node["left"], node["right"]) if c is not None]
    return best


def check_depth() -> None:
    rng = random.Random(7)
    for _ in range(300):
        rank = rng.randint(1, 6)
        w = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 25)))
        for fam in (MonoidFamily.TAIG, MonoidFamily.SYLV, MonoidFamily.SYLV_SHARP):
            got = insertion_depth(str(fam), w)
            want = _json_depth(canonical(fam, w).to_json_dict())
            assert got == want, (fam, w, got, want)


def check_result(result, specs) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    units = {name: unit for name, unit in specs}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name], (name, m)
        assert isinstance(m["value"], (int, float)), (name, m)


def check_refuses_without_source() -> None:
    """In a directory with only the benchmark files, run.py must fail cleanly."""
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layers == [(n, u) for n, u, _ in run.per_layer_specs()], "per_layer drifted"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    check_depth()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            _record, result = run.run(name, seed=3, seconds=0.2, trace=trace, tiny=True)
            check_result(result, layers if trace else e2e)
            print(f"ok  {name} --trace {trace}: {result['attempted']} checked operations")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "identities",
                           "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    check_result(json.loads(proc.stdout.splitlines()[-1]), e2e)
    print("ok  run.py end to end")
    check_refuses_without_source()
    print("ok  run.py exits non-zero without src/")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
