"""Measure the baseline of the current code and write bench/baseline.json.

    python3 bench/baseline.py [--seeds 10] [--seconds 20]

Runs every workload once per seed (seeds 1..N) with tracing off, then once
with tracing on (seed 1).  Records per workload and end-to-end metric the
median, the quartiles and the spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), the per-layer numbers of
the traced run and the failures by name.  Takes about N x 4 x (S + 3) seconds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one(workload, seed, seconds, trace) -> tuple:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"python": sys.version.split()[0], "seeds": list(range(1, args.seeds + 1)),
           "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        values, failures, attempted, failed = {}, {}, [], []
        for seed in out["seeds"]:
            record, result = one(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            failures = record["failures"]
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  flush=True)
        e2e = {name: summary(v) for name, v in values.items()}
        for name, s in e2e.items():
            s["bound"] = bounds[name]
        record, result = one(workload, 1, args.seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "attempted": attempted,
            "failed": failed,
            "known_failures_per_run": failures,
            "inputs": record["inputs"],
            "per_layer_seed1": {k: m["value"] for k, m in result["metrics"].items()},
        }
    (run.BENCH / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, data in out["workloads"].items():
        for name, s in data["end_to_end"].items():
            steady = name == "setup_s" or s["spread"] <= s["bound"] / 3
            flag = "" if steady else "  > bound/3"
            print(f"{workload:11s} {name:16s} median {s['median']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
