"""Benchmark of plactic-lab: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Workloads: bulk-short, deep-words, identities, cli (see
bench/README.md for why each exists and which layer moves which metric).

With ``--trace 0`` the workload runs in a closed loop with one caller for S
seconds (whole rounds only) and the last line of stdout is a JSON object with
the end-to-end metrics.  With ``--trace 1`` a fixed amount of work, set by the
seed alone, runs once without and once with spans; the last line carries the
per-layer metrics and the tracing overhead.  The line before the last one is
a JSON record of the inputs, the metrics under their descriptive names with
sample counts, and every failure by name.  The exit code is 0 when the run
finished, whether or not operations failed; 2 when it could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from harness import (
    REF_NOMINAL_S,
    Acc,
    NullTracer,
    Tally,
    Tracer,
    layer_totals,
    median,
    now,
    p90,
    peak_rss_mb,
    reference_seconds,
    traced_insertion,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

WORKLOADS = ("bulk-short", "deep-words", "identities", "cli")
SETUP_REPEATS = 7
SETUP_CODE = "import plactic_lab as p; p.canonical(p.MonoidFamily.BAXT, (2, 1, 3))"

INSERTION_LAYERS = ("tableaux.p_stal", "tableaux.p_taig", "bst.p_sylv", "bst.p_sylv_sharp",
                    "bst.p_baxt")
# span layer -> the fields reported for it
LAYER_FIELDS = {
    **{name: ("calls", "busy_s", "self_s", "us_per_letter") for name in INSERTION_LAYERS},
    **{name: ("calls", "busy_s", "self_s", "failed")
       for name in ("tableaux.render", "tableaux.json_roundtrip", "bst.render",
                    "bst.json_roundtrip", "monoids.canonical", "monoids.equivalent")},
    "monoids.class_set": ("calls", "busy_s"),
    "identities.satisfies": ("calls", "busy_s", "self_s"),
    "identities.normal_form": ("calls", "busy_s", "self_s"),
    "identities.verify_derivation": ("calls", "busy_s", "self_s"),
    "identities.derivation_certificate": ("calls", "busy_s", "self_s", "steps"),
    "identities.derive_search": ("calls", "busy_s", "self_s", "found"),
    "identities.oracle": ("calls", "busy_s", "self_s", "subs_checked", "counterexamples"),
    "words.parse": ("calls", "busy_s", "self_s"),
    "words.skeleton": ("calls", "busy_s", "self_s"),
}
CLI_SUBCOMMANDS = ("object", "render", "equiv", "stats", "check-identity", "nf", "oracle",
                   "derive")
FIELD_UNIT = {"calls": ("count", "higher"), "busy_s": ("s", "lower"),
              "self_s": ("s", "lower"), "us_per_letter": ("us", "lower"),
              "failed": ("count", "lower"), "steps": ("count", "lower"),
              "found": ("count", "higher"), "subs_checked": ("count", "higher"),
              "counterexamples": ("count", "higher")}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio",
             "primary_per_s": "1/s", "secondary_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms"}


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for layer, fields in LAYER_FIELDS.items():
        specs += [(f"{layer}.{f}",) + FIELD_UNIT[f] for f in fields]
    specs += [(f"cli.{sub}.main_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    specs.append(("cli.startup_ms", "ms", "lower"))
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PLACTIC_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workload(name: str, seed: int, tiny: bool = False):
    from workload_bulk import BulkShort
    from workload_cli import CliCalls
    from workload_deep import DeepWords
    from workload_identities import Identities

    if name == "bulk-short":
        return BulkShort(seed, tiny)
    if name == "deep-words":
        return DeepWords(seed, tiny)
    if name == "identities":
        return Identities(seed, tiny)
    if name == "cli":
        return CliCalls(seed, child_env(), str(ROOT), tiny)
    raise ValueError(f"unknown workload {name!r}")


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple:
    """Wall time of fresh interpreters that import the package and make one
    call, raw and scaled to the reference speed.  One extra start first
    writes the bytecode caches."""
    raw, scaled = [], []
    before = reference_seconds()
    for i in range(repeats + 1):
        t0 = now()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                       check=True, capture_output=True, timeout=120)
        elapsed = now() - t0
        after = reference_seconds()
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REF_NOMINAL_S / ((before + after) / 2))
        before = after
    return raw, scaled


def measure_memory(wl, name, seed, tiny=False) -> float:
    """Peak RSS of the program on this workload, in MB.

    It is read from fresh processes started before the timed loop, because a
    child's RSS starts out as large as its parent's: one round of the
    workload in a new interpreter, or for ``cli`` each call of the rotation.
    """
    if name == "cli":
        for _label, argv, _ref in wl.calls:
            wl.spawn(argv)
    else:
        code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; import run; "
                f"run.one_round({name!r}, {seed}, {tiny})")
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=600)
    return peak_rss_mb()


def one_round(name, seed, tiny=False) -> None:
    make_workload(name, seed, tiny).round(NullTracer(), Tally(), Acc())


def run_timed(wl, seconds):
    tally, acc, tr = Tally(), Acc(), NullTracer()
    deadline = now() + seconds
    rounds = 0
    while True:
        wl.round(tr, tally, acc)
        rounds += 1
        if now() >= deadline:
            break
    acc.flush()
    return tally, acc, rounds


def run_traced(name, seed, tiny=False):
    """The same fixed work twice: without spans, then with them."""
    plain = make_workload(name, seed, tiny)
    plain_acc, tally = Acc(), Tally()
    for _ in range(plain.trace_rounds):
        plain.round(NullTracer(), tally, plain_acc)
    plain_acc.flush()
    wl = make_workload(name, seed, tiny)
    acc, tracer = Acc(), Tracer()
    with traced_insertion(tracer):
        for _ in range(wl.trace_rounds):
            wl.round(tracer, tally, acc)
    acc.flush()
    return wl, tally, acc, plain_acc, tracer


def e2e_metrics(acc, tally, setup_times, peak_mb, scaled=True):
    lat = acc.latencies(scaled)
    values = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_mb,
        "ok_rate": 1.0 - tally.failed / max(1, tally.attempted),
        "primary_per_s": acc.rate("main", scaled),
        "secondary_per_s": acc.rate("side", scaled),
        "p50_ms": median(lat) * 1e3,
        "p90_ms": p90(lat) * 1e3,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(wl, acc, plain_acc, tracer) -> dict:
    totals = layer_totals(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0, "counts": {}}
    out = {}
    for layer, fields in LAYER_FIELDS.items():
        agg = totals.get(layer, empty)
        for field in fields:
            if field == "us_per_letter":
                letters = agg["counts"].get("letters", 0)
                value = agg["busy_s"] / letters * 1e6 if letters else 0.0
            else:
                value = agg[field] if field in agg else agg["counts"].get(field, 0)
            out[f"{layer}.{field}"] = {"value": value, "unit": FIELD_UNIT[field][0]}
    per_sub = getattr(wl, "per_sub", {})
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.main_ms"] = {"value": median(per_sub.get(sub, [])) * 1e3,
                                     "unit": "ms"}
    out["cli.startup_ms"] = {"value": median(getattr(wl, "startup", [])) * 1e3,
                             "unit": "ms"}
    plain, traced = plain_acc.busy(), acc.busy()
    out["trace.overhead_ratio"] = {"value": traced / plain - 1.0 if plain else 0.0,
                                   "unit": "ratio"}
    return out


def write_spans(name, seed, tracer) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (span, start, end, parent, req, failed, counts) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": span, "start": start, "end": end,
                                 "parent": parent, "request": req, "failed": failed,
                                 "counts": counts}) + "\n")
    return path


def run(name, seed, seconds, trace, tiny=False) -> tuple:
    """Run one workload; returns (record, result) as printed by main."""
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "python": sys.version.split()[0], "nproc": os.cpu_count(),
              "loop": "closed, one caller, PLACTIC_LAB_THREADS unset (serial oracle)"}
    if trace:
        wl, tally, acc, plain_acc, tracer = run_traced(name, seed, tiny)
        metrics = layer_metrics(wl, acc, plain_acc, tracer)
        record["rounds"] = wl.trace_rounds
        record["spans"] = len(tracer.spans)
        record["waiting"] = ("none: every layer runs in one thread of one process, so no "
                             "layer waits on another; wait time is not reported")
        if not tiny:
            record["spans_file"] = str(write_spans(name, seed, tracer).relative_to(ROOT))
    else:
        setup_raw, setup_scaled = measure_setup(2 if tiny else SETUP_REPEATS)
        wl = make_workload(name, seed, tiny)
        peak_mb = measure_memory(wl, name, seed, tiny)
        tally, acc, rounds = run_timed(wl, seconds)
        metrics = e2e_metrics(acc, tally, setup_scaled, peak_mb)
        record["unscaled"] = e2e_metrics(acc, tally, setup_raw, peak_mb, scaled=False)
        record["reference_s"] = {"nominal": REF_NOMINAL_S, "median": median(acc.refs),
                                 "min": min(acc.refs), "max": max(acc.refs)}
        record["rounds"] = rounds
        record["setup_samples_s"] = setup_raw
        record["named"] = {alias: {"value": metrics[key]["value"], "unit": unit}
                           for alias, (key, unit) in wl.NAMED.items()}
        record["named"]["error_rate"] = {"value": tally.failed / max(1, tally.attempted),
                                         "unit": "ratio"}
        record["samples"] = {kind: sum(len(v) for v in acc.samples[kind].values())
                             for kind in acc.samples}
    record["inputs"] = wl.inputs()
    record["failures"] = dict(sorted(tally.failures.items()))
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plactic_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a plactic-lab checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("PLACTIC_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
