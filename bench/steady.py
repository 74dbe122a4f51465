"""Steadiness of the benchmark: repeated runs, medians, quartiles and spreads.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --workload cli-small --trace-check

Without ``--workload`` every workload in ``BENCHMARK.json`` is run in
turn, for ``run_seconds`` of ``BENCHMARK.json``.  The first form runs
``bench/run.py`` once per seed (1, 2, ..., ``--runs``) and prints, for
every end-to-end metric, the median and quartiles of the runs and their
spread: the distance between the quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  It also reports the share of failed ops.  It exits
with 1 unless every run checked its outputs, no op failed and every spread
is below a third of its bound.

The second form runs seed 1 once untraced and twice traced.  It prints the
tracing overhead (the traced op phase against the untraced one) and
checks that every count metric of the two traced runs is identical.
Summaries are written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run of the benchmark command; returns its result line and its details file."""
    cmd = [*_spec()["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(_spec()["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    details = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def spreads(workload: str, runs: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed_share, raw_ops_per_s = [], []
    for seed in range(1, runs + 1):
        result, details = run_once(workload, seed, 0)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs failed their checks")
        failed_share.append(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        raw_ops_per_s.append(result["attempted"] / details["ops_raw_s"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    summary = {"workload": workload, "runs": runs, "seconds": _spec()["run_seconds"],
               "failed_shares": sorted(set(failed_share)), "metrics": {},
               "unscaled_ops_per_s": _quartiles(raw_ops_per_s)}
    for name, xs in values.items():
        summary["metrics"][name] = {**_quartiles(xs), "bound": bounds[name]}
    return summary


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": xs}


def trace_check(workload: str) -> dict:
    _, plain = run_once(workload, 1, 0)
    first, traced = run_once(workload, 1, 1)
    second, _ = run_once(workload, 1, 1)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    return {
        "workload": workload, "seed": 1, "seconds": _spec()["run_seconds"],
        "untraced_ops_s": plain["ops_scaled_s"], "traced_ops_s": traced["ops_scaled_s"],
        "overhead": traced["ops_scaled_s"] / plain["ops_scaled_s"] - 1,
        "counts_repeat": counts == again,
        "count_differences": {k: (v, again.get(k)) for k, v in counts.items() if again.get(k) != v},
        "layers": first["metrics"],
    }


def _report_trace_check(workload: str) -> bool:
    out = trace_check(workload)
    print(f"{workload}: tracing overhead {100 * out['overhead']:.1f}% "
          f"({out['untraced_ops_s']:.2f} s untraced, {out['traced_ops_s']:.2f} s traced); "
          f"counts repeat exactly: {out['counts_repeat']}")
    for name, m in out["layers"].items():
        print(f"  {name:40s} {m['value']:>16.4f} {m['unit']}")
    (RESULTS / f"trace-check-{workload}.json").write_text(json.dumps(out, indent=1))
    return out["counts_repeat"]


def _report_spreads(workload: str, runs: int) -> bool:
    out = spreads(workload, runs)
    print(f"{workload}: {runs} runs, failed shares {out['failed_shares']}")
    ok = out["failed_shares"] == [0.0]
    for name, m in out["metrics"].items():
        steady = m["spread"] < m["bound"] / 3
        ok &= steady
        print(f"  {name:12s} median {m['median']:10.4f}  q1 {m['q1']:10.4f}  q3 {m['q3']:10.4f}  "
              f"spread {100 * m['spread']:5.2f}%  bound {100 * m['bound']:4.0f}%  "
              f"{'ok' if steady else 'NOT STEADY'}")
    raw = out["unscaled_ops_per_s"]
    print(f"  unscaled ops_per_s median {raw['median']:.4f}, spread {100 * raw['spread']:.2f}%")
    (RESULTS / f"steady-{workload}.json").write_text(json.dumps(out, indent=1))
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="repeatable; every workload in BENCHMARK.json when omitted")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args(argv)
    RESULTS.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload or [w["name"] for w in _spec()["workloads"]]:
        if args.trace_check:
            ok &= _report_trace_check(workload)
        else:
            ok &= _report_spreads(workload, args.runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
