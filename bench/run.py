"""Fixed-work benchmark of liep: one workload per process, checked outputs.

    python3 bench/run.py --workload weyl-large-rank --seed 1 --seconds 5 --trace 0

Runs from the root of a source tree and imports the package from its
``src`` directory.  A run draws its op list from the seed, builds every
cache the ops use (timed as set-up), times each op, then checks every
output with ``check.py``.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Details of the run, raw timings included, and the spans of a traced run
are written under ``bench/results/``.

Times are reported at reference speed: the speed at which the frozen
copy of liep (``liep_frozen``, see ``frozen.py``) runs each op class in
the ms of its workload's round table.  The host's speed changes by up to
2.5x within tenths of a second, so raw times say little on their own.
Each op is therefore run by the frozen copy, in a child process, just
before liep runs it, and each op class's time at reference speed is its
table cost times liep's summed CPU time over the frozen copy's for the
ops of that class in the run.  A change to liep moves these times exactly
as it moves liep's own; a change in the host's speed cancels out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# Set-up happens once per process, so each sample is a fresh process that sets up the frozen
# copy and then liep; setup_s is the median ratio of the two times the frozen copy's set-up
# at reference speed.  One ratio alone ranges over +-15% on a busy host.
SETUP_SAMPLES = 5
MIN_OPS = 100  # so that at least 10 ops rank beyond the 90th percentile
DEADLINE_S = 150.0  # ops not started by then count as failed, and the run as not correct

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from frozen import Frozen  # noqa: E402
from workloads import WORKLOADS, draw_ops, fixed_order, round_seconds  # noqa: E402


def _import_liep() -> None:
    import liep

    if Path(liep.__file__).resolve().parent != ROOT / "src" / "liep":
        raise ImportError(f"liep imported from {liep.__file__}, not from this tree's src/")


def _setup_pair(workload) -> tuple[float, float]:
    """CPU seconds to import and set up the frozen copy, then liep, in this fresh process."""
    t0 = time.process_time()
    workload.setup("liep_frozen")
    t1 = time.process_time()
    _import_liep()
    workload.setup()
    return t1 - t0, time.process_time() - t1


def _setup_in_fresh_process(name: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def _class_ratios(latencies, frozen_s, classes) -> dict[int, float]:
    """Per op class: liep's summed CPU time over the frozen copy's, for the ops that ran."""
    liep, ref = {}, {}
    for i, raw in latencies:
        k = classes[i]
        liep[k] = liep.get(k, 0.0) + raw
        ref[k] = ref.get(k, 0.0) + frozen_s[i]
    return {k: liep[k] / ref[k] for k in liep}


def _report_bytes(stdout: str) -> int:
    """Bytes of one CLI report, without the digits of elapsed_us, which vary from run to run."""
    return len(stdout) - len(str(json.loads(stdout)["elapsed_us"]))


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    # one core for this process and every process it starts, so that liep and the frozen
    # copy run where the same neighbours slow them (unpinned, runs differ by up to 10%)
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    workload = WORKLOADS[name]
    spec = workload.round_spec
    per_round = sum(count for _, count, _ in spec)
    rounds = max(round(seconds / round_seconds(spec)), -(-MIN_OPS // per_round))
    setups = [] if trace else [_setup_in_fresh_process(name) for _ in range(SETUP_SAMPLES)]
    with Frozen(name, seed, rounds) as frozen:
        return _run(workload, seed, seconds, rounds, trace, setups, frozen)


def _run(workload, seed: int, seconds: int, rounds: int, trace: bool, setups, frozen: Frozen) -> dict:
    name, spec = workload.name, workload.round_spec
    tracer = None
    if trace:
        import spans

        _import_liep()
        import liep.cli  # noqa: F401  (every traced module must be loaded before patching)

        tracer = spans.Tracer()
        tracer.install()
    _import_liep()
    ctx = workload.setup()
    ops = draw_ops(workload, ctx, seed, rounds)

    gc.collect()
    outputs, frozen_s, latencies, failed = [], [], [], 0
    for i, op in enumerate(ops):
        if time.perf_counter() - START > DEADLINE_S:
            break
        frozen_s.append(frozen.run(i))
        t0 = time.process_time()
        try:
            out = workload.run(ctx, op)
        except Exception as exc:  # a failing op is counted, the run goes on
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            outputs.append(None)
            failed += 1
            continue
        latencies.append((i, time.process_time() - t0))
        outputs.append(out)

    correct = True
    skipped = len(ops) - len(outputs)
    if skipped:  # the fixed op list did not run to its end, so its times are not comparable
        print(f"run cut at {DEADLINE_S:.0f} s: {skipped} ops not started", file=sys.stderr)
        failed += skipped
        correct = False
    try:
        for op, out in zip(ops, outputs):
            if out is not None:
                workload.check(ctx, op, out)
    except Exception as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        correct = False

    classes = fixed_order(spec) * rounds
    ratios = _class_ratios(latencies, frozen_s, classes)
    scaled = [spec[classes[i]][2] / 1000 * ratios[classes[i]] for i, _ in latencies]
    # reference seconds per second of this host, which scales the span times
    speed = sum(spec[classes[i]][2] / 1000 for i in range(len(frozen_s))) / sum(frozen_s)
    if tracer is None:
        p50, p90 = _percentiles(scaled)
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * p50, "unit": "ms"},
            "op_p90_ms": {"value": 1000 * p90, "unit": "ms"},
            "setup_s": {"value": workload.frozen_setup_s * statistics.median(
                liep_s / ref_s for ref_s, liep_s in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        tracer.counters["cli.report_bytes"] = sum(
            _report_bytes(out[1]) for out in outputs if name == "cli-small" and out is not None)
        metrics = tracer.metrics(len(ops), speed)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "rounds": rounds,
        "python": sys.version.split()[0],
        "ops_raw_s": sum(raw for _, raw in latencies), "ops_frozen_s": sum(frozen_s),
        "ops_scaled_s": sum(scaled),
        "class_ratios": [ratios.get(k) for k in range(len(spec))],
        "setup_frozen_and_raw_s": setups,
        "latencies_raw_ms": [1000 * raw for _, raw in latencies],
        "latencies_frozen_ms": [1000 * x for x in frozen_s],
        "metrics": metrics,
    }, indent=1))
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5,
                    help="nominal run length; sets the number of rounds, never cuts a round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps(_setup_pair(WORKLOADS[args.workload])))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
