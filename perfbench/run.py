#!/usr/bin/env python3
"""Benchmark for kneser-chroma: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its ``src``.
Every workload process is a fresh interpreter with KNESER_CHROMA_THREADS=1,
and only one runs at a time.  Each runs one closed-loop client.  Times are
the workload process's CPU time (see worker.py); wall times are printed
beside them.

A workload has a fixed list of ops drawn from the seed, one pass.  --trace 0
runs passes, each in a fresh process followed by one more launch that stops
at the first op, until the next pass would end after S seconds (at least
MIN_PASSES passes).  Each op's time is its median over the passes; ops_per_s,
op_ms_p50 and op_ms_tail come from those times, and setup_s is the median
over every launch of the run.

Times are stated at a fixed machine speed: the speed at which worker.py's
reference loop takes REF_NOMINAL_S of CPU.  Each measured CPU time is scaled
by REF_NOMINAL_S over the reference time measured around it in the same
process.  On the shared 2-vCPU virtual machine the benchmark was built on,
the same op took up to 1.9 times longer for minutes at a time, and the
reference loop slowed with it: over 150 s, 13 s window medians of four op
kinds ranged 1.6-1.8x, and 1.05-1.08x once scaled.  A change to the package
moves the scaled times as it moves the raw ones; the raw CPU and wall times
are printed beside them.

--trace 1 runs the pass loop in one process for S/2 seconds untraced and
then S/2 traced, and reports the per-layer metrics of the traced loop (raw
CPU times) plus the tracing overhead (untraced minus traced ops/s, scaled).  Human-readable lines come first;
the last line of standard output is one JSON object.  A failed correctness
check makes the exit code 1; missing sources make it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# worker.reference()'s CPU time at the machine speed the metrics are stated at;
# about its time on an unloaded core of the machine named in BASELINE.json
REF_NOMINAL_S = 0.005
# the guide's tail: the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10
READY_TIMEOUT_S = 60.0
# a loop can overrun --seconds by one pass, which takes a few seconds
LOOP_GRACE_S = 60.0

WORKLOADS = ("random-chi-sg", "gen-graph-rt", "witness-grid", "bounds-sweep")


class WorkloadError(RuntimeError):
    pass


def launch(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    """Run one workload process.

    Returns set-up CPU seconds, the reference time after set-up, and the
    loop record (None with ``setup_only``).
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--out", str(ROOT / ".perfbench_out" / workload),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KNESER_CHROMA_THREADS="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        first = proc.stdout.readline().split() if ready else []
        rest, _ = proc.communicate(timeout=seconds + LOOP_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first[:1] != ["ready"] or proc.returncode != 0:
        raise WorkloadError(f"{workload} process exited {proc.returncode} ({first!r})")
    setup_s, ref_s = float(first[1]), float(first[2])
    if setup_only:
        return setup_s, ref_s, None
    return setup_s, ref_s, json.loads(rest.strip().splitlines()[-1])


def scaled(rec: dict) -> list[float]:
    """Each op run's CPU time at the nominal machine speed."""
    return [c * REF_NOMINAL_S / r for c, r in zip(rec["cpu"], rec["ref"])]


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    start = perf_counter()
    setups, recs = [], []
    while True:
        for setup_only in (False, True):
            setup_s, ref_s, rec = launch(workload, seed, 0, False, setup_only)
            setups.append(setup_s * REF_NOMINAL_S / ref_s)
            if rec is not None:
                recs.append(rec)
        elapsed = perf_counter() - start
        if len(recs) >= MIN_PASSES and elapsed * (len(recs) + 1) / len(recs) > seconds:
            break
    n = recs[0]["ops_per_pass"]
    if n <= TAIL_BEYOND + 1:
        raise WorkloadError(f"{workload}: {n} ops a pass leave no tail percentile")
    runs = [scaled(rec) for rec in recs]
    cpu = sorted(statistics.median(run[i] for run in runs) for i in range(n))
    raw = sorted(statistics.median(rec["cpu"][i] for rec in recs) for i in range(n))
    wall = sorted(statistics.median(rec["wall"][i] for rec in recs) for i in range(n))
    # linear interpolation puts exactly TAIL_BEYOND ranks above this percentile
    q = (n - 1 - TAIL_BEYOND) / (n - 1)
    tail = percentile(cpu, q)
    ops = sum(rec["ops"] for rec in recs)
    all_cpu = sum(sum(rec["cpu"]) for rec in recs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(cpu), "ops/s"),
        "op_ms_p50": (statistics.median(cpu) * 1000.0, "ms"),
        "op_ms_tail": (tail * 1000.0, "ms"),
        "peak_rss_mb": (max(rec["rss_mib"] for rec in recs), "MiB"),
    }
    ref = [r for rec in recs for r in rec["ref"]]
    notes = {
        "setup_s": f"median of {len(setups)} launches",
        "ops_per_s": f"{n} ops, each its median of {len(recs)} passes; raw CPU "
        f"{n / sum(raw):.4f}; all {ops} op runs {ops / all_cpu:.4f} raw",
        "op_ms_p50": f"n={n}; raw CPU {statistics.median(raw) * 1000.0:.4f} ms, "
        f"wall {statistics.median(wall) * 1000.0:.4f} ms",
        "op_ms_tail": f"p{100 * q:.4g}, n={n}, {sum(1 for x in cpu if x > tail)} ops "
        f"beyond; raw CPU {percentile(raw, q) * 1000.0:.4f} ms, "
        f"wall {percentile(wall, q) * 1000.0:.4f} ms",
        "peak_rss_mb": "largest ru_maxrss of the pass processes",
    }
    failed = sum(rec["failed"] for rec in recs)
    print(f"{workload} seed={seed}: one closed-loop client, {len(recs)} passes of {n} ops "
          f"in {perf_counter() - start:.1f} s; times at reference {REF_NOMINAL_S * 1e3:g} ms, "
          f"measured {min(ref) * 1e3:.3f}-{max(ref) * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit:<6} {notes[name]}")
    print(f"  {'fail_frac':<12} {failed / ops:12.4f} {'':<6} "
          f"{failed}/{ops} op runs failed a check or raised")
    if workload == "random-chi-sg":
        print(f"  {'timeouts':<12} {sum(rec['timeouts'] for rec in recs):12d} {'':<6} "
              "solver runs stopped at the node budget")
    return _result(ops, failed, [p for rec in recs for p in rec["problems"]], metrics)


def traced(workload: str, seed: int, seconds: float) -> dict:
    _, _, plain = launch(workload, seed, seconds / 2, False, False)
    _, _, rec = launch(workload, seed, seconds / 2, True, False)
    plain_rate = plain["ops"] / sum(scaled(plain))
    traced_rate = rec["ops"] / sum(scaled(rec))
    raw_op_s = sum(rec["cpu"]) / rec["ops"]
    metrics = {name: tuple(v) for name, v in rec["layers"].items()}
    metrics["cli.import_s"] = (rec["import_s"], "s")
    metrics["trace.ops"] = (rec["ops"], "count")
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "ops/s")
    # raw CPU, like the layer self times it is compared with
    metrics["trace.op_s"] = (raw_op_s, "s/op")
    print(f"{workload} seed={seed}: traced {rec['ops']} ops, untraced {plain['ops']} ops")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<28} {value:16.6g} {unit}")
    attributed = sum(v for n, (v, u) in metrics.items() if u == "s/op" and n not in (
        "trace.op_s", "trace.hook_s"))
    print(f"  layer self times sum to {attributed:.6g} s/op of {raw_op_s:.6g} s/op traced"
          f" (raw CPU); untraced op time is {sum(plain['cpu']) / plain['ops']:.6g} s/op")
    return _result(
        plain["ops"] + rec["ops"],
        plain["failed"] + rec["failed"],
        plain["problems"] + rec["problems"],
        metrics,
    )


def _result(attempted: int, failed: int, problems, metrics) -> dict:
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kneser_chroma" / "__init__.py").is_file():
        print(f"error: no kneser_chroma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            if args.trace:
                result = traced(name, args.seed, args.seconds)
            else:
                result = end_to_end(name, args.seed, args.seconds)
        except WorkloadError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
