"""One workload process: set up, say "ready", run the op loop, report.

Started by ``perfbench/run.py`` with ``PYTHONPATH`` set to the checkout's
``src``.  As soon as the workload can start its first op it prints ``ready``
and the CPU time the process has used since it started, which is the set-up
time: interpreter start, ``import kneser_chroma.cli`` and the workload's
one-off set-up.

Without ``--setup-only`` it then runs one closed-loop client: whole passes
over the workload's fixed op list until ``--seconds`` of wall time have
passed (one pass for ``--seconds 0``), each op's output checked after its
clocks stop.  The last line is a JSON record of the loop, with the times of
every op run in order, pass after pass.

Times are CPU times of this process (``time.process_time``), with wall
times recorded next to them.  The process is single-threaded and does no
waiting beyond small file writes, so on an idle machine the two agree; on a
shared virtual machine the wall clock also counts the time the virtual CPU
is not running, which changes from minute to minute.

On such a machine the CPU itself also runs the same code up to 1.9 times
slower for minutes at a time, as other tenants load the host.  So the
process also times ``reference()``, a fixed pure-Python loop, right after
set-up and then between ops at least every REF_EVERY_S seconds, outside the
ops' clocks.  Each op run is recorded with the mean of the two reference
times around it; run.py uses them to state op and set-up times at a fixed
machine speed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
REF_EVERY_S = 0.25


def reference() -> float:
    """CPU seconds of a fixed loop of the kinds of work the package does.

    Small-int arithmetic, big-int bit operations, dict stores and float
    math, about 5 ms at full speed; it calls nothing of kneser_chroma, so a
    change to the package leaves it alone.
    """
    t0 = process_time()
    acc = bits = 0
    table = {}
    x = 0.0
    for i in range(6000):
        h = (i * 2654435761) & 0xFFFFFFFF
        bits ^= 1 << (h & 511)
        acc += (bits >> (h & 255)) & 0xFF
        table[h & 1023] = i
        x += math.log(i + 1.0) - math.lgamma((i & 63) + 1.0)
    return process_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = process_time()
    import kneser_chroma.cli  # noqa: F401  (the import a CLI user pays for)

    import_s = process_time() - t0
    package = Path(sys.modules["kneser_chroma"].__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: imported kneser_chroma from {package}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NoTracer()
    workload = WORKLOADS[args.workload](args.seed, out, tracer)
    setup_s = process_time()
    print(f"ready {setup_s!r} {(reference() + reference()) / 2.0!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans.install(tracer)

    specs = workload.pass_ops()
    cpu: list[float] = []
    wall: list[float] = []
    # (op runs before it, reference time)
    marks = [(0, reference())]
    problems: list[str] = []
    failed = timeouts = passes = 0
    region = tracer.region
    start = marked_at = perf_counter()
    deadline = start + args.seconds
    while True:
        for spec in specs:
            if perf_counter() - marked_at >= REF_EVERY_S:
                marks.append((len(cpu), reference()))
                marked_at = perf_counter()
            w0, c0 = perf_counter(), process_time()
            try:
                with region(spans.OP):
                    result = workload.run_op(spec)
                raised = None
            except Exception:  # a failing op is counted; the loop goes on
                raised = traceback.format_exc(limit=4)
            cpu.append(process_time() - c0)
            wall.append(perf_counter() - w0)
            if raised:
                failed += 1
                problems.append(f"{spec!r}: {raised}")
                continue
            found = workload.check(spec, result)
            timeouts += workload.timeouts(result)
            if found:
                failed += 1
                problems.extend(found)
        passes += 1
        marks.append((len(cpu), reference()))
        marked_at = perf_counter()
        if perf_counter() >= deadline:
            break
    wall_s = perf_counter() - start
    ref = []
    for (i0, before), (i1, after) in zip(marks, marks[1:]):
        ref += [(before + after) / 2.0] * (i1 - i0)

    record = {
        "ops": len(cpu),
        "ops_per_pass": len(specs),
        "passes": passes,
        "failed": failed,
        "timeouts": timeouts,
        "problems": problems[:20],
        "cpu": cpu,
        "wall": wall,
        "ref": ref,
        "loop_wall_s": wall_s,
        "import_s": import_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        seen = {span.name for span in tracer.spans}
        missing = [name for name in workload.required_spans if name not in seen]
        if missing:
            print(f"error: traced ops never called {missing}", file=sys.stderr)
            return 3
        face_problems = spans.face_count_problems(tracer.spans)
        record["failed"] += len(face_problems)
        record["problems"] += face_problems[:20]
        record["layers"] = spans.layer_metrics(tracer, len(cpu))
        tracer.dump(out / "spans.jsonl")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
