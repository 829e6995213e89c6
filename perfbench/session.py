"""One benchmark session in a fresh process: set up, run one workload, check it.

Started by run.py with the monotonic time at which it spawned this process,
so set-up time covers interpreter start, imports and input staging up to
the first timed call. Prints one JSON object as its last line of stdout.

    python3 perfbench/session.py --workload grid-2k --seed 1 --scale full \
        --trace 0 --spawned-at <time.monotonic() of the parent> [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(run_id, keep_spans=bool(args.trace))
    tracer.install(spans.TRACED if args.trace else spans.PROBES)
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="session-", dir=OUT)
    clock = workloads.Clock()
    checks = workloads.Checks()
    params = workloads.SCALES[args.workload][args.scale]
    ses = workloads.Session(args.seed, params, tmp, args.inject_fault, clock, checks)
    out = {"run_id": run_id, "numpy": np.__version__}
    try:
        if args.setup_only:
            clock.start()
        else:
            out["counts"] = workloads.WORKLOADS[args.workload](ses)
            out["wall_s"] = sum(secs for _, secs in clock.steps)
            out["reference_s"] = statistics.median(clock.reference_times)
            out["reference_runs"] = len(clock.reference_times)
    except Exception as exc:  # an operation that raised counts as failed
        traceback.print_exc()
        checks.attempted += 1
        checks.failures.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["setup_s"] = clock.first_monotonic - args.spawned_at if clock.first_monotonic else None
    out["phases"] = clock.phases
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    out["counts"] = {**tracer.counts, **out.get("counts", {})}
    if args.trace and not args.setup_only:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.span_count
        out["spans_file"] = str(OUT / f"spans-{args.workload}.npz")
        tracer.dump(out["spans_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
