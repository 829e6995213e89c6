"""exposure-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid-2k --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a checkout. Each session runs the workload once in a
fresh process (perfbench/session.py) on one input. It times every library
call it makes, and between calls it times a fixed reference loop that does
not touch the library. ``wall_ref`` is the summed call time over the
median reference time: the host's speed swings by tens of percent over
tens of seconds, and the ratio cancels it. A run makes INPUTS inputs from
--seed and cycles through them, one session at a time, until ``--seconds``
would be exceeded; each metric is the median over an input's sessions,
averaged over the inputs. Set-up time is the median over the sessions and
a few set-up-only processes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced sessions of the first input and reports
the per-layer metrics: medians over the traced sessions, plus
``trace.overhead_s``, the traced minus the untraced median wall time.
Layers that a workload does not call report 0, as do percentiles with
fewer than ten samples beyond them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (run manifest, counts,
every session) goes to perfbench/out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("large-1e5", "grid-2k", "track-1e4")
INPUTS = 3
SETUP_PROBES = 5
SESSION_TIMEOUT_S = 60
EXTRA_UNITS = {"wall_ref": "ref", "peak_rss_mb": "MiB", "updates_per_s": "1/s", "error_rate": "ratio"}
PAGE_CACHE_NOTE = "page cache warm: files written by a session are read back while cached; it is not dropped"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def spawn_session(workload: str, args, seed: int, trace: int, setup_only: bool = False):
    """Run one session process and wait for it; its JSON result, or None if it failed."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
           "--scale", args.scale, "--trace", str(trace)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--inject-fault"] if args.inject_fault else []
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(monotonic())], cwd=ROOT, capture_output=True,
                              text=True, timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} session timed out after {SESSION_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} session exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def input_seeds(seed: int, trace: int) -> list:
    """Session seeds of one run: INPUTS distinct seeds made from --seed; a traced run uses the first."""
    return [seed * INPUTS + i for i in range(1 if trace else INPUTS)]


def _summary(value: float, values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"unit": unit, "value": value, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _session_metrics(res: dict) -> dict:
    m = {"wall_ref": res["wall_s"] / res["reference_s"], "wall_s": res["wall_s"],
         "reference_s": res["reference_s"], "peak_rss_mb": res["peak_rss_mb"]}
    m.update({f"{phase}_s": secs for phase, secs in res["phases"].items()})
    if res["counts"].get("tracker_updates"):
        m["updates_per_s"] = res["counts"]["tracker_updates"] / res["phases"]["track"]
    return m


def _cpu_manifest() -> dict:
    info = {"cpu_model": None, "l2_cache": None, "l3_cache": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def manifest(args, seeds: list, sessions: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "exposure_lab").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **_cpu_manifest(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "inputs": seeds,
        "scale": args.scale,
        "seconds": args.seconds,
        "sessions": sessions,
        "page_cache": PAGE_CACHE_NOTE,
    }


def run_workload(workload: str, args, spec: dict) -> dict | None:
    seeds = input_seeds(args.seed, args.trace)
    setups = [spawn_session(workload, args, seeds[0], 0, setup_only=True) for _ in range(SETUP_PROBES)]
    # sessions cycle through the inputs; a traced run alternates untraced and traced sessions of one input
    plan = [(seed, 0) for seed in seeds] if not args.trace else [(seeds[0], 0), (seeds[0], 1)]
    sessions = []  # (seed, traced, result or None)
    durations = []
    start = monotonic()
    while True:
        seed, traced = plan[len(sessions) % len(plan)]
        t0 = monotonic()
        sessions.append((seed, traced, spawn_session(workload, args, seed, traced)))
        durations.append(monotonic() - t0)
        if len(sessions) >= len(plan) and monotonic() - start + statistics.median(durations) > args.seconds:
            break

    good = [(s, t, r) for s, t, r in sessions if r is not None and "wall_s" in r]
    untraced = {seed: [r for s, t, r in good if s == seed and not t] for seed in seeds}
    traced = [r for _, t, r in good if t]
    attempted = sum(r["attempted"] for _, _, r in good) + len(sessions) - len(good)
    failed = sum(len(r["failures"]) for _, _, r in good) + len(sessions) - len(good)
    failures = sorted({f for _, _, r in good for f in r["failures"]})
    if not all(untraced.values()) or (args.trace and not traced):
        return None
    # one input gives the same counts in every session, traced or not
    for seed in seeds:
        reference = untraced[seed][0]["counts"]
        attempted += 1
        if any({k: r["counts"].get(k) for k in reference} != reference for s, _, r in good if s == seed):
            failed += 1
            failures.append(f"counts differ between sessions of seed {seed}")

    # Each metric: the median over an input's sessions, then the mean over the inputs.
    per_input = [[_session_metrics(r) for r in results] for results in untraced.values()]
    end_to_end = {name: _summary(statistics.fmean(statistics.median(m[name] for m in ms) for ms in per_input),
                                 [m[name] for ms in per_input for m in ms], EXTRA_UNITS.get(name, "s"))
                  for name in per_input[0][0]}
    setup_values = [r["setup_s"] for r in setups + [r for rs in untraced.values() for r in rs]
                    if r is not None and r["setup_s"] is not None]
    end_to_end["setup_s"] = _summary(statistics.median(setup_values), setup_values, "s")
    end_to_end["error_rate"] = _summary(failed / attempted, [failed / attempted], "ratio")

    per_layer = {}
    if traced:
        layer_names = sorted({k for r in traced for k in r["layers"]})
        per_layer = {k: statistics.median([r["layers"].get(k, 0) for r in traced]) for k in layer_names}
        per_layer["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                         - statistics.median([r["wall_s"] for r in untraced[seeds[0]]]))

    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}
    if args.trace:
        metrics = {name: {"value": per_layer.get(name, 0), "unit": unit} for name, unit in units.items()}
    else:
        missing = [name for name in units if name not in end_to_end]
        if missing:
            print(f"perfbench: {workload} did not produce {missing}", file=sys.stderr)
            return None
        metrics = {name: {"value": end_to_end[name]["value"], "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload,
        "manifest": {**manifest(args, seeds, len(good)), "numpy": untraced[seeds[0]][0]["numpy"]},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": {seed: results[0]["counts"] for seed, results in untraced.items()},
        "metrics": metrics,
        "sessions": [{"seed": s, "traced": t, **(r or {"error": "session failed"})} for s, t, r in sessions],
    }


def print_report(rec: dict) -> None:
    m = rec["manifest"]
    print(f"== {rec['workload']}  seed={m['seed']}  inputs={m['inputs']}  sessions={m['sessions']}  "
          f"python {m['python']}  numpy {m['numpy']}  nproc {m['nproc']}  {m['cpu_model']}  "
          f"L2 {m['l2_cache']}  L3 {m['l3_cache']}  commit {m['git_commit'] or '-'}")
    print(f"   {m['page_cache']}")
    print(f"   {'metric':<16} {'unit':<6} {'value':>12}   {'sessions: median':>16} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, s in rec["end_to_end"].items():
        print(f"   {name:<16} {s['unit']:<6} {s['value']:>12.6g}   {s['median']:>16.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['n']:>3}")
    for seed, counts in rec["counts"].items():
        print(f"   counts of seed {seed}: {json.dumps(counts, sort_keys=True)}")
    if rec["per_layer"]:
        print("   per-layer (median of traced sessions), by self time:")
        by_self = sorted((k for k in rec["per_layer"] if k.endswith(".self_s")), key=lambda k: -rec["per_layer"][k])
        for key in by_self:
            base = key[: -len(".self_s")]
            print(f"   {base:<44} calls {rec['per_layer'].get(base + '.calls', 0):>9.0f}  "
                  f"self {rec['per_layer'][key]:>9.4f} s  total {rec['per_layer'].get(base + '.total_s', 0):>9.4f} s")
        print(f"   trace.overhead_s {rec['per_layer']['trace.overhead_s']:.4f}")
    for failure in rec["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: ~1e3-node inputs, for the self-test")
    ap.add_argument("--inject-fault", action="store_true", help="corrupt one output before it is checked")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exposure_lab" / "__init__.py").is_file():
        return _fail(f"no exposure_lab sources under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)

    records = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rec = run_workload(workload, args, spec)
        if rec is None:
            return _fail(f"{workload}: no complete session; no result")
        print_report(rec)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rec, indent=1))
        records.append(rec)
    metrics = records[0]["metrics"] if len(records) == 1 else {
        f"{rec['workload']}.{name}": value for rec in records for name, value in rec["metrics"].items()}
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
