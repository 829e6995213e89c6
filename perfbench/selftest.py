"""Toy-size self-test of the benchmark; every workload runs on ~1e3 nodes.

    python3 perfbench/selftest.py

For each workload it checks that a clean run is correct and emits every
end-to-end metric of BENCHMARK.json with its unit, that a traced run emits
every per-layer metric with its unit, and that a run with one corrupted
output (a dropped edge, a tampered truth value) is counted as failed and
raises error_rate above 0. It also checks that run.py refuses, without a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def error_rate(stdout: str) -> float:
    line = next(ln for ln in stdout.splitlines() if ln.split()[:1] == ["error_rate"])
    return float(line.split()[2])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ("--workload", workload, "--scale", "toy", "--seconds", "1", "--seed", "3")
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(ROOT, *base, "--trace", str(trace))
            if result is None:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: clean run not correct: {proc.stdout[-2000:]}")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                if not got or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace={trace}: {metric['name']} missing or without unit: {got}")
            if trace == 0 and error_rate(proc.stdout) != 0:
                problems.append(f"{workload}: clean run reports error_rate {error_rate(proc.stdout)}")
        proc, result = run(ROOT, *base, "--inject-fault")
        if result is None or result["correct"] or result["failed"] < 1 or not error_rate(proc.stdout) > 0:
            problems.append(f"{workload}: a corrupted output was not counted: {proc.stdout[-2000:]}")

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc, result = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "3")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
