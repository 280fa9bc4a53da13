"""Fast self-test of the benchmark itself (about half a minute).

Usage (from the repository root):

    python3 bench/selftest.py

Runs every workload for one operation at tiny sizes, untraced and traced,
and checks that each result names exactly the workloads and metrics that
``BENCHMARK.json`` declares, with their units.  It also checks that the
benchmark refuses to run, without printing a result, in a copy that holds
only ``BENCHMARK.json`` and the benchmark directory.  Exits nonzero on the
first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "bench"))
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from bench/tracing.py")

    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            proc = _run(ROOT, workload, trace)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{what}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{what}: not correct: {proc.stdout[-800:]}")
            elif units != expected[trace]:
                problems.append(f"{what}: metrics {sorted(units)} differ from BENCHMARK.json")
            print(f"{what}: {'ok' if len(problems) == before else 'FAIL'}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "calibrate", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("benchmark ran without the package sources")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
