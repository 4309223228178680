"""Smoke run of every workload at a tiny size.

Usage, from the repository root (takes about a minute):

    python3 perfbench/smoke.py

For each workload, runs ``run.py --tiny`` untraced and traced and asserts
that the last line is a well-formed result, that it names every metric
``BENCHMARK.json`` declares with its unit, and that every output check
passed.  Then copies ``BENCHMARK.json`` and ``perfbench/`` into a directory
with no program and asserts that the benchmark exits non-zero there
without printing a result.  Exits non-zero if any case fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def problem(done, declared: list[dict]) -> str | None:
    """Why a run's result breaks the contract, or None."""
    if done.returncode != 0:
        return f"exit code {done.returncode}: {done.stderr[-1000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"output checks failed:\n{done.stderr[-3000:]}"
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return (f"metrics missing {sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, or units differ")
    if not all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values()):
        return "a metric value is not a number"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            reason = problem(run(ROOT, w["name"], trace), declared)
            print(f"{'FAIL' if reason else 'PASS'} {w['name']} trace={trace}"
                  + (f": {reason}" if reason else ""), flush=True)
            failures += reason is not None

    bare = ROOT / ".perfbench-runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        for w in spec["workloads"]:
            done = run(bare, w["name"], 0)
            printed = any(line.startswith("{")
                          for line in done.stdout.splitlines())
            ok = done.returncode != 0 and not printed
            print(f"{'PASS' if ok else 'FAIL'} {w['name']} without the "
                  f"program exits {done.returncode}"
                  + (" and prints a result" if printed else ""), flush=True)
            failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
