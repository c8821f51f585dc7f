#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at its smallest size, untraced and
traced, and fails if a run exits non-zero, reports a failed operation, or
leaves out a metric that BENCHMARK.json names, or reports one as zero or
negative.  ``trace.overhead_s`` is exempt from the sign test: it is the
difference of two timings and may be negative when little is traced.
Last, it copies only BENCHMARK.json and the benchmark's directories into a
scratch directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / "smoke"
MAY_BE_NEGATIVE = {"trace.overhead_s"}


def run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds",
               "1", "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        problems.append(f"{where}: correct={res['correct']} "
                        f"attempted={res['attempted']} failed={res['failed']}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = res["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{where}: no {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got['unit']}")
        elif got["value"] <= 0 and m["name"] not in MAY_BE_NEGATIVE:
            problems.append(f"{where}: {m['name']} = {got['value']}")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "--workload", spec["workloads"][0]["name"],
                   "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"ran without src/: exit {proc.returncode}, last line "
                f"{last!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(w["name"], trace, spec)
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_refuses_without_sources(spec)
    print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
