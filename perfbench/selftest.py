"""Fast self-test: every workload at a tiny size, traced and untraced.

Checks that each run exits 0, reports ``correct``, and prints every
metric ``BENCHMARK.json`` names, with its unit, both in the JSON line
and in the readable lines above it.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: JSON keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            errors.append(f"{where}: {m['name']} printed as {got}")
        elif not any(
            line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
            for line in lines[:-1]
        ):
            errors.append(f"{where}: no readable line for {m['name']} [{m['unit']}]")
    return errors


def main() -> int:
    errors = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            found = check(workload, trace)
            print(f"{workload:16s} --trace {trace}: {'ok' if not found else 'FAIL'}")
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
