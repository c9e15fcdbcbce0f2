"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Checks that every metric name is reported with its unit, that every oracle
passes, and that the only failed queries are the documented crashes of
``deep-formulas``.  Exits with code 1 if any check fails.
"""

from __future__ import annotations

import sys

from run import END_TO_END_UNITS, run
from tracing import metric_units
from workloads import WORKLOADS

EXPECTED_FAILURES = {"large-models": 0, "deep-formulas": 2, "cross-check": 0}


def check(workload: str, trace: bool) -> list[str]:
    lines, report = run(workload, seed=0, seconds=0.01, trace=trace, scale="tiny")
    failing = [line for line in lines if line.startswith("failed query")]
    problems = [line for line in failing if "documented crash" not in line]
    if len(failing) != EXPECTED_FAILURES[workload]:
        problems.append(f"{len(failing)} queries failed, expected {EXPECTED_FAILURES[workload]}")
    if not report["correct"]:
        problems.append("an oracle rejected an output or the verdict digest changed")
    units = metric_units() if trace else END_TO_END_UNITS
    if {name: m["unit"] for name, m in report["metrics"].items()} != units:
        problems.append("metric names or units differ from the declared ones")
    return problems


def main() -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            problems = check(workload, trace)
            print(f"{workload} trace={int(trace)}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")
            status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
