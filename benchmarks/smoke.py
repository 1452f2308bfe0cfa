"""Smoke test of the benchmark at toy sizes.

    python3 benchmarks/smoke.py

Runs every workload once untraced and once traced at toy sizes, and checks
that each run is correct and emits exactly the metrics BENCHMARK.json names,
with their units.  Then it corrupts outputs from outside the package and
checks that the benchmark counts them as failed operations: a wrong F* on
sweep_crossover and a fault-injected scan that passes on verify_scan.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager

import run


@contextmanager
def _patched(owner, attr, replacement):
    orig = getattr(owner, attr)
    setattr(owner, attr, replacement(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


def _wrong_f_star(solve_reference):
    def corrupted(*args, **kwargs):
        ref = solve_reference(*args, **kwargs)
        return dataclasses.replace(ref, f_star=ref.f_star + 1.0)
    return corrupted


def _fault_ignored(scan_schedule):
    def corrupted(*args, **kwargs):
        kwargs.pop("xi_override", None)
        return scan_schedule(*args, **kwargs)
    return corrupted


def main() -> int:
    run.bootstrap()
    from katyusha_h import problems, verification

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []

    def execute(name, trace):
        return run.execute(name, 0, 0.0, trace, toy=True, workdir=run.OUT / "smoke" / name)

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (False, True):
            result, details = execute(name, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(k for k in units if k in expected[trace]
                               and units[k] != expected[trace][k])
                errors.append(f"{name} trace={trace}: missing {missing}, "
                              f"unexpected {extra}, wrong unit {wrong}")
            if not result["correct"] or result["failed"] or details["error_rate"]:
                errors.append(f"{name} trace={trace}: failed {details['failures']}")
            print(f"{name} trace={int(trace)}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")

    corruptions = (
        ("sweep_crossover", "wrong F*", problems, "solve_reference", _wrong_f_star),
        ("verify_scan", "fault scan passes", verification, "scan_schedule",
         _fault_ignored),
    )
    for name, what, owner, attr, corrupt in corruptions:
        with _patched(owner, attr, corrupt):
            result, details = execute(name, False)
        counted = result["failed"] > 0 and not result["correct"] and details["error_rate"] > 0
        if not counted:
            errors.append(f"{name}: corruption '{what}' not counted in error_rate")
        print(f"{name} with {what}: failed {result['failed']} of {result['attempted']}")

    for line in errors:
        print("SMOKE FAIL:", line)
    print("smoke:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
