"""Self-test of the benchmark, on the smoke-sized inputs.

    python3 perfbench/selftest.py

For every workload of run.py, including those BENCHMARK.json leaves out,
it checks that a run emits exactly the listed end-to-end metrics (tracing off) and per-layer metrics (tracing
on), each with its listed unit and a finite value, with every oracle
passing; that a planted oracle mismatch makes the run fail with
`failed` > 0; and that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
Exits 1 on the first list of problems it finds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, ROOT, WORKLOADS

TIMEOUT_S = 300


def run(workload, trace, plant=False, root=ROOT):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    if plant:
        argv.append("--plant-mismatch")
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def metric_problems(label, result, spec):
    problems = []
    expected = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    for name in expected.keys() - got.keys():
        problems.append(f"{label}: metric {name} missing")
    for name in got.keys() - expected.keys():
        problems.append(f"{label}: metric {name} not in BENCHMARK.json")
    for name in expected.keys() & got.keys():
        value = got[name]["value"]
        if got[name]["unit"] != expected[name]:
            problems.append(f"{label}: {name} unit {got[name]['unit']!r}, "
                            f"expected {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def check_workload(name, spec):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        label = f"{name} --trace {trace}"
        status, result = run(name, trace)
        if result is None:
            problems.append(f"{label}: no result line (exit {status})")
            continue
        if status != 0 or not result["correct"] or result["failed"]:
            problems.append(f"{label}: exit {status}, {result['failed']} of "
                            f"{result['attempted']} failed")
        problems += metric_problems(label, result, spec[key])
    status, result = run(name, 0, plant=True)
    if result is None or status == 0 or result["correct"] \
            or result["failed"] / result["attempted"] <= 0:
        failed = result and result["failed"]
        problems.append(f"{name}: a planted oracle mismatch was not reported "
                        f"(exit {status}, failed {failed})")
    return problems


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail, silently."""
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work, prefix="bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        status, result = run("tower", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if status == 0 or result is not None:
        return [f"bare directory: exit {status}, result {result}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
