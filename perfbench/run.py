"""spineforge benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tower|plans|klein-cli --seed 7 \\
        --seconds 50 --trace 0|1 [--smoke]

Run from a checkout of the repository; the program is imported from its
`src/` and the plan generator from `tests/randgen.py`.  The run repeats
whole passes over the workload's inputs until `--seconds` have elapsed,
checks every operation against the workload's oracles, prints each metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with tracing off.
With `--trace 1` they are the per-layer ones from a traced run, which
alternates untraced and traced passes to measure the tracing overhead.
The exit status is 1 when an oracle fails and 2 when the benchmark cannot
run at all (for example outside a checkout).  Spans, counts and the input
fingerprint are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("tower", "plans", "klein-cli")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: towers n=4,8, 10 plans, "
                             "2 CLI sequences")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one oracle expectation (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_checkout():
    """Put the checkout's sources first on the path, or stop."""
    needed = [os.path.join(ROOT, "src", "spineforge", "__init__.py"),
              os.path.join(ROOT, "tests", "randgen.py"),
              os.path.join(ROOT, "fixtures", "surgered.spoly")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"perfbench: not a spineforge checkout, missing "
              f"{', '.join(os.path.relpath(p, ROOT) for p in missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                    HERE]


def build_workload(args, tag):
    import workloads
    return workloads.build(args.workload, args.seed, args.smoke,
                           args.plant_mismatch, ROOT,
                           os.path.join(WORK_DIR, f"{os.getpid()}-{tag}"))


def setup_only(args):
    """Child of time_setup: import and build the inputs, then say so."""
    workload = build_workload(args, "setup")
    print("ready", flush=True)
    workload.close()


def time_setup(args):
    """Seconds from starting a fresh interpreter until the workload's inputs
    are ready (import spineforge plus input generation)."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up child failed (status {child.returncode})")
    return elapsed


class Pass:
    """One pass over the workload: per-operation results and failures."""

    def __init__(self, number, traced):
        self.number = number
        self.traced = traced
        self.seconds = 0.0
        self.results = {}       # operation index -> OpResult
        self.failures = []
        self.counts = {}


def run_pass(workload, number, tracer=None):
    record = Pass(number, tracer is not None)
    gc.collect()
    start = time.perf_counter()
    for i in range(len(workload)):
        if tracer is not None:
            tracer.begin((number, i))
        try:
            result = workload.run_op(i)
            if tracer is not None:
                tracer.begin("check")   # oracle work is not the operation's
            workload.check(i, result)
        except Exception as exc:  # every failure is counted, none is fatal
            record.failures.append(
                f"{workload.label(i)}: {type(exc).__name__}: {exc}")
            continue
        result.outputs = None   # keep memory flat across passes
        record.results[i] = result
        for key, value in result.counts.items():
            record.counts[key] = record.counts.get(key, 0) + value
    record.seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.begin("done")
    return record


def run_passes(workload, seconds, tracer=None, before_pass=None):
    """Whole passes until `seconds` have elapsed; with a tracer, untraced
    and traced passes alternate and at least one of each runs."""
    passes = []
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(workload, len(passes),
                                   tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start >= seconds:
            return passes


def repeat_failures(name, per_pass):
    """Counts must repeat exactly from pass to pass."""
    first = per_pass[0]
    return [f"{name}: pass {i} counts {counts} differ from pass 0 {first}"
            for i, counts in enumerate(per_pass) if counts != first]


def program_hash():
    digest = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "spineforge"),
                      os.path.join(ROOT, "tests"), HERE):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def cross_run_failures(args, key, counts):
    """Counts must also repeat exactly from run to run of the same program
    on the same inputs; the previous run's counts are kept on disk."""
    path = os.path.join(OUT_DIR, f"counts-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}"
                                 f"{'-smoke' if args.smoke else ''}.json")
    if args.plant_mismatch:
        return []
    previous = None
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
    with open(path, "w") as handle:
        json.dump({"key": key, "counts": counts}, handle, sort_keys=True)
    if previous and previous["key"] == key and previous["counts"] != counts:
        return [f"counts {counts} differ from the previous run "
                f"{previous['counts']}"]
    return []


def best_laps(passes):
    """Operation index -> the fastest repeat of each of its pipeline calls
    over the passes.  Contention from other processes only ever adds time,
    and it comes in bursts shorter than an operation, so this is the
    steadiest estimate of what the program itself costs."""
    best = {}
    for p in passes:
        for i, result in p.results.items():
            laps = best.get(i, result.laps)
            best[i] = [min(a, b) for a, b in zip(laps, result.laps)]
    return best


def op_seconds(passes):
    """Operation index -> the sum of its calls' fastest repeats."""
    return {i: sum(laps) for i, laps in best_laps(passes).items()}


def verdict_seconds(passes):
    """Operation index -> the same, over the calls that reach the verdict."""
    verdict = {i: result.verdict for p in passes
               for i, result in p.results.items()}
    return {i: sum(laps[k] for k in verdict[i])
            for i, laps in best_laps(passes).items()}


def end_to_end(passes, setup_s):
    latencies = sorted(op_seconds(passes).values())
    if not latencies:
        return {}
    values = {
        "setup_s": setup_s,
        # a pass made of each call's fastest repeat
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": statistics.quantiles(latencies, n=20,
                                          method="inclusive")[18] * 1e3
        if len(latencies) > 1 else latencies[0] * 1e3,
        "verdict_s": sum(verdict_seconds(passes).values()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(tracer, passes, ops):
    from tracing import EXACT_COUNTS, LAYER_METRICS
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [tracer.layer_metrics((p.number, i) for i in range(ops))
                for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass)
              for name in LAYER_METRICS}
    values.update({name: per_pass[0][name] for name in EXACT_COUNTS})
    values["trace.overhead_frac"] = (
        sum(op_seconds(traced).values())
        / sum(op_seconds(untraced).values()) - 1)
    counts = [{name: m[name] for name in EXACT_COUNTS} for m in per_pass]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in LAYER_METRICS.items()}
    return metrics, counts


def main(argv=None):
    args = parse_args(argv)
    require_checkout()
    if args.setup_only:
        setup_only(args)
        return 0

    import workloads   # importable once the checkout is on the path
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        workload = build_workload(args, "run")
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        inputs = workloads.fingerprint(workload)
        # set-up samples go between passes, so that they see the same
        # machine as the passes rather than only its state at the start
        setup_samples = []
        repeats = 0 if args.trace else 2 if args.smoke else SETUP_REPEATS

        def sample_setup():
            if len(setup_samples) < repeats:
                setup_samples.append(time_setup(args))

        passes = run_passes(workload, args.seconds, tracer, sample_setup)
        while len(setup_samples) < repeats:
            sample_setup()
    finally:
        workload.close()

    os.makedirs(OUT_DIR, exist_ok=True)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.results) + len(p.failures) for p in passes)
    search_counts = [p.counts for p in passes]
    failures += repeat_failures("search counts", search_counts)
    counts = {"search": search_counts[0]}
    if tracer is not None:
        metrics, layer_counts = per_layer(tracer, passes, len(workload))
        failures += repeat_failures("per-layer counts", layer_counts)
        counts["layers"] = layer_counts[0]
        first = next(p for p in passes if p.traced)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            ((first.number, i) for i in range(len(workload))))
    else:
        metrics = end_to_end(passes, statistics.median(setup_samples))
    program = program_hash()
    if not failures:
        failures += cross_run_failures(
            args, {"program": program, "inputs": inputs}, counts)

    summary = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "inputs_sha256": inputs,
        "program_sha256": program,
        "passes": len(passes), "operations": len(workload),
        "op_samples": sum(len(p.results) for p in passes),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "counts_per_pass": counts,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if args.workload == "tower":
        # n=64 is the closed-surface search's target size
        summary["verdict_s_by_size"] = {
            workload.label(i): seconds for i, seconds in sorted(
                verdict_seconds([p for p in passes if not p.traced]).items())}
    name = f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump({**summary, "metrics": metrics}, handle, indent=1)

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
