"""forestcalc benchmark: run a workload's CLI commands and report metrics.

    python3 perfbench/run.py --workload coend --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere; the checkout is the parent of this directory, and the
program is run from its src/ tree.  With --trace 0 every command is its
own `python -m forestcalc` process, started only after the previous one
ended (a closed loop with one client), and the end-to-end metrics are
reported.  With --trace 1 the same commands run in this process through
forestcalc.cli.main, once plain and once with the package's functions
wrapped by tracing.py, and the per-layer metrics are reported.

Every command's exit code and payload digest are checked against
expected.json, pinned from the seed commit by pin.py.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

import common
import tracing
import workloads
from common import OUT, ROOT, SRC, Result, check_output, run_python

# fresh interpreters timed per run for setup_s
SETUP_STARTS = 21
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import forestcalc.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
PROBE_CODE = "import forestcalc.cli, forestcalc.kernel as k; print(k.IMPLEMENTATION)"


def probe_kernel(work, env):
    """The child's elimination kernel.  The probe also imports the package
    once, so later starts find compiled bytecode."""
    probe = run_python(["-c", PROBE_CODE], work, env)
    if probe.exit_code != 0:
        raise RuntimeError(f"cannot import forestcalc: {probe.stderr.strip()}")
    return probe.stdout.strip()


def time_setup(work, env):
    """One fresh interpreter importing forestcalc.cli and building its
    parser, timed inside the child."""
    o = run_python(["-c", SETUP_CODE], work, env)
    if o.exit_code != 0:
        raise RuntimeError(f"set-up start failed: {o.stderr.strip()}")
    return float(o.stdout)


# ---------------------------------------------------------------------------
# runs


def run_end_to_end(workload, seed, seconds, expected, work):
    """Whole passes of the workload, one child per command, until
    `seconds` have gone by; at least one pass.  A pass runs the same
    commands in the same order every time, so wall_s sums each step's
    median over the passes: a burst of host noise during one command
    then moves one sample rather than a whole pass.

    The set-up starts are spread over the run: half before the first
    pass, one after each command until enough are taken, the rest after
    the last pass.  The host's speed drifts over tens of seconds, and
    spreading the starts keeps setup_s from sampling one moment.
    """
    env = common.child_env()
    models = workloads.write_models(seed, work)
    kernel = probe_kernel(work, env)
    setups = [time_setup(work, env) for _ in range(SETUP_STARTS // 2)]
    passes, peaks, failures, attempted = [], [], [], 0
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        cache = str(work / f"cache-{len(passes)}")
        steps = workloads.sequence(workload, seed, models, cache)
        walls, peak = [], 0
        for key, argv in steps:
            o = run_python(["-m", "forestcalc", *argv], work, env)
            attempted += 1
            walls.append(o.wall_s)
            peak = max(peak, o.maxrss_kb)
            reason = "timeout" if o.timed_out else check_output(
                o.exit_code, o.stdout, expected[key]
            )
            if reason:
                failures.append((key, reason))
            if len(setups) < SETUP_STARTS - 1:
                setups.append(time_setup(work, env))
        passes.append(walls)
        peaks.append(peak / 1024)
    while len(setups) < SETUP_STARTS:
        setups.append(time_setup(work, env))
    metrics = {
        "wall_s": (sum(map(statistics.median, zip(*passes))), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {
        "environment": common.environment(kernel),
        "command_walls_s": passes,
        "setup_starts_s": setups,
    }
    return Result(attempted, failures, metrics, extra)


def run_workload(workload, seed, seconds, trace, expected):
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return tracing.run_traced(workload, seed, expected, work)
        return run_end_to_end(workload, seed, seconds, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(workload, seed, trace, result):
    """Print the metrics by name with units, and keep a results file."""
    ratio = len(result.failures) / result.attempted
    for key, reason in result.failures:
        print(f"{workload} FAILED {key}: {reason}")
    for name, (value, unit) in result.metrics.items():
        print(f"{workload} {name} {value} {unit}")
    print(
        f"{workload} fail_ratio {ratio} ratio "
        f"({len(result.failures)} of {result.attempted} commands)"
    )
    record = {
        "workload": workload,
        "seed": seed,
        "attempted": result.attempted,
        "failures": result.failures,
        "fail_ratio": ratio,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        **result.extra,
    }
    print(f"{workload} seed {seed} environment {json.dumps(result.extra['environment'])}")
    path = OUT / f"result-{'trace' if trace else 'e2e'}-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def self_test(expected):
    """One cli-mix pass with one pinned digest made wrong: the gate must
    count both runs of that command as failed."""
    wrong = dict(expected)
    victim = workloads.command_key(workloads.CLI_MIX[0])
    wrong[victim] = dict(expected[victim], digest="0" * 64)
    result = run_workload("cli-mix", 0, 0, False, wrong)
    ratio = len(result.failures) / result.attempted
    report("cli-mix", 0, False, result)
    ok = [key for key, _ in result.failures] == [victim, victim]
    print(f"self-test {'passed' if ok else 'FAILED'}: fail_ratio {ratio} with one wrong digest")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its running command (see run_python)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "forestcalc" / "cli.py").is_file():
        print(f"error: no forestcalc sources under {SRC}", file=sys.stderr)
        return 2
    expected = common.load_expected()
    if args.self_test:
        return self_test(expected)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    declared = declared_metrics(args.trace)
    attempted, failed, correct, metrics = 0, 0, True, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, expected)
        report(name, args.seed, args.trace, result)
        if sorted(result.metrics) != sorted(declared):
            print(f"error: {name} reported metrics other than BENCHMARK.json declares",
                  file=sys.stderr)
            return 1
        attempted += result.attempted
        failed += len(result.failures)
        correct = correct and not result.failures and result.extra.get("counts_repeat", True)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in result.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
