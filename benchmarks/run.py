"""Benchmark for migratesim: one command, three workloads.

    python3 benchmarks/run.py --workload balance --seed 1 --seconds 30 --trace 0

runs rounds of the workload's operations for about --seconds seconds
(always at least one round), checks the outputs, prints every end-to-end
metric with its unit and ends with one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 it runs one untraced round, one traced round and, for
workloads that use a process pool, one traced pass at --jobs 1; it prints
the per-layer metrics instead and writes the spans to
.bench_runs/trace-<workload>-seed<seed>.json. --smoke shrinks every
workload to a few seconds for the benchmark's own tests. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
sys.path[:0] = [str(SRC), str(BENCH)]

SETUP_REPEATS = 3  # set-ups per run, this process's included; median kept

# Bounded metrics use CPU time: see README, "Why CPU time".
END_TO_END = {  # name: unit
    "cpu_s": "s", "setup_s": "s", "sim_time_per_cpu_s": "model_t/cpu_s",
    "peak_rss_mb": "MB",
}
WALL_CLOCK = {"wall_s": "s", "sim_time_per_s": "model_t/s"}  # printed only
LOOPS = ("ctmc.simulate_closed", "ctmc.simulate_open")
PER_LAYER = {
    **{f"{loop}.{key}": unit for loop in LOOPS for key, unit in (
        ("busy_s", "s"), ("calls", "count"), ("events", "count"),
        ("events_per_s", "1/s"), ("accept_ratio", "ratio"))},
    "balance.measure_balance_time.busy_s": "s",
    "balance.measure_balance_time.self_s": "s",
    "balance.measure_balance_time.pool_efficiency": "ratio",
    "experiments.stability_probe.busy_s": "s",
    "experiments.stability_probe.self_s": "s",
    "experiments.stability_probe.pool_efficiency": "ratio",
    "experiments.measure_sojourns.busy_s": "s",
    "experiments.measure_sojourns.self_s": "s",
    "experiments.throughput_comparison.busy_s": "s",
    "meanfield.equilibrium_rls.busy_s": "s",
    "meanfield.equilibrium_rls.rhs_evals": "count",
    "meanfield.rhs_rls.us_per_call": "us",
    "meanfield.solve_fixed_point_rlo.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_cpu_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("balance", "stability", "throughput"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # time one set-up, print it, exit
    return p.parse_args(argv)


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def set_up(args) -> tuple:
    """Import the package, build the workload's inputs, prepare its output
    directory. Returns (workload, output directory, CPU seconds taken)."""
    start = time.process_time()
    # imported here, not at the top, because the import is what set-up times
    import migratesim
    import workloads

    if not Path(migratesim.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"migratesim imported from {migratesim.__file__}, "
                           f"not from {SRC}")
    out = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    return workload, out, time.process_time() - start


def setup_seconds(args, first: float) -> float:
    """Median over this process's set-up and fresh-interpreter repeats."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def timed_round(workload, out: Path, label: str, jobs: int,
                index: int) -> tuple:
    """Run round ``index``; (its outputs, wall seconds, CPU seconds).

    The CPU time includes the pool workers: each pool is shut down, and
    its workers reaped, before the call that made it returns.
    """
    rdir = out / label
    rdir.mkdir()
    gc.collect()
    cpu = cpu_seconds()
    start = time.perf_counter()
    result = workload.run_round(rdir, jobs, index)
    wall = time.perf_counter() - start
    return result, wall, cpu_seconds() - cpu


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def end_to_end(args, workload, out, setup_s, jobs) -> tuple:
    """Rounds on fresh inputs until the next would overrun --seconds."""
    from workloads import MAX_ROUNDS

    rounds, walls, cpus = [], [], []
    start = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        k = len(rounds)
        result, wall, cpu = timed_round(workload, out, f"round{k}", jobs, k)
        rounds.append(result)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    tallies = [workload.tally(r) for r in rounds]
    model = [t[2] for t in tallies]
    metrics = {
        "cpu_s": statistics.median(cpus), "setup_s": setup_s,
        "sim_time_per_cpu_s": statistics.median(
            s / c for s, c in zip(model, cpus)),
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": statistics.median(walls),
        "sim_time_per_s": statistics.median(s / w for s, w in zip(model, walls)),
    }
    print(f"{args.workload}: {len(rounds)} round(s); wall "
          + " ".join(f"{w:.3f}" for w in walls) + "; cpu "
          + " ".join(f"{c:.3f}" for c in cpus))
    problems = [f"round {k}: {p}" for k, r in enumerate(rounds)
                for p in workload.check(r)]
    return (rounds, sum(t[0] for t in tallies), sum(t[1] for t in tallies),
            metrics, problems)


def per_layer(args, workload, out, jobs) -> tuple:
    import tracing

    # all on round 0's inputs, so the outputs must agree byte for byte
    untraced, wall_u, cpu_u = timed_round(workload, out, "untraced", jobs, 0)
    tracer = tracing.Tracer(out / "spool")
    tracer.install()
    try:
        traced, wall_t, cpu_t = timed_round(workload, out, "traced", jobs, 0)
        spans, rhs_calls, rhs_seconds = tracer.take()
        rounds = [untraced, traced]
        serial = []
        if workload.pooled:
            rounds.append(timed_round(workload, out, "jobs1", 1, 0)[0])
            serial = tracer.take()[0]
    finally:
        tracer.uninstall()

    layers = tracing.layer_totals(spans)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, t in layers.items():
        for key in ("busy_s", "self_s", "calls", "events"):
            if f"{name}.{key}" in metrics:
                metrics[f"{name}.{key}"] = t[key]
        if name in LOOPS:
            metrics[f"{name}.events_per_s"] = t["events"] / t["busy_s"]
            if t["attempts"]:
                metrics[f"{name}.accept_ratio"] = t["accepted"] / t["attempts"]
    if workload.pooled:
        pool, loop = workload.pooled
        serial_busy = tracing.layer_totals(serial)[loop]["busy_s"]
        metrics[f"{pool}.pool_efficiency"] = (
            serial_busy / (jobs * layers[pool]["busy_s"]))
    eq = layers.get("meanfield.equilibrium_rls")
    if eq:
        metrics["meanfield.equilibrium_rls.rhs_evals"] = eq["rhs_evals"]
    if rhs_calls:
        metrics["meanfield.rhs_rls.us_per_call"] = 1e6 * rhs_seconds / rhs_calls
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.overhead_cpu_s"] = cpu_t - cpu_u

    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs,
                   "untraced": {"wall_s": wall_u, "cpu_s": cpu_u},
                   "traced": {"wall_s": wall_t, "cpu_s": cpu_t},
                   "spans": spans, "jobs1_spans": serial}, fh)
    print(f"{args.workload}: untraced {wall_u:.3f} s wall {cpu_u:.3f} s cpu, "
          f"traced {wall_t:.3f} s wall {cpu_t:.3f} s cpu; "
          f"{len(spans) + len(serial)} spans in {spans_path.relative_to(ROOT)}")
    attempted, failed, _ = workload.tally(untraced)
    problems = workload.check(untraced)
    problems += [f"{label} outputs differ from the untraced round's"
                 for label, r in zip(("traced", "--jobs 1"), rounds[1:])
                 if not workload.same(untraced, r)]
    return (rounds, attempted * len(rounds), failed * len(rounds), metrics,
            problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "migratesim" / "__init__.py").is_file():
        print(f"error: no migratesim sources under {SRC}", file=sys.stderr)
        return 2
    workload, out, first_setup = set_up(args)
    if args.setup_probe:
        shutil.rmtree(out)
        print(first_setup)
        return 0
    # the CLI's default --jobs, bounded by the CPUs this process may use
    jobs = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    try:
        if args.trace:
            rounds, attempted, failed, metrics, problems = per_layer(
                args, workload, out, jobs)
            units, shown = PER_LAYER, PER_LAYER
        else:
            setup_s = setup_seconds(args, first_setup)
            rounds, attempted, failed, metrics, problems = end_to_end(
                args, workload, out, setup_s, jobs)
            units, shown = END_TO_END, {**END_TO_END, **WALL_CLOCK}
        notes = workload.notes(rounds)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for line in notes:
        print(line)
    for line in problems:
        print(f"CHECK FAILED: {line}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for name, unit in shown.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
