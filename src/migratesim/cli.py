"""Command-line front end for the simulators, solvers, and experiments.

Four subcommands cover the toolkit: ``balance`` replicates closed
time-to-balance runs against the analytic bound, ``open`` measures sojourn
statistics (or, with --probe, runs the stability probe), ``meanfield``
integrates the occupancy flow or solves for its equilibrium, and
``verify`` re-runs the acceptance claims on the proof devices.

``verify coupling``, ``kurtz``, ``lyapunov`` and ``ode`` are claims 09, 06,
10 and 11: each ``check_*`` below is the claim's measurement and verdict at
its own fixed sizes, seeds and thresholds, and the acceptance tests call it.

Every subcommand returns through one run protocol, ``_run``: it refuses to
reuse an existing output directory unless --force is given, writes a JSON
manifest before any results, and keeps timestamps out of the CSV files so
a repeated command with the same seed reproduces them byte for byte. This
module is the only one that writes files, so the CSV and manifest formats
live here. Exit codes: 0 success, 1 configuration or usage error, 2
completed with warnings (censoring, inconclusive or failed checks, an rls
equilibrium with more than one root in its bracket), each printed as a
``warning:`` line and listed in the manifest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from itertools import product
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import __version__
from .balance import (
    initial_all_at_one,
    initial_from_file,
    measure_balance_time,
)
from .ctmc import simulate_coupled
from .meanfield import (
    SolverError,
    equilibrium_rls,
    integrate,
    make_rhs,
    mean_occupancy,
    point_mass,
    rhs_rlo,
    rhs_rlo_tail,
    rhs_rls,
    sojourn_time,
    solve_fixed_point_rlo,
    st_leq,
    throughput,
)
from .model import ConfigError, SystemConfig, measure_from_tails, tail_sums
from .stats import poisson_gof, standard_error
from . import experiments as exp

# in-window censoring above this fraction marks the estimate unreliable
CENSOR_WARN_FRACTION = 0.01

# open-loop event kinds that leave the occupancies as they were
NULL_EVENTS = ("resample_rejected", "resample_self", "arrival_dropped",
               "migration_blocked")


@functools.cache
def _environment() -> dict:
    # scipy's version comes from its package metadata: importing scipy here
    # would load it on every run, though only p-values need it
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count()}


@dataclass
class RunManifest:
    """Provenance record, the only artifact carrying wall-clock times."""

    subcommand: str
    config: dict
    seeds: tuple
    outputs: tuple
    started: float
    finished: Optional[float] = None
    # solver telemetry (residual, roots, ...); written only when set
    solver: Optional[dict] = None
    # why the run exits 2; written only when there is one
    warnings: List[str] = field(default_factory=list)
    # why the run exits 1 after the manifest was first written; ditto
    error: Optional[str] = None
    # event tallies by kind summed over the replications; ditto, with the
    # share of null events beside them
    events: Optional[dict] = None

    def write(self, path) -> None:
        data = {
            "subcommand": self.subcommand,
            "version": __version__,
            "config": self.config,
            "seeds": {
                "first": min(self.seeds) if self.seeds else None,
                "last": max(self.seeds) if self.seeds else None,
                "count": len(self.seeds),
            },
            "outputs": list(self.outputs),
            "started": self.started,
            "finished": self.finished,
            "environment": _environment(),
        }
        if self.solver is not None:
            data["solver"] = self.solver
        if self.warnings:
            data["warnings"] = list(self.warnings)
        if self.error is not None:
            data["error"] = self.error
        if self.events is not None:
            data["events"] = self.events
            total = sum(self.events.values())
            data["null_fraction"] = (
                sum(self.events.get(k, 0) for k in NULL_EVENTS) / total
                if total else None)
        with open(path, "w", newline="\n") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_echo(config: SystemConfig) -> str:
    """Deterministic one-line JSON echo of a config, for CSV comment headers."""
    data = {
        "m": config.m,
        "policy": config.policy.value,
        "arrival_rates": list(config.arrival_rates),
        "service_rates": list(config.service_rates),
        "resample_rate": config.resample_rate,
        "cap": config.cap,
        "include_self": config.include_self,
    }
    return json.dumps(data, sort_keys=True)


def _cell(value) -> str:
    if type(value) is int:  # not bool, nor a numpy integer
        return str(value)
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # np.float64 would repr as np.float64(...)
    if isinstance(value, bool):
        return str(int(value))
    text = str(value)
    # RFC 4180 minimal quoting: only a cell holding a comma, a quote or a
    # line break is quoted, so every other cell is written as it stands
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_results_csv(path, columns: Sequence[str],
                      rows: Sequence[dict], comments: Sequence[str]) -> None:
    """Generic results table: '#' comment lines, header row, repr floats,
    text cells quoted only where they must be."""
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(_cell(c) for c in columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row.get(c)) for c in columns) + "\n")


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors, not the default argparse 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _run(args, config: dict, seeds, csv_name: str,
         body: Callable[[RunManifest], tuple]) -> int:
    """The run protocol that every subcommand returns through.

    Refuses an existing --out without --force and writes the manifest
    before any work. body then prints its report, fills in the manifest's
    warnings and solver, and returns the CSV as (columns, rows, comments).
    The CSV and the finished manifest follow, then one "warning:" line per
    warning; the exit code is 2 exactly when there is a warning. If body
    raises, the manifest is finished with the error and the exception
    propagates. Without --out (verify only) nothing is written.
    """
    out = None if args.out is None else Path(args.out)
    manifest = RunManifest(args.command, config, tuple(seeds),
                           () if out is None else (str(out / csv_name),),
                           started=time.time())
    if out is not None:
        if out.exists() and not args.force:
            raise ConfigError(
                f"output directory {out} already exists; pass --force to "
                "write into it"
            )
        out.mkdir(parents=True, exist_ok=True)
        manifest.write(out / "manifest.json")
    try:
        columns, rows, comments = body(manifest)
    except Exception as exc:
        if out is not None:
            manifest.error = f"{type(exc).__name__}: {exc}"
            manifest.finished = time.time()
            manifest.write(out / "manifest.json")
        raise
    if out is not None:
        write_results_csv(out / csv_name, columns, rows, comments)
        manifest.finished = time.time()
        manifest.write(out / "manifest.json")
    for w in manifest.warnings:
        print(f"warning: {w}")
    return 2 if manifest.warnings else 0


def _parse_rates(text: str):
    """'0.8' -> 0.8; '4.5,0,0' -> (4.5, 0.0, 0.0)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"rates must be numbers, got {text!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _parse_stop(text: str):
    """'exact' -> None; 'eps=<value>' -> the tolerance as a Fraction."""
    if text == "exact":
        return None
    if text.startswith("eps="):
        try:
            return Fraction(text[4:])
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad tolerance in {text!r}")
    raise ConfigError(f'--stop must be "exact" or "eps=<value>", got {text!r}')


# ---------------------------------------------------------------------------
# balance

def cmd_balance(args) -> int:
    seed = args.seed
    m, n = args.m, args.n
    if args.initial_file is None:
        initial = initial_all_at_one(m, n)
    else:
        initial = initial_from_file(args.initial_file, m)
        if sum(initial) != n:
            raise ConfigError(
                f"initial file holds {sum(initial)} clients, --n says {n}"
            )
    eps = _parse_stop(args.stop)
    config = SystemConfig(m=m)

    def body(manifest):
        res = measure_balance_time(config, initial, eps=eps, reps=args.reps,
                                   base_seed=seed, horizon=args.horizon,
                                   jobs=args.jobs)
        print(f"balance time over {args.reps} runs: mean={res.mean!r} sd={res.sd!r}")
        print(f"ci95={res.ci95!r}")
        print(f"analytic bound: {res.bound!r}")
        print(f"lower bounds: {res.lower_bounds!r}")
        manifest.events = {"migration": res.moves}
        if res.censored:
            manifest.warnings.append(
                f"{res.censored} replication(s) censored at the horizon")
        rows = [{"rep": k, "seed": seed + k, "balance_time": t}
                for k, t in enumerate(res.times)]
        comments = [
            f"config={config_echo(config)}",
            f"initial={','.join(str(c) for c in initial)} stop={args.stop}",
            f"mean={res.mean!r} sd={res.sd!r} ci95={res.ci95!r}",
            f"bound={res.bound!r} lower_bounds={res.lower_bounds!r}",
            f"censored={res.censored} horizon={res.horizon!r}",
        ]
        return ("rep", "seed", "balance_time"), rows, comments

    return _run(args, {"m": m, "n": n, "initial_file": args.initial_file,
                       "stop": args.stop, "reps": args.reps,
                       "horizon": args.horizon},
                range(seed, seed + args.reps), "balance_times.csv", body)


# ---------------------------------------------------------------------------
# open system

def cmd_open(args) -> int:
    seed = args.seed
    lam = _parse_rates(args.lam)
    mu = _parse_rates(args.mu)
    m = args.m
    if m is None:
        for v in (lam, mu):
            if isinstance(v, tuple):
                m = len(v)
                break
    if m is None:
        raise ConfigError("give --m, or per-server lists for --lambda/--mu")
    config = SystemConfig(m=m, policy=args.policy, arrival_rates=lam,
                          service_rates=mu, resample_rate=args.beta,
                          include_self=not args.exclude_self)
    warmup = exp.WARMUP_FRACTION * args.horizon

    def probe(manifest):
        report = exp.stability_probe(config, args.horizon,
                                     seed_set=range(seed, seed + args.reps),
                                     jobs=args.jobs)
        manifest.events = report.events
        print(f"verdict: {report.verdict}")
        print(f"growth slope: {report.growth_slope!r} ci95={report.slope_ci!r}")
        print(f"quarter-window means: {report.tail_means!r}")
        if report.verdict == "inconclusive":
            manifest.warnings.append("stability probe inconclusive")
        rows = [{"seed": seed + k, "slope": sl}
                for k, sl in enumerate(report.per_seed_slopes)]
        comments = [
            f"config={config_echo(config)}",
            f"verdict={report.verdict} growth_slope={report.growth_slope!r}",
            f"slope_ci={report.slope_ci!r} tail_means={report.tail_means!r}",
        ]
        return ("seed", "slope"), rows, comments

    def sojourns(manifest):
        capacity = config.total_service_rate
        # no service capacity is overload, whatever the arrivals
        load = config.total_arrival_rate / capacity if capacity else float("inf")
        if load >= 1.0:
            manifest.warnings.append(
                f"offered load {load!r} >= 1: sojourn statistics are "
                "unreliable; rerun with --probe for a stability verdict"
            )
            cutoff = args.horizon
        else:
            cutoff = args.horizon - exp.CENSOR_MARGIN / (1.0 - load)
            if cutoff <= warmup:
                manifest.warnings.append("horizon too short for a censoring margin")
                cutoff = args.horizon

        summary = exp.measure_sojourns(config, args.horizon, warmup, args.reps,
                                       base_seed=seed, cutoff=cutoff,
                                       jobs=args.jobs)
        manifest.events = summary.events
        print(f"clients: {summary.clients} (censored in window: {summary.censored})")
        print(f"mean sojourn: {summary.mean_sojourn!r}")
        print(f"throughput: {summary.throughput!r} ci95={summary.ci95!r}")
        total_seen = summary.clients + summary.censored
        if total_seen and summary.censored / total_seen > CENSOR_WARN_FRACTION:
            manifest.warnings.append(
                f"{summary.censored} of {total_seen} in-window clients censored"
            )
        rows = []
        for k, (total, done, cens) in enumerate(summary.per_rep):
            rows.append({
                "rep": k, "seed": seed + k, "clients": done, "censored": cens,
                "mean_sojourn": total / done if done else None,
                "throughput": done / total if done else None,
            })
        comments = [
            f"config={config_echo(config)}",
            f"horizon={args.horizon!r} warmup={warmup!r} cutoff={cutoff!r}",
            f"pooled mean_sojourn={summary.mean_sojourn!r} "
            f"throughput={summary.throughput!r} ci95={summary.ci95!r}",
            f"clients={summary.clients} censored={summary.censored}",
        ]
        return (("rep", "seed", "clients", "censored", "mean_sojourn",
                 "throughput"), rows, comments)

    return _run(args, {"config": json.loads(config_echo(config)),
                       "horizon": args.horizon, "warmup": warmup,
                       "reps": args.reps, "probe": bool(args.probe)},
                range(seed, seed + args.reps),
                "probe.csv" if args.probe else "sojourns.csv",
                probe if args.probe else sojourns)


# ---------------------------------------------------------------------------
# mean field

def cmd_meanfield(args) -> int:
    lam, beta, cap = args.lam, args.beta, args.bcap

    def trajectory(manifest):
        sample_dt = (args.t_end / 100.0 if args.sample_dt is None
                     else args.sample_dt)
        samples = integrate(args.policy, point_mass(0, cap), args.t_end,
                            dt=args.dt, sample_dt=sample_dt,
                            lam=lam, beta=beta)
        final = samples[-1][1]
        rhs = make_rhs(args.policy, lam, beta)
        print(f"integrated to t={samples[-1][0]!r} ({len(samples)} samples)")
        print(f"mean occupancy: {mean_occupancy(final)!r}")
        print(f"residual: {float(np.max(np.abs(rhs(final.x))))!r}")
        columns = ("t",) + tuple(f"x_{k}" for k in range(cap + 1))
        rows = [dict(zip(columns, (t, *state.x))) for t, state in samples]
        return columns, rows, [f"policy={args.policy} lambda={lam!r} "
                               f"beta={beta!r} B={cap} dt={args.dt!r}"]

    def fixed_point(manifest):
        fp = solve_fixed_point_rlo(lam, beta, cap, tol=args.tol)
        manifest.solver = {"residual": fp.residual}
        print(f"y (mean occupancy): {fp.y!r}")
        print(f"z: {fp.z!r} residual: {fp.residual!r}")
        if lam > 0:
            print(f"sojourn: {sojourn_time(fp.y, lam)!r} "
                  f"throughput: {throughput(fp.y, lam)!r}")
        else:
            print("sojourn/throughput: undefined for an empty system")
        rows = [{"k": k, "xi_k": v} for k, v in enumerate(fp.xi)]
        return ("k", "xi_k"), rows, [
            f"lambda={lam!r} beta={beta!r} B={cap}",
            f"y={fp.y!r} z={fp.z!r} residual={fp.residual!r}"]

    def equilibrium(manifest):
        with warnings.catch_warnings():
            # the flagged field is reported below; skip the noisy banner
            warnings.simplefilter("ignore", RuntimeWarning)
            eq = equilibrium_rls(lam, beta, cap, tol=args.tol)
        y = mean_occupancy(eq.state)
        manifest.solver = {"residual": eq.residual, "roots": eq.roots,
                           "flagged": eq.flagged}
        print(f"y (mean occupancy): {y!r}")
        print(f"residual: {eq.residual!r} roots: {eq.roots}")
        if lam > 0:
            print(f"sojourn: {sojourn_time(y, lam)!r} "
                  f"throughput: {throughput(y, lam)!r}")
        if eq.flagged:
            manifest.warnings.append(
                f"the rls mass defect changes sign {eq.roots} times")
        rows = [{"k": k, "x_k": v} for k, v in enumerate(eq.state.x)]
        return ("k", "x_k"), rows, [
            f"lambda={lam!r} beta={beta!r} B={cap}",
            f"y={y!r} residual={eq.residual!r} roots={eq.roots}"]

    if args.mode == "integrate":
        csv_name, body = "trajectory.csv", trajectory
    elif args.policy == "rlo":
        csv_name, body = "fixed_point.csv", fixed_point
    else:
        csv_name, body = "equilibrium.csv", equilibrium
    return _run(args, {"policy": args.policy, "lambda": lam, "beta": beta,
                       "bcap": cap, "mode": args.mode, "t_end": args.t_end,
                       "dt": args.dt, "tol": args.tol},
                (), csv_name, body)


# ---------------------------------------------------------------------------
# verify suites: one acceptance claim each, returning (ok, detail)

def check_coupling():
    # claim 09: red+green ~ Poisson(4), blue+red mean 14 within 3 SE
    rg = []
    br = []
    for seed in range(9000, 19000):
        tr = simulate_coupled((5, 5), (1.0, 1.0), (1.0, 1.0), horizon=2.0,
                              seed=seed)
        rg.append(sum(tr.final.red) + sum(tr.final.green))
        br.append(sum(tr.final.blue) + sum(tr.final.red))
    stat, df, p = poisson_gof(rg, 4.0)
    mean_br = float(np.mean(br))
    se = standard_error(br)
    ok = p > 0.01 and abs(mean_br - 14.0) <= 3 * se
    detail = (f"red+green ~ Poisson(4): chi2={stat:.2f} df={df} p={p:.4f}; "
              f"blue+red mean={mean_br:.3f} (expect 14 within {3 * se:.3f})")
    return ok, detail


def check_kurtz():
    # claim 06: the sup-L1 gap to the ode shrinks from m=100 to m=1000 and
    # ends under 0.05
    lam, beta, b_cap = 0.8, 0.5, 60
    ode = integrate("rlo", point_mass(0, b_cap), 20.0, dt=1e-3, sample_dt=1.0,
                    lam=lam, beta=beta)
    sup_mean = {}
    for m in (100, 1000):
        cfg = SystemConfig(m=m, policy="rlo", arrival_rates=lam,
                           resample_rate=beta, cap=b_cap)
        devs = [exp.kurtz_deviation(cfg, ode, seed=6000 + s) for s in range(20)]
        sup_mean[m] = sum(devs) / len(devs)
    shrinks = sup_mean[1000] < sup_mean[100]
    small = sup_mean[1000] < 0.05
    ok = shrinks and small
    detail = (f"mean sup-L1 gap: m=100 {sup_mean[100]:.3f}, m=1000 "
              f"{sup_mean[1000]:.3f}; shrinks with m "
              f"{'ok' if shrinks else 'FAIL'}; under 0.05 "
              f"{'ok' if small else 'FAIL'}")
    return ok, detail


def check_lyapunov():
    # claim 10: the exact drift on the 13^3 grid at m=3 is negative outside
    # the finite set the proof carves out
    eps, gamma = Fraction(1, 10), Fraction(1, 20)
    cfg = SystemConfig(m=3, policy="rls", arrival_rates=Fraction(1, 5),
                       service_rates=Fraction(1), resample_rate=Fraction(1))
    k_star = exp.drift_exclusion_threshold(cfg, eps, gamma)
    non_negative = [state for state in product(range(13), repeat=3)
                    if exp.lyapunov_drift(state, cfg, eps, gamma) >= 0]
    # the excluded set (an empty server, population < k_star) is the origin
    ok = k_star == 1 and non_negative == [(0, 0, 0)]
    detail = (f"2197 states: drift < 0 everywhere but {non_negative} "
              f"(threshold {k_star})" if ok
              else f"threshold {k_star}, non-negative at {non_negative[:4]}")
    return ok, detail


def check_ode():
    # claim 11: mass conservation, the tail form, order preservation and
    # convergence of the rlo flow
    lam, beta = 0.8, 0.5
    rng = np.random.default_rng(110)
    states = rng.dirichlet(np.ones(41), size=1000)
    mass = max(max(abs(float(rhs_rlo(x, lam, beta).sum())),
                   abs(float(rhs_rls(x, lam, beta).sum()))) for x in states)
    mass_ok = mass < 1e-12

    h = 1e-6
    tail_gap = 0.0
    for x in states[:50]:
        stepped = tail_sums(x + h * rhs_rlo(x, lam, beta))
        fd = (stepped - tail_sums(x)) / h
        tail_gap = max(tail_gap, float(np.max(np.abs(
            fd - rhs_rlo_tail(tail_sums(x), lam, beta)))))
    tail_ok = tail_gap < 1e-6

    def end(x0, t_end):
        return integrate("rlo", x0, t_end, dt=5e-3, sample_dt=t_end,
                         lam=lam, beta=beta)[-1][1].x

    order_rng = np.random.default_rng(111)
    violations = 0
    for _ in range(100):
        pair = order_rng.dirichlet(np.ones(31), size=2)
        tails = np.stack([tail_sums(p) for p in pair])
        lo = measure_from_tails(tails.min(axis=0))
        hi = measure_from_tails(tails.max(axis=0))
        if not (st_leq(lo, hi)
                and st_leq(end(lo, 2.0), end(hi, 2.0), slack=1e-9)):
            violations += 1
    order_ok = violations == 0

    # the full start drains at rate 1 - lam, so the meeting point is far out
    l1 = float(np.sum(np.abs(end(point_mass(0, 60), 400.0)
                             - end(point_mass(60, 60), 400.0))))
    converge_ok = l1 < 1e-6

    ok = mass_ok and tail_ok and order_ok and converge_ok
    detail = (f"mass drift {mass:.1e}; tail-form gap {tail_gap:.1e}; "
              f"{violations} order violations in 100 pairs; "
              f"empty/full start gap {l1:.1e}")
    return ok, detail


def cmd_verify(args) -> int:
    checks = {"coupling": check_coupling, "kurtz": check_kurtz,
              "lyapunov": check_lyapunov, "ode": check_ode}

    def body(manifest):
        rows = []
        for name in checks if args.suite == "all" else (args.suite,):
            ok, detail = checks[name]()
            print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
            if not ok:
                manifest.warnings.append(f"{name} check failed")
            rows.append({"check": name, "passed": int(ok), "detail": detail})
        return ("check", "passed", "detail"), rows, ()

    return _run(args, {"suite": args.suite}, (), "verify.csv", body)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="migrate-sim", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="base seed (default: 0)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel worker threads")
        p.add_argument("--force", action="store_true",
                       help="write into an existing output directory")

    b = sub.add_parser("balance", help="closed-system time to balance")
    b.add_argument("--m", type=int, required=True, help="number of servers")
    b.add_argument("--n", type=int, required=True, help="number of clients")
    b.add_argument("--initial-file", default=None,
                   help="occupancy file (default: all clients on the first "
                        "server)")
    b.add_argument("--stop", default="exact", help='"exact" or "eps=<value>"')
    b.add_argument("--reps", type=int, default=200)
    b.add_argument("--horizon", type=float, default=None,
                   help="censoring horizon (default: 100x the bound)")
    b.add_argument("--out", default="runs/balance")
    common(b)
    b.set_defaults(func=cmd_balance)

    o = sub.add_parser("open", help="open-system sojourn statistics")
    o.add_argument("--m", type=int, default=None)
    o.add_argument("--policy", choices=("rls", "rlo"), required=True)
    o.add_argument("--lambda", dest="lam", required=True,
                   help="arrival rate: scalar or comma list")
    o.add_argument("--mu", default="1", help="service rate: scalar or comma list")
    o.add_argument("--beta", type=float, default=1.0)
    o.add_argument("--horizon", type=float, default=2000.0)
    o.add_argument("--reps", type=int, default=20)
    o.add_argument("--exclude-self", action="store_true",
                   help="rlo uniform walk without self-jumps")
    o.add_argument("--probe", action="store_true",
                   help="run the stability probe instead of sojourn stats")
    o.add_argument("--out", default="runs/open")
    common(o)
    o.set_defaults(func=cmd_open)

    f = sub.add_parser("meanfield", help="occupancy flow and equilibria")
    f.add_argument("--policy", choices=("rls", "rlo"), required=True)
    f.add_argument("--lambda", dest="lam", type=float, required=True)
    f.add_argument("--beta", type=float, required=True)
    f.add_argument("--bcap", type=int, default=100, help="occupancy bound B")
    f.add_argument("--mode", choices=("integrate", "fixedpoint"),
                   default="fixedpoint")
    f.add_argument("--t-end", type=float, default=50.0)
    f.add_argument("--dt", type=float, default=1e-3,
                   help="RK4 step for --mode integrate (default 0.001); "
                        "the fixed-point solvers take no step")
    f.add_argument("--sample-dt", type=float, default=None)
    f.add_argument("--tol", type=float, default=1e-10)
    f.add_argument("--out", default="runs/meanfield")
    f.add_argument("--force", action="store_true")
    f.set_defaults(func=cmd_meanfield)

    v = sub.add_parser("verify", help="re-run acceptance claims 06, 09-11")
    v.add_argument("suite", choices=("coupling", "kurtz", "lyapunov", "ode",
                                     "all"),
                   help="acceptance claim 09, 06, 10 or 11, or all four")
    v.add_argument("--out", default=None,
                   help="also write the results as CSV + manifest")
    v.add_argument("--force", action="store_true")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
