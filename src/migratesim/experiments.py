"""Quantitative studies on top of the simulator and the mean-field layer.

Each study follows the same shape: a deterministic seed plan (cell index
times a fixed stride plus the replication index), independent replications
that can fan out over threads, and a plain-data result that the CLI can
dump to CSV next to a JSON manifest. Verdicts here are statistical, never
formal: a probe can answer "inconclusive" rather than guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .ctmc import simulate_open, sojourn_window
from .meanfield import (
    equilibrium_rls,
    mean_occupancy,
    solve_fixed_point_rlo,
    throughput,
)
from .model import (
    ConfigError,
    Policy,
    SystemConfig,
    empirical_measure,
    rls_accepts,
)
from .stats import SEED_STRIDE, map_replications, normal_ci, ols_slope


# ---------------------------------------------------------------------------
# stability probe

# samples per population trace: a probe over horizon T reads the population
# every T / PROBE_SAMPLES
PROBE_SAMPLES = 500


@dataclass
class StabilityReport:
    """Statistical verdict on positive recurrence from finite traces."""

    verdict: str  # stable | unstable | inconclusive
    growth_slope: float  # mean over per-seed slopes of total population
    slope_ci: Optional[tuple]
    tail_means: tuple  # population means over the 3rd and 4th quarter windows
    per_seed_slopes: tuple  # in seed_set order
    events: dict  # event tallies by kind, summed over the seeds


def _summed_events(tallies) -> dict:
    """Per-replication event tallies summed by kind, in the loop's key order."""
    total = dict.fromkeys(tallies[0], 0)
    for tally in tallies:
        for kind, n in tally.items():
            total[kind] += n
    return total


def stability_probe(config: SystemConfig, horizon: float,
                    seed_set: Sequence[int], jobs: int = 1) -> StabilityReport:
    """Classify an open system as stable, unstable, or inconclusive.

    Each seed contributes one total-population trace. The least-squares
    slope over the second half of the horizon is averaged over seeds;
    "stable" needs the slope interval to cover zero AND the third- and
    fourth-quarter population means to agree within 10%, "unstable" needs
    the interval to sit strictly above zero. Anything else is reported as
    inconclusive rather than guessed. With fewer seeds than the interval
    rule allows, no interval exists and the verdict is inconclusive.
    """
    if config.cap is not None:
        raise ConfigError(
            "stability probes need an uncapped system: a cap bounds the "
            "population and forces every config to look stable"
        )
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    seeds = [int(s) for s in seed_set]
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")

    def population_path(seed):
        traj, _ = simulate_open(config, horizon, seed=seed,
                                sample_dt=horizon / PROBE_SAMPLES,
                                track_sojourns=False)
        return (np.asarray(traj.times), traj.counts.sum(axis=1).astype(float),
                traj.event_counts)

    paths = map_replications(population_path, seeds, jobs)

    times = paths[0][0]
    pops = np.stack([p for _, p, _ in paths])
    half = times >= horizon / 2.0
    q3 = half & (times < 0.75 * horizon)
    q4 = times >= 0.75 * horizon
    t_half = times[half]
    slopes = tuple(ols_slope(t_half, pop[half]) for pop in pops)
    mean_pop = pops.mean(axis=0)
    m3 = float(mean_pop[q3].mean())
    m4 = float(mean_pop[q4].mean())

    slope = float(np.mean(slopes))
    ci = normal_ci(slopes)
    quarters_agree = abs(m4 - m3) <= 0.10 * max(m3, m4) or max(m3, m4) < 1e-9
    if ci is None:
        verdict = "inconclusive"
    elif ci[0] > 0.0:
        verdict = "unstable"
    elif ci[0] <= 0.0 <= ci[1] and quarters_agree:
        verdict = "stable"
    else:
        verdict = "inconclusive"
    return StabilityReport(
        verdict=verdict, growth_slope=slope, slope_ci=ci,
        tail_means=(m3, m4), per_seed_slopes=slopes,
        events=_summed_events([ev for _, _, ev in paths]),
    )


# ---------------------------------------------------------------------------
# Lyapunov drift enumeration

def _occupancy_step(count: int, eps, up: bool):
    # change in max(eps, n_i) when one client enters (up) or leaves
    if up:
        return 1 - eps if count == 0 else 1
    return eps - 1 if count == 1 else -1


def lyapunov_drift(state, config: SystemConfig, eps, gamma_check):
    """Exact generator drift of f(n) = sum_i max(eps, n_i) at one state.

    Enumerates every transition the open rls system can make from n:
    arrivals, departures, and accepted migrations at rate beta*n_i/m per
    (origin, candidate) pair, candidates drawn over all m servers with the
    origin itself always rejected by strictness. Arithmetic stays in
    whatever number type the inputs carry, so Fraction-valued rates give an
    exact rational drift.
    """
    if config.policy is not Policy.RLS:
        raise ConfigError("drift analysis applies to the rls policy")
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps!r}")
    if gamma_check <= 0:
        raise ConfigError(f"gamma must be positive, got {gamma_check!r}")
    lam = config.arrival_rates
    mu = config.service_rates
    lhs = eps * sum(mu)
    rhs = sum(mu) - sum(lam) - gamma_check
    if not lhs < rhs:
        raise ConfigError(
            "eps*sum(mu) must stay below sum(mu - lambda) - gamma: "
            f"{lhs!r} >= {rhs!r}"
        )

    counts = tuple(int(c) for c in state)
    if len(counts) != config.m or any(c < 0 for c in counts):
        raise ValueError(f"state must be {config.m} non-negative occupancies")
    m = config.m
    beta = config.resample_rate
    cap = config.cap

    terms = []
    for i, ni in enumerate(counts):
        if lam[i] and (cap is None or ni < cap):
            terms.append(lam[i] * _occupancy_step(ni, eps, up=True))
        if ni >= 1:
            terms.append(mu[i] * _occupancy_step(ni, eps, up=False))
            if beta:
                for j, nj in enumerate(counts):
                    if j == i or (cap is not None and nj >= cap):
                        continue
                    if rls_accepts(mu[i], ni, mu[j], nj):
                        delta = (_occupancy_step(ni, eps, up=False)
                                 + _occupancy_step(nj, eps, up=True))
                        terms.append(beta * ni * delta / m)
    return sum(terms)


def drift_exclusion_threshold(config: SystemConfig, eps, gamma_check) -> int:
    """Population size above which empty-server states must drift down.

    States with no empty server drift below -gamma outright; for the rest,
    the migration feed into empty servers (at least beta*p/m) dominates
    once the population p reaches this threshold. Together the two cases
    leave a finite set where the drift may be non-negative.
    """
    lam_sum = sum(config.arrival_rates)
    mu_sum = sum(config.service_rates)
    mu_min = min(config.service_rates)
    if config.resample_rate <= 0:
        raise ConfigError("the drift argument needs a positive resample rate")
    need = config.m * (lam_sum - mu_min + eps * mu_sum + gamma_check)
    return max(1, math.floor(need / (eps * config.resample_rate)) + 1)


# ---------------------------------------------------------------------------
# Kurtz deviation

def counts_from_measure(x0, m: int) -> tuple:
    """Per-server occupancies realizing a measure exactly at system size m.

    m * x0_k must be integral for every level k; otherwise no finite system
    of m servers has x0 as its empirical measure and we refuse rather than
    round.
    """
    x = np.asarray(getattr(x0, "x", x0), dtype=float)
    scaled = x * m
    per_level = np.rint(scaled)
    if float(np.max(np.abs(scaled - per_level))) > 1e-9:
        raise ValueError(
            f"m*x0 is not integral at m={m}; pick a representable x0 "
            "(every level fraction a multiple of 1/m)"
        )
    per_level = per_level.astype(int)
    if int(per_level.sum()) != m:
        raise ValueError(
            f"level counts sum to {int(per_level.sum())}, expected m={m}"
        )
    counts: List[int] = []
    for k, c in enumerate(per_level):
        counts.extend([k] * c)
    return tuple(counts)


def kurtz_deviation(config: SystemConfig, ode: list, seed: int) -> float:
    """Sup over sample times of the L1 gap between one run and the ODE.

    ``ode`` is the integrate output for matching parameters, with at least
    two samples, so one integration serves many seeds. The simulation
    starts from counts that realize its first state exactly, runs to its
    last sample time and is sampled every ``ode[1][0]``, the ode's own
    spacing; the two are compared pairwise, their times within 1e-9.
    """
    if len(set(config.arrival_rates)) != 1 or set(config.service_rates) != {1.0}:
        raise ConfigError(
            "the mean-field limit assumes homogeneous arrivals and unit "
            "service rates"
        )
    (_, x0), (t_end, _) = ode[0], ode[-1]
    b_cap = x0.x.size - 1
    if config.cap != b_cap:
        raise ConfigError(
            f"config.cap={config.cap!r} must equal the ode's top level "
            f"{b_cap} so both sides live on the same support"
        )
    if len(ode) < 2:
        raise ValueError(f"the ode needs at least two samples, got {len(ode)}")
    initial = counts_from_measure(x0, config.m)
    traj, _ = simulate_open(config, horizon=t_end, seed=seed,
                            sample_dt=ode[1][0], initial=initial,
                            track_sojourns=False)
    if len(ode) != len(traj.times):
        raise RuntimeError(
            f"sample grids diverged: {len(traj.times)} simulation rows vs "
            f"{len(ode)} ode rows"
        )
    worst = 0.0
    for (t_ode, xs), t_sim, row in zip(ode, traj.times, traj.counts):
        if abs(t_ode - t_sim) > 1e-9:
            raise RuntimeError(
                f"sample grids diverged at t={t_sim!r} vs {t_ode!r}"
            )
        emp = empirical_measure(row, b_cap)
        worst = max(worst, float(np.abs(emp - xs.x).sum()))
    return worst


# ---------------------------------------------------------------------------
# throughput comparison

@dataclass
class SojournSummary:
    """Pooled sojourn statistics for one configuration over many seeds."""

    clients: int
    censored: int
    mean_sojourn: Optional[float]  # None when no sojourn completed
    throughput: Optional[float]
    ci95: Optional[tuple]  # over per-replication throughputs
    per_rep: tuple  # (total_sojourn, completed, censored) per seed, in order
    events: dict  # event tallies by kind, summed over the seeds


def measure_sojourns(config: SystemConfig, horizon: float, warmup: float,
                     reps: int, cutoff: float, base_seed: int = 0,
                     jobs: int = 1) -> SojournSummary:
    """Replicate one open run over seeds base_seed .. base_seed + reps - 1
    and pool the in-window sojourns.

    The window keeps clients arriving in [warmup, cutoff]; with cutoff at
    the horizon itself, late arrivals are counted censored rather than
    excluded. Throughput is the inverse of the pooled mean sojourn, its
    interval the normal one over per-replication throughputs.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if reps < 1:
        raise ValueError("need at least one replication")
    if not 0 <= warmup <= horizon:
        raise ValueError("warmup must lie within [0, horizon]")

    def sojourn_rep(seed):
        traj, sojourns = simulate_open(config, horizon, seed=seed, sample_dt=None)
        total, completed, in_window = sojourn_window(sojourns, warmup, cutoff)
        return (total, completed, in_window - completed), traj.event_counts

    outs = map_replications(sojourn_rep, range(base_seed, base_seed + reps), jobs)
    reps_out = [rep for rep, _ in outs]

    clients = sum(r[1] for r in reps_out)
    censored = sum(r[2] for r in reps_out)
    if clients:
        pooled = math.fsum(r[0] for r in reps_out) / clients
        thr = 1.0 / pooled
        ci = normal_ci([r[1] / r[0] for r in reps_out if r[1] > 0])
    else:
        pooled = thr = ci = None
    return SojournSummary(
        clients=clients, censored=censored, mean_sojourn=pooled,
        throughput=thr, ci95=ci, per_rep=tuple(reps_out),
        events=_summed_events([ev for _, ev in outs]),
    )


@dataclass
class ThroughputRow(SojournSummary):
    """One (m, lambda, policy) cell of the comparison table."""

    m: int
    lam: float
    policy: str
    prediction: float  # m = infinity mean-field value
    rel_error: float


# the comparison runs every policy, in this order, in each cell
POLICIES = (Policy.RLS, Policy.RLO)

# a sojourn window over horizon T at load rho takes the clients arriving in
# [WARMUP_FRACTION * T, T - CENSOR_MARGIN / (1 - rho)]
WARMUP_FRACTION = 0.2
CENSOR_MARGIN = 12.0


def _predict(policy: Policy, lam: float, beta: float, cap: int):
    if policy is Policy.RLO:
        fp = solve_fixed_point_rlo(lam, beta, cap)
        return throughput(fp.y, lam)
    eq = equilibrium_rls(lam, beta, cap)
    return throughput(mean_occupancy(eq.state), lam)


def throughput_comparison(
    m_list: Sequence[int],
    lambda_grid: Sequence[float],
    beta: float,
    horizon: float = 2000.0,
    reps: int = 20,
    base_seed: int = 0,
    include_self: bool = True,
    prediction_cap: int = 120,
    jobs: int = 1,
) -> List[ThroughputRow]:
    """Mean throughput per (m, lambda, policy), with the mean-field column.

    lambda is the offered load on every server, and both policies run,
    rls then rlo, in each (m, lambda) cell. Sojourns are measured over
    clients arriving in [horizon/5, horizon - 12/(1-lambda)]: the leading
    margin discards the transient, the trailing margin keeps
    right-censoring negligible. Throughput is the inverse of the pooled
    mean sojourn; the interval is over per-replication throughputs. Cell c
    seeds its replications from base_seed + c * SEED_STRIDE, so reps may
    not exceed SEED_STRIDE.
    """
    if reps > SEED_STRIDE:
        raise ValueError(f"{reps} replications overrun the seed stride "
                         f"{SEED_STRIDE}: cells would share seeds")
    for lam in lambda_grid:
        if not 0 < lam < 1:
            raise ValueError(
                f"offered load {lam!r} outside (0, 1): sojourn estimation "
                "needs a stable system"
            )
    warmup = WARMUP_FRACTION * horizon

    predictions = {(lam, pol): _predict(pol, lam, beta, prediction_cap)
                   for lam in lambda_grid for pol in POLICIES}

    rows: List[ThroughputRow] = []
    cell = 0
    for m in m_list:
        for lam in lambda_grid:
            cutoff = horizon - CENSOR_MARGIN / (1.0 - lam)
            if cutoff <= warmup:
                raise ValueError(
                    f"horizon {horizon!r} too short for load {lam!r}: the "
                    "measurement window is empty"
                )
            for pol in POLICIES:
                config = SystemConfig(
                    m=m, policy=pol, arrival_rates=lam,
                    service_rates=1.0, resample_rate=beta,
                    include_self=include_self,
                )
                summary = measure_sojourns(
                    config, horizon, warmup, reps,
                    base_seed=base_seed + cell * SEED_STRIDE,
                    cutoff=cutoff, jobs=jobs,
                )
                if summary.throughput is None:
                    raise RuntimeError(
                        f"no completed sojourns in cell m={m}, lam={lam!r}, "
                        f"policy={pol.value}; lengthen the horizon"
                    )
                pred = predictions[(lam, pol)]
                rows.append(ThroughputRow(
                    **vars(summary), m=m, lam=lam,
                    policy=pol.value, prediction=pred,
                    rel_error=abs(summary.throughput - pred) / pred,
                ))
                cell += 1
    return rows
