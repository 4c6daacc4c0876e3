"""Balance bounds, initial placements, and time-to-balance measurement.

The closed-system question is how long the load-sensitive resampling
dynamics needs to even out an arbitrary initial placement of n clients on
m servers. Exact balance means no two servers differ by more than one
client; relative (eps) balance means every server sits within a factor
1 +- eps of the ideal level n/m. ``simulate_closed`` checks both as one
band on every occupancy: exact balance is the band [n // m, ceil(n/m)],
and the eps band's arithmetic is exact rational, so boundary occupancies
are classified deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .ctmc import simulate_closed
from .model import SystemConfig
from .stats import map_chunks, mean_sd, normal_ci


def balance_time_bound(m: int, n: int) -> float:
    """Upper bound on the expected time to exact balance from any start,
    on the unit resample clock.

    Evaluates 3 (1 + ln m) (m^2 / n + ln m + 1) with the natural log.
    """
    if m < 2:
        raise ValueError(f"the bound needs at least two servers, got m={m}")
    if n < 1:
        raise ValueError(f"the bound needs at least one client, got n={n}")
    log_m = math.log(m)
    return 3.0 * (1.0 + log_m) * (m * m / n + log_m + 1.0)


def lower_bound_estimates(m: int, n: int) -> dict:
    """Reference lower bounds on the unit resample clock, to report
    alongside measured balance times.

    last_move   m^2 / (m + n): expected wait for the final accepted move
                when exact balance requires hitting one specific server
                (sharp when m divides n).
    all_at_one  ln m: cost of draining a single fully loaded server, a
                lower bound only for the everything-on-one-server start.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 servers and n >= 1 clients")
    return {"last_move": m * m / (m + n), "all_at_one": math.log(m)}


# --- initial placements ----------------------------------------------------

def initial_all_at_one(m: int, n: int) -> tuple:
    """All n clients stacked on the first server."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return (n,) + (0,) * (m - 1)


def initial_from_file(path, m: int) -> tuple:
    """Read an occupancy vector: one non-negative integer per line or comma-separated."""
    with open(path) as fh:
        text = fh.read()
    tokens = [tok for tok in text.replace(",", " ").split() if tok]
    try:
        counts = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"{path}: occupancies must be integers, got {tokens!r}")
    if len(counts) != m:
        raise ValueError(f"{path}: found {len(counts)} occupancies, expected m={m}")
    if any(c < 0 for c in counts):
        raise ValueError(f"{path}: occupancies must be non-negative")
    return counts


# --- measurement -----------------------------------------------------------

@dataclass
class BalanceTimeResult:
    """Replicated time-to-balance measurement for one (config, start, stop) cell."""

    horizon: float
    times: tuple  # entry k from seed base_seed + k; None where censored
    censored: int
    mean: Optional[float]  # over uncensored replications
    sd: Optional[float]
    ci95: Optional[tuple]  # None when fewer than 20 uncensored replications
    bound: Optional[float]
    lower_bounds: Optional[dict]
    moves: int  # accepted moves, summed over the replications


def measure_balance_time(config: SystemConfig, initial: Sequence[int],
                         eps=None, reps: int = 2, base_seed: int = 0,
                         horizon: Optional[float] = None,
                         jobs: int = 1) -> BalanceTimeResult:
    """Replicate a closed run over seeds base_seed .. base_seed + reps - 1.

    Each run stops at exact balance when eps is None, and at eps balance
    otherwise. The runs, the bound and the lower bounds are all on the unit
    resample clock, the only one ``simulate_closed`` takes. The default
    horizon is 100 times the bound, so an uncensored run is overwhelmingly
    likely whenever the dynamics does balance. Censored replications are
    excluded from the mean but counted and reported. A confidence interval
    (normal approximation) is attached only when at least 20 replications
    finished.

    The seeds go to ``simulate_closed`` a chunk at a time: one chunk with
    jobs 1, about four per thread otherwise, each run in one C call. Each
    time is the one ``simulate_closed`` gives its seed alone.
    """
    if reps < 2:
        raise ValueError(f"need at least 2 replications, got {reps}")
    initial = tuple(int(c) for c in initial)
    m = config.m
    n = sum(initial)
    bound = balance_time_bound(m, n) if m >= 2 and n >= 1 else None
    if horizon is None:
        if bound is None:
            raise ValueError("horizon required when the analytic bound is undefined")
        horizon = 100.0 * bound

    def runs(seeds):  # one closed_loop call per chunk of seeds
        return simulate_closed(config, initial, horizon=horizon, eps=eps,
                               seed=seeds)

    chunks = map_chunks(runs, range(base_seed, base_seed + reps), jobs)
    times = [t for chunk in chunks for t in chunk.stop_times]

    done = [t for t in times if t is not None]
    if done:
        mean, sd = mean_sd(done)
        ci = normal_ci(done)
    else:
        mean = sd = ci = None
    lower = lower_bound_estimates(m, n) if n >= 1 else None
    return BalanceTimeResult(
        horizon=horizon, times=tuple(times),
        censored=len(times) - len(done),
        mean=mean, sd=sd, ci95=ci, bound=bound, lower_bounds=lower,
        moves=sum(c.trajectory.event_counts["migration"] for c in chunks),
    )
