"""Core types and primitive operations for the migration system.

A system is a pool of ``m`` parallel servers. Each server serves its
resident clients processor-sharing style at a fixed total rate, so a client
sharing a server with ``k - 1`` others receives a ``rate / k`` slice.
Clients may arrive from outside, depart on service completion, and resample
their server at a fixed per-client rate. Two resampling policies exist:

* ``rls``: the client draws a candidate server uniformly at random and moves
  only if its service share would strictly improve there.
* ``rlo``: the client hops to a uniformly drawn server regardless of load
  (any of the m servers, or one of the other m - 1 when self-jumps are
  excluded), so the move is always accepted.

Everything downstream (event-driven simulation, balance measurement, mean
field limits) builds on the value objects and predicates defined here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


class Policy(str, Enum):
    """Resampling policy: load-sensitive ("rls") or load-oblivious ("rlo")."""

    RLS = "rls"
    RLO = "rlo"


class ConfigError(ValueError):
    """Raised when a system description is structurally invalid."""


def _as_rate_tuple(value, m: int, key: str) -> tuple:
    """Broadcast a scalar rate to length m, or validate a length-m sequence.

    Exact numeric types (int, Fraction) are kept as-is so that callers doing
    exact-arithmetic audits, such as the drift enumeration, are not silently
    degraded to floats.
    """
    if isinstance(value, numbers.Real):
        value = [value] * m
    try:
        rates = tuple(value)
    except TypeError:
        raise ConfigError(f"{key!r} must be a number or a sequence of numbers")
    if len(rates) != m:
        raise ConfigError(f"{key!r} has length {len(rates)}, expected m={m}")
    for i, r in enumerate(rates):
        if not isinstance(r, numbers.Real) or not math.isfinite(float(r)) or r < 0:
            raise ConfigError(f"{key}[{i}] = {r!r} is not a finite non-negative rate")
    return rates


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one system.

    m                number of servers (>= 1)
    service_rates    per-server total service rate, length m
    arrival_rates    per-server exogenous arrival rate, length m
    resample_rate    per-client resampling clock rate (>= 0)
    policy           Policy.RLS or Policy.RLO
    cap              optional per-server occupancy cap: arrivals beyond it
                     are dropped and migrations onto a full server are
                     blocked, each counted
    include_self     whether an rlo hop may land on its origin (uniform over
                     all m servers) or not (uniform over the other m - 1)
    """

    m: int
    service_rates: tuple = ()
    arrival_rates: tuple = ()
    resample_rate: float = 1.0
    policy: Policy = Policy.RLS
    cap: Optional[int] = None
    include_self: bool = True

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ConfigError(f"'m' must be a positive integer, got {self.m!r}")
        try:
            object.__setattr__(self, "policy", Policy(self.policy))
        except ValueError:
            raise ConfigError(
                f"'policy' must be one of {[p.value for p in Policy]}, got {self.policy!r}"
            ) from None
        svc = self.service_rates if self.service_rates != () else 1.0
        arr = self.arrival_rates if self.arrival_rates != () else 0.0
        object.__setattr__(self, "service_rates", _as_rate_tuple(svc, self.m, "service_rates"))
        object.__setattr__(self, "arrival_rates", _as_rate_tuple(arr, self.m, "arrival_rates"))
        if (
            not isinstance(self.resample_rate, numbers.Real)
            or not math.isfinite(float(self.resample_rate))
            or self.resample_rate < 0
        ):
            raise ConfigError(f"'resample_rate' must be >= 0, got {self.resample_rate!r}")
        if self.policy is Policy.RLO and not self.include_self and self.m < 2:
            raise ConfigError("cannot exclude self-jumps with a single server")
        if self.cap is not None and (not isinstance(self.cap, int) or self.cap < 1):
            raise ConfigError(f"'cap' must be a positive integer, got {self.cap!r}")

    @property
    def total_arrival_rate(self) -> float:
        return math.fsum(self.arrival_rates)

    @property
    def total_service_rate(self) -> float:
        return math.fsum(self.service_rates)


@dataclass(frozen=True)
class SystemState:
    """Occupancy snapshot: time and per-server client counts."""

    t: float
    counts: tuple

    def __post_init__(self):
        counts = tuple(map(int, self.counts))
        if counts and min(counts) < 0:
            raise ValueError(f"negative occupancy in state {counts}")
        object.__setattr__(self, "counts", counts)


def exact_fraction(value) -> Fraction:
    """Read a tolerance or rate as an exact rational.

    Floats are interpreted through their decimal literal (0.1 means 1/10,
    not the nearest binary double), so band edges land where the caller
    wrote them.
    """
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def eps_band(m: int, n: int, eps) -> tuple:
    """Integer occupancy band [lo, hi] allowed within relative deviation eps.

    The target level is the exact rational n/m; a server occupancy N is in
    the band iff (1 - eps) n/m <= N <= (1 + eps) n/m, endpoints included.
    Raises unless some placement of the n clients keeps all m occupancies
    in the band, that is unless m*lo <= n <= m*hi, since the predicate
    could then never hold: eps_band(4, 7, 0.3) would be (2, 2), and 7
    clients cannot all sit at level 2 on 4 servers.
    """
    eps = exact_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    p = Fraction(n, m)
    lo = math.ceil((1 - eps) * p)
    hi = math.floor((1 + eps) * p)
    if not m * lo <= n <= m * hi:
        raise ValueError(
            f"no placement of {n} clients on {m} servers keeps every "
            f"occupancy within a factor 1 +- {float(eps)} of n/m; the "
            "predicate is unsatisfiable"
        )
    return lo, hi


def rls_accepts(service_from, count_from, service_to, count_to) -> bool:
    """Would a load-sensitive client move from its server to a candidate?

    The client currently gets service_from / count_from. After joining the
    candidate it would get service_to / (count_to + 1). The move happens iff
    that share strictly improves; ties stay put. Cross-multiplied so integer
    or rational inputs are decided exactly.
    """
    if count_from < 1:
        raise ValueError("source server must hold the deciding client (count_from >= 1)")
    return service_to * count_from > service_from * (count_to + 1)


def empirical_measure(counts: Sequence[int], b_cap: int) -> np.ndarray:
    """Fraction of servers holding exactly k clients, k = 0 .. b_cap.

    Raises if any server exceeds b_cap: truncation is never silent.
    """
    counts = tuple(int(c) for c in counts)
    m = len(counts)
    if m == 0:
        raise ValueError("empty system has no empirical measure")
    over = [i for i, c in enumerate(counts) if c > b_cap]
    if over:
        raise ValueError(
            f"servers {over} hold more than b_cap={b_cap} clients; "
            "raise b_cap instead of truncating"
        )
    hist = np.bincount(np.asarray(counts, dtype=np.int64), minlength=b_cap + 1)
    return hist / m


def tail_sums(x) -> np.ndarray:
    """s_k = sum of x_j over j >= k. s_0 is the total mass, s_{B+1} would be 0."""
    x = np.asarray(x, dtype=float)
    return np.cumsum(x[::-1])[::-1]


def measure_from_tails(s) -> np.ndarray:
    """Inverse of tail_sums: x_k = s_k - s_{k+1}, with s beyond the end = 0."""
    s = np.asarray(s, dtype=float)
    x = s.copy()
    x[:-1] -= s[1:]
    return x
