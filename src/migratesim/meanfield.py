"""Large-system occupancy dynamics for both migration policies.

As the number of servers grows, the fraction x_k of servers holding exactly
k clients evolves along a deterministic ODE. Both policies share the same
queueing skeleton and differ only in the migration flux:

* load-oblivious ("rlo"): every client hops at rate beta to a uniformly
  chosen server, so a server gains migrants at rate beta * y, where
  y = sum_k k x_k is the mean per-server occupancy. The dynamics collapse
  to a birth-death flow with birth rate lam + beta * y below the cap and
  death rate 1 + beta * k off the empty level.
* load-sensitive ("rls"): a resampled client moves only when the move
  strictly improves its service share, which at this scale means the
  origin holds at least two clients more than the destination. The
  migration terms couple each level to the prefix and suffix of the
  distribution instead of to y alone.

Boundary discipline, used consistently everywhere: an empty server neither
serves nor ejects clients, and a server at the cap accepts neither arrivals
nor migrants. Written as flux differences, every right-hand side then
conserves probability mass exactly, level by level, which is what the
stochastic system does.

The stationary law of the rlo flow is available in closed form up to a
scalar root: flux balance gives xi_i = xi_0 * z**i / prod_{j<=i}(1+beta*j)
with z = lam + beta*y, and z is pinned down by the self-consistency of y,
expressed here as the root of ``g_of_z``. The rls flow has no closed form.
Its right-hand side is quadratic in x, so ``jac_rls`` gives the exact
Jacobian cheaply, and ``equilibrium_rls`` solves rhs_rls(x) = 0 under the
mass constraint by damped Newton (Armijo backtracking, as in Kelley,
"Solving Nonlinear Equations with Newton's Method", SIAM 2003, ch. 1). It
solves from two starts, the empty system and the rlo fixed point, and
reports how well they agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple, Union

import numpy as np

from .ctmc import gauss_eliminate
from .model import Policy

# Mass drift allowed before a step is declared broken, and how far below
# zero a component may dip before clipping is refused.
MASS_TOL = 1e-9
NEG_TOL = 1e-12
# Damped Newton for the rls equilibrium: done once the max-norm residual
# is at rounding level; stuck after this many iterations, or once
# backtracking has halved the step below the last constant.
NEWTON_FLOOR = 8e-15
NEWTON_MAX_ITER = 100
NEWTON_MIN_STEP = 1e-12
# Armijo slope: a step of length s must cut ||rhs||^2 by the factor 1 - ARMIJO*s.
ARMIJO = 1e-4


class SolverError(RuntimeError):
    """A numerical routine left its stated tolerance."""


def _vec(x) -> np.ndarray:
    """Accept a bare vector or anything carrying one in an ``x`` attribute."""
    return np.asarray(getattr(x, "x", x), dtype=float)


@dataclass(frozen=True)
class OdeState:
    """Occupancy distribution over the levels k = 0..B, B = x.size - 1."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1:
            raise ValueError(f"state must be a vector, got shape {x.shape}")
        if abs(float(x.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {float(x.sum())!r} is not 1 within {MASS_TOL}")
        if float(x.min()) < -NEG_TOL:
            k = int(np.argmin(x))
            raise ValueError(f"x[{k}] = {float(x[k])!r} is below -{NEG_TOL}")


def point_mass(k: int, b_cap: int) -> OdeState:
    """The distribution with all servers at level k."""
    if not 0 <= k <= b_cap:
        raise ValueError(f"level {k} outside 0..{b_cap}")
    x = np.zeros(b_cap + 1)
    x[k] = 1.0
    return OdeState(x)


def rhs_rlo(x, lam: float, beta: float) -> np.ndarray:
    """Time derivative of the occupancy distribution under the oblivious walk.

    Birth rate lam + beta*y below the cap (arrivals plus the uniform migrant
    stream), death rate 1 + beta*k off the empty level (one processor-sharing
    completion plus k independent resample clocks). Returns the flux
    differences, so the entries sum to zero up to rounding.
    """
    x = _vec(x)
    b = x.size - 1
    k = np.arange(x.size, dtype=float)
    y = float(k @ x)
    up = (lam + beta * y) * x
    up[b] = 0.0  # full servers accept neither arrivals nor migrants
    down = (1.0 + beta * k) * x
    down[0] = 0.0  # empty servers neither serve nor eject
    dx = -(up + down)
    dx[1:] += up[:-1]
    dx[:-1] += down[1:]
    return dx


def rhs_rlo_tail(s, lam: float, beta: float) -> np.ndarray:
    """Same flow expressed on tail sums s_k = sum_{j>=k} x_j.

    s_0 is the total mass and stays put; for k >= 1 the tail changes only
    through the flux across the k-1 | k boundary. The mean occupancy is
    recovered as y = sum_{j>=1} s_j.
    """
    s = _vec(s)
    y = float(s[1:].sum())
    k = np.arange(s.size, dtype=float)
    s_prev = np.empty_like(s)
    s_prev[0] = 0.0
    s_prev[1:] = s[:-1]
    s_next = np.empty_like(s)
    s_next[-1] = 0.0
    s_next[:-1] = s[1:]
    ds = (lam + beta * y) * (s_prev - s) - (1.0 + beta * k) * (s - s_next)
    ds[0] = 0.0
    return ds


def _rls_terms(x: np.ndarray):
    """Levels, padded T and P, and x shifted up and down, for rhs_rls.

    T is padded two above the cap and P two below zero, so T_{k+j} is
    t_pad[k+j] and P_{k-j} is p_pad[k+2-j] for every level k.
    """
    k = np.arange(x.size, dtype=float)
    t_pad = np.zeros(x.size + 2)
    t_pad[:-2] = np.cumsum((k * x)[::-1])[::-1]
    p_pad = np.zeros(x.size + 2)
    p_pad[2:] = np.cumsum(x)
    x_prev = np.zeros_like(x)
    x_prev[1:] = x[:-1]
    x_next = np.zeros_like(x)
    x_next[:-1] = x[1:]
    return k, t_pad, p_pad, x_prev, x_next


def rhs_rls(x, lam: float, beta: float) -> np.ndarray:
    """Time derivative under load-sensitive resampling.

    The queueing part is the same birth-death flow as rhs_rlo with beta = 0.
    A resampled client accepts a move exactly when origin occupancy exceeds
    destination occupancy plus one, so level k gains migrants from levels
    >= k+2 and loses residents to levels <= k-2:

        beta * [ x_{k-1} T_{k+1} - x_k T_{k+2} - k x_k P_{k-2}
                 + (k+1) x_{k+1} P_{k-1} ]

    with T_j = sum_{i>=j} i x_i and P_j = sum_{i<=j} x_i (empty outside
    0..B). These four terms telescope, so mass is conserved, and no migrant
    can land above the cap because that would need an origin above it.
    """
    x = _vec(x)
    k, t_pad, p_pad, x_prev, x_next = _rls_terms(x)
    dx = rhs_rlo(x, lam, 0.0)

    gain_hi = x_prev * t_pad[1:-1]  # migrant lands, origin held >= k+1
    loss_hi = x * t_pad[2:]  # migrant lands elsewhere on level k
    loss_lo = k * x * p_pad[:-2]  # resident leaves for a level <= k-2
    gain_lo = (k + 1.0) * x_next * p_pad[1:-1]  # resident leaves level k+1
    dx += beta * (gain_hi - loss_hi - loss_lo + gain_lo)
    return dx


def jac_rls(x, lam: float, beta: float) -> np.ndarray:
    """Jacobian of rhs_rls at x: entry [k, i] is d(dx_k/dt)/dx_i.

    rhs_rls is quadratic in x, so this is exact. Each migration term is one
    component times a suffix sum T or a prefix sum P. Differentiating the
    component gives a sub-, main- or superdiagonal entry; differentiating
    the sum gives an outer product masked to the sum's triangle, since
    dT_j/dx_i = i [i >= j] and dP_j/dx_i = [i <= j].
    """
    x = _vec(x)
    b = x.size - 1
    k, t_pad, p_pad, x_prev, x_next = _rls_terms(x)
    ones = np.ones(x.size)
    # [lo, hi] walks the superdiagonal, [hi, lo] the subdiagonal
    lo, hi = np.arange(b), np.arange(1, b + 1)

    # derivatives through the sums, one term of rhs_rls per line
    mig = (np.triu(np.outer(x_prev, k), 1)  # x_{k-1} T_{k+1}
           - np.triu(np.outer(x, k), 2)  # x_k T_{k+2}
           - np.tril(np.outer(k * x, ones), -2)  # k x_k P_{k-2}
           + np.tril(np.outer((k + 1.0) * x_next, ones), -1))  # (k+1) x_{k+1} P_{k-1}
    # derivatives through the components
    mig[hi, lo] += t_pad[2:-1]
    mig[lo, hi] += (k[:-1] + 1.0) * p_pad[1:-2]
    mig[np.diag_indices(b + 1)] -= t_pad[2:] + k * p_pad[:-2]

    jac = beta * mig
    jac[hi, lo] += lam  # arrivals from level k-1 land on k
    jac[lo, hi] += 1.0  # completions from level k+1 land on k
    jac[lo, lo] -= lam  # arrivals leave every level below the cap
    jac[hi, hi] -= 1.0  # completions leave every level above zero
    return jac


def make_rhs(policy: Union[Policy, str], lam: float, beta: float) -> Callable:
    """Bind rates into a one-argument derivative function."""
    policy = Policy(policy)
    if policy is Policy.RLO:
        return lambda x: rhs_rlo(x, lam, beta)
    return lambda x: rhs_rls(x, lam, beta)


def rk4_step(rhs: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = rhs(x)
    k2 = rhs(x + (0.5 * dt) * k1)
    k3 = rhs(x + (0.5 * dt) * k2)
    k4 = rhs(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(rhs: Callable, x: np.ndarray, dt: float, t: float) -> np.ndarray:
    """One step plus the mass audit: renormalize small drift, refuse large."""
    x = rk4_step(rhs, x, dt)
    mass = float(x.sum())
    if abs(mass - 1.0) >= MASS_TOL:
        raise SolverError(
            f"mass drifted to {mass!r} by t={t!r}; the step size dt={dt!r} "
            f"is too large for these rates, reduce it"
        )
    low = float(x.min())
    if low < -NEG_TOL:
        raise SolverError(
            f"component went to {low!r} by t={t!r}; the step size dt={dt!r} "
            f"is too large for these rates, reduce it"
        )
    np.maximum(x, 0.0, out=x)
    x /= x.sum()
    return x


def integrate(
    policy: Union[Policy, str],
    x0,
    t_end: float,
    dt: float = 1e-3,
    *,
    sample_dt: float,
    lam: float,
    beta: float,
) -> List[Tuple[float, OdeState]]:
    """Classical fourth-order fixed-step integration of either flow.

    ``policy`` ("rlo"/"rls") picks the flow, at rates ``lam`` and ``beta``.
    Samples are recorded at t=0, then whenever the running time crosses a
    multiple of the positive ``sample_dt``, and always at t_end. ``dt``,
    ``sample_dt`` and ``t_end`` must be finite.
    """
    rhs = make_rhs(policy, lam, beta)
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end!r}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not 0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt!r}")
    x = _vec(x0).copy()
    OdeState(x)  # validate the start before running

    samples: List[Tuple[float, OdeState]] = [(0.0, OdeState(x.copy()))]
    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    next_sample = sample_dt
    for i in range(1, n_full + 1):
        t = i * dt
        x = _advance(rhs, x, dt, t)
        if t + 1e-12 >= next_sample:
            samples.append((t, OdeState(x.copy())))
            next_sample += sample_dt * math.ceil((t + 1e-12 - next_sample) / sample_dt + 1e-12)
    if remainder > 1e-12 * max(1.0, dt):
        x = _advance(rhs, x, remainder, t_end)
        samples.append((t_end, OdeState(x.copy())))
    elif samples[-1][0] < t_end - 1e-12:
        samples.append((t_end, OdeState(x.copy())))
    return samples


def _check_rates(lam, beta, b_cap) -> None:
    if not (isinstance(b_cap, int) and b_cap >= 1):
        raise ValueError(f"b_cap must be an integer >= 1, got {b_cap!r}")
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be a finite rate >= 0, got {lam!r}")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be a finite rate >= 0, got {beta!r}")


def _check_stationary(lam, beta, b_cap, tol) -> None:
    """The stationary solvers' domain: the rates above, a positive tol, and
    lam < 1, since at or above unit load (unit service rate) no stationary
    law exists."""
    _check_rates(lam, beta, b_cap)
    if not (tol > 0 and lam < 1):
        raise ValueError("a stationary solve needs tol > 0 and per-server "
                         f"load lam < 1, got tol={tol!r}, lam={lam!r}")


def g_of_z(z: float, lam: float, beta: float, b_cap: int) -> float:
    """Root function for the stationary oblivious-walk occupancy.

    With w_i = z**i / prod_{j<=i}(1 + beta*j),

        g(z) = (z - lam) * (1 + sum_i w_i) - beta * sum_i i*w_i.

    At the root, y = (z - lam)/beta equals the mean of the normalized w,
    which is exactly the self-consistency the stationary law needs. The
    beta factor on the second sum keeps those two readings of y identical;
    dropping it would misplace the root for every beta != 1. Products are
    accumulated iteratively and rescaled near the float ceiling, so large
    caps neither overflow nor lose the sign.
    """
    _check_rates(lam, beta, b_cap)
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z!r}")
    w = 1.0
    total = 0.0  # sum of w_i, possibly rescaled
    total_i = 0.0  # sum of i * w_i, same scale
    shift = 0
    for i in range(1, b_cap + 1):
        w *= z / (1.0 + beta * i)
        if w > 1e300 or total > 1e300 or total_i > 1e300:
            w *= 1e-300
            total *= 1e-300
            total_i *= 1e-300
            shift += 1
        total += w
        total_i += i * w
    core = (z - lam) * total - beta * total_i
    if shift == 0:
        return (z - lam) + core
    # The constant (z - lam) term is invisible at this magnitude; only the
    # sign can matter to a caller hunting a bracket.
    if core == 0.0:
        return z - lam
    return math.copysign(math.inf, core)


@dataclass(frozen=True)
class FixedPoint:
    """Stationary occupancy law of the oblivious walk."""

    xi: np.ndarray
    y: float  # mean per-server occupancy
    z: float  # root of g_of_z; z = lam + beta * y
    residual: float  # max-norm of rhs_rlo at xi


def _xi_from_z(z: float, lam: float, beta: float, b_cap: int) -> np.ndarray:
    """xi_i by iterative products, normalized with a compensated sum."""
    xi = np.empty(b_cap + 1)
    xi[0] = 1.0
    for i in range(1, b_cap + 1):
        xi[i] = xi[i - 1] * z / (1.0 + beta * i)
    xi /= math.fsum(xi)
    return xi


def solve_fixed_point_rlo(lam: float, beta: float, b_cap: int,
                          tol: float = 1e-10) -> FixedPoint:
    """Stationary law, mean occupancy and root for the oblivious walk.

    Bisects g_of_z on [lam, z_hi], growing z_hi geometrically until the
    sign flips; g is negative at lam and eventually positive because every
    product term gains the factor (z - lam - beta*i) once z clears
    lam + beta*b_cap; at lam = 0 or beta = 0 the root is z = lam. Requires
    lam < 1: at or above unit load no stationary regime exists, matching
    the stability threshold of the finite system.
    """
    _check_stationary(lam, beta, b_cap, tol)
    if lam == 0.0 or beta == 0.0:
        # an empty system, or no hops: the plain birth-death truncation
        z = float(lam)
    else:
        lo = lam
        hi = max(1.0, 2.0 * lam)
        for _ in range(400):
            if g_of_z(hi, lam, beta, b_cap) > 0.0:
                break
            hi *= 2.0
        else:
            raise SolverError(f"could not bracket the root above z={hi!r}")
        for _ in range(400):
            if hi - lo <= 1e-15 * max(1.0, hi):
                break
            mid = 0.5 * (lo + hi)
            if g_of_z(mid, lam, beta, b_cap) > 0.0:
                hi = mid
            else:
                lo = mid
        z = 0.5 * (lo + hi)
    xi = _xi_from_z(z, lam, beta, b_cap)
    y = float(np.arange(b_cap + 1) @ xi) if beta == 0.0 else (z - lam) / beta
    residual = float(np.max(np.abs(rhs_rlo(xi, lam, beta))))
    if residual >= tol:
        raise SolverError(
            f"fixed point at z={z!r} has residual {residual!r} >= tol={tol!r}"
        )
    return FixedPoint(xi=xi, y=y, z=z, residual=residual)


@dataclass(frozen=True)
class RlsEquilibrium:
    """Load-sensitive equilibrium plus the two-start agreement audit.

    Uniqueness of this equilibrium is an observation, not a theorem, so the
    distance between the Newton limits from the empty start and from the
    rlo fixed point is reported rather than assumed away; ``flagged`` marks
    a gap above 10x the residual tolerance. ``iterations`` is the larger of
    the two starts' Newton iteration counts.
    """

    state: OdeState
    residual: float
    two_start_gap: float
    flagged: bool
    iterations: int


def _gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    The forward elimination is C (``gauss_eliminate`` in event_loops.c),
    doing numpy's array operations in numpy's order, so it gives the bits
    the numpy loop once gave. The back substitution stays numpy ``@``:
    summed in plain order instead, its dot products change the last bits of
    equilibrium_rls at all 18 points of the tests' pinned grid. Neither is
    LAPACK: OpenBLAS runs its LU on several threads
    for systems this size. On a 2-vCPU Xeon VM with the second vCPU busy,
    one 121 x 121 solve took up to 0.1 s of CPU there, against 0.3 ms on
    one thread, and the last bits of the answer changed with the thread
    count.
    """
    a = np.array(a, dtype=np.float64, order="C")  # copies, eliminated in place
    b = np.array(b, dtype=np.float64)
    n = b.size
    if a.shape != (n, n):
        raise ValueError(f"a must be {n} x {n}, got {a.shape}")
    j = gauss_eliminate(n, a.ctypes.data, b.ctypes.data)
    if j >= 0:
        raise SolverError(f"singular Newton system at column {j}")
    x = np.empty(n)
    for j in range(n - 1, -1, -1):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


def _newton_rls(x: np.ndarray, lam: float, beta: float,
                tol: float) -> Tuple[np.ndarray, float, int]:
    """Damped Newton on rhs_rls(x) = 0 from x, holding sum(x) = 1.

    The balance rows sum to zero, so the last one is redundant; the mass
    row takes its place in the Newton system. A trial point is clipped at
    zero and renormalized, and the step is halved until the trial cuts
    ||rhs_rls||^2 by the Armijo factor. Returns (state, max-norm residual,
    iterations); raises SolverError if the residual is not under tol when
    the iterations run out or the step collapses.
    """
    x = x.copy()
    f = rhs_rls(x, lam, beta)
    merit = float(f @ f)
    residual = float(np.max(np.abs(f)))
    iterations = 0
    step = 1.0
    while (residual > NEWTON_FLOOR and iterations < NEWTON_MAX_ITER
           and step >= NEWTON_MIN_STEP):
        jac = jac_rls(x, lam, beta)
        jac[-1] = 1.0
        g = f.copy()
        g[-1] = float(x.sum()) - 1.0
        dx = _gauss_solve(jac, -g)
        step = 1.0
        while step >= NEWTON_MIN_STEP:
            trial = np.maximum(x + step * dx, 0.0)
            trial /= trial.sum()
            f_trial = rhs_rls(trial, lam, beta)
            merit_trial = float(f_trial @ f_trial)
            if merit_trial <= (1.0 - ARMIJO * step) * merit:
                x, f, merit = trial, f_trial, merit_trial
                residual = float(np.max(np.abs(f)))
                iterations += 1
                break
            step *= 0.5
    if not residual < tol:
        why = (f"the step fell below {NEWTON_MIN_STEP}"
               if step < NEWTON_MIN_STEP
               else f"{iterations} Newton iterations")
        raise SolverError(
            f"no rls equilibrium: residual {residual!r} still not under "
            f"tol={tol!r} after {why}"
        )
    return x, residual, iterations


def equilibrium_rls(lam: float, beta: float, b_cap: int,
                    tol: float = 1e-10) -> RlsEquilibrium:
    """Solve the load-sensitive stationarity system from two starts.

    Runs damped Newton with the analytic ``jac_rls`` from the empty start
    and from the rlo fixed point at the same rates, and returns the
    empty-start solution. The second start only feeds the agreement gap;
    a gap above 10x tol sets ``flagged`` and warns. Requires lam < 1.
    """
    _check_stationary(lam, beta, b_cap, tol)
    x_empty, residual, it_empty = _newton_rls(point_mass(0, b_cap).x, lam,
                                              beta, tol)
    x_rlo, _, it_rlo = _newton_rls(solve_fixed_point_rlo(lam, beta, b_cap).xi,
                                   lam, beta, tol)
    gap = float(np.abs(x_empty - x_rlo).sum())
    flagged = gap > 10.0 * tol
    if flagged:
        warnings.warn(
            f"two-start equilibria differ by {gap!r} in L1 (tol {tol!r}); "
            f"treat the returned state with care",
            RuntimeWarning,
            stacklevel=2,
        )
    return RlsEquilibrium(
        state=OdeState(x_empty),
        residual=residual,
        two_start_gap=gap,
        flagged=flagged,
        iterations=max(it_empty, it_rlo),
    )


def mean_occupancy(x) -> float:
    """y = sum_k k x_k, the mean number of clients per server."""
    x = _vec(x)
    return float(np.arange(x.size, dtype=float) @ x)


def sojourn_time(y: float, lam: float) -> float:
    """Mean time in system via the population law y = lam * T."""
    if lam <= 0:
        raise ValueError(f"sojourn time needs a positive arrival rate, got {lam!r}")
    return y / lam


def throughput(y: float, lam: float) -> float:
    """Inverse mean sojourn time, lam / y."""
    if y <= 0:
        raise ValueError(
            f"throughput lam/y is undefined at mean occupancy y={y!r}"
        )
    return lam / y


def st_leq(x, x_prime, slack: float = 1e-12) -> bool:
    """Stochastic dominance: every prefix of x at least matches x_prime's.

    Smaller in this order means more mass at low occupancies.
    """
    a = _vec(x)
    b = _vec(x_prime)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - slack))
