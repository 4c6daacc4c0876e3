"""Reference values the benchmark checks the program against.

Everything here is plain Python on floats and lists, written from the
model's definitions and not from the package's code, so a fault in the
package cannot also hide in the check.
"""

from __future__ import annotations

import math


def balance_time_bound(m: int, n: int) -> float:
    """3 (1 + ln m) (m^2 / n + ln m + 1): the analytic bound on the mean
    time to exact balance from any start."""
    return 3.0 * (1.0 + math.log(m)) * (m * m / n + math.log(m) + 1.0)


def mean_and_se(values) -> tuple:
    """Sample mean and its standard error, (n-1)-normalised."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _rlo_weights(z: float, beta: float, b_cap: int) -> list:
    """xi_k proportional to z^k / prod_{j<=k} (1 + beta j), k = 0..B,
    normalised; built in log space so no term overflows."""
    logs = [0.0]
    for k in range(1, b_cap + 1):
        logs.append(logs[-1] + math.log(z) - math.log(1.0 + beta * k))
    top = max(logs)
    w = [math.exp(v - top) for v in logs]
    total = math.fsum(w)
    return [v / total for v in w]


def rlo_fixed_point(lam: float, beta: float, b_cap: int) -> tuple:
    """Stationary oblivious-walk law by bisection on z.

    The law is xi_k proportional to z^k / prod_{j<=k}(1 + beta j), where
    z = lam + beta y is the total rate into a server and y the mean
    occupancy. So z solves (z - lam) / beta = sum_k k xi_k(z). Returns
    (z, y, xi), y read off the law itself.
    """
    def excess(z):
        xi = _rlo_weights(z, beta, b_cap)
        return (z - lam) / beta - math.fsum(k * x for k, x in enumerate(xi))

    lo, hi = lam, lam + beta * (b_cap + 1)  # excess < 0 at lo, > 0 at hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    z = 0.5 * (lo + hi)
    xi = _rlo_weights(z, beta, b_cap)
    y = math.fsum(k * x for k, x in enumerate(xi))
    return z, y, xi


def rls_cut_balance_residual(x, lam: float, beta: float) -> float:
    """Largest flux imbalance across the cuts k | k+1 of an rls equilibrium.

    At rest the flow up across each cut equals the flow down:

        lam x_k + beta x_k T_{k+2} = x_{k+1} (1 + beta (k+1) P_{k-1})

    for k = 0..B-1, with T_j = sum_{i>=j} i x_i (migrants land on level k
    from a server at least two above it) and P_j = sum_{i<=j} x_i (a
    resident of level k+1 leaves for a server at most two below it).
    """
    x = [float(v) for v in x]
    b_cap = len(x) - 1
    tail = [0.0] * (b_cap + 3)  # tail[j] = T_j, zero above the cap
    for j in range(b_cap, -1, -1):
        tail[j] = tail[j + 1] + j * x[j]
    worst = 0.0
    below = 0.0  # P_{k-1}
    for k in range(b_cap):
        up = lam * x[k] + beta * x[k] * tail[k + 2]
        down = x[k + 1] * (1.0 + beta * (k + 1) * below)
        worst = max(worst, abs(up - down))
        below += x[k]
    return worst
