"""Seeds, the replication fan-out, and small statistical helpers shared by the
measurement and experiment layers.

Replications fan out over threads of this process, in contiguous chunks.
Every replication spends nearly all its time in one of the compiled event
loops, and ctypes releases the GIL for the length of a foreign call, so the
loops of different threads run in parallel. Nothing is forked or pickled.
``map_replications`` makes one call per replication, as the open pipelines'
replications do, each milliseconds long. ``map_chunks`` hands a whole chunk
to one call: closed replications take microseconds, so each chunk of them
runs in one C call, with the GIL released for all of it.

Only the two goodness-of-fit helpers compute a p-value, and only they import
scipy, inside the call: ``verify coupling`` and the tests reach them, and no
other command loads scipy, so importing the package stays cheap.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Replication counts below this produce no confidence interval: the normal
# approximation over replication means is not trusted for tiny samples.
MIN_REPS_FOR_CI = 20

SEED_STRIDE = 10 ** 6  # seed = base + cell_index * SEED_STRIDE + rep_index

# two-sided 95% normal quantile for the replication intervals, the float
# scipy.stats.norm.ppf(0.975) returns; statistics.NormalDist().inv_cdf(0.975)
# is one ulp below it (1.9599639845400536) and would move every interval
Z95 = 1.959963984540054

# chi-square bins are pooled until each expects at least this many counts
MIN_EXPECTED = 5.0


def _chunks(work: list, jobs: int) -> list:
    """``work`` cut into contiguous chunks, about four per worker."""
    size = max(1, len(work) // (4 * jobs))
    return [work[i:i + size] for i in range(0, len(work), size)]


def map_chunks(fn, work: list, jobs: int) -> list:
    """[fn(chunk) for chunk in work cut into contiguous chunks], fanned out
    over ``jobs`` threads when jobs > 1.

    With jobs == 1 (or fewer than two items) the one chunk is all of
    ``work``. Otherwise each thread takes chunks of about a quarter of its
    share, so one hand-off carries several runs instead of one, and no more
    threads start than there are chunks. Results come back in ``work``
    order, one per chunk. If a chunk raises, the chunks not yet started are
    cancelled, the running ones finish, and its exception propagates. The
    threads are joined before the function returns.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(work) < 2:
        return [fn(work)] if len(work) else []
    chunks = _chunks(work, jobs)
    pool = ThreadPoolExecutor(max_workers=min(jobs, len(chunks)))
    try:
        futures = [pool.submit(fn, chunk) for chunk in chunks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def map_replications(fn, work: list, jobs: int) -> list:
    """[fn(w) for w in work], fanned out over ``jobs`` threads by
    ``map_chunks``, for replications that run one call each."""
    return [r for chunk in map_chunks(lambda c: [fn(w) for w in c], work, jobs)
            for r in chunk]


def mean_sd(values) -> tuple:
    """Sample mean and (n-1)-normalized standard deviation."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("no values to summarize")
    mean = float(v.mean())
    sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
    return mean, sd


def normal_ci(values):
    """Normal-approximation 95% CI over replication values, or None if too few."""
    v = np.asarray(values, dtype=float)
    if v.size < MIN_REPS_FOR_CI:
        return None
    mean, sd = mean_sd(v)
    half = Z95 * sd / math.sqrt(v.size)
    return (mean - half, mean + half)


def standard_error(values) -> float:
    v = np.asarray(values, dtype=float)
    _, sd = mean_sd(v)
    return sd / math.sqrt(v.size)


def ols_slope(t, y) -> float:
    """Least-squares slope of y against t."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 2:
        raise ValueError("slope needs at least two points")
    tc = t - t.mean()
    denom = float(np.dot(tc, tc))
    if denom == 0.0:
        raise ValueError("degenerate time axis")
    return float(np.dot(tc, y - y.mean()) / denom)


def chi_square_gof(observed, expected) -> tuple:
    """Pearson goodness-of-fit with tail pooling.

    observed and expected are aligned count/expectation vectors over ordered
    bins. Adjacent bins are pooled from the right, then from the left, until
    every pooled expectation reaches MIN_EXPECTED. Returns (stat, df, p).
    Probabilities are taken as known, so df = bins - 1.
    """
    from scipy.stats import chi2

    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    if len(obs) != len(exp):
        raise ValueError("observed and expected lengths differ")
    while len(exp) > 2 and exp[-1] < MIN_EXPECTED:
        exp[-2] += exp.pop()
        obs[-2] += obs.pop()
    while len(exp) > 2 and exp[0] < MIN_EXPECTED:
        exp[1] += exp.pop(0)
        obs[1] += obs.pop(0)
    if any(e <= 0 for e in exp):
        raise ValueError("pooled expected counts must be positive")
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    df = len(obs) - 1
    p = float(chi2.sf(stat, df))
    return stat, df, p


def poisson_gof(samples, mean: float) -> tuple:
    """Chi-square fit of integer samples against a Poisson(mean) law.

    Bins run from 0 to the sample maximum, with everything beyond collected
    in one overflow bin. Returns (stat, df, p).
    """
    from scipy.stats import poisson

    samples = np.asarray(samples, dtype=np.int64)
    if np.any(samples < 0):
        raise ValueError("Poisson samples must be non-negative")
    n = samples.size
    top = int(samples.max()) if n else 0
    observed = np.bincount(samples, minlength=top + 1).astype(float)
    probs = poisson.pmf(np.arange(top + 1), mean)
    expected = probs * n
    # overflow bin keeps the expectations summing to n
    observed = np.append(observed, 0.0)
    expected = np.append(expected, n * float(poisson.sf(top, mean)))
    return chi_square_gof(observed, expected)
