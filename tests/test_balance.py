"""Balance bounds, the closed loop's stop band, its law against the exact
lumped chain, and replicated time-to-balance runs."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import spsolve

from migratesim.balance import (
    balance_time_bound,
    initial_all_at_one,
    initial_from_file,
    lower_bound_estimates,
    measure_balance_time,
)
from migratesim.ctmc import simulate_closed
from migratesim.model import SystemConfig
from migratesim.stats import _chunks, chi_square_gof


RLS = SystemConfig(m=2, policy="rls", resample_rate=1.0)


# --- analytic bound -----------------------------------------------------------

def test_bound_frozen_values():
    assert balance_time_bound(4, 16) == pytest.approx(24.242085417097435, rel=1e-14)
    assert balance_time_bound(16, 256) == pytest.approx(54.0150431682317, rel=1e-14)
    assert balance_time_bound(32, 1024) == pytest.approx(73.22559916906266, rel=1e-14)


def test_bound_matches_direct_transcription():
    for m in (2, 4, 8, 16, 32):
        for n in (m, 4 * m, m * m):
            direct = 3.0 * (1.0 + math.log(m)) * (m * m / n + math.log(m) + 1.0)
            assert balance_time_bound(m, n) == pytest.approx(direct, rel=1e-15)


def test_bound_domain():
    with pytest.raises(ValueError):
        balance_time_bound(1, 10)
    with pytest.raises(ValueError):
        balance_time_bound(4, 0)


def test_lower_bound_estimates():
    est = lower_bound_estimates(4, 16)
    assert est["last_move"] == pytest.approx(16.0 / 20.0)
    assert est["all_at_one"] == pytest.approx(math.log(4))


# --- the stop band ---------------------------------------------------------------

def _stops_at_start(counts, eps=None):
    cfg = SystemConfig(m=len(counts), policy="rls", resample_rate=1.0)
    res = simulate_closed(cfg, counts, horizon=1.0, eps=eps, seed=0)
    return res.stop_time == 0.0


def test_is_balanced_edges():
    # a closed run stops at t=0 exactly when the start is already balanced
    assert _stops_at_start((2, 2, 2))
    assert _stops_at_start((2, 3, 2))
    assert not _stops_at_start((1, 3, 2))
    # a balanced start stops before the loop sizes its level counts, which
    # would take 8 bytes per level up to the maximum occupancy
    assert _stops_at_start((2 ** 40,)) and _stops_at_start((2 ** 40, 2 ** 40))
    # the band [n // m, ceil(n/m)] is exact balance: every placement of up
    # to 10 clients on up to 4 servers stops at t=0 iff max - min <= 1
    for m in range(1, 5):
        for counts in product(range(11), repeat=m):
            if sum(counts) <= 10:
                balanced = max(counts) - min(counts) <= 1
                assert _stops_at_start(counts) == balanced, counts


def test_is_eps_balanced():
    # target 5 with a 20% band allows occupancies 4..6
    assert _stops_at_start((4, 5, 6), 0.2)
    assert not _stops_at_start((3, 6, 6), 0.2)
    assert not _stops_at_start((4, 4, 7), 0.2)


# --- initial placements ----------------------------------------------------------

def test_initial_placements():
    assert initial_all_at_one(4, 7) == (7, 0, 0, 0)
    with pytest.raises(ValueError):
        initial_all_at_one(0, 5)


def test_initial_from_file(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("3, 0\n2\n")
    assert initial_from_file(path, 3) == (3, 0, 2)
    path.write_text("1 2 x")
    with pytest.raises(ValueError, match="integers"):
        initial_from_file(path, 3)
    path.write_text("1 2")
    with pytest.raises(ValueError, match="expected m=3"):
        initial_from_file(path, 3)
    path.write_text("1 -2 0")
    with pytest.raises(ValueError, match="non-negative"):
        initial_from_file(path, 3)


# --- replicated measurement --------------------------------------------------------

def test_two_client_balance_time_is_exponential():
    """From (2, 0) each attempt succeeds with probability 1/2 at event rate 2,
    so the balance time is Exp(1); the sample mean must sit within four
    standard errors of 1."""
    res = measure_balance_time(RLS, (2, 0), reps=400, base_seed=0)
    assert res.censored == 0
    assert abs(res.mean - 1.0) < 4.0 / math.sqrt(400)
    assert res.ci95 is not None
    lo, hi = res.ci95
    assert lo <= res.mean <= hi
    assert res.bound == pytest.approx(balance_time_bound(2, 2))
    assert res.horizon == 100 * res.bound


def _lumped_chain(m: int, n: int):
    """The closed rls chain from the all-at-one start at unit resample rate.

    Servers are exchangeable, so the chain lumps onto the partitions of n
    into at most m parts, each sorted high to low. From a partition with
    h_a servers at level a, a client moves to a server at level b <= a - 2
    at rate a * h_a * h_b / m; a balanced partition (max - min <= 1) has
    no such move and absorbs. Returns the partitions reachable from the
    start, the start first, and the generator Q over them.
    """
    start = (n,) + (0,) * (m - 1)
    index = {start: 0}
    states = [start]
    rows, cols, vals = [], [], []
    for x, state in enumerate(states):  # grows while it is walked
        levels = Counter(state)
        for a, h_a in levels.items():
            for b, h_b in levels.items():
                if b > a - 2:
                    continue
                rate = a * h_a * h_b / m
                nxt = list(state)
                nxt[nxt.index(a)] -= 1
                nxt[nxt.index(b)] += 1
                nxt = tuple(sorted(nxt, reverse=True))
                if nxt not in index:
                    index[nxt] = len(states)
                    states.append(nxt)
                rows += [x, x]  # duplicate entries are summed
                cols += [index[nxt], x]
                vals += [rate, -rate]
    size = len(states)
    return states, sparse.csc_matrix((vals, (rows, cols)), shape=(size, size))


def _exact_mean_balance_time(m: int, n: int) -> float:
    """Exact E[tau] from the all-at-one start at unit resample rate: over
    the unbalanced partitions U, -Q_UU E[tau_U] = 1."""
    states, q = _lumped_chain(m, n)
    u = [x for x, state in enumerate(states) if state[0] - state[-1] > 1]
    return float(spsolve(-q[u][:, u], np.ones(len(u)))[0])


def test_balance_time_matches_exact_lumped_chain():
    """The replicated mean from the all-at-one start lies within four
    standard errors of the exact answer; (8, 32) lumps 32 clients on 8
    servers onto 3319 partitions."""
    exact = {(2, 2): 1.0, (4, 8): 2.7625, (4, 16): 2.4625, (8, 32): 4.1835}
    reps = 2000
    for (m, n), expected in exact.items():
        tau = _exact_mean_balance_time(m, n)
        assert tau == pytest.approx(expected, abs=5e-5)
        cfg = SystemConfig(m=m, policy="rls", resample_rate=1.0)
        res = measure_balance_time(cfg, initial_all_at_one(m, n), reps=reps,
                                   base_seed=5000)
        assert res.censored == 0
        assert abs(res.mean - tau) < 4.0 * res.sd / math.sqrt(reps)


def test_closed_loop_matches_lumped_chain_in_law():
    """The sorted state the closed loop holds at horizon 0.75 from
    (6, 0, 0), its balanced stop state if it stopped, follows the exact
    transient law, row 0 of expm(Q * 0.75). Every one of the seven
    partitions expects about 100 of the 2000 runs or more: the least
    likely, the start itself, holds exp(-3)."""
    states, q = _lumped_chain(3, 6)
    law = expm(q.toarray() * 0.75)[0]
    assert len(states) == 7 and law.min() > 0.049
    cfg = SystemConfig(m=3, policy="rls", resample_rate=1.0)
    reps = 2000
    ends = Counter(
        tuple(sorted(simulate_closed(cfg, states[0], horizon=0.75, seed=seed)
                     .trajectory.final.counts, reverse=True))
        for seed in range(reps, 2 * reps))
    assert set(ends) <= set(states)
    stat, df, p = chi_square_gof([ends[s] for s in states], reps * law)
    assert df == 6 and p > 0.01


def test_balance_time_censoring():
    res = measure_balance_time(RLS, (2, 0), reps=3, horizon=1e-9)
    assert res.censored == 3
    assert res.mean is None and res.sd is None and res.ci95 is None
    assert res.times == (None, None, None)


def test_balance_time_needs_two_reps():
    with pytest.raises(ValueError):
        measure_balance_time(RLS, (2, 0), reps=1)


def test_balance_time_small_sample_has_no_ci():
    res = measure_balance_time(RLS, (2, 0), reps=5, base_seed=3)
    assert res.ci95 is None
    assert res.mean is not None


def test_balance_time_eps_stop():
    cfg = SystemConfig(m=4, policy="rls", resample_rate=1.0)
    res = measure_balance_time(cfg, initial_all_at_one(4, 8), eps=0.5,
                               reps=4, base_seed=1)
    assert res.censored == 0
    assert all(t is not None and t >= 0 for t in res.times)


def test_balance_time_jobs_parity():
    # 24 reps over 2 workers make 8 chunks of 3, shared by the two threads
    serial = measure_balance_time(RLS, (4, 0), reps=24, base_seed=7)
    fanned = measure_balance_time(RLS, (4, 0), reps=24, base_seed=7, jobs=2)
    assert serial.times == fanned.times


def test_balance_time_jobs_parity_with_overlapping_runs():
    # each (32, 1024) replication is a fraction of a millisecond of C, long
    # enough that the two threads' closed loops run at the same time
    cfg = SystemConfig(m=32, policy="rls", resample_rate=1.0)
    start = initial_all_at_one(32, 1024)
    serial = measure_balance_time(cfg, start, reps=8, base_seed=5)
    fanned = measure_balance_time(cfg, start, reps=8, base_seed=5, jobs=2)
    assert serial == fanned


# (m, start, eps, horizon, base_seed, reps): seeds that cross 2**32, 2**64
# and 2**96, so one chunk mixes key lengths; seed 0 and negative seeds; a
# horizon that censors some races and not others; an eps band; and a start
# already in its band
BATCHED_CELLS = (
    (2, (2, 0), None, 0.5, 2 ** 32 - 6, 24),
    (16, initial_all_at_one(16, 256), 0.5, 1000.0, -6, 12),
    (32, initial_all_at_one(32, 1024), None, 1000.0, 2 ** 64 - 4, 8),
    (12, (20, 0, 30, 1, 0, 9, 0, 4, 7, 0, 0, 1), None, 5.0, 2 ** 96 - 5, 12),
    (3, (3, 2, 3), None, 1000.0, -2, 4),
)


def _key_words(seed):
    return (abs(seed).bit_length() + 31) // 32 or 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_batched_runs_are_the_single_runs(jobs):
    """measure_balance_time runs each chunk of seeds in one closed_loop
    call. Each stop time must be the bits simulate_closed gives its seed
    alone, and the moves their sum; a batched simulate_closed call must
    also end each run in that run's end state. At jobs 2 a chunk edge
    falls where the key grows a word, and edges fall between runs that make
    different numbers of moves."""
    seen = set()
    for m, start, eps, horizon, base, reps in BATCHED_CELLS:
        cfg = SystemConfig(m=m, policy="rls")
        seeds = range(base, base + reps)
        single = [simulate_closed(cfg, start, horizon=horizon, eps=eps,
                                  seed=seed) for seed in seeds]
        moves = [run.trajectory.event_counts["migration"] for run in single]
        res = measure_balance_time(cfg, start, eps=eps, reps=reps,
                                   base_seed=base, horizon=horizon, jobs=jobs)
        assert res.times == tuple(run.stop_time for run in single)
        assert res.moves == sum(moves)
        batch = simulate_closed(cfg, start, horizon=horizon, eps=eps,
                                seed=seeds)
        assert batch.stop_times == res.times
        assert batch.trajectory.event_counts == {"migration": sum(moves)}
        assert [tuple(row) for row in batch.trajectory.final.tolist()] == [
            run.trajectory.final.counts for run in single]
        seen.update(_key_words(seed) for seed in seeds)
        seen.update("censored" if t is None else "at start" if t == 0
                    else "stopped" for t in res.times)
        if jobs > 1:
            chunks = _chunks(range(reps), jobs)
            for k in (chunk[0] for chunk in chunks[1:]):
                if moves[k - 1] != moves[k]:
                    seen.add("moves differ across an edge")
                if _key_words(seeds[k - 1]) != _key_words(seeds[k]):
                    seen.add("key grows across an edge")
    assert {0, -1, -6}.issubset(s for _, _, _, _, base, reps in BATCHED_CELLS
                                for s in range(base, base + reps))
    assert {1, 2, 3, 4, "censored", "at start", "stopped"} <= seen
    if jobs > 1:
        assert {"moves differ across an edge", "key grows across an edge"} <= seen
