"""Event-loop tests: single transitions against the full drivers, exact
first-event laws, the open transient law on two servers, conservation
identities, sampling grids, and the three-colour audit chain."""

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from random import Random

import numpy as np
import pytest
from scipy.linalg import expm

from migratesim import ctmc
from migratesim.cli import config_echo
from migratesim.ctmc import (
    simulate_closed,
    simulate_coupled,
    simulate_open,
    sojourn_window,
)
from migratesim.experiments import measure_sojourns
from migratesim.model import ConfigError, SystemConfig, SystemState, eps_band
from migratesim.stats import MIN_EXPECTED, chi_square_gof

from open_law import step, two_server_generator


RLS2 = SystemConfig(m=2, policy="rls", resample_rate=1.0)


# --- one transition versus the driver loop -----------------------------------

# one config per branch of the open loop: homogeneous and unequal service
# rates, both rlo destination draws, and the cap on arrivals and on moves
# (rates (4, 1, 1) let an rls move from server 1 aim at the full server 0)
UNEQUAL = dict(service_rates=(1.0, 3.0, 0.5), arrival_rates=(0.2, 0.9, 0.4),
               resample_rate=0.7, include_self=False)
CAPPED = dict(arrival_rates=2.0, service_rates=(4.0, 1.0, 1.0),
              resample_rate=0.7, cap=2)
OPEN_BRANCH_CONFIGS = (
    SystemConfig(m=3, policy="rls", arrival_rates=0.6, resample_rate=0.7),
    SystemConfig(m=3, policy="rls", **UNEQUAL),
    SystemConfig(m=3, policy="rlo", **UNEQUAL),
    SystemConfig(m=3, policy="rlo", arrival_rates=0.6, resample_rate=0.7),
    SystemConfig(m=3, policy="rlo", arrival_rates=0.6, resample_rate=0.7,
                 include_self=False),
    SystemConfig(m=3, policy="rls", **CAPPED),
    SystemConfig(m=3, policy="rlo", **CAPPED),
)


def test_first_open_event_matches_step():
    start = SystemState(0.0, (2, 1, 0))
    kinds = set()
    for cfg in OPEN_BRANCH_CONFIGS:
        for track in (False, True):
            for seed in range(200):
                s1, ev = step(start, cfg, Random(seed))
                # a horizon at the first event time lets exactly that event fire
                traj, _ = simulate_open(cfg, horizon=s1.t, seed=seed,
                                        sample_dt=None, initial=(2, 1, 0),
                                        track_sojourns=track)
                assert traj.times[-1] == s1.t
                assert tuple(traj.counts[-1]) == s1.counts
                assert traj.event_counts[ev.kind] == 1
                assert sum(traj.event_counts.values()) == 1
                kinds.add(ev.kind)
    # every event kind the open loop counts was compared at least once
    assert kinds == set(traj.event_counts)


# arrival rates with zeros at the ends and in the middle, so that the
# running sums hold runs of equal values
ZERO_RATE_ARRIVALS = (
    (0.8,),
    (0.0, 0.9),
    (0.9, 0.0),
    (0.0, 0.4, 0.0, 0.0, 0.7),
    (0.0, 0.0, 0.5, 0.0, 0.6, 0.0, 0.9, 0.0),
    (0.3, 0.0, 0.0, 0.6, 0.0, 0.4, 0.0, 0.5, 0.0),
)


def test_first_arrival_skips_zero_rate_servers():
    """From an empty system the first event is an arrival, so each seed
    checks one arrival-server pick against step's bisect_right over running
    sums with runs of equal values: every server with a positive rate is
    picked at least once, and no zero-rate server ever is."""
    for rates in ZERO_RATE_ARRIVALS:
        m = len(rates)
        cfg = SystemConfig(m=m, policy="rls", arrival_rates=rates,
                           resample_rate=0.7)
        start = SystemState(0.0, (0,) * m)
        for track in (False, True):
            picked = set()
            for seed in range(200):
                s1, ev = step(start, cfg, Random(seed))
                traj, _ = simulate_open(cfg, horizon=s1.t, seed=seed,
                                        sample_dt=None, initial=start.counts,
                                        track_sojourns=track)
                assert ev.kind == "arrival"
                assert traj.times[-1] == s1.t
                assert tuple(traj.counts[-1]) == s1.counts
                picked.add(s1.counts.index(1))
            assert picked == {i for i, rate in enumerate(rates) if rate}


def test_loops_seed_as_random_does():
    """The loops seed their generators from the words of abs(seed), as
    Random(seed) does: one word or several, a bool, a negative seed. The
    first open event must equal step's under Random(seed), and a seed that
    is not an int is refused, by the closed loop too."""
    cfg = OPEN_BRANCH_CONFIGS[0]
    start = SystemState(0.0, (2, 1, 0))
    for seed in (0, 1, True, -5, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, 10 ** 25):
        s1, ev = step(start, cfg, Random(seed))
        traj, _ = simulate_open(cfg, horizon=s1.t, seed=seed, sample_dt=None,
                                initial=(2, 1, 0))
        assert traj.times[-1] == s1.t, seed
        assert tuple(traj.counts[-1]) == s1.counts, seed
        assert traj.event_counts[ev.kind] == 1, seed
    for seed in (1.0, np.int64(1), "1"):
        with pytest.raises(TypeError):
            simulate_open(cfg, horizon=1.0, seed=seed, sample_dt=None)
        with pytest.raises(TypeError):
            simulate_closed(RLS2, (2, 0), horizon=1.0, seed=seed)


# sha256 of every open run below, recorded before the loop was last rewritten
OPEN_STREAM_SHA256 = (
    "af5b095afb1857db671eb928b21bef1d6d88ac06166d5ce51021ab833da01a39")


def test_open_streams_are_pinned():
    """Whole runs, not just first events: each branch config in both
    tracking modes, on a sample grid and without one, from empty and from
    a seeded state, plus m=1 and m=17 for other bounded-draw widths. The
    times, occupancies, event tallies in key order, end state and the
    sojourn rows of clients arriving from t=30 on (row index, arrival,
    departure or None) must hash to the recorded digest, so a faster loop
    has to consume the same draws in the same order."""
    configs = OPEN_BRANCH_CONFIGS + (
        SystemConfig(m=1, policy="rls", arrival_rates=0.6, resample_rate=0.7),
        SystemConfig(m=17, policy="rlo", arrival_rates=0.6, resample_rate=0.7,
                     include_self=False),
    )
    digest = hashlib.sha256()
    for c, cfg in enumerate(configs):
        for track in (False, True):
            for k in range(4):
                initial = None if k < 2 else (2,) + (0, 1) * (cfg.m // 2)
                traj, sojourns = simulate_open(
                    cfg, horizon=300.0, seed=10 * c + k,
                    sample_dt=0.7 if k % 2 else None, initial=initial,
                    track_sojourns=track)
                digest.update(traj.times.tobytes())
                digest.update(traj.counts.tobytes())
                digest.update(repr(list(traj.event_counts.items())).encode())
                digest.update(repr(SystemState(
                    float(traj.times[-1]), tuple(traj.counts[-1]))).encode())
                digest.update(repr([
                    (row, float(a), None if math.isnan(d) else float(d))
                    for row, (a, d) in enumerate(sojourns)
                    if a >= 30.0]).encode())
    assert digest.hexdigest() == OPEN_STREAM_SHA256


# (config, horizon, seed, sample_dt, tracked, sha256), at the benchmark's sizes
SOJOURN_CELL = dict(arrival_rates=0.8, resample_rate=0.5, include_self=False)
OVERLOAD_CELL = dict(m=10, arrival_rates=1.2, resample_rate=0.02)
WORKLOAD_SIZE_RUNS = (
    (SystemConfig(m=20, policy="rls", **SOJOURN_CELL), 2000.0, 1, None, True,
     "682342b161609c26fd7f76dab37157e0a6780db22c641d16dca41d1ef6a52722"),
    (SystemConfig(m=5, policy="rlo", **SOJOURN_CELL), 2000.0, 2, None, True,
     "f61af224f6ca1ea68eb0d2429fa98ed1dfd40e229274f51fe5dd47e07fd0ba26"),
    (SystemConfig(policy="rls", **OVERLOAD_CELL), 1000.0, 3, 2.0, False,
     "a1d70c94e423e9594f31860d51b44dcf0c6cd008f88ada5752008c3d4e5cdf10"),
    (SystemConfig(policy="rlo", **OVERLOAD_CELL), 1000.0, 4, 2.0, False,
     "ff2d74238ae6959bf268e441f5cc1b1e9c45ae0edd4b681753590c8784149fb0"),
    (SystemConfig(m=4, policy="rls", arrival_rates=(0.9, 2.0, 0.3, 1.1),
                  service_rates=(1, 2, 0.5, 1.5), resample_rate=0.7,
                  include_self=False), 20000.0, 5, None, True,
     "10cdcaa1c754707874140269bc7826dd18add02944e838554c2edb730f66f428"),
)


def test_open_streams_are_pinned_at_workload_size():
    """Runs as long as the benchmark's: test 07's two sojourn cells (32,222
    rows at m=20), the overloaded probe cell on a sample grid, where the
    population reaches about 2,000, and unequal service rates past 85,000
    departures, so the busy-rate sum is refreshed exactly at least once.
    Times, occupancies, tallies in key order and the sojourn rows (NaN as
    -1) must hash to the digests recorded from the pure-Python loop."""
    for cfg, horizon, seed, sample_dt, track, expected in WORKLOAD_SIZE_RUNS:
        traj, sojourns = simulate_open(cfg, horizon, seed, sample_dt=sample_dt,
                                       track_sojourns=track)
        digest = hashlib.sha256()
        digest.update(traj.times.tobytes())
        digest.update(traj.counts.tobytes())
        digest.update(repr(list(traj.event_counts.items())).encode())
        digest.update(np.where(np.isnan(sojourns), -1.0, sojourns).tobytes())
        assert digest.hexdigest() == expected, (cfg, seed)


def test_busy_rate_refresh_is_fsum():
    """Rates 0.1, 0.2 and 0.3 make a running sum of busy rates drift, and
    the loop resets it to math.fsum of the busy rates every 65536
    departures. Over about 150,000 departures a plain sum in its place
    changes the stream, and so does skipping the reset. The digest, taken
    as in the test above, was recorded from the pure-Python loop."""
    cfg = SystemConfig(m=5, policy="rls", arrival_rates=0.3,
                       service_rates=(0.1, 0.2, 0.3, 0.7, 1.1),
                       resample_rate=0.7)
    traj, sojourns = simulate_open(cfg, 100000.0, 5, sample_dt=None)
    digest = hashlib.sha256()
    digest.update(traj.times.tobytes())
    digest.update(traj.counts.tobytes())
    digest.update(repr(list(traj.event_counts.items())).encode())
    digest.update(np.where(np.isnan(sojourns), -1.0, sojourns).tobytes())
    assert traj.event_counts["departure"] > 2 * 65536
    assert digest.hexdigest() == (
        "1d020d14ee3fffdbb44f9acd05f364526c6266ea60d190f11989f9e9043390c4")


def test_inline_bounded_draw_is_randbelow():
    """simulate_open draws randrange(n) as CPython's _randbelow does: a
    getrandbits(n.bit_length()) rejection loop, n = 1 included. Should an
    interpreter draw otherwise, this fails rather than the open streams
    shifting unnoticed."""
    widths = set(range(1, 71))
    for e in range(1, 21):
        widths.update((2 ** e - 1, 2 ** e, 2 ** e + 1))
    for seed in (0, 1, 7, 12345):
        ref = Random(seed)
        rng = Random(seed)
        getrandbits = rng.getrandbits
        for n in sorted(widths) * 3:
            bits = n.bit_length()
            r = getrandbits(bits)
            while r >= n:
                r = getrandbits(bits)
            assert r == ref._randbelow(n)


def test_step_advances_time_and_total():
    cfg = SystemConfig(m=2, policy="rlo", arrival_rates=(0.5, 0.0),
                       resample_rate=0.3)
    state = SystemState(0.0, (1, 2))
    rng = Random(11)
    for _ in range(200):
        new, ev = step(state, cfg, rng)
        assert new.t > state.t
        delta = sum(new.counts) - sum(state.counts)
        if ev.kind == "arrival":
            assert delta == 1
        elif ev.kind == "departure":
            assert delta == -1
        else:
            assert delta == 0
        state = new


# --- exact transition laws ----------------------------------------------------

def test_open_event_mix_chi_square():
    """State (2, 0), arrivals 0.3 each, unit service, resample 0.5: rates are
    arrival 0.6, departure 1.0, accepted move 0.5, rejected attempt 0.5."""
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.3, resample_rate=0.5)
    start = SystemState(0.0, (2, 0))
    reps = 6000
    rng = Random(0)
    tally = {"arrival": 0, "departure": 0, "migration": 0, "resample_rejected": 0}
    for _ in range(reps):
        _, ev = step(start, cfg, rng)
        tally[ev.kind] += 1
    total = 0.6 + 1.0 + 1.0
    expected = [reps * 0.6 / total, reps * 1.0 / total,
                reps * 0.5 / total, reps * 0.5 / total]
    observed = [tally["arrival"], tally["departure"],
                tally["migration"], tally["resample_rejected"]]
    stat, df, p = chi_square_gof(observed, expected)
    assert df == 3
    assert p > 0.01


# the capped two-server chain's cells for the open transient law, each with
# its first seed: equal rates under rls, rlo with and without self-jumps,
# and rls with unequal arrival and service rates
TWO_SERVERS = dict(m=2, arrival_rates=0.7, resample_rate=0.6, cap=4)
TRANSIENT_LAW_CELLS = {
    "rls": (SystemConfig(policy="rls", **TWO_SERVERS), 80000),
    "rlo": (SystemConfig(policy="rlo", **TWO_SERVERS), 90000),
    "rlo-no-self": (SystemConfig(policy="rlo", include_self=False,
                                 **TWO_SERVERS), 100000),
    "rls-unequal": (SystemConfig(m=2, policy="rls", arrival_rates=(0.9, 0.3),
                                 service_rates=(2.0, 0.5), resample_rate=0.6,
                                 cap=4), 110000),
}


@pytest.mark.parametrize("cell", TRANSIENT_LAW_CELLS)
def test_open_loop_matches_two_server_chain_in_law(cell):
    """The state the untracked open loop holds at horizon 1.5 from (3, 0),
    on two servers capped at 4, follows the exact transient law: the
    start's row of expm(Q * 1.5) for the chain of
    open_law.two_server_generator, over 4000 seeds. Unlike the one-event
    tests this sees every event up to the horizon. The states expecting
    fewer than MIN_EXPECTED runs are pooled into one last bin: ordered by
    falling expectation alone, the unequal-rate cell would leave a bin
    expecting 4.0 before the pooled tail."""
    cfg, first_seed = TRANSIENT_LAW_CELLS[cell]
    reps, horizon, start = 4000, 1.5, (3, 0)
    states, q = two_server_generator(cfg)
    expected = reps * expm(q.toarray() * horizon)[states.index(start)]
    ends = Counter(
        tuple(simulate_open(cfg, horizon, seed, sample_dt=None, initial=start,
                            track_sojourns=False)[0].counts[-1].tolist())
        for seed in range(first_seed, first_seed + reps))
    assert set(ends) <= set(states)
    observed = np.array([ends[state] for state in states])
    small = expected < MIN_EXPECTED
    stat, df, p = chi_square_gof(
        [*observed[~small], observed[small].sum()],
        [*expected[~small], expected[small].sum()])
    assert p > 0.01


def test_heterogeneous_departure_weighting():
    # both servers busy, service 9 versus 1: departures split 9:1
    cfg = SystemConfig(m=2, policy="rls", service_rates=(9.0, 1.0),
                       resample_rate=0.0)
    start = SystemState(0.0, (1, 1))
    rng = Random(5)
    reps = 3000
    from_fast = 0
    for _ in range(reps):
        _, ev = step(start, cfg, rng)
        assert ev.kind == "departure"
        from_fast += ev.server_from == 0
    sigma = math.sqrt(reps * 0.9 * 0.1)
    assert abs(from_fast - reps * 0.9) < 4 * sigma


# --- closed driver -------------------------------------------------------------

def test_closed_rejects_arrivals_and_bad_input():
    with pytest.raises(ValueError):
        simulate_closed(RLS2, (1, 1, 1), horizon=1.0)
    for horizon in (0.0, math.nan):
        with pytest.raises(ValueError):
            simulate_closed(RLS2, (2, 0), horizon=horizon)
    # the closed loop covers rls with unit service and resample rates and
    # no arrivals only
    for cfg in (SystemConfig(m=3, policy="rlo"),
                SystemConfig(m=3, policy="rls", arrival_rates=0.5),
                SystemConfig(m=3, policy="rls", resample_rate=0.0),
                SystemConfig(m=3, policy="rls", resample_rate=2.0),
                SystemConfig(m=3, policy="rls", service_rates=(2.0, 2.0, 2.0)),
                SystemConfig(m=3, policy="rls", service_rates=(1.0, 5.0, 1.0)),
                SystemConfig(m=3, policy="rls", service_rates=0.0)):
        with pytest.raises(ConfigError):
            simulate_closed(cfg, (2, 2, 0), horizon=50.0, seed=1)
    capped = SystemConfig(m=3, policy="rls", cap=2)
    with pytest.raises(ValueError, match="exceeds the configured cap"):
        simulate_closed(capped, (3, 0, 0), horizon=1.0)


def test_closed_refuses_pair_counts_past_int64():
    """The accepted pairs, at most n * m, are counted in 64 bits."""
    with pytest.raises(ValueError, match="2\\*\\*63"):
        simulate_closed(RLS2, (2 ** 62, 0), horizon=1.0)


def test_closed_censoring_at_horizon():
    # a tiny horizon rarely sees the first event at rate 2
    res = simulate_closed(RLS2, (2, 0), horizon=1e-6, seed=1)
    assert res.stop_time is None


def _all_at_one(m, n):
    return (n,) + (0,) * (m - 1)


# (m, start, resample_rate, eps, horizon, seeds, sha256): the benchmark's
# race, dense and sparse cells, an eps stop, censored runs, two cells at
# m = 12, where the pair rate 1/12 is inexact, seeds of several words, and
# a start with 2**33 pairs
HALF_AT_TWO = (2,) * 65536 + (0,) * 65536
CLOSED_PIN_RUNS = (
    (2, (2, 0), 1.0, None, 1000.0, range(5),
     "1fa117c61a00f296ba41a015dbebc3597697a6c22f69250596418ab03286679e"),
    (32, _all_at_one(32, 1024), 1.0, None, 1000.0, range(3),
     "05161f400448d2bac007150c2a4bd88d8dcbfd0d8ba7f2bea4802f75118fb87f"),
    (64, _all_at_one(64, 256), 1.0, None, 1000.0, range(3),
     "6b473fc6ac6e858f6039b5d0a4181910633f5f9f996840a74cceaf2ba6783353"),
    (16, _all_at_one(16, 256), 1.0, 0.2, 1000.0, range(3),
     "085aa290ef4bf15b68c7cc3a2f1431241b6e783f3c75349bc623d79701dc8973"),
    (32, _all_at_one(32, 1024), 1.0, None, 0.5, range(2),
     "f6a79e7aada20b47ebf0e4138e8550285d050121858c46e769aa93a2bb584ab5"),
    (12, _all_at_one(12, 192), 1.0, None, 1000.0, range(3),
     "3fccec040b3a99c1ea843a01cb442954b2885f36099fadc2a292a3700235bddd"),
    (12, (20, 0, 30, 1, 0, 9, 0, 4, 7, 0, 0, 1), 1.0, 0.25, 1000.0, range(3),
     "3c85c01b3428cccdf2aae71ce1ab78b51ad78b782e7ec75839dd041efa585c4c"),
    (4, (12, 0, 0, 0), 1.0, None, 1000.0,
     (True, -5, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 9, 10 ** 25),
     "b2ce61d8ef163e4f7548b8cffcefa32f227d73a00f6d1389cbbf1e6a96c3ae94"),
    (131072, HALF_AT_TWO, 1.0, None, 2e-5, range(3),
     "a8dfbacd436b2ddb2741bcc595dcc41dade94a143211de48a9d9a7d501b9d6cc"),
)


def test_closed_streams_are_pinned_at_workload_size():
    """Whole closed runs, each hashed as repr(stop_time), the final counts
    and the move count, against digests recorded from the pure-Python
    loop, so a faster loop has to consume the same draws in the same order.
    The last start has 2**33 accepted pairs, so its move draws are 34 bits
    wide; seed 1 moves there three times before the horizon."""
    for m, start, rate, eps, horizon, seeds, expected in CLOSED_PIN_RUNS:
        cfg = SystemConfig(m=m, policy="rls", resample_rate=rate)
        digest = hashlib.sha256()
        for seed in seeds:
            run = simulate_closed(cfg, start, horizon=horizon, eps=eps,
                                  seed=seed)
            digest.update(repr(run.stop_time).encode())
            digest.update(repr(run.trajectory.final.counts).encode())
            digest.update(repr(run.trajectory.event_counts["migration"]).encode())
        assert digest.hexdigest() == expected, (m, start[:4], rate, eps)


def _random_closed_runs():
    """About 2,000 closed runs drawn from Random(2024): m from 2 to 100,
    all-at-one and random starts, exact and eps bands, horizons short
    enough to censor, and seeds of zero, negative, one word and several
    words (the benchmark's replication seeds take two words from its seed
    54 on). Yields (config, start, horizon, eps, seed)."""
    rng = Random(2024)
    for _ in range(2000):
        m = rng.randint(2, 100)
        n = rng.randint(1, 8 * m + 40)
        if rng.random() < 0.3:
            start = _all_at_one(m, n)
        else:  # clients dropped on a few servers or on all of them
            hot = rng.sample(range(m), rng.randint(1, m))
            counts = [0] * m
            for _ in range(n):
                counts[rng.choice(hot)] += 1
            start = tuple(counts)
        eps = rng.choice((None, None, 0.1, 0.25, 0.5, 0.9))
        horizon = rng.choice((1e-3, 0.5, 5.0) + (1000.0,) * 4)
        seed = rng.choice((
            0, -rng.getrandbits(31), rng.getrandbits(32),
            2 ** 32 + rng.getrandbits(32), rng.getrandbits(96),
            ((54 * 1000 + rng.randrange(1000)) * 8 + 2) * 10 ** 4))
        yield SystemConfig(m=m, policy="rls"), start, horizon, eps, seed


# sha256 over _random_closed_runs, recorded before the pair count was
# updated per move rather than recounted
CLOSED_RANDOM_SHA256 = (
    "e3ac06b314fd22e8e8f06762f2d70a5e87ea21e2bca15ae7dace675d55b50e25")


def test_closed_random_runs_are_pinned():
    """Each run of _random_closed_runs hashed as its stop time in hex (or
    None when censored), end counts and move count, or as the error it
    raised, so any change to the pair count or the level bookkeeping
    shows however the run ends."""
    digest = hashlib.sha256()
    for cfg, start, horizon, eps, seed in _random_closed_runs():
        try:
            run = simulate_closed(cfg, start, horizon=horizon, eps=eps,
                                  seed=seed)
        except ValueError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        stop = None if run.stop_time is None else run.stop_time.hex()
        digest.update(repr((stop, run.trajectory.final.counts,
                            run.trajectory.event_counts["migration"])).encode())
    assert digest.hexdigest() == CLOSED_RANDOM_SHA256


def test_eps_stop_never_later_than_exact_balance():
    cfg = SystemConfig(m=4, policy="rls", resample_rate=1.0)
    initial = (8, 0, 0, 0)
    for seed in range(20):
        t_eps = simulate_closed(cfg, initial, horizon=500.0, eps=0.5,
                                seed=seed).stop_time
        t_bal = simulate_closed(cfg, initial, horizon=500.0, seed=seed).stop_time
        assert t_eps <= t_bal


def test_closed_rls_extremes_monotone():
    """Accepted moves strictly improve a share, so with equal service rates
    the running maximum never rises and the minimum never falls. The path is
    read from outside the loop: a rerun cut off at horizon h ends in the
    path's state at h."""
    cfg = SystemConfig(m=5, policy="rls", resample_rate=1.0)
    start = (20, 0, 0, 0, 0)
    res = simulate_closed(cfg, start, horizon=200.0, seed=42)
    assert res.stop_time is not None
    grid = 0.05 * np.arange(1, int(res.stop_time / 0.05) + 1)
    path = np.array([start]
                    + [simulate_closed(cfg, start, horizon=h, seed=42)
                       .trajectory.final.counts for h in grid]
                    + [res.trajectory.final.counts])
    assert len(path) > 10 and np.all(path.sum(axis=1) == 20)
    assert np.all(np.diff(path.max(axis=1)) <= 0)
    assert np.all(np.diff(path.min(axis=1)) >= 0)


# --- open driver ----------------------------------------------------------------

def test_open_conservation_and_records():
    cfg = SystemConfig(m=3, policy="rls", arrival_rates=0.5, resample_rate=0.4)
    traj, sojourns = simulate_open(cfg, horizon=80.0, sample_dt=0.1, seed=21)
    ev = traj.event_counts
    assert ev["arrival"] - ev["departure"] == sum(traj.counts[-1])
    arrive, depart = sojourns.T
    departed = ~np.isnan(depart)
    assert departed.sum() == ev["departure"]
    assert np.all(depart[departed] - arrive[departed] > 0)
    # one row per arrival, in arrival order
    assert len(sojourns) == ev["arrival"]
    assert np.all(np.diff(arrive) >= 0)


def test_sojourn_window_is_arrivals_in_warmup_to_cutoff():
    """measure_sojourns keeps exactly the clients arriving in [warmup,
    cutoff], both ends included: checked against a plain loop over the
    rows of the same run, with each edge on an actual arrival time."""
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.8, resample_rate=0.2)
    _, sojourns = simulate_open(cfg, horizon=40.0, seed=4, sample_dt=None)
    arrive = sojourns[:, 0]
    warmup, cutoff = arrive[len(arrive) // 4], arrive[-1]
    parts, censored = [], 0
    for a, d in sojourns:
        if warmup <= a <= cutoff:
            if math.isnan(d):
                censored += 1
            else:
                parts.append(d - a)
    assert len(parts) + censored == len(arrive) - len(arrive) // 4
    assert censored > 0
    out = measure_sojourns(cfg, horizon=40.0, warmup=warmup, reps=1,
                           cutoff=cutoff, base_seed=4)
    assert out.per_rep == ((math.fsum(parts), len(parts), censored),)


def window_reference(rows, warmup, cutoff):
    """(total, completed, in_window) by a plain loop and math.fsum."""
    parts, in_window = [], 0
    for a, d in rows:
        if warmup <= a <= cutoff:
            in_window += 1
            if not math.isnan(d):
                parts.append(d - a)
    return math.fsum(parts), len(parts), in_window


def assert_window_is_reference(rows, warmup, cutoff):
    rows = np.asarray(rows, dtype=float).reshape(-1, 2)
    total, completed, in_window = sojourn_window(rows, warmup, cutoff)
    ref = window_reference(rows, warmup, cutoff)
    assert (total.hex(), completed, in_window) == (ref[0].hex(), *ref[1:])


def test_sojourn_window_edges():
    """An empty run, a run with no departure, and arrivals exactly on the
    window's ends, which count, and one float outside them, which do not."""
    assert sojourn_window(np.empty((0, 2)), 0.0, 1.0) == (0.0, 0, 0)
    nan = math.nan
    assert sojourn_window(np.array([[1.0, nan], [2.0, nan]]), 0.0, 5.0) == (
        0.0, 0, 2)
    warmup, cutoff = 2.0, 7.5
    rows = [[np.nextafter(warmup, 0.0), 3.0], [warmup, 3.25],
            [4.0, nan], [cutoff, 9.0], [np.nextafter(cutoff, 9.0), 9.0]]
    assert sojourn_window(np.array(rows), warmup, cutoff) == (2.75, 2, 3)
    for edges in ((warmup, cutoff), (0.0, 100.0), (5.0, 4.0)):
        assert_window_is_reference(rows, *edges)
    with pytest.raises(ValueError, match="shape"):
        sojourn_window(np.zeros((3, 3)), 0.0, 1.0)


@pytest.mark.parametrize("parts", [
    [2.0 ** 53, 1.0, 1.0],  # a plain sum loses both ones
    [1.0, 1e100, 1.0, -1e100],
    [2.0 ** 53, -0.5, -2.0 ** -54],
    [2.0 ** 53, 1.0, 2.0 ** -100],
    [2.0 ** 53 + 10.0, 1.0, 2.0 ** -100],
    [2.0 ** 53 - 4.0, 0.5, 2.0 ** -54],
    [1.0, 2.0 ** -53, 2.0 ** -106],  # half-way: the correction rounds up
    [1.0, 2.0 ** -53, -2.0 ** -106],
    [-0.0, -0.0],
    [1e-320, 3e-320, -5e-324],
])
def test_sojourn_window_total_is_fsum(parts):
    """A client arriving at 0 and leaving at v stays v, so the total can be
    any fsum; these are sums that a plain or a pairwise sum gets wrong."""
    assert_window_is_reference([[0.0, v] for v in parts], -1.0, 1.0)
    assert sojourn_window(np.array([[0.0, v] for v in parts]), -1.0, 1.0)[0] \
        == math.fsum(parts)


def test_sojourn_window_total_is_fsum_on_random_rows():
    """Terms over 600 orders of magnitude and both signs, with cancelling
    pairs, then the rows of tracked runs, censored clients included."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        v = np.concatenate([v, -v[: n // 3], rng.standard_normal(n)])
        rows = np.column_stack([np.zeros(v.size), rng.permutation(v)])
        assert_window_is_reference(rows, 0.0, 0.0)
    censored = 0
    for m, policy, seed in ((1, "rls", 1), (5, "rlo", 2), (20, "rls", 3)):
        cfg = SystemConfig(m=m, policy=policy, arrival_rates=0.9,
                           resample_rate=0.5)
        _, rows = simulate_open(cfg, 300.0, seed, sample_dt=None)
        censored += np.isnan(rows[:, 1]).sum()
        assert_window_is_reference(rows, 60.0, 300.0)
        assert_window_is_reference(rows, rows[7, 0], rows[-9, 0])
    assert censored > 0


def test_open_seeded_initial_gets_no_records():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.0, resample_rate=0.5)
    traj, sojourns = simulate_open(cfg, horizon=10.0, sample_dt=0.1, seed=2,
                                   initial=(3, 0))
    assert sojourns.shape == (0, 2)  # seeded clients never arrived
    assert sum(traj.counts[-1]) <= 3


def test_open_cap_drops_arrivals():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=5.0, resample_rate=0.1,
                       cap=2)
    traj, _ = simulate_open(cfg, horizon=30.0, sample_dt=0.1, seed=8)
    assert traj.counts.max() <= 2
    assert traj.event_counts["arrival_dropped"] > 0
    with pytest.raises(ValueError):
        simulate_open(cfg, horizon=1.0, sample_dt=0.1, initial=(3, 0))
    # an rlo hop onto a full server is blocked, never carried out
    rlo = SystemConfig(m=2, policy="rlo", arrival_rates=5.0, resample_rate=1.0,
                       cap=2, include_self=False)
    traj, _ = simulate_open(rlo, horizon=30.0, sample_dt=0.1, seed=8)
    assert traj.counts.max() <= 2
    assert traj.event_counts["migration_blocked"] > 0


def test_open_untracked_run_matches_event_totals():
    for include_self in (True, False):
        cfg = SystemConfig(m=2, policy="rlo", arrival_rates=0.7, resample_rate=0.3,
                           include_self=include_self)
        traj, sojourns = simulate_open(cfg, horizon=25.0, sample_dt=0.1,
                                       seed=13, track_sojourns=False)
        assert sojourns.shape == (0, 2)
        ev = traj.event_counts
        assert ev["arrival"] - ev["departure"] == sum(traj.counts[-1])
        # an rlo hop lands on its own server exactly when self-jumps are on
        assert (ev["resample_self"] > 0) == include_self
        assert ev["migration"] > 0


def test_open_argument_validation():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.5)
    with pytest.raises(ValueError):
        simulate_open(cfg, horizon=0.0, sample_dt=0.1)
    with pytest.raises(ValueError):
        simulate_open(cfg, horizon=1.0, sample_dt=0.1, initial=(1,))
    # a non-finite horizon is refused, not run forever
    empty = SystemConfig(m=2, policy="rls", arrival_rates=0.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate_open(empty, horizon=horizon, sample_dt=None)


# --- sampling grids --------------------------------------------------------------

def test_sample_grid_is_exact_multiples():
    cfg = SystemConfig(m=2, policy="rlo", resample_rate=1.0)
    traj, _ = simulate_open(cfg, horizon=1.0, seed=3, sample_dt=0.002,
                            initial=(5, 5))
    # index * dt, not running addition: no accumulated float drift
    np.testing.assert_array_equal(traj.times, np.arange(501) * 0.002)


def test_off_grid_horizon_appends_final_row():
    cfg = SystemConfig(m=2, policy="rls")
    traj, _ = simulate_open(cfg, horizon=0.9, sample_dt=0.25, initial=(2, 0))
    np.testing.assert_array_equal(traj.times, [0.0, 0.25, 0.5, 0.75, 0.9])


def test_open_empty_system_grid():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.0)
    traj, _ = simulate_open(cfg, horizon=1.0, sample_dt=0.5)
    np.testing.assert_array_equal(traj.times, [0.0, 0.5, 1.0])
    assert np.all(traj.counts == 0)


def test_sample_dt_none_records_endpoints_only():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.5)
    traj, _ = simulate_open(cfg, horizon=5.0, seed=6, sample_dt=None)
    np.testing.assert_array_equal(traj.times, [0.0, 5.0])


# --- building the compiled loop ---------------------------------------------------

PACKAGE = Path(ctmc.__file__).parent
# one short tracked open run and one closed replication: the digest of
# their occupancies, sojourn rows, stop time and move count
FIRST_RUN = """
import hashlib
from migratesim import ctmc
from migratesim.model import SystemConfig
traj, sojourns = ctmc.simulate_open(
    SystemConfig(m=3, policy="rls", arrival_rates=0.6, resample_rate=0.7),
    200.0, 1, sample_dt=None)
run = ctmc.simulate_closed(SystemConfig(m=8, policy="rls"), (40,) + (0,) * 7,
                           horizon=1000.0, seed=1)
print(ctmc._LIB._name)
print(hashlib.sha256(traj.counts.tobytes() + sojourns.tobytes() + repr(
    (run.stop_time, run.trajectory.event_counts)).encode()).hexdigest())
"""


def _fresh_import(script, cache, package=PACKAGE, path=None):
    """Start an interpreter that imports ``package`` with an own cache."""
    env = {**os.environ, "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": str(package.parent)}
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _first_run_digest():
    traj, sojourns = simulate_open(
        SystemConfig(m=3, policy="rls", arrival_rates=0.6, resample_rate=0.7),
        200.0, 1, sample_dt=None)
    run = simulate_closed(SystemConfig(m=8, policy="rls"), (40,) + (0,) * 7,
                          horizon=1000.0, seed=1)
    return hashlib.sha256(traj.counts.tobytes() + sojourns.tobytes() + repr(
        (run.stop_time, run.trajectory.event_counts)).encode()).hexdigest()


def test_build_keeps_floating_point_exact():
    """The loops must round as CPython does, so the build may not contract
    a multiply and add into one instruction or reorder floating point. The
    pinned digests catch a rounding change only where a pinned run happens
    to hit it, so the flags themselves are checked."""
    assert "-ffp-contract=off" in ctmc.CC
    for flag in ctmc.CC:
        assert flag not in ("-ffast-math", "-Ofast",
                            "-funsafe-math-optimizations",
                            "-fassociative-math"), flag
        assert not flag.startswith("-march="), flag


# what the library exports: the two loops, the open loop's release, and the
# sojourn window sum that experiments calls
EXPORTS = {"closed_loop", "open_free", "open_loop", "sojourn_window"}


@pytest.mark.skipif(shutil.which("nm") is None, reason="nm is not on PATH")
def test_library_holds_no_static_data(tmp_path):
    """Replications call the loops from several threads at once, which is
    safe because event_loops.c keeps no static data: each call's state
    lives on its stack or in what it allocates. So event_loops.c compiled
    alone defines no .data or .bss symbol, and every such symbol of the
    built library comes from the C runtime's start files. The library
    exports exactly EXPORTS."""
    def nm(*args):
        out = subprocess.run(["nm", *args], capture_output=True, text=True,
                             check=True).stdout
        return [line.split() for line in out.splitlines() if line.strip()]

    obj = tmp_path / "event_loops.o"
    flags = [f for f in ctmc.CC if f != "-shared"]
    subprocess.run([*flags, "-c", "-o", str(obj), str(PACKAGE / "event_loops.c")],
                   check=True)
    own = {f[-1]: f[-2] for f in nm(str(obj)) if len(f) == 3}
    assert {name for name, kind in own.items() if kind in "bBdD"} == set()
    lib = ctmc._LIB._name
    data = {f[-1] for f in nm(lib) if len(f) == 3 and f[1] in "bBdD"}
    assert data.isdisjoint(own)
    exported = {f[-1] for f in nm("-D", "--defined-only", lib)}
    assert exported == EXPORTS


def _compile_with_loops(tmp_path, name, main, flags=("cc",)):
    """Build ``main`` with event_loops.c included, so that it reaches the
    file's static functions. Returns (the executable, the build result)."""
    source = tmp_path / f"{name}.c"
    source.write_text("#include <stdio.h>\n"
                      f'#include "{PACKAGE / "event_loops.c"}"\n' + main)
    exe = tmp_path / name
    build = subprocess.run([*flags, "-o", str(exe), str(source), "-lm"],
                           capture_output=True, text=True)
    return exe, build


def test_ctypes_mirrors_match_the_c_layout(tmp_path):
    """_OpenRun and _ClosedRun mirror open_run and closed_run: a probe
    compiled with event_loops.c prints the offset and size of every field
    the mirrors name, the item size of every pointer field (closed_run's
    per-run inputs and outputs among them), then each struct's size, and
    ctypes agrees on each."""
    mirrors = {"open_run": ctmc._OpenRun, "closed_run": ctmc._ClosedRun}
    probes = [(f"{c}.{name}", f"offsetof({c}, {name})", getattr(s, name).offset)
              for c, s in mirrors.items() for name, _ in s._fields_]
    probes += [(f"{c}.{name} size", f"sizeof((({c} *)0)->{name})",
                ctypes.sizeof(kind))
               for c, s in mirrors.items() for name, kind in s._fields_]
    probes += [(f"{c}.{name} item", f"sizeof(*(({c} *)0)->{name})",
                ctypes.sizeof(kind._type_))
               for c, s in mirrors.items() for name, kind in s._fields_
               if issubclass(kind, ctypes._Pointer)]
    probes += [(c, f"sizeof({c})", ctypes.sizeof(s)) for c, s in mirrors.items()]
    # a field the C struct lacks stops the build, which names it
    exe, build = _compile_with_loops(
        tmp_path, "layout", "#include <stddef.h>\nint main(void)\n{\n"
        + "".join(f'    printf("%zu\\n", {expr});\n' for _, expr, _ in probes)
        + "    return 0;\n}\n")
    assert build.returncode == 0, build.stderr
    out = subprocess.run([str(exe)], capture_output=True, text=True,
                         check=True).stdout.split()
    assert dict(zip([label for label, _, _ in probes], map(int, out))) == {
        label: value for label, _, value in probes}
    assert len(out) == len(probes)


# reads lines of "m k low counts..." and prints pairs_delta for the move of
# a client from a server at level k to one at level low, below[] made from
# the counts up to level top + 2 as closed_loop makes it
PAIRS_DELTA_PROBE = """
int main(void)
{
    long long m, k, low, c;
    int64_t s, v, top, *counts, *levels;

    while (scanf("%lld %lld %lld", &m, &k, &low) == 3) {
        counts = malloc((size_t)m * sizeof *counts);
        for (top = s = 0; s < m && scanf("%lld", &c) == 1; s++) {
            counts[s] = c;
            top = c > top ? c : top;
        }
        levels = calloc((size_t)top + 4, sizeof *levels);
        for (s = 0; s < m; s++)
            levels[counts[s] + 2]++;
        for (v = 1; v < top + 4; v++)
            levels[v] += levels[v - 1];
        printf("%lld\\n", (long long)pairs_delta(levels + 1, k, low));
        free(counts);
        free(levels);
    }
    return 0;
}
"""


def _accepted_pairs(counts) -> int:
    """The closed loop's pair count by brute force: sum c_a over the
    ordered server pairs (a, b) with c_a >= c_b + 2."""
    return sum(a for a in counts for b in counts if a >= b + 2)


def test_pairs_delta_matches_a_brute_force_count(tmp_path):
    """closed_loop counts the accepted pairs once and then adds
    pairs_delta per move. On 400 random states, every move between two
    occupied levels k and low <= k - 2 must change the brute-force count by
    exactly pairs_delta, and the moves include k = top, low = k - 2,
    low = k - 3 and low = 0."""
    rng = Random(11)
    cases, seen = [], set()
    for _ in range(400):
        m = rng.randint(2, 12)
        counts = [rng.choice((0, 1, 2, 3, rng.randint(0, 40)))
                  for _ in range(m)]
        top = max(counts)
        for k in sorted(set(counts)):
            for low in sorted(set(counts)):
                if low > k - 2:
                    continue
                after = list(counts)
                after[counts.index(k)] -= 1
                after[counts.index(low)] += 1
                delta = _accepted_pairs(after) - _accepted_pairs(counts)
                cases.append((m, k, low, counts, delta))
                seen.update(name for name, hit in (
                    ("top", k == top), ("k-2", low == k - 2),
                    ("k-3", low == k - 3), ("0", low == 0)) if hit)
    assert seen == {"top", "k-2", "k-3", "0"}
    exe, build = _compile_with_loops(tmp_path, "pairs_delta", PAIRS_DELTA_PROBE)
    assert build.returncode == 0, build.stderr
    stdin = "".join(f"{m} {k} {low} {' '.join(map(str, counts))}\n"
                    for m, k, low, counts, _ in cases)
    out = subprocess.run([str(exe)], input=stdin, capture_output=True,
                         text=True, check=True).stdout.split()
    assert [int(d) for d in out] == [delta for *_, delta in cases]


# reads lines of "m horizon band_lo band_hi runs start... key_len key...",
# one key_len and its key per run, makes one closed_loop call of each line,
# and prints its status and failed run, then per run t in hex, stopped, the
# moves and the end counts
CLOSED_DRIVER = """
int main(void)
{
    long long m, band_lo, band_hi, runs, c;
    double horizon;
    int64_t s, k, used, *start, *lens, *stopped, *moves, *counts;
    uint32_t *keys;
    double *t;
    closed_run r;
    int status;

    while (scanf("%lld %lf %lld %lld %lld", &m, &horizon, &band_lo, &band_hi,
                 &runs) == 5) {
        start = malloc((size_t)m * sizeof *start);
        for (s = 0; s < m && scanf("%lld", &c) == 1; s++)
            start[s] = c;
        lens = malloc((size_t)runs * sizeof *lens);
        keys = NULL;
        for (used = k = 0; k < runs && scanf("%lld", &c) == 1; k++) {
            lens[k] = c;
            keys = realloc(keys, (size_t)(used + c) * sizeof *keys);
            for (s = 0; s < lens[k] && scanf("%lld", &c) == 1; s++)
                keys[used++] = (uint32_t)c;
        }
        t = malloc((size_t)runs * sizeof *t);
        stopped = malloc((size_t)runs * sizeof *stopped);
        moves = malloc((size_t)runs * sizeof *moves);
        counts = malloc((size_t)(runs * m) * sizeof *counts);
        r = (closed_run){.m = m, .horizon = horizon, .band_lo = band_lo,
                         .band_hi = band_hi, .start = start, .runs = runs,
                         .keys = keys, .key_lens = lens, .t = t,
                         .stopped = stopped, .moves = moves,
                         .counts = counts};
        status = closed_loop(&r);
        printf("%d %lld\\n", status, (long long)r.failed);
        for (k = 0; k < runs; k++) {
            printf("%a %lld %lld", t[k], (long long)stopped[k],
                   (long long)moves[k]);
            for (s = 0; s < m; s++)
                printf(" %lld", (long long)counts[k * m + s]);
            printf("\\n");
        }
        free(start);
        free(lens);
        free(keys);
        free(t);
        free(stopped);
        free(moves);
        free(counts);
    }
    return 0;
}
"""
SANITIZE = ("-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")


def _sanitized_closed_calls():
    """(start, eps, horizon, seeds) for the sanitized closed loop, one
    closed_loop call each. One run a call: the benchmark's three cells, eps
    bands, censored runs, and random starts, among them two-level starts
    whose first move goes from the top level k to level k - 2. Several runs
    a call: seeds of one, two and three words mixed in each of the
    benchmark's cells and an eps band, a race whose horizon censors some of
    its runs and not others, and a start already in its band."""
    calls = [(_all_at_one(m, n), None, 1000.0, (seed,))
             for m, n in ((2, 2), (32, 1024), (64, 256))
             for seed in (0, 1, 54 * 8 * 10 ** 7 + 20002)]
    calls += [(_all_at_one(16, 256), 0.2, 1000.0, (3,)),
              ((20, 0, 30, 1, 0, 9, 0, 4, 7, 0, 0, 1), 0.25, 1000.0, (4,)),
              (_all_at_one(32, 1024), None, 0.5, (5,)),
              (_all_at_one(32, 1024), 0.5, 1000.0, (2 ** 70 + 9,))]
    rng = Random(5)
    for seed in range(80):
        m = rng.randint(2, 40)
        if seed % 2:
            k = rng.randint(2, 30)
            start = tuple(rng.choice((k, k - 2)) for _ in range(m - 1)) + (k,)
        else:
            start = tuple(rng.randint(0, 3 * rng.randint(1, 10))
                          for _ in range(m))
        calls.append((start, rng.choice((None, 0.5)), 1000.0, (-seed,)))
    mixed = (0, 2 ** 32 + 7, -3, 2 ** 70 + 9, 54 * 8 * 10 ** 7 + 20002, 11)
    calls += [(_all_at_one(m, n), None, 1000.0, mixed)
              for m, n in ((2, 2), (32, 1024), (64, 256))]
    calls += [(_all_at_one(16, 256), 0.2, 1000.0, mixed),
              ((2, 0), None, 0.5, tuple(range(2 ** 32 - 6, 2 ** 32 + 6))),
              ((3, 2, 3), None, 1000.0, mixed)]
    return calls


def test_closed_loop_is_clean_under_sanitizers(tmp_path):
    """event_loops.c with a small driver, built with AddressSanitizer and
    UndefinedBehaviorSanitizer, makes one closed_loop call of each entry of
    _sanitized_closed_calls: it must exit cleanly with no sanitizer report,
    and end each run as simulate_closed does with that run's seed alone.
    An out-of-bounds read of below[] or of a later run's key, or an
    overflow of the pair count, stops the run with a report."""
    flags = [f for f in ctmc.CC if f not in ("-shared", "-fPIC")] + list(SANITIZE)
    trivial = tmp_path / "trivial.c"
    trivial.write_text("int main(void)\n{\n    return 0;\n}\n")
    probe = subprocess.run([*flags, "-o", str(tmp_path / "trivial"),
                            str(trivial)], capture_output=True, text=True)
    if probe.returncode:
        pytest.skip("the address and undefined-behaviour sanitizer runtimes "
                    f"do not link with {flags[0]}: {probe.stderr.strip()}")
    exe, build = _compile_with_loops(tmp_path, "closed", CLOSED_DRIVER, flags)
    assert build.returncode == 0, build.stderr
    calls = _sanitized_closed_calls()
    lines = []
    for start, eps, horizon, seeds in calls:
        m, n = len(start), sum(start)
        lo, hi = (n // m, -(-n // m)) if eps is None else eps_band(m, n, eps)
        words, lengths = ctmc._seed_keys(seeds)
        keys = iter(memoryview(words).cast("I"))
        lines.append(" ".join(map(str, (
            m, repr(horizon), lo, hi, len(seeds), *start,
            *(x for length in lengths
              for x in (length, *islice(keys, length)))))))
    done = subprocess.run([str(exe)], input="\n".join(lines) + "\n",
                          capture_output=True, text=True)
    assert done.returncode == 0 and "Sanitizer" not in done.stderr \
        and "runtime error" not in done.stderr, done.stderr
    out = iter(done.stdout.splitlines())
    got, expected = [], []
    for start, eps, horizon, seeds in calls:
        assert next(out).split()[0] == "0"  # the status; failed is unread
        for _ in seeds:
            t, stopped, moves, *counts = next(out).split()
            got.append((float.fromhex(t), stopped == "1", int(moves),
                        tuple(map(int, counts))))
        for seed in seeds:
            run = simulate_closed(SystemConfig(m=len(start), policy="rls"),
                                  start, horizon=horizon, eps=eps, seed=seed)
            end = run.trajectory
            expected.append((end.final.t, run.stop_time is not None,
                             end.event_counts["migration"], end.final.counts))
    assert next(out, None) is None
    assert len(got) == len(expected) > 100
    assert got == expected
    # the race call censors some of its runs and stops the others, and the
    # in-band call stops each run at 0 without a move
    race = expected[-len(calls[-1][3]) - len(calls[-2][3]):-len(calls[-1][3])]
    assert {stopped for _, stopped, _, _ in race} == {False, True}
    assert set(expected[-len(calls[-1][3]):]) == {(0.0, True, 0, (3, 2, 3))}


def test_import_without_cc_names_it(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    proc = _fresh_import("import migratesim.ctmc", tmp_path / "cache",
                         path=str(empty))
    _, err = proc.communicate()
    assert proc.returncode != 0
    assert "ImportError" in err and "`cc`" in err


def test_concurrent_first_imports_share_one_build(tmp_path):
    """Two interpreters that find the cache empty both compile; each writes
    under its own temporary name and renames into place, so both load a
    whole build and run the same numbers as this process, in the open and
    the closed loop."""
    procs = [_fresh_import(FIRST_RUN, tmp_path) for _ in range(2)]
    outs = [proc.communicate() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    (lib_a, digest_a), (lib_b, digest_b) = (out.split() for out, _ in outs)
    assert lib_a == lib_b
    assert digest_a == digest_b == _first_run_digest()
    built = sorted(p.name for p in (tmp_path / "migratesim").iterdir())
    assert built == [Path(lib_a).name]


def test_edited_source_gets_its_own_build(tmp_path):
    """The build is keyed by the source bytes, so a copy of the package
    with an edited event_loops.c compiles and loads its own library rather
    than a stale one."""
    copy = tmp_path / "src" / "migratesim"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "event_loops.c", "a") as fh:
        fh.write("/* edited */\n")
    libs = []
    for package in (PACKAGE, copy):
        proc = _fresh_import(FIRST_RUN, tmp_path / "cache", package=package)
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        libs.append(Path(out.split()[0]))
    assert libs[0] != libs[1]
    assert sorted(p.name for p in (tmp_path / "cache" / "migratesim").iterdir()
                  ) == sorted(lib.name for lib in libs)


# --- the three-colour audit chain -------------------------------------------------

def test_coupled_structural_identities():
    """Blue plus red only grows by arrivals; every removal event adds one
    particle to red plus green, hit or miss."""
    for seed in range(50):
        out = simulate_coupled((5, 5), (1.0, 1.0), (1.0, 1.0), horizon=2.0,
                               seed=seed)
        ev = out.event_counts
        assert sum(out.final.blue) + sum(out.final.red) == 10 + ev["arrival"]
        assert sum(out.final.red) + sum(out.final.green) == (
            ev["removal_hit"] + ev["removal_miss"])


def test_coupled_walk_only_conserves_everything():
    out = simulate_coupled((3, 1), (0.0, 0.0), (0.0, 0.0), horizon=4.0, seed=1)
    assert sum(out.final.blue) == 4
    assert sum(out.final.red) == sum(out.final.green) == 0
    assert out.event_counts["arrival"] == 0


def test_coupled_rejects_bad_input():
    with pytest.raises(ValueError):
        simulate_coupled((-1, 0), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        simulate_coupled((1, 0), (1.0,), (1.0, 1.0))
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate_coupled((0, 0), (0.0, 0.0), (0.0, 0.0), horizon=horizon)


# --- config echo -------------------------------------------------------------------

def test_config_echo_is_canonical_json():
    import json
    cfg = SystemConfig(m=2, policy="rlo", arrival_rates=(0.1, 0.2), cap=4)
    echo = json.loads(config_echo(cfg))
    # the schema is pinned: a field added to or dropped from SystemConfig
    # changes this test, not just a CSV comment line
    assert set(echo) == {"arrival_rates", "cap", "include_self", "m", "policy",
                         "resample_rate", "service_rates"}
    assert echo["m"] == 2 and echo["cap"] == 4
    assert echo["policy"] == "rlo"
    assert config_echo(cfg) == config_echo(cfg)
