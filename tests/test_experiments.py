"""Experiment-layer tests: the sojourn pipeline against an exactly solvable
two-server chain, drift enumeration against a hand transcription of the
generator, the deviation metric, the stability probe, artifact writers, and
the normal quantile behind every interval."""

import csv
import hashlib
import json
import math
import os
import platform
from fractions import Fraction
from importlib import metadata
from itertools import product

import numpy as np
import pytest
import scipy.stats
from scipy.sparse.linalg import spsolve

from migratesim import experiments
from migratesim.cli import RunManifest, write_results_csv
from migratesim.experiments import (
    counts_from_measure,
    drift_exclusion_threshold,
    kurtz_deviation,
    lyapunov_drift,
    measure_sojourns,
    stability_probe,
    throughput_comparison,
)
from migratesim.meanfield import integrate, point_mass
from migratesim.model import ConfigError, SystemConfig
from migratesim.stats import SEED_STRIDE, Z95, mean_sd

from open_law import two_server_generator


# --- exact two-server oracle for the sojourn pipeline --------------------------

def two_server_walk_stationary(lam, beta, n_max):
    """Stationary law of the two-server oblivious chain, truncated at n_max.

    Clients arrive at rate lam per server, depart at unit rate from busy
    servers, and hop to the other server at rate beta each: the open chain
    of rlo without self-jumps, capped at n_max, which is the truncation.
    The truncation mass at the boundary is checked to be negligible before
    use.
    """
    cfg = SystemConfig(m=2, policy="rlo", arrival_rates=lam,
                       resample_rate=beta, include_self=False, cap=n_max)
    states, q = two_server_generator(cfg)
    size = len(states)
    gen = q.T.tolil()
    # replace one balance equation by the normalization
    gen[size - 1, :] = 1.0
    rhs = np.zeros(size)
    rhs[size - 1] = 1.0
    pi = spsolve(gen.tocsr(), rhs)
    boundary = sum(p for p, (a, b) in zip(pi, states) if n_max in (a, b))
    assert boundary < 1e-7, "truncation level too low for the oracle"
    y = sum(p * (a + b) for p, (a, b) in zip(pi, states)) / 2.0
    return pi, y


def test_sojourn_pipeline_matches_exact_chain():
    lam, beta = 0.8, 0.5
    _, y_exact = two_server_walk_stationary(lam, beta, n_max=70)
    thr_exact = lam / y_exact
    # regression anchor for the oracle itself
    assert y_exact == pytest.approx(2.7182, abs=2e-3)

    cfg = SystemConfig(m=2, policy="rlo", arrival_rates=lam, resample_rate=beta,
                       include_self=False)
    out = measure_sojourns(cfg, horizon=600.0, warmup=120.0, reps=20,
                           base_seed=0, cutoff=540.0)
    per_rep_thr = [c / s for s, c, _ in out.per_rep if c > 0]
    _, sd = mean_sd(per_rep_thr)
    se = sd / math.sqrt(len(per_rep_thr))
    assert abs(out.throughput - thr_exact) < 3 * se
    assert out.ci95 is not None
    assert out.censored < 0.02 * out.clients


def test_single_server_sojourn_matches_the_sharing_queue():
    # one server at load 0.5: resampling has nowhere to send anyone, and the
    # egalitarian sharing queue has mean sojourn 1 / (1 - 0.5) = 2
    cfg = SystemConfig(m=1, policy="rls", arrival_rates=0.5, resample_rate=0.7)
    out = measure_sojourns(cfg, horizon=900.0, warmup=150.0, reps=20,
                           base_seed=41, cutoff=820.0)
    assert out.censored == 0
    assert out.mean_sojourn == pytest.approx(2.0, rel=0.08)
    lo, hi = out.ci95
    assert lo <= 0.5 <= hi


def test_measure_sojourns_plumbing():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.5, resample_rate=0.5)
    out = measure_sojourns(cfg, horizon=120.0, warmup=30.0, reps=3,
                           cutoff=120.0, base_seed=5)
    assert out.per_rep == tuple(
        measure_sojourns(cfg, horizon=120.0, warmup=30.0, reps=1,
                         cutoff=120.0, base_seed=s).per_rep[0]
        for s in (5, 6, 7))
    assert out.clients == sum(c for _, c, _ in out.per_rep)
    assert out.mean_sojourn == pytest.approx(
        math.fsum(s for s, _, _ in out.per_rep) / out.clients)
    assert out.throughput == pytest.approx(1.0 / out.mean_sojourn)
    assert out.ci95 is None  # below the interval threshold
    with pytest.raises(ValueError):
        measure_sojourns(cfg, horizon=10.0, warmup=0.0, reps=0, cutoff=10.0)
    with pytest.raises(ValueError, match="warmup"):
        measure_sojourns(cfg, horizon=1.0, warmup=2.0, reps=1, cutoff=1.0)


def test_measure_sojourns_jobs_parity():
    # 24 reps over 2 workers make 8 chunks of 3, shared by the two threads
    cfg = SystemConfig(m=2, policy="rlo", arrival_rates=0.4, resample_rate=0.3)
    a = measure_sojourns(cfg, horizon=60.0, warmup=10.0, reps=24, cutoff=60.0,
                         base_seed=2)
    b = measure_sojourns(cfg, horizon=60.0, warmup=10.0, reps=24, cutoff=60.0,
                         base_seed=2, jobs=2)
    assert a.per_rep == b.per_rep


# --- drift enumeration -----------------------------------------------------------

F = Fraction
DRIFT_CFG = SystemConfig(m=3, policy="rls", arrival_rates=F(1, 5),
                         service_rates=F(1), resample_rate=F(1))
EPS, GAMMA = F(1, 10), F(1, 20)


def brute_force_drift(counts, cfg, eps):
    """Independent generator transcription: enumerate moves on whole vectors
    and sum rate * delta of f(n) = sum_i max(eps, n_i), in exact arithmetic.
    Moves are decided by comparing Fraction shares, not through rls_accepts,
    so the oracle shares no code with lyapunov_drift."""
    def f(state):
        return sum(max(eps, c) for c in state)

    lam, mu = cfg.arrival_rates, cfg.service_rates
    base = f(counts)
    total = F(0)
    for i, ni in enumerate(counts):
        bumped = counts[:i] + (ni + 1,) + counts[i + 1:]
        total += lam[i] * (f(bumped) - base)
        if ni >= 1:
            dropped = counts[:i] + (ni - 1,) + counts[i + 1:]
            total += mu[i] * (f(dropped) - base)
            for j, nj in enumerate(counts):
                if j != i and F(mu[j], nj + 1) > F(mu[i], ni):
                    moved = list(counts)
                    moved[i] -= 1
                    moved[j] += 1
                    total += (F(cfg.resample_rate) * ni
                              * (f(tuple(moved)) - base) / cfg.m)
    return total


def test_drift_frozen_values():
    assert lyapunov_drift((0, 0, 0), DRIFT_CFG, EPS, GAMMA) == F(27, 50)
    assert lyapunov_drift((1, 0, 0), DRIFT_CFG, EPS, GAMMA) == F(-17, 50)
    assert lyapunov_drift((10, 0, 0), DRIFT_CFG, EPS, GAMMA) == F(-83, 75)
    assert lyapunov_drift((2, 3, 1), DRIFT_CFG, EPS, GAMMA) == F(-23, 10)


def test_drift_matches_brute_force_generator():
    # claim 10's 13^3 grid
    mismatches = [state for state in product(range(13), repeat=3)
                  if lyapunov_drift(state, DRIFT_CFG, EPS, GAMMA)
                  != brute_force_drift(state, DRIFT_CFG, EPS)]
    assert not mismatches, f"generator differs from the oracle at {mismatches[:4]}"


def test_drift_closed_form_when_no_server_idles():
    # with every server busy the migration terms cancel and the drift is
    # sum(lam - mu) plus eps * mu over the servers at occupancy one
    for s in [(1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 4, 4), (2, 3, 1)]:
        expected = sum(DRIFT_CFG.arrival_rates) - sum(DRIFT_CFG.service_rates)
        expected += EPS * sum(mu for mu, c in
                              zip(DRIFT_CFG.service_rates, s) if c == 1)
        assert lyapunov_drift(s, DRIFT_CFG, EPS, GAMMA) == expected


def test_drift_validation():
    rlo = SystemConfig(m=3, policy="rlo", arrival_rates=F(1, 5))
    with pytest.raises(ConfigError):
        lyapunov_drift((0, 0, 0), rlo, EPS, GAMMA)
    with pytest.raises(ConfigError):
        lyapunov_drift((0, 0, 0), DRIFT_CFG, F(2), GAMMA)
    with pytest.raises(ConfigError):
        lyapunov_drift((0, 0, 0), DRIFT_CFG, EPS, F(0))
    # eps so large the drift inequality cannot hold
    with pytest.raises(ConfigError, match="must stay below"):
        lyapunov_drift((0, 0, 0), DRIFT_CFG, F(9, 10), GAMMA)
    with pytest.raises(ValueError):
        lyapunov_drift((0, 0), DRIFT_CFG, EPS, GAMMA)


def test_exclusion_threshold():
    assert drift_exclusion_threshold(DRIFT_CFG, EPS, GAMMA) == 1
    # transcribe the formula directly
    lam_sum, mu_sum, mu_min = F(3, 5), F(3), F(1)
    need = 3 * (lam_sum - mu_min + EPS * mu_sum + GAMMA)
    assert drift_exclusion_threshold(DRIFT_CFG, EPS, GAMMA) == max(
        1, math.floor(need / (EPS * F(1))) + 1)
    no_moves = SystemConfig(m=3, policy="rls", arrival_rates=F(1, 5),
                            resample_rate=0)
    with pytest.raises(ConfigError):
        drift_exclusion_threshold(no_moves, EPS, GAMMA)


# --- deviation from the deterministic flow ------------------------------------------

def test_counts_from_measure_round_trip():
    counts = counts_from_measure((0.25, 0.5, 0.25), m=4)
    assert counts == (0, 1, 1, 2)
    assert counts_from_measure(point_mass(0, 3), m=5) == (0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="not integral"):
        counts_from_measure((0.3, 0.7), m=4)
    with pytest.raises(ValueError):
        counts_from_measure((0.5, 0.75), m=4)  # scales to 2 + 3 = 5 servers


def test_kurtz_deviation_zero_for_a_frozen_system():
    cfg = SystemConfig(m=10, policy="rlo", arrival_rates=0.0,
                       resample_rate=0.5, cap=8)
    ode = integrate("rlo", point_mass(0, 8), 2.0, sample_dt=0.5,
                    lam=0.0, beta=0.5)
    dev = kurtz_deviation(cfg, ode=ode, seed=0)
    assert dev == 0.0


def test_kurtz_deviation_small_system_is_positive_and_bounded():
    cfg = SystemConfig(m=50, policy="rlo", arrival_rates=0.8,
                       resample_rate=0.5, cap=20)
    ode = integrate("rlo", point_mass(0, 20), 2.0, dt=2e-3, sample_dt=0.5,
                    lam=0.8, beta=0.5)
    dev = kurtz_deviation(cfg, ode=ode, seed=1)
    assert 0.0 < dev < 1.0


def test_kurtz_deviation_guards():
    ode = [(0.0, point_mass(0, 5))]  # every guard raises before a run
    hetero = SystemConfig(m=2, policy="rlo", arrival_rates=(0.5, 0.1),
                          resample_rate=0.5, cap=5)
    with pytest.raises(ConfigError):
        kurtz_deviation(hetero, ode, 0)
    uncapped = SystemConfig(m=2, policy="rlo", arrival_rates=0.5,
                            resample_rate=0.5)
    with pytest.raises(ConfigError):
        kurtz_deviation(uncapped, ode, 0)
    slow = SystemConfig(m=2, policy="rlo", arrival_rates=0.5,
                        service_rates=2.0, resample_rate=0.5, cap=5)
    with pytest.raises(ConfigError):
        kurtz_deviation(slow, ode, 0)
    # one sample gives the simulation no grid spacing to follow
    capped = SystemConfig(m=2, policy="rlo", arrival_rates=0.5,
                          resample_rate=0.5, cap=5)
    with pytest.raises(ValueError, match="two samples"):
        kurtz_deviation(capped, ode, 0)


# --- stability probe ------------------------------------------------------------------

def test_probe_rejects_capped_and_tiny_seed_sets():
    capped = SystemConfig(m=2, policy="rls", arrival_rates=0.5,
                          resample_rate=0.5, cap=10)
    with pytest.raises(ConfigError, match="uncapped"):
        stability_probe(capped, 100.0, range(25))
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.5, resample_rate=0.5)
    with pytest.raises(ValueError):
        stability_probe(cfg, 100.0, [1])
    with pytest.raises(ValueError):
        stability_probe(cfg, 0.0, range(25))


def test_probe_few_seeds_is_inconclusive():
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.4, resample_rate=0.3)
    rep = stability_probe(cfg, 80.0, range(5))
    assert rep.verdict == "inconclusive"
    assert rep.slope_ci is None
    assert len(rep.per_seed_slopes) == 5


def test_probe_jobs_parity():
    # 24 seeds over 2 workers make 8 chunks of 3, shared by the two threads
    cfg = SystemConfig(m=2, policy="rls", arrival_rates=0.4, resample_rate=0.3)
    a = stability_probe(cfg, 40.0, range(24))
    b = stability_probe(cfg, 40.0, range(24), jobs=2)
    assert a == b


def test_probe_jobs_parity_with_overlapping_runs():
    # overloaded at m=10, each run carries hundreds of clients for
    # milliseconds of C, so the two threads' open loops run at the same time
    cfg = SystemConfig(m=10, policy="rls", arrival_rates=1.2, resample_rate=0.02)
    a = stability_probe(cfg, 200.0, range(8))
    b = stability_probe(cfg, 200.0, range(8), jobs=2)
    assert a == b


def test_probe_verdicts_on_light_and_heavy_load():
    light = SystemConfig(m=2, policy="rls", arrival_rates=0.4, resample_rate=0.3)
    rep = stability_probe(light, 200.0, range(20))
    assert rep.verdict == "stable"
    lo, hi = rep.slope_ci
    assert lo <= 0.0 <= hi

    heavy = SystemConfig(m=2, policy="rlo", arrival_rates=1.5, resample_rate=0.2)
    rep = stability_probe(heavy, 150.0, range(20))
    assert rep.verdict == "unstable"
    # population grows at the excess arrival rate 2 * (1.5 - 1)
    assert rep.growth_slope == pytest.approx(1.0, abs=0.3)
    assert rep.slope_ci[0] > 0


def test_probe_verdict_survives_server_relabeling():
    # swapping the two servers' rates describes the same system under the
    # uniform walk, so the probe must reach the same verdict (load 3.0 > 2.3)
    base = SystemConfig(m=2, policy="rlo", arrival_rates=(2.6, 0.4),
                        service_rates=(1.0, 1.3), resample_rate=0.2)
    perm = SystemConfig(m=2, policy="rlo", arrival_rates=(0.4, 2.6),
                        service_rates=(1.3, 1.0), resample_rate=0.2)
    rep_a = stability_probe(base, 150.0, range(20))
    rep_b = stability_probe(perm, 150.0, range(20))
    assert rep_a.verdict == rep_b.verdict == "unstable"
    assert rep_a.growth_slope == pytest.approx(rep_b.growth_slope, rel=0.3)


# --- comparison table -------------------------------------------------------------------

def test_throughput_comparison_small_cell():
    rows = throughput_comparison([2], [0.5], beta=0.5, horizon=250.0, reps=3,
                                 base_seed=0)
    assert len(rows) == 2 and {r.policy for r in rows} == {"rls", "rlo"}
    for row in rows:
        assert row.m == 2 and row.lam == 0.5
        assert row.rel_error == pytest.approx(
            abs(row.throughput - row.prediction) / row.prediction)
        assert row.clients > 0
        assert row.throughput == pytest.approx(1.0 / row.mean_sojourn)
    # cell c draws its replications from base_seed + c * SEED_STRIDE
    for c, row in enumerate(rows):
        config = SystemConfig(m=2, policy=row.policy, arrival_rates=0.5,
                              resample_rate=0.5)
        alone = measure_sojourns(
            config, 250.0, warmup=experiments.WARMUP_FRACTION * 250.0, reps=3,
            cutoff=250.0 - experiments.CENSOR_MARGIN / (1.0 - 0.5),
            base_seed=c * SEED_STRIDE)
        assert row.per_rep == alone.per_rep


def test_sojourn_tables_are_pinned():
    """Every field of a small comparison table, and of a sojourn summary
    whose window reaches the horizon so that some clients are censored: the
    sha256 of their reprs, recorded from the window sum written in numpy
    and the rls equilibrium's cut-balance bisection."""
    rows = throughput_comparison([5, 20], [0.5, 0.9], beta=0.5, horizon=300.0,
                                 reps=2, base_seed=7)
    censored = measure_sojourns(
        SystemConfig(m=20, policy="rlo", arrival_rates=0.9, resample_rate=0.5),
        horizon=300.0, warmup=60.0, reps=3, cutoff=300.0, base_seed=3)
    assert censored.censored > 0
    assert hashlib.sha256(repr([vars(r) for r in rows]).encode()).hexdigest() == (
        "b2f9c3f806a75e8ff897b8eec60eccb889f3f7636abc230d87d83fea9f4e0b55")
    assert hashlib.sha256(repr(vars(censored)).encode()).hexdigest() == (
        "c1cee9646a6d2c2b63095f1ac17e165936a0731160f828236b7cb9d1e6eefef8")


def test_throughput_comparison_domain():
    with pytest.raises(ValueError, match="outside"):
        throughput_comparison([2], [1.0], beta=0.5)
    with pytest.raises(ValueError, match="outside"):
        throughput_comparison([2], [0.0], beta=0.5)
    with pytest.raises(ValueError, match="too short"):
        throughput_comparison([2], [0.5], beta=0.5, horizon=30.0)


def test_throughput_comparison_rejects_reps_over_the_seed_stride(monkeypatch):
    # cell c seeds from base + c * SEED_STRIDE, so more reps than the stride
    # would reuse the next cell's seeds; refused before any solve or run
    def never(*args, **kwargs):
        raise AssertionError("ran work before refusing the replication count")

    monkeypatch.setattr(experiments, "_predict", never)
    monkeypatch.setattr(experiments, "measure_sojourns", never)
    with pytest.raises(ValueError, match="seed stride"):
        throughput_comparison([2, 3], [0.5], beta=0.5, reps=SEED_STRIDE + 1)
    # a full stride is the largest count that keeps the cells apart
    with pytest.raises(AssertionError, match="before refusing"):
        throughput_comparison([2, 3], [0.5], beta=0.5, reps=SEED_STRIDE)


# --- artifacts ----------------------------------------------------------------------------

def test_write_results_csv_formatting(tmp_path):
    path = tmp_path / "table.csv"
    write_results_csv(path, ("a", "b", "c", "flag"),
                      [{"a": 1, "b": 0.25, "c": None, "flag": True},
                       {"a": 2, "b": float("inf"), "c": "x", "flag": False},
                       {"a": 3, "b": np.float64(0.1), "c": None, "flag": None},
                       {"a": 4, "b": None, "c": 'say "hi", twice'},
                       {"a": 5, "b": None, "c": "two\nlines"}],
                      comments=["hello"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "a,b,c,flag"
    assert lines[2] == "1,0.25,,1"
    assert lines[3] == "2,inf,x,0"
    assert lines[4] == "3,0.1,,"  # numpy floats write like plain floats
    # only a cell holding a comma, a quote or a line break is quoted
    assert lines[5] == '4,,"say ""hi"", twice",'
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert [r[2] for r in rows] == ["", "x", "", 'say "hi", twice',
                                    "two\nlines"]


def test_write_manifest_schema(tmp_path):
    # the CLI's RunManifest is the package's one manifest writer
    path = tmp_path / "manifest.json"
    RunManifest("demo", {"m": 2}, (5, 3, 4), ("a.csv",), started=1.5).write(path)
    data = json.loads(path.read_text())
    assert data["subcommand"] == "demo"
    assert data["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count()}
    assert data["config"] == {"m": 2}
    assert data["seeds"] == {"first": 3, "last": 5, "count": 3}
    assert data["outputs"] == ["a.csv"]
    assert data["started"] == 1.5 and data["finished"] is None
    assert data["version"]
    assert "solver" not in data  # written only when a solver reports
    assert "warnings" not in data  # written only when the run warns
    RunManifest("demo", {}, (), (), started=1.5).write(path)
    assert json.loads(path.read_text())["seeds"] == {
        "first": None, "last": None, "count": 0}
    RunManifest("demo", {}, (), (), started=1.5,
                solver={"iterations": 4, "residual": 1e-16},
                warnings=["2 replication(s) censored"]).write(path)
    data = json.loads(path.read_text())
    assert data["solver"] == {"iterations": 4, "residual": 1e-16}
    assert data["warnings"] == ["2 replication(s) censored"]


# --- statistics --------------------------------------------------------------------------

def test_z95_is_scipys_normal_quantile():
    # the literal stands in for scipy's quantile so that no run loads scipy;
    # it must be the same float, since every interval is built from it
    assert Z95.hex() == float(scipy.stats.norm.ppf(0.975)).hex()
