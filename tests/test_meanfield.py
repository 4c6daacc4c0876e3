"""Mean-field layer: derivative fields, the tail-sum form, the stationary
solvers, and the deterministic integrator."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import migratesim
from migratesim.cli import main
from migratesim.meanfield import (
    OdeState,
    SolverError,
    equilibrium_rls,
    g_of_z,
    integrate,
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
from migratesim.model import measure_from_tails, tail_sums


def random_measures(count, b_cap, seed=0):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(b_cap + 1), size=count)


# --- slow reference evaluations of both derivative fields ---------------------

def naive_rlo(x, lam, beta):
    b = len(x) - 1
    y = sum(k * v for k, v in enumerate(x))
    up = [(lam + beta * y) * x[k] if k < b else 0.0 for k in range(b + 1)]
    down = [(1.0 + beta * k) * x[k] if k >= 1 else 0.0 for k in range(b + 1)]
    out = []
    for k in range(b + 1):
        v = -up[k] - down[k]
        if k >= 1:
            v += up[k - 1]
        if k < b:
            v += down[k + 1]
        out.append(v)
    return out


def naive_rls(x, lam, beta):
    b = len(x) - 1

    def xv(j):
        return x[j] if 0 <= j <= b else 0.0

    def t_from(j):
        return sum(i * xv(i) for i in range(max(j, 0), b + 1))

    def p_upto(j):
        return sum(xv(i) for i in range(0, j + 1)) if j >= 0 else 0.0

    out = []
    for k in range(b + 1):
        v = 0.0
        if k >= 1:
            v += lam * xv(k - 1) - xv(k)
        if k < b:
            v += xv(k + 1) - lam * xv(k)
        v += beta * (xv(k - 1) * t_from(k + 1) - xv(k) * t_from(k + 2)
                     - k * xv(k) * p_upto(k - 2)
                     + (k + 1) * xv(k + 1) * p_upto(k - 1))
        out.append(v)
    return out


def test_rhs_frozen_hand_values():
    np.testing.assert_allclose(rhs_rlo((0.5, 0.5, 0.0), 0.4, 2.0),
                               [0.8, -1.5, 0.7], atol=1e-15)
    np.testing.assert_allclose(rhs_rls((0.5, 0.0, 0.5), 0.0, 1.0),
                               [-0.5, 1.5, -1.0], atol=1e-15)


def test_rhs_matches_slow_reference():
    for i, x in enumerate(random_measures(25, 12, seed=1)):
        lam, beta = 0.3 + 0.05 * i, 0.2 + 0.1 * (i % 7)
        np.testing.assert_allclose(rhs_rlo(x, lam, beta), naive_rlo(x, lam, beta),
                                   atol=1e-12)
        np.testing.assert_allclose(rhs_rls(x, lam, beta), naive_rls(x, lam, beta),
                                   atol=1e-12)


def test_rhs_conserves_mass():
    for x in random_measures(50, 20, seed=2):
        assert abs(rhs_rlo(x, 0.7, 0.4).sum()) < 1e-13
        assert abs(rhs_rls(x, 0.7, 0.4).sum()) < 1e-13


def test_rhs_population_flux_identities():
    """Summing k * dx_k isolates the population flow: arrivals enter below the
    cap, one departure per busy server, and for the oblivious walk the cap
    also swallows migrants at rate beta y x_B. Load-sensitive moves never
    target a fuller server, so there they cancel exactly."""
    k20 = np.arange(21, dtype=float)
    for x in random_measures(40, 20, seed=3):
        lam, beta = 0.8, 0.5
        y = float(k20 @ x)
        busy = 1.0 - x[0]
        dy_rlo = float(k20 @ rhs_rlo(x, lam, beta))
        assert dy_rlo == pytest.approx((lam + beta * y) * (1 - x[20]) - busy - beta * y,
                                       abs=1e-12)
        dy_rls = float(k20 @ rhs_rls(x, lam, beta))
        assert dy_rls == pytest.approx(lam * (1 - x[20]) - busy, abs=1e-12)


def test_tail_form_is_the_same_flow():
    for x in random_measures(30, 15, seed=4):
        dx = rhs_rlo(x, 0.6, 0.9)
        ds = rhs_rlo_tail(tail_sums(x), 0.6, 0.9)
        # the tail derivative is the right-to-left cumulative of the
        # level derivative, with the total mass row pinned at zero
        expected = np.cumsum(dx[::-1])[::-1]
        expected[0] = 0.0
        np.testing.assert_allclose(ds, expected, atol=1e-12)


def test_tail_form_finite_difference_consistency():
    h = 1e-6
    for x in random_measures(10, 12, seed=5):
        s = tail_sums(x)
        x_step = x + h * rhs_rlo(x, 0.8, 0.5)
        s_step = s + h * rhs_rlo_tail(s, 0.8, 0.5)
        np.testing.assert_allclose(tail_sums(x_step), s_step, atol=1e-6)
        np.testing.assert_allclose(measure_from_tails(s_step), x_step, atol=1e-6)


# --- root function -------------------------------------------------------------

def g_reference(z, lam, beta, b_cap):
    """Exact rational transcription of the root function."""
    weights, prod = [], Fraction(1)
    for j in range(1, b_cap + 1):
        prod *= Fraction(z) / (1 + beta * j)
        weights.append(prod)
    return ((Fraction(z) - lam) * (1 + sum(weights))
            - beta * sum((i + 1) * w for i, w in enumerate(weights)))


def test_g_matches_exact_rationals():
    cases = [
        (Fraction(3, 2), Fraction(1, 2), Fraction(1), 3, Fraction(11, 32)),
        (Fraction(2), Fraction(4, 5), Fraction(1, 2), 4, Fraction(68, 45)),
    ]
    for z, lam, beta, b_cap, expected in cases:
        exact = g_reference(z, lam, beta, b_cap)
        assert exact == expected
        assert g_of_z(float(z), float(lam), float(beta), b_cap) == pytest.approx(
            float(exact), abs=1e-12)


def test_g_is_negative_at_lam_and_eventually_positive():
    # at z = lam the subtracted migration mass makes g negative, and for
    # large z the leading (z - lam) term dominates
    assert g_of_z(0.8, 0.8, 0.5, 40) < 0
    assert g_of_z(30.0, 0.8, 0.5, 40) > 0


def test_g_is_nondecreasing_on_a_grid():
    zs = np.linspace(0.0, 40.0, 2001)
    vals = [g_of_z(z, 0.8, 0.5, 40) for z in zs]
    assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))


# --- stationary solvers -----------------------------------------------------------

def test_fixed_point_beta_zero_is_truncated_geometric():
    fp = solve_fixed_point_rlo(0.8, 0.0, 60)
    rho = Fraction(4, 5)
    norm = (1 - rho) / (1 - rho ** 61)
    expected = [float(norm * rho ** k) for k in range(61)]
    np.testing.assert_allclose(fp.xi, expected, atol=1e-10)
    assert fp.y == pytest.approx(3.9999252141259194, rel=1e-12)
    assert fp.xi[0] == pytest.approx(0.2000002451995871, rel=1e-12)
    assert fp.xi[5] == pytest.approx(0.06553608034700073, rel=1e-12)


def test_fixed_point_frozen_values():
    fp = solve_fixed_point_rlo(0.8, 0.5, 100)
    assert fp.y == pytest.approx(2.022376456163667, rel=1e-12)
    assert fp.z == pytest.approx(1.8111882280818334, rel=1e-12)
    assert fp.residual < 1e-12
    # self-consistency: z = lam + beta y and y is the mean of xi
    assert fp.z == pytest.approx(0.8 + 0.5 * fp.y, rel=1e-14)
    assert mean_occupancy(fp.xi) == fp.y  # same float, same route
    assert fp.xi.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(rhs_rlo(fp.xi, 0.8, 0.5))) < 1e-12


def test_fixed_point_is_stationary_under_the_integrator():
    fp = solve_fixed_point_rlo(0.7, 0.3, 40)
    moved = integrate("rlo", fp.xi, 5.0, dt=2e-3, sample_dt=5.0, lam=0.7,
                      beta=0.3)[-1][1].x
    np.testing.assert_allclose(moved, fp.xi, atol=1e-11)


def test_fixed_point_domain():
    # at or above unit per-server load no stationary law exists
    with pytest.raises(ValueError):
        solve_fixed_point_rlo(1.0, 0.5, 30)
    with pytest.raises(ValueError):
        solve_fixed_point_rlo(1.4, 0.5, 30)
    with pytest.raises(ValueError):
        solve_fixed_point_rlo(-0.1, 0.5, 30)
    with pytest.raises(ValueError):
        solve_fixed_point_rlo(0.5, 0.5, 0)
    fp = solve_fixed_point_rlo(0.0, 0.5, 30)
    assert fp.xi[0] == 1.0 and fp.y == 0.0


def test_throughput_approaches_the_lone_client_rate_at_light_load():
    # a vanishing load leaves each client alone at its server, so the
    # predicted throughput climbs toward the full service rate
    rates = []
    for lam in (0.1, 0.01, 0.001):
        fp = solve_fixed_point_rlo(lam, 0.5, 40)
        rates.append(throughput(fp.y, lam))
    assert rates[0] < rates[1] < rates[2]
    assert rates[2] == pytest.approx(1.0, abs=2e-3)


def test_rls_equilibrium_converged():
    """The mass defect changes sign once over the scanned bracket, so
    nothing is flagged or warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = equilibrium_rls(0.8, 0.5, 60, tol=1e-10)
    assert eq.roots == 1 and not eq.flagged
    assert eq.residual < 1e-10
    assert mean_occupancy(eq.state) == pytest.approx(1.6148087269083478, rel=1e-12)
    # resampling beats the oblivious walk on mean occupancy at these rates
    assert mean_occupancy(eq.state) < solve_fixed_point_rlo(0.8, 0.5, 60).y


def test_rls_equilibrium_clean_case():
    eq = equilibrium_rls(0.5, 1.0, 10, tol=1e-8)
    assert eq.roots == 1 and not eq.flagged
    assert eq.residual < 1e-8


def test_rls_equilibrium_flags_a_second_root(second_root):
    # the root is at y = 0.638 and the scan steps through [0, 1] by 1/16
    second_root(0.85, 0.95)
    with pytest.warns(RuntimeWarning, match="changes sign 3 times"):
        eq = equilibrium_rls(0.5, 1.0, 10)
    assert eq.roots == 3 and eq.flagged
    # the lowest root, the true one, is still the one returned
    assert mean_occupancy(eq.state) == pytest.approx(0.6384171643486983,
                                                     rel=1e-12)


def test_rls_equilibrium_unreachable_tol_raises():
    # a residual of 1e-30 is below what rounding lets rhs_rls reach
    with pytest.raises(SolverError, match="not under tol"):
        equilibrium_rls(0.8, 0.5, 10, tol=1e-30)


def test_rls_equilibrium_domain():
    with pytest.raises(ValueError):
        equilibrium_rls(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        equilibrium_rls(0.5, 0.5, 10, tol=0.0)


# equilibrium_rls(lam, beta, B) on a grid: the sha256 of the state's bytes
# and the repr of (residual, roots)
RLS_EQUILIBRIUM_SHA256 = {
    (0.3, 0.02, 60): "86b4d39ba0167f5337ae3e44f719efc5866d41406085f5a35e4babd8f6418d56",
    (0.3, 0.02, 120): "80a1796f0f276de7a347d3fc3a2349dac108d1abefa4d86b0eb30f5cd2df6cc4",
    (0.3, 0.5, 60): "18390f3a23467933b39f133a56bd7298be7d1ad8fd0e4abe1a8b5a31f53e6f1a",
    (0.3, 0.5, 120): "db752b5d0f6fc294463981f192ba9f346bf2c0a78251b07334dd9254e278fa21",
    (0.3, 10.0, 60): "a3b5daa44f2dba9544f359c1b197aeee1654170ee5529aadf0b1b1a50c3e75a6",
    (0.3, 10.0, 120): "79700a293331db6d49c786fa643192e8559a78002f255d8ebbb5b88f4dc3fa0d",
    (0.8, 0.02, 60): "9a896c6897968e09b672a0eff577c2d579ee239fca3bbea3cfb220520b478de9",
    (0.8, 0.02, 120): "6d79c4232cbef803ef790b21592b24534aa53656c7db7608d00ab3a6aaf8c1a2",
    (0.8, 0.5, 60): "b4bdac53266ab59681b751cbfeb6151acfb399172cff611e8131281a957a1f0f",
    (0.8, 0.5, 120): "a9420f37860be6a45b4d9be0b371264833b4d93d40d851a8d337cc7031ba79bc",
    (0.8, 10.0, 60): "e4bf7a5d5e4008f85676c8f11a97df5c71a36644cda15ac3f63a96fce1ef6264",
    (0.8, 10.0, 120): "f402e1dfed9494ed00c9ab840483f4860cf4446ad7d189bae29d046d02e89d36",
    (0.95, 0.02, 60): "77f914842f49b72b0f787ca869fcf73b4e1d25a1ade8446d99912116bd24ae6d",
    (0.95, 0.02, 120): "b9e452198c1fa8ad3fc032d5e4ae6d81c270cd904c0208d777d66b9b426d8b98",
    (0.95, 0.5, 60): "29782791bc71532b17aafcfe1806fd319e624e5080e83d7b2cb6de8bedc7c756",
    (0.95, 0.5, 120): "f3c8164917635b3fc4b9881349cd4ac32b3a38a048f04bf5b0b213de7f6511a8",
    (0.95, 10.0, 60): "a9ddd6b59b7e59de0eb05a975e0af9a6abc42c4a161abaff411e002576317a0a",
    (0.95, 10.0, 120): "fb5779bf4d0a4bc039584720e8e93090d9190aaae9f8066584a6eb537d9b610a",
}


def test_rls_equilibrium_grid_is_pinned():
    for (lam, beta, b_cap), expected in RLS_EQUILIBRIUM_SHA256.items():
        eq = equilibrium_rls(lam, beta, b_cap)
        digest = hashlib.sha256(eq.state.x.tobytes() + repr(
            (eq.residual, eq.roots)).encode())
        assert digest.hexdigest() == expected, (lam, beta, b_cap)


# (y, x_0) of the damped-Newton equilibrium_rls at the points of the grid
# above, as it computed them; any solver of the same equations must land
# within the bridge test's tolerances of them
RLS_EQUILIBRIUM_NEWTON = {
    (0.3, 0.02, 60): (0.42100558942260347, 0.7000000000000012),
    (0.3, 0.02, 120): (0.42100558942267474, 0.6999999999999981),
    (0.3, 0.5, 60): (0.35843771187972573, 0.7),
    (0.3, 0.5, 120): (0.35843771187972984, 0.6999999999999986),
    (0.3, 10.0, 60): (0.3060311602687979, 0.6999999999999983),
    (0.3, 10.0, 120): (0.30603116026879146, 0.7000000000000043),
    (0.8, 0.02, 60): (3.1203001081572954, 0.1999999999999985),
    (0.8, 0.02, 120): (3.1203001081572515, 0.19999999999999957),
    (0.8, 0.5, 60): (1.6148087269083478, 0.20000000000000318),
    (0.8, 0.5, 120): (1.6148087269083606, 0.20000000000000082),
    (0.8, 10.0, 60): (0.9302616232797458, 0.20000000000001708),
    (0.8, 10.0, 120): (0.9302616232797843, 0.19999999999999662),
    (0.95, 0.02, 60): (7.520049059473115, 0.05000000000003839),
    (0.95, 0.02, 120): (7.520049059477111, 0.050000000000000815),
    (0.95, 0.5, 60): (2.832456015573289, 0.04999999999999784),
    (0.95, 0.5, 120): (2.832456015573385, 0.04999999999999247),
    (0.95, 10.0, 60): (1.4195194857717217, 0.05000000000000359),
    (0.95, 10.0, 120): (1.4195194857718882, 0.04999999999997984),
}


def test_rls_equilibrium_bridges_the_newton_values():
    """y within 1e-12 relative and x_0 within 1e-12 absolute of the
    Newton solver's, at every point of the pinned grid."""
    for (lam, beta, b_cap), (y, x_0) in RLS_EQUILIBRIUM_NEWTON.items():
        eq = equilibrium_rls(lam, beta, b_cap)
        assert mean_occupancy(eq.state) == pytest.approx(y, rel=1e-12, abs=0)
        assert float(eq.state.x[0]) == pytest.approx(x_0, rel=0, abs=1e-12)


def test_rls_equilibrium_meets_its_closed_form_limits():
    """First-order limits of the rls mean occupancy, written from the model
    alone. As beta grows, each arrival that finds its server busy leaves
    for an idle one, and beta (y - lam) -> lam**2 / (2 (1 - lam)). As lam
    falls, a second client is rare, and (y/lam - 1)(1 + 2 beta)/lam -> 1."""
    def y_rls(lam, beta):
        return mean_occupancy(equilibrium_rls(lam, beta, 30).state)

    for lam in (0.3, 0.8, 0.95):
        limit = lam ** 2 / (2.0 * (1.0 - lam))
        err = {beta: abs(beta * (y_rls(lam, beta) - lam) / limit - 1.0)
               for beta in (1e3, 1e4)}
        assert err[1e4] < 1e-2, (lam, err)
        assert err[1e4] * 5.0 < err[1e3], (lam, err)
    for beta in (0.02, 0.5, 10.0):
        for lam, bound in ((1e-3, 1e-2), (1e-4, 1e-3)):
            err = abs((y_rls(lam, beta) / lam - 1.0) * (1.0 + 2.0 * beta) / lam
                      - 1.0)
            assert err < bound, (lam, beta, err)


def cut_balance_residual(x, lam, beta):
    """Largest imbalance of the flux across the cuts k | k+1 at rest:
    lam x_k + beta x_k T_{k+2} up against x_{k+1} (1 + beta (k+1) P_{k-1})
    down, with T_j = sum_{i>=j} i x_i and P_j = sum_{i<=j} x_i."""
    x = [float(v) for v in x]
    b = len(x) - 1
    worst = 0.0
    for k in range(b):
        t_k2 = sum(i * x[i] for i in range(k + 2, b + 1))
        p_k1 = sum(x[:k])
        up = lam * x[k] + beta * x[k] * t_k2
        down = x[k + 1] * (1.0 + beta * (k + 1) * p_k1)
        worst = max(worst, abs(up - down))
    return worst


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0])
def test_rls_equilibrium_balances_every_cut(lam, beta):
    for b_cap in (1, 5, 30):
        eq = equilibrium_rls(lam, beta, b_cap)
        assert cut_balance_residual(eq.state.x, lam, beta) < 1e-13


def test_rls_equilibrium_is_where_the_flow_comes_to_rest():
    # the integrator shares no code path with the cut-balance bisection but
    # rhs_rls, its residual gate
    eq = equilibrium_rls(0.5, 1.0, 10)
    final = integrate("rls", point_mass(0, 10), 50.0, dt=0.01, sample_dt=50.0,
                      lam=0.5, beta=1.0)[-1][1]
    assert np.abs(final.x - eq.state.x).sum() < 1e-8


def test_meanfield_import_leaves_the_compiled_library_unloaded(tmp_path):
    """The mean field is pure numpy: importing it, and solving both
    stationary laws, neither imports ctmc nor builds or maps the compiled
    event loops. A fresh interpreter with an empty build cache runs it,
    since this process holds both already."""
    script = """
import json, sys
from migratesim import meanfield
meanfield.equilibrium_rls(0.8, 0.5, 40)
meanfield.solve_fixed_point_rlo(0.8, 0.5, 40)
try:
    with open("/proc/self/maps") as f:
        mapped = sorted({line.split()[-1] for line in f if "event_loops" in line})
except OSError:
    mapped = []
print(json.dumps({"modules": sorted(k for k in sys.modules
                                    if k.startswith("migratesim")),
                  "mapped": mapped}))
"""
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": str(Path(migratesim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"modules": ["migratesim", "migratesim.meanfield",
                                  "migratesim.model"], "mapped": []}
    assert not (tmp_path / "cache").exists()


# --- integrator ----------------------------------------------------------------------

def test_integrate_samples_grid_and_endpoint():
    samples = integrate("rlo", point_mass(0, 10).x, 1.0, dt=1e-3,
                        sample_dt=0.25, lam=0.5, beta=0.2)
    times = [t for t, _ in samples]
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-9)
    assert times[-1] == 1.0


def test_integrate_off_grid_endpoint_recorded_once():
    samples = integrate("rlo", point_mass(0, 10).x, 0.9, dt=1e-3,
                        sample_dt=0.4, lam=0.5, beta=0.2)
    times = [t for t, _ in samples]
    assert times == pytest.approx([0.0, 0.4, 0.8, 0.9], abs=1e-9)
    assert len([t for t in times if t == times[-1]]) == 1


def test_integrate_conserves_mass_and_positivity():
    samples = integrate("rls", point_mass(5, 25).x, 8.0, dt=2e-3,
                        sample_dt=1.0, lam=0.9, beta=1.0)
    for _, state in samples:
        assert state.x.sum() == pytest.approx(1.0, abs=1e-9)
        assert state.x.min() >= 0.0


def test_integrate_rejects_unstable_step():
    # death rate 1 + beta B = 31 at the cap; dt = 0.5 is far beyond the
    # stability limit and must be refused, not silently wrong
    with pytest.raises(SolverError):
        integrate("rlo", point_mass(60, 60).x, 5.0, dt=0.5, sample_dt=5.0,
                  lam=0.8, beta=0.5)


def test_integrate_validation():
    with pytest.raises(TypeError):  # lam and beta missing
        integrate("rlo", point_mass(0, 5).x, 1.0, sample_dt=1.0)
    with pytest.raises(ValueError):
        integrate("rlo", point_mass(0, 5).x, -1.0, sample_dt=1.0, lam=0.5,
                  beta=0.1)
    with pytest.raises(ValueError):
        integrate("rlo", point_mass(0, 5).x, 1.0, dt=0.0, sample_dt=1.0,
                  lam=0.5, beta=0.1)
    # a negative grid would record every step
    with pytest.raises(ValueError, match="sample_dt"):
        integrate("rlo", point_mass(0, 5).x, 1.0, sample_dt=-0.25,
                  lam=0.5, beta=0.1)
    # non-finite steps and ends are refused, not run on a degenerate grid
    for name, value in (("dt", math.inf), ("sample_dt", math.nan),
                        ("t_end", math.inf), ("t_end", math.nan)):
        args = {"t_end": 1.0, "sample_dt": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            integrate("rlo", point_mass(0, 5).x, lam=0.5, beta=0.1, **args)


def test_rk4_is_fourth_order():
    x0 = point_mass(0, 30).x
    ref = integrate("rlo", x0, 1.0, dt=1e-4, sample_dt=1.0, lam=0.8,
                    beta=0.5)[-1][1].x
    coarse = integrate("rlo", x0, 1.0, dt=8e-3, sample_dt=1.0, lam=0.8,
                       beta=0.5)[-1][1].x
    fine = integrate("rlo", x0, 1.0, dt=4e-3, sample_dt=1.0, lam=0.8,
                     beta=0.5)[-1][1].x
    ratio = np.abs(coarse - ref).max() / np.abs(fine - ref).max()
    # halving dt divides the error by ~2^4
    assert 12.0 < ratio < 20.0


# --- ordering and the derived quantities -------------------------------------------

def test_st_leq_hand_cases():
    assert st_leq((0.5, 0.5, 0.0), (0.3, 0.3, 0.4))
    assert not st_leq((0.3, 0.3, 0.4), (0.5, 0.5, 0.0))
    assert st_leq((0.2, 0.8), (0.2, 0.8))
    with pytest.raises(ValueError):
        st_leq((1.0,), (0.5, 0.5))


def test_st_order_preserved_by_the_flow():
    lower = np.array([0.6, 0.3, 0.1] + [0.0] * 18)
    upper = np.array([0.1, 0.3, 0.6] + [0.0] * 18)
    assert st_leq(lower, upper)
    end_lo = integrate("rlo", lower, 2.0, dt=5e-3, sample_dt=2.0, lam=0.8,
                       beta=0.5)[-1][1].x
    end_hi = integrate("rlo", upper, 2.0, dt=5e-3, sample_dt=2.0, lam=0.8,
                       beta=0.5)[-1][1].x
    assert st_leq(end_lo, end_hi, slack=1e-9)


def test_point_mass_and_ode_state_validation():
    pm = point_mass(3, 6)
    assert pm.x[3] == 1.0 and pm.x.sum() == 1.0
    with pytest.raises(ValueError):
        point_mass(7, 6)
    with pytest.raises(ValueError):
        OdeState(np.array([0.7, 0.7]))


def test_derived_quantities():
    assert sojourn_time(2.0, 0.8) == pytest.approx(2.5)
    assert throughput(2.0, 0.8) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        sojourn_time(2.0, 0.0)
    with pytest.raises(ValueError):
        throughput(0.0, 0.5)


# --- CSV outputs (written by `migrate-sim meanfield`) ----------------------------

def test_fixed_point_csv(tmp_path):
    out = tmp_path / "mf"
    assert main(["meanfield", "--policy", "rlo", "--lambda", "0.5",
                 "--beta", "0.5", "--bcap", "5", "--out", str(out)]) == 0
    fp = solve_fixed_point_rlo(0.5, 0.5, 5)
    lines = (out / "fixed_point.csv").read_text().splitlines()
    assert lines[0] == "# lambda=0.5 beta=0.5 B=5"
    assert lines[1] == f"# y={fp.y!r} z={fp.z!r} residual={fp.residual!r}"
    assert lines[2] == "k,xi_k"
    assert len(lines) == 3 + 6
    for k, line in enumerate(lines[3:]):
        assert line == f"{k},{float(fp.xi[k])!r}"


def test_ode_trajectory_csv(tmp_path):
    out = tmp_path / "mf"
    assert main(["meanfield", "--policy", "rlo", "--mode", "integrate",
                 "--lambda", "0.5", "--beta", "0.2", "--bcap", "3",
                 "--t-end", "0.5", "--sample-dt", "0.25",
                 "--out", str(out)]) == 0
    samples = integrate("rlo", point_mass(0, 3).x, 0.5, dt=1e-3,
                        sample_dt=0.25, lam=0.5, beta=0.2)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# policy=rlo ")
    assert lines[1] == "t,x_0,x_1,x_2,x_3"
    assert len(lines) == 2 + len(samples)
    for line, (t, state) in zip(lines[2:], samples):
        assert line == ",".join(repr(float(v)) for v in (t, *state.x))
