"""Mean-field layer: derivative fields, the tail-sum form, the stationary
solvers, and the deterministic integrator."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from migratesim.cli import main
from migratesim.meanfield import (
    OdeState,
    SolverError,
    _gauss_solve,
    equilibrium_rls,
    g_of_z,
    integrate,
    jac_rls,
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
    """Newton from the empty start and from the rlo fixed point lands on
    one state to rounding, so nothing is flagged or warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = equilibrium_rls(0.8, 0.5, 60, tol=1e-10)
    assert not eq.flagged
    assert eq.residual < 1e-10
    assert eq.two_start_gap < 1e-12
    assert mean_occupancy(eq.state) == pytest.approx(1.6148087269083478, rel=1e-12)
    # resampling beats the oblivious walk on mean occupancy at these rates
    assert mean_occupancy(eq.state) < solve_fixed_point_rlo(0.8, 0.5, 60).y


def test_rls_equilibrium_clean_case():
    eq = equilibrium_rls(0.5, 1.0, 10, tol=1e-8)
    assert not eq.flagged
    assert eq.residual < 1e-8
    assert eq.two_start_gap < 1e-7


def test_rls_equilibrium_flags_disagreeing_starts(disagreeing_starts):
    with pytest.warns(RuntimeWarning, match="two-start equilibria differ"):
        eq = equilibrium_rls(0.5, 1.0, 10)
    assert eq.flagged
    assert eq.two_start_gap == pytest.approx(2e-6, rel=1e-6)


def test_rls_equilibrium_unreachable_tol_raises():
    # a residual of 1e-30 is below what rounding lets rhs_rls reach
    with pytest.raises(SolverError, match="not under tol"):
        equilibrium_rls(0.8, 0.5, 10, tol=1e-30)


def test_rls_equilibrium_domain():
    with pytest.raises(ValueError):
        equilibrium_rls(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        equilibrium_rls(0.5, 0.5, 10, tol=0.0)


def test_jac_rls_matches_central_differences():
    rng = np.random.default_rng(3)
    interior = rng.dirichlet(np.ones(13))
    with_zero = interior.copy()
    with_zero[5] = 0.0
    with_zero /= with_zero.sum()
    h = 1e-6
    for x in (interior, with_zero):
        jac = jac_rls(x, 0.7, 1.3)
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = h
            column = (rhs_rls(x + e, 0.7, 1.3) - rhs_rls(x - e, 0.7, 1.3)) / (2 * h)
            assert np.abs(jac[:, i] - column).max() < 1e-8


# equilibrium_rls(lam, beta, B) on a grid: the sha256 of the state's bytes
# and the repr of (residual, two_start_gap, iterations), recorded from the
# elimination written in numpy (numpy_gauss_solve below)
RLS_EQUILIBRIUM_SHA256 = {
    (0.3, 0.02, 60): "df9be85f24eda9bd8993bb206b8e3d10f9f65ba0e69de0a02ed4f7bc28ab8914",
    (0.3, 0.02, 120): "fe08db92d8a4583cf3a49578d1cd2274bda56adafc84171c288bc7105180160c",
    (0.3, 0.5, 60): "7bf6c79b63fbd32adb7acd9d1f8f36290836365632a4e53c149d1145fed0a301",
    (0.3, 0.5, 120): "bf4815548985cd93631da96d8ef61bdabbf70f68831722528b557c3f7e5d11a7",
    (0.3, 10.0, 60): "c73dc372c94fbf4b5f27238fcf0258207f7541171ac0000d34dd4177b6721d4f",
    (0.3, 10.0, 120): "4901f10a4713ed518be8580680cb4b75148512ba6a4ff5daaecf43e23e8f4c58",
    (0.8, 0.02, 60): "79d0cd83ea59c89ddcf2924e91deb07ec6ab8a89fdd80164a6ef0d1ea7288fb0",
    (0.8, 0.02, 120): "643e2b26a9facbdb78af5280b12856fe9d19cbfb4969b297c114b55dcfda69f5",
    (0.8, 0.5, 60): "c1e735fba1d55a29ee51a95dc05e13174c29139642cd5969825c9b915d2f46d5",
    (0.8, 0.5, 120): "35b6e2d50c43fcffecb92064086267ead734eb67069ad084dcddec2d10fedb42",
    (0.8, 10.0, 60): "ae37ecbce7052da1a91756a6570f11446476eed5b4263fb42bc43d0ef32efb8d",
    (0.8, 10.0, 120): "893c800626becf912d2e7126ba7aa519cebe7326cf0035194bf2b03a8eed6a1b",
    (0.95, 0.02, 60): "acba5dae92ed674ea29b6fa6c1d9ccdf59bb1067e07165935c75ef72a25d4eec",
    (0.95, 0.02, 120): "9dfa632989b1829e155d1eb535c413f79cd388c5bafc29aff2fd832400339a50",
    (0.95, 0.5, 60): "26edec076006b35cc8ab9d30dfa0397a0f34341c6303b0ef2f4a361b26eb60d5",
    (0.95, 0.5, 120): "03c3ed8954c22d2e34fa6c1b209873a82850e2274a8c13fff906a3811621e9f9",
    (0.95, 10.0, 60): "be3d605547ac5f579c2ad51c56ec621a894fd2b950e782bc7156ebb17accca49",
    (0.95, 10.0, 120): "9ec2fce9a500d5aa792de96c70af470589979dc438d600a99c0c09b4170cfff9",
}


def test_rls_equilibrium_grid_is_pinned():
    for (lam, beta, b_cap), expected in RLS_EQUILIBRIUM_SHA256.items():
        eq = equilibrium_rls(lam, beta, b_cap)
        digest = hashlib.sha256(eq.state.x.tobytes() + repr(
            (eq.residual, eq.two_start_gap, eq.iterations)).encode())
        assert digest.hexdigest() == expected, (lam, beta, b_cap)


def numpy_gauss_solve(a, b):
    """The Newton solve as numpy once ran all of it: elimination with
    partial pivoting on the first largest magnitude, then back
    substitution. _gauss_solve must give its bits."""
    a = a.copy()
    b = b.copy()
    n = b.size
    for j in range(n):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if a[p, j] == 0.0:
            raise SolverError(f"singular Newton system at column {j}")
        if p != j:
            a[[j, p]] = a[[p, j]]
            b[[j, p]] = b[[p, j]]
        m = a[j + 1:, j] / a[j, j]
        a[j + 1:, j + 1:] -= np.outer(m, a[j, j + 1:])
        b[j + 1:] -= m * b[j]
    x = np.empty(n)
    for j in range(n - 1, -1, -1):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


def newton_system(n, rng):
    """The Newton system of equilibrium_rls at B = n - 1, at a random state."""
    x = rng.dirichlet(np.ones(n))
    jac = jac_rls(x, 0.8, 0.5)
    jac[-1] = 1.0
    return jac, -rhs_rls(x, 0.8, 0.5)


def gauss_systems(n, seed):
    """Systems that exercise the pivot choice: random; entries of few
    magnitudes, so the pivot column holds ties; a tiny diagonal, so every
    column swaps rows; and a Newton Jacobian."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    swaps = rng.standard_normal((n, n))
    swaps[np.diag_indices(n)] *= 1e-3
    ties = np.zeros((n, n))
    while abs(np.linalg.det(ties)) < 0.5:  # an integer matrix, not singular
        ties = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(n, n))
    yield rng.standard_normal((n, n)), b
    yield ties, b
    yield swaps, b
    yield newton_system(n, rng)


@pytest.mark.parametrize("n", [1, 2, 5, 31, 121])
def test_gauss_solve_is_the_numpy_elimination_bit_for_bit(n):
    for seed in range(3):
        for a, b in gauss_systems(n, seed):
            a_in, b_in = a.copy(), b.copy()
            x = _gauss_solve(a, b)
            assert x.tobytes() == numpy_gauss_solve(a, b).tobytes()
            # the inputs are left as they were
            assert a.tobytes() == a_in.tobytes()
            assert b.tobytes() == b_in.tobytes()


def test_gauss_solve_takes_the_first_largest_pivot():
    """Rows 1 and 2 tie for the largest magnitude in column 0, and row 2
    holds a NaN lower down; numpy's argmax picks the first of the tie, and
    the first NaN, which it counts as the largest, above an inf or a
    zero."""
    a = np.array([[1.0, 2.0, 3.0], [-4.0, 1.0, 0.5], [4.0, 3.0, 1.0]])
    b = np.array([1.0, 2.0, 3.0])
    assert _gauss_solve(a, b).tobytes() == numpy_gauss_solve(a, b).tobytes()
    a[2, 1] = math.nan
    a[1, 1] = math.inf
    np.testing.assert_array_equal(_gauss_solve(a, b), numpy_gauss_solve(a, b))
    # a NaN below a zero is the pivot, so the column is not singular
    a = np.array([[0.0, 1.0], [math.nan, 1.0]])
    assert np.isnan(numpy_gauss_solve(a, b[:2])).all()
    assert np.isnan(_gauss_solve(a, b[:2])).all()


@pytest.mark.parametrize("column", [0, 1, 4])
def test_singular_newton_system_names_its_column(column):
    """Upper triangular with a zero on the diagonal at `column`: every
    multiplier before it is zero, so the column reaches its turn all zero
    from the diagonal down."""
    a = np.triu(np.random.default_rng(column).uniform(1.0, 2.0, (5, 5)))
    a[column, column] = 0.0
    for solve in (numpy_gauss_solve, _gauss_solve):
        with pytest.raises(SolverError,
                           match=f"singular Newton system at column {column}$"):
            solve(a, np.ones(5))


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
    # the integrator shares no code path with the Newton solve but rhs_rls
    eq = equilibrium_rls(0.5, 1.0, 10)
    final = integrate("rls", point_mass(0, 10), 50.0, dt=0.01, sample_dt=50.0,
                      lam=0.5, beta=1.0)[-1][1]
    assert np.abs(final.x - eq.state.x).sum() < 1e-8


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
