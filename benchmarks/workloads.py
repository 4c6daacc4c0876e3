"""The three workloads, one per question migratesim answers.

Each workload runs the same operations in every round, on inputs drawn
from the benchmark seed and the round's index, and after the timed rounds
checks what each round produced against the reference values in
``reference.py``. Round k of seed s gives cell c the replication seeds
``seed_base(s, k, c)`` onwards, so no two rounds or seeds share a run.
"""

from __future__ import annotations

import contextlib
import io
import math
import warnings
from pathlib import Path

from migratesim import cli, ctmc, experiments
from migratesim.meanfield import FixedPoint, RlsEquilibrium
from migratesim.model import SystemConfig

import reference


def _cli(argv) -> int:
    """Run one ``migrate-sim`` command in this process, its report muted;
    the checks read the CSVs it writes. Returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _read_csv(path: Path) -> tuple:
    """('#' comment lines without the '# ', rows as dicts of strings)."""
    lines = path.read_text().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    return comments, [dict(zip(header, line.split(","))) for line in body[1:]]


def _comment_value(comments, key: str) -> str:
    """The value of ``key=value`` in the CSV comment lines."""
    for line in comments:
        for part in line.split(" "):
            if part.startswith(key + "="):
                return part[len(key) + 1:]
    raise KeyError(key)


MAX_ROUNDS = 1000  # rounds per run that seed_base keeps apart


def seed_base(seed: int, index: int, cell: int) -> int:
    """First replication seed of one cell in one round; a cell's seeds are
    this and the next ``reps - 1``, fewer than 10**4."""
    return ((seed * MAX_ROUNDS + index) * 8 + cell) * 10 ** 4


def _csv_bodies(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*.csv"))}


def same_csvs(a: dict, b: dict) -> bool:
    """Two rounds on the same inputs wrote byte-identical CSVs."""
    return _csv_bodies(a["dir"]) == _csv_bodies(b["dir"])


class Balance:
    """Closed rls time to balance from the all-at-one start, via the CLI.

    The two-client race is tiny per replication, so its time is mostly the
    process pool handing out one replication per round trip; the dense
    and sparse cells spend their time in ``simulate_closed``.
    """

    name = "balance"
    pooled = ("balance.measure_balance_time", "ctmc.simulate_closed")
    same = staticmethod(same_csvs)
    RACE_SE_BAND = 4.0  # standard errors; see README, "Checks"
    CELLS = {  # label: (m, n, reps)
        False: {"race": (2, 2, 1000), "dense": (32, 1024, 100),
                "sparse": (64, 256, 200)},
        True: {"race": (2, 2, 400), "dense": (4, 16, 40),
               "sparse": (8, 32, 40)},
    }
    RECHECKED_SEEDS = 3  # per cell and round, re-run for the final occupancy

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.cells = [(label, m, n, reps,
                       SystemConfig(m=m, policy="rls", resample_rate=1.0))
                      for label, (m, n, reps) in self.CELLS[smoke].items()]

    def run_round(self, rdir: Path, jobs: int, index: int) -> dict:
        codes, bases = {}, {}
        for cell, (label, m, n, reps, _) in enumerate(self.cells):
            bases[label] = seed_base(self.seed, index, cell)
            codes[label] = _cli(["balance", "--m", m, "--n", n,
                                 "--reps", reps, "--seed", bases[label],
                                 "--jobs", jobs, "--out", rdir / label])
        return {"dir": rdir, "codes": codes, "bases": bases}

    def _times(self, rnd: dict, label: str) -> list:
        """[(seed, balance time or None when censored)] from the CSV."""
        path = rnd["dir"] / label / "balance_times.csv"
        if not path.is_file():
            return []
        _, rows = _read_csv(path)
        return [(int(r["seed"]), float(r["balance_time"]) if r["balance_time"]
                 else None) for r in rows]

    def tally(self, rnd: dict) -> tuple:
        """(replications attempted, censored or lost, model time simulated)."""
        attempted = sum(reps for _, _, _, reps, _ in self.cells)
        times = [t for label, *_ in self.cells
                 for _, t in self._times(rnd, label) if t is not None]
        return attempted, attempted - len(times), math.fsum(times)

    def check(self, rnd: dict) -> list:
        bad = []
        for label, m, n, reps, config in self.cells:
            if rnd["codes"][label] != 0:
                bad.append(f"{label}: exit code {rnd['codes'][label]}")
                continue
            pairs = self._times(rnd, label)
            base = rnd["bases"][label]
            if [s for s, _ in pairs] != list(range(base, base + reps)):
                bad.append(f"{label}: seeds are not {base}..{base + reps - 1}")
            times = [t for _, t in pairs]
            if None in times:
                bad.append(f"{label}: {times.count(None)} censored replications")
                continue
            mean, se = reference.mean_and_se(times)
            bound = reference.balance_time_bound(m, n)
            if not mean <= bound:
                bad.append(f"{label}: mean {mean!r} above the bound {bound!r}")
            if label == "race" and abs(mean - 1.0) > self.RACE_SE_BAND * se:
                bad.append(f"race: mean {mean!r} is more than "
                           f"{self.RACE_SE_BAND} SE ({se!r}) from 1")
            for seed, t in pairs[:self.RECHECKED_SEEDS]:
                run = ctmc.simulate_closed(config, (n,) + (0,) * (m - 1),
                                           horizon=100.0 * bound, seed=seed)
                final = run.trajectory.final.counts
                if run.stop_time != t:
                    bad.append(f"{label} seed {seed}: rerun stops at "
                               f"{run.stop_time!r}, CSV says {t!r}")
                if max(final) - min(final) > 1 or sum(final) != n:
                    bad.append(f"{label} seed {seed}: final occupancy {final} "
                               f"is not a balanced placement of {n}")
        return bad

    def notes(self, rounds) -> list:
        return []


class Stability:
    """Stability probes at m = 10 through ``migrate-sim open --probe``.

    The overloaded cells grow their population without bound, so the
    untracked open loop runs with thousands of clients; the stable cells
    hold a few dozen.
    """

    name = "stability"
    pooled = ("experiments.stability_probe", "ctmc.simulate_open")
    same = staticmethod(same_csvs)
    M = 10
    SEEDS = 20  # the probe needs 20 before it reports an interval
    CELLS = (("rls", 1.2, 0.02), ("rlo", 1.2, 0.02),
             ("rls", 0.9, 0.5), ("rlo", 0.9, 0.5))
    SLOPE_BAND = (1.6, 2.4)  # around m (lambda - 1) = 2.0, as test 08
    STABLE_SLOPE = 0.2  # a tenth of the overloaded growth rate

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.horizon = 200.0 if smoke else 1000.0
        self.cells = [(f"{policy}-lam{lam}", policy, lam, beta,
                       SystemConfig(m=self.M, policy=policy, arrival_rates=lam,
                                    resample_rate=beta))
                      for policy, lam, beta in self.CELLS]

    def run_round(self, rdir: Path, jobs: int, index: int) -> dict:
        codes = {}
        for cell, (label, policy, lam, beta, _) in enumerate(self.cells):
            codes[label] = _cli(["open", "--m", self.M, "--policy", policy,
                                 "--lambda", lam, "--beta", beta,
                                 "--horizon", self.horizon,
                                 "--reps", self.SEEDS, "--probe",
                                 "--seed", seed_base(self.seed, index, cell),
                                 "--jobs", jobs, "--out", rdir / label])
        return {"dir": rdir, "codes": codes}

    def tally(self, rnd: dict) -> tuple:
        attempted = self.SEEDS * len(self.cells)
        lost = sum(self.SEEDS for label, *_ in self.cells
                   if not (rnd["dir"] / label / "probe.csv").is_file())
        return attempted, lost, (attempted - lost) * self.horizon

    def _probe(self, rnd: dict, label: str) -> tuple:
        comments, rows = _read_csv(rnd["dir"] / label / "probe.csv")
        slopes = [float(r["slope"]) for r in rows]
        return (_comment_value(comments, "verdict"),
                float(_comment_value(comments, "growth_slope")), slopes)

    def check(self, rnd: dict) -> list:
        bad = []
        for label, policy, lam, beta, _ in self.cells:
            if not (rnd["dir"] / label / "probe.csv").is_file():
                bad.append(f"{label}: no probe.csv (exit code "
                           f"{rnd['codes'][label]})")
                continue
            verdict, slope, slopes = self._probe(rnd, label)
            if len(slopes) != self.SEEDS:
                bad.append(f"{label}: {len(slopes)} slopes, not {self.SEEDS}")
                continue
            mean, se = reference.mean_and_se(slopes)
            if not math.isclose(mean, slope, rel_tol=1e-9, abs_tol=1e-12):
                bad.append(f"{label}: reported slope {slope!r}, rows give "
                           f"{mean!r}")
            if lam > 1.0:
                lo, hi = self.SLOPE_BAND
                if verdict != "unstable" or rnd["codes"][label] != 0:
                    bad.append(f"{label}: verdict {verdict}, expected unstable")
                if not lo <= mean <= hi or mean - 1.96 * se <= 0.0:
                    bad.append(f"{label}: growth {mean!r} +- {se!r} outside "
                               f"[{lo}, {hi}] or not above zero")
            elif abs(mean) > self.STABLE_SLOPE:
                bad.append(f"{label}: growth {mean!r} on a stable system")
        return bad

    def notes(self, rounds) -> list:
        """How the stable cells read; the verdict is not checked (README)."""
        counts = {}
        for rnd in rounds:
            for label, _, lam, _, _ in self.cells:
                if lam < 1.0 and (rnd["dir"] / label / "probe.csv").is_file():
                    key = (label, self._probe(rnd, label)[0])
                    counts[key] = counts.get(key, 0) + 1
        return ["stability: stable-cell verdicts over "
                f"{len(rounds)} round(s): "
                + ", ".join(f"{label} {verdict} x{k}"
                            for (label, verdict), k in sorted(counts.items()))]


class Throughput:
    """Sojourn throughput against the mean field: test 07's cells.

    ``experiments.throughput_comparison`` with jobs=1, so no pool. The
    prediction column solves the rlo fixed point and relaxes the rls
    equilibrium at B = 120; both results are kept for the checks.
    """

    name = "throughput"
    pooled = None
    LAM, BETA = 0.8, 0.5
    RLO_BAND = 1.0  # relative error <= RLO_BAND / m; the bias is ~0.45/m
    CUT_BALANCE_TOL = 1e-8
    FIXED_POINT_TOL = 1e-9

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        if smoke:
            self.kwargs = dict(m_list=[5], horizon=400.0, reps=4,
                               prediction_cap=40)
        else:
            self.kwargs = dict(m_list=[20, 5], horizon=2000.0, reps=10,
                               prediction_cap=120)
        self.kwargs.update(lambda_grid=[self.LAM], beta=self.BETA,
                           include_self=False, jobs=1)
        self.solved = []
        for attr in ("equilibrium_rls", "solve_fixed_point_rlo"):
            setattr(experiments, attr, self._keep(getattr(experiments, attr)))

    def _keep(self, solver):
        """Pass a solver through, keeping each result for the checks."""
        def kept(*args, **kwargs):
            result = solver(*args, **kwargs)
            self.solved.append(result)
            return result
        return kept

    def run_round(self, rdir: Path, jobs: int, index: int) -> dict:
        self.solved = []
        # throughput_comparison seeds cell c from base_seed + c * 10**6
        base = (self.seed * MAX_ROUNDS + index) * 10 ** 7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # read off below
            rows = experiments.throughput_comparison(base_seed=base,
                                                     **self.kwargs)
        fixed_point, = (r for r in self.solved if isinstance(r, FixedPoint))
        equilibrium, = (r for r in self.solved
                        if isinstance(r, RlsEquilibrium))
        return {"rows": rows, "fixed_point": fixed_point,
                "equilibrium": equilibrium}

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return a["rows"] == b["rows"]

    def tally(self, rnd: dict) -> tuple:
        """Sojourn replications plus the two predictions; a flagged rls
        equilibrium is a failed operation."""
        replications = len(rnd["rows"]) * self.kwargs["reps"]
        failed = 1 if rnd["equilibrium"].flagged else 0
        return (replications + 2, failed,
                replications * self.kwargs["horizon"])

    def check(self, rnd: dict) -> list:
        lam, beta = self.LAM, self.BETA
        cells = {(r.m, r.policy): r for r in rnd["rows"]}
        bad = []
        z, y, xi = reference.rlo_fixed_point(lam, beta,
                                             self.kwargs["prediction_cap"])
        if abs((z - lam) / beta - y) > self.FIXED_POINT_TOL * y:
            bad.append(f"reference fixed point: (z-lam)/beta={(z - lam) / beta!r}"
                       f" but sum k xi_k={y!r}")
        fp = rnd["fixed_point"]
        if (abs(fp.y - y) > self.FIXED_POINT_TOL * y
                or max(abs(a - b) for a, b in zip(fp.xi, xi))
                > self.FIXED_POINT_TOL):
            bad.append(f"rlo fixed point y={fp.y!r}, reference {y!r}")
        eq = rnd["equilibrium"]
        residual = reference.rls_cut_balance_residual(eq.state.x, lam, beta)
        if residual > self.CUT_BALANCE_TOL:
            bad.append(f"rls equilibrium breaks cut balance by {residual!r}")
        y_rls = math.fsum(k * float(v) for k, v in enumerate(eq.state.x))
        for m in self.kwargs["m_list"]:
            rls, rlo = cells[(m, "rls")], cells[(m, "rlo")]
            if rls.throughput < rlo.throughput:
                bad.append(f"m={m}: rls throughput {rls.throughput!r} below "
                           f"rlo {rlo.throughput!r}")
            error = abs(rlo.throughput - lam / y) / (lam / y)
            if error > self.RLO_BAND / m:
                bad.append(f"m={m}: rlo is {error:.2%} off the fixed point, "
                           f"band {self.RLO_BAND / m:.2%}")
            if not math.isclose(rls.prediction, lam / y_rls, rel_tol=1e-12):
                bad.append(f"m={m}: rls prediction {rls.prediction!r} is not "
                           f"lam / y of the equilibrium")
        return bad

    def notes(self, rounds) -> list:
        eq = rounds[0]["equilibrium"]
        if not eq.flagged:
            return []
        return [f"throughput: the rls equilibrium at B="
                f"{self.kwargs['prediction_cap']} is flagged (two-start gap "
                f"{eq.two_start_gap!r} > 10 x tol); counted as 1 failed "
                f"operation per round"]


WORKLOADS = {w.name: w for w in (Balance, Stability, Throughput)}
