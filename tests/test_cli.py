"""Command-line driver tests, run in-process through main(argv), but for the
two import guards, which need an interpreter that has not loaded the modules
they look for yet."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from migratesim import cli
from migratesim.cli import main
from migratesim.ctmc import simulate_open
from migratesim.meanfield import integrate, point_mass, solve_fixed_point_rlo
from migratesim.model import SystemConfig


def run(argv):
    return main([str(a) for a in argv])


# --- balance ------------------------------------------------------------------

def test_balance_run_and_artifacts(tmp_path, capsys):
    out = tmp_path / "bal"
    code = run(["balance", "--m", 2, "--n", 2, "--reps", 30, "--seed", 1,
                "--jobs", 1, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "balance time" in text and "analytic bound" in text
    csv_path = out / "balance_times.csv"
    lines = csv_path.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "rep,seed,balance_time"
    data_rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data_rows) == 30
    assert data_rows[0].split(",")[1] == "1"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "balance"
    assert manifest["seeds"] == {"first": 1, "last": 30, "count": 30}
    assert manifest["finished"] is not None
    assert manifest["version"]
    assert "warnings" not in manifest  # a clean run keeps the plain schema
    # one accepted move balances each race, and a closed run draws no null
    # event
    assert manifest["events"] == {"migration": 30}
    assert manifest["null_fraction"] == 0.0


def test_balance_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "bal"
    assert run(["balance", "--m", 2, "--n", 2, "--reps", 2, "--out", out]) == 0
    assert run(["balance", "--m", 2, "--n", 2, "--reps", 2, "--out", out]) == 1
    assert "--force" in capsys.readouterr().err


def test_balance_reruns_byte_identical(tmp_path):
    out = tmp_path / "bal"
    argv = ["balance", "--m", 4, "--n", 8, "--reps", 25, "--seed", 9, "--out", out]
    assert run(argv) == 0
    first = (out / "balance_times.csv").read_bytes()
    assert run(argv + ["--force"]) == 0
    assert (out / "balance_times.csv").read_bytes() == first
    # fan-out must not change the seed plan or the artifact
    assert run(argv + ["--force", "--jobs", 2]) == 0
    assert (out / "balance_times.csv").read_bytes() == first


def test_fewer_than_one_job_exits_one(tmp_path, capsys):
    for jobs in (0, -1):
        for argv in (["balance", "--m", 2, "--n", 2, "--reps", 3],
                     ["open", "--m", 2, "--policy", "rls", "--lambda", 0.5,
                      "--horizon", 20, "--reps", 2],
                     ["open", "--m", 2, "--policy", "rls", "--lambda", 0.5,
                      "--horizon", 20, "--reps", 2, "--probe"]):
            out = tmp_path / f"{argv[0]}{len(argv)}{jobs}"
            assert run(argv + ["--jobs", jobs, "--out", out]) == 1
            assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_balance_missing_flag_exits_one(tmp_path, capsys):
    assert run(["balance", "--m", 2, "--out", tmp_path / "x"]) == 1
    assert "--n" in capsys.readouterr().err


def test_balance_eps_stop_and_initial_file(tmp_path):
    counts = tmp_path / "start.txt"
    counts.write_text("6 2 0 0\n")
    out = tmp_path / "bal"
    code = run(["balance", "--m", 4, "--n", 8,
                "--initial-file", counts, "--stop", "eps=0.5", "--reps", 3,
                "--out", out])
    assert code == 0
    body = (out / "balance_times.csv").read_text()
    assert "stop=eps" in body


def test_balance_eps_stop_is_exact_rational(tmp_path):
    # eps=1/3 at m=2, n=9 is the band [3, 6] exactly, so (6, 3) is already
    # balanced; read through a float it would be [4, 5]
    counts = tmp_path / "start.txt"
    counts.write_text("6 3\n")
    out = tmp_path / "bal"
    code = run(["balance", "--m", 2, "--n", 9,
                "--initial-file", counts, "--stop", "eps=1/3", "--reps", 2,
                "--jobs", 1, "--out", out])
    assert code == 0
    lines = (out / "balance_times.csv").read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert [r.split(",")[2] for r in rows] == ["0.0", "0.0"]


def test_balance_unsatisfiable_eps_band_exits_one(tmp_path, capsys):
    # the band at n/m = 7/4 and eps=0.3 is the single level 2, which 7
    # clients on 4 servers can never all reach
    code = run(["balance", "--m", 4, "--n", 7, "--stop", "eps=0.3",
                "--reps", 2, "--jobs", 1, "--out", tmp_path / "bal"])
    assert code == 1
    assert "no placement of 7 clients on 4 servers" in capsys.readouterr().err
    # the run fails after its manifest was written, which records why
    manifest = json.loads((tmp_path / "bal" / "manifest.json").read_text())
    assert manifest["error"].startswith("ValueError: no placement of 7")
    assert manifest["finished"] >= manifest["started"]


def test_balance_bad_initial_file_sum(tmp_path, capsys):
    counts = tmp_path / "start.txt"
    counts.write_text("1 1 0 0\n")
    code = run(["balance", "--m", 4, "--n", 8,
                "--initial-file", counts, "--reps", 2,
                "--out", tmp_path / "bal"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_seed_env_default(tmp_path, monkeypatch):
    # the seed comes from --seed alone, 0 when absent; the environment
    # does not move it
    monkeypatch.setenv("MIGRATE_SIM_SEED", "42")
    out = tmp_path / "bal"
    assert run(["balance", "--m", 2, "--n", 2, "--reps", 2, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"]["first"] == 0


# (argv, CSV name, sha256 of the CSV) for one run of each CSV writer path
PINNED_CSVS = [
    (["balance", "--m", 4, "--n", 16, "--reps", 20, "--seed", 5],
     "balance_times.csv",
     "cd2e98f8f11115e639782be3466d6832a525caf3564fd248840a09f19f70be2a"),
    (["balance", "--m", 16, "--n", 256, "--stop", "eps=0.2", "--reps", 20,
      "--seed", 7],
     "balance_times.csv",
     "b288337bf9bea76eebfd50536a46212bc6638ebfb0a283b7e1ee9db22da1dc1a"),
    (["balance", "--m", 4, "--n", 8,
      "--initial-file", "start.txt", "--stop", "eps=0.5", "--reps", 5,
      "--seed", 2],
     "balance_times.csv",
     "eed9f9bb9f19099093256122eb4a3f063f9c97e6f64234d7a605bd7be535a353"),
    (["open", "--m", 4, "--policy", "rls", "--lambda", 0.6, "--beta", 0.5,
      "--horizon", 200, "--reps", 3, "--seed", 3],
     "sojourns.csv",
     "436b8c3144b51707c50eb89cc9e6df29b9b423071072c4eab6e11b026573e53e"),
    (["open", "--m", 4, "--policy", "rlo", "--exclude-self", "--lambda", 0.7,
      "--beta", 0.5, "--horizon", 200, "--reps", 6, "--seed", 3],
     "sojourns.csv",
     "fb8abf45e3c40d1bbf57acc52d2214e8ef0aaebd7f56aeeb22cad331a3d5abac"),
    (["open", "--m", 4, "--policy", "rls", "--mu", "1,2,0.5,1.5", "--lambda",
      0.7, "--beta", 0.5, "--horizon", 200, "--reps", 6, "--seed", 3],
     "sojourns.csv",
     "57cba397e8bc83473e4d45489a9b6db4709f03100101d5391c5094088df4a8da"),
    (["open", "--m", 4, "--policy", "rlo", "--lambda", 1.2, "--beta", 0.5,
      "--horizon", 200, "--reps", 20, "--seed", 3, "--probe"],
     "probe.csv",
     "c4147f94fcfd65a23ece5c6d869d9f9407214db2cc1da0401230cba863f49401"),
    (["meanfield", "--mode", "integrate", "--policy", "rlo", "--lambda", 0.8,
      "--beta", 0.5, "--bcap", 30, "--t-end", 5],
     "trajectory.csv",
     "976e098f21ce989f67cfda2be7ebd22d8121d77bc9c1ba85c96e48a5c68a16f8"),
    (["meanfield", "--policy", "rls", "--lambda", 0.8, "--beta", 0.5,
      "--bcap", 60],
     "equilibrium.csv",
     "83c926a34b3772a27db357125bac48257c3fe0b4de12c58220c6891fd8a05ca7"),
]


def test_cli_csv_bodies_are_pinned(tmp_path, monkeypatch):
    # a change to option handling must leave every CSV byte for byte as it was
    monkeypatch.chdir(tmp_path)
    Path("start.txt").write_text("6 2 0 0\n")
    for k, (argv, name, digest) in enumerate(PINNED_CSVS):
        out = tmp_path / f"run{k}"
        jobs = [] if argv[0] == "meanfield" else ["--jobs", 1]
        assert run(argv + jobs + ["--out", out]) == 0
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, f"{' '.join(map(str, argv))}: {name} changed"


# --- open ---------------------------------------------------------------------

def test_open_sojourn_run(tmp_path, capsys):
    out = tmp_path / "open"
    code = run(["open", "--m", 2, "--policy", "rls", "--lambda", "0.5",
                "--beta", "0.5", "--horizon", 150, "--reps", 3, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "throughput" in text
    lines = (out / "sojourns.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "rep,seed,clients,censored,mean_sojourn,throughput"
    assert len([ln for ln in lines if not ln.startswith("#")]) == 4


def test_open_heterogeneous_rates_infer_m(tmp_path):
    out = tmp_path / "open"
    code = run(["open", "--policy", "rlo", "--lambda", "0.9,0,0",
                "--beta", "1.0", "--horizon", 120, "--reps", 2, "--out", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["config"]["m"] == 3


def test_open_rate_length_mismatch(tmp_path, capsys):
    # a non-finite horizon is refused too, not probed forever
    for k, argv in enumerate((["--lambda", "0.5,0.5,0.5", "--horizon", 50],
                              ["--lambda", "0.5", "--horizon", "inf",
                               "--probe"])):
        code = run(["open", "--m", 2, "--policy", "rls", *argv, "--reps", 2,
                    "--out", tmp_path / f"o{k}"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_open_bad_horizon_names_the_horizon(tmp_path, capsys):
    # the sojourn run's warmup derives from the horizon, so the horizon is
    # what the error must name
    for k, horizon in enumerate(("nan", "-1")):
        code = run(["open", "--m", 2, "--policy", "rls", "--lambda", "0.5",
                    "--horizon", horizon, "--reps", 2,
                    "--out", tmp_path / f"o{k}"])
        assert code == 1
        assert "horizon must be positive and finite" in capsys.readouterr().err


def test_open_overloaded_warns_and_exits_two(tmp_path, capsys):
    # zero service capacity is overload too, not a division by zero
    for k, rates in enumerate((["--lambda", "1.2"],
                               ["--lambda", "0.5", "--mu", "0"])):
        out = tmp_path / f"o{k}"
        code = run(["open", "--m", 2, "--policy", "rlo", *rates, "--beta",
                    "0.2", "--horizon", 40, "--reps", 2, "--out", out])
        assert code == 2
        printed = [ln[len("warning: "):]
                   for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("warning: ")]
        assert any("--probe" in w for w in printed)
        # the manifest says why the run exited 2, in the words it printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["warnings"] == printed


def test_open_probe_small_sample_inconclusive(tmp_path, capsys):
    out = tmp_path / "probe"
    code = run(["open", "--m", 2, "--policy", "rls", "--lambda", "0.5",
                "--horizon", 80, "--reps", 5, "--probe", "--out", out])
    assert code == 2  # inconclusive is a warning, not a failure
    text = capsys.readouterr().out
    assert "verdict: inconclusive" in text
    lines = (out / "probe.csv").read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "seed,slope"
    printed = [ln[len("warning: "):] for ln in text.splitlines()
               if ln.startswith("warning: ")]
    assert printed == ["stability probe inconclusive"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == printed


def test_open_manifest_counts_events(tmp_path):
    """The probe's manifest tells how much of the run was null events: the
    loop's tallies summed over the seeds, and their null share."""
    cfg = SystemConfig(m=3, policy="rls", arrival_rates=0.8, resample_rate=0.5)
    out = tmp_path / "probe"
    run(["open", "--m", 3, "--policy", "rls", "--lambda", "0.8", "--beta", 0.5,
         "--horizon", 100, "--reps", 4, "--seed", 2, "--jobs", 1, "--probe",
         "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    expected = dict.fromkeys(manifest["events"], 0)
    for seed in range(2, 6):
        traj, _ = simulate_open(cfg, 100.0, seed=seed, sample_dt=100.0 / 500,
                                track_sojourns=False)
        assert set(traj.event_counts) == set(expected)
        for kind, n in traj.event_counts.items():
            expected[kind] += n
    assert manifest["events"] == expected
    null = (expected["resample_rejected"] + expected["resample_self"]
            + expected["arrival_dropped"] + expected["migration_blocked"])
    assert null > 0 and expected["migration"] > 0
    assert manifest["null_fraction"] == null / sum(expected.values())
    # sojourn runs write the same two keys
    out = tmp_path / "open"
    run(["open", "--m", 3, "--policy", "rlo", "--lambda", "0.8", "--beta", 0.5,
         "--horizon", 100, "--reps", 2, "--jobs", 1, "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["events"]["migration"] > 0
    assert 0 < manifest["null_fraction"] < 1


# --- meanfield ------------------------------------------------------------------

def test_meanfield_fixed_point_rlo(tmp_path, capsys):
    out = tmp_path / "mf"
    code = run(["meanfield", "--policy", "rlo", "--lambda", "0.8",
                "--beta", "0.5", "--bcap", 100, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "2.022376456163667" in text
    lines = (out / "fixed_point.csv").read_text().splitlines()
    assert lines[0] == "# lambda=0.8 beta=0.5 B=100"
    assert lines[1].startswith("# y=2.022376456163667 z=")
    assert " residual=" in lines[1]
    assert lines[2] == "k,xi_k"
    assert len(lines) == 3 + 101
    # a float cell round-trips exactly through repr
    fp = solve_fixed_point_rlo(0.8, 0.5, 100)
    assert lines[3] == f"0,{float(fp.xi[0])!r}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"] == {"residual": fp.residual}


def test_meanfield_empty_system(tmp_path, capsys):
    code = run(["meanfield", "--policy", "rlo", "--lambda", "0",
                "--beta", "0.5", "--bcap", 20, "--out", tmp_path / "mf"])
    assert code == 0
    assert "undefined for an empty system" in capsys.readouterr().out


def check_equilibrium_csv(out, cap):
    lines = (out / "equilibrium.csv").read_text().splitlines()
    assert lines[0] == f"# lambda=0.8 beta=0.5 B={cap}"
    assert lines[1].startswith("# y=") and " roots=" in lines[1]
    assert lines[2] == "k,x_k"
    assert len(lines) == 3 + cap + 1
    cells = [ln.split(",")[1] for ln in lines[3:]]
    assert all(repr(float(c)) == c for c in cells)


def test_meanfield_rls_equilibrium(tmp_path, capsys):
    out = tmp_path / "mf"
    code = run(["meanfield", "--policy", "rls", "--lambda", "0.8",
                "--beta", "0.5", "--bcap", 60, "--out", out])
    assert code == 0
    assert "changes sign" not in capsys.readouterr().out
    check_equilibrium_csv(out, 60)
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert solver == {"residual": solver["residual"], "roots": 1,
                      "flagged": False}
    assert solver["residual"] < 1e-10


def test_meanfield_rls_flagged_equilibrium_warns(tmp_path, capsys,
                                                 second_root):
    # the root is at y = 1.61 and the scan steps through [0, 3.2] by 0.2
    second_root(2.1, 2.5)
    out = tmp_path / "mf"
    code = run(["meanfield", "--policy", "rls", "--lambda", "0.8",
                "--beta", "0.5", "--bcap", 60, "--out", out])
    assert code == 2
    assert "changes sign 3 times" in capsys.readouterr().out
    check_equilibrium_csv(out, 60)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver"]["flagged"] is True
    assert manifest["solver"]["roots"] == 3
    assert manifest["warnings"] == ["the rls mass defect changes sign 3 times"]


def test_meanfield_rls_reruns_byte_identical(tmp_path):
    out = tmp_path / "mf"
    argv = ["meanfield", "--policy", "rls", "--lambda", "0.8", "--beta", "0.5",
            "--bcap", 40, "--out", out]
    assert run(argv) == 0
    first = (out / "equilibrium.csv").read_bytes()
    assert run(argv + ["--force"]) == 0
    assert (out / "equilibrium.csv").read_bytes() == first


def test_meanfield_integrate_mode(tmp_path, capsys):
    out = tmp_path / "mf"
    code = run(["meanfield", "--policy", "rlo", "--lambda", "0.6",
                "--beta", "0.3", "--bcap", 30, "--mode", "integrate",
                "--t-end", "5", "--out", out])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "# policy=rlo lambda=0.6 beta=0.3 B=30 dt=0.001"
    assert lines[1] == "t," + ",".join(f"x_{k}" for k in range(31))
    samples = integrate("rlo", point_mass(0, 30), 5.0, dt=1e-3,
                        sample_dt=0.05, lam=0.6, beta=0.3)
    assert len(lines) == 2 + len(samples)
    t, state = samples[-1]
    assert lines[-1].split(",")[:2] == [repr(t), repr(float(state.x[0]))]


def test_meanfield_overload_rejected(tmp_path, capsys):
    for i, argv in enumerate([
            ["--policy", "rlo", "--lambda", "1.2", "--beta", "0.5"],
            # a zero grid step is refused, not read as "use the default grid"
            ["--policy", "rlo", "--lambda", "0.5", "--beta", "0.5", "--bcap", 5,
             "--mode", "integrate", "--t-end", 1, "--sample-dt", 0],
            # so is an infinite step, not taken as one jump to t_end
            ["--policy", "rlo", "--lambda", "0.5", "--beta", "0.5", "--bcap", 5,
             "--mode", "integrate", "--t-end", 1, "--dt", "inf"]]):
        out = tmp_path / f"mf{i}"
        assert run(["meanfield", *argv, "--out", out]) == 1
        assert "error:" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["error"]


# --- verify ------------------------------------------------------------------------

def test_verify_lyapunov_suite(tmp_path, capsys):
    out = tmp_path / "ver"
    code = run(["verify", "lyapunov", "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("lyapunov: PASS (")
    # verify.csv holds the printed detail verbatim, commas and all
    detail = text.strip()[len("lyapunov: PASS ("):-1]
    assert "," in detail
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines == ["check,passed,detail", f'lyapunov,1,"{detail}"']
    with open(out / "verify.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["check", "passed", "detail"],
                                        ["lyapunov", "1", detail]]
    # an existing --out is refused before any check runs
    assert run(["verify", "lyapunov", "--out", out]) == 1
    captured = capsys.readouterr()
    assert "--force" in captured.err
    assert "lyapunov:" not in captured.out


def test_verify_takes_no_size_options(capsys):
    assert run(["verify", "lyapunov", "--m", 2]) == 1
    assert "lyapunov:" not in capsys.readouterr().out


def test_verify_failed_check_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "check_kurtz", lambda: (False, "gap 0.1, bound 0.05"))
    out = tmp_path / "ver"
    assert run(["verify", "kurtz", "--out", out]) == 2
    text = capsys.readouterr().out
    assert "kurtz: FAIL (gap 0.1, bound 0.05)" in text
    assert "warning: kurtz check failed" in text
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines == ["check,passed,detail", 'kurtz,0,"gap 0.1, bound 0.05"']
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == ["kurtz check failed"]


def test_verify_rejects_unknown_suite(capsys):
    assert run(["verify", "everything"]) == 1


# --- top level ------------------------------------------------------------------------

def test_cli_runs_leave_scipy_unloaded(tmp_path):
    """Only the p-value helpers import scipy, so importing the CLI and
    running a balance and a stability probe must not load it. This process
    holds scipy already, through the tests that import it, so a fresh
    interpreter runs the commands."""
    script = f"""
import json, sys
from migratesim import cli
codes = [
    cli.main(["balance", "--m", "2", "--n", "4", "--reps", "3", "--jobs", "1",
              "--out", {str(tmp_path / "bal")!r}]),
    cli.main(["open", "--m", "2", "--policy", "rls", "--lambda", "0.5",
              "--horizon", "80", "--reps", "5", "--jobs", "1", "--probe",
              "--out", {str(tmp_path / "probe")!r}]),
]
print(json.dumps({{"codes": codes, "scipy": sorted(
    k for k in sys.modules if k == "scipy" or k.startswith("scipy."))}}))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 2]  # five seeds leave the probe inconclusive
    assert result["scipy"] == []
    # the manifests name scipy's version all the same, read from its metadata
    for name in ("bal", "probe"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["environment"]["scipy"] == metadata.version("scipy")


def test_cli_import_leaves_process_pools_unloaded():
    """Replications run on threads, so importing the CLI loads neither
    multiprocessing nor the process-pool executor."""
    script = """
import json, sys
import migratesim.cli
print(json.dumps(sorted(k for k in sys.modules if k == "multiprocessing"
                        or k.startswith("multiprocessing.")
                        or k == "concurrent.futures.process")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == []


def test_unknown_subcommand_exits_one(tmp_path, capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    # so is an option the subcommand does not take
    for argv in (["balance", "--m", 2, "--n", 2, "--beta", 2],
                 ["open", "--m", 2, "--policy", "rls", "--lambda", 0.5,
                  "--warmup", 5]):
        assert run(argv + ["--out", tmp_path / argv[0]]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()
