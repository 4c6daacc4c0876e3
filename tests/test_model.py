"""Unit tests for the configuration layer, the acceptance predicate, and the
empirical-measure helpers."""

import ast
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from migratesim.model import (
    ConfigError,
    Policy,
    SystemConfig,
    SystemState,
    empirical_measure,
    eps_band,
    exact_fraction,
    measure_from_tails,
    rls_accepts,
    tail_sums,
)


# --- configuration ----------------------------------------------------------

def test_policy_coercion_and_defaults():
    cfg = SystemConfig(m=3, policy="rls")
    assert cfg.policy is Policy.RLS
    assert cfg.service_rates == (1.0, 1.0, 1.0)
    assert cfg.arrival_rates == (0.0, 0.0, 0.0)
    assert cfg.resample_rate == 1.0
    assert cfg.cap is None


def test_scalar_rates_broadcast_and_sequences_stay_put():
    cfg = SystemConfig(m=2, policy="rlo", service_rates=2.5, arrival_rates=(0.1, 0.7))
    assert cfg.service_rates == (2.5, 2.5)
    assert cfg.arrival_rates == (0.1, 0.7)
    assert cfg.total_arrival_rate == pytest.approx(0.8)
    assert cfg.total_service_rate == pytest.approx(5.0)


def test_exact_rate_types_survive():
    # rational rates must come through untouched so drift audits stay exact
    lam = Fraction(1, 5)
    cfg = SystemConfig(m=3, policy="rls", arrival_rates=lam,
                       service_rates=Fraction(1))
    assert all(isinstance(v, Fraction) and v == lam for v in cfg.arrival_rates)
    assert all(v == 1 for v in cfg.service_rates)


@pytest.mark.parametrize("kwargs", [
    dict(m=0, policy="rls"),
    dict(m=2, policy="nothing"),
    dict(m=2, policy="rls", service_rates=(1.0,)),
    dict(m=2, policy="rls", service_rates=-1.0),
    dict(m=2, policy="rls", arrival_rates=(0.1, -0.2)),
    dict(m=2, policy="rls", resample_rate=-0.5),
    dict(m=2, policy="rls", cap=0),
    dict(m=2, policy="rls", cap=-3),
    dict(m=1, policy="rlo", include_self=False),
])
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        SystemConfig(**kwargs)


def test_system_state_validates():
    s = SystemState(0.5, (2, 0, 1))
    assert sum(s.counts) == 3
    with pytest.raises(ValueError):
        SystemState(0.0, (1, -1))


# --- migration acceptance ----------------------------------------------------

def test_rls_accept_hand_cases():
    # share 1/5 now, 1/4 after the move: strictly better
    assert rls_accepts(1, 5, 1, 3)
    # share 1/4 either way: ties stay put
    assert not rls_accepts(1, 4, 1, 3)
    # 2/4 now versus 1/2 after: equal again
    assert not rls_accepts(2, 4, 1, 1)
    # a fast target can pull even from a shorter queue
    assert rls_accepts(1, 2, 4, 4)
    with pytest.raises(ValueError):
        rls_accepts(1, 0, 1, 5)


@given(mu_a=st.sampled_from([1, 2, 4]), n_a=st.integers(1, 8),
       mu_b=st.sampled_from([1, 2, 4]), n_b=st.integers(0, 8))
def test_rls_accept_matches_exact_share_comparison(mu_a, n_a, mu_b, n_b):
    better = Fraction(mu_b, n_b + 1) > Fraction(mu_a, n_a)
    assert rls_accepts(mu_a, n_a, mu_b, n_b) == better


# --- empirical measures -------------------------------------------------------

def test_empirical_measure_from_counts():
    em = empirical_measure((0, 2, 2, 5), b_cap=5)
    np.testing.assert_allclose(em, [0.25, 0.0, 0.5, 0.0, 0.0, 0.25])
    with pytest.raises(ValueError):
        empirical_measure((0, 6), b_cap=5)


@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
def test_tail_transform_round_trip(weights):
    x = np.asarray(weights) / math.fsum(weights)
    s = tail_sums(x)
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(s) <= 1e-15)
    np.testing.assert_allclose(measure_from_tails(s), x, atol=1e-12)


def test_eps_band_exact_edges():
    # target 2 with a 20% band: only the integer 2 fits
    assert eps_band(4, 8, 0.2) == (2, 2)
    assert eps_band(4, 8, 0.6) == (1, 3)
    # 0.1 written as a decimal literal, not the nearest double
    assert exact_fraction(0.1) == Fraction(1, 10)
    assert eps_band(10, 10, 0.1) == (1, 1)
    with pytest.raises(ValueError):
        eps_band(3, 1, 0.1)
    # the band (2, 2) holds an integer, but 7 clients cannot all sit at
    # level 2 on 4 servers
    with pytest.raises(ValueError, match="no placement of 7 clients on 4"):
        eps_band(4, 7, 0.3)
    # test 02's cells stay satisfiable at every tolerance it measures
    assert [eps_band(16, 256, eps) for eps in (0.4, 0.2, 0.1)] == [
        (10, 22), (13, 19), (15, 17)]
    with pytest.raises(ValueError):
        eps_band(4, 8, 0.0)
    with pytest.raises(ValueError):
        eps_band(4, 8, 1.0)


# --- source hygiene -----------------------------------------------------------

def test_no_unused_imports():
    # an import nothing reads is dead code; __future__ imports change the
    # compiler, not the namespace
    root = Path(__file__).resolve().parent.parent
    files = sorted([*root.glob("src/migratesim/*.py"), *root.glob("tests/*.py"),
                    *root.glob("demos/*.py")])
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(root)}: {name}")
    assert not unused, f"unused imports: {unused}"


ROOT = Path(__file__).resolve().parent.parent


def _package_modules():
    return sorted(p for p in ROOT.glob("src/migratesim/*.py")
                  if p.name != "__init__.py")


def _caller_files():
    # the package itself, the demos and the benchmarks: everything but tests
    return sorted(p for d in ("src", "demos", "benchmarks")
                  for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _own_bindings(func):
    """Names a function binds itself: its arguments and assignment targets,
    outside nested functions, less those it declares global or nonlocal."""
    a = func.args
    bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                 a.vararg, a.kwarg) if arg is not None}
    declared = set()
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested function binds in its own scope
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _module_reads(node, shadowed=frozenset()):
    """Names read from module scope: a load inside a function that binds the
    name itself (or inside one nested in such a function) reads the local."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _own_bindings(node)
    reads = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            reads.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        reads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        reads |= _module_reads(child, shadowed)
    return reads


def test_every_definition_has_a_caller():
    # a top-level function, class or constant that nothing in the package,
    # the demos or the benchmarks reads is code whose only caller is a test;
    # so is a method or property of a class that nothing there reads as an
    # attribute (dunders run implicitly, and dataclass fields are data)
    modules = _package_modules()
    readers = [_parse(path) for path in _caller_files()]
    assert modules and readers
    used = set()
    attributes = set()
    for tree in readers:
        used |= _module_reads(tree)
        attributes |= {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Load)}
    unused = []
    for path in modules:
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef):
                unused += [f"{path.name}: {node.name}.{member.name}"
                           for member in node.body
                           if isinstance(member, ast.FunctionDef)
                           and not member.name.startswith("__")
                           and member.name not in attributes]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names
                       if not name.startswith("__") and name not in used]
    assert not unused, f"defined but never read outside tests: {unused}"


def test_every_demo_imports():
    # no test runs the demos, so a name a demo imports could vanish unseen;
    # each guards main() behind __name__, so loading one runs nothing
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), path.name


def test_every_verify_check_is_an_acceptance_claim():
    # a check_* in cli that the acceptance suite does not call is a second
    # home for a claim, measured at sizes of its own
    checks = [node.name for node in _parse(ROOT / "src/migratesim/cli.py").body
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("check_")]
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    called = {node.func.id for node in ast.walk(acceptance)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert checks, "cli defines no verify checks"
    missing = [name for name in checks if name not in called]
    assert not missing, f"verify checks no acceptance test calls: {missing}"


def test_every_parameter_is_set_by_a_caller():
    # a defaulted parameter of a public function that no call in the package,
    # the demos or the benchmarks sets is an option only the tests use
    positions = {}  # callee name -> most positional arguments in one call
    keywords = {}  # callee name -> keyword names set by some call
    for path in _caller_files():
        tree = _parse(path)
        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        # a **mapping call may set any keyword the file names anywhere
        file_keywords = {k.arg for c in calls for k in c.keywords if k.arg}
        for call in calls:
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            n_pos = (math.inf if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            positions[name] = max(positions.get(name, 0), n_pos)
            kw = keywords.setdefault(name, set())
            for k in call.keywords:
                kw.update([k.arg] if k.arg else file_keywords)
    unset = []
    for path in _package_modules():
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            a = node.args
            ordered = [*a.posonlyargs, *a.args]
            defaulted = [(i, arg.arg) for i, arg in
                         enumerate(ordered[len(ordered) - len(a.defaults):],
                                   start=len(ordered) - len(a.defaults))]
            defaulted += [(None, arg.arg) for arg, d in
                          zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for index, param in defaulted:
                by_position = (index is not None
                               and positions.get(node.name, 0) > index)
                by_keyword = param in keywords.get(node.name, ())
                if not (by_position or by_keyword):
                    unset.append(f"{path.stem}.{node.name}.{param}")
    assert not unset, f"defaulted parameters only the tests set: {unset}"


def _write_mode(text) -> bool:
    # an open() mode string that creates, truncates, appends or updates
    return (isinstance(text, str) and 0 < len(text) <= 3
            and set(text) <= set("rwxabt+") and bool(set(text) & set("wxa+")))


def test_only_cli_writes_files():
    # cli owns the CSV and manifest formats; an open() for writing or a JSON
    # dump anywhere else in the package is a second artifact writer
    hits = []
    for path in sorted(ROOT.glob("src/migratesim/*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            args = [*node.args, *(k.value for k in node.keywords)]
            if (name == "open" and any(isinstance(a, ast.Constant)
                                       and _write_mode(a.value) for a in args)
                    or name in ("dump", "write_text", "write_bytes")):
                hits.append(f"{path.name}:{node.lineno} {name}")
    assert not hits, f"files written outside cli.py: {hits}"
