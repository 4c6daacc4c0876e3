"""Shared test plumbing: the acceptance suite registers one line per check
here and a terminal hook prints them all at the end of the run, so the
pass/fail table survives pytest's output capture. The
``disagreeing_starts`` fixture makes the rls equilibrium's two starts
really disagree, for the tests of the flagged path."""

import pytest

from migratesim import meanfield

ACCEPTANCE_LINES = []


@pytest.fixture
def disagreeing_starts(monkeypatch):
    """Move 1e-6 of mass up one level in the second start's Newton answer."""
    solve = meanfield._newton_rls
    calls = []

    def second_start_off(x, lam, beta, tol):
        state, residual, iterations = solve(x, lam, beta, tol)
        calls.append(1)
        if len(calls) == 2:
            state = state.copy()
            state[0] -= 1e-6
            state[1] += 1e-6
        return state, residual, iterations

    monkeypatch.setattr(meanfield, "_newton_rls", second_start_off)


def record_acceptance(index: int, label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((index, label, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for index, label, ok, detail in sorted(ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{index:02d}] {label}: {status} -- {detail}")
