"""Shared test plumbing: the acceptance suite registers one line per check
here and a terminal hook prints them all at the end of the run, so the
pass/fail table survives pytest's output capture. The ``second_root``
fixture gives the rls mass defect extra sign changes, for the tests of the
flagged path."""

import pytest

from migratesim import meanfield

ACCEPTANCE_LINES = []


@pytest.fixture
def second_root(monkeypatch):
    """dip(lo, hi) turns the rls mass defect negative for y in [lo, hi];
    a window above the root that holds a point of the audit's scan gives
    the scan two more sign changes."""
    def dip(lo, hi):
        defect = meanfield._mass_defect

        def dipped(y, *rates):
            value = defect(y, *rates)
            return -abs(value) if lo <= y <= hi else value

        monkeypatch.setattr(meanfield, "_mass_defect", dipped)

    return dip


def record_acceptance(index: int, label: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append((index, label, ok, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for index, label, ok, detail in sorted(ACCEPTANCE_LINES):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{index:02d}] {label}: {status} -- {detail}")
