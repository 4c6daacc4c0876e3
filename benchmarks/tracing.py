"""Spans around the calls into migratesim's layers, recorded from outside.

The tracer replaces module attributes (``balance.simulate_closed``,
``cli.main``, ...) with wrappers that record one span per call: name,
start, end, parent span and a few counts read off the call's result. No
source file of the package changes. Spans stay in memory and are written
out once, when the benchmark ends.

Replications can run in pool workers. Workers are forked, so they inherit
the wrappers; each keeps its own spans and writes them to a spool file as
it exits. The wrapper around the call that owned the pool reads those
files when the call returns (the pool is shut down and its workers joined
by then) and adopts the spans as its children. ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so intervals from different
processes line up.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import multiprocessing.util
import os
import time
from pathlib import Path


def closed_digest(result) -> dict:
    """Counts from one ``simulate_closed`` run: every event is a resample."""
    events = result.trajectory.event_counts
    return {"events": sum(events.values()),
            "attempts": sum(events.values()),
            "accepted": events["migration"]}


def open_digest(result) -> dict:
    """Counts from one ``simulate_open`` run; attempts are resample events."""
    events = result[0].event_counts
    attempts = (events["migration"] + events["resample_rejected"]
                + events["resample_self"] + events["migration_blocked"])
    return {"events": sum(events.values()), "attempts": attempts,
            "accepted": events["migration"]}


class Tracer:
    """Records spans for wrapped calls; ``uninstall`` puts the originals back."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans = []
        self.rhs_calls = 0
        self.rhs_seconds = 0.0
        self._stack = []
        self._next = 0
        self._pid = os.getpid()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _in_own_process(self) -> None:
        """A forked worker starts with a copy of the parent's spans: drop it."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self.spans = []
        self._stack = []
        self.rhs_calls = 0
        self.rhs_seconds = 0.0
        multiprocessing.util.Finalize(self, self._spool, exitpriority=10)

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "rhs_calls": self.rhs_calls,
                       "rhs_seconds": self.rhs_seconds}, fh)

    def _adopt_workers(self, parent: str) -> None:
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            with open(path) as fh:
                data = json.load(fh)
            path.unlink()
            for span in data["spans"]:
                if span["parent"] is None:
                    span["parent"] = parent
                self.spans.append(span)
            self.rhs_calls += data["rhs_calls"]
            self.rhs_seconds += data["rhs_seconds"]

    def _wrap(self, fn, name: str, digest=None, pooled: bool = False,
              counts_rhs: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._in_own_process()
            sid = f"{self._pid}:{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            rhs_before = self.rhs_calls
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": sid, "parent": parent, "name": name,
                    "start": start, "end": end}
            if pooled:
                self._adopt_workers(sid)
            if digest is not None:
                span.update(digest(result))
            if counts_rhs:
                span["rhs_evals"] = self.rhs_calls - rhs_before
            self.spans.append(span)
            return result
        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.rhs_seconds += time.perf_counter() - start
                self.rhs_calls += 1
        return counted

    # -- installing --------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross.

        Each attribute is the name the caller looks up at call time, so
        ``balance.simulate_closed`` is patched rather than the function's
        home in ``ctmc``.
        """
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("worker spans need the fork start method")
        from migratesim import balance, cli, experiments, meanfield

        w = self._wrap
        self._patch(cli, "main", w(cli.main, "cli.main"))
        self._patch(cli, "measure_balance_time",
                    w(cli.measure_balance_time, "balance.measure_balance_time",
                      pooled=True))
        self._patch(balance, "simulate_closed",
                    w(balance.simulate_closed, "ctmc.simulate_closed",
                      digest=closed_digest))
        for attr in ("stability_probe", "measure_sojourns"):
            self._patch(experiments, attr,
                        w(getattr(experiments, attr), f"experiments.{attr}",
                          pooled=True))
        self._patch(experiments, "simulate_open",
                    w(experiments.simulate_open, "ctmc.simulate_open",
                      digest=open_digest))
        self._patch(experiments, "throughput_comparison",
                    w(experiments.throughput_comparison,
                      "experiments.throughput_comparison"))
        self._patch(experiments, "equilibrium_rls",
                    w(experiments.equilibrium_rls, "meanfield.equilibrium_rls",
                      counts_rhs=True))
        self._patch(experiments, "solve_fixed_point_rlo",
                    w(experiments.solve_fixed_point_rlo,
                      "meanfield.solve_fixed_point_rlo"))
        self._patch(meanfield, "rhs_rls", self._count(meanfield.rhs_rls))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> tuple:
        """Hand over the spans and rhs counts recorded so far, and reset."""
        out = (self.spans, self.rhs_calls, self.rhs_seconds)
        self.spans = []
        self.rhs_calls = 0
        self.rhs_seconds = 0.0
        return out


# -- derived numbers ------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans) -> dict:
    """Layer name -> summed busy, self time, calls and counts."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"busy_s": 0.0, "self_s": 0.0,
                                          "calls": 0, "events": 0,
                                          "attempts": 0, "accepted": 0,
                                          "rhs_evals": 0})
        t["busy_s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
        t["calls"] += 1
        for key in ("events", "attempts", "accepted", "rhs_evals"):
            t[key] += s.get(key, 0)
    return totals
