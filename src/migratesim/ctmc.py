"""Event-driven simulation of the migration system.

Three drivers; the first two share one transition law, and the third
is a system of its own:

* ``simulate_closed``: a fixed client population moving between servers,
  arrivals and service completions switched off. Its domain is the balance
  question alone: the rls policy on servers with unit service rates, unit
  resample rate and no arrivals, stopped once every occupancy lies in a
  band, [n // m, ceil(n/m)] for exact balance or the eps band. On that
  domain a client at level k moves to a server at level l exactly when
  l <= k - 2, at rate 1 / m per (client, destination) pair, and the
  maximum occupancy never rises, which the loop audits; other configs
  raise ConfigError. The loop samples accepted moves only (the n-fold way of
  Bortz, Kalos and Lebowitz on Gillespie's direct method), so no rejected
  resample is ever simulated. Given a sequence of seeds it runs one
  replication per seed in a single C call, each the run its seed gives
  alone: ``measure_balance_time`` hands it a chunk of replications at a
  time.
* ``simulate_open``: arrivals, processor-sharing service completions and
  resampling all active. Optionally tracks individual clients through
  migrations, returning one (arrival time, departure time) row per
  arrived client.
* ``simulate_coupled``: the three-colour particle system used to audit the
  open-system dynamics. All particles (blue, red, green) perform the same
  uniform random walk; blue arrivals come from one Poisson stream, and a
  second stream marks a blue particle red where possible, otherwise
  deposits a green one.

Both the open and the closed loop are C (``event_loops.c``, loaded
through ctypes). Each seeds its own Mersenne Twister exactly as
``Random(seed)`` does, from the 32-bit words of abs(seed), so seeds must be
ints, and consumes that stream in the order the pure-Python loops did. The
open loop draws one event at a time:

    open:    dt ~ expovariate(total) ; u = random() picks the event category
             and, within arrivals/departures/resampling, the server or slot;
             resampling destination and (when tracking) the departing
             resident need further draws

Both loops draw each randrange(n) as CPython's _randbelow does,
getrandbits(n.bit_length()) until below n (n = 1 too), for widths up to 64
bits: on an interpreter that draws otherwise their streams shift, and
test_inline_bounded_draw_is_randbelow fails. Importing this module
compiles the loops with the system C compiler ``cc`` into
``$XDG_CACHE_HOME/migratesim`` (default ``~/.cache/migratesim``), once per
source and compile command; without ``cc`` the import fails. The laws'
references live in the tests: the open loop's in tests/open_law.py, a
one-event step that draws as listed above and the exact two-server chain,
and the closed loop's in tests/test_balance.py, the exact lumped chain on
the partitions of n. Each closed step draws, in this order:

    closed:  dt = -log(1 - random()) / R, R = (1 / m) * pairs the total
             accepted-move rate ;
             r = _randbelow(pairs) picks one accepted (client, destination)
             pair uniformly, decoded into the source level, the destination
             among the servers at least two levels below, and the source
             server within its level

Because the waiting time is drawn before the move, a run cut at horizon h
ends in the state its uncut path holds at h.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import zlib
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Optional

import numpy as np

from .model import ConfigError, Policy, SystemConfig, SystemState, eps_band


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (deadlock) or an invariant breaks."""


# -O3 with -ffp-contract=off and without -ffast-math or -march: no fused
# multiply-add and no reordering, so every rounding is the one CPython makes
CC = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _build_event_loops() -> ctypes.CDLL:
    """Load event_loops.c compiled by ``cc``, building it first if the cache
    holds no build of this source with this command. The build is written
    under a temporary name and renamed into place, so a process never loads
    a file another is still writing."""
    source = Path(__file__).with_name("event_loops.c")
    key = zlib.crc32(" ".join(CC).encode(), zlib.crc32(source.read_bytes()))
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "migratesim"
    lib = cache / f"event_loops-{key:08x}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        partial = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            done = subprocess.run([*CC, "-o", str(partial), str(source), "-lm"],
                                  capture_output=True, text=True)
        except FileNotFoundError:
            raise ImportError("migratesim compiles its event loops with the "
                              "C compiler `cc`, which is not on PATH") from None
        if done.returncode:
            raise ImportError(f"`cc` could not compile {source}:\n{done.stderr}")
        os.replace(partial, lib)
    return ctypes.CDLL(str(lib))


class _OpenRun(ctypes.Structure):
    """event_loops.c's open_run: the run's inputs, then the outputs it
    allocates, which open_free releases."""

    _fields_ = [
        ("m", ctypes.c_int64),
        ("cum_arr", ctypes.POINTER(ctypes.c_double)),
        ("svc", ctypes.POINTER(ctypes.c_double)),
        ("beta", ctypes.c_double),
        ("rls", ctypes.c_int64),
        ("dests", ctypes.c_int64),
        ("cap", ctypes.c_int64),
        ("horizon", ctypes.c_double),
        ("sample_dt", ctypes.c_double),
        ("track", ctypes.c_int64),
        ("key", ctypes.POINTER(ctypes.c_uint32)),
        ("key_len", ctypes.c_int64),
        ("counts", ctypes.POINTER(ctypes.c_int64)),
        ("times", ctypes.POINTER(ctypes.c_double)),
        ("snaps", ctypes.POINTER(ctypes.c_int64)),
        ("n_rows", ctypes.c_int64),
        ("sojourns", ctypes.POINTER(ctypes.c_double)),
        ("n_sojourns", ctypes.c_int64),
        ("tallies", ctypes.c_int64 * 7),
    ]


class _ClosedRun(ctypes.Structure):
    """event_loops.c's closed_run: the inputs shared by a list of runs,
    each run's seed, then each run's outputs and the first error's run."""

    _fields_ = [
        ("m", ctypes.c_int64),
        ("horizon", ctypes.c_double),
        ("band_lo", ctypes.c_int64),
        ("band_hi", ctypes.c_int64),
        ("start", ctypes.POINTER(ctypes.c_int64)),
        ("runs", ctypes.c_int64),
        ("keys", ctypes.POINTER(ctypes.c_uint32)),
        ("key_lens", ctypes.POINTER(ctypes.c_int64)),
        ("t", ctypes.POINTER(ctypes.c_double)),
        ("stopped", ctypes.POINTER(ctypes.c_int64)),
        ("moves", ctypes.POINTER(ctypes.c_int64)),
        ("counts", ctypes.POINTER(ctypes.c_int64)),
        ("failed", ctypes.c_int64),
        ("prev_max", ctypes.c_int64),
        ("cur_max", ctypes.c_int64),
    ]


_LIB = _build_event_loops()


def _c_function(name, restype, *argtypes):
    fn = getattr(_LIB, name)
    fn.restype, fn.argtypes = restype, argtypes
    return fn


_open_loop = _c_function("open_loop", ctypes.c_int, ctypes.POINTER(_OpenRun))
_open_free = _c_function("open_free", None, ctypes.POINTER(_OpenRun))
_closed_loop = _c_function("closed_loop", ctypes.c_int,
                           ctypes.POINTER(_ClosedRun))
_sojourn_window = _c_function(
    "sojourn_window", ctypes.c_int, ctypes.c_int64, ctypes.c_void_p,
    ctypes.c_double, ctypes.c_double, ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_int64))
OPEN_EVENTS = ("arrival", "departure", "migration", "resample_rejected",
               "resample_self", "arrival_dropped", "migration_blocked")
# the event loops' error codes; a closed run fills in the two levels
# and names the seed of the run that failed
_LOOP_ERRORS = {
    1: (MemoryError, "the event loop ran out of memory"),
    2: (SimulationError, "float drift in the summed rates picked a departure "
                         "or a resample with no client to carry it"),
    3: (SimulationError, "maximum occupancy rose from {} to {} during a "
                         "closed rls run"),
    4: (SimulationError, "server count at the maximum level rose while the "
                         "maximum was flat during a closed rls run"),
    5: (SimulationError, "the accepted-pair count drew a move that is not an "
                         "accepted pair during a closed rls run"),
}


def _loop_error(status: int, *levels, where: str = "") -> Exception:
    error, message = _LOOP_ERRORS[status]
    return error(message.format(*levels) + where)


def _seed_keys(seeds) -> tuple:
    """(words, lengths): the 32-bit words of abs(seed) for each seed, least
    significant first and one word for 0, one seed after another, and each
    seed's word count. Random(seed) seeds its Mersenne Twister with those
    words, and the event loops seed theirs from the same."""
    words, lengths = bytearray(), array("q")
    for seed in seeds:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        seed = abs(seed)
        count = (seed.bit_length() + 31) // 32 or 1
        words += seed.to_bytes(4 * count, "little")
        lengths.append(count)
    return words, lengths


@dataclass
class Trajectory:
    """Sampled occupancy path plus event tallies for one open run.

    The rows are t=0, the sample grid up to the horizon, and the horizon
    itself when it is off the grid, so the last row is the state at the
    horizon.
    """

    times: np.ndarray  # (k,)
    counts: np.ndarray  # (k, m) occupancies, left-limits at the sample times
    event_counts: dict


@dataclass(frozen=True)
class CoupledState:
    """Per-server blue, red and green particle counts at the horizon."""

    blue: tuple
    red: tuple
    green: tuple


@dataclass
class RunEnd:
    """Event tallies and end state of runs that keep no sampled path."""

    event_counts: dict
    # a closed run | a three-colour run | closed runs, one (m,) row per seed
    final: SystemState | CoupledState | np.ndarray


@dataclass
class ClosedRunResult:
    trajectory: RunEnd
    stop_time: Optional[float]  # None when censored at the horizon


@dataclass
class ClosedBatchResult:
    """Closed runs of one cell, one per seed, in seed order. The accepted
    moves, as "migration", are summed over the runs."""

    trajectory: RunEnd
    stop_times: tuple  # None where censored at the horizon


def _cumulative(seq) -> list:
    return list(accumulate(seq, initial=0.0))[1:]


def _start_counts(config: SystemConfig, initial: Sequence[int]) -> list:
    """The initial occupancy as ints: m of them, none negative or above
    the cap."""
    counts = list(map(int, initial))
    if len(counts) != config.m or min(counts) < 0:  # m >= 1
        raise ValueError(
            f"initial occupancy must be {config.m} non-negative integers")
    if config.cap is not None and max(counts) > config.cap:
        raise ValueError("initial occupancy exceeds the configured cap")
    return counts


def _c_array(ctype, code: str, values) -> ctypes.Array:
    """A new ctypes array of ``ctype`` holding ``values``, copied through
    an ``array(code)`` of the same item size: one buffer copy instead of
    one conversion per item."""
    items = array(code, values)
    return (ctype * len(items)).from_buffer_copy(items)


def simulate_closed(config: SystemConfig, initial: Sequence[int], horizon: float,
                    eps=None, seed: int | Sequence[int] = 0):
    """Run the closed rls system on identical servers until it balances.

    The domain is the one the balance question asks about: the rls policy
    with unit service rates, unit resample rate and no arrivals. There an
    accepted move is exactly ``counts[i] > counts[j] + 1`` and the running
    maximum occupancy cannot rise, so the accepted moves can be sampled
    directly, rejected resamples never being simulated, and the audits
    below hold. Every waiting time is Exp(pairs / m), so a run at resample
    rate b would be this run with its clock divided by b: times are on the
    unit resample clock. Any other config is rejected with ConfigError
    before the first event.

    The run stops once every occupancy lies in a band: [n // m, ceil(n/m)]
    when eps is None, which with n clients is exactly the set of states
    with max - min <= 1, and otherwise ``eps_band(m, n, eps)``, every
    occupancy within a factor 1 +- eps of n/m. The returned stop_time is
    the exact event time at which the start or a move first lands in the
    band; if the horizon hits first the result is flagged censored and
    stop_time is None. After every accepted move the running maximum is
    checked to be non-increasing, the number of servers at the maximum
    non-increasing while the maximum is flat, and the drawn move to be an
    accepted pair, so a wrong pair count fails the run with
    SimulationError. Only the event tallies (accepted moves, as
    "migration") and the end state are kept.

    With an int seed the result is one ClosedRunResult. With a sequence of
    ints it is a ClosedBatchResult: one run per seed, in order, each the
    run its seed alone gives, with stop_times in place of stop_time, the
    moves summed over the runs and the end states as an (len(seed), m)
    array. All of them run in one C call (``closed_loop`` in
    event_loops.c) with the GIL released, so a chunk of replications costs
    one call's Python. Each run seeds its own Mersenne Twister exactly as
    ``Random(seed)`` does and draws as the module docstring lists, each
    move's bounded draw up to 64 bits wide, so n * m must stay below 2**63.
    Seeds must be ints (a bool counts); anything else raises TypeError, as
    ``Random`` already does for a numpy integer.
    """
    m = config.m
    if (config.policy is not Policy.RLS or config.resample_rate != 1
            or config.service_rates.count(1) != m
            or config.arrival_rates.count(0) != m):
        raise ConfigError(
            "closed runs take the rls policy with unit service and resample "
            f"rates and no arrivals, got policy {config.policy.value!r}, "
            f"service rates {config.service_rates!r}, resample rate "
            f"{config.resample_rate!r}, arrival rates {config.arrival_rates!r}")
    if horizon is None or not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    counts = _start_counts(config, initial)
    # no cap check in the loop: an accepted move lands on a server holding at
    # most counts[i] - 2, so no server ever exceeds the starting maximum
    n = sum(counts)
    if n * m >= 2 ** 63:  # the accepted pairs, at most n * m, are int64
        raise ValueError(f"n * m must stay below 2**63, got n={n}, m={m}")
    band_lo, band_hi = ((n // m, -(-n // m)) if eps is None
                        else eps_band(m, n, eps))
    single = isinstance(seed, int)
    seeds = (seed,) if single else seed
    if not isinstance(seeds, Sequence):
        raise TypeError("seed must be an int or a sequence of ints, got "
                        f"{type(seed).__name__}")
    words, lengths = _seed_keys(seeds)
    runs = len(lengths)
    times, stopped = (ctypes.c_double * runs)(), (ctypes.c_int64 * runs)()
    moves, final = (ctypes.c_int64 * runs)(), (ctypes.c_int64 * (runs * m))()
    run = _ClosedRun(
        m=m, horizon=horizon, band_lo=band_lo, band_hi=band_hi,
        start=_c_array(ctypes.c_int64, "q", counts), runs=runs,
        keys=(ctypes.c_uint32 * (len(words) // 4)).from_buffer(words),
        key_lens=(ctypes.c_int64 * runs).from_buffer(lengths),
        t=times, stopped=stopped, moves=moves, counts=final)
    status = _closed_loop(ctypes.byref(run))
    if status:
        raise _loop_error(status, run.prev_max, run.cur_max,
                          where=f" (seed {seeds[run.failed]!r})")
    if single:
        t = times[0]
        return ClosedRunResult(
            RunEnd({"migration": moves[0]}, SystemState(t, final[:])),
            t if stopped[0] else None)
    return ClosedBatchResult(
        RunEnd({"migration": sum(moves)},
               np.frombuffer(final, np.int64).reshape(runs, m)),
        tuple(t if done else None for t, done in zip(times, stopped)))


def simulate_open(config: SystemConfig, horizon: float, seed: int = 0, *,
                  sample_dt: Optional[float],
                  initial: Optional[Sequence[int]] = None,
                  track_sojourns: bool = True) -> tuple:
    """Run the open system to the horizon. Returns (trajectory, sojourns).

    ``sojourns`` is a float64 array of shape (n, 2), one row per client
    that arrived during the run, in arrival order: its arrival time and
    its departure time, NaN for a client still present at the horizon.
    Clients seeded through ``initial`` take part in the dynamics but get
    no row since they never arrived. With track_sojourns False the array
    has shape (0, 2) and the per-client bookkeeping (including the draw
    selecting which resident departs) is skipped; trajectories for a fixed
    seed are reproducible per tracking mode. The loop is C (``open_loop``
    in event_loops.c) and seeds its generator as ``Random(seed)`` does;
    the seed must be an int, and anything else raises TypeError.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    m = config.m
    counts = _start_counts(config, [0] * m if initial is None else initial)

    rls = config.policy is Policy.RLS
    words, _ = _seed_keys((seed,))
    key = (ctypes.c_uint32 * (len(words) // 4)).from_buffer(words)
    run = _OpenRun(
        m=m, cum_arr=_c_array(ctypes.c_double, "d",
                              _cumulative(config.arrival_rates)),
        svc=_c_array(ctypes.c_double, "d", map(float, config.service_rates)),
        beta=float(config.resample_rate), rls=rls,
        # a resample aims at randrange(dests), skipping its origin when dests < m
        dests=m if rls or config.include_self else m - 1,
        cap=-1 if config.cap is None else config.cap, horizon=horizon,
        sample_dt=sample_dt or 0.0, track=track_sojourns,
        key=key, key_len=len(key),
        counts=_c_array(ctypes.c_int64, "q", counts))
    try:
        status = _open_loop(ctypes.byref(run))
        if status:
            raise _loop_error(status)
        rows = run.n_rows
        n = run.n_sojourns
        traj = Trajectory(
            times=_copied(run.times, (rows,), np.float64),
            counts=_copied(run.snaps, (rows, m), np.int64),
            event_counts=dict(zip(OPEN_EVENTS, run.tallies)))
        sojourns = _copied(run.sojourns, (n, 2), np.float64)
    finally:
        _open_free(ctypes.byref(run))
    return traj, sojourns


def sojourn_window(sojourns: np.ndarray, warmup: float, cutoff: float):
    """(total, completed, in_window) over the (arrival, departure) rows of
    ``sojourns``: in_window rows arrive in [warmup, cutoff], completed of
    them carry a departure rather than NaN, and total is math.fsum of their
    sojourns. One C pass (``sojourn_window`` in event_loops.c)."""
    rows = np.ascontiguousarray(sojourns, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(f"sojourns must have shape (n, 2), got {rows.shape}")
    total, counts = ctypes.c_double(), (ctypes.c_int64 * 2)()
    if _sojourn_window(len(rows), rows.ctypes.data, warmup, cutoff, total,
                       counts):
        raise MemoryError("the sojourn window sum ran out of memory")
    return total.value, counts[0], counts[1]


def _copied(pointer, shape, dtype) -> np.ndarray:
    """A new array holding the C buffer behind ``pointer``. A plain copy
    into numpy's own memory creates no ctypes array type per length."""
    out = np.empty(shape, dtype)
    if out.nbytes:
        ctypes.memmove(out.__array_interface__["data"][0], pointer, out.nbytes)
    return out


def simulate_coupled(initial_blue: Sequence[int], arrival_rates: Sequence[float],
                     removal_rates: Sequence[float], horizon: float = 1.0,
                     seed: int = 0) -> RunEnd:
    """Run the three-colour auditing system.

    Every particle, whatever its colour, walks independently at rate 1 to a
    uniformly drawn server (one of all m, so self-jumps are no-ops). Blue
    particles arrive in a Poisson stream with per-server intensities
    ``arrival_rates``. A second Poisson stream with
    intensities ``removal_rates`` picks a server: if a blue particle is
    present there one blue turns red, otherwise a green particle appears.

    Structurally, every removal-stream event adds exactly one particle to
    the red-plus-green pool, and the blue-plus-red total changes only
    through blue arrivals. Only the state at the horizon is kept.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    m = len(initial_blue)
    blue = [int(c) for c in initial_blue]
    if any(c < 0 for c in blue):
        raise ValueError("initial blue counts must be non-negative")
    ell = [float(v) for v in arrival_rates]
    rho = [float(v) for v in removal_rates]
    if len(ell) != m or len(rho) != m:
        raise ValueError("arrival and removal rate vectors must have length m")
    if any(v < 0 for v in ell + rho):
        raise ValueError("arrival and removal rates must be non-negative")
    cum_ell = _cumulative(ell)
    cum_rho = _cumulative(rho)
    total_ell = cum_ell[-1]
    total_rho = cum_rho[-1]

    red = [0] * m
    green = [0] * m
    rng = Random(seed)
    t = 0.0
    events = {"walk": 0, "walk_self": 0, "arrival": 0,
              "removal_hit": 0, "removal_miss": 0}

    while True:
        walk_total = sum(blue) + sum(red) + sum(green)  # each walks at rate 1
        total = walk_total + total_ell + total_rho
        t_next = t + rng.expovariate(total) if total > 0.0 else math.inf
        if t_next > horizon:
            break
        t = t_next
        w = rng.random() * total

        if w < walk_total:
            # locate the walking particle: server first, then colour
            i = m - 1
            acc = 0
            for k in range(m):
                acc += blue[k] + red[k] + green[k]
                if w < acc:
                    i = k
                    break
            z_i = blue[i] + red[i] + green[i]
            c = min(int(w - (acc - z_i)), z_i - 1)
            j = min(int(rng.random() * m), m - 1)
            if j == i:
                events["walk_self"] += 1
                continue
            if c < blue[i]:
                blue[i] -= 1
                blue[j] += 1
            elif c < blue[i] + red[i]:
                red[i] -= 1
                red[j] += 1
            else:
                green[i] -= 1
                green[j] += 1
            events["walk"] += 1
            continue

        w -= walk_total
        if w < total_ell:
            i = bisect_right(cum_ell, w)
            blue[i] += 1
            events["arrival"] += 1
            continue

        w -= total_ell
        i = bisect_right(cum_rho, w)
        if blue[i] > 0:
            blue[i] -= 1
            red[i] += 1
            events["removal_hit"] += 1
        else:
            green[i] += 1
            events["removal_miss"] += 1

    return RunEnd(events, CoupledState(tuple(blue), tuple(red), tuple(green)))
