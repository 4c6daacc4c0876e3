"""Event-driven simulation of the migration system.

Three drivers; the first two share one transition law, and the third
is a system of its own:

* ``simulate_closed``: a fixed client population moving between servers,
  arrivals and service completions switched off. Its domain is the balance
  question alone: the rls policy on servers with equal, positive service
  rates, stopped at exact or eps balance. On that domain a client at level
  k moves to a server at level l exactly when l <= k - 2, at rate
  resample_rate / m per (client, destination) pair, and the maximum
  occupancy never rises, which the loop audits; other configs raise
  ConfigError. The loop samples accepted moves only (the n-fold way of
  Bortz, Kalos and Lebowitz on Gillespie's direct method), so no rejected
  resample is ever simulated.
* ``simulate_open``: arrivals, processor-sharing service completions and
  resampling all active. Optionally tracks individual clients through
  migrations, returning one (arrival time, departure time) row per
  arrived client.
* ``simulate_coupled``: the three-colour particle system used to audit the
  open-system dynamics. All particles (blue, red, green) perform the same
  uniform random walk; blue arrivals come from one Poisson stream, and a
  second stream marks a blue particle red where possible, otherwise
  deposits a green one.

``step`` is the single-transition reference implementation. The open
loop is C (``open_loop.c``, loaded through ctypes) and consumes the
Mersenne Twister stream of ``Random(seed)`` in exactly the same order,
one event at a time:

    open:    dt ~ expovariate(total) ; u = random() picks the event category
             and, within arrivals/departures/resampling, the server or slot;
             resampling destination and (when tracking) the departing
             resident need further draws

so a single step from a freshly constructed state is bit-identical to the
first open-loop event under the same seed. The open loop draws each
randrange(n) as CPython's _randbelow does, getrandbits(n.bit_length())
until below n (n = 1 too): on an interpreter that draws otherwise its
streams shift, and test_inline_bounded_draw_is_randbelow fails. Importing
this module compiles the loop with the system C compiler ``cc`` into
``$XDG_CACHE_HOME/migratesim`` (default ``~/.cache/migratesim``), once per
source and compile command; without ``cc`` the import fails. The
closed loop matches ``step(closed=True)`` in law, not draw for draw. Each
of its steps draws, in this order:

    closed:  dt = -log(1 - random()) / R, R the total accepted-move rate ;
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
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional, Sequence

import numpy as np

from .model import ConfigError, Policy, SystemConfig, SystemState, eps_band, rls_accepts


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (deadlock) or an invariant breaks."""


# -O2 without -ffast-math or -march: no fused multiply-add, no reordering
CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build_open_loop() -> ctypes.CDLL:
    """Load open_loop.c compiled by ``cc``, building it first if the cache
    holds no build of this source with this command. The build is written
    under a temporary name and renamed into place, so a process never loads
    a file another is still writing."""
    source = Path(__file__).with_name("open_loop.c")
    key = zlib.crc32(" ".join(CC).encode(), zlib.crc32(source.read_bytes()))
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "migratesim"
    lib = cache / f"open_loop-{key:08x}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        partial = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            done = subprocess.run([*CC, "-o", str(partial), str(source), "-lm"],
                                  capture_output=True, text=True)
        except FileNotFoundError:
            raise ImportError("migratesim compiles its open event loop with "
                              "the C compiler `cc`, which is not on PATH") from None
        if done.returncode:
            raise ImportError(f"`cc` could not compile {source}:\n{done.stderr}")
        os.replace(partial, lib)
    return ctypes.CDLL(str(lib))


class _OpenRun(ctypes.Structure):
    """open_loop.c's open_run: the run's inputs, then the outputs it
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
        ("mt", ctypes.POINTER(ctypes.c_uint32)),
        ("mti", ctypes.c_int64),
        ("counts", ctypes.POINTER(ctypes.c_int64)),
        ("times", ctypes.POINTER(ctypes.c_double)),
        ("snaps", ctypes.POINTER(ctypes.c_int64)),
        ("n_rows", ctypes.c_int64),
        ("sojourns", ctypes.POINTER(ctypes.c_double)),
        ("n_sojourns", ctypes.c_int64),
        ("tallies", ctypes.c_int64 * 7),
    ]


_LIB = _build_open_loop()
_open_loop = _LIB.open_loop
_open_loop.argtypes = [ctypes.POINTER(_OpenRun)]
_open_loop.restype = ctypes.c_int
_open_free = _LIB.open_free
_open_free.argtypes = [ctypes.POINTER(_OpenRun)]
_open_free.restype = None
OPEN_EVENTS = ("arrival", "departure", "migration", "resample_rejected",
               "resample_self", "arrival_dropped", "migration_blocked")
# open_loop's error codes
_OPEN_LOOP_ERRORS = {
    1: (MemoryError, "the open event loop ran out of memory"),
    2: (SimulationError, "a bounded draw would be wider than 32 bits: a "
                         "server or the server count reached 2**32"),
    3: (SimulationError, "float drift in the summed rates picked a departure "
                         "or a resample with no client to carry it"),
}


@dataclass(frozen=True)
class Event:
    """One transition: its kind, waiting time, and the servers involved."""

    kind: str  # arrival | departure | migration | resample_rejected |
    #            resample_self | arrival_dropped | migration_blocked
    dt: float
    server_from: Optional[int] = None
    server_to: Optional[int] = None


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
    """Event tallies and end state of a run that keeps no sampled path."""

    event_counts: dict
    final: SystemState | CoupledState  # closed runs | three-colour runs


@dataclass
class ClosedRunResult:
    trajectory: RunEnd
    stop_time: Optional[float]  # None when censored at the horizon


def _cumulative(seq) -> list:
    acc = 0.0
    out = []
    for v in seq:
        acc += v
        out.append(acc)
    return out


def _jump_destination(config: SystemConfig, origin: int, rng: Random) -> int:
    """Destination draw for one rlo jump: uniform over all m servers, or
    over the other m - 1 when self-jumps are excluded."""
    if config.include_self:
        return rng.randrange(config.m)
    k = rng.randrange(config.m - 1)
    return k if k < origin else k + 1


def step(state: SystemState, config: SystemConfig, rng: Random,
         closed: bool = False) -> tuple:
    """Advance the system by exactly one event. Returns (new_state, event).

    In closed mode only the resampling clocks run; the caller guarantees
    all arrival rates are zero. A zero total event rate means nothing can
    ever happen, which is reported as a deadlock instead of hanging.
    ``simulate_open`` draws exactly like this function; ``simulate_closed``
    samples only the accepted moves, so it matches closed steps in law but
    not bit for bit.
    """
    m = config.m
    counts = list(state.counts)
    n = sum(counts)
    svc = config.service_rates
    beta = config.resample_rate

    if closed:
        if any(r != 0.0 for r in config.arrival_rates):
            raise SimulationError("closed mode requires all arrival rates to be zero")
        total = beta * n
        if total <= 0.0:
            raise SimulationError(
                "total event rate is zero; the closed system is stuck "
                f"(n={n}, resample_rate={beta})"
            )
        dt = rng.expovariate(total)
        slot = rng.randrange(n)
        acc = 0
        origin = m - 1
        for i, c in enumerate(counts):
            acc += c
            if slot < acc:
                origin = i
                break
        event = _resample_event(config, counts, origin, rng, dt)
        return SystemState(state.t + dt, tuple(counts)), event

    arr = config.arrival_rates
    cum_arr = _cumulative(arr)
    total_arr = cum_arr[-1] if m else 0.0
    busy_svc = math.fsum(svc[i] for i in range(m) if counts[i] > 0)
    total = total_arr + busy_svc + beta * n
    if total <= 0.0:
        raise SimulationError("total event rate is zero; no transition is possible")
    dt = rng.expovariate(total)
    w = rng.random() * total

    if w < total_arr:
        i = bisect_right(cum_arr, w)
        if config.cap is not None and counts[i] >= config.cap:
            return SystemState(state.t + dt, tuple(counts)), Event(
                "arrival_dropped", dt, server_to=i)
        counts[i] += 1
        return SystemState(state.t + dt, tuple(counts)), Event("arrival", dt, server_to=i)

    w -= total_arr
    if w < busy_svc:
        homogeneous = len(set(svc)) == 1
        if homogeneous:
            busy = [i for i in range(m) if counts[i] > 0]
            i = busy[min(int(w / svc[0]), len(busy) - 1)]
        else:
            acc = 0.0
            i = max(j for j in range(m) if counts[j] > 0)
            for j in range(m):
                if counts[j] > 0:
                    acc += svc[j]
                    if w < acc:
                        i = j
                        break
        counts[i] -= 1
        return SystemState(state.t + dt, tuple(counts)), Event("departure", dt, server_from=i)

    w -= busy_svc
    slot = min(int(w / beta), n - 1)
    acc = 0
    origin = m - 1
    for i, c in enumerate(counts):
        acc += c
        if slot < acc:
            origin = i
            break
    event = _resample_event(config, counts, origin, rng, dt)
    return SystemState(state.t + dt, tuple(counts)), event


def _resample_event(config, counts, origin, rng: Random, dt: float) -> Event:
    """Mutates counts according to one resampling attempt from ``origin``."""
    svc = config.service_rates
    if config.policy is Policy.RLS:
        dest = rng.randrange(config.m)
        if rls_accepts(svc[origin], counts[origin], svc[dest], counts[dest]):
            if config.cap is not None and counts[dest] >= config.cap:
                return Event("migration_blocked", dt, origin, dest)
            counts[origin] -= 1
            counts[dest] += 1
            return Event("migration", dt, origin, dest)
        return Event("resample_rejected", dt, origin, dest)
    dest = _jump_destination(config, origin, rng)
    if dest == origin:
        return Event("resample_self", dt, origin, dest)
    if config.cap is not None and counts[dest] >= config.cap:
        return Event("migration_blocked", dt, origin, dest)
    counts[origin] -= 1
    counts[dest] += 1
    return Event("migration", dt, origin, dest)


def simulate_closed(config: SystemConfig, initial: Sequence[int], horizon: float,
                    eps=None, seed: int = 0) -> ClosedRunResult:
    """Run the closed rls system on identical servers until it balances.

    The domain is the one the balance question asks about: the rls policy
    with equal, positive service rates. There an accepted move is exactly
    ``counts[i] > counts[j] + 1`` and the running maximum occupancy cannot
    rise, so the accepted moves can be sampled directly, rejected resamples
    never being simulated, and the audits below hold. Any other config is
    rejected with ConfigError before the first event; ``step`` with
    closed=True still covers every policy.

    The run stops at exact balance (max - min <= 1) when eps is None, and
    otherwise at eps balance (every occupancy within a factor 1 +- eps of
    n/m). The returned stop_time is the exact event time at which the
    predicate first held; if the horizon hits first the result is flagged
    censored and stop_time is None. After every accepted move the running
    maximum is checked to be non-increasing, and the number of servers at
    the maximum non-increasing while the maximum is flat. Only the event
    tallies (accepted moves, as "migration") and the end state are kept.
    """
    if any(r != 0.0 for r in config.arrival_rates):
        raise SimulationError("closed runs require all arrival rates to be zero")
    if config.policy is not Policy.RLS:
        raise ConfigError("closed runs support only the rls policy, "
                          f"got {config.policy.value!r}")
    if len(set(config.service_rates)) != 1 or config.service_rates[0] <= 0:
        raise ConfigError("closed runs need equal, positive service rates, "
                          f"got {config.service_rates!r}")
    if horizon is None or not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    m = config.m
    counts = [int(c) for c in initial]
    if len(counts) != m or any(c < 0 for c in counts):
        raise ValueError(f"initial occupancy must be {m} non-negative integers")
    if config.cap is not None and any(c > config.cap for c in counts):
        raise ValueError("initial occupancy exceeds the configured cap")
    # no cap check in the loop: an accepted move lands on a server holding at
    # most counts[i] - 2, so no server ever exceeds the starting maximum
    n = sum(counts)

    if eps is None:
        def stopped(lo_v, hi_v):
            return hi_v - lo_v <= 1
    else:
        band_lo, band_hi = eps_band(m, n, eps)

        def stopped(lo_v, hi_v):
            return lo_v >= band_lo and hi_v <= band_hi

    rng = Random(seed)
    random = rng.random
    randbelow = rng._randbelow  # randrange(x) for x > 0, without its checks
    log = math.log
    pair_rate = config.resample_rate / m

    # order holds the servers sorted by occupancy and where[s] is server
    # s's position in it; below[v] counts the servers holding fewer than v
    # clients. So level v fills order[below[v]:below[v + 1]] and the servers
    # at level v - 2 or lower are order[:below[v - 1]]. The last entry of
    # below stays 0, so below[-1] counts nobody under level 0.
    top = max(counts)
    order = sorted(range(m), key=counts.__getitem__)
    where = [0] * m
    for p, s in enumerate(order):
        where[s] = p
    below = [0] * (top + 3)
    for c in counts:
        below[c + 1] += 1
    for v in range(1, top + 2):
        below[v] += below[v - 1]

    moves = 0
    t = 0.0
    stop_time = None
    cur_max = top
    if stopped(counts[order[0]], cur_max):
        stop_time = 0.0
    elif pair_rate == 0.0:
        raise SimulationError(
            "total event rate is zero and the stopping predicate does not "
            f"hold (n={n}, resample_rate={config.resample_rate})"
        )
    else:
        max_count = m - below[cur_max]
        while True:
            # A client at level v moves to a server at level v - 2 or lower,
            # at rate beta/m per (client, destination) pair, so level v
            # sends v * h_v * H_{<=v-2} pairs. The scan runs down the
            # occupied levels while some server sits two below. pairs > 0
            # here, as max - min <= 1 satisfies either stop.
            pairs = 0
            v = cur_max
            while below[v - 1]:
                lo = below[v]
                pairs += v * (below[v + 1] - lo) * below[v - 1]
                v = counts[order[lo - 1]]
            t_next = t - log(1.0 - random()) / (pair_rate * pairs)
            if t_next > horizon:
                t = horizon
                break
            t = t_next

            # one uniform accepted pair: its source level k, then within
            # the level's pairs a (destination, source server, client)
            # index; which client moves does not matter
            r = randbelow(pairs)
            k = cur_max
            while True:
                lo = below[k]
                hk = below[k + 1] - lo
                w = k * hk * below[k - 1]
                if r < w:
                    break
                r -= w
                k = counts[order[lo - 1]]
            q = r // k
            i = order[lo + q % hk]
            j = order[q // hk]
            low = counts[j]

            # i drops to level k - 1: swap it to the front of level k, then
            # start level k after it
            p = where[i]
            s = order[lo]
            order[p] = s
            where[s] = p
            order[lo] = i
            where[i] = lo
            below[k] = lo + 1
            # j rises to level low + 1: swap it to the back of level low,
            # then start level low + 1 at it
            e = below[low + 1] - 1
            p = where[j]
            s = order[e]
            order[p] = s
            where[s] = p
            order[e] = j
            where[j] = e
            below[low + 1] = e
            counts[i] = k - 1
            counts[j] = low + 1
            moves += 1

            prev_max = cur_max
            prev_max_count = max_count
            cur_max = counts[order[-1]]
            max_count = m - below[cur_max]
            if cur_max > prev_max:
                raise SimulationError(
                    f"maximum occupancy rose from {prev_max} to {cur_max} "
                    "during a closed rls run"
                )
            if cur_max == prev_max and max_count > prev_max_count:
                raise SimulationError(
                    "server count at the maximum level rose while the "
                    "maximum was flat during a closed rls run"
                )
            if stopped(counts[order[0]], cur_max):
                stop_time = t
                break

    return ClosedRunResult(
        RunEnd({"migration": moves}, SystemState(t, tuple(counts))),
        stop_time)


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
    seed are reproducible per tracking mode.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    m = config.m
    counts = [0] * m if initial is None else [int(c) for c in initial]
    if len(counts) != m or any(c < 0 for c in counts):
        raise ValueError(f"initial occupancy must be {m} non-negative integers")
    if config.cap is not None and any(c > config.cap for c in counts):
        raise ValueError("initial occupancy exceeds the configured cap")

    rls = config.policy is Policy.RLS
    rng_state = Random(seed).getstate()[1]  # 624 words, then the position
    run = _OpenRun(
        m=m, cum_arr=(ctypes.c_double * m)(*_cumulative(config.arrival_rates)),
        svc=(ctypes.c_double * m)(*map(float, config.service_rates)),
        beta=float(config.resample_rate), rls=rls,
        # a resample aims at randrange(dests), skipping its origin when dests < m
        dests=m if rls or config.include_self else m - 1,
        cap=-1 if config.cap is None else config.cap, horizon=horizon,
        sample_dt=sample_dt or 0.0, track=track_sojourns,
        mt=(ctypes.c_uint32 * 624)(*rng_state[:624]), mti=rng_state[624],
        counts=(ctypes.c_int64 * m)(*counts))
    try:
        status = _open_loop(ctypes.byref(run))
        if status:
            error, message = _OPEN_LOOP_ERRORS[status]
            raise error(message)
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
