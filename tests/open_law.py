"""The open system's transition law, written out for the tests.

``step`` is the one-event reference: it advances the open system by one
event, drawing from ``Random`` in the order the ``ctmc`` module docstring
lists for the open loop, so the first event of a run from a given state
and seed is bit-identical to one ``step`` from that state under
``Random(seed)``.

``two_server_generator`` is the generator of the capped m = 2 chain, for
the laws past the first event: the exact stationary law behind the
sojourn oracle and the transient law ``expm(Q t)`` that the loop's end
states are fitted to.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from random import Random
from typing import Optional

from scipy import sparse

from migratesim.ctmc import SimulationError, _cumulative
from migratesim.model import Policy, SystemConfig, SystemState, rls_accepts


@dataclass(frozen=True)
class Event:
    """One transition: its kind, waiting time, and the servers involved."""

    kind: str  # arrival | departure | migration | resample_rejected |
    #            resample_self | arrival_dropped | migration_blocked
    dt: float
    server_from: Optional[int] = None
    server_to: Optional[int] = None


def _jump_destination(config: SystemConfig, origin: int, rng: Random) -> int:
    """Destination draw for one rlo jump: uniform over all m servers, or
    over the other m - 1 when self-jumps are excluded."""
    if config.include_self:
        return rng.randrange(config.m)
    k = rng.randrange(config.m - 1)
    return k if k < origin else k + 1


def step(state: SystemState, config: SystemConfig, rng: Random) -> tuple:
    """Advance the open system by exactly one event. Returns (new_state, event).

    The one-event reference of the open law, for every policy: arrivals,
    service completions and resampling. A zero total event rate means
    nothing can ever happen, which is reported as a deadlock instead of
    hanging. ``simulate_open`` draws exactly like this function.
    """
    m = config.m
    counts = list(state.counts)
    n = sum(counts)
    svc = config.service_rates
    beta = config.resample_rate

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
    origin = bisect_right(list(accumulate(counts)), slot)  # slot < n
    if config.policy is Policy.RLS:
        dest = rng.randrange(m)
        kind = ("migration" if rls_accepts(svc[origin], counts[origin],
                                           svc[dest], counts[dest])
                else "resample_rejected")
    else:
        dest = _jump_destination(config, origin, rng)
        kind = "migration" if dest != origin else "resample_self"
    if kind == "migration" and config.cap is not None and counts[dest] >= config.cap:
        kind = "migration_blocked"
    if kind == "migration":
        counts[origin] -= 1
        counts[dest] += 1
    return SystemState(state.t + dt, tuple(counts)), Event(kind, dt, origin, dest)


def two_server_generator(config: SystemConfig) -> tuple:
    """(states, Q) for the open system on two servers capped at B.

    The states are the occupancies (a, b) with 0 <= a, b <= B, in
    lexicographic order, and Q is the sparse generator, Q[s, s'] the rate
    from states[s] to states[s'] and each diagonal entry minus its row's
    total. It is written from the model's definition, not from ``step``:
    server i takes arrivals at rate lambda_i while it holds fewer than B,
    serves at rate mu_i while busy, and each of its n_i clients resamples
    at rate beta. A resampling client aims at either server with
    probability 1/2, or at the other one always under rlo without
    self-jumps. Under rls it moves when its share mu_j / (n_j + 1) at the
    other server beats mu_i / n_i, compared as exact fractions; under rlo
    it always moves. A move onto a server holding B is blocked. Dropped
    arrivals, rejected and self-aimed resamples and blocked moves leave
    the state where it is, so they add nothing to Q.
    """
    cap = config.cap
    if config.m != 2 or cap is None:
        raise ValueError("the chain needs m = 2 and a cap")
    lam, mu, beta = config.arrival_rates, config.service_rates, config.resample_rate
    rls = config.policy is Policy.RLS
    aim = 0.5 if rls or config.include_self else 1.0
    states = list(product(range(cap + 1), repeat=2))
    index = {state: s for s, state in enumerate(states)}
    rows, cols, vals = [], [], []
    for s, state in enumerate(states):
        for i in (0, 1):
            j = 1 - i
            n_i, n_j = state[i], state[j]
            moves = []
            if n_i < cap:
                moves.append((lam[i], +1, 0))
            if n_i > 0:
                moves.append((mu[i], -1, 0))
                if n_j < cap and (not rls or Fraction(mu[j]) / (n_j + 1)
                                  > Fraction(mu[i]) / n_i):
                    moves.append((beta * n_i * aim, -1, +1))
            for rate, d_i, d_j in moves:
                nxt = [0, 0]
                nxt[i], nxt[j] = n_i + d_i, n_j + d_j
                rows += [s, s]  # duplicate entries are summed
                cols += [index[tuple(nxt)], s]
                vals += [rate, -rate]
    size = len(states)
    return states, sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
