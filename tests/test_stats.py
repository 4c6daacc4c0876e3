"""The replication fan-out of migratesim.stats: order, chunking, errors;
and the chi-square helper's pooling."""

import sys
import threading
import time

import pytest

from migratesim.ctmc import simulate_closed
from migratesim.model import SystemConfig
from migratesim.stats import _chunks, chi_square_gof, map_replications


@pytest.mark.parametrize("n, jobs", [(0, 2), (1, 2), (3, 5), (10, 2), (21, 2),
                                     (24, 2), (37, 3)])
def test_fan_out_keeps_work_order(n, jobs):
    # 21 and 37 are not multiples of their chunk sizes (2 and 3); (1, 2) and
    # (3, 5) have more workers than replications
    work = list(range(n))
    assert map_replications(lambda w: w * w, work, jobs) == [w * w for w in work]


def test_chunks_are_contiguous_and_at_most_one_per_replication():
    # a huge --jobs is checked here on plain lists: running it would start
    # as many threads as there are chunks, and there is one per replication
    work = list(range(10))
    assert _chunks(work, 10 ** 9) == [[w] for w in work]
    assert _chunks(list(range(24)), 2) == [list(range(i, i + 3))
                                           for i in range(0, 24, 3)]
    chunks = _chunks(list(range(37)), 3)
    assert [w for c in chunks for w in c] == list(range(37))
    assert {len(c) for c in chunks[:-1]} == {3} and len(chunks[-1]) == 1
    assert _chunks([], 4) == []


def test_failing_replication_stops_the_queued_chunks():
    work = list(range(40))  # 8 chunks of 5 over 2 threads
    error = KeyError("replication 0")
    calls = []
    lock = threading.Lock()

    def rep(w):
        with lock:
            calls.append(w)
        if w == 0:
            raise error
        time.sleep(0.01)
        return w

    with pytest.raises(KeyError) as caught:
        map_replications(rep, work, jobs=2)
    assert caught.value is error
    assert len(calls) < len(work)


def test_fan_out_under_frequent_thread_switches():
    # more threads than cores, switching every microsecond between the
    # Python set-up of one closed run and the C loop of another: every result
    # must still land in its own slot
    cfg = SystemConfig(m=8, policy="rls", resample_rate=1.0)

    def rep(seed):
        end = simulate_closed(cfg, (40,) + (0,) * 7, horizon=1e3, seed=seed)
        return end.stop_time, end.trajectory.final.counts

    work = list(range(160))
    serial = [rep(w) for w in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fanned = map_replications(rep, work, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert fanned == serial


def test_chi_square_pools_small_bins_at_the_ends():
    # 3 joins its left neighbour, then 0.5 joins its right one: two bins
    stat, df, p = chi_square_gof([1, 50, 50, 2], [0.5, 50.0, 50.0, 3.0])
    assert df == 1
    assert stat == pytest.approx(0.5 ** 2 / 50.5 + 1.0 / 53.0)


def test_chi_square_refuses_a_small_bin_between_the_ends():
    # tail pooling cannot reach bin 2, nor a last pair of bins short of 5
    with pytest.raises(ValueError, match="bin 2 expects 0.3"):
        chi_square_gof([30, 30, 1, 30, 30], [30.0, 30.0, 0.3, 30.0, 30.0])
    with pytest.raises(ValueError, match="bin 1 expects 4.0"):
        chi_square_gof([9, 1, 2], [20.0, 3.0, 1.0])
