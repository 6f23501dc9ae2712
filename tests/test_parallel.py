"""The shared worker helper: every item once, every thread joined, errors raised,
and H-tables unmoved by many workers."""

import sys
import threading

import numpy as np
import pytest

from discrepancy_forge import parallel
from discrepancy_forge.geometry import Ball, ConvexPolytope
from discrepancy_forge.hfourier import h_coefficient_table


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_deal_gives_each_item_to_one_worker(workers, count, monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", workers)
    shares = []
    parallel.deal(range(count), lambda mine: shares.append(list(mine)))
    # never more workers than items, and the items dealt round-robin
    assert len(shares) == min(workers, count)
    assert sorted(i for share in shares for i in share) == list(range(count))
    assert all(share == list(range(count))[share[0]::len(shares)] for share in shares)


def test_deal_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 3)
    before = threading.active_count()
    seen = set()
    parallel.deal(range(5), lambda mine: seen.add(threading.current_thread()))
    assert len(seen) == 3 and threading.main_thread() in seen
    assert threading.active_count() == before


def test_worker_error_is_raised_by_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "WORKERS", 3)
    calls = []

    def work(mine):
        calls.append(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed"):
        parallel.deal(range(3), work)
    assert len(calls) == 3
    assert threading.active_count() == before


def test_many_workers_on_short_switches_give_the_same_table(kernel2, monkeypatch):
    # more workers than cores, switching threads every microsecond: strips
    # that overlapped or a row written twice would move the table
    quad = ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3)
    for set_, R in ((quad, 16.0), (Ball((0.51171875, 0.43359375), 0.25), 32.0)):
        monkeypatch.setattr(parallel, "WORKERS", 1)
        expected = h_coefficient_table(set_, kernel2, R, oversample=2)
        monkeypatch.setattr(parallel, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = h_coefficient_table(set_, kernel2, R, oversample=2)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(table.block, expected.block)
        assert np.array_equal(table.err, expected.err)
