"""Resident-pool round contract: results, timings, and failure modes.

One command round on :class:`PersistentPool` must mirror ``run_spmd``'s
guarantees on real processes: per-rank results in rank order, and *no
failure mode that hangs* — a raising worker surfaces its remote
traceback, a dying worker surfaces its exit code, and a stuck round hits
the deadline.  Session survival after those failures is covered in
``test_parallel_persistent.py``.
"""

import time

import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.parallel import PersistentPool
from repro.parallel.worker import (
    resident_attach,
    resident_crash,
    resident_echo,
    resident_exit,
    resident_sleep,
)


def _attached(n_workers: int, timeout: float) -> PersistentPool:
    pool = PersistentPool(n_workers, timeout=timeout)
    pool.attach(resident_attach, [f"s{rank}" for rank in range(n_workers)])
    return pool


def test_results_arrive_in_rank_order():
    with _attached(3, timeout=120.0) as pool:
        res = pool.run_batch(resident_echo, ["a", "b", "c"])
    assert [r[:3] for r in res.results] == [(0, "s0", "a"), (1, "s1", "b"), (2, "s2", "c")]
    assert res.n_workers == 3
    assert len(res.wall_times) == 3 and len(res.cpu_times) == 3
    assert all(w >= 0.0 for w in res.wall_times)
    assert res.makespan == max(res.wall_times)


def test_raising_worker_reports_remote_traceback():
    with _attached(2, timeout=120.0) as pool:
        with pytest.raises(WorkerError, match="deliberate resident crash on rank 1") as excinfo:
            pool.run_batch(resident_crash, [1, 1])
    assert "remote traceback" in str(excinfo.value)
    assert "resident_crash" in str(excinfo.value)


def test_dying_worker_reports_exit_code_not_hang():
    with _attached(2, timeout=120.0) as pool:
        t0 = time.monotonic()
        with pytest.raises(WorkerError, match="exit code 21"):
            pool.run_batch(resident_exit, [0, 0])
        assert time.monotonic() - t0 < 60.0  # well under the deadline


def test_deadline_expiry_terminates_pool():
    with _attached(1, timeout=3.0) as pool:
        straggler = pool._channels[0].proc
        with pytest.raises(WorkerError, match="deadline"):
            pool.run_batch(resident_sleep, [120.0])
        straggler.join(timeout=10.0)
        assert not straggler.is_alive()


def test_unpicklable_fn_raises_the_real_error():
    """A send-time pickling failure of the command callable re-raises
    its own error, not an AssertionError from the pool's cleanup."""
    with _attached(2, timeout=60.0) as pool:
        with pytest.raises(Exception) as excinfo:
            pool.run_batch(lambda rank, size, state, payload: rank, [None, None])
    assert not isinstance(excinfo.value, AssertionError)
    assert "pickle" in str(excinfo.value).lower()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PersistentPool(0)
    with pytest.raises(ConfigurationError):
        PersistentPool(1, timeout=0.0)
    with pytest.raises(ConfigurationError):
        PersistentPool(1, start_method="teleport")
    with pytest.raises(ConfigurationError):
        PersistentPool(1, max_retries=-1)
    with pytest.raises(ConfigurationError):
        PersistentPool(1, backoff_s=-0.1)
    with pytest.raises(ConfigurationError):
        PersistentPool(1, hedge_after=0.0)
    with _attached(2, timeout=30.0) as pool:
        with pytest.raises(ConfigurationError):
            pool.run_batch(resident_echo, ["only-one"])
