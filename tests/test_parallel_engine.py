"""One-shot process search through a session vs serial: exact equivalence.

A one-shot real-process search is a :class:`SearchService` session of
open → one submit → close.  Its acceptance bar is the one the
simulated engine carries: for every partition policy and worker
count, search results — candidate counts, PSM identities, scores,
tie-breaking — are *bit-identical* to the serial engine's.  Real
parallelism must change where the work runs, never what it computes.
"""

import gc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig


def assert_same_results(serial, parallel):
    assert len(serial.spectra) == len(parallel.spectra)
    for a, b in zip(serial.spectra, parallel.spectra):
        assert a.scan_id == b.scan_id
        assert a.n_candidates == b.n_candidates
        assert [(p.entry_id, p.score, p.shared_peaks) for p in a.psms] == [
            (p.entry_id, p.score, p.shared_peaks) for p in b.psms
        ]


def search_once(db, spectra, **config):
    """One-shot job: open a session, submit every spectrum, close."""
    with SearchService(db, ServiceConfig(**config)) as service:
        results, _stats = service.submit(spectra)
    return results


@pytest.fixture(scope="module")
def serial_reference(tiny_db, tiny_spectra):
    return SerialSearchEngine(tiny_db).run(tiny_spectra)


@pytest.mark.parametrize("policy", ["cyclic", "chunk"])
@pytest.mark.parametrize("n_workers", [2, 3])
def test_process_backend_equals_serial(
    tiny_db, tiny_spectra, serial_reference, policy, n_workers
):
    res = search_once(tiny_db, tiny_spectra, n_workers=n_workers, policy=policy)
    assert_same_results(serial_reference, res)
    assert res.n_ranks == n_workers
    assert res.policy_name == policy


def test_rank_stats_cover_all_work(tiny_db, tiny_spectra, serial_reference):
    res = search_once(tiny_db, tiny_spectra, n_workers=2, policy="cyclic")
    assert sum(s.n_entries for s in res.rank_stats) == tiny_db.n_entries
    assert (
        sum(s.candidates_scored for s in res.rank_stats)
        == serial_reference.total_cpsms
    )


def test_phase_times_are_real_and_positive(tiny_db, tiny_spectra):
    res = search_once(tiny_db, tiny_spectra, n_workers=2, policy="cyclic")
    for key in ("query", "query_cpu", "parallel_wall", "total"):
        assert res.phase_times[key] > 0.0
    # Worker phases are bounded by the master-observed parallel section.
    assert res.phase_times["query"] <= res.phase_times["parallel_wall"]
    for stats in res.rank_stats:
        # The partial index is built once, at open(); its real build
        # seconds ride every batch's rank stats.
        assert stats.build_time > 0.0
        assert stats.query_time > 0.0
        assert stats.query_cpu_time > 0.0


def test_plan_partitions_all_entries(tiny_db):
    service = SearchService(tiny_db, ServiceConfig(n_workers=3))
    assert int(service.plan.partition_sizes().sum()) == tiny_db.n_entries


def test_engine_reuses_spilled_store(tiny_db, tiny_spectra):
    """Repeated submits on one session reuse its single arena spill."""
    with SearchService(
        tiny_db, ServiceConfig(n_workers=2, policy="cyclic")
    ) as service:
        directory = service._spill.store.directory
        mtime = (directory / "mzs.npy").stat().st_mtime_ns
        a, _ = service.submit(tiny_spectra)
        b, _ = service.submit(tiny_spectra)
        assert service._spill.store.directory == directory
        assert (directory / "mzs.npy").stat().st_mtime_ns == mtime
    assert_same_results(a, b)


def test_workers_see_only_their_partition(tiny_db, tiny_spectra):
    """Per-worker index sizes match the plan (no replicated database)."""
    with SearchService(
        tiny_db, ServiceConfig(n_workers=3, policy="cyclic")
    ) as service:
        res, _ = service.submit(tiny_spectra)
        expected = service.plan.partition_sizes()
    got = np.array([s.n_entries for s in res.rank_stats], dtype=np.int64)
    assert np.array_equal(expected, got)


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        ServiceConfig(n_workers=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(top_k=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(timeout=-1.0)


# -- shared spill cache (one tmpdir spill per arena) -------------------


def test_engines_over_same_database_share_one_spill(tiny_db, tiny_spectra):
    """Two sessions over one database attach to the same tmpdir spill
    (no second spill), and results stay bit-identical."""
    with SearchService(
        tiny_db, ServiceConfig(n_workers=2, policy="cyclic")
    ) as a:
        res_a, _ = a.submit(tiny_spectra)
        directory = a._spill.store.directory
        mtime = (directory / "mzs.npy").stat().st_mtime_ns
        with SearchService(
            tiny_db, ServiceConfig(n_workers=3, policy="chunk")
        ) as b:
            res_b, _ = b.submit(tiny_spectra)
            assert b._spill.store.directory == directory
            # Attached, not re-spilled (rewriting could tear live
            # memmaps).
            assert (directory / "mzs.npy").stat().st_mtime_ns == mtime
    assert_same_results(res_a, res_b)


def test_first_engine_death_does_not_remove_shared_spill(tiny_db, tiny_spectra):
    """The spill is refcounted: it outlives any single session and is
    removed only when the last holder is garbage-collected."""
    a = SearchService(tiny_db, ServiceConfig(n_workers=2)).open()
    b = SearchService(tiny_db, ServiceConfig(n_workers=2)).open()
    try:
        res_a, _ = a.submit(tiny_spectra)
        directory = a._spill.store.directory
        a.close()
        del a
        gc.collect()
        assert directory.is_dir()  # b still maps it
        res_b, _ = b.submit(tiny_spectra)
        assert_same_results(res_a, res_b)
    finally:
        b.close()
    del b
    gc.collect()
    assert not directory.exists()  # last holder gone -> tmpdir gone


# -- stale-store sweep (hard-crash leak window) ------------------------


def test_sweep_removes_stale_dirs_and_keeps_live_ones(tmp_path):
    from repro.parallel import sweep_stale_stores

    torn = tmp_path / "repro-arena-torn"  # crashed between mkdtemp and spill
    torn.mkdir()
    orphan = tmp_path / "repro-spectra-orphan"  # complete but long dead
    orphan.mkdir()
    (orphan / "spectra_manifest.json").write_text("{}")
    live = tmp_path / "repro-arena-live"  # complete and recent
    live.mkdir()
    (live / "arena_manifest.json").write_text("{}")
    unrelated = tmp_path / "other-dir"
    unrelated.mkdir()

    removed = sweep_stale_stores(
        tmp_path, incomplete_age_s=0.0, complete_age_s=0.0
    )
    assert removed == 3  # with age 0 even "live" qualifies ...
    assert not torn.exists() and not orphan.exists() and not live.exists()
    assert unrelated.is_dir()  # ... but foreign dirs are never touched

    # With realistic thresholds a fresh complete store survives.
    fresh = tmp_path / "repro-arena-fresh"
    fresh.mkdir()
    (fresh / "arena_manifest.json").write_text("{}")
    assert sweep_stale_stores(tmp_path) == 0
    assert fresh.is_dir()


def test_sweep_never_touches_stores_with_a_live_owner(tmp_path):
    """An owner.pid of a living process vetoes removal regardless of
    age — an idle long-running session must survive any sweep."""
    from repro.parallel import sweep_stale_stores, write_owner_marker

    live = tmp_path / "repro-spectra-session"
    live.mkdir()
    write_owner_marker(live)  # this test process is the live owner
    dead = tmp_path / "repro-spectra-orphan"
    dead.mkdir()
    (dead / "owner.pid").write_text("999999999\n")  # no such process

    removed = sweep_stale_stores(
        tmp_path, incomplete_age_s=0.0, complete_age_s=0.0
    )
    assert removed == 1
    assert live.is_dir() and not dead.exists()
