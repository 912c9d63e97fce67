"""Metric definitions: names, units, direction and regression bounds.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

#: (name, unit, better, bound) — reported by every ``--trace 0`` run.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("time_to_results_s", "s", "lower", 0.25),
    ("spectra_per_s", "spectra/s", "higher", 0.25),
    ("batch_p50_ms", "ms", "lower", 0.25),
    ("batch_p95_ms", "ms", "lower", 0.25),
    ("mem_pss_mb", "MB", "lower", 0.15),
]

#: (name, unit, better) — reported by every ``--trace 1`` run.  A
#: layer a workload does not exercise reads 0 (README, "Layer map").
PER_LAYER = [
    # set-up: these plus setup.unattributed_s sum to setup.total_s
    ("setup.total_s", "s", "lower"),
    ("db.build_s", "s", "lower"),
    ("db.load_s", "s", "lower"),
    ("shard.plan_s", "s", "lower"),
    ("index.arena_s", "s", "lower"),
    ("core.plan_s", "s", "lower"),
    ("parallel.spill_s", "s", "lower"),
    ("parallel.open_s", "s", "lower"),
    ("setup.unattributed_s", "s", "lower"),
    ("index.rank_build_ms", "ms", "lower"),
    ("parallel.spill_mb", "MB", "lower"),
    # per batch: these plus service.unattributed_ms sum to service.submit_ms
    ("service.submit_ms", "ms", "lower"),
    ("shard.route_ms", "ms", "lower"),
    ("spectra.preprocess_ms", "ms", "lower"),
    ("parallel.spectra_spill_ms", "ms", "lower"),
    ("parallel.spectra_open_ms", "ms", "lower"),
    ("index.filter_ms", "ms", "lower"),
    ("search.score_ms", "ms", "lower"),
    ("search.rank_rest_ms", "ms", "lower"),
    ("search.merge_ms", "ms", "lower"),
    ("service.unattributed_ms", "ms", "lower"),
    # kernel work and rates
    ("index.ions_scanned", "count", "lower"),
    ("index.filter_ns_per_ion", "ns", "lower"),
    ("index.candidates_per_kion", "1/kion", "higher"),
    ("search.candidates_scored", "count", "lower"),
    ("search.score_ns_per_candidate", "ns", "lower"),
    ("core.work_li", "ratio", "lower"),
    ("core.ions_li", "ratio", "lower"),
    # the session's own BatchStats, as a cross-check
    ("service.prepare_ms", "ms", "lower"),
    ("service.spill_ms", "ms", "lower"),
    ("service.round_ms", "ms", "lower"),
    ("service.merge_ms", "ms", "lower"),
    ("service.collect_wait_ms", "ms", "lower"),
    ("service.overlap_ms", "ms", "higher"),
    ("service.wait_ms", "ms", "lower"),
    ("parallel.round_overhead_ms", "ms", "lower"),
    ("parallel.scatter_bytes", "bytes", "lower"),
    ("service.query_li_wall", "ratio", "lower"),
    ("service.query_li_wall_iqr", "ratio", "lower"),
    # routing
    ("shard.skip_ratio", "ratio", "higher"),
    ("shard.pairs_routed_ratio", "ratio", "lower"),
    # baselines, memory split, recorder, load generator, tracing
    ("search.serial_spectra_per_s", "spectra/s", "higher"),
    ("parallel.worker_pss_mb", "MB", "lower"),
    ("service.master_pss_mb", "MB", "lower"),
    ("obs.records_per_batch", "count", "lower"),
    ("loadgen.backlog_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: Setup layers that sum (with ``setup.unattributed_s``) to the whole.
SETUP_PARTS = (
    "db.build_s",
    "db.load_s",
    "shard.plan_s",
    "index.arena_s",
    "core.plan_s",
    "parallel.spill_s",
    "parallel.open_s",
)

#: Per-batch layers that sum (with ``service.unattributed_ms``) to
#: ``service.submit_ms``.
BATCH_PARTS = (
    "shard.route_ms",
    "spectra.preprocess_ms",
    "parallel.spectra_spill_ms",
    "parallel.spectra_open_ms",
    "index.filter_ms",
    "search.score_ms",
    "search.rank_rest_ms",
    "search.merge_ms",
)
