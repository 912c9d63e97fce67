"""The four workloads: untraced end-to-end runs and traced layer runs.

Every session is driven through the public API only
(:class:`~repro.service.SearchService`,
:class:`~repro.service.ShardedSearchService`,
:class:`~repro.search.database.IndexedDatabase`,
:func:`~repro.index.serialize.load_index`).  Sessions use the default
:class:`~repro.service.ServiceConfig` — flight recorder on, no file
tracer, rebalancing off — plus the workload's named settings and a
fresh :class:`~repro.obs.MetricsRegistry` each, so no two sessions
share state.

Correctness gate: every batch a session returns is compared, outside
the timed window, with :class:`~repro.search.serial.SerialSearchEngine`
on the same input; any difference, retry, hedge, respawn or migration
makes the run report ``correct: false``.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.db.fasta import read_fasta
from repro.index.arena import thread_workspace
from repro.index.serialize import load_index
from repro.index.slm import SLMIndexSettings
from repro.obs import MetricsRegistry
from repro.parallel.shared_arena import SharedArenaStore, shared_spill_for
from repro.parallel.shared_spectra import SharedSpectraStore
from repro.search.database import IndexedDatabase
from repro.search.engine import make_lbe_plan
from repro.search.rank import build_rank_index, merge_rank_payloads, run_rank_queries
from repro.search.scoring import score_many
from repro.search.serial import SerialSearchEngine
from repro.service import SearchService, ServiceConfig, ShardedSearchService
from repro.spectra.ms2 import read_ms2
from repro.spectra.preprocess import PreprocessConfig, preprocess_batch

from perfbench import common
from perfbench.inputs import chunk, database_config, make_inputs_in_child
from perfbench.metrics import BATCH_PARTS, SETUP_PARTS

wall = time.perf_counter

#: Shortest timed loop a run makes when its set-ups overran the run.
MIN_LOOP_S = 1.0


@dataclass(frozen=True)
class Spec:
    """One workload's fixed settings."""

    name: str
    why: str
    batch_size: int
    pool_batches: int  # distinct batches generated; loops cycle them
    n_workers: int
    n_shards: int = 0  # 0: one SearchService; else a ShardedSearchService
    precursor_tolerance: Optional[float] = None
    loop: str = "closed"  # "closed" (stream) or "oneshot"
    sort_by_mass: bool = False
    archive: bool = False
    # Closed loops: set-ups per untraced run, the first a warm-up that is
    # not counted.  One-shot: the fewest jobs per run.
    setups: int = 5

    @property
    def settings(self) -> SLMIndexSettings:
        return SLMIndexSettings(precursor_tolerance=self.precursor_tolerance)


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            "bulk-open",
            "offline open search of a run: 200-spectrum batches, closed loop "
            "through stream(), 2 workers; rank kernels dominate",
            batch_size=200, pool_batches=16, n_workers=2,
        ),
        Spec(
            "small-batch",
            "search as spectra arrive: 8-spectrum batches, closed loop through "
            "stream(), 2 workers; per-batch fixed costs dominate",
            batch_size=8, pool_batches=128, n_workers=2,
        ),
        Spec(
            "cold-archive",
            "one-shot job as serve --index runs it: load_index, open 2 workers, "
            "one 400-spectrum MS2 file, close; set-up dominates",
            batch_size=400, pool_batches=1, n_workers=2, loop="oneshot",
            archive=True, setups=7,
        ),
        Spec(
            "sharded-narrow",
            "closed search, +-2 Da window: mass-sorted 100-spectrum batches "
            "streamed over 2 shards x 1 worker; routing skips, filtration dominates",
            batch_size=100, pool_batches=16, n_workers=1, n_shards=2,
            precursor_tolerance=2.0, sort_by_mass=True,
        ),
    )
}


# -- correctness -----------------------------------------------------------


class Checker:
    """Collects every batch result; compares them with the serial engine.

    Results of one pool batch must be identical every time it is
    searched; the first copy is then compared with the serial engine.
    """

    def __init__(self) -> None:
        self.first: Dict[int, tuple] = {}
        self.violations: List[str] = []

    def batch(self, k: int, results, stats) -> None:
        fp = common.fingerprint(results.spectra)
        if self.first.setdefault(k, fp) != fp:
            self.violations.append(f"pool batch {k}: results differ between repeats")
        if stats.retries or stats.hedged or stats.respawned:
            self.violations.append(
                f"pool batch {k}: retries={stats.retries} hedged={stats.hedged} "
                f"respawned={stats.respawned}"
            )
        if stats.degraded_ranks:
            self.violations.append(f"pool batch {k}: degraded {stats.degraded_ranks}")

    def session(self, service) -> None:
        if service.respawn_total or service.rebalance_total:
            self.violations.append(
                f"session respawned {service.respawn_total} workers and "
                f"migrated {service.rebalance_total} times"
            )

    def against(self, references: Dict[int, tuple]) -> None:
        for k, fp in sorted(self.first.items()):
            if references[k] != fp:
                self.violations.append(f"pool batch {k}: differs from the serial engine")

    @property
    def ok(self) -> bool:
        return not self.violations


def serial_references(db, settings, pool, keys) -> tuple:
    """Serial-engine fingerprints of ``pool[k]`` and the searching seconds."""
    engine = SerialSearchEngine(db, settings)
    engine.index  # build outside the timed part
    refs = {}
    t0 = wall()
    for k in keys:
        refs[k] = common.fingerprint(engine.run(pool[k]).spectra)
    return refs, wall() - t0


# -- sessions --------------------------------------------------------------


def new_service(spec: Spec, db: IndexedDatabase, settings: SLMIndexSettings):
    cfg = ServiceConfig(
        n_workers=spec.n_workers, index=settings, metrics=MetricsRegistry()
    )
    if spec.n_shards:
        return ShardedSearchService(db, cfg, n_shards=spec.n_shards)
    return SearchService(db, cfg)


def build_from_fasta(fasta: Path) -> IndexedDatabase:
    records = list(read_fasta(fasta))
    return IndexedDatabase.build(database_config(), records=records)


def load_from_archive(archive: Path):
    index = load_index(archive, mmap_mode="r")
    return IndexedDatabase.from_index_entries(index.peptides), index.settings


def pss_split(service) -> tuple:
    """(master MB, summed worker MB) read before ``close()``."""
    master = common.read_pss_mb(os.getpid())
    workers = sum(common.read_pss_mb(p) for p in service.worker_pids() if p)
    return master, workers


# -- load loops ------------------------------------------------------------


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)  # seconds
    stats: list = field(default_factory=list)
    spectra: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def spectra_per_s(self) -> float:
        return self.spectra / self.wall_s if self.wall_s > 0 else 0.0

    def backlog_ratio(self) -> float:
        """Median latency of the last quarter over that of the first."""
        q = len(self.latencies) // 4
        if q < 1:
            return 0.0
        first = common.median(self.latencies[:q])
        return common.median(self.latencies[-q:]) / first if first > 0 else 0.0


def closed_loop(service, pool, seconds: float, checker: Checker) -> LoopResult:
    """One client streams pool batches for ``seconds``, then drains.

    A batch's latency runs from the moment ``stream()`` takes it from
    the client's iterator until ``stream()`` yields its result.  A
    failure ends the loop; every batch taken but not returned counts as
    failed.
    """
    out = LoopResult()
    taken: List[float] = []
    t_end = wall() + seconds

    def batches():
        k = 0
        while wall() < t_end:
            taken.append(wall())
            yield pool[k % len(pool)]
            k += 1

    now = wall()
    try:
        for i, (results, stats) in enumerate(service.stream(batches())):
            now = wall()
            out.latencies.append(now - taken[i])
            out.stats.append(stats)
            out.spectra += len(results.spectra)
            checker.batch(i % len(pool), results, stats)
    except Exception as exc:  # noqa: BLE001 - counted and reported
        checker.violations.append(f"stream failed: {exc!r}")
    out.attempted = len(taken)
    out.failed = out.attempted - len(out.latencies)
    out.wall_s = now - taken[0] if taken else 0.0
    return out


# -- a run -----------------------------------------------------------------


@dataclass
class RunOutput:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    checker: Checker
    notes: List[str]


class Workload:
    """One workload run: inputs, sessions, checks and metrics."""

    def __init__(self, spec: Spec, seed: int, seconds: float, work: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.checker = Checker()
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.files = make_inputs_in_child(
            work,
            seed,
            n_spectra=spec.batch_size * spec.pool_batches,
            sort_by_mass=spec.sort_by_mass,
            archive=spec.archive,
            settings=spec.settings,
        )
        self.notes.append(f"database: {self.files.n_entries} entries")
        # The clients' own copy of the query batches, parsed back from
        # the MS2 file outside any timed region.
        self.pool = chunk(list(read_ms2(self.files.ms2)), spec.batch_size)
        # A fresh session's first batch is the pool's lightest: scratch
        # buffers sized by the first batch then grow for later ones on
        # every seed alike, so memory does not hinge on batch order.
        self.first = min(
            range(len(self.pool)), key=lambda k: sum(s.n_peaks for s in self.pool[k])
        )

    # -- untraced ----------------------------------------------------------

    def run(self) -> RunOutput:
        """Set-ups, then the timed loop on the last session, in ``seconds``.

        Each set-up is timed to an open session and to its first batch's
        results.  The loop gets what is left of the run (at least
        :data:`MIN_LOOP_S`), so a slow host shortens the loop, not the run.
        """
        if self.spec.loop == "oneshot":
            return self._run_oneshot()
        spec, pool = self.spec, self.pool
        setups, ttrs = [], []
        service = db = None
        t_start = wall()
        try:
            for i in range(spec.setups):
                if service is not None:
                    self.checker.session(service)
                    service.close()
                service = db = None
                gc.collect()  # drop the previous set-up before timing the next
                t0 = wall()
                db = build_from_fasta(self.files.fasta)
                service = new_service(spec, db, spec.settings)
                service.open()
                setup = wall() - t0
                results, stats = service.submit(pool[self.first])
                ttr = wall() - t0
                self.attempted += 1
                self.checker.batch(self.first, results, stats)
                # A process's first set-up pays one-off costs (cold
                # caches, heap growth) that later ones do not.
                if i > 0:
                    setups.append(setup)
                    ttrs.append(ttr)
            loop_s = max(t_start + self.seconds - wall(), MIN_LOOP_S)
            loop = closed_loop(service, pool, loop_s, self.checker)
            master, workers = pss_split(service)
            self.checker.session(service)
        finally:
            if service is not None:
                service.close()
        self.attempted += loop.attempted
        self.failed += loop.failed
        self.notes.append(
            "set-ups after the warm-up (s): " + " ".join(f"{x:.3f}" for x in setups)
        )
        self.notes.append(f"pss: master {master:.1f} MB, workers {workers:.1f} MB")
        self._loop_notes(loop)
        refs, _ = serial_references(db, spec.settings, pool, self.checker.first)
        self.checker.against(refs)
        lat = loop.latencies
        metrics = {
            "setup_s": common.median(setups),
            "time_to_results_s": common.median(ttrs),
            "spectra_per_s": loop.spectra_per_s(),
            "batch_p50_ms": common.nearest_rank(lat, 50) * 1e3,
            "batch_p95_ms": common.nearest_rank(lat, 95) * 1e3,
            "mem_pss_mb": master + workers,
        }
        return RunOutput(metrics, self.attempted, self.failed, self.checker, self.notes)

    def _cold_job(self, traced: Optional[dict] = None) -> dict:
        """load_index -> open -> parse -> submit -> close, timed."""
        spec = self.spec
        lay = _Layers(traced)
        t0 = wall()
        with lay("db.load_s"):
            db, settings = load_from_archive(self.files.archive)
        service = new_service(spec, db, settings)
        try:
            with lay("index.arena_s"):
                arena = db.arena_for(settings.fragmentation)
            with lay("core.plan_s"):
                plan = service.plan
            with lay("parallel.spill_s"):
                spill = shared_spill_for(arena, settings.resolution)
            with lay("parallel.open_s"):
                service.open()
            setup = wall() - t0
            spectra = list(read_ms2(self.files.ms2))
            ring = service.flight_recorder
            seen = ring.n_seen if ring is not None else 0
            t_sub = wall()
            results, stats = service.submit(spectra)
            t_done = wall()
            records = (ring.n_seen - seen) if ring is not None else 0
            master, workers = pss_split(service)
            self.checker.batch(0, results, stats)
            self.checker.session(service)
        finally:
            service.close()
        self.attempted += 1
        return {
            "setup": setup,
            "ttr": t_done - t0,
            "latency": t_done - t_sub,
            "spectra_per_s": len(spectra) / (t_done - t_sub),
            "pss": (master, workers),
            "stats": stats,
            "records": records,
            "db": db,
            "settings": settings,
            "plan": plan,
            "spill": spill,
            "spectra": spectra,
        }

    def _run_oneshot(self) -> RunOutput:
        jobs = []
        last = None
        t_start = wall()
        while len(jobs) < self.spec.setups or wall() - t_start < self.seconds:
            last = None
            gc.collect()  # the previous job's database must not count here
            last = self._cold_job()
            jobs.append({k: last[k] for k in ("setup", "ttr", "latency", "spectra_per_s", "pss")})
        refs, _ = serial_references(last["db"], last["settings"], [last["spectra"]], [0])
        self.checker.against(refs)
        lat = [j["latency"] for j in jobs]
        self.notes.append("one-shot jobs, set-up (s): " + " ".join(f"{j['setup']:.3f}" for j in jobs))
        metrics = {
            "setup_s": common.median([j["setup"] for j in jobs]),
            "time_to_results_s": common.median([j["ttr"] for j in jobs]),
            "spectra_per_s": common.median([j["spectra_per_s"] for j in jobs]),
            "batch_p50_ms": common.nearest_rank(lat, 50) * 1e3,
            "batch_p95_ms": common.nearest_rank(lat, 95) * 1e3,
            "mem_pss_mb": common.median([sum(j["pss"]) for j in jobs]),
        }
        return RunOutput(metrics, self.attempted, self.failed, self.checker, self.notes)

    def _loop_notes(self, loop: LoopResult) -> None:
        n = len(loop.latencies)
        p = common.supported_percentile(n)
        self.notes.append(
            f"loop: {n} batches, {loop.spectra} spectra in {loop.wall_s:.3f} s; "
            f"highest percentile with >= {common.MIN_BEYOND} samples beyond: "
            f"{'none' if p is None else f'p{p:g}'}"
        )
        backlog = loop.backlog_ratio()
        self.notes.append(f"loadgen: backlog ratio {backlog:.3f}")
        if backlog > 1.5:
            self.notes.append("loadgen FLAG: latency grew over the run (backlog)")

    # -- traced ------------------------------------------------------------

    def run_traced(self) -> RunOutput:
        """Per-layer numbers: timers around public calls, replays in-process."""
        m: Dict[str, float] = {}
        if self.spec.loop == "oneshot":
            return self._traced_oneshot(m)
        spec, pool = self.spec, self.pool
        plain_setup = self._plain_setup()
        service = None
        try:
            service, db, spills = self._traced_setup(m)
            plans = (
                [s.plan for s in service.services]
                if spec.n_shards
                else [service.plan]
            )
            results, first_stats = service.submit(pool[self.first])
            self.checker.batch(self.first, results, first_stats)
            loop = closed_loop(service, pool, self.seconds, self.checker)
            submit_ms, records = [], []
            ring = service.flight_recorder
            for k, batch in enumerate(pool):
                seen = ring.n_seen
                t0 = wall()
                results, stats = service.submit(batch)
                submit_ms.append((wall() - t0) * 1e3)
                records.append(ring.n_seen - seen)
                self.checker.batch(k, results, stats)
            master, workers = pss_split(service)
            self.checker.session(service)
            route_plan = service.plan if spec.n_shards else None
        finally:
            if service is not None:
                service.close()
        self.attempted += loop.attempted + len(pool) + 1
        self.failed += loop.failed
        self._loop_notes(loop)
        self._batchstats_metrics(m, loop.stats, first_stats)
        m["obs.records_per_batch"] = common.mean(records)
        m["parallel.worker_pss_mb"] = workers
        m["service.master_pss_mb"] = master
        m["loadgen.backlog_ratio"] = loop.backlog_ratio()
        m["trace.overhead_ratio"] = _ratio(m["setup.total_s"], plain_setup)
        self._replay(m, pool, spills, plans, route_plan, submit_ms)
        refs, serial_s = serial_references(db, spec.settings, pool, self.checker.first)
        m["search.serial_spectra_per_s"] = sum(map(len, pool)) / serial_s
        self.checker.against(refs)
        return RunOutput(m, self.attempted, self.failed, self.checker, self.notes)

    def _plain_setup(self) -> float:
        """One untraced set-up, timed, as the base of ``trace.overhead_ratio``."""
        t0 = wall()
        service = new_service(self.spec, build_from_fasta(self.files.fasta), self.spec.settings)
        try:
            service.open()
            return wall() - t0
        finally:
            service.close()
            del service
            gc.collect()

    def _traced_setup(self, m: Dict[str, float]):
        spec, settings = self.spec, self.spec.settings
        lay = _Layers(m)
        t0 = wall()
        with lay("db.build_s"):
            db = build_from_fasta(self.files.fasta)
        if spec.n_shards:
            with lay("shard.plan_s"):  # the constructor cuts the ShardPlan
                service = new_service(spec, db, settings)
        else:
            service = new_service(spec, db, settings)
        dbs = [s.database for s in service.plan.shards] if spec.n_shards else [db]
        with lay("index.arena_s"):
            arenas = [d.arena_for(settings.fragmentation) for d in dbs]
        with lay("core.plan_s"):
            if spec.n_shards:
                # Inner sessions plan again at open(); the grouping
                # (Algorithm 1, the bulk of planning) is cached per
                # shard database by this call.
                cfg = service.config
                for d in dbs:
                    make_lbe_plan(
                        d, n_ranks=cfg.n_workers, policy=cfg.policy,
                        policy_seed=cfg.policy_seed, grouping=cfg.grouping,
                    )
            else:
                service.plan
        with lay("parallel.spill_s"):
            spills = [shared_spill_for(a, settings.resolution) for a in arenas]
        with lay("parallel.open_s"):
            service.open()  # a failed open() shuts its own workers down
        finish_setup(m, wall() - t0)
        m["parallel.spill_mb"] = sum(s.store.nbytes() for s in spills) / 2**20
        return service, db, spills

    def _traced_oneshot(self, m: Dict[str, float]) -> RunOutput:
        plain_setup = self._cold_job()["setup"]
        gc.collect()
        job = self._cold_job(traced=m)
        finish_setup(m, job["setup"])
        m["parallel.spill_mb"] = job["spill"].store.nbytes() / 2**20
        self._batchstats_metrics(m, [job["stats"]], job["stats"])
        m["obs.records_per_batch"] = float(job["records"])
        m["service.master_pss_mb"], m["parallel.worker_pss_mb"] = job["pss"]
        m["loadgen.backlog_ratio"] = 0.0
        m["trace.overhead_ratio"] = _ratio(job["setup"], plain_setup)
        pool = [job["spectra"]]
        self._replay(m, pool, [job["spill"]], [job["plan"]], None, [job["latency"] * 1e3])
        refs, serial_s = serial_references(job["db"], job["settings"], pool, [0])
        m["search.serial_spectra_per_s"] = len(pool[0]) / serial_s
        self.checker.against(refs)
        return RunOutput(m, self.attempted, self.failed, self.checker, self.notes)

    def _batchstats_metrics(self, m, stats_list, first_stats) -> None:
        """The session's own BatchStats, averaged, beside the outside timers."""
        def avg_ms(attr):
            return common.mean([getattr(s, attr) for s in stats_list]) * 1e3

        m["service.prepare_ms"] = avg_ms("preprocess_s")
        m["service.spill_ms"] = avg_ms("spill_s")
        m["service.round_ms"] = avg_ms("parallel_s")
        m["service.merge_ms"] = avg_ms("merge_s")
        m["service.collect_wait_ms"] = avg_ms("collect_wait_s")
        m["service.overlap_ms"] = avg_ms("overlap_s")
        m["service.wait_ms"] = avg_ms("wait_s")
        overheads = []
        for s in stats_list:
            inner = [x for x in getattr(s, "shard_stats", None) or [s] if x is not None]
            for x in inner:
                overheads.extend(
                    r - q for r, q in zip(x.round_wall_s, x.query_wall_s)
                )
        m["parallel.round_overhead_ms"] = common.mean(overheads) * 1e3
        m["parallel.scatter_bytes"] = float(first_stats.scatter_bytes)
        lis = [s.query_li for s in stats_list]
        m["service.query_li_wall"] = common.median(lis)
        m["service.query_li_wall_iqr"] = common.iqr(lis)

    def _replay(self, m, pool, spills, plans, route_plan, submit_ms) -> None:
        """Re-run each batch's stages in-process on the session's own plan.

        ``spills[u]`` / ``plans[u]`` belong to unit ``u`` (one per
        shard; one unit for an unsharded session).  Per-batch layer
        times are means over the pool, so with ``service.submit_ms``
        (the sequential pass) they reconcile exactly.
        """
        settings = self.spec.settings
        top_k = ServiceConfig().top_k
        ws = thread_workspace()
        units = []
        build_ms = []
        for spill, plan in zip(spills, plans):
            arena = SharedArenaStore.open(spill.store.directory).load(mmap_mode="r")
            ranks = []
            for r in range(plan.n_ranks):
                ids = plan.rank_global_ids(r)
                t0 = wall()
                sub, index = build_rank_index(arena, ids, settings)
                build_ms.append((wall() - t0) * 1e3)
                ranks.append((sub, index, ids))
            units.append((plan, ranks))
        m["index.rank_build_ms"] = max(build_ms)

        n_ranks = sum(len(r) for _, r in units)
        ions = [0] * n_ranks
        cands = [0] * n_ranks
        passed = 0
        filter_s = score_s = 0.0
        rows = []
        skipped = pairs = n_spectra = 0
        scratch = self.work / "replay"
        for k, batch in enumerate(pool):
            row = dict.fromkeys(BATCH_PARTS, 0.0)
            if route_plan is not None:
                t0 = wall()
                routed = route_plan.route(batch, settings)
                row["shard.route_ms"] = (wall() - t0) * 1e3
            else:
                routed = [list(range(len(batch)))]
            n_spectra += len(batch)
            slowest = (-1.0, 0.0, 0.0)
            base = 0
            for (plan, ranks), positions in zip(units, routed):
                pairs += len(positions)
                if not positions:
                    skipped += 1
                    base += len(ranks)
                    continue
                sub_batch = [batch[i] for i in positions]
                t0 = wall()
                processed = preprocess_batch(sub_batch, PreprocessConfig())
                t1 = wall()
                SharedSpectraStore.spill(processed, scratch)
                t2 = wall()
                spectra = SharedSpectraStore.open(scratch).load(mmap_mode="r")
                t3 = wall()
                row["spectra.preprocess_ms"] += (t1 - t0) * 1e3
                row["parallel.spectra_spill_ms"] += (t2 - t1) * 1e3
                row["parallel.spectra_open_ms"] += (t3 - t2) * 1e3
                payloads = []
                for r, (sub, index, ids) in enumerate(ranks):
                    t0 = wall()
                    filtered = index.filter_many(spectra, workspace=ws)
                    t1 = wall()
                    score_many(
                        spectra, [f.candidates for f in filtered],
                        fragment_tolerance=settings.fragment_tolerance,
                        fragmentation=settings.fragmentation,
                        arena=sub, workspace=ws,
                    )
                    t2 = wall()
                    out = run_rank_queries(index, sub, ids, spectra, top_k=top_k, workspace=ws)
                    t3 = wall()
                    f_s, s_s, q_s = t1 - t0, t2 - t1, t3 - t2
                    filter_s += f_s
                    score_s += s_s
                    ions[base + r] += int(out.ions_scanned.sum())
                    cands[base + r] += int(out.candidates_scored.sum())
                    passed += int(out.counts.sum())
                    if q_s > slowest[0]:
                        slowest = (q_s, f_s, s_s)
                    payloads.append(out.payload)
                del spectra
                shutil.rmtree(scratch)
                t0 = wall()
                merged, _ = merge_rank_payloads(payloads, sub_batch, plan.mapping, top_k)
                row["search.merge_ms"] += (wall() - t0) * 1e3
                base += len(ranks)
                if route_plan is None and common.fingerprint(merged) != self.checker.first.get(k):
                    self.checker.violations.append(f"pool batch {k}: replay differs from session")
            q_s, f_s, s_s = slowest
            row["index.filter_ms"] = f_s * 1e3
            row["search.score_ms"] = s_s * 1e3
            row["search.rank_rest_ms"] = (q_s - f_s - s_s) * 1e3
            rows.append(row)

        for name in BATCH_PARTS:
            m[name] = common.mean([row[name] for row in rows])
        m["service.submit_ms"] = common.mean(submit_ms)
        m["service.unattributed_ms"] = common.residual(
            m["service.submit_ms"], [m[name] for name in BATCH_PARTS]
        )
        total_ions, total_cands = sum(ions), sum(cands)
        m["index.ions_scanned"] = total_ions / len(pool)
        m["search.candidates_scored"] = total_cands / len(pool)
        m["index.filter_ns_per_ion"] = filter_s * 1e9 / total_ions if total_ions else 0.0
        m["search.score_ns_per_candidate"] = score_s * 1e9 / total_cands if total_cands else 0.0
        m["index.candidates_per_kion"] = passed * 1e3 / total_ions if total_ions else 0.0
        m["core.work_li"] = common.eq1(cands)
        m["core.ions_li"] = common.eq1(ions)
        n_units = len(units)
        m["shard.skip_ratio"] = skipped / (len(pool) * n_units) if route_plan else 0.0
        m["shard.pairs_routed_ratio"] = pairs / (n_spectra * n_units) if route_plan else 0.0


# -- helpers -----------------------------------------------------------------


class _Layers:
    """``with layers("name"):`` times a block into a metrics dict.

    With ``None`` as the target the timers are not taken at all (the
    untraced path).
    """

    def __init__(self, target: Optional[dict]) -> None:
        self.target = target

    @contextmanager
    def __call__(self, name: str):
        if self.target is None:
            yield
            return
        t0 = wall()
        try:
            yield
        finally:
            self.target[name] = self.target.get(name, 0.0) + (wall() - t0)


def finish_setup(m: Dict[str, float], total: float) -> None:
    """Record the traced set-up's whole and its unattributed residual."""
    for name in SETUP_PARTS:
        m.setdefault(name, 0.0)
    m["setup.total_s"] = total
    m["setup.unattributed_s"] = common.residual(total, [m[name] for name in SETUP_PARTS])


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0
