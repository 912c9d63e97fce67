"""Long-lived spawn workers looping on a command pipe.

This is the one real-process execution core: every process search —
a long-lived serving session or a one-shot open → submit → close job —
runs on a :class:`PersistentPool`.  Spawn + import + attach cost is
paid once per pool, not once per batch, because the workers stay
*resident*: each worker is spawned once, receives one
``ATTACH`` command that builds its long-lived state (for the search
service: open the memmap-shared arena store and build the rank's
partial index), then answers any number of ``QUERY`` commands against
that state until ``SHUTDOWN``.  HiCOPS keeps its parallel machinery
resident across query batches for exactly this amortization.

Supervision: one attempt loop per round
---------------------------------------
Every command round — an ATTACH, a QUERY, a re-attach inside
:meth:`PersistentPool.reconfigure` — runs through the same loop.  The
unit it supervises is an **attempt**: one channel plus the replies it
still owes the rank (an ATTACH report when it runs on a fresh worker
of a QUERY round, then the command's reply).  An attempt's deadline
re-arms when its attach report arrives, so attach and command each
get the pool's ``timeout``.  Starting an attempt either re-sends the
command to the rank's live resident worker, or spawns a fresh worker
and sends the recorded ATTACH and the command back to back — the
dispatch of a rank that died between rounds, a retry after a death,
a hedge, and a reconfigure's re-attach are all that one step.  The
loop's named transitions:

* **answered** — the attempt's worker becomes the rank's resident
  worker and every rival attempt for the rank is stopped (first
  answer wins, so a late duplicate can never double-merge);
* **failed** — the rank spends one unit of its ``max_retries``
  budget, sleeps ``backoff_s * 2**(k-1)`` and starts the next
  attempt: after a raise in a QUERY the command is re-sent to the
  live worker; after a death, a deadline kill or **any failed
  ATTACH** the worker is retired and the next attempt is a fresh one
  (a failed attach leaves no usable state behind);
* **hedge** — a second attempt, on a fresh worker, for each rank
  still outstanding ``hedge_after`` seconds into a QUERY round;
* **degrade or raise** — once a rank's budget is spent and no rival
  attempt is left, the round raises the lowest failing rank's
  :class:`WorkerError`, or returns a partial result under
  ``degraded_ok``.

Failure semantics
-----------------
The contract is "never hangs, heals fast": no failure mode may block
forever, and with ``max_retries > 0`` a round *survives* its workers —
the failing rank's payload is replayed on a respawned worker and the
round completes bit-identically to the fault-free run.  The matrix
(fault × stage → transition taken, with R = ``max_retries``):

=====================  ==================================================
fault at stage         observed behavior
=====================  ==================================================
crash before attach    the ATTACH attempt sees the death → *failed*: a
(spawn / attach)       fresh worker replays the attach — heals for
                       R >= 1, else :class:`WorkerError` with the exit
                       code.
raise during attach    error reply → *failed*: the worker is retired
                       (it holds no usable state) and a fresh worker
                       replays the attach — heals for R >= 1.
dead between rounds    the dispatch starts a fresh worker with ATTACH
                       and the command back to back (one ATTACH per
                       worker, no retry spent); an ATTACH that fails
                       there is *failed* like any other attempt, so the
                       rank heals for R >= 1 and is left dead —
                       replaying the attach next round — for R = 0.
crash mid-query        death detected via the process sentinel →
                       *failed*: after the backoff a fresh worker
                       re-attaches and re-runs **only this rank's
                       payload** — heals for R >= 1, else fails the
                       batch (the session survives either way).
crash before reply     same as crash mid-query (work computed but never
                       reported is indistinguishable from never run).
raise mid-query        error reply carrying the remote traceback; the
                       worker keeps looping (pipe stays synchronized);
                       *failed* re-sends the payload to the same worker.
hang                   the attempt's deadline expires, the stuck worker
                       is terminated (it cannot be resynchronized) and
                       the rank is *failed* as a death.
slow (straggler)       not a failure: with ``hedge_after`` set, the
                       *hedge* transition races a fresh attached worker
                       against each still-outstanding rank; *answered*
                       keeps the first reply and stops the rival.
retries exhausted      *degrade or raise*: by default the round raises
                       the lowest failing rank's :class:`WorkerError`
                       (structured with ``rank`` / ``exit_code`` /
                       ``retries``).  With ``degraded_ok=True`` a QUERY
                       round instead returns a partial
                       :class:`PoolBatchResult` whose ``failed_ranks``
                       mask names the missing ranks (their ``results``
                       entries are ``None``).
crash during a live    the re-attach is an ATTACH round over the changed
re-attach              ranks: *failed* starts a fresh worker with the
(:meth:`reconfigure`)  new payload — heals for R >= 1 even when the
                       death happens *during the replayed attach itself*
                       (the retry-of-retry path: each replay consumes
                       one more attempt from the same per-rank budget).
crash in a worker      surviving ranks are untouched; the dead new
added by a resize      slot retries exactly like a re-attach above.
                       A resize never destabilizes ranks it did not
                       touch.
=====================  ==================================================

Live reconfiguration (the rebalance actuator)
---------------------------------------------
:meth:`PersistentPool.reconfigure` is the elastic-rebalancing
primitive: **between rounds** (it refuses while a round is on the
pipe) it atomically replaces the remembered ATTACH payloads, re-sends
the ATTACH command to exactly the ranks whose payload changed (a live
worker accepts a new ATTACH — its old state is simply dropped), and
grows or shrinks the worker count: surplus ranks are shut down,
fresh ranks are spawned and attached.  Respawn replay always uses the
*new* payloads, so a worker that dies mid-reconfigure (or any time
after) heals into the new plan, never the old one.  Untouched ranks
keep their resident state — the whole point: migrating a plan that
moved 10 % of the entries re-attaches only the ranks holding that
10 %.  Note that surviving workers keep the ``size`` their entry loop
was spawned with; command callables must not depend on it (the
service's do not).

Fault injection for the chaos suite lives in
:mod:`repro.parallel.faults`; the plan reaches every worker (and every
hedge) as a spawn argument, or via the ``REPRO_FAULT_PLAN`` env var.

Channels and the sharded fleet
------------------------------
The pool speaks to its workers only through
:class:`~repro.parallel.transport.WorkerChannel` (send a command,
receive a reply, observe liveness); the attempt loop is written
against that contract, not against ``multiprocessing``.  The sharded
serving tier (:mod:`repro.service.sharding`) composes one pool per
database shard; the failure matrix above stays strictly per-pool — a
whole shard lost after retries degrades fleet *coverage* at the
sharded layer (``degraded_shards``), never this pool's contract.

Split rounds (the pipelining substrate)
---------------------------------------
:meth:`PersistentPool.run_batch` is the blocking convenience; the
primitive underneath is the **non-blocking half-pair**
:meth:`PersistentPool.dispatch` → :class:`RoundHandle` →
:meth:`RoundHandle.collect`.  ``dispatch`` scatters the command (the
workers start computing immediately) and returns; the master is free
to do other work — preprocess the next batch, merge the previous one —
until ``collect`` gathers the replies.  At most **one round may be on
the pipe at a time** (a second ``dispatch`` before ``collect`` raises
:class:`~repro.errors.PipelineError`): the pipe protocol is strict
request/response per worker, and a single in-flight round is exactly
what keeps the crash/respawn/deadline contract per round unchanged.
The round's deadline starts at ``dispatch`` time; a retry resets the
retried rank's deadline only.

The scatter pickles each **distinct payload object once**, before the
first send — when every rank receives the same task object (the
service's per-batch command), one pickle serves all workers, a
payload that cannot be pickled fails the dispatch with nothing on the
pipes, and the actual bytes written to the pipes are reported on the
result (``scatter_bytes``).

Worker reports may carry ``spans`` as ``(name, start, dur)`` offsets
from the start of the worker's command.  The master anchors them at
the round's dispatch, so the winning attempt's offsets are shifted by
the moment its command really started — a retried or hedged rank's
spans land after the failure or stall that preceded them.

Command callables must be module-level (picklable by reference).  The
attach callable runs ``fn(rank, size, payload) -> (state, report)``;
the worker keeps ``state`` and returns ``report``.  Batch callables
run ``fn(rank, size, state, payload) -> result``.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, PipelineError, ServiceError, WorkerError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.faults import FaultPlan, maybe_inject
from repro.parallel.transport import WorkerChannel, spawn_worker

__all__ = ["PersistentPool", "PoolBatchResult", "RoundHandle"]

_ATTACH = "attach"
_QUERY = "query"
_SHUTDOWN = "shutdown"


@dataclass(frozen=True, slots=True)
class PoolBatchResult:
    """Outcome of one resident-pool command round.

    Attributes
    ----------
    results:
        Per-rank return values of the command callable (``None`` at
        the positions named by ``failed_ranks`` in a degraded round).
    wall_times / cpu_times:
        Per-rank real elapsed / process-CPU seconds inside the
        callable (excludes pipe transfer).
    respawned:
        Workers that had to be respawned (and re-attached) for this
        round — before it (death between rounds) or during it (retry
        after a mid-round death).  0 in steady state.
    scatter_bytes:
        Actual command bytes written to the worker pipes for this
        round (each distinct payload object pickled once, its buffer
        reused for every rank that receives it).
    retries:
        Per-rank re-dispatches the supervision layer performed to
        finish this round (0 in steady state).
    hedged:
        Speculative straggler duplicates launched by the soft
        ``hedge_after`` deadline (0 in steady state).
    failed_ranks:
        Ranks with no result after retries exhausted — non-empty only
        in ``degraded_ok`` mode, where it is the per-rank coverage
        mask's complement.
    """

    results: List[Any]
    wall_times: List[float]
    cpu_times: List[float]
    respawned: int = 0
    scatter_bytes: int = 0
    retries: int = 0
    hedged: int = 0
    failed_ranks: Tuple[int, ...] = ()

    @property
    def n_workers(self) -> int:
        """Number of worker slots in the round (including failed ones)."""
        return len(self.results)

    @property
    def makespan(self) -> float:
        """The slowest worker's elapsed seconds."""
        return max(self.wall_times) if self.wall_times else 0.0


class _Attempt:
    """One try at getting one rank's command answered on one channel.

    The attempt owes the attach report first when it runs on a fresh
    worker of a QUERY round (``owes_attach``), then the command reply.
    ``deadline`` re-arms when the attach report arrives; ``started`` is
    the master-clock moment the command itself started — the round's
    dispatch for a rank's first attempt on its resident worker, later
    for a retry or a hedge.
    """

    __slots__ = ("rank", "channel", "hedge", "owes_attach", "deadline", "started")

    def __init__(
        self,
        rank: int,
        channel: WorkerChannel,
        hedge: bool,
        owes_attach: bool,
        started: float,
        timeout: float,
    ) -> None:
        self.rank = rank
        self.channel = channel
        self.hedge = hedge
        self.owes_attach = owes_attach
        self.started = started
        self.deadline = time.monotonic() + timeout

    def read(self, timeout: float) -> Union[None, WorkerError, Tuple[Any, float, float]]:
        """Consume whatever replies the channel holds without blocking.

        Returns ``None`` while the command reply is still owed,
        ``(result, wall, cpu)`` once it arrived, or the failure as a
        :class:`WorkerError` (a raise or an attach error reply, or a
        death — checked via the process sentinel so it never hangs).
        """
        channel = self.channel
        rank = self.rank
        while True:
            if not channel.poll():
                if channel.alive:
                    return None
                channel.join()
                if not channel.poll():
                    return _died(rank, channel)
            try:
                message = channel.recv()
            except (EOFError, OSError):
                channel.join()
                return _died(rank, channel)
            if message[0] == "error":
                _, summary, remote_tb = message
                return WorkerError(
                    f"worker {rank} raised {summary}\n"
                    f"--- remote traceback ---\n{remote_tb}",
                    rank=rank,
                )
            if not self.owes_attach:
                return message[1], message[2], message[3]
            # The attach report: the command starts now, with a full
            # deadline of its own; its reply may already be queued.
            self.owes_attach = False
            self.started = time.monotonic()
            self.deadline = self.started + timeout


def _died(rank: int, channel: WorkerChannel) -> WorkerError:
    return WorkerError(
        f"worker {rank} died mid-batch without reporting "
        f"(exit code {channel.exitcode})",
        rank=rank,
        exit_code=channel.exitcode,
    )


class RoundHandle:
    """One dispatched command round awaiting :meth:`collect`.

    Returned by :meth:`PersistentPool.dispatch` after the command was
    scattered — the workers are already computing.  ``collect`` blocks
    until every worker replied (or retries/hedges resolved it, or the
    per-rank deadlines expired) and returns the same
    :class:`PoolBatchResult` the blocking :meth:`~PersistentPool.run_batch`
    would have.  A handle is single-use: collecting twice, collecting
    a stale handle, or dispatching again while this round is still on
    the pipe raises :class:`~repro.errors.PipelineError`.

    Attributes
    ----------
    command:
        The pipe command that was scattered (attach or query).
    deadline:
        ``time.monotonic()`` instant the round (initially) must finish
        by; a retried rank gets a fresh deadline of its own.
    respawned:
        Workers respawned (and re-attached) for this round so far; at
        dispatch, the ranks that had died between rounds.
    scatter_bytes:
        Actual pickled command bytes written to the pipes.
    """

    __slots__ = (
        "_pool", "command", "deadline", "respawned", "scatter_bytes",
        "fn", "payloads", "dispatched_at", "_collected", "_aborted",
        "_buffers", "_live", "_tries", "_errors", "_results", "_walls",
        "_cpus", "_retries", "_hedged", "_hedge_at",
    )

    def __init__(
        self,
        pool: "PersistentPool",
        command: str,
        fn: Callable,
        payloads: List[Any],
        hedge_after: Optional[float],
    ) -> None:
        n = len(payloads)
        self._pool = pool
        self.command = command
        self.fn = fn
        self.payloads = payloads
        self.dispatched_at = time.monotonic()
        self.deadline = self.dispatched_at + pool.timeout
        self.respawned = 0
        self.scatter_bytes = 0
        self._collected = False
        self._aborted = False
        self._buffers: Dict[int, bytes] = {}
        self._live: List[_Attempt] = []
        self._tries = [0] * n
        # Ranks whose budget is spent, with their last error; a rank
        # whose racing hedge still answers is removed again.
        self._errors: Dict[int, WorkerError] = {}
        self._results: List[Any] = [None] * n
        self._walls = [0.0] * n
        self._cpus = [0.0] * n
        self._retries = 0
        self._hedged = 0
        self._hedge_at = (
            None if hedge_after is None else self.dispatched_at + hedge_after
        )

    @property
    def pending(self) -> bool:
        """True while the round is on the pipe (dispatched, not collected)."""
        return not self._collected and not self._aborted

    def collect(self) -> PoolBatchResult:
        """Await every worker's reply; see :class:`RoundHandle`."""
        return self._pool._collect(self)

    def _stop_live(self) -> None:
        """Terminate every attempt still on the pipe: their replies
        could otherwise be misread by a later round."""
        for attempt in self._live:
            attempt.channel.stop()
        self._live.clear()


def _persistent_worker_entry(
    conn, rank: int, size: int, fault_plan: Optional[FaultPlan] = None
) -> None:
    """Worker-side command loop: ATTACH once, QUERY forever, SHUTDOWN.

    ``fault_plan`` is the chaos harness's injection schedule (see
    :mod:`repro.parallel.faults`); ``None`` — the production case — is
    a single no-op check per command.
    """
    maybe_inject(fault_plan, rank, "spawn")
    state: Any = None
    query_ordinal = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # master is gone; daemon exit
        command = message[0]
        if command == _SHUTDOWN:
            try:
                conn.send(("ok", None, 0.0, 0.0))
            except (BrokenPipeError, OSError):
                pass
            break
        fn, payload = message[1], message[2]
        if command == _ATTACH:
            stage, batch = "attach", None
        else:
            # Batch coordinate for fault scheduling: the payload's own
            # batch_index when it carries one (the service's QueryTask
            # echoes it), else this worker's query ordinal.
            stage = "query"
            batch = getattr(payload, "batch_index", None)
            if not isinstance(batch, int) or batch < 0:
                batch = query_ordinal
            query_ordinal += 1
        try:
            maybe_inject(fault_plan, rank, stage, batch)
            t0 = time.perf_counter()
            c0 = time.process_time()
            if command == _ATTACH:
                state, result = fn(rank, size, payload)
            else:
                result = fn(rank, size, state, payload)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            # The reply stage knows the body's wall time — scale-bearing
            # slow faults stretch it multiplicatively (a chronically
            # slow host runs *everything* slower, not a fixed sleep).
            # Re-measure afterwards so the *reported* wall includes the
            # injected slowdown: the LI gauge is computed from reported
            # walls, and a skew the gauge cannot see cannot be healed.
            maybe_inject(fault_plan, rank, "reply", batch, work_s=wall)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        except BaseException as exc:  # noqa: BLE001 - reported to the master
            try:
                conn.send(
                    ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
            except BaseException:  # noqa: BLE001 - pipe itself is broken
                break
            continue  # a failing batch must not kill the session
        try:
            conn.send(("ok", result, wall, cpu))
        except BaseException as exc:  # noqa: BLE001 - e.g. unpicklable result
            try:
                conn.send(
                    (
                        "error",
                        f"{type(exc).__name__}: {exc} (while sending the result)",
                        traceback.format_exc(),
                    )
                )
            except BaseException:  # noqa: BLE001
                break
    conn.close()


def _payload_batch(payload) -> Optional[int]:
    """Batch coordinate of a round payload for trace events, if any.

    The service's :class:`~repro.parallel.worker.QueryTask` echoes its
    ``batch_index``; diagnostic payloads carry none and events simply
    omit the ``batch`` attribute.
    """
    batch = getattr(payload, "batch_index", None)
    return batch if isinstance(batch, int) and batch >= 0 else None


class PersistentPool:
    """``n_workers`` resident OS processes answering command rounds.

    Parameters
    ----------
    n_workers:
        Worker count (the rank space is ``0 .. n_workers - 1``).
    start_method:
        ``multiprocessing`` start method; ``spawn`` (default) imports a
        fresh interpreter per worker — slower to start but immune to
        inherited locks/threads, and identical across platforms.
    timeout:
        Real-seconds deadline per command (attach or batch) per
        attempt: reset by a retry, and separate for the attach and the
        command of an attempt on a fresh worker.
    max_retries:
        Per-rank re-dispatch budget per round.  0 (default) keeps the
        historical fail-fast contract; >= 1 makes a round survive
        crashes, raises, and deadline kills of its workers.
    backoff_s:
        Base of the exponential retry backoff: attempt *k* sleeps
        ``backoff_s * 2**(k-1)`` before re-dispatching.
    hedge_after:
        Soft per-round deadline in seconds; when a QUERY round is
        still incomplete this long after dispatch, every outstanding
        rank's task is speculatively duplicated on a fresh attached
        worker (at most one hedge per rank per round; first answer
        wins).  ``None`` (default) disables hedging — the idle path
        then adds no syscalls beyond the plain deadline wait.
    degraded_ok:
        When True, a QUERY round whose retries are exhausted returns a
        partial :class:`PoolBatchResult` (``failed_ranks`` mask,
        ``None`` results) instead of raising.  Attach rounds always
        fail loud.
    fault_plan:
        Chaos-testing injection schedule handed to every spawned
        worker; defaults to :meth:`FaultPlan.from_env` so a plan in
        ``REPRO_FAULT_PLAN`` reaches a whole CLI session.
    tracer:
        Observability sink (:mod:`repro.obs`): every supervision
        transition — retry, backoff, respawn, hedge launch/win/loss,
        degraded rank — emits a structured event.  The default
        :data:`~repro.obs.trace.NULL_TRACER` is a no-op; every emit
        site is guarded by ``tracer.enabled`` so the disabled path
        costs one branch.

    Use as a context manager, or call :meth:`close` explicitly; a
    dropped pool terminates its workers through a finalizer.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        start_method: str = "spawn",
        timeout: float = 600.0,
        max_retries: int = 0,
        backoff_s: float = 0.05,
        hedge_after: Optional[float] = None,
        degraded_ok: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if start_method not in mp.get_all_start_methods():
            raise ConfigurationError(
                f"start method {start_method!r} not available "
                f"(have {mp.get_all_start_methods()})"
            )
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if backoff_s < 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {backoff_s}")
        if hedge_after is not None and hedge_after <= 0:
            raise ConfigurationError(
                f"hedge_after must be > 0 or None, got {hedge_after}"
            )
        self.n_workers = n_workers
        self.start_method = start_method
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.hedge_after = hedge_after
        self.degraded_ok = degraded_ok
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._ctx = mp.get_context(start_method)
        self._tracer = tracer
        self._channels: List[Optional[WorkerChannel]] = [None] * n_workers
        self._attach: Optional[Tuple[Callable, List[Any]]] = None
        self._closed = False
        self._respawn_total = 0
        self._inflight: Optional[RoundHandle] = None
        # Serializes the scatter and gather halves of a round against
        # each other and against close(): a close() racing a collect()
        # waits for it (bounded by the round deadline) instead of
        # tearing its pipes away.  The lock is *not* held between
        # dispatch and collect — that window is what the pipelined
        # service overlaps with master-side work.
        self._round_lock = threading.Lock()
        for rank in range(n_workers):
            self._channels[rank] = self._spawn(rank)
        # Safety net: a pool dropped without close() must not leave
        # orphan processes.  The finalizer captures the channel list,
        # not self, so it cannot keep the pool alive (the list is
        # mutated in place so the finalizer always sees live slots).
        self._reaper = weakref.finalize(self, _reap_pool, self._channels)

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down; idempotent (double-close is a no-op).

        New rounds are rejected immediately.  A round whose
        :meth:`RoundHandle.collect` is executing is waited for (it ends
        by its own deadline at the latest) so its caller sees a clean
        result or :class:`WorkerError`, never torn pipes.  A round that
        was dispatched but whose collect has not started is **aborted**:
        its workers are terminated (their replies can never be drained
        once the pipes close) and a later ``collect`` raises
        :class:`~repro.errors.PipelineError` instead of hanging.
        """
        if self._closed:
            return
        self._closed = True  # reject new rounds before taking the lock
        with self._round_lock:
            if self._inflight is not None and self._inflight.pending:
                # Dispatched but nobody is collecting: kill the workers
                # so teardown cannot block on their unread replies.
                self._inflight._stop_live()
                self._inflight._aborted = True
                self._inflight = None
            self._retire(self._channels)
            self._channels[:] = [None] * len(self._channels)

    def _retire(self, channels: Sequence[Optional[WorkerChannel]]) -> None:
        """Shut workers down: SHUTDOWN to every live one, join them
        under one shared deadline, then terminate and close whatever
        is left."""
        channels = [channel for channel in channels if channel is not None]
        deadline = time.monotonic() + min(self.timeout, 10.0)
        for channel in channels:
            if channel.alive:
                try:
                    channel.send((_SHUTDOWN,))
                except (BrokenPipeError, OSError):
                    pass
        for channel in channels:
            channel.join(timeout=max(0.0, deadline - time.monotonic()))
            channel.stop()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    @property
    def respawn_total(self) -> int:
        """Workers respawned over the pool's lifetime."""
        return self._respawn_total

    def worker_pids(self) -> List[Optional[int]]:
        """Current per-rank worker PIDs (None for a dead slot)."""
        return [
            channel.pid if channel is not None else None
            for channel in self._channels
        ]

    def _spawn(self, rank: int, role: str = "resident") -> WorkerChannel:
        return spawn_worker(
            self._ctx,
            _persistent_worker_entry,
            (rank, self.n_workers, self._fault_plan),
            name=f"repro-{role}-{rank}",
        )

    # -- command rounds --------------------------------------------------

    def attach(
        self, fn: Callable[[int, int, Any], Any], payloads: Sequence[Any]
    ) -> PoolBatchResult:
        """Build per-worker resident state: ``fn(rank, size, payload)``.

        ``fn`` must return ``(state, report)``; the worker keeps
        ``state`` for subsequent :meth:`run_batch` calls and this
        method gathers the reports.  The attach round is remembered
        and **replayed automatically** whenever a dead worker is
        respawned.
        """
        self._check_open()
        if len(payloads) != self.n_workers:
            raise ConfigurationError(
                f"{len(payloads)} payloads for {self.n_workers} workers"
            )
        self._attach = (fn, list(payloads))
        return self._dispatch(_ATTACH, fn, self._attach[1]).collect()

    def reconfigure(
        self,
        fn: Callable[[int, int, Any], Any],
        payloads: Sequence[Any],
        changed: Optional[Sequence[int]] = None,
    ) -> dict:
        """Swap the pool's attach payloads (and size) between rounds.

        ``len(payloads)`` becomes the new worker count: surplus ranks
        are shut down, fresh ranks are spawned.  ``changed`` names the
        surviving ranks whose payload differs and must be re-attached
        (``None`` re-attaches every surviving rank); ranks added by
        growth always attach.  Ranks in neither set keep their
        resident state untouched.  The remembered attach is replaced
        *first*, so any respawn — including one healing a death during
        this very reconfigure — replays the new payloads.

        Refuses (:class:`~repro.errors.PipelineError`) while a round
        is on the pipe: the caller drains the in-flight round first —
        that is the pipeline-safe migration barrier.

        Returns ``{rank: (report, wall_s, cpu_s)}`` for every rank
        that was (re-)attached.  The changed and grown ranks run one
        supervised ATTACH round with the pool's standard retry budget;
        a rank that exhausts it is **left dead** (so its next respawn
        replays the new payloads) while the remaining ranks still
        re-attach — only then does the lowest failure raise as
        :class:`~repro.errors.WorkerError`.  The invariant on every
        exit path, raising or not: each changed rank either holds its
        new resident state or is dead pending a respawn into it — no
        rank is ever left alive with the old state, so the caller can
        (must) adopt the new configuration even on failure.
        """
        self._check_open()
        payloads = list(payloads)
        new_n = len(payloads)
        if new_n < 1:
            raise ConfigurationError(
                f"reconfigure needs >= 1 payloads, got {new_n}"
            )
        with self._round_lock:
            self._check_open()
            if self._inflight is not None and self._inflight.pending:
                raise PipelineError(
                    "cannot reconfigure while a round is on the pipe; "
                    "collect() the pending handle first"
                )
            old_n = self.n_workers
            if changed is None:
                ranks = set(range(min(old_n, new_n)))
            else:
                ranks = {int(r) for r in changed}
                bad = sorted(r for r in ranks if not 0 <= r < new_n)
                if bad:
                    raise ConfigurationError(
                        f"changed ranks {bad} outside the new rank "
                        f"space [0, {new_n})"
                    )
            # Shrink retires the surplus ranks; growth opens empty
            # slots the ATTACH round spawns into.  The channel list is
            # mutated in place — the leak finalizer holds the list.
            self._retire(self._channels[new_n:])
            del self._channels[new_n:]
            self._channels.extend(None for _ in range(old_n, new_n))
            self.n_workers = new_n
            self._attach = (fn, payloads)
            if new_n != old_n and self._tracer.enabled:
                self._tracer.event(
                    "pool.resize", {"n_from": old_n, "n_to": new_n}
                )
            ranks = sorted(ranks | set(range(old_n, new_n)))
            result = self._run(self._start_round(_ATTACH, fn, payloads, ranks))
            return {
                rank: (
                    result.results[rank],
                    result.wall_times[rank],
                    result.cpu_times[rank],
                )
                for rank in ranks
            }

    def run_batch(
        self, fn: Callable[[int, int, Any, Any], Any], payloads: Sequence[Any]
    ) -> PoolBatchResult:
        """One blocking batch round: ``fn(rank, size, state, payload)``
        per rank — :meth:`dispatch` and :meth:`RoundHandle.collect`
        back to back."""
        return self.dispatch(fn, payloads).collect()

    def dispatch(
        self, fn: Callable[[int, int, Any, Any], Any], payloads: Sequence[Any]
    ) -> RoundHandle:
        """Scatter one batch command and return without waiting.

        The workers start computing as soon as their pipe delivers the
        command; the caller overlaps master-side work with the round
        and gathers the replies with :meth:`RoundHandle.collect`.  At
        most one round may be on the pipe — dispatching while a
        previous handle is still pending raises
        :class:`~repro.errors.PipelineError`.
        """
        return self._dispatch(_QUERY, fn, list(payloads))

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("pool is closed; no further commands accepted")

    def _dispatch(
        self, command: str, fn: Callable, payloads: Sequence[Any]
    ) -> RoundHandle:
        self._check_open()
        if len(payloads) != self.n_workers:
            raise ConfigurationError(
                f"{len(payloads)} payloads for {self.n_workers} workers"
            )
        payloads = list(payloads)
        with self._round_lock:
            # Re-check under the lock: a concurrent close() that won
            # the lock first has already torn the pipes down.
            self._check_open()
            if self._inflight is not None and self._inflight.pending:
                raise PipelineError(
                    "a round is already on the pipe; collect() its handle "
                    "before dispatching the next one"
                )
            handle = self._start_round(
                command, fn, payloads, range(self.n_workers)
            )
            self._inflight = handle
            return handle

    def _start_round(
        self,
        command: str,
        fn: Callable,
        payloads: List[Any],
        ranks: Sequence[int],
    ) -> RoundHandle:
        """Pickle the round's payloads, then start one attempt per rank."""
        # The soft straggler deadline arms for QUERY rounds only, and
        # needs attach state to clone (a hedge must attach first).
        hedge_after = (
            self.hedge_after
            if command == _QUERY and self._attach is not None
            else None
        )
        handle = RoundHandle(self, command, fn, payloads, hedge_after)
        # Each distinct payload object is pickled once, before the first
        # send, and its buffer reused for every rank that receives it —
        # for the service's shared per-batch command that is one pickle
        # for the whole scatter, and an unpicklable payload raises here
        # with nothing on the pipes.
        pickled: Dict[int, bytes] = {}
        for rank in ranks:
            payload = payloads[rank]
            buf = pickled.get(id(payload))
            if buf is None:
                buf = bytes(ForkingPickler.dumps((command, fn, payload)))
                pickled[id(payload)] = buf
            handle._buffers[rank] = buf
            handle.scatter_bytes += len(buf)
        try:
            for rank in ranks:
                self._start(handle, rank)
        except BaseException:
            # E.g. a worker that could not be spawned: the ranks already
            # sent the command must not keep replies a later round
            # would misread as its own.
            handle._stop_live()
            raise
        return handle

    # -- the attempt loop ------------------------------------------------

    def _event(self, handle: RoundHandle, kind: str, rank: int, **attrs) -> None:
        """Emit one supervision event (call only when tracer.enabled)."""
        batch = _payload_batch(handle.payloads[rank])
        if batch is not None:
            attrs["batch"] = batch
        attrs["rank"] = rank
        self._tracer.event(kind, attrs)

    def _start(self, handle: RoundHandle, rank: int, hedge: bool = False) -> None:
        """Start one attempt at ``rank``'s command in ``handle``'s round.

        A live resident worker gets the command re-sent.  A dead or
        empty slot, or a hedge, gets a fresh worker, sent the recorded
        ATTACH (in a QUERY round) and the command back to back.  A
        fresh worker replacing a dead one counts as a respawn and is
        installed as the rank's resident at once; a hedge only when
        it answers first.
        """
        resident = self._channels[rank]
        channel = resident
        if hedge or resident is None or not resident.alive:
            channel = self._spawn(rank, "hedge" if hedge else "resident")
            if hedge:
                handle._hedged += 1
                if self._tracer.enabled:
                    self._event(handle, "hedge.launch", rank)
            else:
                self._channels[rank] = channel
                if resident is not None:
                    resident.stop()
                    self._respawn_total += 1
                    handle.respawned += 1
                    if self._tracer.enabled:
                        self._tracer.event("respawn", {"rank": rank})
        first = handle._tries[rank] == 0 and not hedge
        attempt = _Attempt(
            rank,
            channel,
            hedge,
            channel is not resident
            and handle.command == _QUERY
            and self._attach is not None,
            handle.dispatched_at if first else time.monotonic(),
            self.timeout,
        )
        try:
            if attempt.owes_attach:
                attach_fn, attach_payloads = self._attach
                channel.send((_ATTACH, attach_fn, attach_payloads[rank]))
            channel.send_bytes(handle._buffers[rank])
        except (BrokenPipeError, OSError):
            # The worker is already gone: the loop sees the death and
            # takes the failed transition.
            channel.terminate_quietly()
        handle._live.append(attempt)

    def _answered(
        self, handle: RoundHandle, attempt: _Attempt, reply: Tuple[Any, float, float]
    ) -> None:
        """First answer wins: the attempt's worker becomes the rank's
        resident worker and every rival attempt is stopped, so a late
        duplicate can never merge."""
        rank = attempt.rank
        for rival in [a for a in handle._live if a.rank == rank]:
            handle._live.remove(rival)
            if rival is attempt:
                continue
            rival.channel.stop()
            if rival.hedge and self._tracer.enabled:
                self._event(handle, "hedge.loss", rank, winner="original")
        resident = self._channels[rank]
        if attempt.channel is not resident:
            # A hedge won: it holds full attach state, so it replaces
            # the superseded original as the rank's worker.
            if resident is not None:
                resident.stop()
            self._channels[rank] = attempt.channel
            self._respawn_total += 1
            handle.respawned += 1
            if self._tracer.enabled:
                self._event(handle, "hedge.win", rank)
        result, wall, cpu = reply
        # Worker spans are offsets from the attempt's own command start;
        # the master anchors them at the round's dispatch, so shift them
        # to where this attempt really ran.
        shift = attempt.started - handle.dispatched_at
        if shift and isinstance(result, dict) and result.get("spans"):
            result["spans"] = tuple(
                (name, rel + shift, dur) for name, rel, dur in result["spans"]
            )
        handle._results[rank] = result
        handle._walls[rank] = wall
        handle._cpus[rank] = cpu
        handle._errors.pop(rank, None)

    def _failed(
        self, handle: RoundHandle, attempt: _Attempt, exc: WorkerError
    ) -> None:
        """A failed hedge is dropped.  A failed primary attempt spends
        one unit of the rank's budget and starts the next attempt after
        the backoff — re-sending to the live worker after a raise in a
        QUERY, on a fresh worker otherwise — or, budget spent, records
        the rank's error (which a still-racing hedge can yet undo)."""
        handle._live.remove(attempt)
        rank = attempt.rank
        if attempt.hedge:
            attempt.channel.stop()
            if self._tracer.enabled:
                self._event(handle, "hedge.loss", rank, winner="none")
            return
        if attempt.owes_attach or handle.command == _ATTACH:
            # A failed attach leaves the worker without usable state (or
            # with the old one): leave the rank dead so its next
            # attempt replays the attach.
            attempt.channel.terminate_quietly()
        dead = not attempt.channel.alive
        handle._tries[rank] += 1
        tries = handle._tries[rank]
        if tries > self.max_retries:
            exc.rank = rank
            exc.retries = tries - 1
            handle._errors[rank] = exc
            return
        handle._retries += 1
        delay = self.backoff_s * (2 ** (tries - 1))
        if self._tracer.enabled:
            self._event(
                handle, "retry", rank,
                attempt=tries, command=handle.command, dead=dead,
            )
            self._event(handle, "backoff", rank, delay_s=delay)
        if delay > 0:
            time.sleep(delay)
        self._start(handle, rank)

    def _run(self, handle: RoundHandle) -> PoolBatchResult:
        """Drive the round's attempts until each rank answered or spent
        its budget, then finish it one way: full result, degraded
        partial result, or the lowest failing rank's error."""
        live = handle._live
        try:
            while live:
                now = time.monotonic()
                # Hard per-attempt deadlines: a stuck worker cannot be
                # resynchronized — kill it, then fail it as a death.
                for attempt in sorted(live, key=_attempt_order):
                    if now >= attempt.deadline:
                        attempt.channel.terminate_quietly()
                        self._failed(handle, attempt, WorkerError(
                            f"worker {attempt.rank} exceeded the resident "
                            f"round deadline ({self.timeout:.0f}s) and was "
                            f"terminated",
                            rank=attempt.rank,
                        ))
                # Soft straggler deadline: one hedge per still-outstanding
                # rank, once per round.
                if handle._hedge_at is not None and now >= handle._hedge_at:
                    handle._hedge_at = None
                    for rank in sorted({attempt.rank for attempt in live}):
                        self._start(handle, rank, hedge=True)
                if not live:
                    break
                wakeups = [attempt.deadline for attempt in live]
                if handle._hedge_at is not None:
                    wakeups.append(handle._hedge_at)
                connection.wait(
                    [w for attempt in live for w in attempt.channel.wait_objects()],
                    timeout=max(0.0, min(wakeups) - time.monotonic()),
                )
                for attempt in sorted(live, key=_attempt_order):
                    if attempt not in live:
                        continue  # a rival answered first in this pass
                    reply = attempt.read(self.timeout)
                    if isinstance(reply, WorkerError):
                        self._failed(handle, attempt, reply)
                    elif reply is not None:
                        self._answered(handle, attempt, reply)
        finally:
            # No attempt outlives its round, whatever path exits it.
            handle._stop_live()
        failures = handle._errors
        result = PoolBatchResult(
            results=handle._results,
            wall_times=handle._walls,
            cpu_times=handle._cpus,
            respawned=handle.respawned,
            scatter_bytes=handle.scatter_bytes,
            retries=handle._retries,
            hedged=handle._hedged,
            failed_ranks=tuple(sorted(failures)),
        )
        if failures and not (self.degraded_ok and handle.command == _QUERY):
            # Healthy workers have been drained, so the pipes stay in
            # request/response sync; dead ones respawn next round.  The
            # lowest failing rank is surfaced deterministically, not
            # whichever reply happened to arrive first.
            raise failures[min(failures)]
        if self._tracer.enabled:
            for rank in result.failed_ranks:
                self._event(
                    handle, "degraded.rank", rank, retries=failures[rank].retries
                )
        return result

    def _collect(self, handle: RoundHandle) -> PoolBatchResult:
        with self._round_lock:
            if handle._collected:
                raise PipelineError("this round was already collected")
            if handle._aborted:
                raise PipelineError(
                    "the pool was closed while this round was on the pipe; "
                    "its workers were terminated and the replies are gone"
                )
            if self._inflight is not handle:
                raise PipelineError(
                    "stale round handle: a newer round has been dispatched"
                )
            try:
                return self._run(handle)
            finally:
                # Success or WorkerError, the round is off the pipe:
                # healthy workers were drained, dead ones respawn on
                # the next dispatch.
                handle._collected = True
                self._inflight = None


def _attempt_order(attempt: _Attempt) -> Tuple[int, bool]:
    """Rank order, a rank's primary attempt before its hedge — so the
    original wins a tie with its hedge."""
    return attempt.rank, attempt.hedge


def _reap_pool(channels) -> None:
    """Finalizer body: terminate whatever is still running."""
    for channel in channels:
        if channel is not None:
            channel.stop()
