"""Real multi-process execution backend with a memmap-shared arena.

The simulated cluster (:mod:`repro.mpi`) runs ranks as threads over
virtual clocks — ideal for deterministic load-imbalance experiments,
useless for measuring the paper's actual claim: wall-clock speedup
from load-balanced parallel peptide search.  This package executes the
same rank program (:mod:`repro.search.rank`) on real OS processes:

* :mod:`repro.parallel.shared_arena` — spill a
  :class:`~repro.index.arena.FragmentArena` to a directory of raw
  ``.npy`` files and reopen it read-only with ``np.memmap`` in any
  process: N workers share **one** physical copy of the fragment data
  through the OS page cache instead of N pickled clones,
* :mod:`repro.parallel.persistent` — a
  :class:`~repro.parallel.persistent.PersistentPool` of *resident*
  spawn workers looping on a command pipe (ATTACH once, QUERY per
  batch, SHUTDOWN), with automatic respawn + re-attach on worker
  death — the one execution core under :mod:`repro.service`.  Every
  real-process search runs through it: a one-shot job is a session of
  open → one submit → close, bit-identical to the serial and
  simulated-distributed engines for every partition policy and worker
  count, with real-second phase times.  Its blocking
  ``run_batch`` splits into non-blocking
  :meth:`~repro.parallel.persistent.PersistentPool.dispatch` →
  :class:`~repro.parallel.persistent.RoundHandle` ``.collect()``
  halves, the primitive the service's pipelined session overlaps
  master-side work with,
* :mod:`repro.parallel.faults` — deterministic fault injection
  (crash / raise / hang / slow at any worker stage, once-only across
  respawns via an on-disk ledger), the substrate of the chaos suite
  that proves the supervision layer heals every fault class
  bit-identically,
* :mod:`repro.parallel.shared_spectra` — the
  :class:`~repro.parallel.shared_spectra.SharedSpectraStore` giving
  preprocessed query batches the same memmap-shared treatment, so the
  per-batch scatter payload is O(manifest), never pickled peak arrays,
* :mod:`repro.parallel.transport` — the
  :class:`~repro.parallel.transport.WorkerChannel` the pool's
  supervision speaks to each worker through, and the one function that
  spawns a local worker on a ``multiprocessing`` pipe.
"""

from repro.parallel.faults import FaultInjected, FaultPlan, FaultSpec, maybe_inject
from repro.parallel.persistent import PersistentPool, PoolBatchResult, RoundHandle
from repro.parallel.transport import WorkerChannel
from repro.parallel.shared_arena import (
    SharedArenaStore,
    SharedSpill,
    shared_spill_for,
    sweep_stale_stores,
    write_owner_marker,
)
from repro.parallel.shared_spectra import SharedSpectraStore

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "maybe_inject",
    "PersistentPool",
    "PoolBatchResult",
    "RoundHandle",
    "WorkerChannel",
    "SharedArenaStore",
    "SharedSpectraStore",
    "SharedSpill",
    "shared_spill_for",
    "sweep_stale_stores",
    "write_owner_marker",
]
