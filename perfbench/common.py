"""Measurement helpers shared by the workloads (and unit-tested).

Nothing here imports :mod:`repro`: the helpers are plain statistics,
``/proc`` readers and provenance, so the tests can exercise them
without building a database.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile (``0 < p <= 100``).

    ``inf`` entries (refused or failed requests) sort last, so a
    percentile that reaches them reads as infinitely late.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly after the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def supported_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def eq1(values: Sequence[float]) -> float:
    """Paper Eq. 1, ``LI = (max - mean) / mean``, over per-rank values.

    Works on exact counts as well as times; 0.0 when every value is 0.
    """
    if not values:
        raise ValueError("need at least one rank")
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return float((max(values) - mean) / mean)


def parse_pss_kb(text: str) -> int:
    """The ``Pss:`` field (kB) of a ``smaps_rollup`` file's text."""
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss line in smaps_rollup text")


def read_pss_mb(pid: int, proc_root: str = "/proc") -> float:
    """Proportional set size of ``pid`` in MB (2**20 bytes).

    PSS charges each shared page to its mappers in equal shares, so
    summing it over the processes that map one memmap counts that
    memmap exactly once.
    """
    path = Path(proc_root) / str(pid) / "smaps_rollup"
    return parse_pss_kb(path.read_text()) / 1024.0


def residual(total: float, parts: Iterable[float]) -> float:
    """What ``parts`` leave unexplained of ``total``.

    ``sum(parts) + residual(total, parts) == total`` up to float
    rounding: this is the explicit ``unattributed`` layer.
    """
    return total - sum(parts)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for no values)."""
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    """Median (0.0 for no values)."""
    return statistics.median(values) if values else 0.0


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0.0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def fingerprint(spectra_results) -> tuple:
    """Exact, hashable summary of per-spectrum results.

    Entry ids, scores, shared-peak counts and candidate counts: the
    quantities that must match the serial engine bit for bit.
    """
    return tuple(
        (
            r.scan_id,
            r.n_candidates,
            tuple((p.entry_id, p.score, p.shared_peaks) for p in r.psms),
        )
        for r in spectra_results
    )


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (path + bytes, sorted)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_state(root: Path) -> Dict[str, object]:
    """Commit and dirty flag when ``root`` is a git work tree."""
    if not (root / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(dirty)}


def provenance(root: Path, workload: str, seed: int) -> Dict[str, object]:
    """Everything needed to reproduce a run's numbers."""
    import numpy as np

    load1 = os.getloadavg()[0] if hasattr(os, "getloadavg") else None
    return {
        **git_state(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "loadavg_1m_at_start": load1,
        "argv": sys.argv[1:],
    }


def format_table(rows: List[tuple]) -> str:
    """Two-column ``name  value unit`` lines for the human report."""
    width = max((len(r[0]) for r in rows), default=0)
    return "\n".join(f"  {name:<{width}}  {value:.6g} {unit}" for name, value, unit in rows)
