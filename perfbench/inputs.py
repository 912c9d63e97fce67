"""Seeded input generation: FASTA, MS2 and index-archive files.

Everything a workload feeds the program is generated here from the
run's seed and written to disk before any timing starts; the program
only ever sees the files.  The database is held near a fixed size
(:data:`TARGET_ENTRIES`) whatever the seed, and the query spectra are
drawn from several synthetic runs (:data:`N_RUNS`), so a seed changes
*which* peptides and spectra are searched more than how much work
they are.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.db.fasta import write_fasta
from repro.db.proteome import ProteomeConfig, generate_proteome
from repro.index.serialize import save_index
from repro.index.slm import SLMIndex, SLMIndexSettings
from repro.search.database import DatabaseConfig, IndexedDatabase
from repro.spectra.ms2 import write_ms2
from repro.spectra.synthetic import SyntheticRunConfig, generate_run

#: Families generated before truncation to the entry budget.
N_FAMILIES = 60
#: Index entries the FASTA is cut to (within one protein's worth).
TARGET_ENTRIES = 40_000
#: Variant cap of the FASTA build path (the CLI's ``--max-variants``).
MAX_VARIANTS = 8
#: Synthetic runs the query spectra are drawn from, in equal parts.
#: Each run ranks protein abundance afresh (Zipf), and a few top-ranked
#: proteins supply most of a run's spectra, so the search work of a
#: single run hangs on which families land on top: the open-search
#: candidate count of 3,200 spectra from one run spread by 0.14
#: (IQR / median) over ten seeds.
N_RUNS = 8


@dataclass(frozen=True)
class InputFiles:
    """Paths of one run's generated inputs."""

    fasta: Path
    ms2: Path
    archive: Optional[Path]
    n_entries: int


def database_config() -> DatabaseConfig:
    """The build settings the FASTA workloads use (CLI defaults)."""
    return DatabaseConfig(max_variants_per_peptide=MAX_VARIANTS)


def make_inputs(
    work: Path,
    seed: int,
    *,
    n_spectra: int,
    sort_by_mass: bool,
    archive: bool,
    settings: SLMIndexSettings,
) -> InputFiles:
    """Write the FASTA, MS2 (and optionally index archive) for ``seed``."""
    work.mkdir(parents=True, exist_ok=True)
    records = generate_proteome(ProteomeConfig(n_families=N_FAMILIES, seed=seed)).records
    full = IndexedDatabase.build(database_config(), records=records)
    # Deduplication keeps a sequence's first occurrence, so a prefix of
    # the records builds exactly the prefix of the full database whose
    # bases come from those records.
    per_record = np.bincount(
        [p.protein_id for p in full.base_peptides],
        weights=full.entry_counts(),
        minlength=len(records),
    )
    cut = int(np.searchsorted(np.cumsum(per_record), TARGET_ENTRIES)) + 1
    records = records[:cut]
    db = IndexedDatabase.build(database_config(), records=records)

    fasta = work / "proteome.fasta"
    write_fasta(fasta, records)

    spectra = []
    for j in range(N_RUNS):
        n = n_spectra // N_RUNS + (j < n_spectra % N_RUNS)
        run_seed = (2 * seed + 1) * N_RUNS + j  # distinct for every (seed, j)
        spectra += generate_run(db.entries, SyntheticRunConfig(n_spectra=n, seed=run_seed))
    for scan, spectrum in enumerate(spectra, start=1):
        spectrum.scan_id = scan
    if sort_by_mass:
        spectra.sort(key=lambda s: s.neutral_mass)
    ms2 = work / "run.ms2"
    write_ms2(ms2, spectra)

    archive_path = None
    if archive:
        index = SLMIndex(
            db.entries, settings, arena=db.arena_for(settings.fragmentation)
        )
        archive_path = work / "index.npz"
        save_index(archive_path, index, compress=False)
    return InputFiles(fasta=fasta, ms2=ms2, archive=archive_path, n_entries=db.n_entries)


def make_inputs_in_child(work: Path, seed: int, **kwargs) -> InputFiles:
    """:func:`make_inputs` in a spawned process.

    Generation builds and drops two databases; doing it elsewhere keeps
    that garbage out of the measuring process, whose memory the
    benchmark reports.
    """
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_child_main, args=(sender, work, seed, kwargs), name="perfbench-inputs"
    )
    child.start()
    sender.close()
    try:
        files = receiver.recv()
    except EOFError:  # the child died before sending
        files = None
    child.join()
    if child.exitcode != 0 or files is None:
        raise RuntimeError(f"input generation failed (exit code {child.exitcode})")
    return files


def _child_main(sender, work: Path, seed: int, kwargs: dict) -> None:
    sender.send(make_inputs(work, seed, **kwargs))


def chunk(spectra: List, size: int) -> List[List]:
    """Consecutive batches of ``size`` spectra (the last may be short)."""
    return [spectra[i : i + size] for i in range(0, len(spectra), size)]
