"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk-open --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Human-readable lines
(provenance, sample counts, failed fraction, load-generator flags,
the metric table) come first; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

All files the run writes — generated inputs, the program's spill and
spectra stores — live under ``.perfbench_tmp/`` in the repository
root and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The program's temporary stores (tempfile.mkdtemp) follow TMPDIR;
    # set it before the program is imported so that the spawned
    # workers inherit it and every byte stays inside the checkout.  A
    # fixed path keeps path-dependent byte counts repeatable.
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import SPECS, Workload

    if args.workload not in SPECS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    print(f"provenance: {json.dumps(common.provenance(ROOT, spec.name, args.seed))}")
    print(f"workload {spec.name}: {spec.why}")

    work = SCRATCH / f"run-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        workload = Workload(spec, args.seed, args.seconds, work)
        print(f"inputs generated in {time.perf_counter() - t0:.2f} s")
        out = workload.run_traced() if args.trace else workload.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _stop_resource_tracker()

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": out.metrics[name], "unit": unit} for name, unit, *_ in wanted}
    for note in out.notes:
        print(note)
    failed_fraction = out.failed / out.attempted
    print(f"attempted {out.attempted} batches, failed {out.failed}")
    for violation in out.checker.violations:
        print(f"CORRECTNESS: {violation}")
    # failed_fraction is printed but kept out of the JSON metrics: it
    # reads 0 on a healthy run, and a gated metric must never be 0.
    rows = [(n, v["value"], v["unit"]) for n, v in metrics.items()]
    print(common.format_table(rows + [("failed_fraction", failed_fraction, "ratio")]))
    print(json.dumps({
        "correct": out.checker.ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that spawning workers started.

    ``multiprocessing`` launches a resource tracker with the first
    spawned process and leaves it to exit after this process does;
    stopping it here means no process of the run outlives the run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
