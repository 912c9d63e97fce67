"""Tests of the benchmark's own helpers (no sessions are opened)."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from perfbench import common
from perfbench.metrics import BATCH_PARTS, END_TO_END, PER_LAYER, SETUP_PARTS
from perfbench.workloads import SPECS, finish_setup
from repro.search.metrics import load_imbalance

ROOT = Path(__file__).resolve().parent.parent


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert common.supported_percentile(n) == expected
    if expected is not None:
        assert common.samples_beyond(n, expected) >= common.MIN_BEYOND


def test_nearest_rank_counts_failures_as_infinitely_late():
    values = [float(v) for v in range(1, 101)]
    assert common.nearest_rank(values, 50) == 50.0
    assert common.nearest_rank(values, 95) == 95.0
    assert common.nearest_rank(values, 100) == 100.0
    assert common.nearest_rank(values[:94] + [math.inf] * 6, 95) == math.inf
    with pytest.raises(ValueError):
        common.nearest_rank([], 50)


# -- Eq. 1 --------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts",
    [[5], [3, 3], [0, 0, 0], [1, 2, 3, 4], [56195, 55621], [10**12, 1, 7], [0, 9]],
)
def test_eq1_over_counts_equals_library_load_imbalance(counts):
    assert common.eq1(counts) == load_imbalance(counts)


# -- the PSS reader -------------------------------------------------------------


SMAPS_ROLLUP = """\
55ca8ec8d000-7ffc15ecd000 ---p 00000000 00:00 0                          [rollup]
Rss:                1428 kB
Pss:                 268 kB
Pss_Dirty:           104 kB
Pss_Anon:            104 kB
"""


def test_parse_pss_reads_the_pss_line_not_its_breakdown():
    assert common.parse_pss_kb(SMAPS_ROLLUP) == 268
    with pytest.raises(ValueError):
        common.parse_pss_kb("Rss: 1 kB\n")


def test_read_pss_from_a_proc_tree(tmp_path):
    (tmp_path / "42").mkdir()
    (tmp_path / "42" / "smaps_rollup").write_text(SMAPS_ROLLUP)
    assert common.read_pss_mb(42, proc_root=str(tmp_path)) == 268 / 1024


@pytest.mark.skipif(
    not Path("/proc/self/smaps_rollup").exists(), reason="no smaps_rollup"
)
def test_read_pss_of_this_process():
    assert common.read_pss_mb(os.getpid()) > 1.0


# -- reconciliation -------------------------------------------------------------


def test_setup_layers_plus_residual_equal_the_whole():
    m = {"db.build_s": 0.5, "index.arena_s": 0.75, "core.plan_s": 0.25,
         "parallel.spill_s": 0.125, "parallel.open_s": 0.5}
    finish_setup(m, 2.5)
    assert set(SETUP_PARTS) <= set(m)
    assert m["db.load_s"] == 0.0
    assert m["setup.unattributed_s"] == pytest.approx(0.375)
    total = sum(m[name] for name in SETUP_PARTS) + m["setup.unattributed_s"]
    assert total == pytest.approx(m["setup.total_s"], abs=1e-12)


def test_batch_means_reconcile_to_the_mean_submit_time():
    rows = [
        dict(zip(BATCH_PARTS, [0.0, 1.0, 0.5, 0.25, 3.0, 6.0, 0.5, 0.75])),
        dict(zip(BATCH_PARTS, [0.0, 2.0, 0.5, 0.5, 5.0, 9.0, 1.0, 1.0])),
    ]
    submit = [14.0, 21.0]
    parts = [common.mean([r[name] for r in rows]) for name in BATCH_PARTS]
    rest = common.residual(common.mean(submit), parts)
    per_batch = [common.residual(s, r.values()) for s, r in zip(submit, rows)]
    assert rest == pytest.approx(common.mean(per_batch))
    assert sum(parts) + rest == pytest.approx(common.mean(submit))


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(SPECS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
