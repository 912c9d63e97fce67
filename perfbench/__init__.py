"""The repository benchmark: four serving workloads over the public API.

Run it from the repository root::

    python3 perfbench/run.py --workload bulk-open --seed 1 --seconds 24 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer map.
"""
