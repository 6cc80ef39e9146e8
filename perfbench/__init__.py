"""Benchmark of the rptgeo command line on seeded frame corpora.

Run it from the repository root::

    python3 perfbench/run.py --workload cli-mix --seed 0 --seconds 10 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and the baseline.
"""
