"""The repository's benchmark: seeded workloads, end-to-end metrics and a per-layer ledger.

Run it from the repository root::

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` at the root lists the workloads and every metric; the
modules here are the benchmark's own code and import the program under test
(``src/repro``) only through its public functions.
"""
