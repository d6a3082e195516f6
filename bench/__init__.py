"""End-to-end and per-layer benchmark of the ``nfabisim`` commands.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
