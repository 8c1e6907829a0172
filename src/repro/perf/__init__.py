"""Performance-regression harness for the world-batched fast path.

``python -m repro perf`` times the hot collective and compression kernels
with the loop reference vs the batched fast path, runs one functional-mode
epoch per world size plus the shm epoch and pool-reduce microbenches,
writes ``BENCH.json`` (``--out``; CI suffixes it per
backend), and — with ``--check`` — gates against the committed baseline
(``benchmarks/perf/baseline.json``): a kernel whose geometric-mean
loop/fast speedup falls more than 20 % below the baseline's fails, as does
missing a hard minimum-speedup floor.
"""

from .harness import (
    CALIBRATION_REPEATS,
    MIN_SPEEDUP_FLOORS,
    REGRESSION_THRESHOLD,
    BenchRecord,
    check_against_baseline,
    run_suite,
)

__all__ = [
    "BenchRecord",
    "run_suite",
    "check_against_baseline",
    "REGRESSION_THRESHOLD",
    "MIN_SPEEDUP_FLOORS",
    "CALIBRATION_REPEATS",
]
