"""In-process backends: the loop-reference oracle and the batched fast path.

Both run per-rank tasks serially in the parent (the original
single-process execution model); they differ only in which kernel flavor
collectives pick by default.  ``LocalBackend`` is the
auditable oracle — per-rank Python loops, one payload per message — and
``BatchedBackend`` prefers the world-batched ``(world, n)`` kernels of
:mod:`repro.comm.batched` (bit-identical by the PR 5 contract, so the two
backends are interchangeable in every observable way except wall-clock).

Per-rank compute happens in the parent's address space, so there is no
cross-process protocol to observe: under the protocol sanitizer
(``REPRO_PROTOCOL_SANITIZE=1``) the in-process backends record no events.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from .base import TransportBackend


class LocalBackend(TransportBackend):
    """Loop-reference kernels, serial rank tasks."""

    name = "local"
    prefers_fast_path = False

    def __init__(self) -> None:
        super().__init__()
        self._pools: dict[int, np.ndarray] = {}

    def allocate_pool(self, rank: int, n_elements: int) -> np.ndarray:
        pool = np.empty(n_elements, dtype=np.float64)
        self._pools[rank] = pool
        self._register_pool(rank, pool)
        return pool

    def run_rank_tasks(
        self,
        fn: Callable[..., Any],
        args_by_rank: Mapping[int, tuple],
    ) -> dict[int, Any]:
        self._check_ranks(args_by_rank)
        results = {}
        for rank in sorted(args_by_rank):
            results[rank] = fn(self._pools.get(rank), *args_by_rank[rank])
        return results

    def close(self) -> None:
        self._pools.clear()
        self._pool_arrays.clear()


class BatchedBackend(LocalBackend):
    """Serial rank tasks, preferring the world-batched kernels."""

    name = "batched"
    prefers_fast_path = True
