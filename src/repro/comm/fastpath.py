"""Kernel switch between the world-batched fast path and the loop reference.

The collectives and primitives ship two implementations with identical
observable behavior (bitwise-equal outputs, message-for-message identical
transport schedules):

* the **loop reference** — per-rank Python loops, one message payload per
  chunk, one compressor call per (member, chunk).  Easy to audit; this is
  the oracle the property tests compare against.
* the **fast path** — the world dimension batched into single ``(world, n)``
  ndarray kernels with size-stub messages (see :mod:`repro.comm.batched`).

Resolution order for each collective call:

1. an explicit per-call ``fast_path=...`` argument;
2. the :func:`use_fast_path` context manager — the conduit through which
   the engine applies ``BaguaConfig.fast_path`` for one step;
3. the transport backend's preference (``backend.prefers_fast_path``):
   ``local`` picks the loop reference, ``batched``/``shm`` the kernels.
   Without a transport the fast path is the default.

Whether dense full-precision collectives over pool-resident buckets ship
zero-copy ``PoolRef`` descriptors and reduce in place is a separate axis,
decided by the backend alone (``backend.supports_pool_ref``).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..cluster.transport import Transport

#: The kernel forced by an enclosing :func:`use_fast_path`; ``None`` defers
#: to the transport backend's preference.
_forced: bool | None = None


def resolve_fast_path(override: bool | None, transport: Transport | None = None) -> bool:
    """Resolve a per-call ``fast_path`` argument (see module doc for order)."""
    if override is not None:
        return bool(override)
    if _forced is not None:
        return _forced
    if transport is None:
        return True
    return transport.backend.prefers_fast_path


@contextmanager
def use_fast_path(enabled: bool) -> Iterator[None]:
    """Force the fast path on or off for the enclosed calls."""
    global _forced
    previous = _forced
    _forced = bool(enabled)
    try:
        yield
    finally:
        _forced = previous
