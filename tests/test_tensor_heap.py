"""The heap policy of ``repro.tensor``: a step's freed arrays are reused, not faulted back in."""

from __future__ import annotations

import ctypes
import resource

import numpy as np
import pytest

from repro.tensor import keep_freed_memory


def _has_glibc() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


glibc = pytest.mark.skipif(not _has_glibc(), reason="the policy applies to glibc malloc only")


def _step_faults(arrays: int, elements: int) -> int:
    """Minor page faults of allocating, filling and then freeing ``arrays`` arrays."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    temporaries = [np.ones(elements) for _ in range(arrays)]
    del temporaries
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@glibc
def test_policy_is_taken():
    assert keep_freed_memory() is True


@glibc
def test_repeated_step_reuses_freed_memory():
    # 24 MiB of 512 KiB arrays freed together, like one step's activations.
    # glibc's adaptive default trims that heap top (its trim threshold is
    # twice the largest array freed from an mmap, 1 MiB here) and the next
    # round faults all ~6,000 pages in again.
    for _ in range(2):
        _step_faults(48, 1 << 16)
    assert _step_faults(48, 1 << 16) < 200
