"""World-batched fast-path kernels for the collectives and primitives.

The loop implementations in :mod:`repro.comm.collectives` /
:mod:`repro.comm.scatter_reduce` model each rank as a Python-level
participant: per-rank chunk slices, one payload object per message, one
compressor call per (member, chunk).  That is the auditable reference — but
in a god's-eye simulation all ranks live in one process, so the world
dimension can be batched away: per-rank buffers become one ``(world, n)``
ndarray and every hot kernel becomes an axis-0 numpy reduction.

Everything observable is preserved **bitwise**:

* results — each kernel reproduces the loop's floating-point operation
  order (or an order proven equal: commutativity of single adds, axis
  reductions matching per-row reductions, one row-major RNG draw matching
  the sequence of per-cell draws);
* transport state — clocks, traffic stats, round counters and trace
  streams advance identically, via :meth:`Transport.exchange_sized` stub
  rounds that carry the exact byte counts and match ids of the loop's
  messages;
* compressor state — RNG streams and error-feedback residuals end in the
  same state.

The property tests in ``tests/test_fastpath_identity.py`` enforce this
contract for every collective x compressor combination.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ..compression.base import Compressor
from ..compression.error_feedback import ErrorFeedback
from .chunking import check_arrays, chunk_bounds
from .group import CommGroup

#: tuple-header bytes of the ``(index, payload)`` envelope the loop
#: collectives send: 8 for the tuple container itself plus 8 for the scalar
#: index element (``payload_nbytes`` charges both since the container fix)
_HEADER_BYTES = 16.0
#: wire bytes per element of a float64 ndarray payload
_F64_BYTES = 8.0


def _stack_f64(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Per-member 1-D arrays stacked into one ``(world, n)`` float64 matrix."""
    out = np.empty((len(arrays), arrays[0].shape[0]))
    for i, a in enumerate(arrays):
        out[i] = a
    return out


def _replicate(row: np.ndarray, n: int) -> list[np.ndarray]:
    """``n`` mutually independent copies of ``row`` (``row`` itself is one).

    One block allocation + broadcast store instead of ``n`` separate
    ``row.copy()`` calls — same bytes, far fewer allocator round trips.  The
    returned rows are disjoint views, so callers may mutate them freely.
    """
    if n == 1:
        return [row]
    out = np.empty((n - 1, row.shape[0]))
    out[:] = row
    return [*out, row]


def _merge_rows(matrix: np.ndarray) -> np.ndarray:
    """Axis-0 sum matching the loop's zeros-seeded ``acc += row`` fold.

    ``np.add.reduce`` folds rows sequentially from the first row when the
    reduction axis is strided, which is bitwise equal to the zeros-seeded
    fold except for a column whose terms are all ``-0.0`` (the loop's
    ``0.0 + -0.0`` yields ``+0.0``).  Adding ``0.0`` normalizes exactly
    that case and is exact everywhere else.

    A single-column matrix is the one layout where the reduction axis IS
    contiguous, and there numpy switches to pairwise summation (different
    bits for more than 8 rows) — that case folds explicitly.
    """
    if matrix.shape[1] == 1 and matrix.shape[0] > 1:
        acc = matrix[0].copy()
        for row in matrix[1:]:
            acc += row
        return acc + 0.0
    return np.add.reduce(matrix, axis=0) + 0.0


def decompress_compatible(a: Compressor, b: Compressor) -> bool:
    """True when ``a.decompress`` and ``b.decompress`` are interchangeable.

    The loop C_LP_S decompresses worker payloads with the *shared* codec
    while error feedback updates residuals with each member's *own* codec;
    the batched kernel uses one roundtrip for both, which is only valid when
    the two decompress functions agree.  Name equality covers parametrized
    codecs (bits / ratio are encoded in the name); ``seed`` covers the
    count-sketch hash family, the one codec whose decompress has hidden
    state beyond the name.
    """
    return a is b or (
        type(a) is type(b)
        and a.name == b.name
        and getattr(a, "seed", None) == getattr(b, "seed", None)
    )


def _ef_row_roundtrip(
    ef: ErrorFeedback,
    row: np.ndarray,
    bounds: Sequence[tuple[int, int]],
    key_tag: str,
) -> np.ndarray:
    """Error-compensated roundtrip of one member's row, chunk keys ascending.

    Mirrors the loop's per-chunk ``ErrorFeedback.compress`` sequence: add the
    stored residual, quantize, store the new residual — but with a single
    batched codec call over the row (bitwise equal because the chunk keys are
    distinct, so reads and writes cannot interleave within one member).
    """
    compensated = row.copy()
    for j, (lo, hi) in enumerate(bounds):
        compensated[lo:hi] += ef.residual((key_tag, j), hi - lo)
    roundtripped = ef.compressor.batch_roundtrip(compensated[None, :], bounds)[0]
    for j, (lo, hi) in enumerate(bounds):
        ef.store((key_tag, j), compensated[lo:hi] - roundtripped[lo:hi])
    return roundtripped


# ----------------------------------------------------------------------
# Stub message rounds (exact byte / match-id / order parity with the loop)
# ----------------------------------------------------------------------
@lru_cache(maxsize=512)
def _alltoall_sends_uniform(
    ranks: tuple[int, ...], row_bytes: tuple[float, ...]
) -> list[tuple[int, int, float, None]]:
    """Memoized alltoall send list when every member sends the same row.

    Training loops repeat the same bucket shapes every step, so the O(n^2)
    send list is a pure function of ``(ranks, row_bytes)``; the cached list
    is safe to share because ``exchange_sized`` only reads it.
    """
    n = len(ranks)
    return [
        (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + row_bytes[(i + offset) % n], None)
        for offset in range(1, n)
        for i in range(n)
    ]


@lru_cache(maxsize=512)
def _allgather_sends(
    ranks: tuple[int, ...], payload_bytes: tuple[float, ...]
) -> list[tuple[int, int, float, None]]:
    """Memoized allgather send list (see :func:`_alltoall_sends_uniform`)."""
    n = len(ranks)
    return [
        (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + payload_bytes[i], None)
        for offset in range(1, n)
        for i in range(n)
    ]


def alltoall_sizes(group: CommGroup, part_bytes: Sequence[Sequence[float]]) -> None:
    """Stub round matching :func:`repro.comm.collectives.alltoall`.

    ``part_bytes[i][j]`` is the payload size member i sends to member j; the
    staggered ``(offset, i)`` emission order and positional match ids are
    those of the loop implementation.
    """
    n = group.size
    ranks = group.ranks
    first = part_bytes[0] if part_bytes else None
    if n > 1 and all(p is first for p in part_bytes):
        # Symmetric case (callers pass ``[row_bytes] * n``): fetch the
        # memoized send list instead of rebuilding n*(n-1) tuples.
        sends = _alltoall_sends_uniform(tuple(ranks), tuple(first))
    else:
        sends = [
            (ranks[i], ranks[(i + offset) % n], _HEADER_BYTES + part_bytes[i][(i + offset) % n], None)
            for offset in range(1, n)
            for i in range(n)
        ]
    if sends:
        group.transport.exchange_sized(sends)


def allgather_sizes(group: CommGroup, payload_bytes: Sequence[float]) -> None:
    """Stub round matching :func:`repro.comm.collectives.allgather_payloads`."""
    n = group.size
    ranks = group.ranks
    if n > 1:
        sends = _allgather_sends(tuple(ranks), tuple(payload_bytes))
    else:
        sends = []
    if sends:
        group.transport.exchange_sized(sends)


# ----------------------------------------------------------------------
# ScatterReduce
# ----------------------------------------------------------------------
def scatter_reduce_batched(
    arrays: Sequence[np.ndarray],
    group: CommGroup,
    codec: Compressor | None = None,
    worker_errors: Sequence[ErrorFeedback] | None = None,
    server_errors: Sequence[ErrorFeedback] | None = None,
) -> list[np.ndarray]:
    """World-batched ScatterReduce (paper §3.3), sum semantics.

    ``codec=None`` is the exact C_FP_S path; with a codec, phase-1 chunks and
    phase-2 merged partitions travel quantized (C_LP_S), optionally with
    two-sided error feedback.  Bitwise equal to
    :func:`repro.comm.scatter_reduce.scatter_reduce` driven by the
    corresponding hooks, including transport and compressor state.
    """
    check_arrays(arrays, group)
    n = group.size
    total = arrays[0].shape[0]
    bounds = chunk_bounds(total, n)
    widths = [hi - lo for lo, hi in bounds]

    if codec is None and n > 1:
        row_bytes = [_F64_BYTES * w for w in widths]
        if group.transport.backend.supports_pool_ref:
            refs = group.transport.backend.resolve_pool_refs(arrays, group.ranks)
            if refs is not None:
                # Pool-ref fast path: every member's bucket is a dense view
                # into its own pool segment, so nothing needs to travel —
                # partition owner j folds chunk j across all segments in
                # place (rows 0..n-1, the sequential-fold order below, with
                # the same trailing ``+ 0.0``) and writes every member's
                # slice.  The stub rounds are the ones the byte-moving path
                # emits, so clocks, stats and traces are untouched by the
                # optimization.
                order = tuple(range(n))
                alltoall_sizes(group, [row_bytes] * n)
                group.transport.backend.pool_ref_reduce(
                    refs, [(lo, hi, order) for lo, hi in bounds], add_zero=True
                )
                allgather_sizes(group, row_bytes)
                return list(arrays)
        # Full-precision path: nothing is quantized, so the merged partition
        # is a plain sequential fold over the input rows and the (world, n)
        # stack never needs materializing.  ``np.add.reduce`` accumulates the
        # outer axis sequentially from row 0 (pairwise summation applies only
        # to contiguous-axis reductions), so this fold is the same operation
        # order as :func:`_merge_rows`; the trailing ``+ 0.0`` normalizes the
        # all-``-0.0`` column case exactly as there.
        alltoall_sizes(group, [row_bytes] * n)
        merged = arrays[0].astype(np.float64)
        for a in arrays[1:]:
            merged += a
        merged += 0.0
        allgather_sizes(group, row_bytes)
        return _replicate(merged, n)

    matrix = _stack_f64(arrays)

    if n == 1:
        # Single member: no messages; replay the loop's Q(Q(x)) composition.
        if codec is None:
            return [matrix[0].copy()]
        if worker_errors is None:
            once = codec.batch_roundtrip(matrix, bounds)
            return [codec.batch_roundtrip(once, bounds)[0]]
        once = _ef_row_roundtrip(worker_errors[0], matrix[0], bounds, "w")
        return [_ef_row_roundtrip(server_errors[0], once, bounds, "s")]

    # Phase 1: every member quantizes its n chunks (row-major, preserving
    # RNG order), then one all-to-all stub round.
    if worker_errors is None:
        decompressed = codec.batch_roundtrip(matrix, bounds)
        row_bytes = [codec.wire_bytes(w) for w in widths]
        part_bytes: list[Sequence[float]] = [row_bytes] * n
    else:
        decompressed = np.empty_like(matrix)
        for i in range(n):
            decompressed[i] = _ef_row_roundtrip(worker_errors[i], matrix[i], bounds, "w")
        part_bytes = [
            [worker_errors[i].compressor.wire_bytes(w) for w in widths] for i in range(n)
        ]
    alltoall_sizes(group, part_bytes)

    # Merge: partition owner j sums the n decompressed chunks of column
    # block j — one axis-0 reduction over the whole matrix.
    merged = _merge_rows(decompressed)

    # Phase 2: owner j quantizes its merged partition (j ascending ==
    # row-major over one (1, total) row), then one all-gather stub round.
    if server_errors is None:
        final = codec.batch_roundtrip(merged[None, :], bounds)[0]
        payload_bytes = [codec.wire_bytes(w) for w in widths]
    else:
        final = np.empty(total)
        for j, (lo, hi) in enumerate(bounds):
            ef = server_errors[j]
            compensated = merged[lo:hi] + ef.residual(("s", j), hi - lo)
            roundtripped = ef.compressor.batch_roundtrip(
                compensated[None, :], ((0, hi - lo),)
            )[0]
            ef.store(("s", j), compensated - roundtripped)
            final[lo:hi] = roundtripped
        payload_bytes = [
            server_errors[j].compressor.wire_bytes(w) for j, w in enumerate(widths)
        ]
    allgather_sizes(group, payload_bytes)

    return _replicate(np.ascontiguousarray(final), n)


# ----------------------------------------------------------------------
# Ring kernels
# ----------------------------------------------------------------------
def _ring_reduce_scatter_rounds(
    group: CommGroup, bounds: Sequence[tuple[int, int]]
) -> None:
    """The n-1 reduce-scatter stub rounds (shared by both data paths)."""
    n = group.size
    ranks = group.ranks
    transport = group.transport
    for r in range(n - 1):
        sends = []
        for i in range(n):
            chunk = (i - r) % n
            lo, hi = bounds[chunk]
            sends.append(
                (
                    ranks[i],
                    ranks[(i + 1) % n],
                    _HEADER_BYTES + _F64_BYTES * (hi - lo),
                    f"rs.r{r}.c{chunk}",
                )
            )
        transport.exchange_sized(sends)


def _ring_all_gather_rounds(
    group: CommGroup, bounds: Sequence[tuple[int, int]], owners: Sequence[int]
) -> None:
    """The n-1 all-gather stub rounds (shared by both data paths)."""
    n = group.size
    ranks = group.ranks
    transport = group.transport
    for r in range(n - 1):
        sends = []
        for i in range(n):
            chunk_id = owners[(i - r) % n]
            lo, hi = bounds[chunk_id]
            sends.append(
                (
                    ranks[i],
                    ranks[(i + 1) % n],
                    _HEADER_BYTES + _F64_BYTES * (hi - lo),
                    f"ag.r{r}.c{chunk_id}",
                )
            )
        transport.exchange_sized(sends)


def ring_reduce_scatter_batched(
    arrays: Sequence[np.ndarray], group: CommGroup
) -> list[np.ndarray]:
    """World-batched ring reduce-scatter; member i returns chunk ``(i+1) % n``.

    The ring's accumulation visits chunk c's rows in the order
    ``c, c+1, ..., c+n-1 (mod n)``; each step adds exactly one row, so the
    loop's ``received += own`` order equals this left fold by commutativity
    of a single IEEE add.
    """
    check_arrays(arrays, group)
    n = group.size
    total = arrays[0].shape[0]
    if n == 1:
        return [np.asarray(arrays[0], dtype=np.float64).copy()]
    bounds = chunk_bounds(total, n)
    matrix = _stack_f64(arrays)
    _ring_reduce_scatter_rounds(group, bounds)
    out = []
    for i in range(n):
        chunk = (i + 1) % n
        lo, hi = bounds[chunk]
        # Explicit sequential fold in ring order: bitwise equal to the
        # loop's per-round ``received += own`` chain (single IEEE adds are
        # commutative), and safe for width-1 chunks where an ``add.reduce``
        # over fancy-indexed rows would switch to pairwise summation.
        acc = matrix[chunk, lo:hi].copy()
        for t in range(1, n):
            acc += matrix[(chunk + t) % n, lo:hi]
        out.append(acc)
    return out


def ring_all_gather_chunks_batched(
    chunks: Sequence[np.ndarray], owners: Sequence[int], group: CommGroup, total: int
) -> list[np.ndarray]:
    """World-batched ring all-gather of per-member chunks into full arrays."""
    n = group.size
    bounds = chunk_bounds(total, n)
    full = np.zeros(total)
    for i in range(n):
        lo, hi = bounds[owners[i]]
        full[lo:hi] = chunks[i]
    _ring_all_gather_rounds(group, bounds, owners)
    return _replicate(full, n)


def ring_allreduce_batched(
    arrays: Sequence[np.ndarray], group: CommGroup
) -> list[np.ndarray]:
    """World-batched two-phase ring allreduce (sum)."""
    check_arrays(arrays, group)
    n = group.size
    if n == 1:
        return [np.asarray(arrays[0], dtype=np.float64).copy()]
    total = arrays[0].shape[0]
    owners = [(i + 1) % n for i in range(n)]
    if group.transport.backend.supports_pool_ref:
        refs = group.transport.backend.resolve_pool_refs(arrays, group.ranks)
        if refs is not None:
            # Pool-ref fast path: member i's executor reduces its ring chunk
            # ``(i+1) % n`` in place across all segments, folding rows in the
            # ring's arrival order ``c, c+1, ..., c+n-1 (mod n)`` (no ``+
            # 0.0`` — the ring fold never normalizes), then writes every
            # member's slice — the all-gather phase collapsed into the same
            # disjoint-chunk write.  Stub rounds are identical to the
            # byte-moving two-phase path below.
            bounds = chunk_bounds(total, n)
            chunks = []
            for i in range(n):
                c = owners[i]
                lo, hi = bounds[c]
                chunks.append((lo, hi, tuple((c + t) % n for t in range(n))))
            _ring_reduce_scatter_rounds(group, bounds)
            group.transport.backend.pool_ref_reduce(refs, chunks, add_zero=False)
            _ring_all_gather_rounds(group, bounds, owners)
            return list(arrays)
    reduced = ring_reduce_scatter_batched(arrays, group)
    return ring_all_gather_chunks_batched(reduced, owners, group, total)


# ----------------------------------------------------------------------
# Decentralized gossip averaging
# ----------------------------------------------------------------------
def gossip_average_batched(
    arrays: Sequence[np.ndarray],
    neighbor_sets: Sequence[Sequence[int]],
    group: CommGroup,
    codec: Compressor | None = None,
) -> list[np.ndarray]:
    """World-batched peer averaging for D_FP_S / D_LP_S.

    ``codec=None`` exchanges full-precision tensors; with a codec every
    member's tensor is roundtripped (members compress in index order even
    when idle, matching the loop's RNG consumption) and neighbors average
    the decompressed values.  Results keep each input's dtype.
    """
    n = group.size
    total = arrays[0].shape[0]
    if codec is None:
        # Gossip is communication-sparse (a handful of neighbors per member),
        # so a (world, n) stack would be pure overhead here — the fast path
        # is the stub round; accumulation reads the original input rows
        # directly (ufunc upcasting makes ``acc += arrays[src]`` bitwise
        # equal to adding the f64 cast the loop receives).
        contrib: Sequence[np.ndarray] = arrays
        payload_bytes = [_HEADER_BYTES + _F64_BYTES * total] * n
    else:
        matrix = _stack_f64(arrays)
        contrib = codec.batch_roundtrip(matrix, ((0, total),))
        payload_bytes = [_HEADER_BYTES + codec.wire_bytes(total)] * n
    ranks = group.ranks
    sends = [
        (ranks[i], ranks[j], payload_bytes[i], f"gossip.m{i}->{j}")
        for i, neigh in enumerate(neighbor_sets)
        for j in neigh
    ]
    if sends:
        group.transport.exchange_sized(sends)
    incoming: list[list[int]] = [[] for _ in range(n)]
    for j, neigh in enumerate(neighbor_sets):
        for i in neigh:
            incoming[i].append(j)
    results = []
    for i in range(n):
        sources = sorted(incoming[i])
        acc = arrays[i].astype(np.float64) if codec is None else matrix[i].copy()
        for src in sources:
            acc += contrib[src]
        results.append((acc / (1 + len(sources))).astype(arrays[i].dtype, copy=False))
    return results
