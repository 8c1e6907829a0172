"""Shared-memory multiprocess backend: one OS worker process per rank.

The data plane is a pair of ``multiprocessing.shared_memory`` ring buffers
per worker (parent→worker and worker→parent).  Every record is stamped with
a sequence number, offsets advance modulo the ring capacity (8-byte
aligned), and a record that cannot fit the ring falls back to the control
pipe inline.  The first 64 bytes of each ring are a header of u64 flag
words (see below); record data starts at ``_HEADER_BYTES``.

Steady state is one batched protocol: the parent *stages* each
round's records into the destination rings and returns the delivered
payloads immediately (decode∘encode is the identity, so the staged bytes
already determine them).  Staged rounds — and ``run_rank_tasks`` work —
accumulate into one *program* per worker.  At a flush boundary (an
explicit :meth:`flush`, a control-plane op, ring-budget pressure, or
close) the parent writes the program as one codec-encoded ring record,
publishes its offset/length in the header, and rings a single
**flag-word doorbell**: doorbell/ack traffic drops from O(rounds×ranks)
pipe messages to O(ranks) flag writes per iteration.  The worker executes
the whole program locally, echoes every record through its outbound ring,
and acks once per batch with a flag word; the parent byte-compares the
echoes against the staged originals.  Pipes are only touched for control
(``pool``/``close``) and overflow (a program or reply too large for its
ring travels as a ``batch`` pipe message — the oversize/irregular
fallback).

Header layout (u64 little-endian words):

* parent→worker ring: ``[0]`` doorbell flag (``batch_seq + 1``; 0 = idle),
  ``[8]`` program record offset, ``[16]`` program record nbytes;
* worker→parent ring: ``[0]`` ack flag (``(batch_seq + 1) << 8 | status``
  with status 1 = reply in ring, 2 = reply via pipe, 3 = error via pipe),
  ``[8]`` reply record offset, ``[16]`` reply record nbytes.

Waiters use a bounded spin then a short ``poll`` backoff on the control
pipe, so flag words and pipe messages share one wait loop.  There are no
atomics in pure Python: correctness relies on the GIL serializing each
8-byte aligned store and on x86-TSO store ordering (data published before
the flag); the program record's seq stamp is validated as a secondary
check.

Payload encodings: flat contiguous f64 arrays blit raw; everything the
:mod:`.wire` codec covers (nested tuples/lists/dicts of ndarrays, scalars,
``CompressedPayload``) uses the pickle-free binary format; only the
remainder (e.g. task functions) falls back to :mod:`pickle`.

Rank bucket pools (:meth:`allocate_pool`) are plain shared-memory segments
mapped as float64 arrays in the parent and in **every** worker (keyed by
owner rank), which enables the zero-copy **pool-ref fast path**: a payload
that is a dense f64 view into a mapped pool ships as a 25-byte
``PoolRef`` descriptor (wire tag ``0x0D``) instead of its bytes, and
:meth:`pool_ref_reduce` stages per-chunk ``reduce`` items that each owning
worker executes *in place on the shared pools, in parallel* — fold the
members' chunk slices in the caller-given order, then broadcast by writing
peers' segments directly.  Chunk element ranges are disjoint across
workers, so the executors are race-free without a barrier; the parent
posts all programs before awaiting any ack (`flush` is post-all-then-
await-all), which is what lets the per-worker reductions overlap on real
cores.  See docs/backends.md § "Pool-ref collectives".

Teardown is graceful: ``close()`` flushes pending batches, sends shutdown
doorbells, joins with a timeout, terminates stragglers, and unlinks every
segment.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import struct
import sys
import time
import traceback
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any

import numpy as np

from . import wire
from .base import BackendError, PoolRef, PoolRefChunk, ProtocolEvent, TransportBackend

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from ..transport import Message

#: Default per-direction ring capacity (bytes).
DEFAULT_RING_BYTES = 1 << 22
#: Default ack timeout (seconds) before a worker is declared wedged.
DEFAULT_TIMEOUT_S = 120.0

#: Record payload encodings.
_RAW_F64 = 0
_PICKLED = 1
_CODEC = 2

#: Per-record sequence stamp preceding the payload bytes in the ring.
_SEQ = struct.Struct("<Q")
#: Header flag words (u64, little-endian).
_U64 = struct.Struct("<Q")

#: Bytes reserved at the front of each ring for flag words.
_HEADER_BYTES = 64
_DOOR_FLAG_OFF = 0
_PROG_OFF_OFF = 8
_PROG_LEN_OFF = 16
_ACK_FLAG_OFF = 0
_REPLY_OFF_OFF = 8
_REPLY_LEN_OFF = 16

#: Ack-flag status byte.
_ACK_RING = 1
_ACK_PIPE = 2
_ACK_ERR = 3

#: Flag waiters busy-spin this many iterations before sleeping in poll().
_SPIN_LIMIT = 512
#: Poll backoff once the spin budget is exhausted.
_POLL_BACKOFF_S = 0.002

#: A batch flushes once its program reaches this many round/task items.
_MAX_BATCH_ITEMS = 128

#: A ring entry in a control message: (kind, offset, nbytes, inline_bytes).
#: ``offset`` is -1 (and ``inline_bytes`` set) when the record overflowed
#: the ring and travelled inline over the pipe instead.
_Entry = tuple[int, int, int, bytes | None]


def _encode(payload: Any) -> tuple[int, np.ndarray]:
    """Payload → (kind, uint8 buffer).

    Flat f64 arrays go raw, wire-codec shapes go pickle-free, the rest
    (task closures, exotic objects) falls back to pickle.
    """
    if (
        isinstance(payload, np.ndarray)
        and payload.dtype == np.float64
        and payload.ndim == 1
        and payload.flags.c_contiguous
    ):
        return _RAW_F64, payload.view(np.uint8)
    try:
        raw = wire.encode(payload)
        return _CODEC, np.frombuffer(raw, dtype=np.uint8)
    except wire.WireError:
        raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return _PICKLED, np.frombuffer(raw, dtype=np.uint8)


def _decode(kind: int, data: np.ndarray) -> Any:
    """Inverse of :func:`_encode`; always returns freshly owned objects."""
    if kind == _RAW_F64:
        return data.view(np.float64).copy()
    if kind == _CODEC:
        return wire.decode(memoryview(data))
    return pickle.loads(data.tobytes())


@lru_cache(maxsize=4096)
def _record_span(nbytes: int) -> int:
    """Aligned byte span of one stamped record (stamp + payload, 8-rounded)."""
    return (_SEQ.size + nbytes + 7) & ~7


class _RingWriter:
    """Sequential writer over one shared-memory ring.

    Record spans are 8-byte multiples so offsets stay aligned; a record
    that would cross the end wraps to ``base`` (the first byte past the
    flag-word header).  ``begin_round`` resets the per-batch budget: the
    records of one batch must all be resident simultaneously (the reader
    only drains at the doorbell), so placement refuses — returning
    ``None``, which makes the record travel inline — once a batch has
    consumed the capacity.
    """

    def __init__(self, buf: memoryview, capacity: int, base: int = _HEADER_BYTES) -> None:
        self.buf = buf
        self.base = base
        self.capacity = capacity - base
        self._off = base
        self._used = 0

    def begin_round(self) -> None:
        self._used = 0

    def write(self, seq: int, data: np.ndarray) -> tuple[int, int] | None:
        """Stamp + blit one record; returns (offset, nbytes) or None if full."""
        total = _record_span(len(data))
        off = self._off
        waste = 0
        if off + total > self.base + self.capacity:
            waste = self.base + self.capacity - off
            off = self.base
        if total > self.capacity or self._used + waste + total > self.capacity:
            return None
        _SEQ.pack_into(self.buf, off, seq)
        view = np.frombuffer(self.buf, dtype=np.uint8, count=len(data), offset=off + _SEQ.size)
        view[:] = data
        del view
        self._off = off + total
        self._used += waste + total
        return off, len(data)


def _write_record(writer: _RingWriter, seq: int, payload: Any) -> _Entry:
    kind, data = _encode(payload)
    placed = writer.write(seq, data)
    if placed is None:
        return (kind, -1, len(data), data.tobytes())
    off, nbytes = placed
    return (kind, off, nbytes, None)


def _read_record(buf: memoryview, seq: int, entry: _Entry) -> Any:
    kind, off, nbytes, inline = entry
    if off < 0:
        if inline is None:
            raise BackendError("ring entry has neither an offset nor inline bytes")
        return _decode(kind, np.frombuffer(inline, dtype=np.uint8))
    stamp = _SEQ.unpack_from(buf, off)[0]
    if stamp != seq:
        raise BackendError(
            f"ring record at offset {off} is stamped seq {stamp}, expected {seq}"
        )
    data = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off + _SEQ.size)
    payload = _decode(kind, data)
    del data
    return payload


def _record_bytes(buf: memoryview, entry: _Entry) -> np.ndarray:
    """Raw payload bytes of a staged/echoed entry (ring or inline)."""
    kind, off, nbytes, inline = entry
    if off < 0:
        return np.frombuffer(inline if inline is not None else b"", dtype=np.uint8)
    return np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=off + _SEQ.size)


def _close_segment(shm: shared_memory.SharedMemory, unlink: bool) -> None:
    """Best-effort close (+ optional unlink) tolerating exported views.

    Note on the resource tracker: worker processes inherit the parent's
    tracker (fork and spawn both ship its fd), and registrations live in a
    set — so a worker attaching a segment is a no-op re-registration and
    the parent's unlink below performs the single unregister.  Workers must
    never unregister themselves or the parent's unlink would KeyError in
    the tracker process.
    """
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    try:
        shm.close()
    except BufferError:
        # Long-lived pool views (engine buckets) may still reference the
        # mapping; the segment is already unlinked, so the memory goes away
        # with the last view / at process exit.  Disarm the instance so its
        # __del__ does not retry the close and print an ignored exception.
        shm.close = lambda: None  # type: ignore[method-assign]


def _worker_main(
    rank: int,
    in_name: str,
    out_name: str,
    capacity: int,
    conn: Connection,
    sanitize: bool = False,
) -> None:
    """Entry point of one rank server process.

    One wait loop serves both doorbell channels: the in-ring flag word
    (batched programs) is spun on briefly, then the worker sleeps in short
    ``conn.poll`` slices so pipe doorbells (``pool``/``close`` and the
    oversize ``batch`` fallback) wake it too.

    With ``sanitize`` on, the worker records a :class:`ProtocolEvent` for
    every protocol action and piggybacks the buffered events on each ack —
    inside the codec-encoded reply record for ring acks, attached to the
    pipe message otherwise — so the parent's sanitizer sees both sides
    without any extra channel.
    """
    in_shm = shared_memory.SharedMemory(name=in_name)
    out_shm = shared_memory.SharedMemory(name=out_name)
    in_buf = in_shm.buf
    out_buf = out_shm.buf
    writer = _RingWriter(out_buf, capacity)
    # Every rank's pool maps into every worker (keyed by owner rank) so
    # PoolRef descriptors resolve locally; ``pools[rank]`` is this worker's
    # own pool, the one rank tasks receive.
    pool_shms: dict[int, shared_memory.SharedMemory] = {}
    pools: dict[int, np.ndarray] = {}
    expected = 0
    me = f"worker:{rank}"
    events: list[ProtocolEvent] = []

    def resolve_ref(ref: PoolRef) -> np.ndarray:
        """PoolRef → local view of the mapped segment (or a hard fault)."""
        pool = pools.get(ref.rank)
        if pool is None or ref.offset < 0 or ref.offset + ref.length > pool.shape[0]:
            raise BackendError(
                f"worker {rank}: pool ref (rank {ref.rank}, offset {ref.offset}, "
                f"length {ref.length}) targets an unmapped pool segment"
            )
        return pool[ref.offset : ref.offset + ref.length]

    def run_reduce(spec: tuple) -> tuple[int, int]:
        """Execute one owned chunk of an in-place pool reduction.

        ``spec = (lo, hi, refs, order, add_zero)``: fold the members'
        ``[lo, hi)`` slices in exactly ``order``, then write the result
        into every member's slice — including peers' pool segments, which
        is the broadcast phase.  Chunk ranges are disjoint across workers,
        so concurrent chunk executors never touch the same elements.
        """
        lo, hi, refs, order, add_zero = spec
        views = [resolve_ref(ref) for ref in refs]
        acc = views[order[0]][lo:hi].copy()
        for member in order[1:]:
            acc += views[member][lo:hi]
        if add_zero:
            acc += 0.0
        for view in views:
            view[lo:hi] = acc
        return (int(lo), int(hi))

    def emit(kind: str, seq: int = -1, op: str = "", detail: tuple = ()) -> None:
        if sanitize:
            events.append(
                ProtocolEvent(proc=me, kind=kind, rank=rank, seq=seq, op=op, detail=detail)
            )

    def send(*payload: Any) -> None:
        """Ship one ack, with the buffered event batch attached in sanitize mode."""
        if sanitize:
            conn.send((*payload, tuple(events)))
            events.clear()
        else:
            conn.send(payload)

    def set_ack(seq: int, status: int) -> None:
        _U64.pack_into(out_buf, _ACK_FLAG_OFF, ((seq + 1) << 8) | status)

    def run_program(seq: int, program: Sequence[tuple[str, Any]], via_pipe: bool) -> None:
        """Execute one batched program and ack it (ring flag or pipe)."""
        writer.begin_round()
        reply_items: list[Any] = []
        n_read = 0
        for op, data in program:
            if op == "round":
                payloads = [_read_record(in_buf, seq, tuple(e)) for e in data]
                for payload in payloads:
                    if type(payload) is PoolRef:
                        resolve_ref(payload)  # descriptor must be resolvable here
                n_read += len(payloads)
                reply_items.append(tuple(_write_record(writer, seq, p) for p in payloads))
            elif op == "task":
                fn, args = _read_record(in_buf, seq, tuple(data))
                n_read += 1
                reply_items.append(_write_record(writer, seq, fn(pools.get(rank), *args)))
            elif op == "reduce":
                spec = _read_record(in_buf, seq, tuple(data))
                n_read += 1
                reply_items.append(_write_record(writer, seq, run_reduce(spec)))
            else:
                raise BackendError(f"worker {rank}: unknown program op {op!r}")
        emit("ring_read", seq=seq, detail=(n_read,))
        emit("ring_write", seq=seq, detail=(len(reply_items),))
        emit("ack_send", seq=seq, op="batch")
        if not via_pipe:
            batch_events = tuple(
                (e.kind, e.seq, e.op, e.detail) for e in events
            ) if sanitize else None
            try:
                raw = wire.encode((tuple(reply_items), batch_events))
            except wire.WireError:  # pragma: no cover - reply shapes are closed
                raw = None
            if raw is not None:
                placed = writer.write(seq, np.frombuffer(raw, dtype=np.uint8))
                if placed is not None:
                    _U64.pack_into(out_buf, _REPLY_OFF_OFF, placed[0])
                    _U64.pack_into(out_buf, _REPLY_LEN_OFF, placed[1])
                    set_ack(seq, _ACK_RING)
                    events.clear()
                    return
        # Reply too large for the ring (or the program itself arrived by
        # pipe): ack over the pipe, then publish the flag so both waiters
        # converge.
        send("ok", seq, tuple(reply_items))
        set_ack(seq, _ACK_PIPE)

    try:
        while True:
            # Wait for either doorbell channel: flag word first (hot path),
            # then the pipe with a short escalating backoff.
            request: tuple | None = None
            flag_seq = -1
            want = expected + 1
            spins = 0
            while True:
                flag = _U64.unpack_from(in_buf, _DOOR_FLAG_OFF)[0]
                if flag >= want:
                    flag_seq = flag - 1
                    break
                try:
                    ready = conn.poll(0.0 if spins < _SPIN_LIMIT else _POLL_BACKOFF_S)
                except OSError:
                    request = ("_eof",)
                    break
                if ready:
                    try:
                        request = conn.recv()
                    except EOFError:
                        request = ("_eof",)
                    break
                spins += 1
            if request is not None and request[0] == "_eof":
                break
            if request is None:
                # Flag-word doorbell: the program record's offset/length are
                # published in the header; its seq stamp is the secondary
                # check that the data was visible before the flag.
                seq = flag_seq
                emit("recv", seq=seq, op="batch")
                try:
                    if seq != expected:
                        raise BackendError(
                            f"worker {rank}: expected doorbell seq {expected}, "
                            f"got flag seq {seq}"
                        )
                    expected = seq + 1
                    prog_off = _U64.unpack_from(in_buf, _PROG_OFF_OFF)[0]
                    prog_len = _U64.unpack_from(in_buf, _PROG_LEN_OFF)[0]
                    stamp = _SEQ.unpack_from(in_buf, prog_off)[0]
                    if stamp != seq:
                        raise BackendError(
                            f"worker {rank}: program record stamped seq {stamp}, "
                            f"expected {seq}"
                        )
                    program = wire.decode(
                        in_buf[prog_off + _SEQ.size : prog_off + _SEQ.size + prog_len]
                    )
                    run_program(seq, program, via_pipe=False)
                except BaseException:
                    send("err", seq, traceback.format_exc())
                    set_ack(seq, _ACK_ERR)
                continue
            op, seq = request[0], request[1]
            emit("recv", seq=seq, op=op)
            try:
                if seq != expected:
                    raise BackendError(
                        f"worker {rank}: expected doorbell seq {expected}, got {seq}"
                    )
                expected += 1
                if op == "batch":
                    # Oversize fallback: the program (entries included)
                    # travelled over the pipe; payload records may still
                    # live in the ring.
                    run_program(seq, request[2], via_pipe=True)
                elif op == "pool":
                    owner = request[4]
                    new = shared_memory.SharedMemory(name=request[2])
                    mapped = np.frombuffer(new.buf, dtype=np.float64, count=request[3])
                    previous = pool_shms.get(owner)
                    pools[owner] = mapped
                    pool_shms[owner] = new
                    if previous is not None:
                        _close_segment(previous, unlink=False)
                    emit("pool_map", seq=seq, detail=(owner,))
                    emit("ack_send", seq=seq, op=op)
                    send("ok", seq, None)
                elif op == "close":
                    emit("exit")
                    emit("ack_send", seq=seq, op=op)
                    send("ok", seq, None)
                    break
                else:
                    raise BackendError(f"worker {rank}: unknown doorbell {op!r}")
            except BaseException:
                send("err", seq, traceback.format_exc())
    finally:
        pools.clear()
        for pool_shm in pool_shms.values():
            _close_segment(pool_shm, unlink=False)
        pool_shms.clear()
        del writer  # releases the ring view so the segment can close
        del in_buf, out_buf
        _close_segment(in_shm, unlink=False)
        _close_segment(out_shm, unlink=False)
        conn.close()


@dataclass
class _PendingBatch:
    """One un-flushed program staged into a worker's inbound ring."""

    seq: int
    program: list[tuple[str, Any]] = field(default_factory=list)
    placed_bytes: int = 0
    inline_count: int = 0


@dataclass
class _WorkerHandle:
    """Parent-side view of one rank server."""

    rank: int
    process: BaseProcess
    conn: Connection
    in_shm: shared_memory.SharedMemory
    out_shm: shared_memory.SharedMemory
    writer: _RingWriter = field(init=False)
    seq: int = 0

    def __post_init__(self) -> None:
        self.writer = _RingWriter(self.in_shm.buf, self.in_shm.size)

    def next_seq(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq


class SharedMemoryBackend(TransportBackend):
    """N rank-server processes over shared-memory rings (see module doc)."""

    name = "shm"
    prefers_fast_path = True
    supports_pool_ref = True

    def __init__(
        self,
        world_size: int,
        ring_bytes: int = DEFAULT_RING_BYTES,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        start_method: str | None = None,
        sanitize: bool | None = None,
    ) -> None:
        super().__init__()
        if sanitize is not None:
            self._protocol_sanitize = bool(sanitize)
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.ring_bytes = int(ring_bytes)
        self.timeout_s = float(timeout_s)
        if start_method is None:
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._workers: dict[int, _WorkerHandle] = {}
        self._batches: dict[int, _PendingBatch] = {}
        self._pools: dict[int, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
        self._started = False
        self._closed = False
        self._atexit_hook: Callable[[], None] | None = None
        self.shm_stats = {
            "rounds": 0,
            "payload_bytes": 0,
            "tasks": 0,
            "inline_fallbacks": 0,
            "batches": 0,
            "flag_doorbells": 0,
            "pipe_batch_fallbacks": 0,
            "pool_ref_payloads": 0,
            "reduces": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def validate_world(self, world_size: int) -> None:
        if world_size != self.world_size:
            raise ValueError(
                f"shm backend serves {self.world_size} ranks, transport has {world_size}"
            )

    def set_protocol_sanitize(self, enabled: bool) -> None:
        """Sanitize mode must be fixed before the workers spawn."""
        if self._started and bool(enabled) != self._protocol_sanitize:
            raise BackendError(
                "protocol sanitize mode must be set before the shm workers start"
            )
        self._protocol_sanitize = bool(enabled)

    def ensure_started(self) -> None:
        """Spawn the rank servers (lazy; a no-op once running)."""
        if self._started:
            return
        if self._closed:
            raise BackendError("shm backend already closed")
        self.emit_protocol_event("config", detail=(self.world_size, self.ring_bytes))
        try:
            for rank in range(self.world_size):
                in_shm = shared_memory.SharedMemory(create=True, size=self.ring_bytes)
                out_shm = shared_memory.SharedMemory(create=True, size=self.ring_bytes)
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        in_shm.name,
                        out_shm.name,
                        self.ring_bytes,
                        child_conn,
                        self._protocol_sanitize,
                    ),
                    name=f"repro-shm-w{rank}",
                    daemon=True,
                )
                # Register the handle before starting so a failed spawn is
                # still unwound by the except-branch close().
                self._workers[rank] = _WorkerHandle(rank, process, parent_conn, in_shm, out_shm)
                process.start()
                child_conn.close()
                self.emit_protocol_event("spawn", rank=rank)
            self._started = True
        except BaseException:
            self._teardown(graceful=False)
            raise
        hook = self.close
        atexit.register(hook)
        self._atexit_hook = hook
        # Re-attach pools allocated before startup.
        for rank, (pool_shm, pool) in self._pools.items():
            self._map_pool(rank, pool_shm, pool.shape[0])

    def close(self) -> None:
        """Shut down workers and release every segment.  Idempotent."""
        if self._closed:
            return
        self._teardown(graceful=True)
        self.emit_protocol_event("closed")
        self._closed = True
        if self._atexit_hook is not None:
            atexit.unregister(self._atexit_hook)
            self._atexit_hook = None

    def _teardown(self, graceful: bool) -> None:
        if graceful:
            # Drain staged batches so close doorbells never overtake a
            # flag doorbell; failures must not block teardown.
            for rank in list(self._batches):
                try:
                    self._flush_rank(rank, closing=True)
                except Exception:
                    pass
        self._batches.clear()
        for handle in self._workers.values():
            if graceful and handle.process.is_alive():
                try:
                    seq = handle.next_seq()
                    handle.conn.send(("close", seq))
                except (BrokenPipeError, OSError):
                    pass
                else:
                    self.emit_protocol_event("post", rank=handle.rank, seq=seq, op="close")
        if self._protocol_sanitize and graceful:
            # The close doorbell is normally fire-and-forget (join is the
            # close barrier), but the worker's final event batch — including
            # its exit event — rides on the close ack; drain it so the
            # sanitizer can prove unlink happened after every exit.
            for handle in self._workers.values():
                try:
                    if handle.process.is_alive() or handle.conn.poll(0):
                        if handle.conn.poll(2.0):
                            message = handle.conn.recv()
                            if len(message) > 3:
                                self.protocol_events.extend(message[3])
                            self.emit_protocol_event(
                                "ack_recv", rank=handle.rank, seq=message[1]
                            )
                except (EOFError, OSError):
                    pass
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            _close_segment(handle.in_shm, unlink=True)
            _close_segment(handle.out_shm, unlink=True)
            self.emit_protocol_event("unlink", rank=handle.rank)
        self._workers.clear()
        self._started = False
        for rank, (pool_shm, _pool) in self._pools.items():
            _close_segment(pool_shm, unlink=True)
            self.emit_protocol_event("unlink", rank=rank)
        self._pools.clear()
        self._pool_arrays.clear()

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _check_alive(self, handle: _WorkerHandle) -> None:
        if not handle.process.is_alive():
            code = handle.process.exitcode
            self.close()
            raise BackendError(
                f"shm worker {handle.rank} died (exit code {code}); backend closed"
            )

    def _await_ack(self, handle: _WorkerHandle, seq: int) -> Any:
        deadline = time.monotonic() + self.timeout_s
        while not handle.conn.poll(0.05):
            if not handle.process.is_alive():
                code = handle.process.exitcode
                self.close()
                raise BackendError(
                    f"shm worker {handle.rank} died (exit code {code}); backend closed"
                )
            if time.monotonic() > deadline:
                self.close()
                raise BackendError(
                    f"shm worker {handle.rank} did not ack seq {seq} within "
                    f"{self.timeout_s:.0f}s; backend closed"
                )
        message = handle.conn.recv()
        op, ack_seq, payload = message[0], message[1], message[2]
        if self._protocol_sanitize and len(message) > 3:
            self.protocol_events.extend(message[3])
        self.emit_protocol_event("ack_recv", rank=handle.rank, seq=ack_seq)
        if op == "err":
            raise BackendError(f"shm worker {handle.rank} failed:\n{payload}")
        if ack_seq != seq:
            self.close()
            raise BackendError(
                f"shm worker {handle.rank} acked seq {ack_seq}, expected {seq}; "
                "backend closed"
            )
        return payload

    def _post(self, handle: _WorkerHandle, op: str, *payload: Any) -> int:
        # Control-plane pipe ops must never overtake a staged batch: drain
        # the rank's pending program first so pipe and flag doorbells stay
        # strictly ordered per worker.
        self._flush_rank(handle.rank)
        seq = handle.next_seq()
        try:
            handle.conn.send((op, seq, *payload))
        except (BrokenPipeError, OSError) as exc:
            self.close()
            raise BackendError(
                f"shm worker {handle.rank} pipe is gone ({exc}); backend closed"
            ) from exc
        self.emit_protocol_event("post", rank=handle.rank, seq=seq, op=op)
        return seq

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------
    def _batch(self, handle: _WorkerHandle) -> _PendingBatch:
        """The rank's open batch, flushing first when the program is full."""
        pending = self._batches.get(handle.rank)
        if pending is not None and len(pending.program) >= _MAX_BATCH_ITEMS:
            self._flush_rank(handle.rank)
            pending = None
        if pending is None:
            pending = _PendingBatch(seq=handle.next_seq())
            handle.writer.begin_round()
            self._batches[handle.rank] = pending
        return pending

    def _try_stage(
        self,
        handle: _WorkerHandle,
        pending: _PendingBatch,
        encoded: Sequence[tuple[int, np.ndarray]],
        force_inline: bool,
    ) -> list[_Entry] | None:
        """Place one round's records; None = batch full, flush and retry."""
        entries: list[_Entry] = []
        for kind, data in encoded:
            placed = handle.writer.write(pending.seq, data)
            if placed is None:
                if not force_inline and (pending.program or entries):
                    return None
                entries.append((kind, -1, len(data), data.tobytes()))
            else:
                entries.append((kind, placed[0], placed[1], None))
        return entries

    def _stage_item(
        self,
        handle: _WorkerHandle,
        op: str,
        encoded: Sequence[tuple[int, np.ndarray]],
    ) -> tuple[_PendingBatch, list[_Entry]]:
        """Append one round/task item to the rank's open batch.

        A round whose records no longer fit the open batch flushes it and
        restages into a fresh one; a record larger than the ring itself
        travels inline in the program (the per-record fallback).
        """
        pending = self._batch(handle)
        entries = self._try_stage(handle, pending, encoded, force_inline=False)
        if entries is None:
            self._flush_rank(handle.rank)
            pending = self._batch(handle)
            entries = self._try_stage(handle, pending, encoded, force_inline=True)
            assert entries is not None
        pending.program.append((op, entries if op == "round" else entries[0]))
        for entry in entries:
            if entry[1] < 0:
                pending.inline_count += 1
            else:
                pending.placed_bytes += entry[2]
            # payload_bytes / inline_fallbacks count *round* traffic only;
            # task and reduce records are control work, not payload.
            if op == "round":
                if entry[1] < 0:
                    self.shm_stats["inline_fallbacks"] += 1
                self.shm_stats["payload_bytes"] += entry[2]
        self.emit_protocol_event(
            "stage",
            rank=handle.rank,
            seq=pending.seq,
            op=op,
            detail=(
                len(entries),
                sum(e[2] for e in entries if e[1] >= 0),
                sum(1 for e in entries if e[1] < 0),
            ),
        )
        return pending, entries

    def flush(self) -> None:
        """Drain every staged batch (the iteration boundary).

        Posts every rank's program first and ack-barriers second, so the
        per-worker executions overlap on real cores — what turns staged
        ``reduce`` items into a genuinely parallel collective instead of a
        sequence of post-and-wait round trips.
        """
        self._flush_ranks(list(self._batches))

    def _flush_ranks(
        self, ranks: Sequence[int], closing: bool = False
    ) -> dict[int, list[Any]]:
        """Post all the named ranks' programs, then await/verify each ack."""
        posted: list[tuple[_WorkerHandle, _PendingBatch]] = []
        for rank in ranks:
            post = self._post_batch(rank, closing)
            if post is not None:
                posted.append(post)
        results: dict[int, list[Any]] = {}
        for handle, pending in posted:
            results[handle.rank] = self._complete_batch(handle, pending, closing)
        return results

    def _flush_rank(self, rank: int, closing: bool = False) -> list[Any]:
        """Ship one rank's program and wait for it (post + complete fused)."""
        return self._flush_ranks((rank,), closing).get(rank, [])

    def _post_batch(
        self, rank: int, closing: bool = False
    ) -> tuple[_WorkerHandle, _PendingBatch] | None:
        """Encode and doorbell rank's staged program without awaiting it."""
        pending = self._batches.pop(rank, None)
        if pending is None or not pending.program:
            return None
        handle = self._workers[rank]
        seq = pending.seq
        program_obj = tuple(
            (op, tuple(tuple(e) for e in data) if op == "round" else tuple(data))
            for op, data in pending.program
        )
        raw = np.frombuffer(wire.encode(program_obj), dtype=np.uint8)
        placed = handle.writer.write(seq, raw)
        if placed is not None:
            in_buf = handle.in_shm.buf
            _U64.pack_into(in_buf, _PROG_OFF_OFF, placed[0])
            _U64.pack_into(in_buf, _PROG_LEN_OFF, placed[1])
            # Publish the data, then the flag: CPython executes the stores
            # in order and x86-TSO keeps them ordered for the worker; the
            # program record's seq stamp is the secondary check.
            _U64.pack_into(in_buf, _DOOR_FLAG_OFF, seq + 1)
            self.shm_stats["flag_doorbells"] += 1
        else:
            try:
                handle.conn.send(("batch", seq, program_obj))
            except (BrokenPipeError, OSError) as exc:
                if closing:
                    raise BackendError(f"shm worker {rank} pipe is gone ({exc})") from exc
                self.close()
                raise BackendError(
                    f"shm worker {rank} pipe is gone ({exc}); backend closed"
                ) from exc
            self.shm_stats["pipe_batch_fallbacks"] += 1
        self.shm_stats["batches"] += 1
        self.emit_protocol_event(
            "post",
            rank=rank,
            seq=seq,
            op="batch",
            detail=(len(pending.program), pending.placed_bytes, pending.inline_count),
        )
        return handle, pending

    def _complete_batch(
        self, handle: _WorkerHandle, pending: _PendingBatch, closing: bool = False
    ) -> list[Any]:
        """Await one posted program's ack and verify its echoes.

        Returns one result slot per program item: ``None`` for rounds
        (their payloads were already delivered at stage time), the decoded
        result for tasks and reduces.
        """
        rank = handle.rank
        seq = pending.seq
        reply_items = self._await_batch_ack(handle, seq, closing)
        if len(reply_items) != len(pending.program):
            message = (
                f"shm worker {rank} executed {len(reply_items)} program item(s) "
                f"of {len(pending.program)}"
            )
            if closing:
                raise BackendError(message)
            self.close()
            raise BackendError(message + "; backend closed")
        results: list[Any] = []
        out_buf = handle.out_shm.buf
        for (op, data), reply in zip(pending.program, reply_items):
            if op == "round":
                for staged, echo in zip(data, reply):
                    self._verify_echo(handle, seq, staged, tuple(echo), closing)
                results.append(None)
            else:
                results.append(_read_record(out_buf, seq, tuple(reply)))
        del out_buf
        return results

    def _verify_echo(
        self,
        handle: _WorkerHandle,
        seq: int,
        staged: _Entry,
        echo: _Entry,
        closing: bool,
    ) -> None:
        """Byte-compare a worker echo against the staged original.

        Pickled records are exempt: re-pickling in the worker is value- but
        not guaranteed byte-stable.  Raw and codec encodings are canonical,
        so any divergence is a real transport fault.
        """
        if staged[0] == _PICKLED:
            return
        if echo[1] >= 0:
            stamp = _SEQ.unpack_from(handle.out_shm.buf, echo[1])[0]
            if stamp != seq:
                self._echo_fail(handle, f"echo record stamped seq {stamp}", closing)
        if echo[0] != staged[0] or echo[2] != staged[2] or not np.array_equal(
            _record_bytes(handle.in_shm.buf, staged),
            _record_bytes(handle.out_shm.buf, echo),
        ):
            self._echo_fail(handle, "echoed bytes diverge from the staged record", closing)

    def _echo_fail(self, handle: _WorkerHandle, reason: str, closing: bool) -> None:
        message = f"shm worker {handle.rank} echo verification failed: {reason}"
        if closing:
            raise BackendError(message)
        self.close()
        raise BackendError(message + "; backend closed")

    def _await_batch_ack(
        self, handle: _WorkerHandle, seq: int, closing: bool
    ) -> tuple:
        """Wait on the ack flag word (or a pipe ack/err that beats it)."""

        def fail(reason: str) -> None:
            if closing:
                raise BackendError(f"shm worker {handle.rank} {reason}")
            self.close()
            raise BackendError(f"shm worker {handle.rank} {reason}; backend closed")

        out_buf = handle.out_shm.buf
        deadline = time.monotonic() + self.timeout_s
        want = seq + 1
        spins = 0
        status = 0
        message: tuple | None = None
        while True:
            flag = _U64.unpack_from(out_buf, _ACK_FLAG_OFF)[0]
            acked = flag >> 8
            if acked == want:
                status = flag & 0xFF
                break
            if acked > want:
                fail(f"acked batch seq {acked - 1}, expected {seq}")
            try:
                ready = handle.conn.poll(0.0 if spins < _SPIN_LIMIT else _POLL_BACKOFF_S)
            except OSError:
                ready = False
            if ready:
                try:
                    message = handle.conn.recv()
                except EOFError:
                    fail("pipe is gone mid-batch")
                break
            spins += 1
            if spins % 128 == 0:
                if not handle.process.is_alive():
                    fail(f"died (exit code {handle.process.exitcode})")
                if time.monotonic() > deadline:
                    fail(f"did not ack batch seq {seq} within {self.timeout_s:.0f}s")
        if message is None and status in (_ACK_PIPE, _ACK_ERR):
            # The flag landed first but the payload travels by pipe.
            if not handle.conn.poll(self.timeout_s):
                fail(f"flagged a pipe ack for seq {seq} but sent nothing")
            message = handle.conn.recv()
        if message is not None:
            op, ack_seq, payload = message[0], message[1], message[2]
            if self._protocol_sanitize and len(message) > 3:
                self.protocol_events.extend(message[3])
            self.emit_protocol_event("ack_recv", rank=handle.rank, seq=ack_seq)
            if op == "err":
                raise BackendError(f"shm worker {handle.rank} failed:\n{payload}")
            if ack_seq != seq:
                fail(f"acked seq {ack_seq}, expected {seq}")
            return payload
        # Ring ack: the reply record carries the echo entries (and, in
        # sanitize mode, the worker's buffered events).
        reply_off = _U64.unpack_from(out_buf, _REPLY_OFF_OFF)[0]
        reply_len = _U64.unpack_from(out_buf, _REPLY_LEN_OFF)[0]
        stamp = _SEQ.unpack_from(out_buf, reply_off)[0]
        if stamp != seq:
            fail(f"reply record stamped seq {stamp}, expected {seq}")
        reply_items, batch_events = wire.decode(
            out_buf[reply_off + _SEQ.size : reply_off + _SEQ.size + reply_len]
        )
        if self._protocol_sanitize and batch_events:
            me = f"worker:{handle.rank}"
            self.protocol_events.extend(
                ProtocolEvent(
                    proc=me, kind=kind, rank=handle.rank, seq=ev_seq, op=op, detail=detail
                )
                for kind, ev_seq, op, detail in batch_events
            )
        self.emit_protocol_event("ack_recv", rank=handle.rank, seq=seq)
        return reply_items

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    def _encode_payload(self, payload: Any) -> tuple[int, np.ndarray]:
        """Like :func:`_encode`, but pool-resident arrays ship as PoolRefs.

        A dense f64 view into a mapped pool segment stages as its 25-byte
        descriptor instead of its data — the receiving worker resolves the
        descriptor against its own mapping of the same segment, so zero
        payload bytes cross the ring.  Everything else keeps the codec
        path.
        """
        ref = self.pool_ref(payload)
        if ref is None:
            return _encode(payload)
        self.shm_stats["pool_ref_payloads"] += 1
        return _CODEC, np.frombuffer(wire.encode(ref), dtype=np.uint8)

    def route_round(self, messages: Sequence[Message]) -> dict[int, list[Message]]:
        """Stage the round into per-rank programs; deliver immediately.

        Decode∘encode is the identity and the worker's re-encode is
        deterministic, so the staged bytes already determine the delivered
        payloads; the cross-process echo is verified byte-wise when the
        batch flushes.  Delivery therefore hands the *sender's* message
        objects through, exactly like the in-process oracle — no
        decode-what-we-just-encoded copy per dense bucket.
        """
        self.ensure_started()
        by_dst: dict[int, list[Message]] = {}
        for message in messages:
            by_dst.setdefault(message.dst, []).append(message)
        for dst, batch in by_dst.items():
            handle = self._workers[dst]
            self._check_alive(handle)
            encoded = [self._encode_payload(message.payload) for message in batch]
            self._stage_item(handle, "round", encoded)
        self.shm_stats["rounds"] += 1
        return by_dst

    def allocate_pool(self, rank: int, n_elements: int) -> np.ndarray:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside world of {self.world_size}")
        nbytes = max(8, int(n_elements) * 8)
        pool_shm = shared_memory.SharedMemory(create=True, size=nbytes)
        pool = np.frombuffer(pool_shm.buf, dtype=np.float64, count=n_elements)
        previous = self._pools.get(rank)
        self._pools[rank] = (pool_shm, pool)
        self._register_pool(rank, pool)
        if self._started:
            self._map_pool(rank, pool_shm, n_elements)
        if previous is not None:
            _close_segment(previous[0], unlink=True)
        return pool

    def _map_pool(self, owner: int, pool_shm: shared_memory.SharedMemory, n: int) -> None:
        """Map owner's pool segment into **every** worker.

        Cross-rank mapping is what lets any worker resolve any rank's
        PoolRef descriptors — the substrate of the in-place pool-ref
        collectives.  Pool allocation is cold-path (once per training run),
        so the per-worker post+ack round trips stay serial.
        """
        for handle in self._workers.values():
            seq = self._post(handle, "pool", pool_shm.name, n, owner)
            self._await_ack(handle, seq)

    def pool_ref_reduce(
        self,
        refs: Sequence[PoolRef],
        chunks: Sequence[PoolRefChunk],
        add_zero: bool,
    ) -> None:
        """In-place reduction executed by the workers, chunk-parallel.

        Chunk ``j`` ships to the worker owning ``refs[j]``'s pool as a
        ``reduce`` program item; every involved worker folds and
        broadcasts its owned chunk concurrently with its peers — disjoint
        element ranges, so no inter-worker barrier is needed.  The parent
        posts all the work before awaiting any ack, and each worker's
        ``(lo, hi)`` reply is checked against the chunk it was assigned.

        Any round still staged for an involved worker flushes as part of
        the same program, so program order keeps rounds and the reduction
        correctly sequenced per worker.
        """
        self.ensure_started()
        if len(chunks) != len(refs):
            raise ValueError(
                f"pool_ref_reduce got {len(chunks)} chunk(s) for {len(refs)} member(s)"
            )
        spec_refs = tuple(refs)
        self.shm_stats["reduces"] += len(chunks)
        slots: list[tuple[int, int, int, int]] = []
        for (lo, hi, order), ref in zip(chunks, refs):
            handle = self._workers[ref.rank]
            self._check_alive(handle)
            spec = (int(lo), int(hi), spec_refs, tuple(order), bool(add_zero))
            pending, _entries = self._stage_item(handle, "reduce", [_encode(spec)])
            slots.append((ref.rank, len(pending.program) - 1, lo, hi))
        results = self._flush_ranks(sorted({ref.rank for ref in refs}))
        for rank, slot, lo, hi in slots:
            reply = results[rank][slot]
            if reply != (lo, hi):
                self.close()
                raise BackendError(
                    f"shm worker {rank} reduced chunk {reply}, expected "
                    f"({lo}, {hi}); backend closed"
                )

    def run_rank_tasks(
        self,
        fn: Callable[..., Any],
        args_by_rank: Mapping[int, tuple],
    ) -> dict[int, Any]:
        self.ensure_started()
        ranks = sorted(args_by_rank)
        # Tasks join the rank's open program (so an iteration's rounds and
        # its per-rank compute ship as one doorbell) and force a flush: the
        # caller needs the results synchronously.
        slots: dict[int, int] = {}
        for rank in ranks:
            handle = self._workers[rank]
            self._check_alive(handle)
            encoded = [_encode((fn, tuple(args_by_rank[rank])))]
            pending, _entries = self._stage_item(handle, "task", encoded)
            slots[rank] = len(pending.program) - 1
        self.shm_stats["tasks"] += len(ranks)
        # Post every rank's program before awaiting any ack so the tasks
        # genuinely overlap across worker processes.
        results = self._flush_ranks(ranks)
        return {rank: results[rank][slots[rank]] for rank in ranks}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        info = super().describe()
        info.update(
            world_size=self.world_size,
            started=self._started,
            start_method=self.start_method,
            ring_bytes=self.ring_bytes,
            cpu_count=os.cpu_count(),
            **self.shm_stats,
        )
        return info

    def __del__(self) -> None:
        # Interpreter shutdown tears modules down in arbitrary order: a
        # backend dropped at exit must not touch multiprocessing machinery
        # (pipes, process joins, the resource tracker) once finalization has
        # begun — the atexit hook already ran close() while it was safe.
        try:
            if sys is None or sys.is_finalizing():
                return
            self.close()
        except Exception:
            pass
