"""Shared-memory multiprocess backend: one OS worker process per rank.

Rounds are delivered in-process by the base class, exactly like the
``local`` oracle.  The workers execute only the work they consume: per-rank
tasks (:meth:`SharedMemoryBackend.run_rank_tasks`) and owned chunks of
in-place pool reductions (:meth:`SharedMemoryBackend.pool_ref_reduce`).

Every such call is synchronous.  It builds one *program* per involved
worker (the call's items for that rank), posts every program, and only then
awaits every ack, so the per-worker executions overlap on real cores.  A
program travels as one pickled, seq-stamped record at the start of the
worker's inbound ring: the parent publishes the record length in the ring
header and rings a **flag-word doorbell**.  The worker executes the
program, writes its pickled reply the same way into its outbound ring and
raises its ack flag.  Because each call awaits its acks before returning,
a ring holds at most one live record, always at the same offset.  A
program or reply too large for its ring travels over the control pipe
instead (a ``batch`` pipe message); otherwise the pipe carries only
control (``pool``/``close``).

Header layout (u64 little-endian words):

* parent→worker ring: ``[0]`` doorbell flag (``seq + 1``; 0 = idle),
  ``[8]`` program record nbytes;
* worker→parent ring: ``[0]`` ack flag (``(seq + 1) << 8 | status`` with
  status 1 = reply in ring, 2 = reply via pipe, 3 = error via pipe),
  ``[8]`` reply record nbytes.

Waiters use a bounded spin then a short ``poll`` backoff on the control
pipe, so flag words and pipe messages share one wait loop.  There are no
atomics in pure Python: correctness relies on the GIL serializing each
8-byte aligned store and on x86-TSO store ordering (data published before
the flag); the record's seq stamp is validated as a secondary check.

Rank bucket pools (:meth:`allocate_pool`) are plain shared-memory segments
mapped as float64 arrays in the parent and in **every** worker (keyed by
owner rank).  That is what lets a worker resolve any rank's
:class:`~.base.PoolRef` descriptor: :meth:`pool_ref_reduce` ships one
``reduce`` item per chunk to its owning worker, and the workers fold the
members' chunk slices in the caller-given order, then broadcast by writing
the peers' segments directly.  Chunk element ranges are disjoint across
workers, so the executors are race-free without a barrier.  See
docs/backends.md § "Pool-ref collectives".

Teardown is graceful: ``close()`` sends shutdown doorbells, joins with a
timeout, terminates stragglers, and unlinks every segment.
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
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, NoReturn

import numpy as np

from .base import BackendError, PoolRef, PoolRefChunk, ProtocolEvent, TransportBackend

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: Default per-direction ring capacity (bytes).
DEFAULT_RING_BYTES = 1 << 22
#: Default ack timeout (seconds) before a worker is declared wedged.
DEFAULT_TIMEOUT_S = 120.0

#: Header flag words (u64, little-endian); the record's seq stamp too.
_U64 = struct.Struct("<Q")

#: Header word offsets: the flag (doorbell or ack) and the record length.
_FLAG_OFF = 0
_LEN_OFF = 8
#: Bytes reserved at the front of each ring for the header; the single
#: record (seq stamp, then pickled bytes) starts here.
_HEADER_BYTES = 64

#: Ack-flag status byte.
_ACK_RING = 1
_ACK_PIPE = 2
_ACK_ERR = 3

#: Flag waiters busy-spin this many iterations before sleeping in poll().
_SPIN_LIMIT = 512
#: Poll backoff once the spin budget is exhausted.
_POLL_BACKOFF_S = 0.002


def _write_record(buf: memoryview, seq: int, raw: bytes) -> bool:
    """Stamp and blit one pickled record into ``buf``; False if it does not fit."""
    start = _HEADER_BYTES + _U64.size
    if start + len(raw) > len(buf):
        return False
    _U64.pack_into(buf, _HEADER_BYTES, seq)
    buf[start : start + len(raw)] = raw
    _U64.pack_into(buf, _LEN_OFF, len(raw))
    return True


def _read_record(buf: memoryview, seq: int) -> Any:
    """Unpickle the ring's record after checking its seq stamp."""
    stamp = _U64.unpack_from(buf, _HEADER_BYTES)[0]
    if stamp != seq:
        raise BackendError(f"ring record is stamped seq {stamp}, expected {seq}")
    start = _HEADER_BYTES + _U64.size
    with buf[start : start + _U64.unpack_from(buf, _LEN_OFF)[0]] as view:
        return pickle.loads(view)


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
    conn: Connection,
    sanitize: bool = False,
) -> None:
    """Entry point of one rank server process.

    One wait loop serves both doorbell channels: the in-ring flag word
    (programs) is spun on briefly, then the worker sleeps in short
    ``conn.poll`` slices so pipe doorbells (``pool``/``close`` and the
    oversize ``batch`` fallback) wake it too.

    With ``sanitize`` on, the worker records a :class:`ProtocolEvent` for
    every protocol action and piggybacks the buffered events on each ack —
    inside the pickled reply record for ring acks, attached to the pipe
    message otherwise — so the parent's sanitizer sees both sides without
    any extra channel.
    """
    try:  # name the process for ps/pgrep (Linux); leak checks look for it
        with open("/proc/self/comm", "w") as comm:
            comm.write(f"repro-shm-w{rank}")
    except OSError:
        pass
    in_shm = shared_memory.SharedMemory(name=in_name)
    out_shm = shared_memory.SharedMemory(name=out_name)
    in_buf = in_shm.buf
    out_buf = out_shm.buf
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
        return (lo, hi)

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
        _U64.pack_into(out_buf, _FLAG_OFF, ((seq + 1) << 8) | status)

    def run_program(seq: int, program: Sequence[tuple[str, Any]], via_pipe: bool) -> None:
        """Execute one program and ack it (ring flag or pipe)."""
        results: list[Any] = []
        for op, spec in program:
            if op == "task":
                fn, args = spec
                results.append(fn(pools.get(rank), *args))
            elif op == "reduce":
                results.append(run_reduce(spec))
            else:
                raise BackendError(f"worker {rank}: unknown program op {op!r}")
        emit("ring_read", seq=seq, detail=(len(program),))
        emit("ring_write", seq=seq, detail=(len(results),))
        emit("ack_send", seq=seq, op="batch")
        if not via_pipe:
            reply = pickle.dumps((tuple(results), tuple(events)), pickle.HIGHEST_PROTOCOL)
            if _write_record(out_buf, seq, reply):
                events.clear()
                set_ack(seq, _ACK_RING)
                return
        # Reply too large for the ring (or the program itself arrived by
        # pipe): ack over the pipe, then publish the flag so both waiters
        # converge.
        send("ok", seq, tuple(results))
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
                flag = _U64.unpack_from(in_buf, _FLAG_OFF)[0]
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
                # Flag-word doorbell: the program record's seq stamp is the
                # secondary check that its bytes were visible before the flag.
                seq = flag_seq
                emit("recv", seq=seq, op="batch")
                try:
                    if seq != expected:
                        raise BackendError(
                            f"worker {rank}: expected doorbell seq {expected}, "
                            f"got flag seq {seq}"
                        )
                    expected = seq + 1
                    run_program(seq, _read_record(in_buf, seq), via_pipe=False)
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
                    # Oversize fallback: the pickled program travelled over
                    # the pipe.
                    run_program(seq, pickle.loads(request[2]), via_pipe=True)
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
        del in_buf, out_buf
        _close_segment(in_shm, unlink=False)
        _close_segment(out_shm, unlink=False)
        conn.close()


@dataclass
class _WorkerHandle:
    """Parent-side view of one rank server."""

    rank: int
    process: BaseProcess
    conn: Connection
    in_shm: shared_memory.SharedMemory
    out_shm: shared_memory.SharedMemory
    seq: int = 0

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
        self._pools: dict[int, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
        self._started = False
        self._closed = False
        self._atexit_hook: Callable[[], None] | None = None
        self.shm_stats = {
            "tasks": 0,
            "batches": 0,
            "flag_doorbells": 0,
            "pipe_batch_fallbacks": 0,
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
                    args=(rank, in_shm.name, out_shm.name, child_conn, self._protocol_sanitize),
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
    def _fail(self, handle: _WorkerHandle, reason: str) -> NoReturn:
        """Close the backend and raise: the worker is dead, wedged or off-protocol."""
        self.close()
        raise BackendError(f"shm worker {handle.rank} {reason}; backend closed")

    def _check_alive(self, handle: _WorkerHandle) -> None:
        if not handle.process.is_alive():
            self._fail(handle, f"died (exit code {handle.process.exitcode})")

    def _receive_ack(self, handle: _WorkerHandle, seq: int, message: tuple) -> Any:
        """Validate one pipe ack (or error report) for doorbell ``seq``."""
        op, ack_seq, payload = message[0], message[1], message[2]
        if self._protocol_sanitize and len(message) > 3:
            self.protocol_events.extend(message[3])
        self.emit_protocol_event("ack_recv", rank=handle.rank, seq=ack_seq)
        if op == "err":
            raise BackendError(f"shm worker {handle.rank} failed:\n{payload}")
        if ack_seq != seq:
            self._fail(handle, f"acked seq {ack_seq}, expected {seq}")
        return payload

    def _await_ack(self, handle: _WorkerHandle, seq: int) -> Any:
        deadline = time.monotonic() + self.timeout_s
        while not handle.conn.poll(0.05):
            self._check_alive(handle)
            if time.monotonic() > deadline:
                self._fail(handle, f"did not ack seq {seq} within {self.timeout_s:.0f}s")
        return self._receive_ack(handle, seq, handle.conn.recv())

    def _post(self, handle: _WorkerHandle, op: str, *payload: Any) -> int:
        seq = handle.next_seq()
        try:
            handle.conn.send((op, seq, *payload))
        except (BrokenPipeError, OSError) as exc:
            self._fail(handle, f"pipe is gone ({exc})")
        self.emit_protocol_event("post", rank=handle.rank, seq=seq, op=op)
        return seq

    # ------------------------------------------------------------------
    # Programs: the only work that crosses into the workers
    # ------------------------------------------------------------------
    def _run_programs(self, programs: Mapping[int, list[tuple[str, Any]]]) -> dict[int, tuple]:
        """Ship each rank its program, then await every ack.

        Posting all programs before awaiting any is what lets the
        per-worker executions overlap on real cores.  Returns each rank's
        per-item results.  A worker that reports an error does not stop
        the others' acks from being drained, so the next call starts clean;
        the first such error is raised once all are in.
        """
        posted = [(rank, self._post_program(rank, items)) for rank, items in programs.items()]
        results: dict[int, tuple] = {}
        failure: BackendError | None = None
        for rank, seq in posted:
            handle = self._workers[rank]
            try:
                reply = self._await_program(handle, seq)
            except BackendError as exc:
                if self._closed:  # fatal: the backend is already torn down
                    raise
                failure = failure or exc
                continue
            if len(reply) != len(programs[rank]):
                self._fail(
                    handle,
                    f"executed {len(reply)} program item(s) of {len(programs[rank])}",
                )
            results[rank] = reply
        if failure is not None:
            raise failure
        return results

    def _post_program(self, rank: int, items: list[tuple[str, Any]]) -> int:
        """Write rank's program into its ring and ring the doorbell; returns the seq."""
        handle = self._workers[rank]
        self._check_alive(handle)
        seq = handle.next_seq()
        for op, _spec in items:
            self.emit_protocol_event("stage", rank=rank, seq=seq, op=op)
        raw = pickle.dumps(tuple(items), pickle.HIGHEST_PROTOCOL)
        in_buf = handle.in_shm.buf
        if _write_record(in_buf, seq, raw):
            # Publish the data, then the flag: CPython executes the stores
            # in order and x86-TSO keeps them ordered for the worker; the
            # record's seq stamp is the secondary check.
            _U64.pack_into(in_buf, _FLAG_OFF, seq + 1)
            self.shm_stats["flag_doorbells"] += 1
            detail = (len(items), len(raw), 0)
        else:
            try:
                handle.conn.send(("batch", seq, raw))
            except (BrokenPipeError, OSError) as exc:
                self._fail(handle, f"pipe is gone ({exc})")
            self.shm_stats["pipe_batch_fallbacks"] += 1
            detail = (len(items), 0, 1)
        self.shm_stats["batches"] += 1
        self.emit_protocol_event("post", rank=rank, seq=seq, op="batch", detail=detail)
        return seq

    def _await_program(self, handle: _WorkerHandle, seq: int) -> tuple:
        """Wait on the ack flag word (or a pipe ack/err that beats it)."""
        out_buf = handle.out_shm.buf
        deadline = time.monotonic() + self.timeout_s
        want = seq + 1
        spins = 0
        status = 0
        message: tuple | None = None
        while True:
            flag = _U64.unpack_from(out_buf, _FLAG_OFF)[0]
            acked = flag >> 8
            if acked == want:
                status = flag & 0xFF
                break
            if acked > want:
                self._fail(handle, f"acked batch seq {acked - 1}, expected {seq}")
            try:
                ready = handle.conn.poll(0.0 if spins < _SPIN_LIMIT else _POLL_BACKOFF_S)
            except OSError:
                ready = False
            if ready:
                try:
                    message = handle.conn.recv()
                except EOFError:
                    self._fail(handle, "pipe is gone mid-batch")
                break
            spins += 1
            if spins % 128 == 0:
                self._check_alive(handle)
                if time.monotonic() > deadline:
                    self._fail(handle, f"did not ack batch seq {seq} within {self.timeout_s:.0f}s")
        if message is None and status in (_ACK_PIPE, _ACK_ERR):
            # The flag landed first but the payload travels by pipe.
            if not handle.conn.poll(self.timeout_s):
                self._fail(handle, f"flagged a pipe ack for seq {seq} but sent nothing")
            message = handle.conn.recv()
        if message is not None:
            return self._receive_ack(handle, seq, message)
        # Ring ack: the reply record carries the results (and, in sanitize
        # mode, the worker's buffered events).
        try:
            results, events = _read_record(out_buf, seq)
        except BackendError as exc:
            self._fail(handle, f"reply: {exc}")
        self.protocol_events.extend(events)
        self.emit_protocol_event("ack_recv", rank=handle.rank, seq=seq)
        return results

    # ------------------------------------------------------------------
    # Backend contract
    # ------------------------------------------------------------------
    def allocate_pool(self, rank: int, n_elements: int) -> np.ndarray:
        self._check_ranks((rank,))
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
        element ranges, so no inter-worker barrier is needed.  Each
        worker's ``(lo, hi)`` reply is checked against the chunk it was
        assigned.
        """
        self.ensure_started()
        if len(chunks) != len(refs):
            raise ValueError(
                f"pool_ref_reduce got {len(chunks)} chunk(s) for {len(refs)} member(s)"
            )
        spec_refs = tuple(refs)
        programs: dict[int, list[tuple[str, Any]]] = {}
        for (lo, hi, order), ref in zip(chunks, refs):
            spec = (int(lo), int(hi), spec_refs, tuple(order), bool(add_zero))
            programs.setdefault(ref.rank, []).append(("reduce", spec))
        self.shm_stats["reduces"] += len(chunks)
        results = self._run_programs(programs)
        for rank, items in programs.items():
            assigned = [spec[:2] for _op, spec in items]
            if list(results[rank]) != assigned:
                self._fail(
                    self._workers[rank], f"reduced chunks {results[rank]}, expected {assigned}"
                )

    def run_rank_tasks(
        self,
        fn: Callable[..., Any],
        args_by_rank: Mapping[int, tuple],
    ) -> dict[int, Any]:
        self._check_ranks(args_by_rank)
        self.ensure_started()
        ranks = sorted(args_by_rank)
        self.shm_stats["tasks"] += len(ranks)
        results = self._run_programs(
            {rank: [("task", (fn, tuple(args_by_rank[rank])))] for rank in ranks}
        )
        return {rank: results[rank][0] for rank in ranks}

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
