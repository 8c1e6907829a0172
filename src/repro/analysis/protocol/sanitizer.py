"""Cross-process conformance sanitizer: replay observed protocol events.

With ``REPRO_PROTOCOL_SANITIZE=1`` (or ``BaguaConfig.protocol_sanitize``)
every transport backend records a :class:`~repro.cluster.backends.base.ProtocolEvent`
stream from each participating OS process — the parent emits directly,
workers piggyback their buffered events on the acks they already send.
:func:`check_events` replays that stream against the protocol model's
invariants and returns a located :class:`~repro.analysis.report.Finding`
per divergence (empty = the execution conformed).

The replay extends **vector clocks across OS processes**: each process's
events are totally ordered by program order, and the two pipe directions
induce the cross-process join edges —

* ``post(rank, seq)``  →  ``recv(rank, seq)``   (doorbell delivery), and
* ``ack_send(rank, seq)``  →  ``ack_recv(rank, seq)``   (ack delivery).

Events reach the parent's buffer in an order consistent with those edges
(a worker's events ride the ack that follows them), so a single pass can
assign every event a clock and then check the happens-before rules —
``unlink`` after the worker's ``exit``, no doorbell posted to an exited
worker — exactly as the model checker does, but against a real execution.

Programs add two shapes on top: ``stage`` events record the task/reduce
items of a per-worker program, and a ``post`` with op ``batch`` is the
program's single doorbell (a flag word, or the pipe for an oversize
program) — it participates in the same post → recv → ack exchange, with
every worker-side event stamped with the batch seq.  The sanitizer checks
additionally that every staged ``(rank, seq)`` is covered by its ``batch``
post: items staged but never posted are a barrier bug.

Matching rules (per doorbell exchange) are checked exclusively and each
rank short-circuits after its first finding, so a single seeded bug yields
a single root-cause finding.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..report import Finding
from .model import (
    RULE_BARRIER,
    RULE_BUDGET,
    RULE_CONFORMANCE,
    RULE_DELIVERY,
    RULE_LIFECYCLE,
    RULE_LOST_WAKEUP,
    RULE_ORPHAN,
    RULE_SEQ,
    _finding,
)

if TYPE_CHECKING:
    from ...cluster.backends.base import ProtocolEvent

VectorClock = dict[str, int]


def vc_leq(a: VectorClock, b: VectorClock) -> bool:
    """True iff ``a`` happens-before-or-equals ``b`` componentwise."""
    return all(v <= b.get(proc, 0) for proc, v in a.items())


def _witness(*events: ProtocolEvent) -> tuple[str, ...]:
    return tuple(f"observed: {ev.describe()}" for ev in events)


def _worker_rank(proc: str) -> int | None:
    if proc.startswith("worker:"):
        try:
            return int(proc.split(":", 1)[1])
        except ValueError:
            return None
    return None


class _Replay:
    """Single-pass replay state: clocks, exchange matching, lifecycles."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        #: ranks that already produced a finding (short-circuited).
        self.bad: set[int] = set()
        self.clocks: dict[str, VectorClock] = {}
        self.event_clock: dict[int, VectorClock] = {}
        #: (rank, seq) -> {"post": ev, "recv": ev, "ack_send": ev, "ack_recv": ev}
        self.exchanges: dict[tuple[int, int], dict[str, ProtocolEvent]] = {}
        #: posting order, for deterministic reporting.
        self.post_order: list[tuple[int, int]] = []
        self.capacity: int | None = None
        self.world: int | None = None
        self.spawned: set[int] = set()
        self.exits: dict[int, int] = {}  # rank -> event index of worker exit
        self.last_recv_seq: dict[str, int] = {}
        #: program items staged for a rank, awaiting their "batch" post.
        self.staged: list[ProtocolEvent] = []
        self.events: list[ProtocolEvent] = []

    # -- clock assignment ---------------------------------------------
    def _tick(self, index: int, ev: ProtocolEvent) -> None:
        clock = self.clocks.setdefault(ev.proc, {})
        clock[ev.proc] = clock.get(ev.proc, 0) + 1
        join: ProtocolEvent | None = None
        key = (ev.rank, ev.seq)
        if ev.kind == "recv":
            join = self.exchanges.get(key, {}).get("post")
        elif ev.kind == "ack_recv":
            join = self.exchanges.get(key, {}).get("ack_send")
        if join is not None:
            other = self.event_clock[id(join)]
            for proc, value in other.items():
                if clock.get(proc, 0) < value:
                    clock[proc] = value
        self.event_clock[id(ev)] = dict(clock)

    def _report(self, finding: Finding) -> None:
        if finding.rank is not None and finding.rank >= 0:
            if finding.rank in self.bad:
                return
            self.bad.add(finding.rank)
        self.findings.append(finding)

    # -- per-event checks ---------------------------------------------
    def ingest(self, index: int, ev: ProtocolEvent) -> None:
        self.events.append(ev)
        self._tick(index, ev)
        worker_rank = _worker_rank(ev.proc)
        if ev.kind == "config" and len(ev.detail) >= 2:
            self.world, self.capacity = int(ev.detail[0]), int(ev.detail[1])
        elif ev.kind == "spawn":
            self.spawned.add(ev.rank)
        elif ev.kind == "stage":
            self.staged.append(ev)
        elif ev.kind == "post":
            self._check_post(ev)
        elif ev.kind == "exit" and worker_rank is not None:
            self.exits.setdefault(worker_rank, id(ev))
        elif ev.kind == "unlink":
            self._check_unlink(ev)
        if worker_rank is not None:
            self._check_worker_event(ev, worker_rank)

    def _check_post(self, ev: ProtocolEvent) -> None:
        key = (ev.rank, ev.seq)
        if key in self.exchanges and "post" in self.exchanges[key]:
            self._report(
                _finding(
                    RULE_SEQ,
                    f"parent posted doorbell seq {ev.seq} to rank {ev.rank} twice "
                    "(stale/reused sequence number)",
                    rank=ev.rank,
                    seq=ev.seq,
                ).with_witness(_witness(self.exchanges[key]["post"], ev))
            )
            return
        self.exchanges.setdefault(key, {})["post"] = ev
        self.post_order.append(key)
        exit_id = self.exits.get(ev.rank)
        if exit_id is not None:
            exit_clock = self.event_clock[exit_id]
            if vc_leq(exit_clock, self.event_clock[id(ev)]):
                self._report(
                    _finding(
                        RULE_LIFECYCLE,
                        f"parent posted {ev.op or 'a'} doorbell (seq {ev.seq}) to "
                        f"rank {ev.rank} after that worker exited",
                        rank=ev.rank,
                        seq=ev.seq,
                    ).with_witness(_witness(ev))
                )
        if (
            ev.op == "batch"
            and self.capacity is not None
            and len(ev.detail) >= 2
            and int(ev.detail[1]) > self.capacity
        ):
            self._report(
                _finding(
                    RULE_BUDGET,
                    f"program seq {ev.seq} placed {ev.detail[1]} ring bytes at rank "
                    f"{ev.rank}, over the {self.capacity}-byte capacity "
                    "(pipe fallback not taken)",
                    rank=ev.rank,
                    seq=ev.seq,
                ).with_witness(_witness(ev))
            )

    def _check_unlink(self, ev: ProtocolEvent) -> None:
        if ev.rank not in self.spawned:
            return  # pool-only segment for a rank whose worker never ran
        exit_id = self.exits.get(ev.rank)
        if exit_id is None:
            self._report(
                _finding(
                    RULE_LIFECYCLE,
                    f"segments of rank {ev.rank} unlinked but its worker never "
                    "exited (early unlink / use-after-unlink hazard)",
                    rank=ev.rank,
                    seq=ev.seq if ev.seq >= 0 else None,
                ).with_witness(_witness(ev))
            )
        elif not vc_leq(self.event_clock[exit_id], self.event_clock[id(ev)]):
            self._report(
                _finding(
                    RULE_LIFECYCLE,
                    f"unlink of rank {ev.rank}'s segments is not happens-after "
                    "its worker's exit (concurrent unlink)",
                    rank=ev.rank,
                    seq=None,
                ).with_witness(_witness(ev))
            )

    def _check_worker_event(self, ev: ProtocolEvent, worker_rank: int) -> None:
        if ev.rank >= 0 and ev.rank != worker_rank:
            self._report(
                _finding(
                    RULE_DELIVERY,
                    f"{ev.proc} observed a {ev.kind} event for rank {ev.rank} "
                    "(wrong-rank delivery)",
                    rank=worker_rank,
                    seq=ev.seq if ev.seq >= 0 else None,
                ).with_witness(_witness(ev))
            )
            return
        if ev.kind == "recv":
            expected = self.last_recv_seq.get(ev.proc, -1) + 1
            if ev.seq != expected:
                self._report(
                    _finding(
                        RULE_SEQ,
                        f"{ev.proc} received doorbell seq {ev.seq}, expected "
                        f"{expected} (sequence regression or skip)",
                        rank=worker_rank,
                        seq=ev.seq,
                    ).with_witness(_witness(ev))
                )
            self.last_recv_seq[ev.proc] = max(self.last_recv_seq.get(ev.proc, -1), ev.seq)
            self.exchanges.setdefault((worker_rank, ev.seq), {})["recv"] = ev
        elif ev.kind in ("ring_read", "ring_write", "pool_map", "ack_send") and ev.seq >= 0:
            current = self.last_recv_seq.get(ev.proc, -1)
            if ev.seq != current:
                self._report(
                    _finding(
                        RULE_SEQ,
                        f"{ev.proc} performed {ev.kind} for seq {ev.seq} while "
                        f"serving doorbell seq {current}",
                        rank=worker_rank,
                        seq=ev.seq,
                    ).with_witness(_witness(ev))
                )
            if ev.kind == "ack_send":
                self.exchanges.setdefault((worker_rank, ev.seq), {})["ack_send"] = ev

    def ingest_parent_ack(self, ev: ProtocolEvent) -> None:
        self.exchanges.setdefault((ev.rank, ev.seq), {})["ack_recv"] = ev

    # -- end-of-stream checks -----------------------------------------
    def finish(self) -> list[Finding]:
        for key in self.post_order:
            rank, seq = key
            if rank in self.bad:
                continue
            exchange = self.exchanges[key]
            post = exchange["post"]
            if "recv" not in exchange:
                self._report(
                    _finding(
                        RULE_LOST_WAKEUP,
                        f"doorbell {post.op or '?'} seq {seq} posted to rank {rank} "
                        "was never received (lost wakeup)",
                        rank=rank,
                        seq=seq,
                    ).with_witness(_witness(post))
                )
            elif "ack_send" not in exchange:
                self._report(
                    _finding(
                        RULE_LOST_WAKEUP,
                        f"rank {rank} received doorbell {post.op or '?'} seq {seq} "
                        "but never sent its ack (dropped ack)",
                        rank=rank,
                        seq=seq,
                    ).with_witness(_witness(post, exchange["recv"]))
                )
            elif post.op != "close" and "ack_recv" not in exchange:
                self._report(
                    _finding(
                        RULE_BARRIER,
                        f"parent never consumed rank {rank}'s ack for {post.op} "
                        f"seq {seq} (barrier skipped)",
                        rank=rank,
                        seq=seq,
                    ).with_witness(_witness(post, exchange["ack_send"]))
                )
        for ev in self.staged:
            if ev.rank in self.bad:
                continue
            exchange = self.exchanges.get((ev.rank, ev.seq), {})
            post = exchange.get("post")
            if post is None or post.op != "batch":
                self._report(
                    _finding(
                        RULE_BARRIER,
                        f"{ev.op or 'work'} staged for rank {ev.rank}'s batch seq "
                        f"{ev.seq} was never flushed (no batch doorbell posted)",
                        rank=ev.rank,
                        seq=ev.seq,
                    ).with_witness(_witness(ev))
                )
        for key, exchange in self.exchanges.items():
            rank, seq = key
            if rank in self.bad:
                continue
            if "post" not in exchange:
                observed = next(iter(exchange.values()))
                self._report(
                    _finding(
                        RULE_CONFORMANCE,
                        f"rank {rank} observed protocol traffic for seq {seq} the "
                        "parent never posted (phantom doorbell)",
                        rank=rank,
                        seq=seq,
                    ).with_witness(_witness(observed))
                )
        for rank in sorted(self.spawned):
            if rank in self.bad:
                continue
            if rank not in self.exits:
                self._report(
                    _finding(
                        RULE_ORPHAN,
                        f"worker {rank} was spawned but never exited gracefully "
                        "(orphaned or terminated worker)",
                        rank=rank,
                    ).with_witness(())
                )
        return self.findings


def check_events(events: Sequence[ProtocolEvent]) -> list[Finding]:
    """Replay ``events`` against the protocol model; return divergences.

    Expects the stream a sanitizing backend accumulates: parent events in
    program order with each worker's batches spliced in at ack-ingestion
    points (which is consistent with the cross-process happens-before
    edges).  An empty result means the observed execution conforms.
    """
    replay = _Replay()
    for index, ev in enumerate(events):
        replay.ingest(index, ev)
        if ev.kind == "ack_recv" and ev.proc == "parent":
            replay.ingest_parent_ack(ev)
    return replay.finish()
