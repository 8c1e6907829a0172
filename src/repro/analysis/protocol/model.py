"""Executable state-machine model of the shared-memory backend protocol.

:class:`~repro.cluster.backends.shm.SharedMemoryBackend` implements a
hand-rolled multiprocess protocol: seq-stamped ring records, flag-word
doorbells and acks, an oversize fallback over the control pipe, pool-segment
mapping over control pipes, and multi-stage teardown.  This module models
that protocol as a small transition system the interleaving explorer
(:mod:`.explorer`) can check exhaustively:

* **roles** — one *parent* process and one *worker* per rank;
* **channels** — per worker, a doorbell flag word and an ack flag word, a
  control doorbell FIFO and ack FIFO (the ``pool``/``close``/oversize
  ``batch`` pipes), and two ring buffers (``in``/``out``), each a single
  record slot at a fixed offset carrying a seq + destination stamp;
* **guarded transitions** — the parent executes a straight-line *program*
  (one program per worker per backend call, ack-flag barriers, pool
  mapping, graceful teardown) while each worker runs the reactive doorbell
  loop (`recv → read → reply → ack`).

Rounds never reach the workers (every backend delivers them in-process), so
the modelled work is what a worker consumes: ``task`` items
(``run_rank_tasks``) and ``reduce`` items (``pool_ref_reduce``).  Each
backend call writes one program record per involved worker and rings a
single seq-stamped *flag word* (a one-slot overwrite register, not a FIFO);
a program too large for the ring travels over the pipe instead.  The worker
executes the entire program before setting its own ack flag word, and the
call barriers on every ack flag before the next call.  The worker checks its
flag word before its pipe, as the real wait loop does.  A flag word whose
seq was never bumped cannot wake the worker — the model classifies that
quiescent state as a lost wakeup — and an ack raised before the program
finished executing violates :data:`RULE_PROGRAM`.

A ``reduce`` item is a tiny descriptor: the worker folds its chunk *in
place* across every rank's mapped pool segment, then broadcasts by writing
the peers' segments directly.  Two invariants guard it
(:data:`RULE_POOLREF`): a descriptor may only dereference pool segments the
executing worker actually mapped, and the ack may not be raised until every
reduce completed its peer-segment writes — the parent reads the reduced
slices right after the ack barrier.

Transitions validate the protocol invariants as they fire (seq monotonicity,
stamp matching, ring-slot reuse, the oversize fallback, segment lifecycle);
a quiescent state that is not a clean termination is classified as
deadlock, lost wakeup, orphaned worker, missed barrier, or leaked segment.
Violations surface as :class:`~repro.analysis.report.Finding` objects whose
witness is the interleaving trace, in the happens-before witness style.

:class:`Faults` injects the protocol bugs the mutation harness
(:mod:`.mutations`) seeds — each knob corresponds to a one-line bug a real
backend patch could introduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..report import Finding

#: Ring-record seq stamp size, mirroring ``shm._SEQ.size``.
STAMP_BYTES = 8

#: Destination stamp meaning "the parent" (reply records travel worker→parent).
PARENT = -1

# Worker reactive phases.
_RECV = "recv"
_READ = "read"
_REPLY = "reply"
_ACK = "ack"

#: Protocol rule identifiers (one per invariant class).
RULE_DEADLOCK = "protocol-deadlock"
RULE_LOST_WAKEUP = "protocol-lost-wakeup"
RULE_SEQ = "protocol-seq"
RULE_DELIVERY = "protocol-delivery"
RULE_RING_OVERLAP = "protocol-ring-overlap"
RULE_BUDGET = "protocol-budget"
RULE_LIFECYCLE = "protocol-lifecycle"
RULE_BARRIER = "protocol-barrier"
RULE_LEAK = "protocol-leak"
RULE_ORPHAN = "protocol-orphan"
RULE_CONFORMANCE = "protocol-conformance"
RULE_PROGRAM = "protocol-program"
RULE_POOLREF = "protocol-poolref"

ALL_RULES = (
    RULE_DEADLOCK,
    RULE_LOST_WAKEUP,
    RULE_SEQ,
    RULE_DELIVERY,
    RULE_RING_OVERLAP,
    RULE_BUDGET,
    RULE_LIFECYCLE,
    RULE_BARRIER,
    RULE_LEAK,
    RULE_ORPHAN,
    RULE_CONFORMANCE,
    RULE_PROGRAM,
    RULE_POOLREF,
)


class Violation(Exception):
    """Internal control flow: a transition tripped a protocol invariant."""

    def __init__(self, finding: Finding) -> None:
        super().__init__(finding.message)
        self.finding = finding


def _finding(rule: str, message: str, rank: int | None = None, seq: int | None = None) -> Finding:
    return Finding(rule=rule, severity="error", message=message, rank=rank, seq=seq)


@dataclass(frozen=True)
class Faults:
    """Seeded protocol bugs; all default off (the faithful protocol).

    Each field flips one guarded behaviour of the model into the broken
    variant a plausible backend bug would produce.  The mutation harness
    constructs one :class:`Faults` per seeded bug and asserts the explorer
    reports exactly the matching root-cause finding.
    """

    #: (rank, seq) pairs whose worker ack (batch ack flag or pool/close
    #: pipe ack) is silently dropped.
    drop_ack: tuple[tuple[int, int], ...] = ()
    #: (rank, batch) pairs whose program record is stamped with the
    #: previous seq while the flag word carries the right one.
    stale_seq: tuple[tuple[int, int], ...] = ()
    #: ranks whose segments the parent unlinks *before* join (early unlink).
    early_unlink: tuple[int, ...] = ()
    #: batch indices whose ack-flag barrier the parent skips entirely.
    skip_barrier: tuple[int, ...] = ()
    #: force ring placement of a record larger than the ring (the pipe
    #: fallback is "forgotten").
    force_place: bool = False
    #: ranks that receive a second close doorbell (double close).
    double_close: tuple[int, ...] = ()
    #: (rank, batch) pairs whose program record is stamped for the wrong rank.
    wrong_dst: tuple[tuple[int, int], ...] = ()
    #: ranks the parent abandons: no close, no join, no unlink (orphan).
    orphan: tuple[int, ...] = ()
    #: ranks whose segments are never unlinked (leak).
    skip_unlink: tuple[int, ...] = ()
    #: task calls posted before the previous call's ack flags were observed
    #: (pipelined calls; drives write-before-read-complete ring overlap).
    pipeline_calls: bool = False
    #: ranks that get one extra task program flagged *after* their close
    #: doorbell (use-after-close: the wakeup is lost behind the shutdown).
    post_after_close: tuple[int, ...] = ()
    #: ranks whose workers ack a batch flag word before executing the
    #: program (ack-before-program-end).
    ack_early: tuple[int, ...] = ()
    #: (rank, batch) pairs whose doorbell flag word reuses the previous batch
    #: seq — the flag is "rung" but its value never changes, so the spinning
    #: worker cannot observe the new batch.
    stale_flag: tuple[tuple[int, int], ...] = ()
    #: (dst, owner) pairs whose pool-mapping doorbell the parent skips: dst's
    #: worker never maps owner's pool segment, so any reduce descriptor that
    #: targets it resolves against an unmapped segment.
    poolref_unmapped: tuple[tuple[int, int], ...] = ()
    #: ranks whose workers ack a reduce-carrying program before completing the
    #: in-place peer-segment writes (reduce result published before the
    #: broadcast-by-write phase ran).
    skip_reduce_write: tuple[int, ...] = ()


@dataclass
class _Record:
    """The live ring record: ``nbytes`` stamped (seq, dst)."""

    nbytes: int  # stamp + payload, the footprint in the ring
    seq: int
    dst: int
    read: bool = False

    def key(self) -> tuple[int, int, int, bool]:
        return (self.nbytes, self.seq, self.dst, self.read)


@dataclass
class _Ring:
    """One shared-memory ring: a single record slot at a fixed offset.

    Mirrors ``shm._write_record``: every call awaits its acks before the
    next one writes, so a ring never needs more than one live record.
    """

    capacity: int
    record: _Record | None = None

    def clone(self) -> _Ring:
        return _Ring(self.capacity, replace(self.record) if self.record else None)

    def key(self) -> tuple | None:
        return self.record.key() if self.record else None

    def write(
        self, seq: int, dst: int, payload_bytes: int, *, force: bool, writer_rank: int | None
    ) -> bool:
        """Write the record; ``False`` means it must travel over the pipe.

        ``force=True`` models the oversize bug: the record is rammed into
        the ring even though it does not fit.
        """
        total = STAMP_BYTES + payload_bytes
        if total > self.capacity:
            if not force:
                return False  # the correct pipe fallback
            raise Violation(
                _finding(
                    RULE_BUDGET,
                    f"record of {total} bytes exceeds the ring's {self.capacity}-byte "
                    "capacity but was placed in the ring instead of falling back to "
                    "the pipe",
                    rank=writer_rank,
                    seq=seq,
                )
            )
        if self.record is not None and not self.record.read:
            raise Violation(
                _finding(
                    RULE_RING_OVERLAP,
                    f"ring write for seq {seq} overwrites the live unread record of "
                    f"seq {self.record.seq}: write-before-read-complete",
                    rank=writer_rank,
                    seq=seq,
                )
            )
        self.record = _Record(nbytes=total, seq=seq, dst=dst)
        return True

    def read(self, expected_seq: int, expected_dst: int, reader: int | None) -> None:
        """Validate and consume the live record (stamp + dst checks)."""
        record = self.record
        if record is None or record.read:
            raise Violation(
                _finding(
                    RULE_SEQ,
                    f"no live ring record for seq {expected_seq}: the read raced "
                    "the write or consumed a stale entry",
                    rank=reader,
                    seq=expected_seq,
                )
            )
        if record.seq != expected_seq:
            raise Violation(
                _finding(
                    RULE_SEQ,
                    f"ring record is stamped seq {record.seq}, expected "
                    f"{expected_seq}: stale or regressed sequence",
                    rank=reader,
                    seq=expected_seq,
                )
            )
        if record.dst != expected_dst:
            raise Violation(
                _finding(
                    RULE_DELIVERY,
                    f"ring record (seq {record.seq}) is stamped for rank {record.dst} "
                    f"but was delivered to rank {expected_dst}: wrong-rank delivery",
                    rank=reader,
                    seq=expected_seq,
                )
            )
        record.read = True


#: One program item: (kind, payload bytes, pool owners it dereferences).
_Item = tuple[str, int, tuple[int, ...]]


@dataclass
class _Worker:
    """One rank server: the reactive doorbell loop."""

    rank: int
    alive: bool = True
    expected: int = 0
    phase: str = _RECV
    cur_op: str = ""
    cur_seq: int = -1
    cur_data: tuple = ()
    #: whether the current program arrived over the pipe (oversize fallback)
    via_pipe: bool = False
    #: whether the reply record went into the outbound ring
    reply_in_ring: bool = False
    #: pool segment ids this worker has attached (cross-rank: every owner's
    #: pool maps into every worker, the reduce executors' address space).
    pool_segs: tuple[int, ...] = ()
    #: program items actually executed before the ack flag was set (the
    #: faithful worker always executes the whole program).
    executed: int = 0
    #: reduce items whose in-place peer-segment writes completed before the
    #: ack flag was set (the faithful worker completes all of them).
    reduced: int = 0

    def clone(self) -> _Worker:
        return replace(self)

    def key(self) -> tuple:
        return (
            self.rank,
            self.alive,
            self.expected,
            self.phase,
            self.cur_op,
            self.cur_seq,
            self.cur_data,
            self.via_pipe,
            self.reply_in_ring,
            self.pool_segs,
            self.executed,
            self.reduced,
        )


@dataclass
class _Segment:
    """One named shared-memory segment (ring or pool)."""

    seg_id: int
    kind: str  # "in" | "out" | "pool"
    rank: int
    unlinked: bool = False

    def clone(self) -> _Segment:
        return replace(self)

    def key(self) -> tuple:
        return (self.seg_id, self.kind, self.rank, self.unlinked)


# Parent program instructions (straight-line; guards block, never branch):
#   ("flag", dst, batch_index, items)  write one program of ``items`` (see
#       ``_Item``) into dst's ring and ring its flag word, or send it over
#       the pipe when it does not fit
#   ("flagwait", dst)
#   ("await", dst)         barrier on a pool pipe ack
#   ("pool", dst, owner)   map owner's pool segment into dst's worker
#   ("close", rank)
#   ("join", rank)
#   ("unlink", rank)
#   ("end",)
_Instr = tuple


@dataclass
class ModelState:
    """The whole system state: parent + workers + channels + segments."""

    world: int
    faults: Faults
    program: tuple[_Instr, ...]
    pc: int = 0
    parent_done: bool = False
    next_seq: dict[int, int] = field(default_factory=dict)
    #: per destination, FIFO of (seq, op) posted or flagged but not yet
    #: barriered
    outstanding: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    door: dict[int, list[tuple]] = field(default_factory=dict)
    ack: dict[int, list[tuple]] = field(default_factory=dict)
    #: per destination, the seq-stamped doorbell flag word — a single-slot
    #: OVERWRITE register (the shared-memory u64), not a FIFO: (seq, items)
    door_flag: dict[int, tuple | None] = field(default_factory=dict)
    #: per destination, the ack flag word: (seq, executed, reply_in_ring,
    #: reduced)
    ack_flag: dict[int, tuple | None] = field(default_factory=dict)
    #: per destination, how many items the last flagged program contained
    flagged: dict[int, int] = field(default_factory=dict)
    #: per destination, how many of those items were reduces
    flagged_reduces: dict[int, int] = field(default_factory=dict)
    #: pool owner rank -> its (single) pool segment id
    pool_seg_ids: dict[int, int] = field(default_factory=dict)
    in_ring: dict[int, _Ring] = field(default_factory=dict)
    out_ring: dict[int, _Ring] = field(default_factory=dict)
    workers: dict[int, _Worker] = field(default_factory=dict)
    segments: list[_Segment] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Exploration plumbing
    # ------------------------------------------------------------------
    def clone(self) -> ModelState:
        return ModelState(
            world=self.world,
            faults=self.faults,
            program=self.program,
            pc=self.pc,
            parent_done=self.parent_done,
            next_seq=dict(self.next_seq),
            outstanding={k: list(v) for k, v in self.outstanding.items()},
            door={k: list(v) for k, v in self.door.items()},
            ack={k: list(v) for k, v in self.ack.items()},
            door_flag=dict(self.door_flag),
            ack_flag=dict(self.ack_flag),
            flagged=dict(self.flagged),
            flagged_reduces=dict(self.flagged_reduces),
            pool_seg_ids=dict(self.pool_seg_ids),
            in_ring={k: v.clone() for k, v in self.in_ring.items()},
            out_ring={k: v.clone() for k, v in self.out_ring.items()},
            workers={k: v.clone() for k, v in self.workers.items()},
            segments=[s.clone() for s in self.segments],
        )

    def fingerprint(self) -> tuple:
        return (
            self.pc,
            self.parent_done,
            tuple(sorted(self.next_seq.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.outstanding.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.door.items())),
            tuple((k, tuple(v)) for k, v in sorted(self.ack.items())),
            tuple(sorted(self.door_flag.items())),
            tuple(sorted(self.ack_flag.items())),
            tuple(sorted(self.flagged.items())),
            tuple(sorted(self.flagged_reduces.items())),
            tuple(sorted(self.pool_seg_ids.items())),
            tuple((k, v.key()) for k, v in sorted(self.in_ring.items())),
            tuple((k, v.key()) for k, v in sorted(self.out_ring.items())),
            tuple((k, v.key()) for k, v in sorted(self.workers.items())),
            tuple(s.key() for s in self.segments),
        )

    # ------------------------------------------------------------------
    # Enabledness
    # ------------------------------------------------------------------
    def parent_enabled(self) -> bool:
        if self.parent_done or self.pc >= len(self.program):
            return False
        instr = self.program[self.pc]
        if instr[0] == "await":
            return bool(self.ack[instr[1]])
        if instr[0] == "flagwait":
            return self.ack_flag.get(instr[1]) is not None
        if instr[0] == "join":
            return not self.workers[instr[1]].alive
        return True

    def _flag_ready(self, rank: int) -> bool:
        """Whether rank's spinning worker can observe its doorbell flag.

        The worker spins until the flag word carries the seq it expects; a
        stale value (seq already consumed) leaves the spin loop blocked —
        that is the whole point of the seq stamp.
        """
        flag = self.door_flag.get(rank)
        return flag is not None and flag[0] == self.workers[rank].expected

    def worker_enabled(self, rank: int) -> bool:
        worker = self.workers[rank]
        if not worker.alive:
            return False
        if worker.phase == _RECV:
            return bool(self.door[rank]) or self._flag_ready(rank)
        return True  # mid-protocol phases never block

    def enabled_procs(self) -> list[str]:
        procs = []
        if self.parent_enabled():
            procs.append("parent")
        for rank in range(self.world):
            if self.worker_enabled(rank):
                procs.append(f"worker:{rank}")
        return procs

    def footprint(self, proc: str) -> frozenset[tuple[str, int]]:
        """Objects the proc's next transition touches (independence relation)."""
        if proc == "parent":
            instr = self.program[self.pc]
            op = instr[0]
            if op == "await":
                return frozenset({("ack", instr[1])})
            if op == "flag":
                return frozenset({("door", instr[1]), ("inring", instr[1])})
            if op == "flagwait":
                return frozenset({("ack", instr[1]), ("outring", instr[1])})
            if op == "pool":
                return frozenset({("door", instr[1]), ("seg", instr[2]), ("life", instr[1])})
            if op == "close":
                return frozenset({("door", instr[1]), ("life", instr[1])})
            if op == "join":
                return frozenset({("life", instr[1])})
            if op == "unlink":
                return frozenset({("seg", instr[1]), ("life", instr[1])})
            return frozenset()
        rank = int(proc.split(":")[1])
        worker = self.workers[rank]
        if worker.phase == _RECV:
            return frozenset({("door", rank), ("life", rank)})
        if worker.phase == _READ:
            return frozenset({("inring", rank)})
        if worker.phase == _REPLY:
            return frozenset({("outring", rank)})
        # ack / pool-attach / close-finish: touches the ack pipe, possibly
        # segments and liveness.  A pool attach touches the *owner's*
        # segment (cross-rank mapping), so include it in the footprint.
        objects = {("ack", rank), ("seg", rank), ("life", rank)}
        if worker.cur_op == "pool" and worker.cur_data:
            seg = self.segments[worker.cur_data[0]]
            objects.add(("seg", seg.rank))
        return frozenset(objects)

    # ------------------------------------------------------------------
    # Transition semantics
    # ------------------------------------------------------------------
    def step(self, proc: str) -> tuple[str, Finding | None]:
        """Fire ``proc``'s enabled transition in place.

        Returns ``(description, finding)``; a non-``None`` finding means the
        transition tripped an invariant and the state is a counterexample.
        """
        try:
            if proc == "parent":
                return self._step_parent(), None
            return self._step_worker(int(proc.split(":")[1])), None
        except Violation as violation:
            return violation.finding.message, violation.finding

    def _take_seq(self, dst: int) -> int:
        seq = self.next_seq[dst]
        self.next_seq[dst] = seq + 1
        return seq

    def _check_pool_refs(self, rank: int, worker: _Worker, needs: tuple, seq: int) -> None:
        """A reduce's descriptors must dereference only mapped, live segments."""
        for owner in needs:
            attached = any(
                self.segments[seg_id].rank == owner and not self.segments[seg_id].unlinked
                for seg_id in worker.pool_segs
            )
            if not attached:
                raise Violation(
                    _finding(
                        RULE_POOLREF,
                        f"worker {rank} executes a reduce whose descriptor targets "
                        f"rank {owner}'s pool segment, which this worker never "
                        "mapped: unmapped pool ref",
                        rank=rank,
                        seq=seq,
                    )
                )

    def _check_worker_alive(self, rank: int, what: str) -> None:
        if not self.workers[rank].alive:
            raise Violation(
                _finding(
                    RULE_LIFECYCLE,
                    f"parent posted {what} to worker {rank} after it exited: "
                    "the doorbell can never be received",
                    rank=rank,
                )
            )

    def _step_parent(self) -> str:
        instr = self.program[self.pc]
        self.pc += 1
        op = instr[0]
        if op == "await":
            dst = instr[1]
            _status, seq = self.ack[dst].pop(0)
            if not self.outstanding[dst]:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"parent received ack seq {seq} from worker {dst} with no "
                        "outstanding doorbell: duplicated or unsolicited ack",
                        rank=dst,
                        seq=seq,
                    )
                )
            expected, kind = self.outstanding[dst].pop(0)
            if seq != expected:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {dst} acked seq {seq}, parent expected seq {expected} "
                        f"({kind}): ack/seq mismatch",
                        rank=dst,
                        seq=expected,
                    )
                )
            return f"parent barriers on worker {dst} ack seq {seq} ({kind})"
        if op == "flag":
            _, dst, batch_index, items = instr
            # No liveness check here: the real backend writes the ring and
            # rings the flag of a worker that is mid-exit without error.  A
            # flag the worker never observes surfaces at quiescence as a
            # lost wakeup, the classification that names the root cause.
            seq = self._take_seq(dst)
            stamp_seq = seq
            if (dst, batch_index) in self.faults.stale_seq:
                stamp_seq = max(0, seq - 1)  # the previous program's seq: stale
            stamp_dst = dst
            if (dst, batch_index) in self.faults.wrong_dst:
                stamp_dst = (dst + 1) % self.world
            placed = self.in_ring[dst].write(
                stamp_seq,
                stamp_dst,
                sum(item[1] for item in items),
                force=self.faults.force_place,
                writer_rank=dst,
            )
            self.outstanding[dst].append((seq, "batch"))
            self.flagged[dst] = len(items)
            self.flagged_reduces[dst] = sum(1 for item in items if item[0] == "reduce")
            if not placed:
                self.door[dst].append(("batch", seq, items))
                return (
                    f"parent sends worker {dst}'s program seq {seq} over the pipe "
                    f"({len(items)} item(s), too large for the ring)"
                )
            flag_seq = seq
            if (dst, batch_index) in self.faults.stale_flag:
                flag_seq = max(0, seq - 1)  # the flag word was never bumped
            self.door_flag[dst] = (flag_seq, items)
            stale = " with a stale seq" if flag_seq != seq else ""
            return (
                f"parent writes worker {dst}'s program seq {seq} and rings its "
                f"doorbell flag word{stale} ({len(items)} item(s))"
            )
        if op == "flagwait":
            dst = instr[1]
            seq, executed, reply_in_ring, reduced = self.ack_flag[dst]
            self.ack_flag[dst] = None
            if not self.outstanding[dst]:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"parent observed ack flag seq {seq} from worker {dst} with "
                        "no outstanding batch: duplicated or unsolicited ack",
                        rank=dst,
                        seq=seq,
                    )
                )
            expected, kind = self.outstanding[dst].pop(0)
            if seq != expected:
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {dst}'s ack flag carries seq {seq}, parent expected "
                        f"seq {expected} ({kind}): ack/seq mismatch",
                        rank=dst,
                        seq=expected,
                    )
                )
            want = self.flagged.pop(dst, 0)
            if executed != want:
                raise Violation(
                    _finding(
                        RULE_PROGRAM,
                        f"worker {dst} set its ack flag for batch seq {seq} after "
                        f"executing {executed} of {want} program item(s): "
                        "ack-before-program-end",
                        rank=dst,
                        seq=seq,
                    )
                )
            want_reduced = self.flagged_reduces.pop(dst, 0)
            if reduced != want_reduced:
                raise Violation(
                    _finding(
                        RULE_POOLREF,
                        f"worker {dst} set its ack flag for batch seq {seq} after "
                        f"completing {reduced} of {want_reduced} in-place reduce "
                        "write(s): the parent would read pool slices peers never "
                        "wrote (ack-before-peer-write)",
                        rank=dst,
                        seq=seq,
                    )
                )
            if reply_in_ring:
                self.out_ring[dst].read(seq, PARENT, reader=dst)
            return f"parent observes worker {dst}'s ack flag for batch seq {seq}"
        if op == "pool":
            _, dst, owner = instr
            self._check_worker_alive(dst, "pool doorbell")
            seg_id = self.pool_seg_ids.get(owner)
            if seg_id is None:
                # The owner's pool is allocated once; each worker then gets
                # its own mapping doorbell (the all-rank cross-mapping the
                # in-place reduce executors rely on).
                seg = _Segment(seg_id=len(self.segments), kind="pool", rank=owner)
                self.segments.append(seg)
                seg_id = seg.seg_id
                self.pool_seg_ids[owner] = seg_id
            seq = self._take_seq(dst)
            self.door[dst].append(("pool", seq, seg_id))
            self.outstanding[dst].append((seq, "pool"))
            return (
                f"parent maps rank {owner}'s pool segment {seg_id} into "
                f"worker {dst} (seq {seq})"
            )
        if op == "close":
            rank = instr[1]
            if self.workers[rank].alive or rank in self.faults.double_close:
                # The real backend checks is_alive before the graceful close;
                # posting to a dead worker is itself the double-close bug.
                self._check_worker_alive(rank, "close doorbell")
            seq = self._take_seq(rank)
            self.door[rank].append(("close", seq, None))
            self.outstanding[rank].append((seq, "close"))
            return f"parent posts close seq {seq} to worker {rank}"
        if op == "join":
            return f"parent joins worker {instr[1]}"
        if op == "unlink":
            rank = instr[1]
            if self.workers[rank].alive:
                raise Violation(
                    _finding(
                        RULE_LIFECYCLE,
                        f"parent unlinked worker {rank}'s segments while the worker "
                        "is still attached (unlink must happen after join)",
                        rank=rank,
                    )
                )
            for seg in self.segments:
                if seg.rank == rank:
                    seg.unlinked = True
            return f"parent unlinks worker {rank}'s segments"
        if op == "end":
            self.parent_done = True
            return "parent exits"
        raise AssertionError(f"unknown parent instruction {instr!r}")

    def _step_worker(self, rank: int) -> str:
        worker = self.workers[rank]
        if worker.phase == _RECV and self._flag_ready(rank):
            # Flag-word doorbell, checked before the pipe as in the real
            # wait loop.  Readiness already required flag seq == expected,
            # so no seq violation can fire here; a stale flag simply never
            # wakes the worker and is classified at quiescence.
            seq, items = self.door_flag[rank]
            self.door_flag[rank] = None
            worker.expected += 1
            worker.cur_op, worker.cur_seq = "batch", seq
            worker.cur_data = items
            worker.via_pipe = False
            if rank in self.faults.ack_early:
                worker.executed = 0
                worker.reduced = 0
                worker.reply_in_ring = False
                worker.phase = _ACK
                return (
                    f"worker {rank} consumes flag-word seq {seq} but jumps straight "
                    "to the ack (seeded: ack before program end)"
                )
            worker.phase = _READ
            return (
                f"worker {rank} observes doorbell flag seq {seq} "
                f"({len(items)} program item(s))"
            )
        if worker.phase == _RECV:
            op, seq, data = self.door[rank].pop(0)
            if seq != worker.expected:
                direction = "regressed" if seq < worker.expected else "skipped ahead"
                raise Violation(
                    _finding(
                        RULE_SEQ,
                        f"worker {rank} received doorbell seq {seq}, expected "
                        f"{worker.expected}: sequence {direction}",
                        rank=rank,
                        seq=seq,
                    )
                )
            worker.expected += 1
            worker.cur_op, worker.cur_seq = op, seq
            if op == "batch":
                # Oversize fallback: the program itself travelled by pipe.
                worker.cur_data = data
                worker.via_pipe = True
                worker.phase = _READ
            else:
                worker.cur_data = (data,)
                worker.phase = _ACK
            return f"worker {rank} receives {op} doorbell seq {seq}"
        if worker.phase == _READ:
            if not worker.via_pipe:
                self.in_ring[rank].read(worker.cur_seq, rank, reader=rank)
            for kind, _nbytes, needs in worker.cur_data:
                if kind == "reduce":
                    self._check_pool_refs(rank, worker, needs, worker.cur_seq)
            worker.phase = _REPLY
            source = "the pipe" if worker.via_pipe else "its inbound ring"
            return (
                f"worker {rank} reads and executes its program for batch seq "
                f"{worker.cur_seq} ({len(worker.cur_data)} item(s)) from {source}"
            )
        if worker.phase == _REPLY:
            worker.reply_in_ring = not worker.via_pipe and self.out_ring[rank].write(
                worker.cur_seq,
                PARENT,
                sum(item[1] for item in worker.cur_data),
                force=False,
                writer_rank=rank,
            )
            worker.executed = len(worker.cur_data)
            n_reduces = sum(1 for item in worker.cur_data if item[0] == "reduce")
            skipped = rank in self.faults.skip_reduce_write and n_reduces > 0
            worker.reduced = 0 if skipped else n_reduces
            worker.phase = _ACK
            note = " (seeded: peer-segment writes skipped)" if skipped else ""
            where = "its outbound ring" if worker.reply_in_ring else "the pipe"
            return (
                f"worker {rank} replies to batch seq {worker.cur_seq} "
                f"({worker.executed} item(s)) through {where}{note}"
            )
        if worker.phase == _ACK and worker.cur_op == "batch":
            seq, executed = worker.cur_seq, worker.executed
            dropped = (rank, seq) in self.faults.drop_ack
            if not dropped:
                self.ack_flag[rank] = (seq, executed, worker.reply_in_ring, worker.reduced)
            worker.reply_in_ring = False
            worker.via_pipe = False
            worker.cur_data = ()
            worker.executed = 0
            worker.reduced = 0
            worker.phase = _RECV
            if dropped:
                return f"worker {rank} drops the ack flag for batch seq {seq}"
            return (
                f"worker {rank} sets its ack flag word for batch seq {seq} "
                f"({executed} item(s) executed)"
            )
        if worker.phase == _ACK:
            op, seq = worker.cur_op, worker.cur_seq
            if op == "pool":
                seg = self.segments[worker.cur_data[0]]
                if seg.unlinked:
                    raise Violation(
                        _finding(
                            RULE_LIFECYCLE,
                            f"worker {rank} attached pool segment {seg.seg_id} after "
                            "the parent unlinked it (map-after-unlink)",
                            rank=rank,
                            seq=seq,
                        )
                    )
                worker.pool_segs = worker.pool_segs + (seg.seg_id,)
            dropped = (rank, seq) in self.faults.drop_ack
            if not dropped:
                self.ack[rank].append(("ok", seq))
            worker.cur_data = ()
            worker.phase = _RECV
            if op == "close":
                worker.alive = False
                return f"worker {rank} acks close seq {seq} and exits"
            verb = "drops the ack for" if dropped else "acks"
            return f"worker {rank} {verb} {op} seq {seq}"
        raise AssertionError(f"unknown worker phase {worker.phase!r}")

    # ------------------------------------------------------------------
    # Quiescence classification
    # ------------------------------------------------------------------
    def quiescence_finding(self) -> Finding | None:
        """Classify a state with no enabled transitions.

        ``None`` means clean termination; otherwise the single root-cause
        finding for the stuck or leaky state.
        """
        if not self.parent_done:
            return self._blocked_parent_finding()
        for rank, worker in sorted(self.workers.items()):
            if worker.alive:
                return _finding(
                    RULE_ORPHAN,
                    f"parent exited while worker {rank} is still alive and blocked "
                    "on its doorbell pipe: orphaned worker (no close was sent)",
                    rank=rank,
                )
        for rank in range(self.world):
            if self.door[rank]:
                op, seq, _ = self.door[rank][0]
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"{op} doorbell seq {seq} for worker {rank} was never received "
                    "(the worker exited first): lost wakeup",
                    rank=rank,
                    seq=seq,
                )
            flag = self.door_flag[rank]
            if flag is not None:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"batch flag seq {flag[0]} for worker {rank} was never observed "
                    "(the worker exited first): lost wakeup",
                    rank=rank,
                    seq=flag[0],
                )
        for rank in range(self.world):
            pending = [(seq, op) for seq, op in self.outstanding[rank] if op != "close"]
            if pending:
                seq, op = pending[0]
                return _finding(
                    RULE_BARRIER,
                    f"{op} seq {seq} posted to worker {rank} was never barriered: "
                    "the parent returned without draining the worker's ack",
                    rank=rank,
                    seq=seq,
                )
        for rank in range(self.world):
            # Close acks are legitimately unread (join is the close barrier).
            stray = [
                (seq, status)
                for status, seq in self.ack[rank]
                if (seq, "close") not in self.outstanding[rank]
            ]
            if stray:
                seq, _status = stray[0]
                return _finding(
                    RULE_BARRIER,
                    f"worker {rank}'s ack seq {seq} was never consumed by the parent",
                    rank=rank,
                    seq=seq,
                )
        for seg in self.segments:
            if not seg.unlinked:
                return _finding(
                    RULE_LEAK,
                    f"shared-memory segment {seg.seg_id} ({seg.kind}, rank {seg.rank}) "
                    "was never unlinked: leaked segment",
                    rank=seg.rank,
                )
        return None

    def _blocked_parent_finding(self) -> Finding:
        instr = self.program[self.pc] if self.pc < len(self.program) else ("end",)
        if instr[0] == "await":
            dst = instr[1]
            worker = self.workers[dst]
            if not worker.alive:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"parent is blocked awaiting an ack from worker {dst}, but the "
                    "worker already exited: the ack will never arrive",
                    rank=dst,
                )
            # Worker alive and quiescent means it is blocked in recv with an
            # empty doorbell queue: a parent->worker->parent wait cycle.
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is blocked on worker {dst}'s ack pipe while "
                f"worker {dst} is blocked on its doorbell pipe — the ack for the "
                "current doorbell was never sent",
                rank=dst,
            )
        if instr[0] == "flagwait":
            dst = instr[1]
            worker = self.workers[dst]
            if not worker.alive:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"parent is blocked awaiting worker {dst}'s ack flag word, but "
                    "the worker already exited: the flag will never be set",
                    rank=dst,
                )
            flag = self.door_flag.get(dst)
            if flag is not None and flag[0] < worker.expected:
                return _finding(
                    RULE_LOST_WAKEUP,
                    f"worker {dst}'s doorbell flag word holds stale seq {flag[0]} "
                    f"while the spinning worker expects seq {worker.expected}: the "
                    "flag was rung without bumping its seq, so the wakeup is lost "
                    "and the parent waits forever on the ack flag",
                    rank=dst,
                    seq=flag[0],
                )
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is blocked on worker {dst}'s ack flag word "
                f"while worker {dst} spins on its doorbell flag — the batch ack "
                "was never set",
                rank=dst,
            )
        if instr[0] == "join":
            rank = instr[1]
            return _finding(
                RULE_DEADLOCK,
                f"wait cycle: parent is joined on worker {rank} but the worker is "
                "blocked in its doorbell loop and will never exit (close was not "
                "delivered or not processed)",
                rank=rank,
            )
        return _finding(
            RULE_DEADLOCK,
            f"parent is stuck at instruction {instr!r} with no enabled transition",
        )


# ----------------------------------------------------------------------
# Workload → model construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """Shape of the protocol run the model executes.

    ``tasks`` synchronous ``run_rank_tasks`` calls come first: each writes
    one program per rank and barriers on every ack flag before the next
    call.  ``oversize`` adds one more task call whose program is larger
    than the ring, exercising the pipe fallback.  Then every rank's pool is
    mapped into every worker over the pipe (``pool``), as
    ``shm._map_pool`` does.

    ``reduce`` appends one ``pool_ref_reduce`` call after the pool mapping
    (implying ``pool``): each worker folds its chunk in place across every
    owner's mapped segment, exercising the descriptor-resolution and
    peer-write-before-ack invariants (:data:`RULE_POOLREF`).
    """

    world: int = 2
    tasks: int = 2
    #: pickled size of one program item, and of its reply
    item_bytes: int = 64
    ring_bytes: int = 256
    pool: bool = True
    oversize: bool = False
    reduce: bool = False


def build_model(workload: Workload, faults: Faults | None = None) -> ModelState:
    """Build the initial model state for ``workload`` with ``faults`` seeded."""
    faults = faults or Faults()
    world = workload.world
    ranks = range(world)
    program: list[_Instr] = []
    batch_index = 0
    task: _Item = ("task", workload.item_bytes, ())

    def flagwait_all() -> None:
        program.extend(("flagwait", dst) for dst in ranks)

    def call(item: _Item, barrier: bool = True) -> None:
        """One backend call: a program per rank, then (usually) the barriers."""
        nonlocal batch_index
        program.extend(("flag", dst, batch_index, (item,)) for dst in ranks)
        if barrier and batch_index not in faults.skip_barrier:
            flagwait_all()
        batch_index += 1

    for index in range(workload.tasks):
        # Pipelined: the next call posts before this one's ack flags are
        # observed; its barrier lands only after that next post.
        owed = faults.pipeline_calls and index + 1 < workload.tasks
        call(task, barrier=not owed)
        if index > 0 and faults.pipeline_calls:
            flagwait_all()
    if workload.oversize:
        call(("task", workload.ring_bytes, ()))
    if workload.pool or workload.reduce:
        for owner in ranks:
            for dst in ranks:
                if (dst, owner) in faults.poolref_unmapped:
                    continue
                program.append(("pool", dst, owner))
                program.append(("await", dst))
    if workload.reduce:
        call(("reduce", workload.item_bytes, tuple(ranks)))
    for rank in range(world):
        if rank in faults.orphan:
            continue
        program.append(("close", rank))
        if rank in faults.double_close:
            program.append(("close", rank))
        if rank in faults.post_after_close:
            program.append(("flag", rank, -1, (task,)))
    for rank in range(world):
        if rank in faults.orphan:
            continue
        if rank in faults.early_unlink:
            program.append(("unlink", rank))
            program.append(("join", rank))
        else:
            program.append(("join", rank))
            if rank not in faults.skip_unlink:
                program.append(("unlink", rank))
    program.append(("end",))

    state = ModelState(world=world, faults=faults, program=tuple(program))
    for rank in range(world):
        state.next_seq[rank] = 0
        state.outstanding[rank] = []
        state.door[rank] = []
        state.ack[rank] = []
        state.door_flag[rank] = None
        state.ack_flag[rank] = None
        state.in_ring[rank] = _Ring(capacity=workload.ring_bytes)
        state.out_ring[rank] = _Ring(capacity=workload.ring_bytes)
        state.workers[rank] = _Worker(rank=rank)
        state.segments.append(_Segment(seg_id=len(state.segments), kind="in", rank=rank))
        state.segments.append(_Segment(seg_id=len(state.segments), kind="out", rank=rank))
    return state
