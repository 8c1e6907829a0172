"""Message-passing transport with simulated time and byte accounting.

Collectives in :mod:`repro.comm` are written exactly as the paper implements
ScatterReduce over NCCL: as rounds of point-to-point ``send``/``recv``.  The
transport delivers each round's messages and advances per-rank virtual clocks
under an alpha-beta cost model with NIC serialization:

* a sender's outgoing messages in one round queue on its egress (per fabric);
* a receiver's incoming messages queue on its ingress;
* intra-node (NVLink) and inter-node (TCP) fabrics are independent resources.

Payloads are opaque to the transport; their wire size is taken from the
message, so compressed payloads are charged their true compressed size and
timing-mode stubs can declare full-scale sizes without materializing data.

Payloads are handed to their receivers in-process by the pluggable
:class:`~repro.cluster.backends.TransportBackend`, which also owns the rank
pools and where per-rank compute runs (in-process reference, world-batched,
or shared-memory multiprocess); see ``docs/backends.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from .clock import VirtualClock
from .topology import ClusterSpec

if TYPE_CHECKING:
    from ..analysis.recorder import TraceRecorder
    from .backends import TransportBackend

#: Wire-size charge for a container envelope (tuple/list) and for scalars.
#: A container costs one header plus its elements, so ``(i, array)`` chunk
#: tags price as 16 bytes of framing + the array, and an empty tuple is no
#: longer free while a bare scalar costs 8.
CONTAINER_BYTES = 8.0


def payload_nbytes(payload: Any) -> float:
    """Best-effort wire size of a payload in bytes.

    Numpy arrays report their buffer size; objects exposing ``wire_bytes``
    (compressed payloads, timing stubs) report that; tuples/lists charge an
    8-byte container header plus the sum of their elements (collectives tag
    chunks as ``(chunk_id, array)``); scalars and anything else count as an
    8-byte header.
    """
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    wire = getattr(payload, "wire_bytes", None)
    if wire is not None:
        return float(wire)
    if isinstance(payload, (tuple, list)):
        return CONTAINER_BYTES + sum(payload_nbytes(item) for item in payload)
    return 8.0


@dataclass
class Message:
    """A point-to-point message for one communication round.

    ``match_id`` is a stable identifier pairing this message's send with its
    receive in recorded traces (the happens-before engine's send→recv edge).
    Communication primitives may assign semantic ids; the transport fills in
    a deterministic per-round id for any message that arrives without one.
    """

    src: int
    dst: int
    payload: Any
    nbytes: float | None = None
    match_id: str | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"message from rank {self.src} to itself")
        if self.nbytes is None:
            self.nbytes = payload_nbytes(self.payload)
        if self.nbytes < 0:
            raise ValueError(f"negative message size {self.nbytes}")


@dataclass
class TrafficStats:
    """Cumulative traffic counters, used by tests and efficiency benches."""

    messages: int = 0
    rounds: int = 0
    total_bytes: float = 0.0
    inter_node_bytes: float = 0.0
    intra_node_bytes: float = 0.0
    per_rank_sent_bytes: dict[int, float] = field(default_factory=dict)

    def record(self, message: Message, inter_node: bool) -> None:
        self.messages += 1
        self.total_bytes += message.nbytes
        if inter_node:
            self.inter_node_bytes += message.nbytes
        else:
            self.intra_node_bytes += message.nbytes
        self.per_rank_sent_bytes[message.src] = (
            self.per_rank_sent_bytes.get(message.src, 0.0) + message.nbytes
        )

    def reset(self) -> None:
        self.messages = 0
        self.rounds = 0
        self.total_bytes = 0.0
        self.inter_node_bytes = 0.0
        self.intra_node_bytes = 0.0
        self.per_rank_sent_bytes.clear()


class Transport:
    """Round-based message delivery over a :class:`ClusterSpec`.

    ``backend`` selects the execution substrate (an instance, a registry
    name, or ``None`` for ``$REPRO_BACKEND`` / the default); the transport
    attaches it on construction and owns its lifetime via :meth:`close`.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        backend: TransportBackend | str | None = None,
    ) -> None:
        from .backends import resolve_backend

        self.spec = spec
        self.backend = resolve_backend(backend, spec)
        self.backend.attach(self)
        self.clocks: list[VirtualClock] = [VirtualClock() for _ in range(spec.world_size)]
        self.stats = TrafficStats()
        # Optional instrumentation sink: when set, every exchanged round is
        # reported before delivery.
        self.tracer: TraceRecorder | None = None
        self._round_counter = 0
        # Topology is immutable, so the link / NIC-key lookups every message
        # repeats are memoized per (src, dst) pair.  ``_sized_cache`` holds
        # the same facts flattened for the sized-stub hot loop: int keys and
        # scalar link parameters instead of method calls.
        self._pair_cache: dict[tuple[int, int], tuple] = {}
        self._sized_cache: dict[int, tuple] = {}
        # NIC chain keys (egress / ingress serialization points) mapped to
        # dense int slots so the sized-stub loop can use list indexing
        # instead of tuple-key dict lookups.  Egress and ingress chains are
        # independent resources even when their keys coincide, so each key
        # gets one slot used to index two separate per-round lists.
        self._chain_slots: dict[tuple[int, str], int] = {}

    def _pair_info(self, src: int, dst: int) -> tuple:
        """``(link, inter_node, egress_key, ingress_key)`` for a rank pair."""
        info = self._pair_cache.get((src, dst))
        if info is None:
            spec = self.spec
            link = spec.link_between(src, dst)
            inter = not spec.same_node(src, dst)
            if inter:
                egress_key = (spec.node_of(src), link.name)
                ingress_key = (spec.node_of(dst), link.name)
            else:
                egress_key = (src, link.name)
                ingress_key = (dst, link.name)
            info = (link, inter, egress_key, ingress_key)
            self._pair_cache[(src, dst)] = info
        return info

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        return self.clocks[rank].now

    def max_time(self, ranks: Sequence[int] | None = None) -> float:
        ranks = range(self.spec.world_size) if ranks is None else ranks
        return max(self.clocks[r].now for r in ranks)

    def compute(self, rank: int, seconds: float) -> None:
        """Charge ``rank`` with local computation time."""
        self.clocks[rank].advance(seconds * self.spec.compute_scale(rank))

    def barrier(self, ranks: Sequence[int] | None = None) -> float:
        """Synchronize ``ranks`` (default all) to the latest clock among them."""
        ranks = list(range(self.spec.world_size)) if ranks is None else list(ranks)
        latest = self.max_time(ranks)
        for r in ranks:
            self.clocks[r].advance_to(latest)
        return latest

    def reset(self) -> None:
        for clock in self.clocks:
            clock.reset()
        self.stats.reset()

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> Transport:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def exchange(self, messages: Sequence[Message]) -> dict[int, list[Message]]:
        """Deliver one round of messages; returns messages grouped by receiver.

        Clocks of senders advance past their egress serialization; clocks of
        receivers advance to the arrival of their last inbound message.
        Ranks not participating are untouched (decentralized algorithms rely
        on this: non-neighbors do not synchronize).
        """
        if not messages:
            # An empty round moves no bytes and synchronizes nobody; counting
            # it would skew round counts for algorithms where some ranks idle.
            return {}
        self.stats.rounds += 1
        # Stable match ids pair each send with its recv in recorded traces.
        # Primitives may pre-assign semantic ids; everything else gets a
        # deterministic per-round id here.
        round_id = self._round_counter
        self._round_counter += 1
        for i, message in enumerate(messages):
            if message.match_id is None:
                message.match_id = f"x{round_id}.{i}.{message.src}->{message.dst}"
            else:
                # Qualify semantic ids with the round so repeated invocations
                # of the same primitive stay uniquely pairable.
                message.match_id = f"x{round_id}:{message.match_id}"
        if self.tracer is not None:
            self.tracer.on_exchange(messages)
        egress_free: dict[tuple[int, str], float] = {}
        ingress_free: dict[tuple[int, str], float] = {}
        arrivals: dict[int, float] = {}

        sender_done: dict[int, float] = {}
        clocks = self.clocks
        stats = self.stats
        for message in messages:
            src = message.src
            dst = message.dst
            # Inter-node traffic serializes on the machine's NIC — all
            # workers of a node share it (one 10/25/100 Gbps port per
            # server, as on the AWS instances the paper models).  Intra-node
            # NVLink is point-to-point per worker.
            link, inter, egress_key, ingress_key = self._pair_info(src, dst)
            stats.record(message, inter)

            wire = link.wire_time(message.nbytes)
            start = max(clocks[src].now, egress_free.get(egress_key, 0.0))
            egress_free[egress_key] = start + wire
            sender_done[src] = max(sender_done.get(src, 0.0), start + wire)
            at_nic = start + link.latency_s + wire
            arrival = max(at_nic, ingress_free.get(ingress_key, 0.0) + wire)
            ingress_free[ingress_key] = arrival

            arrivals[dst] = max(arrivals.get(dst, 0.0), arrival)

        for rank, done_at in sender_done.items():
            clocks[rank].advance_to(done_at)
        for rank, arrival in arrivals.items():
            clocks[rank].advance_to(arrival)
        # Timing, stats and trace are settled; the backend now actually
        # hands the payloads to their receivers.
        return self.backend.route_round(messages)

    def exchange_sized(
        self, sends: Sequence[tuple[int, int, float, str | None]]
    ) -> None:
        """Deliver one round of *size-stub* messages: ``(src, dst, nbytes, match_id)``.

        The world-batched fast path computes collective results as ndarray
        kernels, so no payload needs to travel — but the round's timing,
        traffic accounting and trace must stay exactly what the loop
        implementation produces.  This method replays the same per-message
        arithmetic as :meth:`exchange` (same clock updates, same stats, same
        round-counter progression) without materializing :class:`Message`
        objects.  When a tracer is installed, real stub messages are built
        and routed through :meth:`exchange` so recorded traces are identical
        by construction.
        """
        if not sends:
            return
        if self.tracer is not None:
            self.exchange(
                [
                    Message(src, dst, None, nbytes=nbytes, match_id=match_id)
                    for src, dst, nbytes, match_id in sends
                ]
            )
            return
        self.stats.rounds += 1
        self._round_counter += 1

        clocks = self.clocks
        stats = self.stats
        sized_cache = self._sized_cache
        sized_get = sized_cache.get
        chain_slots = self._chain_slots
        world = self.spec.world_size
        # Per-round chain state as slot-indexed lists (None = chain untouched
        # this round, equivalent to an absent dict key in `exchange`).
        egress_end: list = [None] * len(chain_slots)
        ingress_end: list = [None] * len(chain_slots)
        sender_done: list = [None] * world
        arrivals: list = [None] * world
        # Clocks only move at the end of the round, so snapshot them once.
        nows = [c._now for c in clocks]
        # Seed the stat accumulators from the current totals so the per-send
        # accumulation sequence (and therefore every intermediate rounding)
        # is the one `exchange` performs.  Per-rank sent bytes are staged in
        # a list the same way; None marks "no entry and not touched" so that
        # ranks absent from the dict stay absent.
        messages_n = stats.messages
        total_b = stats.total_bytes
        inter_b = stats.inter_node_bytes
        intra_b = stats.intra_node_bytes
        sent = stats.per_rank_sent_bytes
        sent_acc: list = [None] * world
        for rank, value in sent.items():
            sent_acc[rank] = value
        for src, dst, nbytes, _match_id in sends:
            pair = src * world + dst
            info = sized_get(pair)
            if info is None:
                link, inter, egress_key, ingress_key = self._pair_info(src, dst)
                eg = chain_slots.setdefault(egress_key, len(chain_slots))
                ig = chain_slots.setdefault(ingress_key, len(chain_slots))
                while len(egress_end) < len(chain_slots):
                    egress_end.append(None)
                    ingress_end.append(None)
                info = (
                    inter,
                    eg,
                    ig,
                    link.latency_s,
                    link.ramp_bytes,
                    link.bandwidth_Bps,
                )
                sized_cache[pair] = info
            inter, eg, ig, latency, ramp, bandwidth = info
            # Inlined TrafficStats.record — identical accumulation order
            # (0.0 + x is bitwise x for the non-negative sizes sent here).
            messages_n += 1
            total_b += nbytes
            if inter:
                inter_b += nbytes
            else:
                intra_b += nbytes
            prev_sent = sent_acc[src]
            sent_acc[src] = nbytes if prev_sent is None else prev_sent + nbytes

            # Same expressions as `exchange`; the builtin max() calls become
            # inline comparisons (equal values either way), and the absent-key
            # defaults fold away: clocks and chain times are non-negative, and
            # a first arrival `at_nic = start + latency + wire` can never be
            # below the `0.0 + wire` an empty ingress chain would contribute.
            wire = (nbytes + ramp) / bandwidth
            now_src = nows[src]
            prev = egress_end[eg]
            start = now_src if (prev is None or now_src > prev) else prev
            end = start + wire
            egress_end[eg] = end
            prev_done = sender_done[src]
            if prev_done is None or end > prev_done:
                sender_done[src] = end
            at_nic = start + latency + wire
            prev_in = ingress_end[ig]
            if prev_in is not None:
                queued = prev_in + wire
                arrival = at_nic if at_nic > queued else queued
            else:
                arrival = at_nic
            ingress_end[ig] = arrival
            prev_arrival = arrivals[dst]
            if prev_arrival is None or arrival > prev_arrival:
                arrivals[dst] = arrival

        stats.messages = messages_n
        stats.total_bytes = total_b
        stats.inter_node_bytes = inter_b
        stats.intra_node_bytes = intra_b
        for rank in range(world):
            value = sent_acc[rank]
            if value is not None:
                sent[rank] = value
        for rank in range(world):
            done_at = sender_done[rank]
            if done_at is not None:
                clocks[rank].advance_to(done_at)
        for rank in range(world):
            arrival = arrivals[rank]
            if arrival is not None:
                clocks[rank].advance_to(arrival)
