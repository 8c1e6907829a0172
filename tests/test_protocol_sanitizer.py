"""Cross-process conformance sanitizer: live streams, divergences, teardown.

The runtime half of ISSUE 8: with sanitize mode on, every backend emits a
:class:`ProtocolEvent` stream from each participating OS process (workers
piggyback theirs on the acks), and
:func:`repro.analysis.protocol.sanitizer.check_events` replays the stream
against the protocol model with vector clocks extended across processes.

* clean live runs — shm, local, batched, and a sanitized end-to-end
  trainer on the multiprocess backend — replay with zero findings;
* doctored streams (one per sanitizer rule, planspace convention) each
  yield exactly one located root-cause finding;
* every legal relinearization of a real stream — a Hypothesis-driven
  merge respecting program order and the pipe delivery edges — stays
  clean (the clocks, not the accidental buffer order, carry the proof);
* ``SharedMemoryBackend.__del__`` stays silent when the interpreter is
  shutting down (construct-and-drop leaves no stderr noise).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AllreduceSGD
from repro.analysis.protocol import check_events
from repro.analysis.protocol.model import (
    RULE_BARRIER,
    RULE_BUDGET,
    RULE_CONFORMANCE,
    RULE_DELIVERY,
    RULE_LIFECYCLE,
    RULE_LOST_WAKEUP,
    RULE_ORPHAN,
    RULE_SEQ,
)
from repro.cluster import ClusterSpec, make_workers
from repro.cluster.backends import SharedMemoryBackend
from repro.cluster.backends.base import BackendError, ProtocolEvent
from repro.cluster.backends.local import BatchedBackend, LocalBackend
from repro.cluster.transport import Message
from repro.core import BaguaConfig, BaguaEngine
from repro.tensor import SGD, Linear, ReLU, Sequential, Tensor
from repro.tensor import functional as F


def _task(pool, x):
    """Module-level so shm workers can pickle it by reference."""
    return x * 2


def _loss_fn(model, batch):
    inputs, labels = batch
    return F.cross_entropy(model(Tensor(inputs)), labels)


def _drive(backend) -> list[ProtocolEvent]:
    """One of everything: pool, two rounds (in-process), tasks, graceful close."""
    backend.allocate_pool(0, 8)
    for round_index in range(2):
        messages = [
            Message(
                src=src,
                dst=(src + 1) % 2,
                payload=np.arange(4, dtype=np.float64) + src,
                nbytes=32,
                match_id=f"r{round_index}s{src}",
            )
            for src in range(2)
        ]
        backend.route_round(messages)
    backend.run_rank_tasks(_task, {0: (5,), 1: (7,)})
    backend.close()
    return backend.protocol_events


@pytest.fixture(scope="module")
def shm_stream() -> list[ProtocolEvent]:
    # Pool mapping over the pipe, then the tasks as one flag-word program
    # per rank, then the close doorbells; the rounds never reach a worker.
    return _drive(SharedMemoryBackend(world_size=2, ring_bytes=1 << 16, sanitize=True))


def the_one_finding(findings):
    assert len(findings) == 1, [f.render() for f in findings]
    (finding,) = findings
    assert finding.location(), finding.render()
    return finding


# ----------------------------------------------------------------------
# Clean live runs replay clean.
# ----------------------------------------------------------------------
class TestLiveConformance:
    def test_sanitized_shm_stream_is_clean(self, shm_stream):
        assert shm_stream, "sanitize mode recorded no events"
        assert check_events(shm_stream) == []

    def test_stream_has_both_sides_of_the_pipes(self, shm_stream):
        procs = {event.proc for event in shm_stream}
        assert procs == {"parent", "worker:0", "worker:1"}

    @pytest.mark.parametrize("backend_cls", [LocalBackend, BatchedBackend])
    def test_in_process_backends_record_no_events(self, backend_cls):
        # No doorbells or acks cross a process boundary in-process, so
        # sanitize mode has nothing to observe.
        backend = backend_cls()
        backend.set_protocol_sanitize(True)
        assert backend.sanitizing
        assert _drive(backend) == []

    def test_sanitize_defaults_off_and_records_nothing(self):
        backend = LocalBackend()
        assert not backend.sanitizing
        _drive(backend)
        assert backend.protocol_events == []

    def test_env_var_opts_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROTOCOL_SANITIZE", "1")
        assert LocalBackend().sanitizing
        monkeypatch.setenv("REPRO_PROTOCOL_SANITIZE", "0")
        assert not LocalBackend().sanitizing

    def test_shm_sanitize_flag_fixed_after_start(self):
        with SharedMemoryBackend(world_size=1, ring_bytes=1 << 14) as backend:
            backend.ensure_started()
            with pytest.raises(BackendError):
                backend.set_protocol_sanitize(True)

    def test_sanitized_end_to_end_trainer_run_is_clean(self):
        spec = ClusterSpec(num_nodes=1, workers_per_node=2)
        workers = make_workers(spec, backend="shm")
        rng = np.random.default_rng(0)
        models = [
            Sequential(
                Linear(6, 8, rng=np.random.default_rng(1)),
                ReLU(),
                Linear(8, 3, rng=np.random.default_rng(2)),
            )
            for _ in range(2)
        ]
        optimizers = [SGD(m.parameters(), lr=0.05) for m in models]
        config = BaguaConfig(backend="shm", protocol_sanitize=True)
        engine = BaguaEngine(models, optimizers, AllreduceSGD(), workers, config=config)
        backend = workers[0].transport.backend
        assert backend.sanitizing

        for _ in range(2):
            batches = [
                (rng.standard_normal((4, 6)), rng.integers(0, 3, size=4))
                for _ in range(2)
            ]
            engine.step(batches, _loss_fn)
        backend.close()
        assert backend.protocol_events, "trainer run recorded no protocol events"
        findings = backend.conformance_findings()
        assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# Doctored streams: one divergence, one located root-cause finding.
# ----------------------------------------------------------------------
def _batch_post(stream, rank):
    return next(e for e in stream if e.kind == "post" and e.op == "batch" and e.rank == rank)


def _drop_batch_ack(stream):
    return [
        e for e in stream
        if not (e.kind == "ack_send" and e.proc == "worker:1" and e.op == "batch")
    ]


def _lose_close_doorbell(stream):
    # The worker never wakes for its close: none of its close-serving
    # events (recv / exit / ack_send) ever happen, so the parent also has
    # nothing to join and nothing to unlink for that rank.
    close_seq = next(
        e.seq for e in stream if e.kind == "post" and e.op == "close" and e.rank == 1
    )
    return [
        e for e in stream
        if not (e.proc == "worker:1" and (e.seq == close_seq or e.kind == "exit"))
        and not (e.kind == "ack_recv" and e.rank == 1 and e.seq == close_seq)
        and not (e.kind == "unlink" and e.rank == 1)
    ]


def _skip_barrier(stream):
    seq = _batch_post(stream, 1).seq
    ack = next(e for e in stream if e.kind == "ack_recv" and e.rank == 1 and e.seq == seq)
    return [e for e in stream if e is not ack]


def _reuse_seq(stream):
    # The batch doorbell reuses the seq of the pool doorbell before it.
    victim = _batch_post(stream, 1)
    return [replace(e, seq=victim.seq - 1) if e is victim else e for e in stream]


def _misdeliver(stream):
    victim = next(
        e for e in stream if e.kind == "recv" and e.proc == "worker:1" and e.op == "batch"
    )
    return [replace(e, rank=0) if e is victim else e for e in stream]


def _unlink_early(stream):
    unlink = next(e for e in stream if e.kind == "unlink" and e.rank == 1)
    rest = [e for e in stream if e is not unlink]
    cut = next(i for i, e in enumerate(rest) if e.kind == "post" and e.op == "close")
    return rest[:cut] + [unlink] + rest[cut:]


def _abandon_worker(stream):
    # No close exchange, no exit, no unlink for rank 0: the worker is
    # simply forgotten.
    close_seq = next(
        e.seq for e in stream if e.kind == "post" and e.op == "close" and e.rank == 0
    )
    return [
        e for e in stream
        if not (e.rank == 0 and e.seq == close_seq)
        and not (e.proc == "worker:0" and e.kind == "exit")
        and not (e.kind == "unlink" and e.rank == 0)
    ]


def _overflow_budget(stream):
    victim = _batch_post(stream, 1)
    return [replace(e, detail=(3, 1 << 20, 0)) if e is victim else e for e in stream]


def _phantom_doorbell(stream):
    # The parent neither staged nor posted batch seq 1 for rank 1, yet the
    # worker served it.
    seq = _batch_post(stream, 1).seq
    return [
        e for e in stream
        if not (e.proc == "parent" and e.kind in ("stage", "post") and e.rank == 1 and e.seq == seq)
    ]


_DOCTORS = [
    ("dropped-ack", _drop_batch_ack, RULE_LOST_WAKEUP),
    ("lost-doorbell", _lose_close_doorbell, RULE_LOST_WAKEUP),
    ("skipped-barrier", _skip_barrier, RULE_BARRIER),
    ("reused-seq", _reuse_seq, RULE_SEQ),
    ("wrong-rank-delivery", _misdeliver, RULE_DELIVERY),
    ("early-unlink", _unlink_early, RULE_LIFECYCLE),
    ("orphaned-worker", _abandon_worker, RULE_ORPHAN),
    ("budget-overflow", _overflow_budget, RULE_BUDGET),
    ("phantom-doorbell", _phantom_doorbell, RULE_CONFORMANCE),
]


class TestDoctoredStreams:
    @pytest.mark.parametrize(
        "doctor,expected_rule",
        [(d, r) for _, d, r in _DOCTORS],
        ids=[name for name, _, _ in _DOCTORS],
    )
    def test_each_divergence_yields_its_root_cause(self, shm_stream, doctor, expected_rule):
        findings = check_events(doctor(list(shm_stream)))
        finding = the_one_finding(findings)
        assert finding.rule == expected_rule, finding.render()
        assert finding.severity == "error"

    def test_witnesses_cite_observed_events(self, shm_stream):
        findings = check_events(_reuse_seq(list(shm_stream)))
        finding = the_one_finding(findings)
        assert any("observed:" in line for line in finding.witness), finding.explain()


# ----------------------------------------------------------------------
# Batched flag-word streams: clean replay + doctored divergences.
# ----------------------------------------------------------------------
class TestBatchedStreams:
    def test_sanitized_batched_stream_is_clean(self, shm_stream):
        assert shm_stream, "sanitize mode recorded no events"
        assert check_events(shm_stream) == []

    def test_batched_stream_stages_then_flushes(self, shm_stream):
        stages = [e for e in shm_stream if e.kind == "stage"]
        batch_posts = [
            e for e in shm_stream if e.kind == "post" and e.op == "batch"
        ]
        assert stages, "batched run recorded no stage events"
        assert batch_posts, "batched run recorded no batch doorbells"
        covered = {(e.rank, e.seq) for e in batch_posts}
        assert {(e.rank, e.seq) for e in stages} <= covered

    def test_dropped_batch_post_is_a_barrier_bug(self, shm_stream):
        victim = next(
            e for e in shm_stream
            if e.kind == "post" and e.op == "batch" and e.rank == 1
        )
        doctored = [e for e in shm_stream if e is not victim]
        finding = the_one_finding(check_events(doctored))
        assert finding.rule == RULE_BARRIER, finding.render()
        assert "never flushed" in finding.message

    def test_dropped_batch_ack_is_a_lost_wakeup(self, shm_stream):
        victim = next(
            e for e in shm_stream
            if e.kind == "ack_send" and e.op == "batch" and e.proc == "worker:1"
        )
        doctored = [e for e in shm_stream if e is not victim]
        finding = the_one_finding(check_events(doctored))
        assert finding.rule == RULE_LOST_WAKEUP, finding.render()


# ----------------------------------------------------------------------
# Every legal relinearization replays clean (the clocks carry the proof).
# ----------------------------------------------------------------------
def _legal_merges(stream, data):
    """Randomly merge per-proc sequences, respecting pipe delivery edges."""
    queues: dict[str, list[ProtocolEvent]] = {}
    for event in stream:
        queues.setdefault(event.proc, []).append(event)
    posted: set[tuple] = set()
    acked: set[tuple] = set()
    merged: list[ProtocolEvent] = []

    def enabled(proc: str) -> bool:
        event = queues[proc][0]
        if event.kind == "recv":
            return ("post", event.rank, event.seq) in posted
        if event.kind == "ack_recv":
            return ("ack_send", event.rank, event.seq) in acked
        return True

    while any(queues.values()):
        ready = sorted(p for p, q in queues.items() if q and enabled(p))
        assert ready, "no enabled process: the source stream violated HB"
        proc = data.draw(st.sampled_from(ready), label="next proc")
        event = queues[proc].pop(0)
        if event.kind == "post":
            posted.add(("post", event.rank, event.seq))
        elif event.kind == "ack_send":
            acked.add(("ack_send", event.rank, event.seq))
        merged.append(event)
    return merged


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_legal_relinearizations_replay_clean(shm_stream, data):
    stream = shm_stream
    assert stream, "sanitize mode recorded no events"
    merged = _legal_merges(stream, data)
    assert len(merged) == len(stream)
    assert check_events(merged) == []


# ----------------------------------------------------------------------
# __del__ at interpreter shutdown stays silent.
# ----------------------------------------------------------------------
class TestShutdownHardening:
    @pytest.mark.parametrize("start", [False, True], ids=["unstarted", "started"])
    def test_construct_and_drop_at_exit_is_silent(self, start):
        script = (
            "from repro.cluster.backends.shm import SharedMemoryBackend\n"
            f"backend = SharedMemoryBackend(world_size=2, ring_bytes=1 << 14)\n"
            + ("backend.ensure_started()\n" if start else "")
            + "# dropped without close(): atexit + __del__ must stay silent\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "", proc.stderr
        assert proc.stdout.strip() == "", proc.stdout

    def test_del_is_noop_while_finalizing(self):
        backend = SharedMemoryBackend(world_size=1, ring_bytes=1 << 14)
        closed = []
        backend.close = lambda: closed.append(True)  # type: ignore[method-assign]
        real = sys.is_finalizing
        sys.is_finalizing = lambda: True  # type: ignore[assignment]
        try:
            backend.__del__()
        finally:
            sys.is_finalizing = real
        assert closed == []
        backend.__del__()
        assert closed == [True]
