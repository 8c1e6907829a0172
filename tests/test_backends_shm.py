"""SharedMemoryBackend unit tests: lifecycle, rings, pools, failures.

Bit-identity against the in-process oracle lives in
``test_backend_identity.py``; this file covers the multiprocess machinery
itself and the round delivery every backend shares.  Per-rank task functions are module-level on purpose — the shm
backend pickles them by reference into the worker processes.
"""

import os
import signal

import numpy as np
import pytest

from repro.cluster import ClusterSpec, Message, Transport
from repro.cluster.backends import (
    BACKEND_REGISTRY,
    BackendError,
    BatchedBackend,
    LocalBackend,
    SharedMemoryBackend,
    available_backends,
    resolve_backend,
)


def _spec(world: int) -> ClusterSpec:
    return ClusterSpec(num_nodes=1, workers_per_node=world)


#: The two ways a program reaches its worker: the default ring carries it
#: behind a flag-word doorbell; a 128-byte ring (56 bytes past the header
#: and seq stamp) fits no program, so every one travels as a ``batch``
#: pipe message — the oversize fallback.
_PROGRAM_DELIVERY = pytest.mark.parametrize(
    "ring_bytes", [1 << 22, 128], ids=["batched", "pipe"]
)


def scale_task(pool, factor):
    pool *= factor
    return float(pool.sum())


def echo_task(pool, value):
    return value


def boom_task(pool):
    raise ValueError("boom from the worker")


def boom_on_rank0_task(pool, rank, value):
    if rank == 0:
        raise ValueError("boom from rank 0")
    return value


class TestRegistry:
    def test_names(self):
        assert available_backends() == ["batched", "local", "shm"]
        assert set(BACKEND_REGISTRY) == {"local", "batched", "shm"}

    def test_resolve_by_name(self):
        spec = _spec(2)
        assert isinstance(resolve_backend("local", spec), LocalBackend)
        assert isinstance(resolve_backend("batched", spec), BatchedBackend)
        shm = resolve_backend("shm", spec)
        assert isinstance(shm, SharedMemoryBackend)
        assert shm.world_size == 2
        shm.close()

    def test_resolve_default_is_batched(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, _spec(2)).name == "batched"

    def test_resolve_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "local")
        assert resolve_backend(None, _spec(2)).name == "local"

    def test_resolve_instance_passthrough(self):
        backend = LocalBackend()
        assert resolve_backend(backend, _spec(2)) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown transport backend"):
            resolve_backend("carrier-pigeon", _spec(2))

    def test_transport_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "local")
        assert Transport(_spec(2)).backend.name == "local"

    def test_kernel_preferences(self):
        assert LocalBackend.prefers_fast_path is False
        assert BatchedBackend.prefers_fast_path is True
        assert SharedMemoryBackend.prefers_fast_path is True


class TestLocalBackend:
    def test_route_round_groups_in_order(self):
        backend = LocalBackend()
        messages = [
            Message(0, 1, "a"),
            Message(2, 1, "b"),
            Message(0, 2, "c"),
        ]
        inbox = backend.route_round(messages)
        assert [m.payload for m in inbox[1]] == ["a", "b"]
        assert [m.payload for m in inbox[2]] == ["c"]
        assert inbox[1][0] is messages[0]  # in-process hand-off, no copy

    def test_serial_tasks_use_pools(self):
        backend = LocalBackend()
        pool = backend.allocate_pool(0, 4)
        pool[:] = 2.0
        results = backend.run_rank_tasks(scale_task, {0: (3.0,)})
        assert results == {0: 24.0}
        assert pool[0] == 6.0


class TestShmLifecycle:
    def test_lazy_start_and_idempotent_close(self):
        backend = SharedMemoryBackend(2)
        assert not backend._started
        backend.ensure_started()
        assert backend._started
        assert all(h.process.is_alive() for h in backend._workers.values())
        pids = [h.process.pid for h in backend._workers.values()]
        backend.close()
        backend.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_context_manager(self):
        with SharedMemoryBackend(2) as backend:
            backend.ensure_started()
            handles = list(backend._workers.values())
        assert all(not h.process.is_alive() for h in handles)

    def test_use_after_close_raises(self):
        backend = SharedMemoryBackend(2)
        backend.ensure_started()
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.ensure_started()

    def test_world_size_validated(self):
        backend = SharedMemoryBackend(2)
        with pytest.raises(ValueError, match="serves 2 ranks"):
            Transport(_spec(3), backend=backend)
        backend.close()

    def test_transport_close_closes_backend(self):
        transport = Transport(_spec(2), backend="shm")
        transport.backend.ensure_started()
        with Transport(_spec(2), backend="local"):
            pass
        transport.close()
        assert transport.backend._closed

    def test_dead_worker_detected_and_cleaned_up(self):
        backend = SharedMemoryBackend(2, timeout_s=30.0)
        Transport(_spec(2), backend=backend)
        assert backend.run_rank_tasks(echo_task, {1: (3,)}) == {1: 3}
        victim = backend._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        # Detected before the post (liveness check) or while awaiting the
        # ack (liveness poll).
        with pytest.raises(BackendError, match="died|pipe is gone"):
            backend.run_rank_tasks(echo_task, {1: (4,)})
        assert backend._closed  # orphan cleanup ran


class TestShmPayloads:
    @pytest.fixture(scope="class")
    def transport(self):
        with Transport(_spec(2), backend="shm") as transport:
            yield transport

    def _roundtrip(self, transport, payload):
        return transport.exchange([Message(0, 1, payload)])[1][0].payload

    def test_f64_raw_bitwise(self, transport):
        sent = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300])
        got = self._roundtrip(transport, sent)
        assert got.dtype == np.float64
        assert sent.tobytes() == got.tobytes()  # bit-for-bit, incl. -0.0/NaN
        # Every backend delivers the sender's object in-process.
        assert got is sent

    def test_non_contiguous_and_other_dtypes(self, transport):
        strided = np.arange(10.0)[::2]
        assert np.array_equal(self._roundtrip(transport, strided), strided)
        f32 = np.arange(4, dtype=np.float32)
        got = self._roundtrip(transport, f32)
        assert got.dtype == np.float32 and np.array_equal(got, f32)

    def test_structured_payloads(self, transport):
        payload = {"k": np.float32(2.5), "v": [1, (2, np.arange(3.0))], "e": ()}
        got = self._roundtrip(transport, payload)
        assert got["k"] == np.float32(2.5)
        assert np.array_equal(got["v"][1][1], np.arange(3.0))
        assert got["e"] == ()

    def test_ring_reused_across_many_programs(self, transport):
        # Every program and reply reuses its ring's single record slot; the
        # seq stamps keep each call's data apart.
        for i in range(300):
            got = transport.backend.run_rank_tasks(echo_task, {1: (np.full(1024, float(i)),)})
            assert got[1][0] == float(i) and got[1].shape == (1024,)

    def test_oversize_payload_falls_back_inline(self):
        with Transport(_spec(2), backend=SharedMemoryBackend(2, ring_bytes=1 << 14)) as tr:
            backend = tr.backend
            big = np.random.default_rng(0).standard_normal(1 << 12)  # 32 KiB > ring
            got = backend.run_rank_tasks(echo_task, {1: (big,)})[1]
            assert got.tobytes() == big.tobytes()
            # The program travelled over the pipe; so did its reply.
            assert backend.shm_stats["pipe_batch_fallbacks"] == 1
            assert backend.shm_stats["flag_doorbells"] == 0

    def test_round_order_preserved_per_destination(self, transport):
        inbox = transport.exchange(
            [Message(0, 1, ("first", 1)), Message(0, 1, ("second", 2))]
        )
        assert [m.payload[0] for m in inbox[1]] == ["first", "second"]


class TestPrograms:
    def test_routed_rounds_start_no_worker(self):
        # Rounds are delivered in-process on every backend: 64 of them
        # through shm spawn no worker and ring no doorbell.
        with Transport(_spec(2), backend="shm") as transport:
            for i in range(64):
                got = transport.exchange([Message(0, 1, np.full(16, float(i)))])
                assert got[1][0].payload[0] == float(i)
            info = transport.backend.describe()
            assert info["started"] is False
            assert info["flag_doorbells"] == 0
            assert info["batches"] == 0

    def test_describe_reports_batch_mode(self):
        # One task call on two ranks: one program, one flag-word doorbell
        # per worker.
        with Transport(_spec(2), backend="shm") as transport:
            transport.backend.run_rank_tasks(echo_task, {0: (1,), 1: (2,)})
            info = transport.backend.describe()
            assert info["batches"] == info["flag_doorbells"] == 2
            assert info["tasks"] == 2
            assert info["pipe_batch_fallbacks"] == 0


@pytest.mark.parametrize("backend", ["local", "batched", "shm"])
@pytest.mark.parametrize("rank", [5, -1])
def test_out_of_world_task_rank_raises(backend, rank):
    with Transport(_spec(2), backend=backend) as transport:
        with pytest.raises(ValueError, match=f"rank {rank} outside world of 2"):
            transport.backend.run_rank_tasks(echo_task, {0: (1,), rank: (2,)})
        if backend == "shm":
            assert transport.backend.describe()["started"] is False


class TestShmPoolsAndTasks:
    def test_pool_shared_with_worker(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(0, 8)
            pool[:] = np.arange(8.0)
            results = backend.run_rank_tasks(scale_task, {0: (2.0,)})
            assert results == {0: float(np.arange(8.0).sum() * 2.0)}
            # The worker's in-place write is visible through the parent view.
            assert np.array_equal(pool, np.arange(8.0) * 2.0)

    def test_pool_reallocation_replaces_mapping(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            backend.allocate_pool(0, 4)[:] = 1.0
            new = backend.allocate_pool(0, 6)
            new[:] = 5.0
            assert backend.run_rank_tasks(scale_task, {0: (1.0,)}) == {0: 30.0}

    def test_tasks_run_on_requested_ranks_only(self):
        with Transport(_spec(2), backend="shm") as transport:
            results = transport.backend.run_rank_tasks(echo_task, {1: ("only-me",)})
            assert results == {1: "only-me"}

    def test_task_error_propagates_with_traceback(self):
        with Transport(_spec(2), backend="shm") as transport:
            with pytest.raises(BackendError, match="boom from the worker"):
                transport.backend.run_rank_tasks(boom_task, {0: ()})
            # A failed task does not kill the worker; the backend stays usable.
            assert transport.backend.run_rank_tasks(echo_task, {0: (7,)}) == {0: 7}

    def test_error_on_one_rank_still_drains_the_others(self):
        # Rank 1's reply is too large for the ring and travels by pipe; it
        # must be drained although rank 0 failed, or the next pipe ack read
        # from rank 1 (the pool mapping below) would be that stale reply.
        backend = SharedMemoryBackend(2, ring_bytes=1 << 14)
        with Transport(_spec(2), backend=backend):
            big = np.arange(4096.0)
            with pytest.raises(BackendError, match="boom from rank 0"):
                backend.run_rank_tasks(boom_on_rank0_task, {0: (0, big), 1: (1, big)})
            backend.allocate_pool(1, 4)[:] = 2.0
            assert backend.run_rank_tasks(scale_task, {1: (3.0,)}) == {1: 24.0}

    def test_describe_reports_shm_facts(self):
        with Transport(_spec(2), backend="shm") as transport:
            transport.backend.ensure_started()
            info = transport.backend.describe()
            assert info["name"] == "shm"
            assert info["world_size"] == 2
            assert info["started"] is True
            assert info["start_method"] in ("fork", "spawn")


class TestPoolRefReduce:
    """PoolRef resolution and the in-place worker-parallel reduction (PR 10)."""

    def test_pool_ref_resolution(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pool = backend.allocate_pool(0, 16)
            ref = backend.pool_ref(pool)
            assert (ref.rank, ref.offset, ref.length) == (0, 0, 16)
            sub = backend.pool_ref(pool[2:6])  # interior dense view
            assert (sub.rank, sub.offset, sub.length) == (0, 2, 4)
            assert backend.pool_ref(np.arange(4.0)) is None  # owns its storage
            assert backend.pool_ref(pool[::2]) is None  # strided
            assert backend.pool_ref(pool.astype(np.float32)) is None  # dtype
            assert backend.pool_ref(pool[0:0]) is None  # empty

    def test_resolve_pool_refs_requires_ownership_and_uniform_length(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pools = [backend.allocate_pool(rank, 8) for rank in range(2)]
            refs = backend.resolve_pool_refs(pools, [0, 1])
            assert refs is not None and [r.rank for r in refs] == [0, 1]
            # Member 0's array in rank 1's pool breaks the ownership
            # assumption the chunk schedule relies on.
            assert backend.resolve_pool_refs([pools[1], pools[0]], [0, 1]) is None
            # Non-uniform lengths cannot share one chunk layout.
            assert backend.resolve_pool_refs([pools[0][:4], pools[1]], [0, 1]) is None
            # Any non-pool member keeps the whole collective on the codec path.
            assert backend.resolve_pool_refs([pools[0], np.arange(8.0)], [0, 1]) is None

    @_PROGRAM_DELIVERY
    @pytest.mark.parametrize("add_zero", [True, False], ids=["add-zero", "plain"])
    def test_worker_parallel_reduce_matches_serial_fold(self, ring_bytes, add_zero):
        world = 3
        backend = SharedMemoryBackend(world, ring_bytes=ring_bytes)
        with Transport(_spec(world), backend=backend):
            rng = np.random.default_rng(61)
            pools = [backend.allocate_pool(rank, 12) for rank in range(world)]
            base = [rng.standard_normal(12) for _ in range(world)]
            for pool, data in zip(pools, base):
                pool[:] = data
            refs = backend.resolve_pool_refs(pools, list(range(world)))
            # Per-chunk fold orders: chunk j folds members rotated by j.
            bounds = [(0, 4), (4, 8), (8, 12)]
            chunks = [
                (lo, hi, tuple((j + t) % world for t in range(world)))
                for j, (lo, hi) in enumerate(bounds)
            ]
            backend.pool_ref_reduce(refs, chunks, add_zero=add_zero)
            for j, (lo, hi, order) in enumerate(chunks):
                acc = base[order[0]][lo:hi].copy()
                for member in order[1:]:
                    acc += base[member][lo:hi]
                if add_zero:
                    acc += 0.0
                for pool in pools:  # broadcast: every member's slice updated
                    assert pool[lo:hi].tobytes() == acc.tobytes()
            assert backend.shm_stats["reduces"] == world
            piped = backend.shm_stats["pipe_batch_fallbacks"] > 0
            assert piped == (ring_bytes == 128)

    def test_chunk_count_mismatch_raises(self):
        with Transport(_spec(2), backend="shm") as transport:
            backend = transport.backend
            pools = [backend.allocate_pool(rank, 8) for rank in range(2)]
            refs = backend.resolve_pool_refs(pools, [0, 1])
            with pytest.raises(ValueError, match="chunk"):
                backend.pool_ref_reduce(refs, [(0, 8, (0, 1))], add_zero=False)
