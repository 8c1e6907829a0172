"""Bit-identity contract of the world-batched fast path (PR 5).

The batched kernels in :mod:`repro.comm.batched` must be observationally
indistinguishable from the per-rank loop reference: same result bits, same
virtual clocks, same traffic statistics, same round counters, same
compressor RNG streams and error-feedback residuals, and — through the
analysis stack — identical lowered schedules and happens-before reports.
These tests drive both implementations side by side over every collective
x compressor combination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, Transport
from repro.cluster.netmodel import TCP_25G
from repro.comm import CommGroup, chunk_bounds, ring_allreduce, scatter_reduce
from repro.comm.fastpath import resolve_fast_path, use_fast_path
from repro.compression import (
    ErrorFeedback,
    OneBitCompressor,
    QSGDCompressor,
    SignSGDCompressor,
    TernGradCompressor,
    TopKCompressor,
)
from repro.core.primitives import (
    RandomPeers,
    RingPeers,
    c_fp_s,
    c_lp_s,
    d_fp_s,
    d_lp_s,
)

# Codec factories: fresh instances per run so RNG streams start identical.
CODEC_FACTORIES = {
    "qsgd8": lambda: QSGDCompressor(bits=8, rng=np.random.default_rng(3)),
    "qsgd4": lambda: QSGDCompressor(bits=4, rng=np.random.default_rng(11)),
    "onebit": OneBitCompressor,
    "terngrad": lambda: TernGradCompressor(rng=np.random.default_rng(5)),
    "topk": lambda: TopKCompressor(ratio=0.25),
    "signsgd": SignSGDCompressor,
}


def _group(world: int, backend: str = "batched") -> CommGroup:
    """Multi-node when divisible into nodes of 4 (mixes NVLink + TCP fabrics)."""
    if world > 4 and world % 4 == 0:
        spec = ClusterSpec(
            num_nodes=world // 4, workers_per_node=4, inter_node=TCP_25G
        )
    else:
        spec = ClusterSpec(num_nodes=1, workers_per_node=world, inter_node=TCP_25G)
    return CommGroup(Transport(spec, backend=backend), list(range(world)))


def _transport_state(group: CommGroup) -> tuple:
    transport = group.transport
    stats = transport.stats
    return (
        [clock.now for clock in transport.clocks],
        stats.messages,
        stats.rounds,
        stats.total_bytes,
        stats.inter_node_bytes,
        stats.intra_node_bytes,
        dict(stats.per_rank_sent_bytes),
        transport._round_counter,
    )


def _assert_identical(loop_out, fast_out, loop_group, fast_group):
    assert len(loop_out) == len(fast_out)
    for a, b in zip(loop_out, fast_out):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), "fast path result bits differ from loop"
        # array_equal treats -0.0 == 0.0; the contract is bit-for-bit.
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert _transport_state(loop_group) == _transport_state(fast_group)


def _compare(world: int, length: int, seed: int, run) -> None:
    rng = np.random.default_rng(seed)
    base = [rng.standard_normal(length) for _ in range(world)]
    loop_group, fast_group = _group(world), _group(world)
    loop_out = run(loop_group, [a.copy() for a in base], False)
    fast_out = run(fast_group, [a.copy() for a in base], True)
    _assert_identical(loop_out, fast_out, loop_group, fast_group)


class TestCollectiveIdentity:
    """scatter_reduce / ring_allreduce: fast == loop for arbitrary inputs."""

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(2, 9),
        length=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    def test_scatter_reduce(self, world, length, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: scatter_reduce(arrs, g, fast_path=fp),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(2, 9),
        length=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    def test_ring_allreduce(self, world, length, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: ring_allreduce(arrs, g, fast_path=fp),
        )

    def test_multi_node_worlds(self):
        # Worlds of 8 and 16 span two fabrics (NVLink intra, TCP inter);
        # one rank sends on both in a single round, the regime where chain
        # bookkeeping is least trivial.
        for world in (8, 16):
            _compare(
                world, 257, world,
                lambda g, arrs, fp: scatter_reduce(arrs, g, fast_path=fp),
            )

    def test_c_fp_s_routes_through_default(self):
        # c_fp_s has no fast_path parameter: it follows the global switch.
        rng = np.random.default_rng(0)
        base = [rng.standard_normal(100) for _ in range(4)]
        loop_group, fast_group = _group(4), _group(4)
        with use_fast_path(False):
            loop_out = c_fp_s([a.copy() for a in base], loop_group)
        with use_fast_path(True):
            fast_out = c_fp_s([a.copy() for a in base], fast_group)
        _assert_identical(loop_out, fast_out, loop_group, fast_group)


class TestCompressorMatrix:
    """Every collective x compressor combination, both directions."""

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(2, 120),
        seed=st.integers(0, 2**31),
    )
    def test_c_lp_s(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(
            world, length, seed,
            lambda g, arrs, fp: c_lp_s(arrs, g, make(), fast_path=fp),
        )

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    @settings(max_examples=15, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(2, 120),
        seed=st.integers(0, 2**31),
    )
    def test_d_lp_s_ring(self, codec_name, world, length, seed):
        make = CODEC_FACTORIES[codec_name]
        _compare(
            world, length, seed,
            lambda g, arrs, fp: d_lp_s(arrs, g, make(), RingPeers(), fast_path=fp),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        world=st.integers(2, 8),
        length=st.integers(1, 120),
        step=st.integers(0, 5),
        seed=st.integers(0, 2**31),
    )
    def test_d_fp_s_random_peers(self, world, length, step, seed):
        _compare(
            world, length, seed,
            lambda g, arrs, fp: d_fp_s(
                arrs, g, RandomPeers(seed=7), step=step, fast_path=fp
            ),
        )

    @pytest.mark.parametrize("codec_name", sorted(CODEC_FACTORIES))
    def test_c_lp_s_error_feedback_two_steps(self, codec_name):
        # Error feedback carries residual state across steps; both paths
        # must leave the stores bit-identical after a multi-step run.
        world, length = 4, 97
        make = CODEC_FACTORIES[codec_name]
        rng = np.random.default_rng(13)
        steps = [
            [rng.standard_normal(length) for _ in range(world)] for _ in range(2)
        ]
        outs, efs = {}, {}
        for fast in (False, True):
            group = _group(world)
            codec = make()
            workers = [ErrorFeedback(make()) for _ in range(world)]
            servers = [ErrorFeedback(make()) for _ in range(world)]
            outs[fast] = [
                c_lp_s(
                    [a.copy() for a in arrays], group, codec,
                    worker_errors=workers, server_errors=servers,
                    fast_path=fast,
                )
                for arrays in steps
            ]
            efs[fast] = (workers, servers)
        for step_loop, step_fast in zip(outs[False], outs[True]):
            for a, b in zip(step_loop, step_fast):
                assert np.array_equal(a, b)
        for ef_loop, ef_fast in zip(efs[False][0] + efs[False][1],
                                    efs[True][0] + efs[True][1]):
            assert set(ef_loop._residuals) == set(ef_fast._residuals)
            for key, value in ef_loop._residuals.items():
                assert np.array_equal(value, ef_fast._residuals[key])


class TestHierarchicalIdentity:
    @pytest.mark.parametrize("codec_name", ["qsgd8", "onebit"])
    def test_hierarchical_c_lp_s(self, codec_name):
        make = CODEC_FACTORIES[codec_name]
        _compare(
            8, 129, 5,
            lambda g, arrs, fp: c_lp_s(
                arrs, g, make(), hierarchical=True, fast_path=fp
            ),
        )


class TestScheduleAndAnalysisUnchanged:
    """The fast path must not perturb lowered schedules or HB reports."""

    def test_analyze_hb_identical_across_paths(self):
        from repro.analysis import analyze_algorithm

        reports = {}
        for fast in (False, True):
            with use_fast_path(fast):
                reports[fast] = analyze_algorithm(
                    "allreduce", steps=2, hb=True
                ).to_dict()
        assert reports[False] == reports[True]
        assert reports[True]["ok"]

    def test_traced_rounds_identical(self):
        # With a tracer installed the fast path routes stub messages
        # through exchange(), so recorded rounds must match the loop's
        # message for message.
        class _Recorder:
            def __init__(self):
                self.rounds = []

            def on_exchange(self, messages):
                self.rounds.append(
                    [(m.src, m.dst, m.nbytes, m.match_id) for m in messages]
                )

        rng = np.random.default_rng(2)
        base = [rng.standard_normal(50) for _ in range(4)]
        traces = {}
        for fast in (False, True):
            group = _group(4)
            recorder = _Recorder()
            group.transport.tracer = recorder
            scatter_reduce([a.copy() for a in base], group, fast_path=fast)
            traces[fast] = recorder.rounds
        assert traces[False] == traces[True]


class TestFastPathSwitch:
    def test_default_enabled(self):
        # Without a transport to ask, the kernels default to the fast path.
        assert resolve_fast_path(None) is True

    def test_engine_config_controls_path(self):
        from repro.core.optimizer_framework import BaguaConfig

        # Default defers to the transport backend's kernel preference.
        assert BaguaConfig().fast_path is None
        assert BaguaConfig(fast_path=True).fast_path is True
        assert BaguaConfig(fast_path=False).fast_path is False

    def test_backend_preference_resolves_default(self):
        loop_group = _group(2, backend="local")
        fast_group = _group(2, backend="batched")
        assert resolve_fast_path(None, loop_group.transport) is False
        assert resolve_fast_path(None, fast_group.transport) is True
        # The context manager overrides the preference, nests, and restores
        # the backend default on exit...
        with use_fast_path(True):
            assert resolve_fast_path(None, loop_group.transport) is True
            with use_fast_path(False):
                assert resolve_fast_path(None, fast_group.transport) is False
            assert resolve_fast_path(None, fast_group.transport) is True
        assert resolve_fast_path(None, loop_group.transport) is False
        # ...and an explicit per-call argument overrides everything.
        assert resolve_fast_path(True, loop_group.transport) is True
        assert resolve_fast_path(False, fast_group.transport) is False


class TestDeprecatedLoopInternals:
    def test_unknown_attribute_raises(self):
        import repro.comm as comm

        with pytest.raises(AttributeError):
            comm.does_not_exist
        # The loop-path round helpers live in repro.comm.collectives only.
        for name in ("alltoall", "allgather_payloads"):
            assert not hasattr(comm, name)


class TestChunkBoundsCache:
    def test_memoized_and_shared(self):
        chunk_bounds.cache_clear()
        first = chunk_bounds(1000, 7)
        assert chunk_bounds(1000, 7) is first  # lru_cache hit
        assert chunk_bounds.cache_info().hits >= 1

    def test_matches_array_split(self):
        for length, parts in [(0, 3), (10, 3), (7, 7), (5, 8), (1000, 13)]:
            splits = np.array_split(np.arange(length), parts)
            expected = []
            offset = 0
            for s in splits:
                expected.append((offset, offset + len(s)))
                offset += len(s)
            assert list(chunk_bounds(length, parts)) == expected


class TestBucketFlatPool:
    def test_external_buffer_is_zero_copy(self):
        from repro.core import TensorBucket
        from repro.tensor import Tensor

        params = [
            Tensor(np.arange(6, dtype=np.float64).reshape(2, 3)),
            Tensor(np.ones(4, dtype=np.float64)),
        ]
        pool = np.empty(10, dtype=np.float64)
        bucket = TensorBucket(params, flatten=True, buffer=pool)
        assert bucket.buffer is pool
        for p in params:
            assert np.shares_memory(p.data, pool)
        # Mutations through the pool are visible in the parameters.
        pool[:] = 42.0
        assert float(params[0].data[0, 0]) == 42.0

    def test_engine_allocates_one_pool_per_worker(self):
        from repro.perf.harness import _bench_epoch  # noqa: F401 — import only

        from repro.algorithms import QSGD
        from repro.cluster import ClusterSpec
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
        trainer = DistributedTrainer(
            spec, task.model_factory, task.make_optimizer, QSGD(bits=8),
            config=BaguaConfig(fast_path=True), seed=0,
        )
        dataset = task.dataset_factory(0)
        loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
        trainer.train(loaders, task.loss_fn, epochs=1, label="pool")
        for worker in trainer.engine.workers:
            pool = worker.state["flat_pool"]
            assert pool is not None
            assert pool.dtype == np.float64
            for bucket in worker.buckets:
                assert np.shares_memory(bucket.buffer, pool)


class TestEpochLossParity:
    def test_losses_and_traffic_bitwise_equal(self):
        from repro.algorithms import QSGD
        from repro.cluster import ClusterSpec
        from repro.core.optimizer_framework import BaguaConfig
        from repro.data.loader import make_sharded_loaders
        from repro.training import DistributedTrainer, get_task

        task = get_task("VGG16")
        dataset = task.dataset_factory(0)
        records = {}
        for fast in (False, True):
            spec = ClusterSpec(num_nodes=1, workers_per_node=2, inter_node=TCP_25G)
            trainer = DistributedTrainer(
                spec, task.model_factory, task.make_optimizer, QSGD(bits=8),
                config=BaguaConfig(fast_path=fast), seed=0,
            )
            loaders = make_sharded_loaders(dataset, 2, 16, seed=0)
            record = trainer.train(loaders, task.loss_fn, epochs=1, label="parity")
            records[fast] = (
                record.epoch_losses,
                record.epoch_sim_times,
                record.epoch_comm_bytes,
                trainer.transport.stats.messages,
                trainer.transport.stats.total_bytes,
            )
        assert records[False] == records[True]
