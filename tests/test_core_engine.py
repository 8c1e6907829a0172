"""The BAGUA engine: replicas, profiling iteration, DP-SG equivalence."""

import numpy as np
import pytest

from repro.algorithms import AllreduceSGD
from repro.cluster import ClusterSpec, make_workers
from repro.core import Algorithm, BaguaConfig, BaguaEngine
from repro.tensor import Linear, ReLU, SGD, Sequential, Tensor
from repro.tensor import functional as F


def make_model(seed=0):
    return Sequential(
        Linear(6, 10, rng=np.random.default_rng(seed)),
        ReLU(),
        Linear(10, 3, rng=np.random.default_rng(seed + 1)),
    )


def loss_fn(model, batch):
    inputs, labels = batch
    return F.cross_entropy(model(Tensor(inputs)), labels)


def make_engine(world=4, algorithm=None, config=None, lr=0.1):
    spec = ClusterSpec(num_nodes=2, workers_per_node=world // 2)
    workers = make_workers(spec)
    models = [make_model() for _ in range(world)]
    optimizers = [SGD(m.parameters(), lr=lr) for m in models]
    return BaguaEngine(
        models, optimizers, algorithm or AllreduceSGD(), workers, config=config
    )


def make_batches(rng, world, batch=4):
    return [
        (rng.standard_normal((batch, 6)), rng.integers(0, 3, size=batch))
        for _ in range(world)
    ]


class TestConstruction:
    def test_mismatched_lengths_rejected(self):
        spec = ClusterSpec(num_nodes=1, workers_per_node=2)
        workers = make_workers(spec)
        models = [make_model(), make_model()]
        optimizers = [SGD(models[0].parameters(), lr=0.1)]
        with pytest.raises(ValueError):
            BaguaEngine(models, optimizers, AllreduceSGD(), workers)

    def test_divergent_replicas_rejected(self):
        spec = ClusterSpec(num_nodes=1, workers_per_node=2)
        workers = make_workers(spec)
        models = [make_model(seed=0), make_model(seed=5)]
        optimizers = [SGD(m.parameters(), lr=0.1) for m in models]
        with pytest.raises(ValueError):
            BaguaEngine(models, optimizers, AllreduceSGD(), workers)

    def test_batch_count_checked(self, rng):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.step(make_batches(rng, 2), loss_fn)


class TestProfilingIteration:
    def test_first_step_builds_buckets(self, rng):
        engine = make_engine()
        assert engine.plan is None
        engine.step(make_batches(rng, 4), loss_fn)
        assert engine.plan is not None
        assert engine.num_buckets >= 1
        for worker in engine.workers:
            assert worker.buckets

    def test_buckets_aligned_across_workers(self, rng):
        engine = make_engine()
        engine.step(make_batches(rng, 4), loss_fn)
        sizes = [[b.total_elements for b in w.buckets] for w in engine.workers]
        assert all(s == sizes[0] for s in sizes)

    def test_flatten_config_respected(self, rng):
        engine = make_engine(config=BaguaConfig(flatten=False))
        engine.step(make_batches(rng, 4), loss_fn)
        # Per-tensor buckets: one per parameter.
        assert engine.num_buckets == 4

    def test_setup_called_once(self, rng):
        calls = []

        class Probe(Algorithm):
            name = "probe"

            def setup(self, engine):
                calls.append("setup")

            def comm_bucket(self, engine, k, step):
                pass

            def on_step_end(self, engine, step):
                calls.append(f"step{step}")

        engine = make_engine(algorithm=Probe())
        batches = make_batches(rng, 4)
        engine.step(batches, loss_fn)
        engine.step(batches, loss_fn)
        assert calls == ["setup", "step0", "step1"]


class TestDPSGEquivalence:
    def test_replicas_stay_identical_under_allreduce(self, rng):
        engine = make_engine()
        for _ in range(3):
            engine.step(make_batches(rng, 4), loss_fn)
        reference = engine.workers[0].model.state_dict()
        for worker in engine.workers[1:]:
            for name, value in worker.model.state_dict().items():
                np.testing.assert_allclose(value, reference[name], atol=1e-12)

    def test_n_workers_equal_big_batch_single_sgd(self, rng):
        """The defining DP-SG invariant: averaging gradients over n workers
        with per-worker batch b equals one SGD step on the union batch."""
        world, batch, lr = 4, 4, 0.1
        batches = make_batches(rng, world, batch)

        engine = make_engine(world=world, lr=lr)
        engine.step(batches, loss_fn)

        single = make_model()
        opt = SGD(single.parameters(), lr=lr)
        union_x = np.concatenate([b[0] for b in batches])
        union_y = np.concatenate([b[1] for b in batches])
        loss = F.cross_entropy(single(Tensor(union_x)), union_y)
        loss.backward()
        opt.step()

        distributed = engine.workers[0].model.state_dict()
        for name, value in single.state_dict().items():
            np.testing.assert_allclose(distributed[name], value, atol=1e-10)

    def test_loss_decreases(self, rng):
        engine = make_engine()
        batches = make_batches(rng, 4, batch=8)
        first = engine.step(batches, loss_fn)
        for _ in range(15):
            last = engine.step(batches, loss_fn)
        assert last < first


class TestBucketAccessors:
    def test_grads_and_weights_roundtrip(self, rng):
        engine = make_engine()
        engine.step(make_batches(rng, 4), loss_fn)
        new = [np.full(b.total_elements, 7.0) for b in engine.workers[0].buckets]
        for k in range(engine.num_buckets):
            engine.set_weights_of_bucket(k, [new[k]] * 4)
        for k in range(engine.num_buckets):
            for w in engine.weights_of_bucket(k):
                np.testing.assert_array_equal(w, new[k])
