"""Property tests: the scheduled executor is a drop-in for the lock-step loop.

The :class:`~repro.core.schedule.ScheduledExecutor` drives per-bucket
communication through the transport's virtual clocks in gradient-ready
order.  These Hypothesis tests pin the two contracts that make it safe to
ship as the default execution mode:

* **bit-identical numerics** — for any O/F/H configuration, the final
  weights after a few steps match the lock-step reference loop
  (``scheduled=False``) bit for bit, for both an exact algorithm (allreduce) and a stochastic
  compressed one (QSGD, whose RNG draw order must survive the refactor);
* **overlap is observable** — on a communication-bound cluster with more
  than one bucket, ``overlap=True`` yields strictly lower transport time
  than ``overlap=False``, because comms launch at per-bucket grad-ready
  gates instead of the backward-end barrier.

The lowered schedule of every engine built here must also pass the full
static checker suite — the same gate ``python -m repro analyze`` enforces.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AllreduceSGD, QSGD
from repro.analysis import HB_CHECKERS, build_hb, lower_schedule, run_checkers
from repro.cluster import ClusterSpec, Link, Transport
from repro.cluster.worker import make_workers
from repro.core import BaguaConfig
from repro.core.engine import BaguaEngine
from repro.core.schedule import ComputeModel
from repro.tensor import functional as F
from repro.tensor.layers import Linear
from repro.tensor.module import Module
from repro.tensor.optim import SGD
from repro.tensor.tensor import Tensor

#: Small bucket cap so the tiny test model still splits into >= 2 buckets —
#: overlap gates only differ from the backward-end barrier with multiple
#: buckets.
BUCKET_BYTES = 256.0

#: A link slow enough that communication dominates compute: overlap savings
#: must show up in the transport clocks, not vanish into noise.
SLOW_LINK = Link(latency_s=1e-3, bandwidth_Bps=1e8, ramp_bytes=0, name="slow-tcp")


class _MLP(Module):
    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc1 = Linear(8, 12, rng=rng)
        self.fc2 = Linear(12, 4, rng=rng)

    def forward(self, x):
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.fc2(F.relu(self.fc1(x)))


def _loss(model: Module, batch) -> object:
    inputs, labels = batch
    return F.cross_entropy(model(inputs), labels)


def _batches(world_size: int, steps: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    return [
        [(rng.normal(size=(4, 8)), rng.integers(0, 4, size=4)) for _ in range(world_size)]
        for _ in range(steps)
    ]


def _run(algorithm, config, seed, scheduled=True, inter_node=None, steps=3):
    """Train the probe model for a few steps; return engine + final weights."""
    kwargs = {"inter_node": inter_node} if inter_node is not None else {}
    spec = ClusterSpec(num_nodes=2, workers_per_node=2, **kwargs)
    transport = Transport(spec)
    workers = make_workers(spec, transport, seed=seed)
    models = [_MLP(np.random.default_rng(seed)) for _ in workers]
    optimizers = [SGD(m.parameters(), lr=0.05, momentum=0.9) for m in models]
    engine = BaguaEngine(
        models, optimizers, algorithm, workers, config=config, scheduled=scheduled,
        compute_model=ComputeModel(bwd_seconds_per_element=1e-5,
                                   fwd_seconds_per_element=5e-6),
    )
    for batches in _batches(spec.world_size, steps, seed):
        engine.step(batches, _loss)
    weights = [
        {name: value.copy() for name, value in w.model.state_dict().items()}
        for w in engine.workers
    ]
    return engine, weights


def _assert_same_weights(a, b):
    assert len(a) == len(b)
    for wa, wb in zip(a, b):
        assert wa.keys() == wb.keys()
        for name in wa:
            assert np.array_equal(wa[name], wb[name]), name


configs = st.builds(
    BaguaConfig,
    overlap=st.booleans(),
    flatten=st.booleans(),
    hierarchical=st.booleans(),
    bucket_bytes=st.just(BUCKET_BYTES),
)


@given(config=configs, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_scheduled_allreduce_bit_identical_to_legacy(config, seed):
    engine, scheduled = _run(AllreduceSGD(), config, seed)  # auto: executor
    assert engine.executor is not None
    _, legacy = _run(AllreduceSGD(), config, seed, scheduled=False)
    _assert_same_weights(scheduled, legacy)


@given(config=configs, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_scheduled_qsgd_bit_identical_to_legacy(config, seed):
    engine, scheduled = _run(QSGD(), config, seed)
    assert engine.executor is not None
    _, legacy = _run(QSGD(), config, seed, scheduled=False)
    _assert_same_weights(scheduled, legacy)


@given(config=configs, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_lowered_schedule_passes_checkers(config, seed):
    engine, _ = _run(AllreduceSGD(), config, seed)
    assert engine.schedule is not None
    subject = lower_schedule(engine.schedule, engine.world_size)
    assert run_checkers(subject) == []


@given(seed=st.integers(0, 2**31 - 1), flatten=st.booleans())
@settings(max_examples=10, deadline=None)
def test_overlap_strictly_lowers_comm_bound_iteration_time(seed, flatten):
    times = {}
    for overlap in (True, False):
        config = BaguaConfig(
            overlap=overlap, flatten=flatten, bucket_bytes=BUCKET_BYTES,
        )
        engine, _ = _run(AllreduceSGD(), config, seed, inter_node=SLOW_LINK)
        assert engine.num_buckets >= 2  # otherwise the gates coincide
        times[overlap] = engine.group.transport.max_time()
    assert times[True] < times[False]


# ----------------------------------------------------------------------
# Happens-before: any generated schedule lowers to an HB-clean stream, and
# the HB partial order is consistent with the executor's virtual clocks.
# ----------------------------------------------------------------------

#: Node groups of the 2x2 test cluster, so hierarchical schedules lower to
#: their real three-phase (reduce / inter-node / broadcast) streams.
NODE_GROUPS = [[0, 1], [2, 3]]


@given(config=configs, seed=st.integers(0, 2**31 - 1), per_bucket=st.booleans())
@settings(max_examples=10, deadline=None)
def test_any_schedule_lowers_hb_clean(config, seed, per_bucket):
    engine, _ = _run(AllreduceSGD(), config, seed)
    assert engine.schedule is not None
    variant = dataclasses.replace(engine.schedule, per_bucket_updates=per_bucket)
    subject = lower_schedule(variant, engine.world_size, nodes=NODE_GROUPS)
    assert run_checkers(subject, HB_CHECKERS) == []
    assert not build_hb(subject).deadlocks


@given(config=configs, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_hb_order_consistent_with_virtual_clocks(config, seed):
    """HB => time-ordered against the executor's clocks.

    Every lowered event that happens-before a communication must carry an
    earlier virtual-clock reading than that communication: issues are
    stamped with their gradient-ready time (``IterationReport.ready_times``)
    and collectives with the clock right after the bucket's exchange
    (``comm_times``).  Only pairs whose *target* is a collective are
    compared — the no-overlap lowering conservatively serializes issue
    markers between comms on one thread, while the executor prices the
    whole backward pass up front, so clock readings taken *at* an issue
    only order against later communication, not vice versa.  Same-bucket
    collective pairs are skipped too: the report stamps one clock per
    (rank, bucket), so a hierarchical bucket's reduce/broadcast phases all
    share a reading whose per-rank skew is below that resolution.
    """
    engine, _ = _run(AllreduceSGD(), config, seed)
    report = engine.executor.last_report
    assert report is not None
    subject = lower_schedule(engine.schedule, engine.world_size, nodes=NODE_GROUPS)
    graph = build_hb(subject)
    assert not graph.deadlocks

    index_of = {b.name: b.index for b in engine.schedule.buckets}

    def clock_reading(event):
        op = event.op
        if op.bucket not in index_of:
            return None
        key = (op.rank, index_of[op.bucket])
        if op.kind == "issue":
            return report.ready_times.get(key)
        if op.scope == "collective":
            return report.comm_times.get(key)
        return None

    timed = [
        (event, reading)
        for event in graph.events
        if (reading := clock_reading(event)) is not None
    ]
    assert timed  # the mapping found real events to compare
    for target, t_target in timed:
        if target.op.scope != "collective":
            continue
        for source, t_source in timed:
            if source is target:
                continue
            if source.op.scope == "collective" and source.op.bucket == target.op.bucket:
                continue
            if graph.happens_before(source, target):
                assert t_source <= t_target + 1e-9, (
                    source.describe(), target.describe()
                )
