"""The BAGUA engine: lock-step execution of n model replicas (functional mode).

This is the reproduction's equivalent of ``bagua.bagua_init(model, optimizer,
algorithm)``: it wraps per-worker model replicas, runs the profiling phase on
the first iteration, builds the execution plan (bucketing/flattening per the
:class:`~repro.core.optimizer_framework.BaguaConfig`), and hands aligned
bucket views to the training algorithm after every backward pass.

The engine is "god-view": it owns all replicas and steps them together, which
is how the simulated cluster executes SPMD programs in-process.  All
per-worker state (parameters, optimizer state, error-feedback residuals, RNG
streams) lives in per-worker objects, so the per-rank semantics of each
algorithm are preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from ..cluster.worker import WorkerContext
from ..comm.group import CommGroup
from ..tensor.module import Module
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .bucket import TensorBucket
from .optimizer_framework import BaguaConfig, ExecutionOptimizer, ExecutionPlan
from .profiler import ExecutionProfile, GradientReadyProfiler
from .schedule import BucketSchedule, ComputeModel, ScheduledExecutor

LossFn = Callable[[Module, object], Tensor]


@dataclass
class WorkerReplica:
    """One worker's replica: model, optimizer, buckets and scratch state."""

    ctx: WorkerContext
    model: Module
    optimizer: Optimizer
    buckets: list[TensorBucket] = field(default_factory=list)
    # Free-form per-worker algorithm state (error feedback, momentum, views).
    state: dict = field(default_factory=dict)

    @property
    def rank(self) -> int:
        return self.ctx.rank

    def bucket_grads(self) -> list[np.ndarray]:
        return [b.flat_grad() for b in self.buckets]

    def bucket_weights(self) -> list[np.ndarray]:
        return [b.flat_data() for b in self.buckets]

    def set_bucket_grads(self, grads: Sequence[np.ndarray]) -> None:
        for bucket, grad in zip(self.buckets, grads):
            bucket.set_flat_grad(grad)

    def set_bucket_weights(self, weights: Sequence[np.ndarray]) -> None:
        for bucket, data in zip(self.buckets, weights):
            bucket.set_flat_data(data)

    def optimizer_step_on_buckets(self, grads: Sequence[np.ndarray] | None = None) -> None:
        """Run the optimizer over the buckets' flat views (paper's flat update).

        ``grads`` defaults to the buckets' own accumulated gradients.  When
        buckets are flattened the update is in place on the fused buffers;
        otherwise results are scattered back to the parameters.
        """
        tracer = self.ctx.transport.tracer
        if tracer is not None:
            for bucket in self.buckets:
                tracer.on_local(
                    self.rank, "opt_step", bucket=bucket.name, elements=bucket.total_elements
                )
        arrays = [b.flat_data() for b in self.buckets]
        if grads is None:
            grads = [b.flat_grad() for b in self.buckets]
        self.optimizer.step_on_slots(range(len(arrays)), arrays, list(grads))
        for bucket, arr in zip(self.buckets, arrays):
            if not bucket.flattened:
                bucket.set_flat_data(arr)

    def optimizer_step_on_bucket(self, k: int, grad: np.ndarray | None = None) -> None:
        """Run the optimizer on bucket ``k`` alone (per-bucket update path).

        Uses the bucket index as the optimizer state slot, so per-bucket
        stepping in ready order is bit-identical to one barrier step over all
        buckets.
        """
        bucket = self.buckets[k]
        tracer = self.ctx.transport.tracer
        if tracer is not None:
            tracer.on_local(
                self.rank, "opt_step", bucket=bucket.name, elements=bucket.total_elements
            )
        array = bucket.flat_data()
        if grad is None:
            grad = bucket.flat_grad()
        self.optimizer.step_on_slots([k], [array], [grad])
        if not bucket.flattened:
            bucket.set_flat_data(array)


class BaguaEngine:
    """Coordinates replicas, the execution plan and the training algorithm."""

    def __init__(
        self,
        models: Sequence[Module],
        optimizers: Sequence[Optimizer],
        algorithm: Algorithm,
        workers: Sequence[WorkerContext],
        config: BaguaConfig | None = None,
        grad_guard: bool = False,
        scheduled: bool = True,
        compute_model: ComputeModel | None = None,
    ) -> None:
        if not (len(models) == len(optimizers) == len(workers)):
            raise ValueError(
                f"got {len(models)} models, {len(optimizers)} optimizers, "
                f"{len(workers)} worker contexts"
            )
        self.config = config or BaguaConfig()
        # With grad_guard on, a non-finite gradient raises before it can be
        # communicated and poison every replica — fail fast at the source
        # rank instead of diverging the whole cluster.
        self.grad_guard = grad_guard
        self.algorithm = algorithm
        self.workers: list[WorkerReplica] = [
            WorkerReplica(ctx=ctx, model=m, optimizer=o)
            for ctx, m, o in zip(workers, models, optimizers)
        ]
        transport = workers[0].transport
        if self.config.backend is not None and self.config.backend != transport.backend.name:
            raise ValueError(
                f"config selects backend {self.config.backend!r} but the workers' "
                f"transport runs {transport.backend.name!r}; build the transport "
                "with the same backend (e.g. make_workers(spec, "
                f"backend={self.config.backend!r}))"
            )
        if self.config.protocol_sanitize is not None:
            # Must happen before any protocol traffic: the shm backend bakes
            # the flag into its workers at spawn time (and raises on a late
            # flip), so the engine applies it at construction.
            transport.backend.set_protocol_sanitize(self.config.protocol_sanitize)
        self.group = CommGroup(transport, [w.ctx.rank for w in self.workers])
        self.plan: ExecutionPlan | None = None
        self.profile: ExecutionProfile | None = None
        # ``scheduled=False`` runs the lock-step reference loop (every
        # bucket's comm_bucket in order, then on_step_end) instead of the
        # ScheduledExecutor; the executor-equivalence tests compare both.
        if type(algorithm).comm_bucket is Algorithm.comm_bucket:
            raise ValueError(f"algorithm {algorithm.name!r} does not implement comm_bucket")
        self._scheduled = scheduled
        self._compute_model = compute_model
        self.schedule: BucketSchedule | None = None
        self.executor: ScheduledExecutor | None = None
        self._step_index = 0
        self._verify_identical_replicas()

    # ------------------------------------------------------------------
    # Introspection used by algorithms
    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        return len(self.workers)

    @property
    def num_buckets(self) -> int:
        return len(self.workers[0].buckets)

    @property
    def hierarchical(self) -> bool:
        return self.config.hierarchical

    def grads_of_bucket(self, k: int) -> list[np.ndarray]:
        return [w.buckets[k].flat_grad() for w in self.workers]

    def weights_of_bucket(self, k: int) -> list[np.ndarray]:
        return [w.buckets[k].flat_data() for w in self.workers]

    def set_grads_of_bucket(self, k: int, grads: Sequence[np.ndarray]) -> None:
        for w, g in zip(self.workers, grads):
            w.buckets[k].set_flat_grad(g)

    def set_weights_of_bucket(self, k: int, weights: Sequence[np.ndarray]) -> None:
        for w, x in zip(self.workers, weights):
            w.buckets[k].set_flat_data(x)

    # ------------------------------------------------------------------
    # Training step
    # ------------------------------------------------------------------
    def step(self, batches: Sequence, loss_fn: LossFn) -> float:
        """One lock-step iteration; returns the mean loss across workers."""
        if len(batches) != self.world_size:
            raise ValueError(f"need {self.world_size} batches, got {len(batches)}")
        if self.plan is None:
            losses = self._profiling_iteration(batches, loss_fn)
        else:
            losses = self._compute_gradients(batches, loss_fn)
        if self.executor is not None:
            self.executor.run_step(self._step_index)
        else:
            for k in range(self.num_buckets):
                self.algorithm.comm_bucket(self, k, self._step_index)
            self.algorithm.on_step_end(self, self._step_index)
        self._step_index += 1
        return float(np.mean(losses))

    def _compute_gradients(self, batches: Sequence, loss_fn: LossFn) -> list[float]:
        losses = []
        for worker, batch in zip(self.workers, batches):
            worker.model.zero_grad()
            loss = loss_fn(worker.model, batch)
            loss.backward()
            losses.append(loss.item())
            if self.grad_guard:
                self._check_finite_gradients(worker)
        return losses

    @staticmethod
    def _check_finite_gradients(worker: WorkerReplica) -> None:
        for name, param in worker.model.named_parameters():
            if param.grad is not None and not np.all(np.isfinite(param.grad)):
                raise FloatingPointError(
                    f"non-finite gradient in {name!r} on rank {worker.rank}"
                )

    def _profiling_iteration(self, batches: Sequence, loss_fn: LossFn) -> list[float]:
        """First iteration: run unoptimized, record the ready order, build buckets."""
        profiler = GradientReadyProfiler(self.workers[0].model)
        profiler.install()
        losses = self._compute_gradients(batches, loss_fn)
        profiler.uninstall()
        self.profile = profiler.profile
        self.plan = ExecutionOptimizer(self.config).plan(self.profile)
        self._build_buckets()
        self.schedule = BucketSchedule.from_plan(
            self.plan, update_mode=self.algorithm.update_mode
        )
        if self._scheduled:
            self.executor = ScheduledExecutor(
                self, self.schedule, compute_model=self._compute_model
            )
        self.algorithm.setup(self)
        return losses

    def _build_buckets(self) -> None:
        """Create aligned per-worker buckets following the plan.

        All replicas share the profile recorded on worker 0 — replicas are
        identical by construction, so the ready order is too.

        With flattening on, each worker gets ONE contiguous float64 pool for
        all of its buckets; every bucket's backing buffer is a view into it.
        Bucket-level flat views stay zero-copy exactly as before, and the
        whole replica is additionally contiguous (one allocation per worker
        instead of one per bucket).  The pool's storage comes from the
        transport backend: in-process backends hand back plain ndarrays, the
        shm backend maps a shared-memory segment visible to the rank's
        worker process as well.
        """
        assert self.plan is not None
        flatten = self.config.flatten
        backend = self.group.transport.backend
        total = sum(planned.elements for planned in self.plan.buckets)
        for worker in self.workers:
            by_name = dict(worker.model.named_parameters())
            pool = backend.allocate_pool(worker.rank, total) if flatten else None
            offset = 0
            buckets = []
            for planned in self.plan.buckets:
                params = [by_name[name] for name in planned.names]
                view = None
                if pool is not None:
                    view = pool[offset : offset + planned.elements]
                    offset += planned.elements
                buckets.append(
                    TensorBucket(
                        params,
                        name=f"bucket{planned.index}",
                        flatten=flatten,
                        buffer=view,
                    )
                )
            worker.buckets = buckets
            worker.state["flat_pool"] = pool

    def _verify_identical_replicas(self) -> None:
        reference = self.workers[0].model.state_dict()
        for worker in self.workers[1:]:
            other = worker.model.state_dict()
            if set(other) != set(reference):
                raise ValueError("replica parameter names differ")
            for name, value in reference.items():
                if not np.array_equal(value, other[name]):
                    raise ValueError(
                        f"replicas differ at parameter {name!r}; data-parallel "
                        "training requires identical initialization"
                    )


class Algorithm:
    """Base class of BAGUA training algorithms.

    Subclasses implement the *communication function* of the paper as a
    per-bucket method: the :class:`~repro.core.schedule.ScheduledExecutor`
    calls :meth:`comm_bucket` once per fused bucket, in gradient-ready order,
    after gating each rank's virtual clock on the bucket's readiness (O on)
    or the end of backward (O off); :meth:`on_step_end` runs after the last
    bucket — barrier-style algorithms do their single optimizer step there
    and declare ``update_mode = "barrier"`` so the schedule gates it on all
    communication.  :meth:`setup` runs once, after the profiling iteration
    built the buckets — the place to allocate per-worker state (error
    feedback, momentum buffers, peer views).
    """

    #: registry name, e.g. "allreduce", "qsgd"
    name: str = "base"
    #: "per_bucket" — parameters update as each bucket's comm lands;
    #: "barrier" — one optimizer step after every bucket communicated.
    update_mode: str = "per_bucket"
    #: async algorithms: max steps an update may lag the gradient it
    #: consumes.  ``None`` = synchronous (no bound to verify); the
    #: happens-before ``hb-staleness`` rule checks declared bounds.
    staleness_bound: int | None = None

    def setup(self, engine: BaguaEngine) -> None:  # noqa: B027 (intentional no-op)
        pass

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        """Communicate (and, in per-bucket mode, update) bucket ``k``."""
        raise NotImplementedError

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:  # noqa: B027
        """Runs once per iteration after the last bucket's communication."""
        pass
