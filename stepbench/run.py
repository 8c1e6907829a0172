"""End-to-end training-step benchmark.

Usage (from the repository root)::

    python3 stepbench/run.py --workload vgg16-qsgd8-w4 --seed 1 --seconds 10 --trace 0

Each workload (see ``workloads.py``) runs as a closed loop: one training loop
in this process, each ``BaguaEngine.step`` starting after the previous one
returned.  A run

1. sets the trainer up (construction plus the profiling iteration) and
   keeps it; ``setup_s`` is the median over ``SETUP_REPEATS`` more set-ups;
2. gates correctness: the first ``GATE_STEPS`` steps must match the same
   steps on the ``local`` oracle backend bit for bit (losses,
   ``Transport.max_time()``, ``TrafficStats``, every replica's weights);
3. times steps for ``--seconds`` seconds and at least ``MIN_STEPS`` steps,
   in ``SEGMENTS`` segments with the set-ups between them;
4. closes everything and checks that no shm worker process or
   ``/dev/shm`` segment of the run is left.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
splits the time between an untraced and a traced loop and reports the
per-layer metrics; the traced loop patches each layer's entry points from
outside (``tracing.py``), and the Chrome trace plus the self-time table go
to ``stepbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Set-ups per run besides the one kept for timing; ``setup_s`` is the median.
SETUP_REPEATS = 20
#: The timed loop runs in this many segments with set-ups between them, so
#: that steps and set-ups alike sample the whole run's machine load.
SEGMENTS = 5
#: Traced set-ups of a ``--trace 1`` run (the last one is kept).
TRACE_SETUPS = 5
#: Steps compared against the ``local`` oracle before timing.
GATE_STEPS = 3
#: Timed steps at least, so that >= 10 samples lie beyond p90.  The
#: deterministic metrics (``loss_mean``, ``modeled_step_s``,
#: ``comm_bytes_per_step``) are taken over exactly these first steps, so they
#: do not depend on how many steps fit into ``--seconds``.
MIN_STEPS = 100
#: Steps of each loop in a traced run (the untraced and the traced loop).
TRACE_MIN_STEPS = 30
#: Steps timed for the single-worker ``local`` reference.
REF_STEPS = 20
#: Wall-clock cap on all timed loops of one run, so a run stays well inside
#: its time limit even when steps get much slower.
LOOP_CAP_S = 120.0
#: Tolerance of the per-layer accounting: the per-layer self-time medians
#: must sum to the traced step's median wall time within this share.
ACCOUNT_TOLERANCE = 0.15

#: Unit of each end-to-end metric of the JSON result, in output order.
#: ``virtual_s`` is simulated-cluster clock time: deterministic given the
#: seed, not measured.
END_TO_END_UNITS = {
    "step_s_p50": "s",
    "step_s_p90": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "modeled_step_s": "virtual_s",
    "comm_bytes_per_step": "B",
}
#: End-to-end metrics printed with the others but kept out of the JSON
#: result.  ``loss_mean`` depends on how fast the seed's data is learnt (its
#: spread across seeds is 30 % and more), so it cannot carry a regression
#: bound; it is bit-exact per seed, which the self-tests check.
#: ``failed_step_ratio`` is 0 in every correct run, and the JSON's
#: ``failed``/``attempted`` already carry it.
REPORTED_UNITS = {"loss_mean": "nat", "failed_step_ratio": "ratio"}

#: Unit of each per-layer metric (``--trace 1``), in output order.
PER_LAYER_UNITS = {
    "data.next_batch_s": "s",
    "tensor.forward_s": "s",
    "tensor.backward_s": "s",
    "tensor.conv2d_s": "s",
    "tensor.conv2d_calls": "count/step",
    "tensor.max_pool2d_s": "s",
    "tensor.embedding_s": "s",
    "tensor.attention_s": "s",
    "tensor.linear_s": "s",
    "core.bucket_flatten_s": "s",
    "core.bucket_flatten_bytes": "B/step",
    "core.comm_update_s": "s",
    "core.flush_s": "s",
    "core.engine_self_s": "s",
    "core.replica_build_s": "s",
    "core.profiling_iteration_s": "s",
    "algorithms.comm_bucket_s": "s",
    "algorithms.comm_bucket_calls": "count/step",
    "algorithms.on_step_end_s": "s",
    "compression.compress_s": "s",
    "compression.decompress_s": "s",
    "compression.batch_roundtrip_s": "s",
    "compression.calls": "count/step",
    "compression.elements": "count/step",
    "comm.collective_s": "s",
    "comm.collective_calls": "count/step",
    "comm.pool_ref_calls": "count/step",
    "comm.pool_ref_hit_ratio": "ratio",
    "transport.exchange_s": "s",
    "transport.rounds_per_step": "count",
    "transport.messages_per_step": "count",
    "transport.intra_bytes_per_step": "B",
    "transport.inter_bytes_per_step": "B",
    "backend.route_round_s": "s",
    "backend.flush_s": "s",
    "backend.pool_ref_reduce_s": "s",
    "backend.allocate_pool_s": "s",
    "backend.close_s": "s",
    "backend.rounds": "count/step",
    "backend.payload_bytes": "B/step",
    "backend.inline_fallbacks": "count/step",
    "backend.pool_ref_payloads": "count/step",
    "backend.reduces": "count/step",
    "optim.step_s": "s",
    "optim.elements": "count/step",
    "modeled.backward_s": "virtual_s",
    "modeled.exposed_comm_s": "virtual_s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "ref.world1_step_s": "s",
}

#: Per-step self-time metrics: the layers a traced step's wall time splits into.
SELF_TIME_METRICS = [
    m for m, unit in PER_LAYER_UNITS.items()
    if unit == "s" and m not in (
        "core.replica_build_s", "core.profiling_iteration_s",
        "backend.allocate_pool_s", "backend.close_s", "ref.world1_step_s",
    )
]
#: Per-step counters the tracer takes at the span boundaries.
TRACE_COUNTERS = [
    "tensor.conv2d_calls", "core.bucket_flatten_bytes", "algorithms.comm_bucket_calls",
    "compression.calls", "compression.elements", "comm.collective_calls",
    "comm.pool_ref_calls", "optim.elements",
]
#: ``describe()`` counters of the backend, read as per-step deltas.
BACKEND_COUNTERS = ["rounds", "payload_bytes", "inline_fallbacks", "pool_ref_payloads", "reduces"]
#: ``TrafficStats`` counters, read as per-step deltas.
TRAFFIC_COUNTERS = ["rounds", "messages", "total_bytes", "intra_node_bytes", "inter_node_bytes"]

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "psm_"


def use_source_tree(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    package = root / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, expected {package}")


# ----------------------------------------------------------------------
# Per-step records
# ----------------------------------------------------------------------
@dataclass
class LoopResult:
    """Per-step records of one timed loop."""

    step_s: list[float] = field(default_factory=list)
    iteration_s: list[float] = field(default_factory=list)  # loader + step
    losses: list[float] = field(default_factory=list)
    virtual_s: list[float] = field(default_factory=list)
    modeled_backward_s: list[float] = field(default_factory=list)
    modeled_exposed_s: list[float] = field(default_factory=list)
    traffic: list[dict[str, float]] = field(default_factory=list)
    backend: list[dict[str, float]] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def extend(self, other: LoopResult) -> None:
        """Append a later segment of the same loop."""
        for f in fields(self):
            value = getattr(other, f.name)
            if isinstance(value, list):
                getattr(self, f.name).extend(value)
            else:
                setattr(self, f.name, getattr(self, f.name) + value)


def traffic_snapshot(transport) -> dict[str, float]:
    stats = transport.stats
    return {name: getattr(stats, name) for name in TRAFFIC_COUNTERS}


def backend_snapshot(transport) -> dict[str, float]:
    info = transport.backend.describe()
    return {name: info.get(name, 0) for name in BACKEND_COUNTERS}


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def run_loop(trainer, stream, loss_fn, seconds: float, min_steps: int, deadline: float,
             tracer=None) -> LoopResult:
    """Closed loop: next batch, one engine step, repeat; per-step deltas kept."""
    engine = trainer.engine
    transport = trainer.transport
    out = LoopResult()
    gc.collect()
    traffic_start = traffic_snapshot(transport)
    backend_start = backend_snapshot(transport)
    consecutive_errors = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.step = out.attempted
        traffic_before = traffic_snapshot(transport)
        backend_before = backend_snapshot(transport)
        virtual_before = transport.max_time()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.region("data.next_batch", "data.next_batch_s"):
                batches = stream.next()
        else:
            batches = stream.next()
        t1 = time.perf_counter()
        out.attempted += 1
        try:
            loss = engine.step(batches, loss_fn)
        except Exception:  # a failed step is counted, reported, not fatal
            loss = math.nan
            traceback.print_exc(file=sys.stderr)
            consecutive_errors += 1
        else:
            consecutive_errors = 0
        t2 = time.perf_counter()
        if not math.isfinite(loss):
            out.failed += 1
        out.step_s.append(t2 - t1)
        out.iteration_s.append(t2 - t0)
        out.losses.append(loss)
        out.virtual_s.append(transport.max_time() - virtual_before)
        report = engine.executor.last_report if engine.executor is not None else None
        if report is not None:
            out.modeled_backward_s.append(
                max(report.backward_end[r] - report.start_times[r] for r in report.end_times)
            )
            out.modeled_exposed_s.append(report.exposed_comm_time)
        out.traffic.append(delta(traffic_snapshot(transport), traffic_before))
        out.backend.append(delta(backend_snapshot(transport), backend_before))
        elapsed = t2 - start
        if consecutive_errors >= 3 or time.perf_counter() > deadline:
            break
        if out.attempted >= min_steps and elapsed >= seconds:
            break
    out.wall_s = time.perf_counter() - start
    # Reconcile: the per-step deltas must add up to the loop's totals, i.e.
    # no traffic and no backend work happens outside the timed steps.
    for label, per_step, total in (
        ("TrafficStats", out.traffic, delta(traffic_snapshot(transport), traffic_start)),
        ("backend.describe()", out.backend, delta(backend_snapshot(transport), backend_start)),
    ):
        for key, value in total.items():
            summed = sum(d[key] for d in per_step)
            if not math.isclose(summed, value, rel_tol=1e-12, abs_tol=1e-9):
                out.problems.append(
                    f"{label}.{key}: per-step deltas sum to {summed}, run total is {value}"
                )
    if out.failed:
        out.problems.append(f"{out.failed} of {out.attempted} timed steps failed")
    return out


# ----------------------------------------------------------------------
# Set-up and correctness gate
# ----------------------------------------------------------------------
def set_up(workload, seed: int):
    """Construct the trainer and run the profiling iteration.

    Returns ``(trainer, stream, first_loss, replica_build_s, profiling_s)``.
    """
    stream = workload.batches(seed)
    batches = stream.next()
    t0 = time.perf_counter()
    trainer = workload.make_trainer(seed)
    t1 = time.perf_counter()
    loss = trainer.engine.step(batches, workload.loss_fn())
    t2 = time.perf_counter()
    return trainer, stream, loss, t1 - t0, t2 - t1


def timed_setups(workload, seed: int, count: int) -> list[float]:
    """``count`` set-ups, each closed at once; their durations."""
    times = []
    for _ in range(count):
        trainer, _stream, _loss, build_s, profile_s = set_up(workload, seed)
        trainer.transport.close()
        times.append(build_s + profile_s)
        # Replicas sit in reference cycles (autograd closures); collect them
        # now so the dropped trainers do not pile up into ``peak_rss_mib``.
        del trainer
        gc.collect()
    return times


def fingerprint(trainer, losses: list[float]) -> dict:
    """What the oracle comparison checks: losses, clocks, traffic, weights."""
    stats = trainer.transport.stats
    return {
        "losses": list(losses),
        "max_time": trainer.transport.max_time(),
        "traffic": {
            **traffic_snapshot(trainer.transport),
            "per_rank_sent_bytes": dict(stats.per_rank_sent_bytes),
        },
        "weights": [w.model.state_dict() for w in trainer.engine.workers],
    }


def compare_fingerprints(got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("losses", "max_time", "traffic"):
        if got[key] != want[key]:
            problems.append(f"oracle mismatch in {key}: {got[key]!r} != {want[key]!r}")
    for rank, (mine, theirs) in enumerate(zip(got["weights"], want["weights"])):
        for name, value in theirs.items():
            if not np.array_equal(mine[name], value):
                problems.append(f"oracle mismatch in rank {rank} weights {name!r}")
    return problems


def oracle_gate(workload, seed: int, trainer, stream, first_loss: float) -> list[str]:
    """Run the gate steps on ``trainer`` and on the ``local`` oracle; compare."""
    loss_fn = workload.loss_fn()
    losses = [first_loss]
    for _ in range(GATE_STEPS):
        losses.append(trainer.engine.step(stream.next(), loss_fn))
    got = fingerprint(trainer, losses)

    oracle = workload.make_trainer(seed, backend="local")
    try:
        oracle_stream = workload.batches(seed)
        oracle_losses = [
            oracle.engine.step(oracle_stream.next(), loss_fn) for _ in range(GATE_STEPS + 1)
        ]
        want = fingerprint(oracle, oracle_losses)
    finally:
        oracle.transport.close()
    problems = compare_fingerprints(got, want)
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite loss in the gate steps: {losses}")
    return problems


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}


def leak_check(segments_before: set[str]) -> list[str]:
    """No worker process alive, no shared-memory segment of the run left."""
    problems = []
    alive = multiprocessing.active_children()
    if alive:
        problems.append(f"worker processes still alive after close: {alive}")
    leaked = shm_segments() - segments_before
    if leaked:
        problems.append(f"/dev/shm segments left after close: {sorted(leaked)}")
    return problems


def stop_resource_tracker() -> None:
    """Stop (and reap) the shared-memory resource tracker this run started.

    ``SharedMemory`` starts the tracker process on first use and leaves it
    running until the interpreter exits; the benchmark waits for every
    process it started, so it stops the tracker through its (private)
    ``_stop`` hook.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics."""
    deadline = time.perf_counter() + LOOP_CAP_S
    segments_before = shm_segments()
    trainer, stream, first_loss, build_s, profile_s = set_up(workload, seed)
    setups = [build_s + profile_s]
    loop = LoopResult()
    try:
        problems = oracle_gate(workload, seed, trainer, stream, first_loss)
        for _ in range(SEGMENTS):
            setups += timed_setups(workload, seed, SETUP_REPEATS // SEGMENTS)
            loop.extend(run_loop(trainer, stream, workload.loss_fn(), seconds / SEGMENTS,
                                 math.ceil(MIN_STEPS / SEGMENTS), deadline))
    finally:
        trainer.transport.close()
    problems += loop.problems + leak_check(segments_before)

    window = slice(0, MIN_STEPS)
    global_batch = workload.world_size * workload.task_bundle().batch_size
    metrics = {
        "step_s_p50": median(loop.step_s),
        "step_s_p90": percentile(loop.step_s, 90),
        "samples_per_s": loop.attempted * global_batch / loop.wall_s,
        "setup_s": median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "modeled_step_s": statistics.fmean(loop.virtual_s[window]),
        "comm_bytes_per_step": statistics.fmean(
            d["total_bytes"] for d in loop.traffic[window]
        ),
    }
    reported = {
        "loss_mean": statistics.fmean(loop.losses[window]),
        "failed_step_ratio": loop.failed / loop.attempted,
    }
    print(f"workload {workload.name}: {loop.attempted} timed steps, "
          f"{len(setups)} set-ups, gate {'ok' if not problems else 'FAILED'}")
    units = {**END_TO_END_UNITS, **REPORTED_UNITS}
    for name, value in {**metrics, **reported}.items():
        print(f"  {name:<22} {value:>14.6g} {units[name]}")
    return metrics, END_TO_END_UNITS, loop.attempted, loop.failed, problems


def traced(workload, seed: int, seconds: float):
    """Untraced loop, then traced loop: the per-layer metrics."""
    from tracing import Tracer

    deadline = time.perf_counter() + LOOP_CAP_S
    segments_before = shm_segments()
    tracer = Tracer()
    tracer.install()
    try:
        return _traced(workload, seed, seconds, tracer, deadline, segments_before)
    finally:
        tracer.uninstall()


def _traced(workload, seed, seconds, tracer, deadline, segments_before):
    setups = []
    trainer = stream = first_loss = None
    tracer.enabled = True
    for i in range(TRACE_SETUPS):
        tracer.step = -(i + 1)
        trainer, stream, first_loss, build_s, profile_s = set_up(workload, seed)
        setups.append((build_s, profile_s))
        if i < TRACE_SETUPS - 1:
            trainer.transport.close()
            gc.collect()
    tracer.enabled = False
    setup_steps = [-(i + 1) for i in range(TRACE_SETUPS)]
    closed_steps = setup_steps[:-1]

    try:
        problems = oracle_gate(workload, seed, trainer, stream, first_loss)
        plain = run_loop(trainer, stream, workload.loss_fn(), seconds / 2,
                         TRACE_MIN_STEPS, deadline)
        task_loss = workload.loss_fn()

        def loss_fn(model, batch):
            with tracer.region("tensor.forward", "tensor.forward_s"):
                return task_loss(model, batch)

        tracer.enabled = True
        loop = run_loop(trainer, stream, loss_fn, seconds / 2, TRACE_MIN_STEPS, deadline,
                        tracer=tracer)
        tracer.enabled = False
    finally:
        tracer.enabled = False
        trainer.transport.close()
    ref_s = world1_reference(workload, seed)
    problems += plain.problems + loop.problems + leak_check(segments_before)

    steps = list(range(loop.attempted))
    per_step = [tracer.metric_self_times(s) for s in steps]
    metrics = {m: median([p.get(m, 0.0) for p in per_step]) for m in SELF_TIME_METRICS}
    for name in TRACE_COUNTERS:
        metrics[name] = median([tracer.counts.get(s, {}).get(name, 0.0) for s in steps])
    calls = sum(tracer.counts.get(s, {}).get("comm.pool_ref_calls", 0.0) for s in steps)
    hits = sum(tracer.counts.get(s, {}).get("comm.pool_ref_hits", 0.0) for s in steps)
    metrics["comm.pool_ref_hit_ratio"] = hits / calls if calls else 0.0
    for key, metric in (
        ("rounds", "transport.rounds_per_step"),
        ("messages", "transport.messages_per_step"),
        ("intra_node_bytes", "transport.intra_bytes_per_step"),
        ("inter_node_bytes", "transport.inter_bytes_per_step"),
    ):
        metrics[metric] = median([d[key] for d in loop.traffic])
    for key in BACKEND_COUNTERS:
        metrics[f"backend.{key}"] = statistics.fmean(d[key] for d in loop.backend)
    metrics["core.replica_build_s"] = median([b for b, _ in setups])
    metrics["core.profiling_iteration_s"] = median([p for _, p in setups])
    metrics["backend.allocate_pool_s"] = median(
        [tracer.metric_self_times(s).get("backend.allocate_pool_s", 0.0) for s in setup_steps]
    )
    metrics["backend.close_s"] = median(
        [tracer.metric_self_times(s).get("backend.close_s", 0.0) for s in closed_steps]
    )
    metrics["modeled.backward_s"] = median(loop.modeled_backward_s)
    metrics["modeled.exposed_comm_s"] = median(loop.modeled_exposed_s)
    untraced_p50 = median(plain.step_s)
    metrics["trace.overhead_ratio"] = median(loop.step_s) / untraced_p50
    traced_iteration = median(loop.iteration_s)
    accounted = sum(metrics[m] for m in SELF_TIME_METRICS) / traced_iteration
    metrics["trace.accounted_ratio"] = accounted
    metrics["ref.world1_step_s"] = ref_s
    if abs(accounted - 1.0) > ACCOUNT_TOLERANCE:
        problems.append(
            f"per-layer self times sum to {accounted:.3f} of the traced step "
            f"(tolerance {ACCOUNT_TOLERANCE})"
        )

    write_trace(workload, seed, tracer, steps, metrics, untraced_p50)
    attempted = plain.attempted + loop.attempted
    failed = plain.failed + loop.failed
    return metrics, PER_LAYER_UNITS, attempted, failed, problems


def world1_reference(workload, seed: int) -> float:
    """Median step of the same model and per-rank batch on one ``local`` worker."""
    trainer = workload.make_trainer(seed, backend="local", spec=workload.spec(1, 1))
    try:
        stream = workload.batches(seed, world_size=1)
        loss_fn = workload.loss_fn()
        trainer.engine.step(stream.next(), loss_fn)
        times = []
        for _ in range(REF_STEPS):
            batches = stream.next()
            t0 = time.perf_counter()
            trainer.engine.step(batches, loss_fn)
            times.append(time.perf_counter() - t0)
    finally:
        trainer.transport.close()
    return median(times)


def write_trace(workload, seed, tracer, steps, metrics, untraced_p50) -> None:
    """Chrome trace + self-time table to ``out/``; shares table to stdout."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{seed}"
    with open(f"{stem}.trace.json", "w") as fh:
        json.dump(tracer.chrome(), fh)
    table = tracer.self_time_table(steps)
    lines = [f"self time per traced step, {workload.name}, seed {seed}, {len(steps)} steps",
             f"{'span':<52} {'metric':<30} {'median s':>11} {'share':>7}"]
    lines += [f"{span:<52} {metric:<30} {med:>11.3e} {share:>7.1%}"
              for span, metric, med, share in table]
    with open(f"{stem}.selftime.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"\nper-layer share of untraced step_s_p50 = {untraced_p50:.4e} s "
          f"({workload.name})")
    for name in SELF_TIME_METRICS:
        if name != "data.next_batch_s":
            print(f"  {name:<30} {metrics[name] / untraced_p50:>7.1%}")
    print("backend counters per step: " + ", ".join(
        f"{k}={metrics[f'backend.{k}']:g}" for k in BACKEND_COUNTERS))
    print(f"trace written to {stem}.trace.json")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_source_tree(Path.cwd())
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    try:
        run = traced if args.trace else end_to_end
        metrics, units, attempted, failed, problems = run(workload, args.seed, args.seconds)
    finally:
        stop_resource_tracker()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
