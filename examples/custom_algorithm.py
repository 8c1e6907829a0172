"""Implement a NEW training algorithm on BAGUA's primitives (paper Listing 2).

The paper's pitch is that a developer writes only the *communication
function*; the engine handles profiling, bucketing, flattening and
scheduling.  This example builds an algorithm the built-in zoo does not
ship — top-K sparsified SGD with two-sided error compensation — in ~30
lines, then trains it next to plain allreduce and compares loss and bytes.

Run:  python examples/custom_algorithm.py
"""

from repro.algorithms import AllreduceSGD
from repro.cluster import ClusterSpec
from repro.compression import ErrorFeedback, TopKCompressor
from repro.core import Algorithm, BaguaEngine, c_lp_s
from repro.training import DistributedTrainer, get_task


class TopKSGD(Algorithm):
    """Sparsified DP-SG: only the top 5% of gradient entries travel.

    Top-K is biased, so the C_LP_S primitive is used with error compensation
    on both the worker and the server side — exactly the pattern of the
    paper's Listing 2.
    """

    name = "topk-sgd"
    # One optimizer step after every bucket communicated (on_step_end).
    update_mode = "barrier"

    def __init__(self, ratio: float = 0.05) -> None:
        self.compressor = TopKCompressor(ratio=ratio)

    def setup(self, engine: BaguaEngine) -> None:
        for worker in engine.workers:
            worker.state["worker_ef"] = [
                ErrorFeedback(self.compressor) for _ in worker.buckets
            ]
            worker.state["server_ef"] = [
                ErrorFeedback(self.compressor) for _ in worker.buckets
            ]

    def comm_bucket(self, engine: BaguaEngine, k: int, step: int) -> None:
        summed = c_lp_s(
            engine.grads_of_bucket(k),
            engine.group,
            compressor=self.compressor,
            worker_errors=[w.state["worker_ef"][k] for w in engine.workers],
            server_errors=[w.state["server_ef"][k] for w in engine.workers],
            hierarchical=engine.hierarchical,
        )
        engine.set_grads_of_bucket(k, [s / engine.world_size for s in summed])

    def on_step_end(self, engine: BaguaEngine, step: int) -> None:
        for worker in engine.workers:
            worker.optimizer_step_on_buckets()


def run(algorithm, label: str):
    cluster = ClusterSpec(num_nodes=2, workers_per_node=4)
    task = get_task("VGG16")
    trainer = DistributedTrainer(
        cluster, task.model_factory, task.make_optimizer, algorithm, seed=0
    )
    loaders = task.make_loaders(cluster.world_size, seed=0)
    record = trainer.train(loaders, task.loss_fn, epochs=5, label=label)
    mb = trainer.transport.stats.total_bytes / 1e6
    return record, mb


def main() -> None:
    exact, exact_mb = run(AllreduceSGD(), "allreduce")
    sparse, sparse_mb = run(TopKSGD(ratio=0.05), "topk-sgd")

    print("epoch  allreduce-loss  topk5%-loss")
    for e, (a, b) in enumerate(zip(exact.epoch_losses, sparse.epoch_losses), 1):
        print(f"  {e}      {a:10.4f}    {b:10.4f}")
    print(f"\nbytes moved: allreduce {exact_mb:.1f} MB vs top-K {sparse_mb:.1f} MB "
          f"({exact_mb / sparse_mb:.1f}x less traffic)")


if __name__ == "__main__":
    main()
