"""Checkpoint and resume a distributed training run, then auto-tune it.

Shows two production conveniences built on the reproduction:

1. checkpoint the rank-0 replica (model + optimizer) mid-run and resume a
   *fresh* trainer from it.  Only rank 0 is saved, so algorithms with
   per-rank state (error-feedback residuals, diverging decentralized
   replicas) do not resume bit-exactly; see ROADMAP item 4;
2. ask the auto-tuner which algorithm this model should use on the current
   network before resuming.

Run:  python examples/checkpoint_resume.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms import AllreduceSGD, make_algorithm
from repro.cluster import ClusterSpec, paper_cluster
from repro.core import recommend
from repro.models import vgg16_spec
from repro.tensor import load_checkpoint, save_checkpoint
from repro.training import DistributedTrainer, get_task


def main() -> None:
    cluster = ClusterSpec(num_nodes=2, workers_per_node=4)
    task = get_task("VGG16")

    # ---- phase 1: train 2 epochs and checkpoint rank 0 -------------------
    trainer = DistributedTrainer(
        cluster, task.model_factory, task.make_optimizer, AllreduceSGD(), seed=0
    )
    loaders = task.make_loaders(cluster.world_size, seed=0)
    record = trainer.train(loaders, task.loss_fn, epochs=2, label="phase-1")
    print(f"phase 1 losses: {[f'{l:.3f}' for l in record.epoch_losses]}")

    rank0 = trainer.engine.workers[0]
    ckpt = Path(tempfile.mkdtemp()) / "vgg16.npz"
    save_checkpoint(ckpt, rank0.model, rank0.optimizer, step=2)
    print(f"checkpointed rank-0 replica to {ckpt}")

    # ---- phase 2: consult the auto-tuner for the resume algorithm --------
    report = recommend(vgg16_spec(), paper_cluster("10gbps"))
    print()
    print(report.render())
    chosen = report.best.algorithm
    print(f"resuming with: {chosen}")

    # ---- phase 3: fresh trainer, restore weights everywhere, keep going --
    def restored_model(rng: np.random.Generator):
        model = task.model_factory(rng)
        load_checkpoint(ckpt, model)  # every replica restores the same state
        return model

    resumed = DistributedTrainer(
        cluster, restored_model, task.make_optimizer,
        make_algorithm(chosen), seed=0,
    )
    record2 = resumed.train(loaders, task.loss_fn, epochs=3, label="phase-2")
    print(f"phase 2 losses: {[f'{l:.3f}' for l in record2.epoch_losses]}")
    assert record2.epoch_losses[-1] < record.epoch_losses[-1]
    print("resumed run continued to improve — checkpoint round trip OK")


if __name__ == "__main__":
    main()
