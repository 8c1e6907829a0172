"""Checkpointing: save/load models and optimizers to a single ``.npz`` file.

Distributed training jobs checkpoint the rank-0 replica; this module
provides that, including optimizer state.  Only rank 0's model and
optimizer are saved, so a resume is bit-exact only for algorithms whose
replicas stay identical and keep no other per-rank state.  Algorithms
with per-rank state (error-feedback residuals, decentralized replicas that
diverge) do not resume bit-exactly; saving the whole engine state is
ROADMAP item 4.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .module import Module
from .optim import Optimizer

PathLike = str | Path

_META_KEY = "__checkpoint_meta__"


def _flatten_state(prefix: str, state, out: dict[str, np.ndarray], meta: dict) -> None:
    """Recursively store arrays under ``prefix``; scalars/None go to meta."""
    if isinstance(state, dict):
        meta_node = meta.setdefault("dict", {})
        for key, value in state.items():
            sub_meta = meta_node.setdefault(str(key), {})
            _flatten_state(f"{prefix}.{key}", value, out, sub_meta)
    elif isinstance(state, (list, tuple)):
        meta["list"] = []
        for i, value in enumerate(state):
            sub_meta: dict = {}
            meta["list"].append(sub_meta)
            _flatten_state(f"{prefix}.{i}", value, out, sub_meta)
    elif isinstance(state, np.ndarray):
        meta["array"] = prefix
        out[prefix] = state
    elif state is None or isinstance(state, (bool, int, float, str)):
        meta["scalar"] = state
    else:
        raise TypeError(f"cannot checkpoint value of type {type(state)!r} at {prefix}")


def _rebuild_state(meta: dict, arrays: dict[str, np.ndarray]):
    if "dict" in meta:
        return {key: _rebuild_state(sub, arrays) for key, sub in meta["dict"].items()}
    if "list" in meta:
        return [_rebuild_state(sub, arrays) for sub in meta["list"]]
    if "array" in meta:
        return arrays[meta["array"]]
    return meta.get("scalar")


def save_checkpoint(
    path: PathLike,
    model: Module,
    optimizer: Optimizer | None = None,
    step: int = 0,
) -> None:
    """Write model parameters (+ optional optimizer state) to ``path``."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"step": step, "optimizer": None}
    for name, value in model.state_dict().items():
        arrays[f"model.{name}"] = value
    meta["model_keys"] = sorted(model.state_dict().keys())
    if optimizer is not None:
        opt_meta: dict = {}
        _flatten_state("optim", optimizer.state_dict(), arrays, opt_meta)
        meta["optimizer"] = opt_meta
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez(Path(path), **arrays)


def load_checkpoint(
    path: PathLike,
    model: Module,
    optimizer: Optimizer | None = None,
) -> int:
    """Restore model (+ optimizer) from ``path``; returns the saved step."""
    with np.load(Path(path), allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays.pop(_META_KEY)).decode("utf-8"))

    state = {
        name: arrays[f"model.{name}"]
        for name in meta["model_keys"]
    }
    model.load_state_dict(state)

    if optimizer is not None:
        if meta["optimizer"] is None:
            raise ValueError(f"checkpoint {path} holds no optimizer state")
        optimizer.load_state_dict(_rebuild_state(meta["optimizer"], arrays))
    return int(meta["step"])
