"""Self-tests of the step benchmark: ``python3 -m pytest stepbench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Generous per-workload budget for a handful of steps on 2 cores.
FEW_STEPS_BUDGET_S = 60.0


def _losses(workload, seed: int, steps: int) -> list[float]:
    trainer, stream, first, _build, _profile = run.set_up(workload, seed)
    try:
        loop = run.run_loop(trainer, stream, workload.loss_fn(), 0.0, steps, float("inf"))
    finally:
        trainer.transport.close()
    return [first] + loop.losses


def _first_batches(workload, seed: int, steps: int = 3) -> list:
    stream = workload.batches(seed)
    return [stream.next() for _ in range(steps)]


def _same_batches(a: list, b: list) -> bool:
    return all(
        np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        for step_a, step_b in zip(a, b)
        for x, y in zip(step_a, step_b)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_batches(name):
    workload = WORKLOADS[name]
    assert _same_batches(_first_batches(workload, 3), _first_batches(workload, 3))
    assert not _same_batches(_first_batches(workload, 3), _first_batches(workload, 4))


def test_seed_fixes_losses():
    workload = WORKLOADS["bert-embed-allreduce-shm-w2"]
    first = _losses(workload, 5, 8)
    assert first == _losses(workload, 5, 8)
    assert first != _losses(workload, 6, 8)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[group]} == units
    names = [*run.END_TO_END_UNITS, *run.PER_LAYER_UNITS, *run.REPORTED_UNITS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for unit in [*run.END_TO_END_UNITS.values(), *run.PER_LAYER_UNITS.values(),
                 *run.REPORTED_UNITS.values()]:
        assert UNIT.fullmatch(unit), unit
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_gates_and_runs_within_budget(name):
    workload = WORKLOADS[name]
    segments = run.shm_segments()
    start = time.perf_counter()
    trainer, stream, first, _build, _profile = run.set_up(workload, 2)
    try:
        problems = run.oracle_gate(workload, 2, trainer, stream, first)
        loop = run.run_loop(trainer, stream, workload.loss_fn(), 0.0, 3, float("inf"))
    finally:
        trainer.transport.close()
    assert time.perf_counter() - start < FEW_STEPS_BUDGET_S
    assert problems + loop.problems + run.leak_check(segments) == []
    assert loop.attempted == 3 and loop.failed == 0


def test_traced_run_reports_every_per_layer_metric():
    workload = WORKLOADS["bert-embed-allreduce-shm-w2"]
    metrics, units, attempted, failed, problems = run.traced(workload, 1, 0.2)
    assert problems == [] and failed == 0 and attempted > 0
    assert set(metrics) == set(units) == set(run.PER_LAYER_UNITS)
    assert metrics["tensor.backward_s"] > 0 and metrics["optim.elements"] > 0
    assert abs(metrics["trace.accounted_ratio"] - 1.0) <= run.ACCOUNT_TOLERANCE


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "stepbench" / "run.py"), "--workload", "vgg16-qsgd8-w4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
