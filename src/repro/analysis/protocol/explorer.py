"""Bounded-exhaustive interleaving explorer for the protocol model.

Explores every reachable interleaving of the :class:`~.model.ModelState`
transition system (parent program × per-rank worker loops), with two
state-space reductions:

* **state deduplication** — states are fingerprinted structurally; a state
  reached twice through different interleavings is expanded once;
* **ample-set partial-order reduction** (DPOR-style) — when some process's
  next transition touches objects disjoint from every *other* enabled
  process's next transition, only that process is scheduled.  All protocol
  objects (doorbell/ack pipes, rings, segments, liveness) are per-worker
  with a single reader and single writer, so dependent transitions are
  exactly the parent↔worker pairs on one worker's objects — which are never
  reduced away.  ``por=False`` disables the reduction for cross-checking.

The first invariant violation (raised inside a transition) or bad quiescent
state (classified by :meth:`~.model.ModelState.quiescence_finding`) stops
the search and is returned as a single root-cause
:class:`~repro.analysis.report.Finding` whose witness is the interleaving
trace — the counterexample, printable via ``repro analyze --explain``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from ..report import Finding
from .model import Faults, ModelState, Workload, build_model

#: Witness traces longer than this elide their prefix.
MAX_WITNESS_STEPS = 30


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    workload: Workload
    faults: Faults
    finding: Finding | None = None
    states: int = 0
    transitions: int = 0
    max_depth: int = 0
    truncated: bool = False
    elapsed_s: float = 0.0
    por: bool = True

    @property
    def ok(self) -> bool:
        return self.finding is None and not self.truncated

    def findings(self) -> list[Finding]:
        return [self.finding] if self.finding is not None else []

    def describe(self) -> str:
        status = "clean" if self.ok else ("TRUNCATED" if self.finding is None else "FAIL")
        reduce = " (pool-ref reduce)" if self.workload.reduce else ""
        return (
            f"{status}: world {self.workload.world}{reduce}, {self.states} states, "
            f"{self.transitions} transitions, depth {self.max_depth}, "
            f"{self.elapsed_s * 1000:.0f} ms"
        )

    def to_dict(self) -> dict:
        return {
            "world": self.workload.world,
            "tasks": self.workload.tasks,
            "reduce": self.workload.reduce,
            "ok": self.ok,
            "states": self.states,
            "transitions": self.transitions,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "elapsed_s": self.elapsed_s,
            "por": self.por,
            "finding": self.finding.to_dict() if self.finding else None,
        }


@dataclass
class _Node:
    """One executed transition, linked to its predecessor for witnesses."""

    desc: str
    parent: int
    depth: int = 0


def _witness(nodes: list[_Node], index: int) -> tuple[str, ...]:
    steps: list[str] = []
    while index >= 0:
        node = nodes[index]
        steps.append(node.desc)
        index = node.parent
    steps.reverse()
    lines = [f"step {i}: {desc}" for i, desc in enumerate(steps)]
    if len(lines) > MAX_WITNESS_STEPS:
        omitted = len(lines) - MAX_WITNESS_STEPS
        lines = [f"... ({omitted} earlier step(s) elided)"] + lines[-MAX_WITNESS_STEPS:]
    return tuple(lines)


def _ample(state: ModelState, procs: list[str]) -> list[str]:
    """Pick a single independent process when one exists (POR)."""
    if len(procs) <= 1:
        return procs
    footprints = {proc: state.footprint(proc) for proc in procs}
    for proc in procs:
        mine = footprints[proc]
        if all(mine.isdisjoint(footprints[other]) for other in procs if other is not proc):
            return [proc]
    return procs


@dataclass
class Explorer:
    """Reusable exploration configuration (bounds + reduction toggle)."""

    max_states: int = 500_000
    max_depth: int = 5_000
    por: bool = True

    def explore(self, workload: Workload, faults: Faults | None = None) -> ExplorationResult:
        """Exhaustively explore ``workload`` with ``faults`` seeded."""
        faults = faults or Faults()
        start = time.monotonic()
        initial = build_model(workload, faults)
        result = ExplorationResult(workload=workload, faults=faults, por=self.por)

        nodes: list[_Node] = [_Node(desc="initial state", parent=-1)]
        stack: list[tuple[ModelState, int]] = [(initial, 0)]
        visited: set[tuple] = {initial.fingerprint()}
        result.states = 1

        while stack:
            state, node_index = stack.pop()
            depth = nodes[node_index].depth
            procs = state.enabled_procs()
            if not procs:
                finding = state.quiescence_finding()
                if finding is not None:
                    result.finding = dataclasses.replace(
                        finding, witness=_witness(nodes, node_index)
                    )
                    break
                continue
            if self.por:
                procs = _ample(state, procs)
            stop = False
            for proc in procs:
                child = state.clone()
                desc, finding = child.step(proc)
                result.transitions += 1
                nodes.append(_Node(desc=desc, parent=node_index, depth=depth + 1))
                child_index = len(nodes) - 1
                result.max_depth = max(result.max_depth, depth + 1)
                if finding is not None:
                    result.finding = dataclasses.replace(
                        finding, witness=_witness(nodes, child_index)
                    )
                    stop = True
                    break
                fingerprint = child.fingerprint()
                if fingerprint in visited:
                    continue
                visited.add(fingerprint)
                result.states += 1
                if result.states >= self.max_states or depth + 1 >= self.max_depth:
                    result.truncated = True
                    continue
                stack.append((child, child_index))
            if stop:
                break

        result.elapsed_s = time.monotonic() - start
        return result


def explore(
    workload: Workload,
    faults: Faults | None = None,
    *,
    max_states: int = 500_000,
    max_depth: int = 5_000,
    por: bool = True,
) -> ExplorationResult:
    """One-shot exhaustive exploration (see :class:`Explorer`)."""
    return Explorer(max_states=max_states, max_depth=max_depth, por=por).explore(
        workload, faults
    )
