"""``python -m repro analyze --protocol``: the protocol verification gate.

One :func:`analyze_protocol` call runs the three protocol checks end to
end and aggregates them into a :class:`ProtocolReport`:

1. **exhaustive exploration** — the clean protocol model at several world
   sizes (default 1/2/4), every interleaving, under DPOR + state dedup,
   plus pool-ref reduce workloads (every pool mapped everywhere, one
   in-place reduce per rank) at each multi-rank world; any finding or
   truncation fails the gate;
2. **mutation testing** — the seeded-bug suite of :mod:`.mutations`; every
   bug must be caught with exactly its root-cause rule;
3. **live conformance** (optional, default on) — a real
   :class:`~repro.cluster.backends.shm.SharedMemoryBackend` run under the
   sanitizer: pool mappings, a pool-ref in-place reduce, per-rank tasks
   (one of them too large for the ring, so its program takes the pipe) and
   a graceful close, with the recorded cross-process
   event stream replayed through
   :func:`~.sanitizer.check_events`.  Divergence fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..report import Finding
from .explorer import ExplorationResult, Explorer
from .mutations import MutationReport, run_mutations
from .model import Workload


def _sanitized_live_findings(world: int = 2) -> tuple[int, list[Finding]]:
    """One sanitized end-to-end shm run; returns (events, divergences)."""
    import numpy as np

    from ...cluster.backends.shm import SharedMemoryBackend
    from .sanitizer import check_events

    ring_bytes = 1 << 16
    with SharedMemoryBackend(world_size=world, ring_bytes=ring_bytes, sanitize=True) as backend:
        pools = [backend.allocate_pool(rank, 16) for rank in range(world)]
        for rank, pool in enumerate(pools):
            pool[:] = np.arange(16, dtype=np.float64) * (rank + 1)
        backend.run_rank_tasks(_pool_sum, {0: (np.zeros(ring_bytes // 8),)})
        refs = backend.resolve_pool_refs(pools, list(range(world)))
        if refs is not None:
            order = tuple(range(world))
            step = 16 // world
            chunks = [(j * step, (j + 1) * step, order) for j in range(world)]
            backend.pool_ref_reduce(refs, chunks, add_zero=True)
        backend.run_rank_tasks(_pool_sum, {rank: () for rank in range(world)})
        backend.close()
        events = backend.protocol_events
    return len(events), check_events(events)


def _pool_sum(pool, *args):  # module-level: workers pickle it by reference
    return float(pool.sum()) if pool is not None else 0.0


@dataclass
class ProtocolReport:
    """Aggregated verdict of the protocol gate (see module doc)."""

    explorations: list[ExplorationResult] = field(default_factory=list)
    mutation_report: MutationReport | None = None
    live_events: int | None = None
    live_findings: list[Finding] = field(default_factory=list)
    live_error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            all(result.ok for result in self.explorations)
            and (self.mutation_report is None or self.mutation_report.ok)
            and not self.live_findings
            and self.live_error is None
        )

    def all_findings(self) -> list[Finding]:
        findings: list[Finding] = []
        for result in self.explorations:
            findings.extend(result.findings())
        findings.extend(self.live_findings)
        return findings

    def render(self) -> str:
        lines = ["protocol model exploration:"]
        lines.extend(f"  {result.describe()}" for result in self.explorations)
        for result in self.explorations:
            for finding in result.findings():
                lines.append(finding.explain())
        if self.mutation_report is not None:
            lines.append("mutation testing:")
            lines.extend(f"  {line}" for line in self.mutation_report.render().splitlines())
        if self.live_error is not None:
            lines.append(f"live conformance: ERROR ({self.live_error})")
        elif self.live_events is not None:
            verdict = "clean" if not self.live_findings else "DIVERGED"
            lines.append(
                f"live conformance: {verdict} "
                f"({self.live_events} events from a sanitized shm run)"
            )
            lines.extend(finding.explain() for finding in self.live_findings)
        lines.append(f"protocol gate: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "explorations": [result.to_dict() for result in self.explorations],
            "mutations": (
                self.mutation_report.to_dict() if self.mutation_report is not None else None
            ),
            "live": {
                "events": self.live_events,
                "error": self.live_error,
                "findings": [finding.to_dict() for finding in self.live_findings],
            },
        }


def analyze_protocol(
    worlds: tuple[int, ...] = (1, 2, 4),
    mutations: bool = True,
    live: bool = True,
    explorer: Explorer | None = None,
) -> ProtocolReport:
    """Run the full protocol gate (exploration + mutations + live run)."""
    explorer = explorer or Explorer()
    report = ProtocolReport()
    for world in worlds:
        report.explorations.append(explorer.explore(Workload(world=world)))
    for world in worlds:
        if world > 1:  # a 1-member collective never takes the pool-ref path
            report.explorations.append(explorer.explore(Workload(world=world, reduce=True)))
    if mutations:
        report.mutation_report = run_mutations(explorer=explorer)
    if live:
        try:
            report.live_events, report.live_findings = _sanitized_live_findings()
        except Exception as exc:  # pragma: no cover - environment-dependent
            report.live_error = f"{type(exc).__name__}: {exc}"
    return report
