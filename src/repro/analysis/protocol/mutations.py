"""Mutation testing for the protocol model checker.

Each :class:`Mutation` seeds one plausible backend bug into the model (via
:class:`~.model.Faults`) and names the single protocol rule whose finding
the explorer must report — the *root cause*, not a downstream symptom.  The
harness (:func:`run_mutations`) runs the exhaustive explorer over every
mutation and over the clean baseline, asserting:

* the clean model explores with **zero** findings (no false positives);
* every mutation is **caught** (the search finds a counterexample);
* the counterexample is **exactly one** finding carrying the mutation's
  expected rule and a printable interleaving witness (root-cause
  localization, no cascades).

This is the self-test of the checker: if someone weakens an invariant or
a quiescence classifier, a mutation stops being caught (or gets the wrong
rule) and ``make check`` / the ``protocol-check`` CI job fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .explorer import ExplorationResult, Explorer
from .model import (
    RULE_BARRIER,
    RULE_BUDGET,
    RULE_DEADLOCK,
    RULE_DELIVERY,
    RULE_LEAK,
    RULE_LIFECYCLE,
    RULE_LOST_WAKEUP,
    RULE_ORPHAN,
    RULE_POOLREF,
    RULE_PROGRAM,
    RULE_RING_OVERLAP,
    RULE_SEQ,
    Faults,
    Workload,
)

#: The small-but-complete default workload: two ranks, two task calls (one
#: program per rank each), then the pool mappings — every protocol phase is
#: exercised.  Batch 0 and batch 1 are the two task calls.
DEFAULT_WORKLOAD = Workload()

#: One task call and nothing after it but teardown: the minimal shape where
#: a skipped ack-flag barrier is still outstanding at exit.
_ONE_CALL_WORKLOAD = Workload(tasks=1, pool=False)

#: Two task calls on one rank, nothing else: the minimal shape where
#: posting call 1 before call 0's ack lets a write land on an unread record.
_TWO_CALL_WORKLOAD = Workload(world=1, pool=False)

#: Every rank maps every pool, then executes one in-place reduce chunk.
_REDUCE_WORKLOAD = Workload(world=2, reduce=True)


@dataclass(frozen=True)
class Mutation:
    """One seeded protocol bug and the rule that must catch it."""

    name: str
    faults: Faults
    expected_rule: str
    workload: Workload = DEFAULT_WORKLOAD
    description: str = ""


#: The seeded-bug suite: lifecycle and delivery bugs (dropped ack, stale
#: seq stamp, early unlink, skipped barrier, oversized record, double
#: close, wrong-rank delivery, orphaned worker, leaked segment, work behind
#: a close, pipelined ring overlap), two flag-word bugs (an ack set before
#: the program ran, a flag word rung without bumping its seq), and
#: two pool-ref bugs (a reduce descriptor targeting a segment its executor
#: never mapped, a batch ack raised before the reduce's peer-segment writes
#: completed).
MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        name="dropped-ack",
        faults=Faults(drop_ack=((0, 0),)),
        expected_rule=RULE_DEADLOCK,
        description="worker 0 silently drops the ack flag for its first task "
        "program; the parent's barrier waits forever",
    ),
    Mutation(
        name="stale-seq",
        faults=Faults(stale_seq=((0, 1),)),
        expected_rule=RULE_SEQ,
        description="batch 1's program record for rank 0 is stamped with the "
        "previous sequence number while its flag word carries the right one",
    ),
    Mutation(
        name="early-unlink",
        faults=Faults(early_unlink=(0,)),
        expected_rule=RULE_LIFECYCLE,
        description="the parent unlinks rank 0's segments before joining the "
        "worker",
    ),
    Mutation(
        name="skipped-barrier",
        faults=Faults(skip_barrier=(0,)),
        expected_rule=RULE_BARRIER,
        workload=_ONE_CALL_WORKLOAD,
        description="the parent never waits on batch 0's ack flags",
    ),
    Mutation(
        name="oversized-record",
        faults=Faults(force_place=True),
        expected_rule=RULE_BUDGET,
        workload=Workload(oversize=True),
        description="a program larger than the ring is force-placed instead of "
        "falling back to the pipe",
    ),
    Mutation(
        name="double-close",
        faults=Faults(double_close=(0,)),
        expected_rule=RULE_LIFECYCLE,
        description="rank 0 receives a second close doorbell after exiting",
    ),
    Mutation(
        name="wrong-rank-delivery",
        faults=Faults(wrong_dst=((1, 0),)),
        expected_rule=RULE_DELIVERY,
        description="batch 0's program record for rank 1 is stamped for another rank",
    ),
    Mutation(
        name="orphaned-worker",
        faults=Faults(orphan=(1,)),
        expected_rule=RULE_ORPHAN,
        description="the parent abandons rank 1: no close, no join, no unlink",
    ),
    Mutation(
        name="leaked-segment",
        faults=Faults(skip_unlink=(0,)),
        expected_rule=RULE_LEAK,
        description="rank 0's segments survive teardown",
    ),
    Mutation(
        name="post-after-close",
        faults=Faults(post_after_close=(0,)),
        expected_rule=RULE_LOST_WAKEUP,
        description="a task program is written and flagged for rank 0 behind "
        "its close: the wakeup is lost in the shutdown",
    ),
    Mutation(
        name="pipelined-ring-overlap",
        faults=Faults(pipeline_calls=True),
        expected_rule=RULE_RING_OVERLAP,
        workload=_TWO_CALL_WORKLOAD,
        description="call 1 posts its program before call 0's ack flag is "
        "observed, so a ring write lands on a record not yet read",
    ),
    Mutation(
        name="ack-before-program-end",
        faults=Faults(ack_early=(0,)),
        expected_rule=RULE_PROGRAM,
        description="worker 0 sets its batch ack flag before executing the "
        "program: the parent would read results that were never computed",
    ),
    Mutation(
        name="stale-flag-seq",
        faults=Faults(stale_flag=((0, 1),)),
        expected_rule=RULE_LOST_WAKEUP,
        description="batch 1's doorbell flag word for rank 0 reuses batch 0's "
        "seq, so the spinning worker never observes the new program",
    ),
    Mutation(
        name="unmapped-pool-ref",
        faults=Faults(poolref_unmapped=((0, 1),)),
        expected_rule=RULE_POOLREF,
        workload=_REDUCE_WORKLOAD,
        description="rank 1's pool segment is never mapped into worker 0, so "
        "worker 0's reduce dereferences an unmapped descriptor",
    ),
    Mutation(
        name="reduce-before-peer-write",
        faults=Faults(skip_reduce_write=(0,)),
        expected_rule=RULE_POOLREF,
        workload=_REDUCE_WORKLOAD,
        description="worker 0 acks its reduce batch before writing the peers' "
        "pool segments; the parent reads slices that were never reduced",
    ),
)


@dataclass
class MutationOutcome:
    """Verdict for one mutation (or the clean baseline)."""

    mutation: Mutation
    result: ExplorationResult
    caught: bool
    rule: str | None
    exact: bool  # exactly one finding, carrying the expected rule

    @property
    def ok(self) -> bool:
        return self.exact

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        caught = self.rule or "not caught"
        return (
            f"{verdict:4s} {self.mutation.name}: expected "
            f"{self.mutation.expected_rule}, got {caught} "
            f"({self.result.states} states)"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.mutation.name,
            "expected_rule": self.mutation.expected_rule,
            "caught_rule": self.rule,
            "caught": self.caught,
            "ok": self.ok,
            "states": self.result.states,
            "transitions": self.result.transitions,
            "elapsed_s": self.result.elapsed_s,
        }


@dataclass
class MutationReport:
    """All mutation outcomes plus the clean-baseline exploration."""

    baseline: ExplorationResult
    outcomes: list[MutationOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.baseline.ok and all(outcome.ok for outcome in self.outcomes)

    def render(self) -> str:
        lines = [f"clean baseline: {self.baseline.describe()}"]
        lines.extend(outcome.describe() for outcome in self.outcomes)
        caught = sum(1 for o in self.outcomes if o.ok)
        lines.append(f"mutations: {caught}/{len(self.outcomes)} caught with the root cause")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "baseline": self.baseline.to_dict(),
            "mutations": [outcome.to_dict() for outcome in self.outcomes],
        }


def run_mutation(mutation: Mutation, explorer: Explorer | None = None) -> MutationOutcome:
    """Explore one mutation; classify whether its bug was root-caused."""
    explorer = explorer or Explorer()
    result = explorer.explore(mutation.workload, mutation.faults)
    findings = result.findings()
    rule = findings[0].rule if findings else None
    caught = bool(findings)
    exact = (
        len(findings) == 1
        and rule == mutation.expected_rule
        and bool(findings[0].witness)
        and not result.truncated
    )
    return MutationOutcome(
        mutation=mutation, result=result, caught=caught, rule=rule, exact=exact
    )


def run_mutations(
    mutations: tuple[Mutation, ...] = MUTATIONS,
    explorer: Explorer | None = None,
) -> MutationReport:
    """Run the clean baseline plus every seeded bug through the explorer."""
    explorer = explorer or Explorer()
    report = MutationReport(baseline=explorer.explore(DEFAULT_WORKLOAD))
    for mutation in mutations:
        report.outcomes.append(run_mutation(mutation, explorer))
    return report
