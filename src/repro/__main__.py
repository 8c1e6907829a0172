"""Command-line entry point: ``python -m repro <experiment> [options]``.

Regenerates individual tables/figures of the paper's evaluation, runs the
auto-tuner, statically analyzes algorithm communication schedules
(``python -m repro analyze``), or prints the system inventory.
``python -m repro all`` is the same as ``examples/reproduce_paper.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .cluster.topology import paper_cluster
from .core.autotune import recommend
from .experiments import (
    fig5_convergence_systems,
    fig6_convergence_algorithms,
    fig7_network_conditions,
    heterogeneity_study,
    scalability,
    silver_bullet,
    table1_support,
    table2_models,
    table3_speedup,
    table4_epoch_time,
    table5_ablation,
    time_to_loss,
)
from .models.zoo_specs import all_specs

EXPERIMENTS: dict[str, Callable[[], object]] = {
    "table1": table1_support.run,
    "table2": table2_models.run,
    "table3": table3_speedup.run,
    "table4": table4_epoch_time.run,
    "table5": table5_ablation.run,
    "fig5": lambda: fig5_convergence_systems.run(epochs=4),
    "fig6": lambda: fig6_convergence_algorithms.run(epochs=5),
    "fig7": fig7_network_conditions.run,
    "heterogeneity": heterogeneity_study.run,
    "scalability": scalability.run,
    "time-to-loss": time_to_loss.run,
    "silver-bullet": silver_bullet.run,
}


def _run_plans(args) -> int:
    """Symbolic plan-space sweep: no transport, no dry run (``--plans``).

    Exit code 1 when any error-severity finding fires on a default-enabled
    plan (a plan the enumerator emits without codec/topology overrides) —
    the ``lint-plans`` CI gate.
    """
    from .analysis.planspace import enumerate_points, sweep_planspace

    algorithms = None
    if args.algorithm is not None:
        algorithms = [args.algorithm]
    points = enumerate_points(
        algorithms=algorithms,
        world_shapes=((args.nodes, args.gpus_per_node),),
        include_baselines=args.hb,
    )
    try:
        report = sweep_planspace(points, hb=True)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_protocol(args) -> int:
    """Protocol gate: model exploration + mutations + live conformance."""
    from .analysis.protocol import analyze_protocol

    report = analyze_protocol(live=not args.no_live)
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_analyze(args) -> int:
    from .algorithms.registry import ALGORITHM_REGISTRY
    from .analysis import analyze_algorithm, analyze_all
    from .baselines import BASELINE_REGISTRY

    if args.nodes < 1 or args.gpus_per_node < 1:
        print("--nodes and --gpus-per-node must be >= 1", file=sys.stderr)
        return 2
    if args.steps < 1:
        print("--steps must be >= 1 (0 steps would pass vacuously)", file=sys.stderr)
        return 2
    if args.explain is not None and args.explain < 0:
        print("--explain takes a non-negative finding index", file=sys.stderr)
        return 2
    if args.protocol:
        return _run_protocol(args)
    if args.plans:
        return _run_plans(args)
    if args.all:
        report = analyze_all(
            num_nodes=args.nodes, gpus_per_node=args.gpus_per_node, steps=args.steps,
            hb=args.hb,
        )
        findings = report.all_findings()
    else:
        if args.algorithm is None:
            print("analyze needs an algorithm name or --all", file=sys.stderr)
            return 2
        known = set(ALGORITHM_REGISTRY) | (set(BASELINE_REGISTRY) if args.hb else set())
        if args.algorithm not in known:
            print(
                f"unknown algorithm {args.algorithm!r}; options: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        report = analyze_algorithm(
            args.algorithm,
            num_nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            steps=args.steps,
            hb=args.hb,
        )
        findings = report.findings
    if args.explain is not None:
        if args.explain >= len(findings):
            print(
                f"--explain {args.explain}: report has only {len(findings)} "
                "finding(s)",
                file=sys.stderr,
            )
            return 2
        print(findings[args.explain].explain())
        return 0 if report.ok else 1
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_perf(args) -> int:
    import os
    from pathlib import Path

    from .perf import check_against_baseline, run_suite
    from .perf.harness import render

    if args.backend is not None:
        # Every Transport the suite constructs resolves its backend from
        # the environment when nothing explicit is passed.
        os.environ["REPRO_BACKEND"] = args.backend
    result = run_suite(quick=args.quick, repeats=args.repeats)
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(render(result))
    print(f"wrote {out}")

    baseline = None
    baseline_path = Path(args.baseline)
    if args.check:
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
        else:
            print(f"no baseline at {baseline_path}; checking speedup floors only")
        failures = check_against_baseline(result, baseline)
        if failures:
            print("PERF CHECK FAILED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("perf check passed (regression gate + speedup floors)")
    return 0


def _run_autotune(args) -> int:
    specs = all_specs()
    if args.model not in specs:
        print(f"unknown model {args.model!r}; options: {sorted(specs)}", file=sys.stderr)
        return 2
    report = recommend(specs[args.model], paper_cluster(args.network))
    print(report.render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="regenerate one experiment (or 'all')"
    )
    run_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"],
    )

    tune_parser = subparsers.add_parser(
        "autotune", help="recommend the best algorithm for a model/network"
    )
    tune_parser.add_argument("model", help="VGG16 | BERT-LARGE | BERT-BASE | Transformer | LSTM+AlexNet")
    tune_parser.add_argument(
        "--network", default="25gbps", choices=["10gbps", "25gbps", "100gbps"]
    )

    perf_parser = subparsers.add_parser(
        "perf",
        help="benchmark the world-batched fast path vs the loop reference",
        description=(
            "Time the hot collective and compression kernels (loop vs "
            "batched fast path), one functional-mode epoch per world "
            "size, and the shm epoch and pool-reduce microbenches, "
            "write the result JSON (default BENCH.json; CI suffixes it "
            "per backend), and optionally gate against the committed "
            "baseline (fails when a kernel's geomean speedup drops >20% "
            "below baseline, or on a missed speedup floor)."
        ),
    )
    perf_parser.add_argument(
        "--out", default="BENCH.json", help="result JSON path"
    )
    perf_parser.add_argument(
        "--baseline",
        default="benchmarks/perf/baseline.json",
        help="baseline JSON to gate against (with --check)",
    )
    perf_parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) on regression vs baseline or a missed floor",
    )
    perf_parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: worlds {4,16}, one size per kernel",
    )
    perf_parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N timing repeats (default: 3, or 2 with --quick)",
    )
    perf_parser.add_argument(
        "--backend", default=None, choices=["local", "batched", "shm"],
        help=(
            "transport backend for the suite (sets REPRO_BACKEND; "
            "default: batched, or whatever REPRO_BACKEND already says)"
        ),
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="statically verify an algorithm's communication schedule",
        description=(
            "Dry-run an algorithm on a small simulated cluster, lower its "
            "execution plan, and run the checker suite (rank-symmetry, "
            "peer-matching, overlap-race, buffer-aliasing, ef-invariant). "
            "Exit code 1 when any error-severity finding fires."
        ),
    )
    analyze_parser.add_argument(
        "algorithm", nargs="?", default=None, help="registry name, e.g. 'allreduce'"
    )
    analyze_parser.add_argument(
        "--all", action="store_true", help="sweep every registered algorithm"
    )
    analyze_parser.add_argument("--nodes", type=int, default=2)
    analyze_parser.add_argument("--gpus-per-node", type=int, default=2)
    analyze_parser.add_argument(
        "--steps", type=int, default=5, help="dry-run iterations to record"
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze_parser.add_argument(
        "--hb", action="store_true",
        help=(
            "run the happens-before pass (vector-clock race/deadlock/"
            "lost-update/staleness rules) and sweep every O/F/H x "
            "update-mode schedule variant; includes the baseline registry "
            "under --all"
        ),
    )
    analyze_parser.add_argument(
        "--explain", type=int, default=None, metavar="N",
        help=(
            "print finding N with its happens-before witness (the unordered "
            "event pair and a minimal HB path) instead of the full report"
        ),
    )
    analyze_parser.add_argument(
        "--protocol", action="store_true",
        help=(
            "verify the transport backend protocol: exhaustively explore "
            "the shm protocol model (all interleavings, DPOR-reduced), run "
            "the seeded-bug mutation suite, and replay one sanitized live "
            "shm run through the cross-process conformance checker; exit 1 "
            "on any finding, missed mutation, or divergence"
        ),
    )
    analyze_parser.add_argument(
        "--no-live", action="store_true",
        help="with --protocol: skip the live sanitized shm run (model only)",
    )
    analyze_parser.add_argument(
        "--plans", action="store_true",
        help=(
            "symbolic plan-space sweep: enumerate O/F/H x algorithm plan "
            "points, verify each with the static rules plus the lowered "
            "checker and happens-before suites — no transport, no dry run. "
            "An algorithm name restricts the sweep; --hb widens it to the "
            "baseline registry; exit 1 on any error-severity finding"
        ),
    )

    args = parser.parse_args(argv)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "autotune":
        return _run_autotune(args)
    if args.command == "analyze":
        return _run_analyze(args)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"== {name} ==")
        print(EXPERIMENTS[name]().render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
