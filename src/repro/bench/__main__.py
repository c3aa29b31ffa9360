"""CLI for regenerating the paper's evaluation.

Usage::

    python -m repro.bench fig9a [--full]
    python -m repro.bench fig9b [--full]
    python -m repro.bench fig4
    python -m repro.bench contexts
    python -m repro.bench merge
    python -m repro.bench incremental
    python -m repro.bench latency [--full]   # per-observation latency percentiles
    python -m repro.bench metrics [--full]   # instrumented run, Prometheus dump
    python -m repro.bench wal [--full]       # WAL durability overhead per fsync policy
    python -m repro.bench report [--full] [--out FILE]
                                             # every experiment, one markdown document
    python -m repro.bench all [--full]

``--full`` runs the paper-scale axes (250k events / 500 rules); the
default is a scaled-down sweep suitable for a quick check.
"""

from __future__ import annotations

import argparse
import sys

from .ablations import (
    context_ablation,
    fig4_comparison,
    incremental_ablation,
    merge_ablation,
)
from .fig9 import fig9a_table, fig9b_table, linearity_ratio, run_fig9a, run_fig9b


def _cmd_fig9a(full: bool) -> None:
    print("Fig. 9 (events axis): total processing time vs primitive events")
    results = run_fig9a(full_scale=full)
    print(fig9a_table(results))
    print(f"per-event cost drift (last/first): {linearity_ratio(results):.2f} "
          "(paper: ~linear, i.e. close to 1)")


def _cmd_fig9b(full: bool) -> None:
    print("Fig. 9 (rules axis): total processing time vs number of rules")
    results = run_fig9b(full_scale=full)
    print(fig9b_table(results))


def _cmd_fig4(_full: bool) -> None:
    result = fig4_comparison()
    print("Fig. 4 counter-example: TSEQ(TSEQ+(E1,0,1); E2,5,10)")
    print(f"  RCEDA matches:               {result.rceda_matches} (paper: 2)")
    print(f"  type-level ECA matches:      {result.naive_matches} (paper: 0)")
    print(f"  type-level candidates rejected by condition: "
          f"{result.naive_candidates_rejected}")


def _cmd_contexts(_full: bool) -> None:
    print("Parameter context ablation on overlapping packing workload")
    print(f"{'context':>14} | {'detections':>10} | {'correct':>12} | {'ms':>8}")
    for result in context_ablation():
        correct = f"{result.correct_cases}/{result.total_cases}"
        print(
            f"{result.context:>14} | {result.detections:>10} | {correct:>12} | "
            f"{result.elapsed_seconds * 1000:>8.1f}"
        )
    print("(only chronicle should recover every containment exactly)")


def _cmd_merge(_full: bool) -> None:
    result = merge_ablation()
    print("Common sub-graph merging ablation (50 identical rules)")
    print(f"  merged:   {result.merged_nodes:>4} nodes, "
          f"{result.merged.total_ms:8.1f} ms")
    print(f"  unmerged: {result.unmerged_nodes:>4} nodes, "
          f"{result.unmerged.total_ms:8.1f} ms")
    print(f"  node reduction: {result.node_reduction:.0%}")


def _cmd_incremental(_full: bool) -> None:
    result = incremental_ablation()
    print("Incremental detection vs full re-evaluation per arrival")
    print(f"  events:      {result.n_events}")
    print(f"  incremental: {result.incremental_seconds * 1000:8.1f} ms")
    print(f"  rescan:      {result.rescan_seconds * 1000:8.1f} ms")
    print(f"  speedup:     {result.speedup:.1f}x "
          f"(results match: {result.detections_match})")


def _cmd_latency(full: bool) -> None:
    from .harness import run_with_latency
    from .workloads import build_events_axis_workload

    n_events = 100_000 if full else 10_000
    workload = build_events_axis_workload(n_events, n_rules=10)
    result = run_with_latency(workload.rules, workload.observations)
    print(f"Per-observation latency over {result.n_events:,} events:")
    print(f"  p50  {result.p50_us:8.1f} us")
    print(f"  p95  {result.p95_us:8.1f} us")
    print(f"  p99  {result.p99_us:8.1f} us")
    print(f"  max  {result.max_us:8.1f} us")
    print(f"  mean {result.mean_us:8.1f} us")


def _cmd_metrics(full: bool) -> None:
    from ..obs import MetricsRegistry
    from .harness import run_detection
    from .workloads import build_events_axis_workload

    n_events = 100_000 if full else 10_000
    workload = build_events_axis_workload(n_events, n_rules=10)
    registry = MetricsRegistry()
    result = run_detection(
        workload.rules, workload.observations, label="bench", registry=registry
    )
    print(f"# instrumented run: {result.n_events:,} events, "
          f"{result.detections:,} detections, {result.total_ms:.1f} ms")
    print(registry.render_prometheus(), end="")


def _cmd_wal(full: bool) -> None:
    from .wal import (
        record_costs_line,
        run_record_costs,
        run_wal_bench,
        wal_table,
    )

    results = run_wal_bench(full_scale=full)
    print(
        f"WAL durability overhead over {results[0].n_events:,} events "
        f"(baseline: bare engine, {results[0].baseline_seconds * 1000:.1f} ms)"
    )
    print(wal_table(results))
    print(record_costs_line(run_record_costs(full_scale=full)))


def _cmd_report(full: bool, out: "str | None" = None) -> None:
    from .report import generate_report

    text = generate_report(full_scale=full)
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"report written to {out}")
    else:
        print(text)


_COMMANDS = {
    "fig9a": _cmd_fig9a,
    "fig9b": _cmd_fig9b,
    "fig4": _cmd_fig4,
    "contexts": _cmd_contexts,
    "merge": _cmd_merge,
    "incremental": _cmd_incremental,
    "latency": _cmd_latency,
    "metrics": _cmd_metrics,
    "wal": _cmd_wal,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS) + ["all", "report"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale axes (250k events / 500 rules); slower",
    )
    parser.add_argument(
        "--out", help="(report only) write the markdown report to this file"
    )
    arguments = parser.parse_args(argv)
    if arguments.command == "report":
        _cmd_report(arguments.full, arguments.out)
        return 0
    if arguments.command == "all":
        for name in (
            "fig4",
            "fig9a",
            "fig9b",
            "contexts",
            "merge",
            "incremental",
            "latency",
            "wal",
        ):
            _COMMANDS[name](arguments.full)
            print()
    else:
        _COMMANDS[arguments.command](arguments.full)
    return 0


if __name__ == "__main__":
    sys.exit(main())
