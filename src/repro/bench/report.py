"""One-shot evaluation report: every experiment, one markdown document.

``python -m repro.bench report [--full] [--out FILE]`` runs the complete
evaluation — Fig. 4, both Fig. 9 axes, the three ablations, the latency
profile, the WAL overhead per fsync policy and an instrumented run's
engine metrics — and renders a self-contained markdown report with the
measured numbers, suitable for updating EXPERIMENTS.md after a change.
"""

from __future__ import annotations

from ..obs import MetricsRegistry, rollup
from .ablations import (
    context_ablation,
    fig4_comparison,
    incremental_ablation,
    merge_ablation,
)
from .fig9 import linearity_ratio, run_fig9a, run_fig9b
from .harness import run_detection, run_with_latency
from .wal import run_wal_bench
from .workloads import build_events_axis_workload


def generate_report(full_scale: bool = False) -> str:
    """Run every experiment and return the markdown report."""
    sections = [
        "# RCEDA evaluation report",
        "",
        f"Scale: {'paper (250k events / 500 rules)' if full_scale else 'quick'}",
        "",
    ]

    fig4 = fig4_comparison()
    sections += [
        "## Fig. 4 — instance-level constraints vs type-level ECA",
        "",
        f"* RCEDA matches: **{fig4.rceda_matches}** (paper: 2)",
        f"* type-level ECA matches: **{fig4.naive_matches}** (paper: 0), "
        f"{fig4.naive_candidates_rejected} candidate(s) rejected post-hoc",
        "",
    ]

    results_a = run_fig9a(full_scale=full_scale)
    sections += [
        "## Fig. 9 — events axis",
        "",
        "| events | rules | detections | total ms | events/s |",
        "|---:|---:|---:|---:|---:|",
    ]
    for result in results_a:
        sections.append(
            f"| {result.n_events:,} | {result.n_rules} | "
            f"{result.detections:,} | {result.total_ms:.1f} | "
            f"{result.events_per_second:,.0f} |"
        )
    sections += [
        "",
        f"Per-event cost drift (last/first): "
        f"**{linearity_ratio(results_a):.2f}** (1.0 = perfectly linear).",
        "",
    ]

    results_b = run_fig9b(full_scale=full_scale)
    sections += [
        "## Fig. 9 — rules axis",
        "",
        "| rules | events | detections | total ms |",
        "|---:|---:|---:|---:|",
    ]
    for result in results_b:
        sections.append(
            f"| {result.n_rules} | {result.n_events:,} | "
            f"{result.detections:,} | {result.total_ms:.1f} |"
        )
    growth = results_b[-1].elapsed_seconds / max(results_b[0].elapsed_seconds, 1e-9)
    rule_growth = results_b[-1].n_rules / results_b[0].n_rules
    sections += [
        "",
        f"{rule_growth:.0f}x the rules cost {growth:.1f}x the time.",
        "",
    ]

    sections += [
        "## Ablation — parameter contexts",
        "",
        "| context | detections | correct |",
        "|---|---:|---:|",
    ]
    for result in context_ablation():
        sections.append(
            f"| {result.context} | {result.detections} | "
            f"{result.correct_cases}/{result.total_cases} |"
        )
    sections.append("")

    merge = merge_ablation()
    sections += [
        "## Ablation — common sub-graph merging",
        "",
        f"* merged: {merge.merged_nodes} nodes, {merge.merged.total_ms:.1f} ms",
        f"* unmerged: {merge.unmerged_nodes} nodes, "
        f"{merge.unmerged.total_ms:.1f} ms",
        f"* node reduction: {merge.node_reduction:.0%}",
        "",
    ]

    incremental = incremental_ablation()
    sections += [
        "## Ablation — incremental vs re-evaluation",
        "",
        f"* incremental: {incremental.incremental_seconds * 1000:.1f} ms",
        f"* rescan: {incremental.rescan_seconds * 1000:.1f} ms "
        f"(**{incremental.speedup:.0f}x**), results match: "
        f"{incremental.detections_match}",
        "",
    ]

    workload = build_events_axis_workload(
        100_000 if full_scale else 10_000, n_rules=10
    )
    latency = run_with_latency(workload.rules, workload.observations)
    sections += [
        "## Per-event latency",
        "",
        f"Over {latency.n_events:,} events: p50 {latency.p50_us:.1f} µs, "
        f"p95 {latency.p95_us:.1f} µs, p99 {latency.p99_us:.1f} µs, "
        f"max {latency.max_us / 1000:.2f} ms.",
        "",
    ]

    wal_results = run_wal_bench(full_scale=full_scale)
    sections += [
        "## WAL durability overhead",
        "",
        f"Same detection workload ({wal_results[0].n_events:,} events) run "
        f"through `DurableEngine` (log-ahead + periodic checkpoints) per "
        f"fsync policy; baseline is the bare engine at "
        f"{wal_results[0].baseline_seconds * 1000:.1f} ms.",
        "",
        "| fsync policy | total ms | overhead | bytes logged | rotations "
        "| fsyncs |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for result in wal_results:
        sections.append(
            f"| {result.policy} | {result.total_ms:.1f} | "
            f"{result.overhead_pct:.1f}% | {result.bytes_logged:,} | "
            f"{result.rotations} | {result.fsyncs} |"
        )
    sections.append("")

    registry = MetricsRegistry()
    instrumented = run_detection(
        workload.rules,
        workload.observations,
        label="report",
        registry=registry,
    )
    match = registry.get("rceda_node_match_seconds")
    sections += [
        "## Engine metrics (instrumented run)",
        "",
        f"Same workload re-run with a `repro.obs` registry attached "
        f"({instrumented.total_ms:.1f} ms; instrumentation adds clock reads, "
        f"so do not compare with the timings above).",
        "",
        "| node kind | matches | total ms | mean µs |",
        "|---|---:|---:|---:|",
    ]
    for child in sorted(
        match.children(), key=lambda entry: -entry.sum
    ):
        if child.count == 0:
            continue
        sections.append(
            f"| {child.labels_map['kind']} | {child.count:,} | "
            f"{child.sum * 1000:.1f} | "
            f"{child.sum / child.count * 1e6:.1f} |"
        )
    sections += [
        "",
        f"* pseudo events: {rollup(registry, 'rceda_pseudo_scheduled_total'):,.0f} "
        f"scheduled, {rollup(registry, 'rceda_pseudo_fired_total'):,.0f} fired",
        f"* GC reclaimed: {rollup(registry, 'rceda_gc_reclaimed_total'):,.0f} "
        f"state items",
        f"* kills (negation/lookback): "
        f"{rollup(registry, 'rceda_kills_total'):,.0f}",
        "",
    ]
    return "\n".join(sections)
