"""Tests for the benchmark harness: workloads, measurements, ablations."""

import pytest

from repro.bench import (
    EVENTS_PER_CASE,
    build_events_axis_workload,
    build_rules_axis_workload,
    containment_rule_for_pair,
    context_ablation,
    fig4_comparison,
    fig9a_table,
    incremental_ablation,
    linearity_ratio,
    merge_ablation,
    run_detection,
    run_fig9a,
    run_fig9b,
)


class TestWorkloads:
    def test_events_axis_size(self):
        workload = build_events_axis_workload(6_000, n_rules=5)
        assert len(workload.observations) == 6_000
        assert len(workload.rules) == 5

    def test_events_axis_detections(self):
        workload = build_events_axis_workload(3_000, n_rules=5)
        result = run_detection(workload.rules, workload.observations)
        assert result.detections == workload.expected_detections
        assert workload.expected_detections == len(workload.observations) // EVENTS_PER_CASE

    def test_rules_axis_detections(self):
        workload = build_rules_axis_workload(60, n_events=3_000, lines=20)
        result = run_detection(workload.rules, workload.observations)
        assert result.detections == workload.expected_detections

    def test_rule_variants_do_not_merge(self):
        from repro import Engine

        first = containment_rule_for_pair(0, "a", "b", variant=0)
        second = containment_rule_for_pair(1, "a", "b", variant=1)
        engine = Engine([first, second])
        assert len(engine.graph.roots) == 2


class TestHarness:
    def test_result_fields(self):
        workload = build_events_axis_workload(1_200, n_rules=2)
        result = run_detection(workload.rules, workload.observations, label="x")
        assert result.label == "x"
        assert result.n_events == len(workload.observations)
        assert result.elapsed_seconds > 0
        assert result.events_per_second > 0
        assert result.total_ms == result.elapsed_seconds * 1000

    def test_table_rendering(self):
        results = run_fig9a(points=(1_200, 2_400), n_rules=2)
        table = fig9a_table(results)
        assert "events" in table and "detections" in table
        assert len(table.splitlines()) == 4

    def test_linearity_ratio(self):
        results = run_fig9a(points=(1_200, 2_400), n_rules=2)
        assert linearity_ratio(results) > 0


class TestSweeps:
    def test_fig9a_small(self):
        results = run_fig9a(points=(1_200, 2_400))
        assert [result.n_events for result in results] == [1_200, 2_400]

    def test_fig9b_small(self):
        results = run_fig9b(points=(5, 10), n_events=1_200)
        assert [result.n_rules for result in results] == [5, 10]


class TestAblations:
    def test_fig4(self):
        result = fig4_comparison()
        assert result.rceda_matches == 2
        assert result.naive_matches == 0

    def test_contexts(self):
        results = {r.context: r for r in context_ablation(cases=20)}
        assert results["chronicle"].correct_cases == results["chronicle"].total_cases
        assert results["recent"].correct_cases < results["recent"].total_cases

    def test_merge(self):
        result = merge_ablation(copies=10, cases=20)
        assert result.merged_nodes < result.unmerged_nodes
        assert result.merged.detections == result.unmerged.detections

    def test_incremental(self):
        result = incremental_ablation(cases=10)
        assert result.detections_match
        assert result.rescan_seconds > result.incremental_seconds


class TestCli:
    #: Every remaining command and a string only its output contains.
    #: A loop, not ``pytest.mark.parametrize``: the test id is pinned.
    EXPECTED_OUTPUT = {
        "contexts": "only chronicle should recover",
        "fig4": "RCEDA matches",
        "fig9a": "per-event cost drift",
        "fig9b": "rules axis",
        "incremental": "results match: True",
        "latency": "p99",
        "merge": "node reduction",
        "metrics": "# instrumented run",
        "wal": "fsync policy",
    }

    def test_main_runs_each_command(self, capsys):
        from repro.bench.__main__ import _COMMANDS, main

        assert sorted(_COMMANDS) == sorted(self.EXPECTED_OUTPUT)
        for command, expected in self.EXPECTED_OUTPUT.items():
            assert main([command]) == 0
            assert expected in capsys.readouterr().out, command

    # Options by argparse dest, so the retired spellings appear nowhere.
    @pytest.mark.parametrize(
        "argv",
        [[command] for command in ("serve", "cluster", "smoke")]
        + [
            ["fig4", "--" + dest.replace("_", "-"), "1"]
            for dest in ("scale", "pack", "max_overhead", "min_speedup")
        ],
    )
    def test_retired_commands_and_options_are_rejected(self, argv):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


class TestLatency:
    def test_latency_percentiles(self):
        from repro.bench import build_events_axis_workload, run_with_latency

        workload = build_events_axis_workload(1_200, n_rules=2)
        result = run_with_latency(workload.rules, workload.observations)
        assert result.n_events == len(workload.observations)
        assert 0 < result.p50_us <= result.p95_us <= result.p99_us <= result.max_us
        assert result.mean_us > 0

    def test_latency_rejects_empty_stream(self):
        from repro.bench import run_with_latency

        with pytest.raises(ValueError):
            run_with_latency([], [])

    def test_latency_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["latency"]) == 0
        assert "p99" in capsys.readouterr().out


class TestWalBench:
    def test_wal_bench_matches_baseline_detections(self):
        from repro.bench.wal import run_wal_bench

        results = run_wal_bench(full_scale=False)
        assert [result.policy for result in results] == [
            "never",
            "batch:64",
            "always",
        ]
        first = results[0]
        assert first.appends > first.n_events  # observations + flush marker
        assert first.bytes_logged > 0
        assert results[-1].fsyncs >= first.n_events  # always: one per append

    def test_wal_cli(self, capsys):
        from repro.bench.__main__ import main

        assert main(["wal"]) == 0
        out = capsys.readouterr().out
        assert "fsync policy" in out
        assert "batch:64" in out
        assert "WAL append" in out and "outbox delivery" in out

    def test_record_costs_cover_every_record_and_delivery(self):
        from repro.bench.wal import run_record_costs

        costs = run_record_costs(full_scale=False)
        assert costs.appends == 1980 and costs.deliveries == 330
        assert costs.append_us > 0 and costs.delivery_us > 0


class TestReport:
    def test_generate_report_contains_all_sections(self):
        from repro.bench.report import generate_report

        text = generate_report(full_scale=False)
        for heading in (
            "Fig. 4",
            "events axis",
            "rules axis",
            "parameter contexts",
            "sub-graph merging",
            "re-evaluation",
            "latency",
            "WAL durability overhead",
            "Engine metrics",
        ):
            assert heading in text, heading
        assert text.count("\n## ") == 9
        assert "RCEDA matches: **2**" in text

    def test_report_cli_writes_file(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = str(tmp_path / "report.md")
        assert main(["report", "--out", out]) == 0
        with open(out) as handle:
            assert handle.read().startswith("# RCEDA evaluation report")
