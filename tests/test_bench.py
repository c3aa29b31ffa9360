"""Tests for the benchmark harness: workloads, measurements, ablations."""

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
    def test_main_runs_each_command(self, capsys):
        from repro.bench.__main__ import main

        for command in ("fig4", "merge", "incremental"):
            assert main([command]) == 0
        output = capsys.readouterr().out
        assert "RCEDA matches" in output


class TestLatency:
    def test_latency_percentiles(self):
        from repro.bench import build_events_axis_workload, run_with_latency

        workload = build_events_axis_workload(1_200, n_rules=2)
        result = run_with_latency(workload.rules, workload.observations)
        assert result.n_events == len(workload.observations)
        assert 0 < result.p50_us <= result.p95_us <= result.p99_us <= result.max_us
        assert result.mean_us > 0

    def test_latency_rejects_empty_stream(self):
        import pytest

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


class TestServeBench:
    def test_serve_bench_matches_baseline_detections(self):
        from repro.bench.serve import run_serve_bench

        results = run_serve_bench(full_scale=False)
        assert [(r.transport, r.codec) for r in results] == [
            ("direct", "-"),
            ("loopback", "json"),
            ("tcp", "json"),
            ("loopback", "binary"),
            ("tcp", "binary"),
            ("loopback", "binary+hb"),
        ]
        direct = results[0]
        assert direct.detections > 0
        assert all(r.detections == direct.detections for r in results)
        assert direct.frames_in == 0 and direct.overhead_pct == 0.0
        assert all(r.frames_in > 0 and r.bytes_in > 0 for r in results[1:])
        by_key = {(r.transport, r.codec): r for r in results}
        # The binary codec's whole point: fewer bytes on the wire than
        # the JSON layout for the same workload.
        assert (
            by_key[("loopback", "binary")].bytes_in
            < by_key[("loopback", "json")].bytes_in
        )

    def test_serve_bench_single_codec_and_overhead_gate(self):
        from repro.bench.serve import check_overhead, run_serve_bench

        results = run_serve_bench(codecs=("binary",))
        assert [(r.transport, r.codec) for r in results] == [
            ("direct", "-"),
            ("loopback", "binary"),
            ("tcp", "binary"),
            ("loopback", "binary+hb"),
        ]
        # A generous bound always passes; an impossible one always fails.
        assert check_overhead(results, 1e9) is None
        failure = check_overhead(results, -200.0)
        assert failure is not None and "loopback/binary" in failure
        assert "no loopback/binary row" in check_overhead(results[:1], 1e9)

    def test_serve_bench_rejects_unknown_scale(self):
        import pytest

        from repro.bench.serve import run_serve_bench

        with pytest.raises(ValueError, match="unknown scale"):
            run_serve_bench(scale="galactic")

    def test_speculation_bench_rows(self):
        from repro.bench.serve import check_overhead, run_speculation_bench

        results = run_speculation_bench(repeats=1)
        assert [(r.transport, r.codec) for r in results] == [
            ("direct", "ooo-accept"),
            ("direct", "ooo-revise"),
        ]
        accept, revise = results
        # The function only returns after asserting the revise run's
        # sealed finals equal the in-order oracle, so a non-zero count
        # here is a count of *correct* answers.
        assert revise.detections > 0
        assert accept.overhead_pct == 0.0
        # Speculation is never free: every late arrival forces a
        # rebuild, so the revise row must cost more than accept.
        assert revise.elapsed_seconds > accept.elapsed_seconds
        assert revise.overhead_pct > 0.0
        # Engine-layer rows: nothing crossed the wire.
        assert accept.frames_in == 0 and revise.bytes_in == 0
        # The CI gate must be blind to these rows.
        assert "no loopback/binary row" in check_overhead(results, 1e9)

    def test_measure_drop_loss_surfaces_late_data_loss(self):
        from repro.bench.serve import measure_drop_loss

        loss = measure_drop_loss()
        # The whole point: drops are counted and the answers they cost
        # are named, instead of DROP silently shrinking the output.
        assert loss["ooo_dropped"] > 0
        assert loss["detections_lost"] >= 0
        assert (
            loss["detections"] + loss["detections_lost"]
            == loss["oracle_detections"]
        )

    def test_speculation_bench_rejects_unknown_scale(self):
        import pytest

        from repro.bench.serve import run_speculation_bench

        with pytest.raises(ValueError, match="unknown scale"):
            run_speculation_bench(scale="galactic")

    def test_serve_cli_writes_json(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "transport" in out and "loopback" in out and "binary" in out
        with open(tmp_path / "BENCH_serve.json") as handle:
            document = json.load(handle)
        assert document["schema"] == {"name": "repro-bench-serve", "version": 2}
        assert document["scale"] == "quick"
        assert [(r["transport"], r["codec"]) for r in document["results"]] == [
            ("direct", "-"),
            ("loopback", "json"),
            ("tcp", "json"),
            ("loopback", "binary"),
            ("tcp", "binary"),
            ("loopback", "binary+hb"),
            ("direct", "ooo-accept"),
            ("direct", "ooo-revise"),
        ]

    def test_serve_cli_overhead_gate_exit_code(self, tmp_path, capsys, monkeypatch):
        import repro.bench.serve as serve_bench
        from repro.bench.__main__ import main
        from repro.bench.serve import ServeBenchResult

        def fake_bench(*args, **kwargs):
            rows = [("direct", "-", 1.0), ("loopback", "binary", 2.0)]
            return [
                ServeBenchResult(
                    transport=transport,
                    codec=codec,
                    n_events=100,
                    n_rules=1,
                    detections=5,
                    elapsed_seconds=elapsed,
                    baseline_seconds=1.0,
                )
                for transport, codec, elapsed in rows
            ]

        monkeypatch.setattr(serve_bench, "run_serve_bench", fake_bench)
        monkeypatch.setattr(serve_bench, "run_speculation_bench", lambda *a, **k: [])
        monkeypatch.chdir(tmp_path)
        # Fake binary loopback overhead is 100%: over a 40% bound it
        # must fail with exit code 1, under a 150% bound it must pass.
        assert main(["serve", "--max-overhead", "40"]) == 1
        assert "exceeds the 40% bound" in capsys.readouterr().err
        assert main(["serve", "--max-overhead", "150"]) == 0
        assert "overhead gate passed" in capsys.readouterr().out


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
            "Serving layer overhead",
            "Out-of-order handling",
        ):
            assert heading in text, heading
        assert "RCEDA matches: **2**" in text
        # Late-data loss is part of the report now: the DROP policy's
        # discards are named and counted, never silent.
        assert "ooo_dropped" in text
        assert "ooo-revise" in text

    def test_report_cli_writes_file(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = str(tmp_path / "report.md")
        assert main(["report", "--out", out]) == 0
        with open(out) as handle:
            assert handle.read().startswith("# RCEDA evaluation report")
