"""Tests for tooling: recording/replay, DOT export, CLI, rule toggling."""

import io
import json
import re

import pytest

from repro import Engine, Observation, Var, obs
from repro.core.expressions import Not, TSeq, TSeqPlus, Within
from repro.core.visualize import engine_to_dot, graph_to_dot
from repro.readers import load_stream, read_stream, save_stream, write_stream


class TestRecording:
    def test_roundtrip(self, tmp_path):
        stream = [
            Observation("r1", "a", 0.5),
            Observation("r2", "b", 1.0, extra={"rssi": -40}),
        ]
        path = tmp_path / "stream.jsonl"
        assert save_stream(stream, str(path)) == 2
        loaded = load_stream(str(path))
        assert loaded == stream
        assert loaded[1].extra == {"rssi": -40}

    def test_text_format_one_json_per_line(self):
        handle = io.StringIO()
        write_stream([Observation("r", "o", 3.0)], handle)
        record = json.loads(handle.getvalue())
        assert record == {"r": "r", "o": "o", "t": 3.0}

    def test_comments_and_blank_lines_skipped(self):
        text = '# header\n\n{"r": "a", "o": "b", "t": 1.0}\n'
        loaded = list(read_stream(io.StringIO(text)))
        assert len(loaded) == 1

    def test_malformed_line_reports_location(self):
        text = '{"r": "a", "o": "b", "t": 1.0}\nnot json\n'
        with pytest.raises(ValueError, match="line 2"):
            list(read_stream(io.StringIO(text)))

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            list(read_stream(io.StringIO('{"r": "a"}')))


class TestDotExport:
    def _engine(self):
        engine = Engine()
        event = TSeq(
            TSeqPlus(obs("r1", Var("o1"), alias="E1"), 0.1, 1.0),
            obs("r2", Var("o2")),
            10,
            20,
        )
        engine.watch(Within(event, 600))
        return engine

    def test_valid_dot_structure(self):
        dot = engine_to_dot(self._engine())
        assert dot.startswith("digraph")
        assert dot.endswith("}")
        assert dot.count("->") == 3  # obs->tseq+, tseq+->tseq, obs->tseq

    def test_annotations_present(self):
        dot = engine_to_dot(self._engine())
        assert "0.1sec" in dot and "10sec" in dot
        assert "10min" in dot  # propagated within annotation

    def test_alias_shown(self):
        assert "E1" in engine_to_dot(self._engine())

    def test_negation_symbol(self):
        engine = Engine()
        engine.watch(Within(obs("a") & Not(obs("b")), 5))
        assert "¬" in engine_to_dot(engine)

    def test_shared_nodes_rendered_once(self):
        engine = Engine()
        shared = obs("r1", Var("o"))
        engine.watch(Within(shared >> obs("r2"), 10))
        engine.watch(Within(shared >> obs("r3"), 10))
        dot = graph_to_dot(engine.graph)
        assert dot.count("r=r1") == 1


class TestRuleToggling:
    def test_disabled_rule_does_not_fire(self):
        engine = Engine()
        rule = engine.watch(obs("r"), name="togglable")
        engine.submit(Observation("r", "a", 0.0))
        rule.enabled = False
        assert engine.submit(Observation("r", "b", 1.0)) == []
        rule.enabled = True
        assert len(engine.submit(Observation("r", "c", 2.0))) == 1
        assert engine.stats.per_rule["togglable"] == 2

    def test_rule_lookup(self):
        engine = Engine()
        rule = engine.watch(obs("r"), name="findme")
        assert engine.rule("findme") is rule
        with pytest.raises(KeyError):
            engine.rule("missing")

    def test_disabled_rule_keeps_shared_state_warm(self):
        # Disabling one of two rules sharing a sub-event must not break
        # the other rule's detection.
        engine = Engine()
        shared = obs("A", Var("o"))
        first = engine.watch(Within(shared >> obs("B", Var("o")), 100), name="one")
        engine.watch(Within(shared >> obs("C", Var("o")), 100), name="two")
        first.enabled = False
        detections = list(
            engine.run([Observation("A", "x", 0), Observation("C", "x", 1)])
        )
        assert [d.rule.rule_id for d in detections] == ["two"]


class TestCli:
    def _rules_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            'DEFINE E1 = observation("r1", o1, t1)\n'
            'DEFINE E2 = observation("r2", o2, t2)\n'
            "CREATE RULE r4, containment ON "
            "TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec) IF true "
            "DO BULK INSERT INTO CONTAINMENT VALUES (o1, o2, t2, 'UC')\n"
        )
        return str(path)

    def test_record_run_graph_pipeline(self, tmp_path, capsys):
        from repro.__main__ import main

        stream_path = str(tmp_path / "stream.jsonl")
        store_path = str(tmp_path / "store.json")
        assert main(["record", "--scenario", "packing", "--out", stream_path,
                     "--cases", "4", "--seed", "3"]) == 0
        assert main(["run", "--rules", self._rules_file(tmp_path),
                     "--stream", stream_path, "--store", store_path]) == 0
        output = capsys.readouterr().out
        assert "4 detections" in output or "r4: 4" in output

        from repro.store import RfidStore

        store = RfidStore.load_json(store_path)
        assert len(store.database.table("OBJECTCONTAINMENT")) == 4 * 5

        assert main(["graph", "--rules", self._rules_file(tmp_path)]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_chaos_kill_at_must_lie_inside_the_stream(self, tmp_path, capsys):
        from repro.__main__ import main

        stream_path = str(tmp_path / "stream.jsonl")
        assert main(["record", "--scenario", "packing", "--out", stream_path,
                     "--cases", "4", "--seed", "3"]) == 0
        chaos = ["chaos", "--rules", self._rules_file(tmp_path),
                 "--stream", stream_path, "--seed", "7"]
        assert main([*chaos, "--kill-at", "100000"]) == 2
        output = capsys.readouterr().out
        assert "--kill-at 100000 outside stream" in output
        assert "killed after" not in output
        assert main([*chaos, "--kill-at", "20"]) == 0
        assert "killed after 20 readings" in capsys.readouterr().out

    WAL_DRILL_BASELINE = "baseline: 48 observations, 56 detections, 56 deliveries"

    @pytest.mark.parametrize(
        "flags, code, lines",
        [
            (
                ["--kill-at", "mid"],
                0,
                [
                    WAL_DRILL_BASELINE,
                    "recovered: checkpoint seq -1, 24 replayed, 26 suppressed, "
                    "0 torn bytes truncated",
                    "drill PASSED: kill at 24/48 — detections and deliveries "
                    "identical to the uninterrupted run",
                ],
            ),
            (
                ["--kill-at", "mid", "--fsync", "batch:8", "--tear-tail"],
                0,
                [
                    WAL_DRILL_BASELINE,
                    "recovered: checkpoint seq -1, 23 replayed, 25 suppressed, "
                    "42 torn bytes truncated",
                    "drill PASSED: kill at 24/48 — detections and deliveries "
                    "identical to the uninterrupted run",
                ],
            ),
            (
                ["--kill-at", "0"],
                0,
                [
                    WAL_DRILL_BASELINE,
                    "recovered: checkpoint seq -1, 0 replayed, 0 suppressed, "
                    "0 torn bytes truncated",
                    "drill PASSED: kill at 0/48 — detections and deliveries "
                    "identical to the uninterrupted run",
                ],
            ),
            (
                ["--kill-at", "48"],
                0,
                [
                    WAL_DRILL_BASELINE,
                    "drill PASSED: kill at 48/48 — detections and deliveries "
                    "identical to the uninterrupted run",
                ],
            ),
            (["--kill-at", "49"], 2, ["--kill-at 49 outside stream (0..48)"]),
            (
                ["--kill-at", "0", "--tear-tail"],
                2,
                ["--tear-tail needs a logged reading to tear: use --kill-at 1..48"],
            ),
        ],
        ids=[
            "mid", "mid-batch-fsync-torn", "zero", "stream-end", "out-of-range",
            "zero-torn",
        ],
    )
    def test_wal_drill_output(
        self, tmp_path, monkeypatch, capsys, flags, code, lines
    ):
        """``wal drill`` on its default 48-reading packing stream: the
        exit code and every printed line, pinned."""
        import tempfile

        from repro.__main__ import main

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["wal", "drill", *flags]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def _durable_dir(self, tmp_path):
        """A durable directory whose log holds one batch record, a flush
        marker and a poison record (per-record JSON), no checkpoint."""
        from repro.__main__ import _build_engine, _load_rules, _packing_stream
        from repro.resilience import MalformedObservation
        from repro.resilience.durability import DurableEngine

        program = _load_rules(self._rules_file(tmp_path))
        stream = _packing_stream(4, 3)
        directory = str(tmp_path / "state")
        with DurableEngine(
            lambda: _build_engine(program.rules), directory, checkpoint_every=0
        ) as durable:
            durable.submit_many(stream, client=("cli", 0))
            durable.flush(client=("cli", len(stream)))
            with pytest.raises(TypeError):
                durable.submit(
                    MalformedObservation("r1", "x", None),
                    client=("cli", len(stream) + 1),
                )
        return directory

    def test_wal_inspect_output(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = self._durable_dir(tmp_path)
        assert main(["wal", "inspect", "--dir", directory]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"write-ahead log: {directory}/wal",
            "  wal-0000000000000000.seg: 3 records, seq 0..25, 1099 bytes",
            "logged: 25 readings (1 poison), 1 flush markers",
            "checkpoints: 0",
            "outbox: (empty)",
        ]

    def test_wal_recover_output(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = self._durable_dir(tmp_path)
        rules = self._rules_file(tmp_path)
        assert main(["wal", "recover", "--dir", directory, "--rules", rules]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"recovered {directory}",
            "  checkpoint seq:        -1",
            "  checkpoints tried:     0",
            "  records replayed:      26",
            "  records skipped:       1",
            "  deliveries suppressed: 0",
            "  deliveries re-run:     0",
            "  torn bytes truncated:  0",
            "  next sequence number:  26",
        ]

    def test_cluster_output(self, tmp_path, capsys):
        """``cluster`` with in-process workers and no traffic: the
        round-robin placement, the bound router and an empty summary."""
        from repro.__main__ import main
        from repro.scenarios import get_pack

        rules = tmp_path / "packing.txt"
        rules.write_text(get_pack("packing").episode_source(lines=4).program)
        assert main([
            "cluster", "--inprocess", "--workers", "2", "--port", "0",
            "--max-seconds", "0.2", "--rules", str(rules),
            "--dir", str(tmp_path / "state"),
        ]) == 0
        placement, bound, summary = capsys.readouterr().out.splitlines()
        assert placement == (
            "placement: {'shard-0': 'worker-0', 'shard-1': 'worker-1'}"
        )
        assert re.fullmatch(r"cluster on 127\.0\.0\.1:[1-9][0-9]*", bound)
        assert summary == (
            "routed 0 observations over 0 epochs, forwarded 0 detections"
        )

    def test_cluster_has_no_max_shards_option(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([
                "cluster", "--inprocess", "--max-shards", "3",
                "--rules", self._rules_file(tmp_path),
            ])
        assert exit_info.value.code == 2
        assert "python -m repro cluster: error: " in capsys.readouterr().err

    def test_serve_output(self, tmp_path, capsys):
        """``serve`` with no traffic: the bound port, then an empty
        summary on natural exit."""
        from repro.__main__ import main

        assert main([
            "serve", "--rules", self._rules_file(tmp_path), "--port", "0",
            "--max-seconds", "0.1",
        ]) == 0
        bound, summary = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"serving on 127\.0\.0\.1:[1-9][0-9]*", bound)
        assert summary == "served 0 sessions, 0 observations, 0 detections pushed"

    def test_serve_durable_requires_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main([
            "serve", "--rules", self._rules_file(tmp_path), "--port", "0",
            "--backend", "durable",
        ]) == 2
        assert capsys.readouterr().out == "--backend durable requires --dir\n"

    def test_serve_has_no_codecs_option(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main([
                "serve", "--codecs", "binary", "--port", "0",
                "--max-seconds", "0.1", "--rules", self._rules_file(tmp_path),
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --codecs" in capsys.readouterr().err

    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        assert "containment" in capsys.readouterr().out

    def test_run_with_metrics_dump(self, tmp_path, capsys):
        from repro.__main__ import main

        stream_path = str(tmp_path / "stream.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["record", "--scenario", "packing", "--out", stream_path,
                     "--cases", "4", "--seed", "3"]) == 0
        assert main(["run", "--rules", self._rules_file(tmp_path),
                     "--stream", stream_path, "--metrics", metrics_path]) == 0
        capsys.readouterr()
        snapshot = json.loads(open(metrics_path).read())
        assert snapshot["rceda_detections_total"]["samples"][0]["value"] == 4
        assert "rceda_observation_latency_seconds" in snapshot

    def test_metrics_command_prometheus_stdout(self, tmp_path, capsys):
        from repro.__main__ import main

        stream_path = str(tmp_path / "stream.jsonl")
        assert main(["record", "--scenario", "packing", "--out", stream_path,
                     "--cases", "4", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["metrics", "--rules", self._rules_file(tmp_path),
                     "--stream", stream_path]) == 0
        output = capsys.readouterr().out
        assert "# TYPE rceda_detections_total counter" in output
        assert 'rceda_node_match_seconds_bucket{engine="main",kind="obs"' in output
