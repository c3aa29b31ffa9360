"""The four drills' reports, their shared audits and the worker's imports.

``chaos serve``, ``chaos skew``, ``chaos cluster`` and ``smoke`` run one
procedure (:mod:`repro.serve.drill`) and write JSON reports that CI
uploads as artifacts.  Each report's recursive key set and check names
are pinned in ``drill_report_shapes.json``; after a deliberate change,
regenerate it with ``PYTHONPATH=src python tests/test_drill_reports.py``
and review the diff.  The serve and skew drills are ``chaos``-marked
like the rest of their soak; the in-process cluster drill and the ``ci``
smoke profile run in tier-1.
"""

import json
import os
import subprocess
import sys

import pytest

SHAPES_PATH = os.path.join(os.path.dirname(__file__), "drill_report_shapes.json")


def _serve(directory):
    from repro.serve.drill import run_chaos_serve_drill

    return run_chaos_serve_drill(seed=5, cases=8, directory=directory)


def _skew(directory):
    from repro.serve.drill import run_chaos_skew_drill

    return run_chaos_skew_drill(seed=2, cases=8, directory=directory)


def _cluster(directory):
    from repro.serve import run_cluster_drill

    return run_cluster_drill(
        seed=13,
        lines=2,
        cases_per_line=6,
        workers=2,
        directory=directory,
        inprocess=True,
        timeout=60.0,
    )


def _smoke(directory):
    from repro.workload import run_smoke_drill

    return run_smoke_drill("ci", seed=7, directory=directory)


DRILLS = {"serve": _serve, "skew": _skew, "cluster": _cluster, "smoke": _smoke}


def key_paths(report, prefix=""):
    """Every key of a nested report, as ``/``-joined paths."""
    paths = []
    for key, value in report.items():
        path = f"{prefix}{key}"
        paths.append(path)
        if isinstance(value, dict):
            paths.extend(key_paths(value, path + "/"))
    return paths


def report_shape(report):
    return {
        "keys": sorted(key_paths(report)),
        "checks": sorted(report["checks"]),
    }


@pytest.mark.parametrize(
    "drill",
    [
        pytest.param("serve", marks=pytest.mark.chaos),
        pytest.param("skew", marks=pytest.mark.chaos),
        "cluster",
        "smoke",
    ],
)
def test_report_shape(drill, tmp_path):
    report = DRILLS[drill](str(tmp_path))
    assert report["ok"], json.dumps(report["checks"], indent=2, sort_keys=True)
    with open(SHAPES_PATH, encoding="utf-8") as handle:
        assert report_shape(report) == json.load(handle)[drill]
    # Artifact-ready: plain JSON all the way down.
    json.dumps(report)


class _Client:
    def __init__(self, issued, acked):
        self._next_seq = issued + 1
        self.last_acked = acked


@pytest.mark.parametrize(
    "server, wal, ok",
    [(40, 40, True), (39, 40, False), (40, 39, False), (40, -1, False)],
)
def test_frontier_check_fails_on_a_disagreeing_view(server, wal, ok):
    from repro.serve.drill import Checks, check_frontier

    check = Checks()
    check_frontier(check, "frontier", _Client(40, 40), server, wal)
    assert check.ok is ok
    assert check["frontier"]["detail"] == (
        f"issued=40 client=40 server={server} wal={wal}"
    )


def test_frontier_check_fails_when_the_client_is_behind_its_submits():
    from repro.serve.drill import Checks, check_frontier

    check = Checks()
    check_frontier(check, "frontier", _Client(41, 40), 40, 40)
    assert not check.ok


def test_cluster_worker_loads_no_drill_code():
    # A shard worker is `python -m repro cluster-worker`: the CLI module
    # plus run_worker.  Moving drill code must not drag the scenario
    # registry, the workload generator or the drill procedure into it.
    probe = (
        "import sys\n"
        "import repro.__main__\n"
        "from repro.serve.cluster import run_worker\n"
        "print('\\n'.join(sorted(m for m in sys.modules"
        " if m.startswith('repro'))))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.split()
    assert "repro.serve.cluster" in loaded
    forbidden = [
        name
        for name in loaded
        if name.startswith(("repro.scenarios", "repro.workload"))
        or name == "repro.serve.drill"
    ]
    assert forbidden == []


if __name__ == "__main__":
    import tempfile

    shapes = {
        name: report_shape(drill(tempfile.mkdtemp(prefix=f"shape-{name}-")))
        for name, drill in DRILLS.items()
    }
    with open(SHAPES_PATH, "w", encoding="utf-8") as handle:
        json.dump(shapes, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {SHAPES_PATH}")
