"""Export completeness: ``__all__`` must match each package's surface.

A public name bound in the package namespace that is missing from
``__all__`` is invisible to ``from pkg import *`` and to doc tooling; a
name in ``__all__`` that does not resolve is an ImportError waiting for
the first star-import.  These tests pin both directions for the
packages that form the system's public seams.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro.obs",
    "repro.scenarios",
    "repro.serve",
    "repro.simulator",
    "repro.workload",
]


def _public_surface(module) -> set:
    """Public, non-module names actually bound in the namespace."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


@pytest.mark.parametrize("package", PACKAGES)
def test_all_matches_public_names(package):
    module = importlib.import_module(package)
    exported = set(module.__all__)
    public = _public_surface(module)
    assert exported == public, (
        f"{package}: missing from __all__: {sorted(public - exported)}; "
        f"in __all__ but not bound: {sorted(exported - public)}"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_all_unique(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), f"{package}: duplicates"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} does not resolve"


#: What the one session shape deleted from the serving layer.
SESSION_SHAPE_DELETED = (
    "MIN_PROTOCOL_VERSION Submit WireCodec JsonCodec register_codec "
    "codec_names negotiate_codec push_frames"
).split()


@pytest.mark.parametrize(
    "package, deleted",
    [
        ("repro.resilience", "DurableShardedEngine"),
        ("repro.resilience.durability", "DurableShardedEngine"),
        ("repro.obs", "CallableObserver"),
        ("repro.readers", "ReorderBuffer"),
        *(
            ("repro.obs", f"{layer}Instruments")
            for layer in (
                "Engine", "Reorder", "Resilience", "Durability", "Serve", "Cluster"
            )
        ),
        *(
            (package, name)
            for package in ("repro.serve", "repro.serve.protocol")
            for name in SESSION_SHAPE_DELETED
        ),
    ],
)
def test_deleted_names_stay_deleted(package, deleted):
    """One durable engine, one observer API, one metric table, one
    watermark: no alias may bring back the sharded durable class, the
    ``trace=`` callable shim, a per-layer instruments class or the
    standalone reorder buffer."""
    module = importlib.import_module(package)
    assert deleted not in module.__all__
    assert not hasattr(module, deleted)


#: ``repro.serve.__all__`` since the one session shape: no protocol-v1
#: frame, no codec registry or negotiation.
SERVE_SURFACE = """
Ack AsyncClient Batch BinaryBatch BinaryCodec Bye CepRouter CepServer
ChaosProxy Client ClientError Cluster ClusterPlan DetectionBatch
DetectionFrame ErrorFrame FaultSchedule FaultStats FaultyTransport
FaultyWriter Flush Frame FrameDecoder FrameError Hello
LoopbackReader LoopbackWriter MAX_FRAME_BYTES
NetworkFaultPlan PROTOCOL_VERSION Ping Pong RetryConfig RouterStats
ServeConfig ServeError ShardWorker SlowConsumerPolicy Subscribe
Welcome WorkerLink WorkerProcess cluster_program
decode_frame encode_frame encode_frame_into file_sink get_codec
loopback_connector loopback_pair plan_cluster
run_cluster_drill run_worker tcp_connector
""".split()


def test_serve_surface_unchanged():
    import repro.serve

    assert sorted(repro.serve.__all__) == sorted(SERVE_SURFACE)


@pytest.mark.parametrize("module", ["serve", "cluster", "smoke"])
def test_retired_bench_modules_stay_deleted(module):
    """Served-path numbers come from ``benchmarks/stack`` only."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.bench.{module}")


#: ``repro.bench.__all__`` as of the PR that retired those modules; none
#: of them ever exported through the package.
BENCH_SURFACE = """
BenchResult ContextResult EVENTS_PER_CASE Fig4Result Fig9Workload
IncrementalResult LatencyResult MergeResult PAPER_EVENT_POINTS
PAPER_RULE_POINTS SMALL_EVENT_POINTS SMALL_RULE_POINTS
build_events_axis_workload build_rules_axis_workload
containment_rule_for_pair context_ablation fig4_comparison fig9a_table
fig9b_table format_table incremental_ablation linearity_ratio
merge_ablation run_detection run_fig9a run_fig9b run_with_latency
""".split()


def test_bench_surface_unchanged():
    import repro.bench

    assert sorted(repro.bench.__all__) == sorted(BENCH_SURFACE)
