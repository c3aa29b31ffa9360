"""Scenario packs: registry mechanics, seeded oracles, plugin discovery.

Every registered pack must pass its own ground-truth oracle across
seeds — the registry is only worth having if ``scenario run`` can vouch
for every name it resolves.
"""

import textwrap

import pytest

from repro import Observation
from repro.scenarios import (
    ScenarioPack,
    ScenarioRun,
    discover_external_packs,
    discovery_errors,
    execute_run,
    get_pack,
    is_builtin,
    iter_packs,
    pack_names,
    register_pack,
    unregister_pack,
)
from repro.simulator.packing import PackedCase, PackingTrace

BUILTINS = [
    "checkout",
    "cold-chain",
    "gate",
    "hospital-assets",
    "movement",
    "packing",
    "returns-fraud",
    "shelf",
]


class _ToyPack(ScenarioPack):
    name = "toy"
    description = "fixture pack"

    def build(self, *, seed: int = 7, size=None):
        return ScenarioRun(
            pack=self.name, seed=seed, size=size or 1, rules=[],
            observations=[],
        )


class TestRegistry:
    def test_builtins_registered(self):
        assert [n for n in pack_names() if is_builtin(n)] == BUILTINS

    def test_iter_packs_order_matches_names(self):
        assert [pack.name for pack in iter_packs()] == pack_names()

    def test_get_pack_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="packing"):
            get_pack("no-such-pack")

    def test_register_duplicate_rejected_then_replace(self):
        register_pack(_ToyPack())
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_pack(_ToyPack())
            register_pack(_ToyPack(), replace=True)
            assert get_pack("toy").description == "fixture pack"
            assert not is_builtin("toy")
        finally:
            unregister_pack("toy")
        assert "toy" not in pack_names()

    def test_register_nameless_rejected(self):
        class Nameless(ScenarioPack):
            name = ""

        with pytest.raises(ValueError, match="no usable name"):
            register_pack(Nameless())


class TestOracles:
    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_pack_oracle_passes(self, name, seed):
        report = execute_run(get_pack(name).build(seed=seed))
        assert report["ok"], report["checks"]
        assert report["observations"] > 0

    def test_size_scales_stream(self):
        small = get_pack("packing").build(seed=3, size=2)
        large = get_pack("packing").build(seed=3, size=8)
        assert len(large.observations) > len(small.observations)
        assert large.expected_detections["r4"] == 8

    def test_same_seed_same_stream(self):
        def key(run):
            return [
                (o.reader, o.obj, o.timestamp) for o in run.observations
            ]

        a = get_pack("hospital-assets").build(seed=9)
        b = get_pack("hospital-assets").build(seed=9)
        c = get_pack("hospital-assets").build(seed=10)
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_packing_oracle_at_scale(self):
        """Seed 7 has case readings that overtake their predecessors'."""
        report = execute_run(get_pack("packing").build(seed=7, size=500))
        assert report["ok"], report["checks"]

    def test_overtaking_case_reading_takes_the_older_items(self):
        """Chronicle pairing, shrunk to two cases: c2 is read before c1,
        so Rule 4 gives c2 the older item group, and the oracle agrees."""
        run = get_pack("packing").build(seed=7, size=0)
        run.observations = [
            Observation("r1", "i1", 0.0),
            Observation("r1", "i2", 0.5),
            Observation("r1", "i3", 5.0),
            Observation("r1", "i4", 5.5),
            Observation("r2", "c2", 17.5),
            Observation("r2", "c1", 19.5),
        ]
        run.trace = PackingTrace(
            run.observations,
            [PackedCase("c1", ("i1", "i2"), 19.5),
             PackedCase("c2", ("i3", "i4"), 17.5)],
        )
        run.expected_detections = {"r4": 2, "r3": 6}
        engine = run.engine_factory()()
        list(engine.run(run.observations))
        assert sorted(engine.store.contents_of("c2", at=17.5)) == ["i1", "i2"]
        assert sorted(engine.store.contents_of("c1", at=19.5)) == ["i3", "i4"]
        report = execute_run(run)
        assert report["ok"], report["checks"]

    def test_oracle_catches_broken_engine(self):
        """A run with a rule removed must fail its oracle, not pass it."""
        run = get_pack("returns-fraud").build(seed=7)
        run.rules = [r for r in run.rules if r.rule_id != "rf1"]
        report = execute_run(run)
        assert not report["ok"]
        assert not report["checks"]["detections_rf1"]["ok"]


class TestEnvDiscovery:
    def test_env_var_spec_loads_pack(self, tmp_path, monkeypatch):
        module_dir = tmp_path / "plugins"
        module_dir.mkdir()
        (module_dir / "my_ext_pack.py").write_text(
            textwrap.dedent(
                """
                from repro.scenarios import ScenarioPack, ScenarioRun

                class ExtPack(ScenarioPack):
                    name = "ext-demo"
                    description = "external fixture"

                    def build(self, *, seed=7, size=None):
                        return ScenarioRun(
                            pack=self.name, seed=seed, size=size or 1,
                            rules=[], observations=[],
                        )

                SCENARIO_PACKS = [ExtPack()]
                """
            )
        )
        monkeypatch.syspath_prepend(str(module_dir))
        monkeypatch.setenv("REPRO_SCENARIO_PACKS", "my_ext_pack")
        try:
            assert discover_external_packs(force=True) >= 1
            assert not is_builtin("ext-demo")
            assert execute_run(get_pack("ext-demo").build())["ok"]
        finally:
            unregister_pack("ext-demo")

    def test_broken_spec_recorded_not_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_PACKS", "no_such_module_xyz")
        discover_external_packs(force=True)
        assert any(
            "no_such_module_xyz" in error for error in discovery_errors()
        )
        # The registry itself must be unharmed.
        assert get_pack("packing").name == "packing"


class TestWorkloadCapability:
    def test_episode_sources(self):
        capable = {
            pack.name
            for pack in iter_packs()
            if pack.episode_source() is not None
        }
        assert capable == {"checkout", "packing", "returns-fraud"}

    def test_replay_only_packs_return_none(self):
        assert get_pack("gate").episode_source() is None
        assert get_pack("cold-chain").episode_source() is None
