"""Unit tests for runtime-node internals: history, queries, join keys,
compiled primitive matchers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Observation, Var, obs
from repro.core.expressions import Not, Or, Seq, SeqPlus, TSeqPlus, Within
from repro.core.graph import EventGraph
from repro.core.instances import PrimitiveInstance
from repro.core.nodes import (
    create_state,
    merge_group_bindings,
    project,
)


def prim(t, bindings=None, obj="x"):
    return PrimitiveInstance(Observation("r", obj, t), bindings or {})


@pytest.fixture
def leaf_state():
    engine = Engine()
    engine.watch(obs("r", Var("o")))
    return engine.states[0]


class TestHistory:
    def test_record_keeps_sorted_order(self, leaf_state):
        for t in (5.0, 1.0, 3.0, 3.0, 2.0):
            leaf_state.record(prim(t))
        assert [i.t_end for i in leaf_state.history] == [1.0, 2.0, 3.0, 3.0, 5.0]

    def test_equal_keys_preserve_arrival_order(self, leaf_state):
        first = prim(3.0, {"o": "first"})
        second = prim(3.0, {"o": "second"})
        leaf_state.record(first)
        leaf_state.record(second)
        assert leaf_state.history == [first, second]

    def test_query_window_boundaries(self, leaf_state):
        for t in (1.0, 2.0, 3.0):
            leaf_state.record(prim(t))
        assert [i.t_end for i in leaf_state.query(1.0, 3.0, {})] == [1.0, 2.0, 3.0]
        assert [i.t_end for i in leaf_state.query(1.0, 3.0, {},
                                                  closed_start=False)] == [2.0, 3.0]
        assert [i.t_end for i in leaf_state.query(1.0, 3.0, {},
                                                  closed_end=False)] == [1.0, 2.0]

    def test_query_binding_filter(self, leaf_state):
        leaf_state.record(prim(1.0, {"o": "a"}))
        leaf_state.record(prim(2.0, {"o": "b"}))
        assert len(leaf_state.query(0.0, 10.0, {"o": "b"})) == 1
        assert len(leaf_state.query(0.0, 10.0, {"o": "zzz"})) == 0
        assert len(leaf_state.query(0.0, 10.0, {})) == 2

    def test_gc_prunes_prefix(self, leaf_state):
        for t in (1.0, 2.0, 3.0, 4.0):
            leaf_state.record(prim(t))
        removed = leaf_state.gc(3.0)
        assert removed == 2
        assert [i.t_end for i in leaf_state.history] == [3.0, 4.0]


class TestBindingHelpers:
    def test_project(self):
        assert project({"a": 1, "b": 2}, ("b", "a")) == (2, 1)
        assert project({"a": 1}, ("a", "missing")) == (1, None)
        assert project({}, ()) == ()

    def test_merge_group_bindings_union(self):
        merged = merge_group_bindings([prim(0, {"a": 1}), prim(1, {"b": 2})])
        assert merged == {"a": 1, "b": 2}

    def test_merge_group_bindings_drops_conflicts(self):
        merged = merge_group_bindings(
            [prim(0, {"a": 1, "c": 9}), prim(1, {"a": 2}), prim(2, {"a": 1})]
        )
        assert merged == {"c": 9}  # 'a' conflicted and stays dropped


class TestJoinKeys:
    def _root_state(self, expr):
        engine = Engine()
        engine.watch(expr)
        root = engine.graph.roots[0]
        return engine.states[root.node_id]

    def test_guaranteed_join_vars_used(self):
        state = self._root_state(
            Within(Seq(obs("A", Var("o")), obs("B", Var("o"))), 100)
        )
        assert state.join_vars == ("o",)

    def test_or_branch_without_var_falls_back(self):
        left = obs("A1", Var("o"))
        right = obs("A2")
        state = self._root_state(
            Within(Seq(Or(left, right), obs("B", Var("o"))), 100)
        )
        assert state.join_vars == ()  # 'o' not guaranteed by the OR branch

    def test_bucketing_by_join_key(self):
        engine = Engine()
        engine.watch(Within(Seq(obs("A", Var("o")), obs("B", Var("o"))), 100))
        state = engine.states[engine.graph.roots[0].node_id]
        engine.submit(Observation("A", "x", 0.0))
        engine.submit(Observation("A", "y", 1.0))
        assert set(state.buckets) == {("x",), ("y",)}


def reference_match(expr, functions, observation):
    """A primitive event type's meaning (paper §2.1), evaluated plainly:
    every filter must hold, and every variable binds its value, a
    variable used twice only if both values agree."""
    if isinstance(expr.reader, str) and observation.reader != expr.reader:
        return None
    if expr.group is not None and functions.group(observation.reader) != expr.group:
        return None
    if isinstance(expr.obj, str) and observation.obj != expr.obj:
        return None
    if expr.obj_type is not None and functions.obj_type(observation.obj) != expr.obj_type:
        return None
    if expr.where is not None and not expr.where(observation):
        return None
    bindings = {}
    for position, value in (
        (expr.reader, observation.reader),
        (expr.obj, observation.obj),
        (expr.t, observation.timestamp),
    ):
        if isinstance(position, Var):
            if bindings.get(position.name, value) != value:
                return None
            bindings[position.name] = value
    return bindings


NAMES = ("a", "b", "c")
LOOKUPS = st.fixed_dictionaries({name: st.sampled_from(("g", "h", None)) for name in NAMES})


@st.composite
def observation_types(draw):
    reader = draw(st.sampled_from((*NAMES, Var("r"), Var("x"), None)))
    group = None if isinstance(reader, str) else draw(st.sampled_from(("g", None)))
    return obs(
        reader,
        draw(st.sampled_from((*NAMES, Var("o"), Var("x"), None))),
        group=group,
        obj_type=draw(st.sampled_from(("g", "h", None))),
        where=draw(st.sampled_from((None, lambda o: o.timestamp >= 1.0))),
        t=draw(st.sampled_from((Var("t"), None))),
    )


class TestPrimitiveMatching:
    def test_match_returns_none_fast_for_wrong_reader(self, leaf_state):
        assert leaf_state.match(Observation("other", "o", 0.0)) is None

    def test_match_binds_all_variables(self):
        engine = Engine()
        engine.watch(obs(Var("r"), Var("o"), t=Var("t")))
        state = engine.states[0]
        bindings = state.match(Observation("rdr", "tag", 7.5))
        assert bindings == {"r": "rdr", "o": "tag", "t": 7.5}

    @settings(max_examples=300, deadline=None)
    @given(
        expr=observation_types(),
        groups=LOOKUPS,
        types=LOOKUPS,
        observations=st.lists(
            st.builds(
                Observation,
                st.sampled_from(NAMES),
                st.sampled_from(NAMES),
                st.sampled_from((0.0, 1.0, 2.5)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_compiled_match_equals_reference(self, expr, groups, types, observations):
        """Every shape, against a registry whose functions are swapped
        after the engine (and so the matcher) was built."""
        engine = Engine()
        engine.watch(expr)
        state = engine.states[engine.graph.roots[0].node_id]
        functions = engine.functions
        functions.group = groups.get
        functions.obj_type = types.get
        for observation in observations:
            expected = reference_match(expr, functions, observation)
            got = state.match(observation)
            assert got == expected
            if got is not None:
                assert list(got) == list(expected)


class TestStateFactory:
    def test_every_kind_has_a_state_class(self):
        engine = Engine()
        graph = EventGraph()
        shapes = [
            obs("a"),
            Or(obs("a"), obs("b")),
            Within(obs("a") & Not(obs("b")), 5),
            obs("a") >> obs("b"),
            TSeqPlus(obs("a"), 0, 1),
            Within(SeqPlus(obs("a")), 5),
        ]
        for shape in shapes:
            root = graph.add_root(shape)
            state = create_state(root, engine)
            assert state.node is root
