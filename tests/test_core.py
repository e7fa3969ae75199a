"""Core types: validation, dependency graphs, text round trips."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlsched import (
    CrossLayerDecision,
    DataUnit,
    DependencyGraph,
    GraphCycleError,
    Instance,
    dumps_instance,
    load_instance,
    loads_instance,
    SolveReport,
    report_to_csv,
    save_instance,
    validate_instance,
)
from xlsched.core import write_text_atomic


def _unit(index, ready, deadline, **kw):
    base = dict(impact=100.0, size=10.0, decay=0.5, channel=1.0)
    base.update(kw)
    return DataUnit(index=index, ready=ready, deadline=deadline, **base)


def _two_unit_instance(**kw):
    units = (_unit(1, 0.0, 0.05), _unit(2, 0.05, 0.10))
    return Instance(units=units, budget=kw.pop("budget", 10.0), **kw)


class TestValidation:
    def test_well_formed_instance(self):
        assert validate_instance(_two_unit_instance()).ok

    def test_deadline_before_ready(self):
        units = (_unit(1, 0.0, 0.05), _unit(2, 0.05, 0.04))
        result = validate_instance(Instance(units=units, budget=10.0))
        assert not result.ok
        (issue,) = result.issues
        assert issue.code == "window" and issue.index == 2

    def test_cyclic_graph(self):
        graph = DependencyGraph(num_nodes=2, edges=((1, 2), (2, 1)))
        result = validate_instance(_two_unit_instance(graph=graph))
        assert not result.ok
        assert any(i.message == "graph not acyclic" for i in result.issues)

    def test_forward_edge_rejected(self):
        # dependencies must point to already-transmitted units
        graph = DependencyGraph(num_nodes=2, edges=((1, 2),))
        result = validate_instance(_two_unit_instance(graph=graph))
        assert any(
            i.code == "graph" and "transmission order" in i.message
            for i in result.issues
        )

    @pytest.mark.parametrize("bad", [((2, 3),), ((3, 1),), ((2, 0),), ((0, 1),), ((2, 3), (3, 2))])
    def test_out_of_range_edges_are_the_only_issue(self, bad):
        # acyclicity counts only in-range endpoints, so a cycle through a node
        # that does not exist is not reported a second time
        graph = DependencyGraph(num_nodes=2, edges=((2, 1),) + bad)
        result = validate_instance(_two_unit_instance(graph=graph))
        assert [i.message for i in result.issues] == [f"edge {e} out of range" for e in bad]

    def test_node_count_mismatch(self):
        graph = DependencyGraph(num_nodes=3, edges=((2, 1),))
        result = validate_instance(_two_unit_instance(graph=graph))
        assert any(i.code == "graph" for i in result.issues)

    def test_ready_order(self):
        units = (_unit(1, 0.05, 0.10), _unit(2, 0.0, 0.05))
        result = validate_instance(Instance(units=units, budget=10.0))
        assert any(i.code == "order" for i in result.issues)

    def test_nonpositive_budget(self):
        result = validate_instance(Instance(units=(_unit(1, 0.0, 0.05),), budget=0.0))
        assert any(i.code == "budget" for i in result.issues)

    def test_result_is_truthy_when_ok(self):
        assert bool(validate_instance(_two_unit_instance()))


class TestDependencyGraph:
    def test_no_edges_no_ancestors(self):
        g = DependencyGraph(num_nodes=3, edges=())
        assert g.ancestors(1) == frozenset()
        assert g.ancestors(3) == frozenset()

    def test_chain_closure(self):
        g = DependencyGraph(num_nodes=3, edges=((2, 1), (3, 2)))
        assert g.ancestors(3) == frozenset({1, 2})
        assert g.descendants(1) == frozenset({2, 3})

    def test_reference_pattern_closure(self):
        # intra frame 1, predicted 2/4, bidirectional 3/5
        g = DependencyGraph(
            num_nodes=5, edges=((2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 4))
        )
        assert g.ancestors(4) == frozenset({1, 2})
        assert g.ancestors(5) == frozenset({1, 2, 4})
        assert g.ancestors(1) == frozenset()

    def test_acyclic_flag(self):
        assert DependencyGraph(num_nodes=2, edges=((2, 1),)).is_acyclic
        assert not DependencyGraph(num_nodes=2, edges=((1, 2), (2, 1))).is_acyclic

    def test_cycle_raises_on_topological_questions(self):
        g = DependencyGraph(num_nodes=2, edges=((1, 2), (2, 1)))
        with pytest.raises(GraphCycleError):
            g.ancestors(1)

    @given(st.integers(0, 12345))
    @settings(max_examples=50, deadline=None)
    def test_ancestors_and_descendants_are_disjoint(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        edges = tuple(
            (i, j)
            for i in range(2, n + 1)
            for j in range(1, i)
            if rng.random() < 0.4
        )
        g = DependencyGraph(num_nodes=n, edges=edges)
        for i in range(1, n + 1):
            anc = g.ancestors(i)
            desc = g.descendants(i)
            assert not anc & desc
            assert i not in anc and i not in desc
            # closure agrees with one-step parent recursion over the edges
            expanded = {p for c, p in edges if c == i}
            frontier = list(expanded)
            while frontier:
                k = frontier.pop()
                for p in (q for c, q in edges if c == k):
                    if p not in expanded:
                        expanded.add(p)
                        frontier.append(p)
            assert anc == frozenset(expanded)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestSerialization:
    def test_round_trip_small(self, tmp_path):
        inst = _two_unit_instance(graph=DependencyGraph(2, ((2, 1),)))
        path = tmp_path / "inst.txt"
        save_instance(inst, path)
        back = load_instance(path)
        assert back == inst

    @given(
        budget=positive,
        fields=st.lists(
            st.tuples(finite, positive, positive, positive, positive, positive),
            min_size=0,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_every_bit(self, budget, fields):
        units = tuple(
            DataUnit(
                index=i + 1,
                impact=q,
                size=l,
                ready=t,
                deadline=t + life,
                decay=th,
                channel=c,
            )
            for i, (t, life, q, l, th, c) in enumerate(fields)
        )
        inst = Instance(units=units, budget=budget)
        back = loads_instance(dumps_instance(inst))
        assert back.budget == inst.budget
        assert len(back.units) == len(inst.units)
        for a, b in zip(back.units, inst.units):
            assert a == b  # repr-formatted floats reparse exactly

    def test_graph_round_trip(self):
        units = tuple(_unit(i, 0.01 * i, 0.01 * i + 0.05) for i in range(1, 6))
        g = DependencyGraph(5, ((2, 1), (3, 1), (5, 4)))
        inst = Instance(units=units, budget=5.0, graph=g)
        back = loads_instance(dumps_instance(inst))
        assert back.graph is not None
        assert set(back.graph.edges) == set(g.edges)

    def test_missing_budget(self):
        with pytest.raises(ValueError, match="budget"):
            loads_instance("units 0\n")

    def test_missing_units_header(self):
        with pytest.raises(ValueError, match="units"):
            loads_instance("budget 10.0\n")

    def test_count_mismatch(self):
        text = "budget 10.0\nunits 2\nunit 1 1.0 1.0 0.0 1.0 0.5 1.0\n"
        with pytest.raises(ValueError, match="header says 2"):
            loads_instance(text)

    def test_unknown_record_reports_line(self):
        text = "budget 10.0\nunits 0\nbogus 1 2\n"
        with pytest.raises(ValueError, match="line 3"):
            loads_instance(text)

    def test_short_unit_line_reports_line(self):
        text = "budget 10.0\nunits 1\nunit 1 1.0\n"
        with pytest.raises(ValueError, match="line 3"):
            loads_instance(text)

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\nbudget 1.0\nunits 0\n"
        inst = loads_instance(text)
        assert inst.num_units == 0 and inst.budget == 1.0


# (field, bad value, expected issue code); the value of the structural
# mutations "window", "order" and "index" is derived from the drawn units
_MUTATIONS = tuple(
    (f, 0.0, f) for f in ("impact", "size", "decay", "channel")
) + tuple(
    (f, bad, f)
    for f in ("budget", "impact", "size", "decay", "channel")
    for bad in (math.nan, math.inf)
) + (
    ("budget", -1.0, "budget"),
    ("ready", math.nan, "window"),
    ("ready", -math.inf, "window"),
    ("deadline", math.inf, "window"),
    ("deadline", math.nan, "window"),
    ("window", None, "window"),
    ("order", None, "order"),
    ("index", None, "index"),
)


@given(mutation=st.sampled_from(_MUTATIONS), seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_every_broken_invariant_is_reported(mutation, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    n = 3
    ready = np.cumsum(rng.uniform(0.01, 0.1, size=n))
    units = [
        _unit(i + 1, float(ready[i]), float(ready[i]) + 0.05,
              impact=float(rng.uniform(50, 150)))
        for i in range(n)
    ]
    budget = 10.0
    pos = int(rng.integers(0, n))
    choice, bad, code = mutation
    if choice == "budget":
        budget = bad
    elif choice == "window":
        units[pos] = dataclasses.replace(units[pos], deadline=units[pos].ready - 0.01)
    elif choice == "order":
        units[1] = dataclasses.replace(units[1], ready=units[0].ready - 1.0,
                                       deadline=units[0].ready - 0.95)
    elif choice == "index":
        units[pos] = dataclasses.replace(units[pos], index=units[pos].index + 7)
    else:
        units[pos] = dataclasses.replace(units[pos], **{choice: bad})
    result = validate_instance(Instance(units=tuple(units), budget=budget))
    assert not result.ok
    assert any(i.code == code for i in result.issues)


class TestSmallTypes:
    def test_unit_lifetime(self):
        assert _unit(1, 0.02, 0.07).lifetime == pytest.approx(0.05)

    def test_decision_window(self):
        assert CrossLayerDecision(0.01, 0.04, 3.0).window == pytest.approx(0.03)

    def test_empty_instance(self):
        inst = Instance(units=(), budget=5.0)
        assert inst.num_units == 0
        assert math.isfinite(inst.budget)


_WRITERS = {
    "text": lambda path: write_text_atomic(path, "new\n"),
    "instance": lambda path: save_instance(_two_unit_instance(), path),
    "trajectory": lambda path: report_to_csv(
        SolveReport((), 0.0, 0.0, 0.0, 0, 0, True, 0.0, ()), path
    ),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_failed_replace_keeps_the_earlier_file(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "out.txt"
        target.write_text("earlier\n", encoding="utf-8")

        def refuse(self, other):
            raise OSError("replace refused")

        monkeypatch.setattr(Path, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            _WRITERS[writer](target)
        assert target.read_text(encoding="utf-8") == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
