"""Trace and dependency-graph generation."""

import numpy as np
import pytest

from xlsched import (
    DAG_KINDS,
    TraceParams,
    generate_dag,
    generate_trace,
    validate_instance,
)


class TestGenerateTrace:
    def test_empty_trace(self):
        inst = generate_trace(TraceParams(num_dus=0))
        assert inst.units == ()
        assert inst.budget == 10.0
        assert inst.graph is None

    def test_same_seed_is_bit_identical(self):
        p = TraceParams(seed=42, num_dus=50)
        assert generate_trace(p) == generate_trace(p)

    def test_different_seeds_differ(self):
        a = generate_trace(TraceParams(seed=1, num_dus=50))
        b = generate_trace(TraceParams(seed=2, num_dus=50))
        assert a != b

    def test_generated_instances_validate(self):
        inst = generate_trace(TraceParams(seed=3, num_dus=200))
        assert validate_instance(inst).ok

    def test_sample_statistics(self):
        p = TraceParams(seed=7, num_dus=10_000, impact_low=50.0, impact_high=150.0,
                        mean_interarrival=0.05)
        inst = generate_trace(p)
        assert len(inst.units) == 10_000
        mean_gap = inst.units[-1].ready / 10_000
        assert mean_gap == pytest.approx(0.05, rel=0.03)
        mean_impact = float(np.mean([u.impact for u in inst.units]))
        assert mean_impact == pytest.approx(100.0, rel=0.03)

    def test_windows_and_shared_fields(self):
        p = TraceParams(seed=1, num_dus=30, lifetime=0.07, size=4.0, decay=0.9)
        inst = generate_trace(p)
        for u in inst.units:
            assert u.deadline == pytest.approx(u.ready + 0.07)
            assert u.size == 4.0
            assert u.decay == 0.9
        ready = [u.ready for u in inst.units]
        assert ready == sorted(ready)
        assert ready[0] > 0.0  # first unit arrives after one gap

    def test_fixed_channel(self):
        inst = generate_trace(TraceParams(seed=1, num_dus=10, channel="fixed:0.8"))
        assert all(u.channel == 0.8 for u in inst.units)

    def test_uniform_channel_range(self):
        inst = generate_trace(
            TraceParams(seed=1, num_dus=500, channel="uniform:0.5,1.5")
        )
        gains = [u.channel for u in inst.units]
        assert min(gains) >= 0.5
        assert max(gains) <= 1.5
        assert max(gains) - min(gains) > 0.5  # actually spread out

    @pytest.mark.parametrize("spec", [
        "uniform:1.5,0.5",   # reversed bounds
        "uniform:0.5",       # missing endpoint
        "fixed:0",           # degenerate gain
        "fixed:-1",
        "gauss:0,1",         # unsupported family
    ])
    def test_bad_channel_specs(self, spec):
        with pytest.raises(ValueError, match="channel spec"):
            generate_trace(TraceParams(num_dus=1, channel=spec))

    @pytest.mark.parametrize("kw", [
        {"num_dus": -1},
        {"impact_low": 0.0},
        {"impact_low": 150.0, "impact_high": 50.0},
        {"size": 0.0},
        {"mean_interarrival": -0.05},
        {"lifetime": 0.0},
        {"decay": 0.0},
        {"budget": 0.0},
        {"budget": float("nan")},
        {"budget": float("inf")},
        {"size": float("nan")},
        {"decay": float("nan")},
        {"impact_high": float("inf")},
        {"seed": -1},
        {"channel": "bogus"},
        {"channel": "uniform:1.5,0.5"},
    ])
    def test_bad_params(self, kw):
        with pytest.raises(ValueError):
            TraceParams(**kw)


class TestGenerateDag:
    def test_kinds_tuple(self):
        assert set(DAG_KINDS) == {"random", "ibpbp", "gop8"}
        with pytest.raises(ValueError, match="unknown dag kind"):
            generate_dag("tree", 10, 5)

    def test_edgeless_draw_returns_none(self):
        assert generate_dag("random", 20, 5, seed=0, edge_prob=0.0) is None
        assert generate_dag("random", 0, 5, seed=0, edge_prob=1.0) is None

    def test_random_same_seed_identical(self):
        a = generate_dag("random", 30, 10, seed=4, edge_prob=0.4)
        b = generate_dag("random", 30, 10, seed=4, edge_prob=0.4)
        assert a == b

    def test_full_probability_gives_complete_cycles(self):
        g = generate_dag("random", 6, 3, seed=0, edge_prob=1.0)
        assert set(g.edges) == {(2, 1), (3, 1), (3, 2), (5, 4), (6, 4), (6, 5)}

    def test_no_cross_cycle_edges(self):
        g = generate_dag("random", 50, 10, seed=2, edge_prob=0.5)
        for i, j in g.edges:
            assert (i - 1) // 10 == (j - 1) // 10
            assert j < i  # backward in transmission order

    def test_reference_pattern_tiles(self):
        g = generate_dag("ibpbp", 10, 5)
        first = {(i, j) for i, j in g.edges if i <= 5}
        assert first == {(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 4)}
        second = {(i, j) for i, j in g.edges if i > 5}
        assert second == {(i + 5, j + 5) for i, j in first}

    def test_dyadic_tree_shape(self):
        g = generate_dag("gop8", 8, 8)
        assert g.ancestors(1) == frozenset()
        for i in range(2, 9):
            assert g.ancestors(i)  # every later frame refines something
        # leaves at the deepest level hang off the full chain to the root
        assert g.ancestors(8) == frozenset({1, 2, 4})

    def test_pattern_cycle_length_is_pinned(self):
        with pytest.raises(ValueError, match="cycle_len 5"):
            generate_dag("ibpbp", 10, 4)
        with pytest.raises(ValueError, match="cycle_len 8"):
            generate_dag("gop8", 16, 10)

    def test_partial_tail_cycle_keeps_valid_edges(self):
        g = generate_dag("ibpbp", 8, 5)  # second cycle truncated at 3 units
        tail = {(i, j) for i, j in g.edges if i > 5}
        assert tail == {(7, 6), (8, 6), (8, 7)}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_dag("random", 10, 0)
        with pytest.raises(ValueError):
            generate_dag("random", -1, 5)
        with pytest.raises(ValueError):
            generate_dag("random", 10, 5, edge_prob=1.5)

    def test_graph_attaches_to_generated_trace(self):
        inst = generate_trace(TraceParams(seed=1, num_dus=20))
        g = generate_dag("random", 20, 10, seed=1, edge_prob=0.5)
        coupled = inst.__class__(units=inst.units, budget=inst.budget, graph=g)
        assert validate_instance(coupled).ok
