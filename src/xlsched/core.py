"""Domain objects: data units, decisions, dependency graphs, solver reports.

Instance text format (version 1)
--------------------------------

One instance per file, plain text, ``#`` lines are comments::

    # xlsched instance v1
    budget 10.0
    units 3
    unit 1 100.0 10.0 0.0 0.05 0.5 1.0
    unit 2 80.0 10.0 0.02 0.07 0.5 0.9
    unit 3 120.0 10.0 0.05 0.1 0.5 1.2
    dep 3 1

``unit`` columns are: index, impact, size, ready, deadline, decay, channel.
Times are seconds; ``size`` is in payload units (kilobits under the default
model convention, raw bits when the model's ``bit_unit`` is 1). ``dep I J``
states that unit I depends on unit J. Floats are written with ``repr`` so a
save/load round trip is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

__all__ = [
    "DataUnit",
    "CrossLayerDecision",
    "DependencyGraph",
    "Instance",
    "IterationRow",
    "SolveReport",
    "ValidationIssue",
    "ValidationResult",
    "GraphCycleError",
    "validate_instance",
    "save_instance",
    "load_instance",
    "dumps_instance",
    "loads_instance",
]


@dataclass(frozen=True)
class DataUnit:
    """One schedulable unit of data.

    ``ready``/``deadline`` bound the transmission window in seconds,
    ``impact`` is the distortion removed if the unit is fully received,
    ``size`` its payload, ``decay`` the loss-curve exponent per payload unit
    and ``channel`` the channel gain seen while it is transmittable.
    """

    index: int
    impact: float
    size: float
    ready: float
    deadline: float
    decay: float
    channel: float

    @property
    def lifetime(self) -> float:
        return self.deadline - self.ready


@dataclass(frozen=True)
class CrossLayerDecision:
    """A transmission window [start, end] and the payload sent inside it."""

    start: float
    end: float
    payload: float

    @property
    def window(self) -> float:
        return self.end - self.start


class GraphCycleError(ValueError):
    """Raised when ancestor queries are made on a cyclic dependency graph."""


@dataclass(frozen=True)
class DependencyGraph:
    """Dependencies between units; edge (i, j) means unit i requires unit j."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))

    def parents(self, index: int) -> tuple[int, ...]:
        self._check_index(index)
        return self._parent_map.get(index, ())

    @cached_property
    def _parent_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, j in self.edges:
            out.setdefault(i, []).append(j)
        return {k: tuple(sorted(set(v))) for k, v in out.items()}

    @cached_property
    def _child_map(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, j in self.edges:
            out.setdefault(j, []).append(i)
        return {k: tuple(sorted(set(v))) for k, v in out.items()}

    @cached_property
    def is_acyclic(self) -> bool:
        return len(self._topo_order) == max(self.num_nodes, 0)

    @cached_property
    def _topo_order(self) -> tuple[int, ...]:
        """Kahn's order over the in-range nodes, counting only in-range parents
        and children; it leaves out every node on or below a cycle."""
        nodes = range(1, self.num_nodes + 1)
        indeg = {n: sum(p in nodes for p in self._parent_map.get(n, ())) for n in nodes}
        ready = [n for n in indeg if indeg[n] == 0]
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for child in self._child_map.get(node, ()):
                if child in indeg:
                    indeg[child] -= 1
                    if indeg[child] == 0:
                        ready.append(child)
        return tuple(order)

    @cached_property
    def _ancestor_map(self) -> dict[int, frozenset[int]]:
        if not self.is_acyclic:
            raise GraphCycleError("dependency graph contains a cycle")
        memo: dict[int, frozenset[int]] = {}
        for node in self._topo_order:
            acc: set[int] = set()
            for p in self._parent_map.get(node, ()):
                acc.add(p)
                acc |= memo[p]
            memo[node] = frozenset(acc)
        return memo

    @cached_property
    def _descendant_map(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {n: set() for n in range(1, self.num_nodes + 1)}
        for n, ancs in self._ancestor_map.items():
            for a in ancs:
                out[a].add(n)
        return {k: frozenset(v) for k, v in out.items()}

    @cached_property
    def relatives(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Per node (slot 0 unused), its ancestors and its descendants as
        tuples in the iteration order of ``ancestors``/``descendants``."""
        nodes = range(1, self.num_nodes + 1)
        return ([()] + [tuple(self._ancestor_map[n]) for n in nodes],
                [()] + [tuple(self._descendant_map[n]) for n in nodes])

    @cached_property
    def descendant_terms(self) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
        """Per node (slot 0 unused), each of its descendants paired with that
        descendant's other ancestors (all but the node), both in the order of
        ``relatives``."""
        ancestors, descendants = self.relatives
        terms: list[tuple[tuple[int, tuple[int, ...]], ...]] = [()]
        for n in range(1, self.num_nodes + 1):
            row = []
            for j in descendants[n]:
                others = ancestors[j]
                at = others.index(n)
                row.append((j, others[:at] + others[at + 1:]))
            terms.append(tuple(row))
        return terms

    def ancestors(self, index: int) -> frozenset[int]:
        """All units this one transitively depends on."""
        self._check_index(index)
        return self._ancestor_map[index]

    def descendants(self, index: int) -> frozenset[int]:
        """All units that transitively depend on this one."""
        self._check_index(index)
        return self._descendant_map[index]

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.num_nodes:
            raise IndexError(f"unit index {index} outside 1..{self.num_nodes}")


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem: units in FIFO order, budget, optional DAG."""

    units: tuple[DataUnit, ...]
    budget: float
    graph: Optional[DependencyGraph] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))

    @property
    def num_units(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    index: Optional[int]
    message: str


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple[ValidationIssue, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_instance(inst: Instance) -> ValidationResult:
    """Check the structural invariants an instance must satisfy.

    Violations are reported, not raised, so callers can surface all problems
    at once; constructors deliberately accept invalid values.
    """
    issues: list[ValidationIssue] = []

    def add(code: str, index: Optional[int], message: str) -> None:
        issues.append(ValidationIssue(code, index, message))

    if not 0 < inst.budget < math.inf:
        add("budget", None, f"budget must be positive and finite, got {inst.budget!r}")

    prev_ready = -math.inf
    for pos, u in enumerate(inst.units, start=1):
        if u.index != pos:
            add("index", pos, f"unit at position {pos} has index {u.index}")
        if not 0 < u.impact < math.inf:
            add("impact", pos, f"impact must be positive and finite, got {u.impact!r}")
        if not 0 < u.size < math.inf:
            add("size", pos, f"size must be positive and finite, got {u.size!r}")
        if not 0 < u.decay < math.inf:
            add("decay", pos, f"decay must be positive and finite, got {u.decay!r}")
        if not 0 < u.channel < math.inf:
            add("channel", pos, f"channel gain must be positive and finite, got {u.channel!r}")
        if not (math.isfinite(u.ready) and math.isfinite(u.deadline)):
            add("window", pos, f"ready time {u.ready!r} and deadline {u.deadline!r} must be finite")
        elif u.deadline < u.ready:
            add("window", pos, f"deadline {u.deadline!r} precedes ready time {u.ready!r}")
        if u.ready < prev_ready:
            add("order", pos, "ready times must be non-decreasing in index order")
        prev_ready = max(prev_ready, u.ready)

    g = inst.graph
    if g is not None:
        if g.num_nodes != inst.num_units:
            add("graph", None, f"graph has {g.num_nodes} nodes for {inst.num_units} units")
        for i, j in g.edges:
            if not (1 <= i <= g.num_nodes and 1 <= j <= g.num_nodes):
                add("graph", None, f"edge ({i}, {j}) out of range")
            elif j >= i:
                add("graph", i, f"edge ({i}, {j}) points against transmission order")
        if not g.is_acyclic:
            add("graph", None, "graph not acyclic")

    return ValidationResult(ok=not issues, issues=tuple(issues))


@dataclass(frozen=True)
class IterationRow:
    """One outer iteration of a dual solve, as reported in trajectory CSVs."""

    k: int
    dual_value: float
    primal_value: float
    gap: float
    price: float
    handoff_norm: float
    inner_iterations: int


@dataclass(frozen=True)
class SolveReport:
    """Result of an offline solve.

    ``decisions`` is the best feasible (recovered) schedule seen; ``gap`` is
    (best primal - best dual) / max(best dual, tiny).
    """

    decisions: tuple[CrossLayerDecision, ...]
    dual_value: float
    primal_value: float
    gap: float
    outer_iterations: int
    inner_iterations: int
    converged: bool
    price: float
    handoff_prices: tuple[float, ...]
    trajectory: tuple[IterationRow, ...] = field(repr=False, default=())


# -- instance text serialization -------------------------------------------


def dumps_instance(inst: Instance) -> str:
    lines = ["# xlsched instance v1"]
    lines.append(f"budget {inst.budget!r}")
    lines.append(f"units {inst.num_units}")
    lines.append("# unit index impact size ready deadline decay channel")
    for u in inst.units:
        lines.append(
            f"unit {u.index} {u.impact!r} {u.size!r} {u.ready!r} {u.deadline!r} {u.decay!r} {u.channel!r}"
        )
    if inst.graph is not None and inst.graph.edges:
        lines.append("# dep I J: unit I depends on unit J")
        for i, j in inst.graph.edges:
            lines.append(f"dep {i} {j}")
    return "\n".join(lines) + "\n"


def loads_instance(text: str) -> Instance:
    budget: Optional[float] = None
    count: Optional[int] = None
    units: list[DataUnit] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "budget":
                budget = float(parts[1])
            elif kind == "units":
                count = int(parts[1])
            elif kind == "unit":
                if len(parts) != 8:
                    raise ValueError("expected 7 fields after 'unit'")
                units.append(
                    DataUnit(
                        index=int(parts[1]),
                        impact=float(parts[2]),
                        size=float(parts[3]),
                        ready=float(parts[4]),
                        deadline=float(parts[5]),
                        decay=float(parts[6]),
                        channel=float(parts[7]),
                    )
                )
            elif kind == "dep":
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {line!r}: {exc}") from exc
    if budget is None:
        raise ValueError("missing 'budget' record")
    if count is None:
        raise ValueError("missing 'units' record")
    if count != len(units):
        raise ValueError(f"header says {count} units, found {len(units)}")
    graph = DependencyGraph(num_nodes=len(units), edges=tuple(edges)) if edges else None
    return Instance(units=tuple(units), budget=budget, graph=graph)


def write_text_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` through a sibling ``.tmp`` file renamed over ``path``.

    Readers see the earlier file or the new one, never a partial write; on
    failure the earlier file stays and the temporary file is removed.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    write_text_atomic(path, dumps_instance(inst))


def load_instance(path: Union[str, Path]) -> Instance:
    return loads_instance(Path(path).read_text(encoding="utf-8"))
