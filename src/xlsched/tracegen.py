"""Synthetic trace and dependency-graph generation.

Traces are drawn with numpy's default generator (PCG64) so a seed pins the
byte-exact instance across platforms. The draw order is part of the format:
first all interarrival gaps, then all impacts, then all channel gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DataUnit, DependencyGraph, Instance, _require_count

__all__ = ["TraceParams", "generate_trace", "generate_dag", "DAG_KINDS"]

DAG_KINDS = ("random", "ibpbp", "gop8")

# reference pattern for a 5-frame group in transmission (decode) order
# [intra, pred, bidir, pred, bidir]: predictions chain through the reference
# frames, bidirectional frames use both surrounding references
_IBPBP_EDGES = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 4))
# dyadic temporal-level tree over 8 frames: frame i refines frame i // 2
_GOP8_EDGES = tuple((i, i // 2) for i in range(2, 9))


@dataclass(frozen=True)
class TraceParams:
    """Trace distribution knobs (defaults give the standard workload)."""

    seed: int = 0
    num_dus: int = 1000
    impact_low: float = 50.0
    impact_high: float = 150.0
    size: float = 10.0
    mean_interarrival: float = 0.05
    lifetime: float = 0.05
    decay: float = 0.5
    channel: str = "uniform:0.5,1.5"
    budget: float = 10.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.num_dus < 0:
            raise ValueError(f"num_dus must be nonnegative, got {self.num_dus}")
        if not 0.0 < self.impact_low <= self.impact_high < math.inf:
            raise ValueError(
                f"impact range must satisfy 0 < low <= high < inf, got "
                f"[{self.impact_low}, {self.impact_high}]"
            )
        for name in ("size", "mean_interarrival", "lifetime", "decay", "budget"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        _channel_sampler(self.channel)  # parses the spec; draws nothing


def _channel_sampler(spec: str) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Parse 'uniform:lo,hi' or 'fixed:v' into a vectorized sampler."""
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()

    def number(text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"channel spec {spec!r}: {text.strip()!r} is not a number") from None

    if kind == "uniform":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"channel spec {spec!r}: expected 'uniform:lo,hi'")
        lo, hi = (number(p) for p in parts)
        if not 0.0 < lo <= hi:
            raise ValueError(f"channel spec {spec!r}: need 0 < lo <= hi")
        return lambda rng, n: rng.uniform(lo, hi, size=n)
    if kind == "fixed":
        v = number(arg)
        if v <= 0.0:
            raise ValueError(f"channel spec {spec!r}: gain must be positive")
        return lambda rng, n: np.full(n, v)
    raise ValueError(f"channel spec {spec!r}: unknown distribution {kind!r}")


def generate_trace(params: TraceParams) -> Instance:
    """Draw an instance: Poisson arrivals, uniform impacts, random channels.

    Ready times are cumulative sums of exponential gaps (the first unit
    arrives after one gap); deadlines sit one lifetime after arrival. Size
    and decay are shared by all units. No graph is attached.
    """
    sampler = _channel_sampler(params.channel)
    rng = np.random.default_rng(params.seed)
    n = params.num_dus
    gaps = rng.exponential(params.mean_interarrival, size=n)
    impacts = rng.uniform(params.impact_low, params.impact_high, size=n)
    channels = sampler(rng, n)
    ready = np.cumsum(gaps)
    units = tuple(
        DataUnit(
            index=i + 1,
            impact=float(impacts[i]),
            size=params.size,
            ready=float(ready[i]),
            deadline=float(ready[i]) + params.lifetime,
            decay=params.decay,
            channel=float(channels[i]),
        )
        for i in range(n)
    )
    return Instance(units=units, budget=params.budget, graph=None)


def _require_dag_args(kind: str, cycle_len: int, edge_prob: float) -> None:
    """Raise ``ValueError`` unless ``generate_dag`` takes these arguments."""
    if kind not in DAG_KINDS:
        raise ValueError(f"unknown dag kind {kind!r}; expected one of {DAG_KINDS}")
    _require_count("cycle_len", cycle_len, 1)
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    for pattern, size in (("ibpbp", 5), ("gop8", 8)):
        if kind == pattern and cycle_len != size:
            raise ValueError(f"{pattern} pattern needs cycle_len {size}, got {cycle_len}")


def generate_dag(
    kind: str,
    num_dus: int,
    cycle_len: int,
    seed: int = 0,
    edge_prob: float = 0.3,
) -> Optional[DependencyGraph]:
    """Build a dependency graph as independent per-cycle blocks.

    ``random`` draws each backward in-cycle pair with probability
    ``edge_prob`` (seeded); ``ibpbp`` stamps the 5-frame reference pattern
    (cycle_len must be 5) and ``gop8`` the 8-frame dyadic tree (cycle_len
    must be 8). A partial tail cycle keeps only the edges whose endpoints
    exist. Returns None when no edge survives. No edge crosses a cycle
    boundary.
    """
    _require_dag_args(kind, cycle_len, edge_prob)
    if num_dus < 0:
        raise ValueError(f"num_dus must be nonnegative, got {num_dus}")

    edges: list[tuple[int, int]] = []
    if kind == "random":
        rng = np.random.default_rng(seed)
        for lo in range(1, num_dus + 1, cycle_len):
            hi = min(lo + cycle_len - 1, num_dus)
            for i in range(lo + 1, hi + 1):
                for j in range(lo, i):
                    if rng.random() < edge_prob:
                        edges.append((i, j))
    else:
        pattern = _IBPBP_EDGES if kind == "ibpbp" else _GOP8_EDGES
        for lo in range(1, num_dus + 1, cycle_len):
            for di, dj in pattern:
                i, j = lo + di - 1, lo + dj - 1
                if i <= num_dus:
                    edges.append((i, j))

    if not edges:
        return None
    return DependencyGraph(num_nodes=num_dus, edges=tuple(edges))
