"""The benchmark's own yardsticks: schedule feasibility, distortion, digests.

None of these call the package's evaluators (``instance_distortion``,
``average_energy`` and the online realized-distortion helper), so a change
that merges or rewrites those cannot move the numbers it is judged by. They
take a plain model, never the counting one, so they add nothing to the
traced counters.
"""

from __future__ import annotations

import hashlib
import struct

# Absolute slack for times (s) and relative slack for energies and payloads;
# both are far below anything a scheduling decision could mean.
TIME_TOL = 1e-9
REL_TOL = 1e-9


def feasibility_errors(inst, decisions, model, offline: bool) -> list[str]:
    """Rule violations of one returned schedule (empty when feasible).

    Each window lies inside [ready, deadline], each payload in [0, size],
    each transmission's energy under the model's cap, and units that send a
    positive payload keep FIFO order. Zero-payload drops send nothing and are
    exempt from FIFO. Offline schedules must also keep average energy within
    the budget.
    """
    errs: list[str] = []
    if len(decisions) != inst.num_units:
        return [f"{len(decisions)} decisions for {inst.num_units} units"]
    cap = model.params.energy_cap
    total = 0.0
    prev_end = None
    for u, d in zip(inst.units, decisions):
        if not (u.ready - TIME_TOL <= d.start <= d.end <= u.deadline + TIME_TOL):
            errs.append(f"unit {u.index}: window [{d.start!r}, {d.end!r}] outside [{u.ready!r}, {u.deadline!r}]")
            continue
        if not 0.0 <= d.payload <= u.size * (1.0 + REL_TOL):
            errs.append(f"unit {u.index}: payload {d.payload!r} outside [0, {u.size!r}]")
        w = model.cost(u, d.start, d.end, d.payload)
        total += w
        if cap is not None and w > cap * (1.0 + REL_TOL):
            errs.append(f"unit {u.index}: energy {w!r} above cap {cap!r}")
        if d.payload > 0.0:
            if prev_end is not None and d.start < prev_end - TIME_TOL:
                errs.append(f"unit {u.index}: starts at {d.start!r} before the previous end {prev_end!r}")
            prev_end = d.end
    if offline and inst.num_units and total / inst.num_units > inst.budget * (1.0 + REL_TOL):
        errs.append(f"average energy {total / inst.num_units!r} above budget {inst.budget!r}")
    return errs


def schedule_totals(inst, decisions, model) -> tuple[float, float, int]:
    """(total expected distortion, total energy, units sent nothing).

    A unit's distortion is its impact times the chance it is lost, where it
    survives only if it is received and every ancestor in the graph survived
    error propagation.
    """
    graph = inst.graph
    dist = energy = 0.0
    drops = 0
    for u, d in zip(inst.units, decisions):
        survive = 1.0 - model.loss(u, d.start, d.end, d.payload)
        if graph is not None:
            for k in graph.ancestors(u.index):
                ku, kd = inst.units[k - 1], decisions[k - 1]
                survive *= 1.0 - model.errprop(ku, kd.start, kd.end, kd.payload)
        dist += u.impact * (1.0 - survive)
        energy += model.cost(u, d.start, d.end, d.payload)
        drops += d.payload == 0.0
    return dist, energy, drops


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def digest(hasher, decisions) -> None:
    """Fold a schedule's exact bits into ``hasher``."""
    for d in decisions:
        hasher.update(struct.pack("<3d", d.start, d.end, d.payload))


def new_digest():
    return hashlib.sha256()
