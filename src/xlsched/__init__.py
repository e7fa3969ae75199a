"""Cross-layer scheduling: offline dual solvers and an online learned policy.

Data units arrive in FIFO order, each with an importance weight, a payload
size, a ready time and a deadline. A schedule picks per unit a transmission
window and a payload; losses cost distortion (and propagate along an optional
dependency graph), transmission costs energy against a long-term average
budget. The offline solvers relax the coupling constraints with prices and
split the problem per unit; the online policy decides each unit on arrival
from a learned backlog-value function and a slowly tracking energy price.
"""

from .core import (
    CrossLayerDecision,
    DataUnit,
    DependencyGraph,
    GraphCycleError,
    Instance,
    IterationRow,
    SolveReport,
    ValidationIssue,
    ValidationResult,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
    validate_instance,
)
from .models import (
    ShannonEnergyParams,
    ShannonExpModel,
    ShapeReport,
    energy_cost,
    loss_fraction,
    verify_shape,
)
from .offline import (
    DecisionGrid,
    UnitSolution,
    average_energy,
    handoff_update,
    instance_distortion,
    price_update,
    recover_primal,
    report_to_csv,
    solve_independent,
    solve_interdependent,
    upper_optimization,
)
from .online import (
    CausalStream,
    CycleRow,
    DagKnowledge,
    LearnerState,
    LookaheadError,
    OnlineParams,
    RunResult,
    UnitOutcome,
    ValueModel,
    online_price_update,
    run_online,
    solve_online_unit,
    solve_online_unit_dag,
    state_transition,
    value_update,
)
from .oracle import OracleResult, brute_force
from .config import (
    ConfigError,
    ExperimentConfig,
    ExperimentPlan,
    SolverParams,
    config_hash,
    config_to_text,
    default_config,
    load_config,
)
from .experiments import run_experiment, run_online_sweep
from .tracegen import DAG_KINDS, TraceParams, generate_dag, generate_trace

__version__ = "0.1.0"

__all__ = [
    "CrossLayerDecision",
    "DataUnit",
    "DependencyGraph",
    "GraphCycleError",
    "Instance",
    "IterationRow",
    "SolveReport",
    "ValidationIssue",
    "ValidationResult",
    "dumps_instance",
    "load_instance",
    "loads_instance",
    "save_instance",
    "validate_instance",
    "ShannonEnergyParams",
    "ShannonExpModel",
    "ShapeReport",
    "energy_cost",
    "loss_fraction",
    "verify_shape",
    "DecisionGrid",
    "UnitSolution",
    "average_energy",
    "handoff_update",
    "instance_distortion",
    "price_update",
    "recover_primal",
    "report_to_csv",
    "solve_independent",
    "solve_interdependent",
    "upper_optimization",
    "CausalStream",
    "CycleRow",
    "DagKnowledge",
    "LearnerState",
    "LookaheadError",
    "OnlineParams",
    "RunResult",
    "UnitOutcome",
    "ValueModel",
    "online_price_update",
    "run_online",
    "solve_online_unit",
    "solve_online_unit_dag",
    "state_transition",
    "value_update",
    "OracleResult",
    "brute_force",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentPlan",
    "SolverParams",
    "config_hash",
    "config_to_text",
    "default_config",
    "load_config",
    "run_experiment",
    "run_online_sweep",
    "DAG_KINDS",
    "TraceParams",
    "generate_dag",
    "generate_trace",
    "__version__",
]
