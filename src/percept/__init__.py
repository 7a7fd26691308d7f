"""Utility-guided control engine for hierarchical Bayesian recognition.

The engine dynamically instantiates a singly connected Bayes net from an
a priori model base, values candidate evidence-gathering actions by their
expected effect on parent-hypothesis beliefs, selects actions under a time
budget with a knapsack solver, executes them against a simulated world on
a simulated processor pool, and accrues the returned evidence until a
termination belief is reached.
"""

from .bayes_net import BayesNet, BayesNode, NetEdge
from .controller import (
    Controller,
    SimulatedPool,
    audit_report,
    check_termination,
    recorded_plans,
    replay_scenario,
)
from .errors import (
    CyclicModelError,
    InconsistentEvidenceError,
    PolytreeError,
    ScenarioError,
    UnknownIdError,
    UnsupportedConfigurationError,
    UnvaluedAncestorError,
)
from .model_base import (
    ActionTemplate,
    ConditionalTable,
    ControlConfig,
    HypothesisSet,
    ModelBase,
    ModelNode,
    OutcomeTable,
    build_model_base,
    load_scenario,
)
from .planner import (
    KnapsackInstance,
    KnapsackItem,
    Plan,
    plan_sweep,
    solve_approx,
    solve_exact,
)
from .valuation import ActionInstance, Valuer, ValueMode
from .world import (
    ActionResult,
    Binding,
    Cluster,
    ClusterParams,
    Detection,
    TerrainGrid,
    World,
    WorldEntity,
    bind_cluster,
    cluster_detections,
    execute_action,
    generate_detections,
    terrain_support,
)

__version__ = "0.1.0"
