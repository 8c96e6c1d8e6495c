"""Global robot localization against architectural floor plans.

A floor plan becomes an optimizable plan graph (A-Graph); a simulated robot
estimates an online situational graph (S-Graph) from noisy odometry and
plane observations; hierarchical graph matching relates the two; merging
them yields one informed graph (iS-Graph) that localizes the robot in the
plan's frame.
"""

from .a_graph import (
    AGraph,
    FloorPlan,
    PlanError,
    build_a_graph,
    load_plan,
)
from .factor_graph import (
    Factor,
    FactorGraph,
    FactorKind,
    GaugeFreedomError,
    GraphError,
    SolveReport,
    VariableId,
    VarKind,
)
from .geometry import (
    GeometryError,
    Pose2,
    estimate_transform_closed_form,
    transform_phi_dist,
    wrap_angle,
)
from .matcher import (
    MatchCandidate,
    MatchPair,
    MatchResult,
    MatchStatus,
    cluster_and_decide,
    combine_bottom_up,
    match,
    propose_room_pairs,
    propose_wall_pairs,
    room_entries,
    score_candidate,
    wall_residual_rms,
)
from .merger import MergedState, MergeError, extend_matches, localized_trajectory, merge
from .metrics import ApeReport, EstimatedSurface, MapRmseReport, compute_ape, compute_map_rmse
from .plans import fixture_plan, fixture_scenarios, generate_random_plan, route_waypoints
from .runner import run_pipeline, run_scenario
from .s_graph import (
    PlaneObservation,
    PlanSimulator,
    SGraph,
    SimConfig,
    SimStep,
    SimulationError,
)

__version__ = "0.1.0"
