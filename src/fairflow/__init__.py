"""Fair integral modular flows.

Compute integer flows whose values on a designated focus edge set are
decreasingly minimal (the largest value is as small as possible, then
the second largest, and so on), describe the set of all such flows by a
narrow pair of bound functions, pick the cheapest one, and certify
fairness with objects a third party can check arc by arc.

The brute-force ground truth is the submodule ``fairflow.oracle``; it is
not re-exported, so importing the package does not load it.
"""

from .certificates import (
    DecMinVerdict,
    LevelCost,
    PotentialVector,
    apply_dicircuit,
    build_level_cost,
    build_potential_vector,
    find_improving_dicircuit,
    is_decmin,
    potential_is_feasible,
)
from .core import (
    CostedResidual,
    Digraph,
    FlowProblem,
    FlowValues,
    FlowViolation,
    ResidualArc,
    boundary_sums,
    build_costed_residual,
    check_flow,
    decmin_compare,
    focus_profile,
)
from .decmin import (
    NarrowBox,
    ReductionRound,
    cheapest_decmin_flow,
    decmin_flow,
    incmax_flow,
    narrow_box,
)
from .errors import (
    AssumptionViolatedError,
    FairFlowError,
    InfeasibleError,
    InfiniteBoundsError,
    InfinityClashError,
    InternalCertificateFailure,
    LimitExceededError,
    NegativeCycleError,
    NoDecMinError,
    UnboundedCostError,
)
from .existence import (
    ExistenceResult,
    InfArc,
    exists_decmin,
    finitize_bounds,
    infinity_digraph,
    shift_along_witness,
)
from .extint import ExtInt, NEG_INF, POS_INF, as_extint
from .jsonio import ProblemFormatError, parse_problem, problem_to_json
from .maxflow import (
    CutCertificate,
    find_feasible_mflow,
    hoffman_deficiency,
    max_flow,
    most_violating_set,
    nd_cut_subroutine,
    require_feasible,
)
from .mincost import (
    find_negative_dicircuit,
    min_cost_mflow,
    residual_potentials,
)
from .newton import BetaResult, NDIteration, NDTrace, compute_beta, nd_min_good_mu
from .upper_min import (
    Chain,
    apply_round_bounds,
    chain_dual_value,
    solve_upper_minimizer,
    verify_O1_O5,
)

__version__ = "0.1.0"
