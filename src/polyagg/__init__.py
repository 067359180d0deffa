"""polyagg: policy aggregation for multi-objective MDPs.

Builds the state-action occupancy polytope of a shared-dynamics MDP, treats
each agent's expected return as a linear functional over it, estimates the
induced per-agent return distributions by uniform sampling, and computes
collective policies under social-choice rules (proportional veto core,
max-quantile fairness, alpha-approval / plurality, Borda count) next to
utilitarian and egalitarian baselines.
"""

from .errors import (
    AllAgentsIndifferent,
    ConcaveRegionEmpty,
    DegeneratePolytope,
    InfeasibleBounds,
    InfeasibleModel,
    LpFailure,
    MilpBudgetExhausted,
    PolyaggError,
    SingularChain,
    SizeLimit,
    ZeroWelfare,
)
from .harness import (
    ExperimentSpec,
    MetricsRow,
    Pipeline,
    RuleSpec,
    gini,
    nash_welfare,
    prepare,
    run_experiment,
    run_rule,
    write_experiment,
)
from .instances import (
    CnfFormula,
    Graph,
    WarehouseParams,
    brute_force_max2sat,
    brute_force_mis,
    enumerate_deterministic_policies,
    gen_from_max2sat,
    gen_from_mis,
    gen_simplex_instance,
    gen_warehouse,
    random_2cnf,
    random_graph,
    random_momdp,
)
from .lp import (
    MilpProgram,
    MilpResult,
    leximin,
    milp_solve,
    pareto_complete,
    solve_lp,
)
from .mdp import (
    AVERAGE,
    DISCOUNTED,
    Momdp,
    OccupancyMeasure,
    OccupancyPolytope,
    Policy,
    build_polytope,
    expected_return,
    load_momdp,
    momdp_from_json,
    momdp_to_json,
    normalize_rewards,
    occupancy_to_policy,
    policy_to_occupancy,
    save_momdp,
)
from .rules import (
    ApprovalCertificate,
    BordaCertificate,
    Diagnostics,
    QuantileCertificate,
    RuleResult,
    VetoCertificate,
    alpha_approval,
    borda_concave,
    borda_milp,
    egalitarian,
    max_quantile,
    plurality,
    utilitarian,
    veto_core,
)
from .volume import (
    HullChart,
    ReturnCdf,
    SampleCloud,
    affine_hull,
    centroid_estimate,
    estimate_cdf,
    load_cloud,
    mode_estimate,
    quantile_inverse,
    sample_uniform,
    save_cloud,
    vol_fraction,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
