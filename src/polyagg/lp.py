"""Linear programming over the occupancy polytope.

Provides plain LP solves with extra halfspace rows, utilitarian (Pareto)
completion, iterative leximin, and mixed binary programs whose rows tie
binaries to the occupancy variables, solved by HiGHS branch-and-cut
(with an exhaustive enumeration oracle for cross-checks).  A MILP decides
only its binaries: its result carries the assignment and score but no point,
and the rules complete the assignment with one welfare LP.

Each solve returns its answer or raises: :class:`InfeasibleBounds` when the
rows meet nowhere, :class:`MilpBudgetExhausted` when a MILP reaches its node
limit, and :class:`LpFailure` when the solver itself fails.

Extra halfspaces come as one block ``(a, b)`` meaning ``a @ d <= b`` row by
row.  Every solve over a polytope is posed by
:meth:`~polyagg.mdp.OccupancyPolytope.program`: the polytope's rows, then
the caller's block, with ``d >= 0`` as variable bounds.  Programs over the
occupancy variables plus further variables (a floor, a hypograph, binaries)
ask it for that many extra columns, which it leaves free.

The LPs with per-agent return floors - :func:`pareto_complete` (every
rule's completion and max-quantile's level probes, utilitarian's LP among
them) and leximin's floor rounds - are solves of one warm model per polytope
and reward matrix (``_solver.Warm``), kept in the polytope's ``warm_models``.
Its home solve is the welfare LP ``max sum_i <R_i, d>``; each solve changes
only costs and bounds and starts from the home basis, so its answer does
not depend on the solves before it.  :func:`home_point` returns the home
optimum, from which the MILP rules read a starting assignment for
:func:`milp_solve`.  :func:`enumerate_milp` keeps one warm model per
program.  :func:`solve_lp` stays cold: its block changes from call to call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _solver
from .errors import InfeasibleBounds, LpFailure, MilpBudgetExhausted
from .mdp import OccupancyMeasure, OccupancyPolytope

FEAS_TOL = 1e-7
BOUND_TOL = 1e-9
NODE_LIMIT = 10**6      # HiGHS branch-and-cut nodes before MilpBudgetExhausted
MAX_BINARIES = 4096


@dataclass(frozen=True, eq=False)
class MilpProgram:
    """Maximize ``weights @ z`` over ``d`` in the polytope and binary ``z``
    subject to the block ``rows = (a, b)``: ``a @ [d ; z] <= b`` row by row.

    The block follows :meth:`~polyagg.mdp.OccupancyPolytope.program`'s
    convention with the binaries as its extra columns, and its rows are the
    model: the rules' level rows ``sum_k step_{i,k} z_{i,k} <= <R_i, d>``
    tie each agent's binaries to its return, with no big-M constant because
    normalized returns are nonnegative.
    """

    base: OccupancyPolytope
    weights: np.ndarray                   # (nz,)
    rows: tuple[np.ndarray, np.ndarray]   # (rows, dim + nz) and (rows,)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if weights.size > MAX_BINARIES:
            raise ValueError(f"binary count exceeds the cap of {MAX_BINARIES}")
        a, b = self.rows
        a = np.asarray(a, dtype=float).reshape(-1, self.base.dim + weights.size)
        b = np.asarray(b, dtype=float).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise ValueError("rows need one bound per row")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", (a, b))


@dataclass(frozen=True, eq=False)
class MilpResult:
    """An optimal binary assignment of a :class:`MilpProgram`, its score
    ``weights @ z`` and the branch-and-cut nodes spent on it."""

    binary_assignment: tuple[int, ...]
    objective_value: float
    nodes: int = 0


def solve_lp(poly: OccupancyPolytope, rows, coeffs) -> OccupancyMeasure:
    """The point maximizing ``coeffs @ d`` over the polytope intersected with
    the halfspaces ``a @ d <= b`` of the block ``rows = (a, b)`` (None for
    the polytope alone), solved cold.  Raises :class:`InfeasibleBounds`
    when they meet nowhere."""
    c = np.asarray(coeffs, dtype=float).reshape(-1)
    if c.shape[0] != poly.dim:
        raise ValueError("objective length must match the polytope dimension")
    res = _solver.lp(-c, *poly.program(rows))
    if res.status == _solver.INFEASIBLE:
        raise InfeasibleBounds("no policy meets all return lower bounds")
    return _measure_from_vector(res.x, poly)


def _measure_from_vector(x: np.ndarray, poly: OccupancyPolytope) -> OccupancyMeasure:
    """Wrap an LP point as an occupancy table, clamping solver slack.

    HiGHS keeps primal feasibility to about 1e-7, so entries may dip that far
    below zero; anything worse means a genuinely broken solve.  Clamping many
    such entries adds up to more mass than the unit-mass tolerance allows, so
    the clamped point is rescaled to unit mass.  A point off unit mass by more
    than ``FEAS_TOL`` before clamping is no occupancy measure: a polytope
    without the unit-mass row raises :class:`ValueError` rather than have its
    optimum rescaled to another point.
    """
    x = np.asarray(x, dtype=float)
    if float(x.min(initial=0.0)) < -FEAS_TOL:
        raise LpFailure("LP point violates nonnegativity beyond solver tolerance")
    if abs(x.sum() - 1.0) > FEAS_TOL:
        raise ValueError(f"LP point has mass {x.sum():.9g}, not 1: "
                         "the polytope is not an occupancy polytope")
    x = np.clip(x, 0.0, None)
    shape = poly.table_shape or (1, poly.dim)
    return OccupancyMeasure(table=(x / x.sum()).reshape(shape))


def _floors(r: np.ndarray, bounds) -> np.ndarray:
    """Per-agent return floors as a vector; -inf is no floor and +inf one no
    point meets.  Raises :class:`ValueError` on a wrong length or a NaN."""
    b = np.asarray(bounds, dtype=float).reshape(-1)
    if r.shape[0] != b.shape[0]:
        raise ValueError("one bound per reward vector required")
    if np.isnan(b).any():
        raise ValueError("return lower bounds must not be NaN")
    return b


# --- the warm welfare model ---------------------------------------------------
#
# Over [d ; t] for a reward matrix R of n agents: the polytope's rows, one
# return row <R_i, d> >= lb_i per agent, then one floor row <R_i, d> >= t per
# agent (leximin's floor t), all ``a @ [d ; t] <= b`` rows of
# ``OccupancyPolytope.program``'s block.  The floor rows let leximin's rounds
# change only bounds.  The home solve leaves every return and floor row free
# and fixes t at 0.


def _rewards(poly: OccupancyPolytope, reward_vectors) -> np.ndarray:
    r = np.atleast_2d(np.asarray(reward_vectors, dtype=float))
    if r.shape[1] != poly.dim:
        raise ValueError("reward vectors must match the polytope dimension")
    return r


def _welfare_model(poly: OccupancyPolytope, r: np.ndarray) -> _solver.Warm:
    """The polytope's warm welfare model of ``r``, made (one home solve) on
    first use and kept in ``poly.warm_models``."""
    key = r.tobytes()
    model = poly.warm_models.get(key)
    if model is None:
        n = r.shape[0]
        block = (np.block([[-r, np.zeros((n, 1))], [-r, np.ones((n, 1))]]),
                 np.full(2 * n, np.inf))
        a_ub, b_ub, a_eq, b_eq, bounds = poly.program(block, 1)
        bounds[-1] = 0.0
        model = _solver.Warm(_welfare_cost(r), a_ub, b_ub, a_eq, b_eq, bounds)
        poly.warm_models[key] = model
    return model


def _welfare_cost(r: np.ndarray) -> np.ndarray:
    return np.append(-r.sum(axis=0), 0.0)


def _warm_solve(poly, r, floors, cost, floored=()) -> _solver.Result:
    """Minimize ``cost @ [d ; t]`` over the polytope with <R_i, d> >= floors[i]
    for every agent and <R_i, d> >= t for the agents in ``floored``; t is
    free when some agent is floored and fixed at 0 otherwise."""
    n = r.shape[0]
    floor_rows = np.full(n, np.inf)
    floor_rows[list(floored)] = 0.0
    bounds = np.tile([0.0, np.inf], (poly.dim + 1, 1))
    bounds[-1] = (-np.inf, np.inf) if len(floored) else 0.0
    return _welfare_model(poly, r).solve(
        cost, np.concatenate([poly.b_ub, -floors, floor_rows]), bounds)


def home_point(poly: OccupancyPolytope, reward_vectors) -> np.ndarray:
    """The welfare optimum ``max sum_i <R_i, d>`` over the polytope: the
    point of the home solve every warm solve of ``reward_vectors`` starts
    from (the solve runs here if it has not yet)."""
    return _welfare_model(poly, _rewards(poly, reward_vectors)).home.x[:poly.dim].copy()


def pareto_complete(poly: OccupancyPolytope, lower_bounds, reward_vectors) -> OccupancyMeasure:
    """Welfare-maximizing point subject to per-agent return lower bounds.

    Maximizes ``sum_i <R_i, d>`` over ``{d in poly : <R_i, d> >= lb_i}``; the
    result is Pareto optimal among the feasible points because any dominating
    point would also satisfy the bounds and improve the welfare objective.
    Raises :class:`InfeasibleBounds` when no point meets the bounds.
    """
    r = _rewards(poly, reward_vectors)
    res = _warm_solve(poly, r, _floors(r, lower_bounds), _welfare_cost(r))
    if res.status == _solver.INFEASIBLE:
        raise InfeasibleBounds("no policy meets all return lower bounds")
    return _measure_from_vector(res.x[:poly.dim], poly)


def leximin(poly: OccupancyPolytope, reward_vectors) -> OccupancyMeasure:
    """Iterative leximin over agent returns.

    Repeatedly maximizes a floor ``t`` with ``<R_i, d> >= t`` for all unfixed
    agents and pins every agent whose row has a dual value above
    ``FEAS_TOL``, until all agents are pinned.  By complementary slackness
    such an agent returns exactly ``t*`` at every optimal point, so pinning
    it loses nothing.  The dual constraint of ``t`` makes the unfixed rows'
    duals sum to 1, so the largest is at least 1/n and every round pins an
    agent.  Returns the welfare-maximizing point of the final region.

    Pins sit ``FEAS_TOL`` below ``t*``: the floor LP reports ``t*`` only to
    solver tolerance, and pins at ``t*`` itself can leave the welfare
    completion infeasible.
    """
    r = _rewards(poly, reward_vectors)
    n_agents = r.shape[0]
    fixed: dict[int, float] = {}
    while len(fixed) < n_agents:
        unfixed = [i for i in range(n_agents) if i not in fixed]
        t_star, duals = _max_floor(poly, r, unfixed, fixed)
        newly = [i for i, y in zip(unfixed, duals) if y > FEAS_TOL]
        if not newly:
            raise LpFailure("leximin floor LP has no positive dual to pin an agent")
        for i in newly:
            fixed[i] = t_star - FEAS_TOL
    return pareto_complete(poly, [fixed[i] for i in range(n_agents)], r)


def _max_floor(poly, r, unfixed, fixed) -> tuple[float, np.ndarray]:
    """max t  s.t.  J_i >= t (unfixed),  J_j >= v_j (fixed).

    Returns ``t*`` and the duals (>= 0) of the unfixed agents' floor rows.
    """
    n = r.shape[0]
    floors = np.full(n, -np.inf)
    floors[list(fixed)] = list(fixed.values())
    cost = np.zeros(poly.dim + 1)
    cost[-1] = -1.0
    res = _warm_solve(poly, r, floors, cost, unfixed)
    if res.status != _solver.OPTIMAL:
        raise LpFailure("leximin floor LP did not solve")
    first_floor_row = poly.a_ub.shape[0] + n
    return float(-res.fun), -res.duals[first_floor_row + np.asarray(unfixed)]


# --- indicator MILPs ---------------------------------------------------------


def _relaxation_system(p: MilpProgram):
    """The MILP's LP relaxation ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` over
    ``[d ; z]``: the polytope's ``program`` with the block and ``0 <= z <= 1``."""
    a_ub, b_ub, a_eq, b_eq, bounds = p.base.program(p.rows, p.weights.size)
    bounds[p.base.dim:] = (0.0, 1.0)
    c = np.concatenate([np.zeros(p.base.dim), -p.weights])
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def milp_solve(p: MilpProgram, start=None) -> MilpResult:
    """Globally optimal binaries by HiGHS branch-and-cut.

    One MILP over ``[d ; z]`` with z binary: the polytope's ``program``
    with ``p.rows`` as its block and the binaries as its extra columns.
    ``start``, a point ``[d ; z]`` of the program, becomes HiGHS's first
    incumbent; it must meet every row and bound to within ``FEAS_TOL`` with
    z exactly binary, else :class:`ValueError` before HiGHS runs.
    Returns the rounded assignment, its exact score ``weights @ z`` (as
    :func:`enumerate_milp` scores it) and the node count, but no point: the
    MILP's d is one arbitrary point of the assignment's region, so a caller
    completes the assignment itself.  Deterministic: HiGHS runs with fixed
    options.  Raises :class:`MilpBudgetExhausted` when HiGHS reaches
    ``NODE_LIMIT`` nodes and :class:`InfeasibleBounds` when no assignment
    fits the rows.
    """
    nd, nz = p.base.dim, p.weights.size
    if start is not None:
        start = np.asarray(start, dtype=float).reshape(-1)
        _check_start(p, start)
    res = _solver.milp(*_relaxation_system(p),
                       integrality=np.concatenate([np.zeros(nd), np.ones(nz)]),
                       node_limit=NODE_LIMIT, start=start)
    if res.status == _solver.ITERATION_LIMIT:
        raise MilpBudgetExhausted(f"MILP reached the node limit of {NODE_LIMIT}")
    if res.status == _solver.INFEASIBLE:
        raise InfeasibleBounds("no binary assignment meets the MILP's rows")
    z = np.round(res.x[nd:])
    return MilpResult(binary_assignment=tuple(int(v) for v in z),
                      objective_value=float(p.weights @ z),
                      nodes=max(int(res.nodes), 1))  # 0 if presolve solves it


def _check_start(p: MilpProgram, start: np.ndarray) -> None:
    nd = p.base.dim
    if start.shape != (nd + p.weights.size,) or not np.isfinite(start).all():
        raise ValueError("a MILP start needs one finite value per variable")
    a, b = p.rows
    z = start[nd:]
    if (p.base.max_violation(start[:nd]) > FEAS_TOL or np.any((z != 0.0) & (z != 1.0))
            or np.any(a @ start - b > FEAS_TOL)):
        raise ValueError("MILP start violates the program's rows or bounds")


def enumerate_milp(p: MilpProgram) -> MilpResult:
    """Exhaustive oracle: check every binary assignment that would beat the
    best found so far with one feasibility LP, and score the best as
    :func:`milp_solve` does (no point).  Raises :class:`InfeasibleBounds`
    when no assignment fits.

    With z fixed the block is ``(a[:, :dim], b - a[:, dim:] @ z)`` over d
    alone, so the LPs share one warm model whose home is the polytope with
    the block's rows free; each mask changes only their upper bounds.
    Independent of the HiGHS MILP path of :func:`milp_solve`; intended for
    cross-checking on programs with few binaries.
    """
    nz, nd = p.weights.size, p.base.dim
    if nz > 20:
        raise ValueError("enumeration oracle limited to 20 binaries")
    a, b = p.rows
    zero = np.zeros(nd)
    a_ub, b_ub, a_eq, b_eq, bounds = p.base.program((a[:, :nd], np.full(b.size, np.inf)))
    model = _solver.Warm(zero, a_ub, b_ub, a_eq, b_eq, bounds)
    best = None
    for mask in range(2**nz):
        z = np.array([(mask >> j) & 1 for j in range(nz)], dtype=float)
        value = float(p.weights @ z)
        if best is not None and value <= best.objective_value + BOUND_TOL:
            continue   # cannot replace the best: no LP
        res = model.solve(zero, np.concatenate([p.base.b_ub, b - a[:, nd:] @ z]), bounds)
        if res.status == _solver.OPTIMAL:
            best = MilpResult(binary_assignment=tuple(int(v) for v in z), objective_value=value)
    if best is None:
        raise InfeasibleBounds("no binary assignment meets the MILP's rows")
    return best
