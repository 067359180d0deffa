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
    model: approval's ``tau_i z_i <= <R_i, d>`` ties each binary to its
    return row, with no big-M constant because normalized returns are
    nonnegative.
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
    the polytope alone).  Raises :class:`InfeasibleBounds` when they meet
    nowhere."""
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
    the clamped point is rescaled to unit mass.
    """
    x = np.asarray(x, dtype=float)
    if float(x.min(initial=0.0)) < -FEAS_TOL:
        raise LpFailure("LP point violates nonnegativity beyond solver tolerance")
    x = np.clip(x, 0.0, None)
    shape = poly.table_shape or (1, poly.dim)
    return OccupancyMeasure(table=(x / x.sum()).reshape(shape))


def feasible(poly: OccupancyPolytope, rows) -> bool:
    """Whether the polytope meets the halfspaces of the block ``rows = (a, b)``
    (None for the polytope alone)."""
    return _solver.lp(np.zeros(poly.dim), *poly.program(rows)).status == _solver.OPTIMAL


def lower_bound_rows(reward_vectors, bounds):
    """The block ``(-r, -b)`` encoding <R_i, d> >= b_i."""
    r = np.asarray(reward_vectors, dtype=float)
    b = np.asarray(bounds, dtype=float).reshape(-1)
    if r.shape[0] != b.shape[0]:
        raise ValueError("one bound per reward vector required")
    return -r, -b


def pareto_complete(poly: OccupancyPolytope, lower_bounds, reward_vectors) -> OccupancyMeasure:
    """Welfare-maximizing point subject to per-agent return lower bounds.

    Maximizes ``sum_i <R_i, d>`` over ``{d in poly : <R_i, d> >= lb_i}``; the
    result is Pareto optimal among the feasible points because any dominating
    point would also satisfy the bounds and improve the welfare objective.
    """
    r = np.atleast_2d(np.asarray(reward_vectors, dtype=float))
    return solve_lp(poly, lower_bound_rows(r, lower_bounds), r.sum(axis=0))


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
    r = np.atleast_2d(np.asarray(reward_vectors, dtype=float))
    n_agents, dim = r.shape
    if dim != poly.dim:
        raise ValueError("reward vectors must match the polytope dimension")
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

    Returns ``t*`` and the duals (>= 0) of the unfixed agents' rows.
    """
    pinned = sorted(fixed)
    rows = (np.vstack([np.hstack([-r[unfixed], np.ones((len(unfixed), 1))]),
                       np.hstack([-r[pinned], np.zeros((len(pinned), 1))])]),
            np.concatenate([np.zeros(len(unfixed)), [-fixed[j] for j in pinned]]))
    c = np.zeros(poly.dim + 1)
    c[-1] = -1.0
    res = _solver.lp(c, *poly.program(rows, 1))
    if res.status != _solver.OPTIMAL:
        raise LpFailure("leximin floor LP did not solve")
    n_base = poly.a_ub.shape[0]
    duals = -res.ineqlin.marginals[n_base : n_base + len(unfixed)]
    return float(-res.fun), duals


# --- indicator MILPs ---------------------------------------------------------


def _relaxation_system(p: MilpProgram):
    """The MILP's LP relaxation ``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` over
    ``[d ; z]``: the polytope's ``program`` with the block and ``0 <= z <= 1``."""
    a_ub, b_ub, a_eq, b_eq, bounds = p.base.program(p.rows, p.weights.size)
    bounds[p.base.dim:] = (0.0, 1.0)
    c = np.concatenate([np.zeros(p.base.dim), -p.weights])
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def milp_solve(p: MilpProgram) -> MilpResult:
    """Globally optimal binaries by HiGHS branch-and-cut.

    One MILP over ``[d ; z]`` with z binary: the polytope's ``program``
    with ``p.rows`` as its block and the binaries as its extra columns.
    Returns the rounded assignment, its exact score ``weights @ z`` (as
    :func:`enumerate_milp` scores it) and the node count, but no point: the
    MILP's d is one arbitrary point of the assignment's region, so a caller
    completes the assignment itself.  Deterministic: HiGHS runs with fixed
    options.  Raises :class:`MilpBudgetExhausted` when HiGHS reaches
    ``NODE_LIMIT`` nodes and :class:`InfeasibleBounds` when no assignment
    fits the rows.
    """
    nd, nz = p.base.dim, p.weights.size
    res = _solver.milp(*_relaxation_system(p),
                       integrality=np.concatenate([np.zeros(nd), np.ones(nz)]),
                       node_limit=NODE_LIMIT)
    if res.status == _solver.ITERATION_LIMIT:
        raise MilpBudgetExhausted(f"MILP reached the node limit of {NODE_LIMIT}")
    if res.status == _solver.INFEASIBLE:
        raise InfeasibleBounds("no binary assignment meets the MILP's rows")
    z = np.round(res.x[nd:])
    return MilpResult(binary_assignment=tuple(int(v) for v in z),
                      objective_value=float(p.weights @ z),
                      nodes=max(int(res.mip_node_count), 1))  # 0 if presolve solves it


def enumerate_milp(p: MilpProgram) -> MilpResult:
    """Exhaustive oracle: check every binary assignment that would beat the
    best found so far with one feasibility LP, and score the best as
    :func:`milp_solve` does (no point).  With z fixed the block is
    ``(a[:, :dim], b - a[:, dim:] @ z)`` over d alone.  Raises
    :class:`InfeasibleBounds` when no assignment fits.

    Independent of the HiGHS MILP path of :func:`milp_solve`; intended for
    cross-checking on programs with few binaries.
    """
    nz, nd = p.weights.size, p.base.dim
    if nz > 20:
        raise ValueError("enumeration oracle limited to 20 binaries")
    a, b = p.rows
    best = None
    for mask in range(2**nz):
        z = np.array([(mask >> j) & 1 for j in range(nz)], dtype=float)
        value = float(p.weights @ z)
        if best is not None and value <= best.objective_value + BOUND_TOL:
            continue   # cannot replace the best: no LP
        if feasible(p.base, (a[:, :nd], b - a[:, nd:] @ z)):
            best = MilpResult(binary_assignment=tuple(int(v) for v in z), objective_value=value)
    if best is None:
        raise InfeasibleBounds("no binary assignment meets the MILP's rows")
    return best
