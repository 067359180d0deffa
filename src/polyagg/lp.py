"""Linear programming over the occupancy polytope.

Provides plain LP solves with extra halfspace rows, utilitarian (Pareto)
completion, iterative leximin, and mixed binary programs whose binaries gate
linear rows over the occupancy variables, solved by HiGHS branch-and-cut
(with an exhaustive enumeration oracle for cross-checks).

A halfspace row is a pair ``(coeffs, bound)`` meaning ``coeffs @ d <= bound``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _solver
from .errors import InfeasibleBounds, LpFailure
from .mdp import OccupancyMeasure, OccupancyPolytope

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

FEAS_TOL = 1e-7
BOUND_TOL = 1e-9
NODE_LIMIT = 10**6      # HiGHS branch-and-cut nodes before ITERATION_LIMIT
MAX_BINARIES = 4096


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True, eq=False)
class LinearObjective:
    """Objective <coeffs, d> with an explicit optimization sense."""

    coeffs: np.ndarray
    sense: str = MAXIMIZE

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True, eq=False)
class BinaryVar:
    """A binary with an activation row: on means ``row_coeffs @ d >= row_lb``.

    The off state must be vacuous (``row_coeffs @ d >= 0`` has to hold
    everywhere), which is the case for normalized reward rows; this keeps
    the encoding linear without big-M constants.
    """

    weight: float
    row_coeffs: np.ndarray
    row_lb: float

    def __post_init__(self):
        object.__setattr__(
            self, "row_coeffs", np.asarray(self.row_coeffs, dtype=float).reshape(-1)
        )


@dataclass(frozen=True, eq=False)
class MilpProgram:
    """Maximize ``d_coeffs @ d + sum_j weight_j z_j`` over the polytope.

    ``binary_rows`` (``coeffs @ z <= ub``) and ``mixed_rows``
    (``d_coeffs @ d + z_coeffs @ z <= ub``) are optional tightening
    inequalities; they must be valid cuts - satisfied by every intended
    integer solution - never part of the model's meaning.
    """

    base: OccupancyPolytope
    binaries: tuple[BinaryVar, ...]
    d_coeffs: np.ndarray | None = None
    binary_rows: tuple[tuple[np.ndarray, float], ...] = ()
    mixed_rows: tuple[tuple[np.ndarray, np.ndarray, float], ...] = ()

    def __post_init__(self):
        if len(self.binaries) > MAX_BINARIES:
            raise ValueError(f"binary count exceeds the cap of {MAX_BINARIES}")
        object.__setattr__(self, "binaries", tuple(self.binaries))
        if self.d_coeffs is not None:
            c = np.asarray(self.d_coeffs, dtype=float).reshape(-1)
            if c.shape[0] != self.base.dim:
                raise ValueError("d_coeffs length must match the polytope dimension")
            object.__setattr__(self, "d_coeffs", c)
        rows = tuple(
            (np.asarray(c, dtype=float).reshape(-1), float(ub))
            for c, ub in self.binary_rows
        )
        for c, _ in rows:
            if c.shape[0] != len(self.binaries):
                raise ValueError("binary_rows must span exactly the binary variables")
        object.__setattr__(self, "binary_rows", rows)
        mixed = tuple(
            (np.asarray(dc, dtype=float).reshape(-1),
             np.asarray(zc, dtype=float).reshape(-1), float(ub))
            for dc, zc, ub in self.mixed_rows
        )
        for dc, zc, _ in mixed:
            if dc.shape[0] != self.base.dim or zc.shape[0] != len(self.binaries):
                raise ValueError("mixed_rows must span d then the binaries")
        object.__setattr__(self, "mixed_rows", mixed)


@dataclass(frozen=True, eq=False)
class Solution:
    status: SolveStatus
    point: OccupancyMeasure | None = None
    objective_value: float = float("nan")
    binary_assignment: tuple[int, ...] | None = None
    nodes: int = 1


def _stack_rows(poly: OccupancyPolytope, extra_rows):
    rows = [poly.a_ub] if poly.a_ub.shape[0] else []
    rhs = [poly.b_ub] if poly.b_ub.shape[0] else []
    for coeffs, bound in extra_rows:
        rows.append(np.asarray(coeffs, dtype=float).reshape(1, -1))
        rhs.append(np.asarray([bound], dtype=float))
    a_ub = np.vstack(rows) if rows else np.zeros((0, poly.dim))
    b_ub = np.concatenate(rhs) if rhs else np.zeros(0)
    return a_ub, b_ub


def solve_lp(poly: OccupancyPolytope, extra_rows, obj: LinearObjective) -> Solution:
    """Optimize a linear objective over the polytope plus extra halfspaces."""
    if obj.coeffs.shape[0] != poly.dim:
        raise ValueError("objective length must match the polytope dimension")
    a_ub, b_ub = _stack_rows(poly, extra_rows)
    sign = -1.0 if obj.sense == MAXIMIZE else 1.0
    res = _solver.lp(
        sign * obj.coeffs, a_ub=a_ub, b_ub=b_ub, a_eq=poly.a_eq, b_eq=poly.b_eq
    )
    if res.status == _solver.INFEASIBLE:
        return Solution(status=SolveStatus.INFEASIBLE)
    if res.status == _solver.ITERATION_LIMIT:
        return Solution(status=SolveStatus.ITERATION_LIMIT)
    value = float(sign * res.fun)
    point = _measure_from_vector(res.x, poly)
    return Solution(status=SolveStatus.OPTIMAL, point=point, objective_value=value)


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


def feasible(poly: OccupancyPolytope, extra_rows) -> bool:
    """Feasibility probe for the polytope plus extra halfspaces."""
    a_ub, b_ub = _stack_rows(poly, extra_rows)
    res = _solver.lp(
        np.zeros(poly.dim), a_ub=a_ub, b_ub=b_ub, a_eq=poly.a_eq, b_eq=poly.b_eq
    )
    return res.status != _solver.INFEASIBLE


def lower_bound_rows(reward_vectors, bounds):
    """Halfspace rows encoding <R_i, d> >= b_i."""
    r = np.asarray(reward_vectors, dtype=float)
    b = np.asarray(bounds, dtype=float).reshape(-1)
    if r.shape[0] != b.shape[0]:
        raise ValueError("one bound per reward vector required")
    return [(-r[i], -b[i]) for i in range(r.shape[0])]


def pareto_complete(poly: OccupancyPolytope, lower_bounds, reward_vectors) -> OccupancyMeasure:
    """Welfare-maximizing point subject to per-agent return lower bounds.

    Maximizes ``sum_i <R_i, d>`` over ``{d in poly : <R_i, d> >= lb_i}``; the
    result is Pareto optimal among the feasible points because any dominating
    point would also satisfy the bounds and improve the welfare objective.
    """
    r = np.atleast_2d(np.asarray(reward_vectors, dtype=float))
    rows = lower_bound_rows(r, lower_bounds)
    sol = solve_lp(poly, rows, LinearObjective(r.sum(axis=0), MAXIMIZE))
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasibleBounds("no policy meets all return lower bounds")
    if sol.status != SolveStatus.OPTIMAL:
        raise LpFailure("welfare completion did not reach optimality")
    return sol.point


def leximin(poly: OccupancyPolytope, reward_vectors) -> OccupancyMeasure:
    """Iterative leximin over agent returns.

    Repeatedly maximizes a floor ``t`` with ``<R_i, d> >= t`` for all unfixed
    agents and pins every agent whose row has a dual value above
    ``FEAS_TOL``, until all agents are pinned.  By complementary slackness
    such an agent returns exactly ``t*`` at every optimal point, so pinning
    it loses nothing.  The dual constraint of ``t`` makes the unfixed rows'
    duals sum to 1, so the largest is at least 1/n and every round pins an
    agent.  Returns the welfare-maximizing point of the final region.
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
            fixed[i] = t_star
    return pareto_complete(poly, [fixed[i] for i in range(n_agents)], r)


def _max_floor(poly, r, unfixed, fixed) -> tuple[float, np.ndarray]:
    """max t  s.t.  J_i >= t (unfixed),  J_j >= v_j (fixed).

    Returns ``t*`` and the duals (>= 0) of the unfixed agents' rows.
    """
    dim = poly.dim
    n_base = poly.a_ub.shape[0]
    a_ub = np.zeros((n_base + len(unfixed) + len(fixed), dim + 1))
    b_ub = np.zeros(a_ub.shape[0])
    a_ub[:n_base, :dim] = poly.a_ub
    b_ub[:n_base] = poly.b_ub
    k = n_base
    for i in unfixed:
        a_ub[k, :dim] = -r[i]
        a_ub[k, dim] = 1.0
        k += 1
    for j, v in sorted(fixed.items()):
        a_ub[k, :dim] = -r[j]
        b_ub[k] = -v
        k += 1
    a_eq = np.hstack([poly.a_eq, np.zeros((poly.a_eq.shape[0], 1))])
    c = np.zeros(dim + 1)
    c[dim] = -1.0
    res = _solver.lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=poly.b_eq)
    if res.status != _solver.OPTIMAL:
        raise LpFailure("leximin floor LP did not solve")
    duals = -res.ineqlin.marginals[n_base : n_base + len(unfixed)]
    return float(-res.fun), duals


# --- indicator MILPs ---------------------------------------------------------


def _relaxation_system(p: MilpProgram):
    """Build the shared LP relaxation matrices over variables [d ; z]."""
    poly = p.base
    nd, nz = poly.dim, len(p.binaries)
    width = nd + nz
    rows = [np.hstack([poly.a_ub, np.zeros((poly.a_ub.shape[0], nz))])]
    rhs = [poly.b_ub]
    act = np.zeros((nz, width))
    for j, b in enumerate(p.binaries):
        act[j, :nd] = -b.row_coeffs
        act[j, nd + j] = b.row_lb
    rows.append(act)
    rhs.append(np.zeros(nz))
    if p.binary_rows:
        brows = np.zeros((len(p.binary_rows), width))
        brhs = np.zeros(len(p.binary_rows))
        for k, (coeffs, ub) in enumerate(p.binary_rows):
            brows[k, nd:] = coeffs
            brhs[k] = ub
        rows.append(brows)
        rhs.append(brhs)
    if p.mixed_rows:
        mrows = np.zeros((len(p.mixed_rows), width))
        mrhs = np.zeros(len(p.mixed_rows))
        for k, (dc, zc, ub) in enumerate(p.mixed_rows):
            mrows[k, :nd] = dc
            mrows[k, nd:] = zc
            mrhs[k] = ub
        rows.append(mrows)
        rhs.append(mrhs)
    a_ub = np.vstack(rows)
    b_ub = np.concatenate(rhs)
    a_eq = np.hstack([poly.a_eq, np.zeros((poly.a_eq.shape[0], nz))])
    c = np.zeros(width)
    if p.d_coeffs is not None:
        c[:nd] = -p.d_coeffs
    c[nd:] = -np.asarray([b.weight for b in p.binaries], dtype=float)
    return c, a_ub, b_ub, a_eq, poly.b_eq


def milp_solve(p: MilpProgram) -> Solution:
    """Globally optimal solve by HiGHS branch-and-cut.

    One MILP over ``[d ; z]`` with z binary, then one LP with the binaries
    pinned to the rounded assignment; the point and objective come from that
    LP, so activation rows hold to LP tolerance rather than to the MILP's
    integrality tolerance.  Deterministic: HiGHS runs with fixed options.
    Reports ITERATION_LIMIT when HiGHS reaches ``NODE_LIMIT`` nodes.
    """
    nd, nz = p.base.dim, len(p.binaries)
    c, a_ub, b_ub, a_eq, b_eq = _relaxation_system(p)
    res = _solver.milp(
        c, a_ub, b_ub, a_eq, b_eq,
        lower=np.concatenate([np.full(nd, -np.inf), np.zeros(nz)]),
        upper=np.concatenate([np.full(nd, np.inf), np.ones(nz)]),
        integrality=np.concatenate([np.zeros(nd), np.ones(nz)]),
        node_limit=NODE_LIMIT,
    )
    nodes = int(res.mip_node_count or 1)  # None or 0 when presolve alone solves it
    if res.status == _solver.INFEASIBLE:
        return Solution(status=SolveStatus.INFEASIBLE, nodes=nodes)
    if res.status == _solver.ITERATION_LIMIT:
        return Solution(status=SolveStatus.ITERATION_LIMIT, nodes=nodes)
    z = np.round(res.x[nd:])
    bounds = [(None, None)] * nd + [(v, v) for v in z]
    fixed = _solver.lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
    if fixed.status != _solver.OPTIMAL:
        raise LpFailure("MILP assignment is infeasible once its binaries are pinned")
    return Solution(
        status=SolveStatus.OPTIMAL,
        point=_measure_from_vector(fixed.x[:nd], p.base),
        objective_value=float(-fixed.fun),
        binary_assignment=tuple(int(v) for v in z),
        nodes=nodes,
    )


def enumerate_milp(p: MilpProgram) -> Solution:
    """Exhaustive oracle: check every binary assignment with one LP each.

    Independent of the HiGHS MILP path of :func:`milp_solve`; intended for
    cross-checking on programs with few binaries.
    """
    nz = len(p.binaries)
    if nz > 20:
        raise ValueError("enumeration oracle limited to 20 binaries")
    weights = np.asarray([b.weight for b in p.binaries], dtype=float)
    best = None
    for mask in range(2**nz):
        z = np.array([(mask >> j) & 1 for j in range(nz)], dtype=float)
        rows = [
            (-p.binaries[j].row_coeffs, -p.binaries[j].row_lb)
            for j in range(nz)
            if z[j] > 0.5
        ]
        for dc, zc, ub in p.mixed_rows:
            rows.append((dc, ub - float(zc @ z)))
        ok = True
        for coeffs, ub in p.binary_rows:
            if float(coeffs @ z) > ub + 1e-9:
                ok = False
                break
        if not ok:
            continue
        obj = LinearObjective(
            p.d_coeffs if p.d_coeffs is not None else np.zeros(p.base.dim), MAXIMIZE
        )
        sol = solve_lp(p.base, rows, obj)
        if sol.status != SolveStatus.OPTIMAL:
            continue
        value = sol.objective_value + float(weights @ z)
        if best is None or value > best.objective_value + BOUND_TOL:
            best = Solution(
                status=SolveStatus.OPTIMAL,
                point=sol.point,
                objective_value=value,
                binary_assignment=tuple(int(v) for v in z),
            )
    if best is None:
        return Solution(status=SolveStatus.INFEASIBLE)
    return best


def dump_lp(poly: OccupancyPolytope, extra_rows, obj: LinearObjective) -> str:
    """Plain-text dump of an LP for external cross-checks.

    Format: one header line ``lp <sense> <dim>``, one ``obj`` line with the
    coefficients, then ``le``/``eq`` lines with ``coeffs... : bound``.
    """
    a_ub, b_ub = _stack_rows(poly, extra_rows)
    lines = [f"lp {obj.sense} {poly.dim}"]
    lines.append("obj " + " ".join(repr(v) for v in obj.coeffs))
    for row, bound in zip(a_ub, b_ub):
        lines.append("le " + " ".join(repr(v) for v in row) + " : " + repr(float(bound)))
    for row, bound in zip(poly.a_eq, poly.b_eq):
        lines.append("eq " + " ".join(repr(v) for v in row) + " : " + repr(float(bound)))
    return "\n".join(lines) + "\n"
