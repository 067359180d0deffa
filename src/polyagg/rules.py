"""Aggregation rules over the occupancy polytope.

Every rule expects a model whose rewards have already been normalized (each
agent's return spans [0, 1] over the polytope), takes the shared volumetric
estimates (a sample cloud or per-agent return CDFs), and returns a
:class:`RuleResult` whose occupancy measure has been completed to a
welfare-maximizing, hence Pareto-optimal, point of the rule's feasible set.
"""

from __future__ import annotations

import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _solver, lp, volume
from .errors import ConcaveRegionEmpty, InfeasibleBounds, LpFailure
from .mdp import Momdp, OccupancyMeasure, OccupancyPolytope, Policy, occupancy_to_policy
from .volume import ReturnCdf, SampleCloud

PLURALITY_SLACK = 1e-6   # alpha = 1 threshold is 1 minus this, absorbing LP slack
COMPLETION_RELAX = 1e-9  # loosen achieved-return bounds by this much
CONCAVE_KNOTS = 20       # points of F_i on [mode_i, 1] under borda_concave's envelope


@dataclass(frozen=True, eq=False)
class Diagnostics:
    lp_solves: int
    samples_used: int
    wall_time: float


@dataclass(frozen=True, eq=False)
class RuleResult:
    occupancy: OccupancyMeasure
    policy: Policy
    returns: np.ndarray
    certificate: object
    diagnostics: Diagnostics

    def __post_init__(self):
        r = np.array(self.returns, dtype=float, copy=True)
        r.flags.writeable = False
        object.__setattr__(self, "returns", r)


@dataclass(frozen=True, eq=False)
class VetoCertificate:
    epsilon: float
    delta: float               # per-agent cut budget 1/n - eps/(n+1)
    order: tuple[int, ...]
    thresholds: tuple[float, ...]
    cut_fractions: tuple[float, ...]  # measured against the original polytope
    region_samples: tuple[int, ...]   # in-region sample count at each turn, in order


@dataclass(frozen=True, eq=False)
class QuantileCertificate:
    q_star: float  # every agent gets >= F_i^{-1}(q_star), their q_star-quantile
    thresholds: tuple[float, ...]
    infeasible_above: float | None  # first grid level found infeasible, if any


@dataclass(frozen=True, eq=False)
class ApprovalCertificate:
    alpha: float
    approving_agents: tuple[int, ...]
    thresholds: tuple[float, ...]
    score: int


@dataclass(frozen=True, eq=False)
class BordaCertificate:
    epsilon: float
    level_indicators: tuple[tuple[int, ...], ...]  # [agent][level]
    rounded_score: float
    weights: tuple[tuple[float, ...], ...]


@dataclass(frozen=True, eq=False)
class ConcaveBordaCertificate:
    modes: tuple[float, ...]
    envelope_objective: float
    score: float


@dataclass(frozen=True, eq=False)
class WelfareCertificate:
    welfare: float


@dataclass(frozen=True, eq=False)
class LeximinCertificate:
    sorted_returns: tuple[float, ...]


class _Stopwatch:
    def __init__(self, samples_used: int = 0):
        self.t0 = time.perf_counter()
        self.solves0 = _solver.solve_count
        self.samples_used = samples_used

    def diagnostics(self) -> Diagnostics:
        return Diagnostics(
            lp_solves=_solver.solve_count - self.solves0,
            samples_used=self.samples_used,
            wall_time=time.perf_counter() - self.t0,
        )


def _finish(m: Momdp, d: OccupancyMeasure, certificate, watch: _Stopwatch) -> RuleResult:
    returns = m.reward_vectors() @ d.flat
    return RuleResult(
        occupancy=d,
        policy=occupancy_to_policy(d),
        returns=returns,
        certificate=certificate,
        diagnostics=watch.diagnostics(),
    )


def utilitarian(m: Momdp, poly: OccupancyPolytope) -> RuleResult:
    """Maximize the sum of (normalized) returns with one LP."""
    watch = _Stopwatch()
    r = m.reward_vectors()
    point = lp.pareto_complete(poly, np.zeros(m.num_agents), r)
    welfare = float((r @ point.flat).sum())
    return _finish(m, point, WelfareCertificate(welfare=welfare), watch)


def egalitarian(m: Momdp, poly: OccupancyPolytope) -> RuleResult:
    """Lexicographically maximize the sorted return vector (iterative leximin)."""
    watch = _Stopwatch()
    r = m.reward_vectors()
    point = lp.leximin(poly, r)
    values = tuple(sorted(float(v) for v in r @ point.flat))
    return _finish(m, point, LeximinCertificate(sorted_returns=values), watch)


def veto_core(
    m: Momdp,
    poly: OccupancyPolytope,
    cloud: SampleCloud,
    epsilon: float | None = None,
    order=None,
) -> RuleResult:
    """Sequential proportional veto core.

    Agents take turns (in ``order``, default input order) cutting away the
    delta = 1/n - eps/(n+1) fraction of the *original* polytope's volume
    where their own return is lowest.  Uniform samples of the polytope that
    fall in a region are uniform on that region, so every cut is read off
    the one shared cloud: with N samples, of which N_R are still in the
    region, agent i's threshold v_i is the (c+1)-th smallest in-region return
    for c = min(floor(delta N), N_R - 1), clamped at 0, and the in-region
    samples below it are cut.  The sample attaining v_i stays in the region,
    so the region never empties and no feasibility LP is needed.  The
    returned point is the welfare-maximizing point of the final region
    ``{d : <R_i, d> >= v_i for all i}``.  ``epsilon`` defaults to
    min(0.05, 0.9/n).
    """
    n = m.num_agents
    if epsilon is None:
        epsilon = min(0.05, 0.9 / n)
    if not 0.0 < epsilon < 1.0 / n:
        raise ValueError("epsilon must lie in (0, 1/n)")
    order = tuple(range(n)) if order is None else tuple(int(i) for i in order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the agents")
    watch = _Stopwatch(samples_used=cloud.count)
    delta = 1.0 / n - epsilon / (n + 1)
    rewards = m.reward_vectors()
    budget = int(np.floor(delta * cloud.count))

    inside = np.arange(cloud.count)
    thresholds = np.zeros(n)
    cut_fractions = np.zeros(n)
    region_samples = []
    for i in order:
        region_samples.append(inside.size)
        returns_i = cloud.returns(rewards[i])[inside]
        c = min(budget, inside.size - 1)
        v_i = np.partition(returns_i, c)[c]
        keep = returns_i >= v_i
        thresholds[i] = max(float(v_i), 0.0)
        cut_fractions[i] = (inside.size - int(keep.sum())) / cloud.count
        inside = inside[keep]

    point = lp.pareto_complete(poly, thresholds, rewards)
    cert = VetoCertificate(
        epsilon=epsilon,
        delta=delta,
        order=order,
        thresholds=tuple(float(v) for v in thresholds),
        cut_fractions=tuple(float(c) for c in cut_fractions),
        region_samples=tuple(region_samples),
    )
    return _finish(m, point, cert, watch)


def _real(value):
    """``value``, or :class:`TypeError` unless it is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    return value


def _levels(epsilon: float, top: float) -> int:
    """The number of steps of the grid {0, eps, ..., 1}; :class:`ValueError`
    unless eps lies in (0, top] and 1/eps is whole, so the grid ends at 1."""
    if not 0.0 < _real(epsilon) <= top:
        raise ValueError(f"epsilon must lie in (0, {top:g}]")
    levels = 1.0 / epsilon
    if abs(levels - round(levels)) > 1e-9:
        raise ValueError("1/epsilon must be an integer")
    return int(round(levels))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < _real(alpha) <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


def max_quantile(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf],
    epsilon: float = 0.01,
) -> RuleResult:
    """Largest q such that some outcome meets every agent's q-quantile.

    The outcome d must give <R_i, d> >= F_i^{-1}(q) for every agent i, so each
    agent weakly prefers d to at least a q fraction of the polytope (by
    volume); a larger q is better.

    Bisects q on the fixed grid {0, eps, 2 eps, ..., 1}, so 1/eps must be a
    whole number.  Each probe is the welfare completion at its level; the
    probe at the best feasible level is the outcome (q = 0 is not probed).
    """
    grid = _levels(epsilon, 0.5)
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    rewards = m.reward_vectors()

    def thresholds_at(q: float) -> np.ndarray:
        return np.array([volume.quantile_inverse(cdf, q) for cdf in cdfs])

    def outcome_at(q: float) -> OccupancyMeasure | None:
        try:
            return lp.pareto_complete(poly, thresholds_at(q), rewards)
        except InfeasibleBounds:
            return None

    q_star, infeasible_above = 1.0, None
    point = outcome_at(1.0)
    if point is None:  # q = 0 is always feasible; q = 1 just failed
        lo, hi, infeasible_above = 0, grid, 1.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probe = outcome_at(mid * epsilon)
            if probe is None:
                hi, infeasible_above = mid, mid * epsilon
            else:
                lo, point = mid, probe
        q_star = lo * epsilon
    tau = thresholds_at(q_star)
    if point is None:
        point = lp.pareto_complete(poly, tau, rewards)
    cert = QuantileCertificate(
        q_star=float(q_star),
        thresholds=tuple(float(t) for t in tau),
        infeasible_above=infeasible_above,
    )
    return _finish(m, point, cert, watch)


def _level_program(poly: OccupancyPolytope, rewards, steps, weights, offset=0.0) -> lp.MilpProgram:
    """The level-indicator MILP of approval, plurality and Borda.

    Agent i's K levels are binaries a_{i,k} at column i K + k, weighted by
    ``weights[i, k]``, under the monotone rows a_{i,k+1} <= a_{i,k} and one
    aggregate row ``offset[i] + sum_k steps[i, k] a_{i,k} <= <R_i, d>`` (no
    big-M: normalized returns and offsets are nonnegative).  With the
    monotone rows it implies every active level's own row, even in the LP
    relaxation (:func:`borda_concave`), so an assignment admits exactly the
    points that give each agent its offset plus its active levels' steps.
    """
    n, k = steps.shape
    monotone = np.kron(np.eye(n), np.eye(k - 1, k, 1) - np.eye(k - 1, k))
    rows = np.block([[np.zeros((n * (k - 1), poly.dim)), monotone],
                     [-rewards, np.kron(np.eye(n), np.ones((1, k))) * steps.ravel()]])
    return lp.MilpProgram(base=poly, weights=weights.ravel(),
                          rows=(rows, np.append(np.zeros(n * (k - 1)), np.zeros(n) - offset)))


def _level_outcome(m: Momdp, poly: OccupancyPolytope, steps, weights):
    """The level program's optimal assignment, its score and its welfare
    completion over the floors of the active levels: each level's cumulative
    steps less ``COMPLETION_RELAX``.  The MILP starts from ``lp.home_point``
    and the levels whose floors it meets (the relax keeps a return of 1 on
    Borda's top level, whose summed steps exceed 1 by an ulp).  The MILP met
    its floors, so an empty completion is an :class:`LpFailure`."""
    rewards = m.reward_vectors()
    home = lp.home_point(poly, rewards)
    reached = np.cumsum(steps, axis=1) - COMPLETION_RELAX <= (rewards @ home)[:, None]
    sol = lp.milp_solve(_level_program(poly, rewards, steps, weights),
                        start=np.concatenate([home, reached.ravel()]))
    levels = np.reshape(sol.binary_assignment, steps.shape)
    try:
        point = lp.pareto_complete(poly, (steps * levels).sum(axis=1) - COMPLETION_RELAX,
                                   rewards)
    except InfeasibleBounds as exc:
        raise LpFailure("MILP assignment is infeasible once completed") from exc
    return point, levels, sol.objective_value


def _approval_thresholds(m: Momdp, cdfs: Sequence[ReturnCdf] | None, alpha: float):
    _check_alpha(alpha)
    if alpha >= 1.0:
        return np.full(m.num_agents, 1.0 - PLURALITY_SLACK)
    if cdfs is None:
        raise ValueError("alpha < 1 needs per-agent return CDFs")
    return np.array([volume.quantile_inverse(cdf, alpha) for cdf in cdfs])


def approval_program(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf] | None,
    alpha: float,
) -> tuple[lp.MilpProgram, np.ndarray]:
    """The approval level program and its per-agent thresholds."""
    tau = _approval_thresholds(m, cdfs, alpha)
    return _level_program(poly, m.reward_vectors(), tau[:, None], np.ones((tau.size, 1))), tau


def alpha_approval(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf] | None,
    alpha: float = 0.9,
) -> RuleResult:
    """Maximize the number of agents whose return clears their alpha-quantile.

    The level program with one level per agent, of step F_i^{-1}(alpha) and
    weight 1: ``max sum_i a_i`` subject to ``a_i F_i^{-1}(alpha) <= <R_i, d>``,
    welfare-completed with floor F_i^{-1}(alpha) on the approving agents.
    Plurality is alpha = 1, whose threshold is 1 - 1e-6 to absorb LP slack.
    """
    watch = _Stopwatch(samples_used=cdfs[0].samples.size if cdfs and alpha < 1.0 else 0)
    tau = _approval_thresholds(m, cdfs, alpha)
    point, levels, _ = _level_outcome(m, poly, tau[:, None], np.ones((tau.size, 1)))
    approving = tuple(int(i) for i in np.flatnonzero(levels))
    cert = ApprovalCertificate(
        alpha=alpha,
        approving_agents=approving,
        thresholds=tuple(float(t) for t in tau),
        score=len(approving),
    )
    return _finish(m, point, cert, watch)


def plurality(m: Momdp, poly: OccupancyPolytope) -> RuleResult:
    """Approval at alpha = 1: approve only return-optimal policies."""
    return alpha_approval(m, poly, None, alpha=1.0)


def borda_milp(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf],
    epsilon: float = 0.05,
) -> RuleResult:
    """Approximate Borda winner via the level program.

    Each agent has 1/eps levels of step eps, level k marking the rounded
    return (k + 1) eps with weight F_i((k + 1) eps) - F_i(k eps), so the
    optimum attains at least the best Borda score among eps-rounded return
    vectors.  Its LP relaxation, over knots past the modes rather than this
    grid, is :func:`borda_concave`.
    """
    k_max = _levels(epsilon, 1.0)
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    grid = np.arange(k_max + 1) * epsilon
    weights = np.diff([cdf.evaluate(grid) for cdf in cdfs], axis=1)  # [agent, level]
    point, levels, score = _level_outcome(m, poly, np.full(weights.shape, epsilon), weights)
    cert = BordaCertificate(
        epsilon=epsilon,
        level_indicators=tuple(tuple(row) for row in levels.tolist()),
        rounded_score=float(score),
        weights=tuple(tuple(float(w) for w in row) for row in weights),
    )
    return _finish(m, point, cert, watch)


def borda_concave(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf],
) -> RuleResult:
    """Borda winner restricted to the region past every density mode.

    There each F_i is concave, so maximizing ``sum_i F_i(<R_i, d>)`` is the
    LP relaxation of the level program with the steps between
    ``CONCAVE_KNOTS`` points of F_i on [mode_i, 1], weighted by F_i's
    increments and offset by mode_i: per agent, its optimum is the concave
    majorant of the points less F_i(mode_i) (put y_k = z_k - z_{k+1}).  An
    empty relaxation, whose offset rows are <R_i, d> >= mode_i, raises
    :class:`ConcaveRegionEmpty` (callers should fall back to the MILP variant).
    """
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    rewards = m.reward_vectors()
    modes = np.array([volume.mode_estimate(cdf) for cdf in cdfs])
    knots = np.linspace(modes, np.maximum(1.0, modes + 1e-6), CONCAVE_KNOTS, axis=1)
    heights = np.array([cdf.evaluate(x) for cdf, x in zip(cdfs, knots)])  # [agent, knot]
    try:
        x, value = lp.relaxation_solve(_level_program(
            poly, rewards, np.diff(knots, axis=1), np.diff(heights, axis=1), offset=modes))
    except InfeasibleBounds:
        raise ConcaveRegionEmpty("no policy reaches every agent's density mode") from None
    point = lp.pareto_complete(poly, rewards @ x[:poly.dim] - COMPLETION_RELAX, rewards)
    score = float(sum(cdf.evaluate(float(r @ point.flat)) for cdf, r in zip(cdfs, rewards)))
    cert = ConcaveBordaCertificate(
        modes=tuple(float(v) for v in modes),
        envelope_objective=value + float(heights[:, 0].sum()),
        score=score,
    )
    return _finish(m, point, cert, watch)


# rule parameter checks that need no model, which harness.check_rule runs before any
# walk; TypeError is a wrong type (veto-core's epsilon range and order need the agent count)
PARAMETER_CHECKS = {
    veto_core: {"epsilon": lambda epsilon: epsilon is None or _real(epsilon)},
    max_quantile: {"epsilon": lambda epsilon: _levels(epsilon, 0.5)},
    alpha_approval: {"alpha": _check_alpha},
    borda_milp: {"epsilon": lambda epsilon: _levels(epsilon, 1.0)},
}

