"""Aggregation rules over the occupancy polytope.

Every rule expects a model whose rewards have already been normalized (each
agent's return spans [0, 1] over the polytope), takes the shared volumetric
estimates (a sample cloud or per-agent return CDFs), and returns a
:class:`RuleResult` whose occupancy measure has been completed to a
welfare-maximizing, hence Pareto-optimal, point of the rule's feasible set.
"""

from __future__ import annotations

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


def _complete_assignment(poly: OccupancyPolytope, floors, rewards) -> OccupancyMeasure:
    """Welfare-complete over the return floors an optimal MILP assignment
    certifies.  The MILP met them, so an empty region is a solver fault
    (:class:`LpFailure`), not infeasible input."""
    try:
        return lp.pareto_complete(poly, floors, rewards)
    except InfeasibleBounds as exc:
        raise LpFailure("MILP assignment is infeasible once completed") from exc


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


def _levels(epsilon: float) -> int:
    """The number of steps of the grid {0, eps, ..., 1}; :class:`ValueError`
    unless 1/eps is a whole number, so that the grid ends at 1."""
    levels = 1.0 / epsilon
    if abs(levels - round(levels)) > 1e-9:
        raise ValueError("1/epsilon must be an integer")
    return int(round(levels))


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
    whole number; a level is feasible when the LP region
    {d : <R_i, d> >= F_i^{-1}(q) for all i} is nonempty.
    Returns the welfare-maximizing point at the best feasible level.
    """
    if epsilon <= 0 or epsilon > 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    grid = _levels(epsilon)
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    rewards = m.reward_vectors()

    def thresholds_at(q: float) -> np.ndarray:
        return np.array([volume.quantile_inverse(cdf, q) for cdf in cdfs])

    def feasible_at(q: float) -> bool:
        return lp.feasible(poly, thresholds_at(q), rewards)

    infeasible_above = None
    if feasible_at(1.0):
        q_star = 1.0
    else:
        lo, hi = 0, grid  # q = 0 is always feasible; q = 1 just failed
        infeasible_above = 1.0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible_at(mid * epsilon):
                lo = mid
            else:
                hi = mid
                infeasible_above = mid * epsilon
        q_star = lo * epsilon
    tau = thresholds_at(q_star)
    point = lp.pareto_complete(poly, tau, rewards)
    cert = QuantileCertificate(
        q_star=float(q_star),
        thresholds=tuple(float(t) for t in tau),
        infeasible_above=infeasible_above,
    )
    return _finish(m, point, cert, watch)


def approval_program(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf] | None,
    alpha: float,
) -> tuple[lp.MilpProgram, np.ndarray]:
    """The approval indicator program and its per-agent thresholds."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    rewards = m.reward_vectors()
    n = m.num_agents
    if alpha >= 1.0:
        tau = np.full(n, 1.0 - PLURALITY_SLACK)
    else:
        if cdfs is None:
            raise ValueError("alpha < 1 needs per-agent return CDFs")
        tau = np.array([volume.quantile_inverse(cdfs[i], alpha) for i in range(n)])
    rows = (np.hstack([-rewards, np.diag(tau)]), np.zeros(n))  # tau_i z_i <= <R_i, d>
    return lp.MilpProgram(base=poly, weights=np.ones(n), rows=rows), tau


def alpha_approval(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf] | None,
    alpha: float = 0.9,
) -> RuleResult:
    """Maximize the number of agents whose return clears their alpha-quantile.

    Solves the indicator MILP ``max sum_i a_i`` with rows
    ``a_i * F_i^{-1}(alpha) <= <R_i, d>`` exactly (no big-M: the row is
    vacuous at a_i = 0 because normalized returns are nonnegative), then
    welfare-completes with floor F_i^{-1}(alpha) on the approving agents.
    Plurality is alpha = 1, whose threshold is 1 - 1e-6 to absorb LP slack.
    The MILP starts from the agents the welfare optimum (``lp.home_point``)
    approves.
    """
    watch = _Stopwatch(samples_used=cdfs[0].samples.size if cdfs and alpha < 1.0 else 0)
    program, tau = approval_program(m, poly, cdfs, alpha)
    rewards = m.reward_vectors()
    home = lp.home_point(poly, rewards)
    approves = tau <= rewards @ home
    z = lp.milp_solve(program, start=np.concatenate([home, approves])).binary_assignment
    approving = tuple(i for i, on in enumerate(z) if on)
    point = _complete_assignment(poly, np.where(z, tau, 0.0), rewards)
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
    """Approximate Borda winner via level-indicator MILP.

    For each agent, 1/eps binaries a_{i,k} mark the eps-rounded return levels
    (k + 1) eps; the objective weights each indicator by the cdf increment
    F_i((k + 1) eps) - F_i(k eps), so the optimum attains at least the best
    Borda score among eps-rounded return vectors.  The rows are the monotone
    a_{i,k+1} <= a_{i,k} and per agent the aggregate
    eps * sum_k a_{i,k} <= <R_i, d>.  They imply each level's own row
    (k + 1) eps a_{i,k} <= <R_i, d>, even in the LP relaxation: the monotone
    rows give (k + 1) a_{i,k} <= sum_j a_{i,j}.  So an assignment with L_i
    active levels admits exactly the points with <R_i, d> >= L_i eps, the
    relaxation is the step functions' concave envelope, and the outcome is
    the welfare-maximal point: a function of the assignment.  The MILP
    starts from the welfare optimum (``lp.home_point``) and the
    ``floor(<R_i, d>/eps)`` levels it reaches.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    k_max = _levels(epsilon)
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    rewards = m.reward_vectors()
    n = m.num_agents

    grid = np.arange(k_max + 1) * epsilon
    weights = np.diff([cdf.evaluate(grid) for cdf in cdfs], axis=1)  # [agent, level]
    # binary (i, k) sits at i * k_max + k; the rows over [d ; a] are the
    # monotone rows, then the aggregate rows
    monotone = np.eye(k_max - 1, k_max, 1) - np.eye(k_max - 1, k_max)
    rows = (np.block([[np.zeros((n * (k_max - 1), poly.dim)), np.kron(np.eye(n), monotone)],
                      [-rewards, np.kron(np.eye(n), np.full((1, k_max), epsilon))]]),
            np.zeros(n * k_max))
    program = lp.MilpProgram(base=poly, weights=weights.ravel(), rows=rows)
    home = lp.home_point(poly, rewards)
    reached = np.clip(np.floor(rewards @ home / epsilon), 0, k_max)
    start = np.concatenate([home, (np.arange(k_max) < reached[:, None]).ravel()])
    sol = lp.milp_solve(program, start=start)
    z = sol.binary_assignment
    indicators = tuple(z[i * k_max:(i + 1) * k_max] for i in range(n))
    active = np.array([sum(row) for row in indicators])
    point = _complete_assignment(poly, epsilon * active - COMPLETION_RELAX, rewards)
    cert = BordaCertificate(
        epsilon=epsilon,
        level_indicators=indicators,
        rounded_score=float(sol.objective_value),
        weights=tuple(tuple(float(w) for w in row) for row in weights),
    )
    return _finish(m, point, cert, watch)


def borda_concave(
    m: Momdp,
    poly: OccupancyPolytope,
    cdfs: Sequence[ReturnCdf],
) -> RuleResult:
    """Borda winner restricted to the region past every density mode.

    There each F_i is concave, so maximizing ``sum_i F_i(<R_i, d>)`` becomes
    one LP over hypograph variables bounded by the piecewise-linear concave
    upper envelope of F_i sampled at ``CONCAVE_KNOTS`` points on [mode_i, 1].
    Raises :class:`ConcaveRegionEmpty` when no policy clears every mode
    (callers should fall back to the MILP variant).
    """
    watch = _Stopwatch(samples_used=cdfs[0].samples.size)
    rewards = m.reward_vectors()
    n = m.num_agents
    modes = np.array([volume.mode_estimate(cdf) for cdf in cdfs])
    if not lp.feasible(poly, modes, rewards):
        raise ConcaveRegionEmpty("no policy reaches every agent's density mode")

    # variables [d ; t]: t_i <= slope * <R_i, d> + intercept on each segment
    # of agent i's envelope, and <R_i, d> >= mode_i
    segments = [_concave_envelope(cdfs[i], modes[i]) for i in range(n)]
    agent = np.repeat(np.arange(n), [len(seg) for seg in segments])
    slope, intercept = np.concatenate(segments).T
    mode_a, mode_b = lp.lower_bound_rows(rewards, modes)
    rows = (np.vstack([np.hstack([mode_a, np.zeros((n, n))]),
                       np.hstack([-slope[:, None] * rewards[agent], np.eye(n)[agent]])]),
            np.concatenate([mode_b, intercept]))
    c = np.concatenate([np.zeros(poly.dim), -np.ones(n)])
    res = _solver.lp(c, *poly.program(rows, n))
    if res.status != _solver.OPTIMAL:
        raise LpFailure("concave Borda LP did not solve")
    achieved = rewards @ res.x[:poly.dim]
    point = lp.pareto_complete(poly, achieved - COMPLETION_RELAX, rewards)
    score = float(sum(cdfs[i].evaluate(float(rewards[i] @ point.flat)) for i in range(n)))
    cert = ConcaveBordaCertificate(
        modes=tuple(float(v) for v in modes),
        envelope_objective=float(-res.fun),
        score=score,
    )
    return _finish(m, point, cert, watch)


def _concave_envelope(cdf: ReturnCdf, mode: float):
    """Line segments (slope, intercept) of the concave majorant of F on [mode, 1]."""
    hi = max(1.0, mode + 1e-6)
    xs = np.linspace(mode, hi, CONCAVE_KNOTS)
    ys = np.asarray(cdf.evaluate(xs))
    hull = [0]
    for k in range(1, len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (ys[b] - ys[a]) * (xs[k] - xs[a]) - (ys[k] - ys[a]) * (xs[b] - xs[a])
            if cross <= 0:  # keeping b would bend convex-side; drop it
                hull.pop()
            else:
                break
        hull.append(k)
    segments = []
    for a, b in zip(hull[:-1], hull[1:]):
        if xs[b] == xs[a]:
            continue
        slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
        segments.append((slope, ys[a] - slope * xs[a]))
    if not segments:
        segments.append((0.0, float(ys.max())))
    return segments
