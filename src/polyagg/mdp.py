"""Core data model: MOMDPs, policies, occupancy measures, and the occupancy polytope.

An occupancy measure flattens the (state, action) table row-major, so the
vector index of pair ``(s, a)`` is ``s * num_actions + a``.  Every matrix in
the library (polytope rows, reward vectors, sample clouds) uses this layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _solver
from .errors import AllAgentsIndifferent, InfeasibleModel, SingularChain

AVERAGE = "average"
DISCOUNTED = "discounted"

ROW_TOL = 1e-9          # distribution row sums (transitions, policies, d_init)
MASS_TOL = 1e-7         # occupancy mass and polytope constraint slack
DENOM_TOL = 1e-12       # occupancy-to-policy denominator cutoff
INDIFFERENCE_TOL = 1e-9  # J-range below which an agent is dropped


def _freeze(a, dtype=float):
    """Copy to a C-contiguous read-only array."""
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Momdp:
    """A multi-objective MDP: shared dynamics, one reward table per agent.

    Parameters
    ----------
    transition : (S, A, S) array
        ``transition[s, a, s']`` is the probability of moving to ``s'``.
    rewards : (n, S, A) array
        One reward table per agent.
    criterion : {"average", "discounted"}
        Reward criterion.  The discounted case additionally needs ``gamma``
        in (0, 1) and an initial state distribution ``d_init``.
    """

    transition: np.ndarray
    rewards: np.ndarray
    criterion: str = AVERAGE
    gamma: float | None = None
    d_init: np.ndarray | None = None
    agent_names: tuple[str, ...] | None = None

    def __post_init__(self):
        t = _freeze(self.transition)
        r = _freeze(self.rewards)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {t.shape}")
        s, a, _ = t.shape
        if np.any(t < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = t.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > ROW_TOL:
            raise ValueError("transition rows must sum to 1 within 1e-9")
        if r.ndim != 3 or r.shape[1:] != (s, a):
            raise ValueError(f"rewards must have shape (n, {s}, {a}), got {r.shape}")
        if r.shape[0] < 1:
            raise ValueError("need at least one agent")
        if self.criterion == DISCOUNTED:
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("discounted criterion needs gamma in (0, 1)")
            if self.d_init is None:
                raise ValueError("discounted criterion needs d_init")
            d0 = _freeze(self.d_init)
            if d0.shape != (s,) or np.any(d0 < 0) or abs(d0.sum() - 1.0) > ROW_TOL:
                raise ValueError("d_init must be a distribution over states")
            object.__setattr__(self, "d_init", d0)
        elif self.criterion == AVERAGE:
            if self.gamma is not None or self.d_init is not None:
                raise ValueError("average criterion takes neither gamma nor d_init")
        else:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if self.agent_names is not None:
            names = tuple(str(x) for x in self.agent_names)
            if len(names) != r.shape[0]:
                raise ValueError("agent_names length must match the number of agents")
            object.__setattr__(self, "agent_names", names)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "rewards", r)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def num_agents(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_vars(self) -> int:
        return self.num_states * self.num_actions

    def reward_vectors(self) -> np.ndarray:
        """Rewards as an (n, S*A) matrix over flattened state-action pairs."""
        return self.rewards.reshape(self.num_agents, -1)

    def replace_rewards(self, rewards, agent_names=None) -> "Momdp":
        return Momdp(
            transition=self.transition,
            rewards=rewards,
            criterion=self.criterion,
            gamma=self.gamma,
            d_init=self.d_init,
            agent_names=agent_names,
        )


@dataclass(frozen=True, eq=False)
class OccupancyMeasure:
    """A point of the occupancy polytope, stored as an (S, A) table.

    Entries in ``[-1e-9, 0)`` are LP slack and are clamped to zero at
    construction; anything more negative is rejected.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float, copy=True)
        if t.ndim != 2:
            raise ValueError("occupancy table must be 2-D (states x actions)")
        if np.any(t < -1e-9):
            raise ValueError("occupancy entries must be >= -1e-9")
        np.clip(t, 0.0, None, out=t)
        if abs(t.sum() - 1.0) > MASS_TOL:
            raise ValueError("occupancy mass must be 1 within 1e-7")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def flat(self) -> np.ndarray:
        """Read-only flattened view, row-major over (s, a)."""
        return self.table.reshape(-1)


@dataclass(frozen=True, eq=False)
class Policy:
    """A stationary stochastic policy pi(a | s) as an (S, A) table."""

    pi: np.ndarray

    def __post_init__(self):
        p = _freeze(self.pi)
        if p.ndim != 2:
            raise ValueError("policy table must be 2-D (states x actions)")
        if np.any(p < 0):
            raise ValueError("policy probabilities must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_TOL:
            raise ValueError("policy rows must sum to 1 within 1e-9")
        object.__setattr__(self, "pi", p)


@dataclass(frozen=True, eq=False)
class OccupancyPolytope:
    """H-representation of a polytope in the nonnegative orthant:
    ``x >= 0``, ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    ``x >= 0`` is never stored as rows: :meth:`program` poses every solve
    over the polytope and passes it to the solver as variable bounds.
    Construction certifies nonemptiness with one feasibility solve.  The
    equality rows of occupancy polytopes are emitted in a fixed order: the
    unit-mass row first, then one flow row per state.  ``table_shape``
    records the (S, A) layout behind the flattened variables; generic test
    polytopes leave it unset.  ``warm_models`` holds the warm solver models
    :mod:`polyagg.lp` builds over the polytope, one per reward matrix, so
    they are freed with it.
    """

    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    table_shape: tuple[int, int] | None = None
    warm_models: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        a_ub = _freeze(self.a_ub)
        b_ub = _freeze(self.b_ub)
        a_eq = _freeze(self.a_eq)
        b_eq = _freeze(self.b_eq)
        if a_ub.ndim != 2 or a_eq.ndim != 2:
            raise ValueError("constraint matrices must be 2-D")
        if a_ub.shape[0] != b_ub.shape[0] or a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("constraint matrix/vector shapes disagree")
        if a_eq.shape[0] and a_eq.shape[1] != a_ub.shape[1]:
            raise ValueError("inequality and equality systems must share a dimension")
        for name, arr in (("a_ub", a_ub), ("b_ub", b_ub), ("a_eq", a_eq), ("b_eq", b_eq)):
            object.__setattr__(self, name, arr)
        res = _solver.lp(np.zeros(self.dim), *self.program())
        if res.status == _solver.INFEASIBLE:
            raise InfeasibleModel("polytope is empty")

    @property
    def dim(self) -> int:
        """Ambient dimension (number of variables)."""
        return self.a_ub.shape[1]

    def program(self, rows=None, extra: int = 0):
        """The polytope as ``_solver``'s ``(a_ub, b_ub, a_eq, b_eq, bounds)``
        over ``[x ; w]``, with ``extra`` further variables w.

        The inequality rows are the polytope's ``a_ub`` rows, then the block
        ``rows = (a, b)`` (``a @ [x ; w] <= b``) if given; the polytope's rows
        get ``extra`` zero columns.  ``bounds`` is a fresh ``(dim + extra, 2)``
        array, ``x >= 0`` and w free, which callers may tighten.
        """
        a_ub, a_eq = (np.hstack([a, np.zeros((a.shape[0], extra))]) if extra else a
                      for a in (self.a_ub, self.a_eq))
        b_ub = self.b_ub
        if rows is not None:
            a, b = rows
            a_ub = np.vstack([a_ub, a])
            b_ub = np.concatenate([b_ub, b])
        bounds = np.tile([0.0, np.inf], (self.dim + extra, 1))
        bounds[self.dim:, 0] = -np.inf
        return a_ub, b_ub, a_eq, self.b_eq, bounds

    def _vector(self, x) -> np.ndarray:
        if isinstance(x, OccupancyMeasure):
            return x.flat
        return np.asarray(x, dtype=float).reshape(-1)

    def max_violation(self, x) -> float:
        """Largest constraint violation of ``x``, ``x >= 0`` included (0 means
        feasible)."""
        v = self._vector(x)
        worst = max(0.0, -float(v.min(initial=0.0)))
        if self.a_ub.shape[0]:
            worst = max(worst, float(np.max(self.a_ub @ v - self.b_ub)))
        if self.a_eq.shape[0]:
            worst = max(worst, float(np.max(np.abs(self.a_eq @ v - self.b_eq))))
        return worst

    def contains(self, x, tol: float = MASS_TOL) -> bool:
        return self.max_violation(x) <= tol


def build_polytope(m: Momdp) -> OccupancyPolytope:
    """Construct the state-action occupancy polytope of a MOMDP.

    Average criterion:   d >= 0,  sum d = 1,  and for every state s
    ``sum_a d(s,a) = sum_{s',a'} P(s',a',s) d(s',a')``.

    Discounted criterion: d >= 0 and for every state s
    ``sum_a d(s,a) = (1-gamma) d_init(s) + gamma sum_{s',a'} P(s',a',s) d(s',a')``;
    the unit-mass row is implied but emitted anyway as a numerical anchor.

    ``d >= 0`` is the polytope's orthant, so no inequality rows are emitted.
    """
    s, a = m.num_states, m.num_actions
    n = s * a
    # marginal[s, (s', a')] = 1 if s' == s
    marginal = np.kron(np.eye(s), np.ones((1, a))).reshape(s, n)
    # inflow[s, (s', a')] = P(s', a', s)
    inflow = m.transition.reshape(n, s).T
    if m.criterion == AVERAGE:
        flow = marginal - inflow
        rhs = np.zeros(s)
    else:
        flow = marginal - m.gamma * inflow
        rhs = (1.0 - m.gamma) * m.d_init
    a_eq = np.vstack([np.ones((1, n)), flow])
    b_eq = np.concatenate([[1.0], rhs])
    try:
        return OccupancyPolytope(a_ub=np.zeros((0, n)), b_ub=np.zeros(0),
                                 a_eq=a_eq, b_eq=b_eq, table_shape=(s, a))
    except InfeasibleModel as exc:
        raise InfeasibleModel(
            "no feasible occupancy measure; transition data is malformed"
        ) from exc


def occupancy_to_policy(d: OccupancyMeasure) -> Policy:
    """Recover pi(a|s) = d(s,a) / sum_a d(s,a), uniform on zero-mass states."""
    table = d.table
    num_actions = table.shape[1]
    mass = table.sum(axis=1)
    pi = np.full_like(table, 1.0 / num_actions)
    positive = mass > DENOM_TOL
    pi[positive] = table[positive] / mass[positive, None]
    return Policy(pi=pi)


def _policy_transition(p: Policy, m: Momdp) -> np.ndarray:
    """State-to-state chain P_pi(s -> s') induced by a policy."""
    return np.einsum("sa,saz->sz", p.pi, m.transition)


def policy_to_occupancy(p: Policy, m: Momdp) -> OccupancyMeasure:
    """Occupancy measure of a policy: d(s,a) = rho(s) * pi(a|s).

    Discounted: rho solves ``rho = (1-gamma) d_init + gamma P_pi^T rho``.
    Average: rho is the stationary distribution reached from the uniform
    start, computed by a 1e-12 Tikhonov-regularized solve of the singular
    system ``(I - P_pi^T) rho = 0`` anchored at the uniform distribution
    (the Abel limit of the chain; total and deterministic on multichain
    models, where it returns the uniform-start mixture of the recurrent
    classes' stationary distributions).
    """
    if p.pi.shape != (m.num_states, m.num_actions):
        raise ValueError("policy shape does not match the model")
    chain = _policy_transition(p, m)
    eye = np.eye(m.num_states)
    try:
        if m.criterion == DISCOUNTED:
            rho = np.linalg.solve(eye - m.gamma * chain.T, (1.0 - m.gamma) * m.d_init)
        else:
            eps = 1e-12
            uniform = np.full(m.num_states, 1.0 / m.num_states)
            rho = np.linalg.solve((1.0 + eps) * eye - chain.T, eps * uniform)
    except np.linalg.LinAlgError as exc:
        raise SingularChain(str(exc)) from exc
    total = rho.sum()
    if not np.isfinite(total) or total <= 0:
        raise SingularChain("stationary solve produced a non-distribution")
    rho = np.clip(rho / total, 0.0, None)
    rho /= rho.sum()
    return OccupancyMeasure(table=rho[:, None] * p.pi)


def expected_return(d: OccupancyMeasure, reward_table) -> float:
    """Expected return <d, R> of one agent."""
    r = np.asarray(reward_table, dtype=float)
    if r.shape != d.table.shape:
        raise ValueError("reward table shape does not match the occupancy table")
    return float(np.vdot(d.table, r))


def _agent_return_bounds(poly: OccupancyPolytope, reward_vec: np.ndarray) -> tuple[float, float]:
    lo, hi = (_solver.lp(c, *poly.program()) for c in (reward_vec, -reward_vec))
    return float(lo.fun), float(-hi.fun)


def normalize_rewards(m: Momdp, poly: OccupancyPolytope) -> tuple[Momdp, list[int]]:
    """Rescale each reward table so min_pi J_i = 0 and max_pi J_i = 1.

    Agents whose return range is below 1e-9 are indifferent between all
    policies and are dropped; their original indices are returned.  The shift
    is applied directly to the reward table (valid because occupancy mass is
    one, a constant table shifts J by that constant).

    Each table is first mapped entrywise onto [0, 1] before the two extremal
    LP solves.  This canonical pre-map makes the LP inputs - and therefore
    the normalized output - bit-identical across positive affine transforms
    of the input rewards, as long as the transform itself was exact in
    floating point.
    """
    if poly.dim != m.num_vars:
        raise ValueError("polytope was not built from this model")
    kept_tables = []
    kept_names = []
    dropped: list[int] = []
    names = m.agent_names or tuple(str(i) for i in range(m.num_agents))
    for i in range(m.num_agents):
        table = m.rewards[i]
        lo, hi = float(table.min()), float(table.max())
        if hi - lo <= 0.0:
            dropped.append(i)
            continue
        canonical = (table - lo) / (hi - lo)
        jmin, jmax = _agent_return_bounds(poly, canonical.reshape(-1))
        if jmax - jmin <= INDIFFERENCE_TOL:
            dropped.append(i)
            continue
        kept_tables.append((canonical - jmin) / (jmax - jmin))
        kept_names.append(names[i])
    if not kept_tables:
        raise AllAgentsIndifferent("every agent is indifferent between all policies")
    return (
        m.replace_rewards(np.stack(kept_tables), agent_names=tuple(kept_names)),
        dropped,
    )


# --- JSON interchange -------------------------------------------------------
#
# Schema: {"states": int, "actions": int,
#          "criterion": "average" | {"discounted": {"gamma": float,
#                                                   "d_init": [float]}},
#          "transitions": [[[float]]]   indexed [s][a][s'],
#          "rewards":     [[[float]]]   indexed [agent][s][a],
#          "agent_names": [str]}        (optional)
#
# Floats are emitted in shortest round-trip decimal form, so values reload
# bit-for-bit as IEEE-754 doubles.


def momdp_to_json(m: Momdp) -> str:
    doc: dict = {
        "states": m.num_states,
        "actions": m.num_actions,
    }
    if m.criterion == AVERAGE:
        doc["criterion"] = "average"
    else:
        doc["criterion"] = {
            "discounted": {"gamma": m.gamma, "d_init": m.d_init.tolist()}
        }
    doc["transitions"] = m.transition.tolist()
    doc["rewards"] = m.rewards.tolist()
    if m.agent_names is not None:
        doc["agent_names"] = list(m.agent_names)
    return json.dumps(doc, indent=2)


def _json_field(doc, key: str, what: str, convert=None):
    """``doc[key]``, passed through ``convert`` if given.

    Raises :class:`ValueError` naming ``key`` when ``doc`` is not a JSON
    object, lacks ``key``, or holds a value ``convert`` cannot take.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object with the key {key!r}, "
                         f"not {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{what} lacks the key {key!r}")
    try:
        return doc[key] if convert is None else convert(doc[key])
    except TypeError:
        raise ValueError(f"{what} key {key!r} has the wrong shape "
                         f"({type(doc[key]).__name__})") from None


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def momdp_from_json(text: str) -> Momdp:
    """Parse the schema above; a missing key or a value of the wrong shape
    raises :class:`ValueError` naming the key."""
    doc = json.loads(text)
    what = "MOMDP JSON"
    criterion = _json_field(doc, "criterion", what)
    gamma = None
    d_init = None
    if criterion == "average":
        kind = AVERAGE
    elif isinstance(criterion, dict) and "discounted" in criterion:
        kind = DISCOUNTED
        discounted = criterion["discounted"]
        gamma = _json_field(discounted, "gamma", "criterion 'discounted'", float)
        d_init = _json_field(discounted, "d_init", "criterion 'discounted'", _floats)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    m = Momdp(
        transition=_json_field(doc, "transitions", what, _floats),
        rewards=_json_field(doc, "rewards", what, _floats),
        criterion=kind,
        gamma=gamma,
        d_init=d_init,
        agent_names=_json_field(doc, "agent_names", what, tuple) if "agent_names" in doc else None,
    )
    if (m.num_states != _json_field(doc, "states", what)
            or m.num_actions != _json_field(doc, "actions", what)):
        raise ValueError("declared states/actions disagree with the tables")
    return m


def save_momdp(m: Momdp, path) -> None:
    with open(path, "w") as fh:
        fh.write(momdp_to_json(m))
        fh.write("\n")


def load_momdp(path) -> Momdp:
    with open(path) as fh:
        return momdp_from_json(fh.read())
