import numpy as np
import pytest

# polyagg first, so that the suite runs on the compiled scipy modules its
# loader reads from file, and linprog/milp checks import scipy after it
import polyagg as pa
from polyagg import _solver
from polyagg._solver import HighsModelStatus


@pytest.fixture
def simplex2():
    return pa.gen_simplex_instance(2)


@pytest.fixture
def simplex3():
    return pa.gen_simplex_instance(3)


@pytest.fixture
def two_cycle():
    """Deterministic 2-state cycle with a single action."""
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 0] = 1.0
    return pa.Momdp(transition=transition, rewards=np.array([[[1.0], [0.0]]]))


@pytest.fixture
def fully_connected_22():
    """Fully connected 2-state, 2-action model with two agents."""
    transition = np.full((2, 2, 2), 0.5)
    rewards = np.array([
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 1.0]],
    ])
    return pa.Momdp(transition=transition, rewards=rewards)


@pytest.fixture
def transient_53():
    return transient_53_model()


def transient_53_model():
    """5-state, 3-action average model in which no transition enters state 4.

    State 4 is transient: its occupancy is 0 in every stationary policy, so
    its three nonnegativity rows are tight over the whole polytope.  The
    equality rows leave dimension 10; the hull has dimension 8.
    """
    rng = np.random.default_rng(53)
    transition = np.zeros((5, 3, 5))
    transition[:, :, :4] = rng.dirichlet(np.ones(4), size=(5, 3))
    rewards = rng.random((2, 5, 3))
    return pa.Momdp(transition=transition, rewards=rewards)


def without_isolated_vertices(g: pa.Graph, seed: int) -> pa.Graph:
    """Attach every degree-0 vertex to a random neighbour.

    The independent-set encoding gives an isolated vertex an all-zero reward
    table (an indifferent agent), so the reduction is stated for graphs with
    minimum degree one.
    """
    degree = [0] * g.num_vertices
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    rng = np.random.default_rng(seed)
    edges = list(g.edges)
    for u in range(g.num_vertices):
        if degree[u] == 0:
            choices = [v for v in range(g.num_vertices) if v != u]
            v = int(rng.choice(choices))
            edges.append((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    return pa.Graph(num_vertices=g.num_vertices, edges=tuple(sorted(set(edges))))


@pytest.fixture
def node_limit_reached(monkeypatch):
    """Make every MILP stop the way HiGHS does at its node limit.

    No program in the suite needs more than one branch-and-cut node, so the
    limit cannot be reached for real; HiGHS reports it as the model status
    ``kSolutionLimit``.  LPs solve as usual.
    """
    class NodeLimitHighs(_solver._Highs):
        def passModel(self, model):
            self.is_mip = bool(model.integrality_)
            return super().passModel(model)

        def getModelStatus(self):
            status = super().getModelStatus()
            return HighsModelStatus.kSolutionLimit if self.is_mip else status

    monkeypatch.setattr(_solver, "_Highs", NodeLimitHighs)


def unit_box(dim):
    """Axis-aligned unit box as a raw polytope (no equalities)."""
    return pa.OccupancyPolytope(
        a_ub=np.vstack([np.eye(dim), -np.eye(dim)]),
        b_ub=np.concatenate([np.ones(dim), np.zeros(dim)]),
        a_eq=np.zeros((0, dim)),
        b_eq=np.zeros(0),
    )


def strip():
    """The strip 0 <= x <= 1 with y >= 0: a Chebyshev center, no upper bound on y."""
    return pa.OccupancyPolytope(
        a_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        b_ub=np.array([1.0, 0.0]),
        a_eq=np.zeros((0, 2)),
        b_eq=np.zeros(0),
    )


def random_policy(num_states, num_actions, rng):
    pi = rng.dirichlet(np.ones(num_actions), size=num_states)
    pi /= pi.sum(axis=1, keepdims=True)
    return pa.Policy(pi=pi)
