import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyagg as pa
from polyagg.mdp import build_polytope


def make_random_momdp(seed, states=None, actions=None, agents=None):
    rng = np.random.default_rng(seed)
    s = states or int(rng.integers(2, 4))
    a = actions or int(rng.integers(2, 4))
    n = agents or int(rng.integers(1, 4))
    return pa.random_momdp(s, a, n, seed=seed + 1)


class TestMomdpValidation:
    def test_rejects_bad_row_sums(self):
        t = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            pa.Momdp(transition=t, rewards=np.zeros((1, 2, 2)))

    def test_rejects_negative_probabilities(self):
        t = np.array([[[1.5, -0.5]], [[0.5, 0.5]]])
        with pytest.raises(ValueError, match="nonnegative"):
            pa.Momdp(transition=t, rewards=np.zeros((1, 2, 1)))

    def test_rejects_bad_reward_shape(self):
        t = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="rewards"):
            pa.Momdp(transition=t, rewards=np.zeros((1, 3, 2)))

    def test_discounted_needs_gamma_and_d_init(self):
        t = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValueError):
            pa.Momdp(transition=t, rewards=np.zeros((1, 2, 2)), criterion="discounted")
        with pytest.raises(ValueError):
            pa.Momdp(transition=t, rewards=np.zeros((1, 2, 2)),
                     criterion="discounted", gamma=1.2, d_init=np.array([0.5, 0.5]))

    def test_arrays_are_frozen(self):
        m = pa.gen_simplex_instance(2)
        with pytest.raises(ValueError):
            m.transition[0, 0, 0] = 2.0


class TestBuildPolytope:
    def test_fully_connected_matches_per_state_simplices(self, fully_connected_22):
        """Fully connected: polytope is exactly {sum_a d(s,a) = 1/S, d >= 0}."""
        poly = build_polytope(fully_connected_22)
        rng = np.random.default_rng(0)
        # points of the simple system lie in the built polytope
        for _ in range(50):
            block = rng.dirichlet(np.ones(2), size=2) / 2.0
            assert poly.contains(block.reshape(-1))
        # and polytope members satisfy the simple system
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, 200, seed=1)
        marginals = cloud.points.reshape(-1, 2, 2).sum(axis=2)
        assert np.allclose(marginals, 0.5, atol=1e-9)

    def test_fully_connected_either_criterion(self):
        transition = np.full((2, 2, 2), 0.5)
        rewards = np.zeros((1, 2, 2))
        avg = build_polytope(pa.Momdp(transition=transition, rewards=rewards))
        disc = build_polytope(pa.Momdp(
            transition=transition, rewards=rewards, criterion="discounted",
            gamma=0.9, d_init=np.array([0.5, 0.5]),
        ))
        x = np.array([0.2, 0.3, 0.25, 0.25])
        assert avg.contains(x) and disc.contains(x)
        y = np.array([0.4, 0.3, 0.15, 0.15])  # state marginals 0.7 / 0.3
        assert not avg.contains(y) and not disc.contains(y)

    def test_single_state_gives_simplex(self, simplex3):
        poly = build_polytope(simplex3)
        assert poly.contains(np.array([0.2, 0.3, 0.5]))
        assert not poly.contains(np.array([0.2, 0.3, 0.6]))
        assert not poly.contains(np.array([-0.1, 0.6, 0.5]))

    def test_stores_no_inequality_rows(self, fully_connected_22):
        poly = build_polytope(fully_connected_22)
        assert poly.a_ub.shape == (0, 4)
        assert poly.b_ub.shape == (0,)

    def test_max_violation_reports_negative_entry(self, simplex3):
        # meets every row (unit mass, flow) but leaves the orthant by 1e-3
        poly = build_polytope(simplex3)
        x = np.array([-1e-3, 0.5, 0.501])
        assert np.max(np.abs(poly.a_eq @ x - poly.b_eq)) < 1e-12
        assert poly.max_violation(x) == pytest.approx(1e-3)
        assert not poly.contains(x)

    def test_two_cycle_pins_unique_point(self, two_cycle):
        poly = build_polytope(two_cycle)
        assert poly.contains(np.array([0.5, 0.5]))
        assert not poly.contains(np.array([0.6, 0.4]))

    def test_discounted_flow(self):
        # absorbing 2-state chain: action 0 stays, from state 0 action 1 jumps to 1
        transition = np.zeros((2, 2, 2))
        transition[0, 0, 0] = 1.0
        transition[0, 1, 1] = 1.0
        transition[1, :, 1] = 1.0
        m = pa.Momdp(transition=transition, rewards=np.zeros((1, 2, 2)),
                     criterion="discounted", gamma=0.5, d_init=np.array([1.0, 0.0]))
        poly = build_polytope(m)
        pol = pa.Policy(pi=np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = pa.policy_to_occupancy(pol, m)
        # rho(0) = (1-g) = 0.5 ; rho(1) = g = 0.5
        assert np.allclose(d.table, [[0.0, 0.5], [0.5, 0.0]], atol=1e-9)
        assert poly.contains(d)

    def test_infeasible_model_never_happens_for_valid_momdp(self):
        # validation alone guarantees feasibility; exercise the certify path
        m = make_random_momdp(3)
        build_polytope(m)


class TestOccupancyPolicyConversion:
    def test_uniform_occupancy_gives_uniform_policy(self):
        d = pa.OccupancyMeasure(table=np.full((2, 2), 0.25))
        pol = pa.occupancy_to_policy(d)
        assert np.allclose(pol.pi, 0.5)

    def test_single_state_ratio(self):
        d = pa.OccupancyMeasure(table=np.array([[0.75, 0.25]]))
        pol = pa.occupancy_to_policy(d)
        assert np.allclose(pol.pi, [[0.75, 0.25]])

    def test_zero_mass_state_gets_uniform_row(self):
        d = pa.OccupancyMeasure(table=np.array([[0.6, 0.4], [0.0, 0.0]]))
        pol = pa.occupancy_to_policy(d)
        assert np.allclose(pol.pi[1], 0.5)

    def test_deterministic_single_state(self):
        transition = np.ones((1, 2, 1))
        m = pa.Momdp(transition=transition, rewards=np.zeros((1, 1, 2)))
        pol = pa.Policy(pi=np.array([[1.0, 0.0]]))
        d = pa.policy_to_occupancy(pol, m)
        assert np.allclose(d.table, [[1.0, 0.0]], atol=1e-12)

    def test_two_cycle_split(self, two_cycle):
        pol = pa.Policy(pi=np.ones((2, 1)))
        d = pa.policy_to_occupancy(pol, two_cycle)
        assert np.allclose(d.flat, [0.5, 0.5], atol=1e-9)

    def test_fully_connected_closed_form(self, fully_connected_22):
        rng = np.random.default_rng(5)
        pi = rng.dirichlet(np.ones(2), size=2)
        pol = pa.Policy(pi=pi)
        d = pa.policy_to_occupancy(pol, fully_connected_22)
        assert np.allclose(d.table, pi / 2.0, atol=1e-9)

    def test_multichain_average_is_total(self):
        # two disconnected self-loop states: reducible chain
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 0] = 1.0
        transition[1, 0, 1] = 1.0
        m = pa.Momdp(transition=transition, rewards=np.zeros((1, 2, 1)))
        d = pa.policy_to_occupancy(pa.Policy(pi=np.ones((2, 1))), m)
        # uniform start weights both recurrent classes equally
        assert np.allclose(d.flat, [0.5, 0.5], atol=1e-6)
        assert build_polytope(m).contains(d)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_round_trip_policy(self, seed):
        m = make_random_momdp(seed)
        rng = np.random.default_rng(seed + 7)
        pi = rng.dirichlet(np.ones(m.num_actions), size=m.num_states)
        pol = pa.Policy(pi=pi)
        d = pa.policy_to_occupancy(pol, m)
        back = pa.occupancy_to_policy(d)
        mass = d.table.sum(axis=1)
        for s in range(m.num_states):
            if mass[s] > 1e-7:
                assert np.allclose(back.pi[s], pol.pi[s], atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_membership_of_policy_occupancies(self, seed):
        m = make_random_momdp(seed)
        poly = build_polytope(m)
        rng = np.random.default_rng(seed + 13)
        pi = rng.dirichlet(np.ones(m.num_actions), size=m.num_states)
        d = pa.policy_to_occupancy(pa.Policy(pi=pi), m)
        assert poly.contains(d, tol=1e-7)


class TestExpectedReturn:
    def test_zero_rewards(self, simplex2):
        d = pa.OccupancyMeasure(table=np.array([[0.5, 0.5]]))
        assert pa.expected_return(d, np.zeros((1, 2))) == 0.0

    def test_constant_rewards_return_constant(self):
        d = pa.OccupancyMeasure(table=np.array([[0.3, 0.2], [0.1, 0.4]]))
        assert pa.expected_return(d, np.full((2, 2), 3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_simplex_uniform_point(self, simplex3):
        d = pa.OccupancyMeasure(table=np.full((1, 3), 1 / 3))
        assert pa.expected_return(d, simplex3.rewards[0]) == pytest.approx(1 / 3, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_affine_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.uniform(-2, 2, size=(2, 3))
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-5, 5))
        d1 = rng.dirichlet(np.ones(6)).reshape(2, 3)
        d2 = rng.dirichlet(np.ones(6)).reshape(2, 3)
        base = np.vdot(d1, r) - np.vdot(d2, r)
        scaled = np.vdot(d1, a * r + b) - np.vdot(d2, a * r + b)
        if abs(base) > 1e-9:
            assert np.sign(base) == np.sign(scaled)


class TestNormalizeRewards:
    def test_already_normalized_unchanged(self, simplex3):
        poly = build_polytope(simplex3)
        norm, dropped = pa.normalize_rewards(simplex3, poly)
        assert dropped == []
        assert np.allclose(norm.rewards, simplex3.rewards, atol=1e-9)

    def test_affine_transform_bitwise_identical(self):
        m = pa.random_momdp(3, 2, 3, seed=77)
        poly = build_polytope(m)
        base, _ = pa.normalize_rewards(m, poly)
        scaled = m.replace_rewards(3.0 * m.rewards + 7.0)
        other, _ = pa.normalize_rewards(scaled, poly)
        assert np.array_equal(base.rewards, other.rewards)

    def test_constant_reward_agent_dropped(self, simplex2):
        poly = build_polytope(simplex2)
        rewards = np.concatenate([simplex2.rewards, np.full((1, 1, 2), 5.0)])
        m = simplex2.replace_rewards(rewards)
        norm, dropped = pa.normalize_rewards(m, poly)
        assert dropped == [2]
        assert norm.num_agents == 2

    def test_all_indifferent_raises(self, simplex2):
        poly = build_polytope(simplex2)
        m = simplex2.replace_rewards(np.full((2, 1, 2), 1.0))
        with pytest.raises(pa.AllAgentsIndifferent):
            pa.normalize_rewards(m, poly)

    def test_normalized_range_is_unit(self):
        m = pa.random_momdp(3, 3, 2, seed=5)
        poly = build_polytope(m)
        norm, _ = pa.normalize_rewards(m, poly)
        for i in range(norm.num_agents):
            r = norm.reward_vectors()[i]
            lo = r @ pa.solve_lp(poly, None, -r).flat
            hi = r @ pa.solve_lp(poly, None, r).flat
            assert lo == pytest.approx(0.0, abs=1e-7)
            assert hi == pytest.approx(1.0, abs=1e-7)


class TestOccupancyMeasureType:
    def test_clamps_lp_slack(self):
        d = pa.OccupancyMeasure(table=np.array([[1.0 + 5e-10, -5e-10]]))
        assert d.table[0, 1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            pa.OccupancyMeasure(table=np.array([[1.1, -0.1]]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            pa.OccupancyMeasure(table=np.array([[0.7, 0.2]]))


class TestJsonInterchange:
    def test_round_trip_bitwise(self, tmp_path):
        m = pa.random_momdp(3, 3, 2, seed=11, criterion="discounted", gamma=0.875)
        path = tmp_path / "model.json"
        pa.save_momdp(m, path)
        back = pa.load_momdp(path)
        assert np.array_equal(back.transition, m.transition)
        assert np.array_equal(back.rewards, m.rewards)
        assert back.gamma == m.gamma
        assert np.array_equal(back.d_init, m.d_init)
        assert pa.momdp_to_json(back) == pa.momdp_to_json(m)

    def test_agent_names_survive(self):
        m = pa.gen_simplex_instance(2)
        named = m.replace_rewards(m.rewards, agent_names=("alice", "bob"))
        back = pa.momdp_from_json(pa.momdp_to_json(named))
        assert back.agent_names == ("alice", "bob")

    def test_schema_fields(self):
        import json

        doc = json.loads(pa.momdp_to_json(pa.gen_simplex_instance(2)))
        assert doc["states"] == 1 and doc["actions"] == 2
        assert doc["criterion"] == "average"
        assert len(doc["rewards"]) == 2
