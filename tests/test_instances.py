import numpy as np
import pytest

import polyagg as pa
from polyagg import instances
from polyagg.mdp import build_polytope


class TestWarehouse:
    def test_shapes(self):
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=2, agents=3, seed=0))
        assert m.num_states == 9
        assert m.num_actions == 3
        assert m.num_agents == 3

    def test_monitoring_resets_to_normal(self):
        # m=1: states {norm, risk, inc}; action 0 monitors, action 1 no-op
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=1, agents=1, seed=1))
        assert m.num_states == 3 and m.num_actions == 2
        for stage in (instances.NORM, instances.RISK, instances.INC):
            assert m.transition[stage, 0, instances.NORM] == 1.0

    def test_unmonitored_stage_advance(self):
        params = pa.WarehouseParams(warehouses=1, agents=1, seed=2,
                                    p_risk=(0.6,), p_incident=(0.7,))
        m = pa.gen_warehouse(params)
        noop = 1
        assert m.transition[instances.NORM, noop, instances.RISK] == pytest.approx(0.6)
        assert m.transition[instances.NORM, noop, instances.NORM] == pytest.approx(0.4)
        assert m.transition[instances.RISK, noop, instances.INC] == pytest.approx(0.7)
        assert m.transition[instances.RISK, noop, instances.RISK] == pytest.approx(0.3)
        assert m.transition[instances.INC, noop, instances.INC] == 1.0

    def test_incident_penalty_and_monitoring_cost(self):
        params = pa.WarehouseParams(
            warehouses=1, agents=1, seed=3,
            incident_penalty=(100.0,), agent_scale=(1.0,), agent_sites=((0,),),
        )
        m = pa.gen_warehouse(params)
        inc, monitor, noop = instances.INC, 0, 1
        # no-op while site 0 is at incident: full penalty, no monitoring cost
        assert m.rewards[0, inc, noop] == -100.0
        # monitoring the incident site suppresses the penalty, costs 1
        assert m.rewards[0, inc, monitor] == -1.0
        # no-op in the normal state costs nothing
        assert m.rewards[0, instances.NORM, noop] == 0.0

    def test_rows_sum_exactly_one(self):
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=2, seed=4))
        sums = m.transition.sum(axis=2)
        assert np.all(sums == 1.0)

    def test_product_structure(self):
        params = pa.WarehouseParams(warehouses=2, agents=1, seed=5,
                                    p_risk=(0.5, 0.6), p_incident=(0.7, 0.8))
        m = pa.gen_warehouse(params)
        # state (norm, risk) = 0 + 3*1 = 3, action = no-op (2):
        # site 0: norm->risk 0.5 ; site 1: risk->inc 0.8
        s = 3
        s_next = instances.RISK + 3 * instances.INC  # (risk, inc) = 1 + 6
        assert m.transition[s, 2, s_next] == pytest.approx(0.5 * 0.8)

    def test_reproducible_from_seed(self):
        a = pa.gen_warehouse(pa.WarehouseParams(warehouses=2, agents=2, seed=9))
        b = pa.gen_warehouse(pa.WarehouseParams(warehouses=2, agents=2, seed=9))
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.rewards, b.rewards)

    def test_size_limit(self):
        with pytest.raises(pa.SizeLimit):
            pa.gen_warehouse(pa.WarehouseParams(warehouses=12, agents=1, seed=0))

    def test_discounted_variant(self):
        m = pa.gen_warehouse(pa.WarehouseParams(
            warehouses=1, agents=1, seed=0, criterion="discounted", gamma=0.9))
        assert m.criterion == "discounted"
        assert m.d_init[0] == 1.0
        build_polytope(m)


class TestSimplexInstance:
    def test_construction(self):
        m = pa.gen_simplex_instance(2)
        assert (m.num_states, m.num_actions, m.num_agents) == (1, 2, 2)
        assert np.array_equal(m.rewards[0, 0], [1.0, 0.0])
        assert np.array_equal(m.rewards[1, 0], [0.0, 1.0])

    def test_polytope_is_simplex(self):
        poly = build_polytope(pa.gen_simplex_instance(4))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert poly.contains(rng.dirichlet(np.ones(4)))

    def test_born_normalized(self):
        m = pa.gen_simplex_instance(3)
        poly = build_polytope(m)
        norm, dropped = pa.normalize_rewards(m, poly)
        assert dropped == []
        assert np.allclose(norm.rewards, m.rewards, atol=1e-9)


class TestGraphAndFormulaTypes:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            pa.Graph(num_vertices=2, edges=((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            pa.Graph(num_vertices=3, edges=((0, 1), (1, 0)))

    def test_rejects_repeated_variable_in_clause(self):
        with pytest.raises(ValueError):
            pa.CnfFormula(num_variables=2, clauses=((1, -1),))

    def test_rejects_long_clause(self):
        with pytest.raises(ValueError):
            pa.CnfFormula(num_variables=3, clauses=((1, 2, 3),))


class TestMisReduction:
    def test_single_edge(self):
        g = pa.Graph(num_vertices=2, edges=((0, 1),))
        m = pa.gen_from_mis(g)
        assert (m.num_states, m.num_actions, m.num_agents) == (1, 2, 2)
        d0 = pa.policy_to_occupancy(pa.Policy(pi=np.array([[1.0, 0.0]])), m)
        d1 = pa.policy_to_occupancy(pa.Policy(pi=np.array([[0.0, 1.0]])), m)
        r = m.reward_vectors()
        assert float(r[0] @ d0.flat) > float(r[0] @ d1.flat)
        assert float(r[1] @ d1.flat) > float(r[1] @ d0.flat)

    def test_optimal_agent_sets_are_independent(self):
        g = pa.random_graph(4, 0.6, seed=3)
        m = pa.gen_from_mis(g)
        poly = build_polytope(m)
        r = m.reward_vectors()
        best = np.array([r[i] @ pa.solve_lp(poly, None, r[i]).flat for i in range(m.num_agents)])
        edge_set = set(g.edges)
        for _, d in pa.enumerate_deterministic_policies(m):
            winners = [i for i in range(m.num_agents)
                       if float(r[i] @ d.flat) >= best[i] - 1e-9]
            for a in winners:
                for b in winners:
                    assert (min(a, b), max(a, b)) not in edge_set or a == b

    def test_every_independent_set_attained(self):
        g = pa.Graph(num_vertices=3, edges=((0, 1), (1, 2)))
        m = pa.gen_from_mis(g)
        r = m.reward_vectors()
        best = {i: r[i] @ pa.solve_lp(build_polytope(m), None, r[i]).flat for i in range(3)}
        attained = set()
        for _, d in pa.enumerate_deterministic_policies(m):
            winners = frozenset(
                i for i in range(3) if float(r[i] @ d.flat) >= best[i] - 1e-9
            )
            attained.add(winners)
        assert frozenset({0, 2}) in attained


class TestMax2SatReduction:
    def test_construction(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        assert (m.num_states, m.num_actions, m.num_agents) == (2, 2, 3)

    def test_max_scaled_return_is_two(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        for i in range(3):
            r = m.reward_vectors()[i]
            hi = r @ pa.solve_lp(poly, None, r).flat
            assert hi * m.num_states == pytest.approx(2.0, abs=1e-7)

    def test_at_most_one_agent_above_three_halves(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, -2),))
        m = pa.gen_from_max2sat(f)
        rng = np.random.default_rng(7)
        r = m.reward_vectors()
        for _ in range(200):
            pi = rng.dirichlet(np.ones(2), size=2)
            d = pa.policy_to_occupancy(pa.Policy(pi=pi), m)
            scaled = m.num_states * (r @ d.flat)
            assert np.sum(scaled > 1.5) <= 1

    def test_rounding_soundness(self):
        f = pa.random_2cnf(3, 4, seed=11)
        m = pa.gen_from_max2sat(f)
        rng = np.random.default_rng(13)
        r = m.reward_vectors()
        for _ in range(200):
            pi = rng.dirichlet(np.ones(2), size=m.num_states)
            d = pa.policy_to_occupancy(pa.Policy(pi=pi), m)
            scaled = m.num_states * (r @ d.flat)
            assignment = pi[:, 0] > 0.5  # action 0 is True
            for c, (lit1, lit2) in enumerate(f.clauses):
                if np.any(scaled[3 * c: 3 * c + 3] > 1.5):
                    val1 = assignment[abs(lit1) - 1] == (lit1 > 0)
                    val2 = assignment[abs(lit2) - 1] == (lit2 > 0)
                    assert val1 or val2


class TestBruteForceOracles:
    def test_mis_triangle(self):
        assert pa.brute_force_mis(pa.Graph(3, ((0, 1), (1, 2), (0, 2)))) == 1

    def test_mis_path(self):
        assert pa.brute_force_mis(pa.Graph(3, ((0, 1), (1, 2)))) == 2

    def test_mis_empty_graph_edgeless(self):
        assert pa.brute_force_mis(pa.Graph(4, ())) == 4

    def test_max2sat_example(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2), (-1, 2)))
        assert pa.brute_force_max2sat(f) == 2

    def test_max2sat_contradictory_pair(self):
        # (x1 v x2) and (~x1 v ~x2) both satisfiable by x1=T, x2=F
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2), (-1, -2)))
        assert pa.brute_force_max2sat(f) == 2

    def test_size_limits(self):
        with pytest.raises(pa.SizeLimit):
            pa.brute_force_mis(pa.Graph(21, ((0, 1),)))
        with pytest.raises(pa.SizeLimit):
            pa.brute_force_max2sat(pa.CnfFormula(21, ((1, 2),)))


class TestEnumeratePolicies:
    def test_simplex_vertices(self, simplex3):
        pairs = pa.enumerate_deterministic_policies(simplex3)
        assert len(pairs) == 3
        points = sorted(tuple(np.round(d.flat, 9)) for _, d in pairs)
        assert points == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]

    def test_occupancies_are_members(self, fully_connected_22):
        poly = build_polytope(fully_connected_22)
        for _, d in pa.enumerate_deterministic_policies(fully_connected_22):
            assert poly.contains(d)

    def test_cap(self):
        transition = np.full((8, 8, 8), 1 / 8)
        m = pa.Momdp(transition=instances._snap_rows_to_one(transition.copy()),
                     rewards=np.zeros((1, 8, 8)))
        with pytest.raises(pa.SizeLimit):
            pa.enumerate_deterministic_policies(m)


class TestParsing:
    def test_graph_round_trip(self):
        text = "c comment\np edge 3 2\ne 1 2\ne 2 3\n"
        g = instances.parse_graph(text)
        assert g.num_vertices == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_cnf_round_trip(self):
        text = "c comment\np cnf 2 2\n1 2 0\n-1 2 0\n"
        f = instances.parse_cnf(text)
        assert f.num_variables == 2
        assert f.clauses == ((1, 2), (-1, 2))

    def test_missing_header(self):
        with pytest.raises(ValueError):
            instances.parse_graph("e 1 2\n")


class TestRandomGenerators:
    def test_random_momdp_reproducible_and_dyadic(self):
        a = pa.random_momdp(3, 2, 2, seed=5)
        b = pa.random_momdp(3, 2, 2, seed=5)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.rewards, b.rewards)
        scaled = a.rewards * 2.0**20
        assert np.array_equal(scaled, np.round(scaled))

    def test_random_graph_bounds(self):
        g = pa.random_graph(6, 0.4, seed=8)
        assert g.num_vertices == 6
        assert len(g.edges) >= 1

    def test_random_2cnf_valid(self):
        f = pa.random_2cnf(5, 7, seed=9)
        assert len(f.clauses) == 7
