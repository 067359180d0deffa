
import numpy as np
import pytest

import polyagg as pa
from polyagg import _solver, harness, lp, rules
from polyagg.mdp import build_polytope

from conftest import without_isolated_vertices

SAMPLES = 20_000


@pytest.fixture(scope="module")
def simplex2_pipe():
    return harness.prepare(pa.gen_simplex_instance(2), 50_000, seed=101)


@pytest.fixture(scope="module")
def simplex3_pipe():
    return harness.prepare(pa.gen_simplex_instance(3), 50_000, seed=102)


@pytest.fixture(scope="module")
def random_pipe():
    m = pa.random_momdp(3, 3, 3, seed=404)
    return harness.prepare(m, SAMPLES, seed=103)


@pytest.fixture(scope="module")
def volumetric_pipes():
    """Random 4x3x4 seeds 500-503, then warehouse 3x4 seed 2000 (walk seed 7)."""
    models = [pa.random_momdp(4, 3, 4, seed=s) for s in range(500, 504)]
    models.append(pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000)))
    return [harness.prepare(m, SAMPLES, seed=7) for m in models]


def completes(poly, floors, rewards) -> bool:
    """Whether the welfare completion at ``floors`` has a point."""
    try:
        lp.pareto_complete(poly, floors, rewards)
    except pa.InfeasibleBounds:
        return False
    return True


def borda_score(result, cdfs, rewards):
    return float(sum(
        cdfs[i].evaluate(float(rewards[i] @ result.occupancy.flat))
        for i in range(rewards.shape[0])
    ))


class TestUtilitarianEgalitarian:
    def test_single_agent_optimum(self):
        m = pa.gen_simplex_instance(2).replace_rewards(
            pa.gen_simplex_instance(2).rewards[:1])
        pipe = harness.prepare(m, 1000, seed=1)
        res = pa.utilitarian(pipe.model, pipe.poly)
        assert res.returns[0] == pytest.approx(1.0, abs=1e-7)

    def test_identical_agents(self, simplex2_pipe):
        m = simplex2_pipe.model
        doubled = m.replace_rewards(np.stack([m.rewards[0]] * 2))
        res = pa.utilitarian(doubled, simplex2_pipe.poly)
        assert np.allclose(res.returns, 1.0, atol=1e-7)

    def test_simplex_utilitarian_is_flat(self, simplex2_pipe):
        res = pa.utilitarian(simplex2_pipe.model, simplex2_pipe.poly)
        assert res.returns.sum() == pytest.approx(1.0, abs=1e-7)
        again = pa.utilitarian(simplex2_pipe.model, simplex2_pipe.poly)
        assert np.array_equal(res.occupancy.flat, again.occupancy.flat)

    def test_egalitarian_simplex_split(self, simplex2_pipe):
        res = pa.egalitarian(simplex2_pipe.model, simplex2_pipe.poly)
        assert np.allclose(res.occupancy.flat, 0.5, atol=1e-6)
        assert res.certificate.sorted_returns[0] == pytest.approx(0.5, abs=1e-6)

    def test_result_invariants(self, random_pipe):
        res = pa.utilitarian(random_pipe.model, random_pipe.poly)
        r = random_pipe.model.reward_vectors()
        assert np.allclose(res.returns, r @ res.occupancy.flat, atol=1e-9)
        assert random_pipe.poly.contains(res.occupancy, tol=1e-7)
        assert res.diagnostics.lp_solves >= 1


class TestVetoCore:
    def test_delta_formula(self, simplex2_pipe):
        res = pa.veto_core(simplex2_pipe.model, simplex2_pipe.poly,
                           simplex2_pipe.cloud, epsilon=0.05)
        assert res.certificate.delta == 0.5 - 0.05 / 3.0

    def test_single_agent_reaches_optimum(self):
        m = pa.gen_simplex_instance(2)
        single = m.replace_rewards(m.rewards[:1])
        pipe = harness.prepare(single, SAMPLES, seed=7)
        res = pa.veto_core(pipe.model, pipe.poly, pipe.cloud, epsilon=0.01)
        assert res.returns[0] == pytest.approx(1.0, abs=1e-6)

    def test_simplex2_calibration(self, simplex2_pipe):
        res = pa.veto_core(simplex2_pipe.model, simplex2_pipe.poly,
                           simplex2_pipe.cloud, epsilon=0.05)
        cert = res.certificate
        # agent 1 cuts at approximately delta (uniform return law)
        assert cert.thresholds[0] == pytest.approx(cert.delta, abs=0.02)
        for cut in cert.cut_fractions:
            assert cut == pytest.approx(cert.delta, abs=0.02)
        assert np.allclose(res.occupancy.flat, 0.5, atol=0.05)

    def test_epsilon_validation(self, simplex2_pipe):
        with pytest.raises(ValueError):
            pa.veto_core(simplex2_pipe.model, simplex2_pipe.poly,
                         simplex2_pipe.cloud, epsilon=0.6)

    def test_outcome_meets_the_certified_thresholds(self, volumetric_pipes):
        for pipe in volumetric_pipes:
            res = pa.veto_core(pipe.model, pipe.poly, pipe.cloud)
            assert np.all(res.returns >= np.array(res.certificate.thresholds) - 1e-9)

    def test_order_changes_result_deterministically(self, random_pipe):
        a = pa.veto_core(random_pipe.model, random_pipe.poly, random_pipe.cloud,
                         epsilon=0.05, order=(0, 1, 2))
        b = pa.veto_core(random_pipe.model, random_pipe.poly, random_pipe.cloud,
                         epsilon=0.05, order=(2, 1, 0))
        c = pa.veto_core(random_pipe.model, random_pipe.poly, random_pipe.cloud,
                         epsilon=0.05, order=(0, 1, 2))
        assert np.array_equal(a.occupancy.flat, c.occupancy.flat)
        assert b.certificate.order == (2, 1, 0)

    def test_loaded_cloud_gives_same_result_with_one_lp(self, simplex3_pipe, tmp_path):
        path = tmp_path / "cloud.csv"
        pa.save_cloud(simplex3_pipe.cloud, path)
        loaded = pa.load_cloud(path)
        assert np.array_equal(loaded.chart.basis, np.eye(simplex3_pipe.poly.dim))
        a = pa.veto_core(simplex3_pipe.model, simplex3_pipe.poly,
                         simplex3_pipe.cloud, epsilon=0.05)
        b = pa.veto_core(simplex3_pipe.model, simplex3_pipe.poly, loaded, epsilon=0.05)
        assert np.array_equal(a.occupancy.flat, b.occupancy.flat)
        assert a.certificate.thresholds == b.certificate.thresholds
        assert b.diagnostics.lp_solves == 1
        assert b.diagnostics.samples_used == loaded.count

    def test_region_samples_count_the_uncut_cloud(self, simplex3_pipe):
        res = pa.veto_core(simplex3_pipe.model, simplex3_pipe.poly,
                           simplex3_pipe.cloud, epsilon=0.05)
        cert = res.certificate
        count = simplex3_pipe.cloud.count
        left = count
        for k, i in enumerate(cert.order):
            assert cert.region_samples[k] == left
            left -= round(cert.cut_fractions[i] * count)
        # each earlier turn cut at most floor(delta * count) samples
        n = len(cert.order)
        assert cert.region_samples[-1] >= (1 - (n - 1) * cert.delta) * count

    @pytest.mark.parametrize("ell", [3, 4])
    def test_simplex_cuts_match_closed_form(self, ell):
        """True cut volumes, from (1 - sum of thresholds so far)^(l-1), are delta.

        The one-hot simplex gives agent i the return x_i, and the region left
        after cutting x_j < v_j for the agents j so far is a scaled simplex of
        relative volume (1 - sum_j v_j)^(l-1).
        """
        pipe = harness.prepare(pa.gen_simplex_instance(ell), 100_000, seed=420 + ell)
        cert = pa.veto_core(pipe.model, pipe.poly, pipe.cloud, epsilon=0.05).certificate
        taken = 0.0
        for i in cert.order:
            before = (1.0 - taken) ** (ell - 1)
            taken += cert.thresholds[i]
            after = max(1.0 - taken, 0.0) ** (ell - 1)
            assert before - after == pytest.approx(cert.delta, abs=0.02)

    def test_no_blocking_coalition(self, simplex2_pipe):
        res = pa.veto_core(simplex2_pipe.model, simplex2_pipe.poly,
                           simplex2_pipe.cloud, epsilon=0.05)
        r = simplex2_pipe.model.reward_vectors()
        achieved = res.returns
        cloud = simplex2_pipe.cloud
        rng = np.random.default_rng(0)
        n = 2
        for _ in range(200):
            size = int(rng.integers(1, n + 1))
            coalition = rng.choice(n, size=size, replace=False)
            veto_power = size / n
            inside = np.ones(cloud.count, dtype=bool)
            for i in coalition:
                t = rng.uniform(achieved[i], 1.0)
                inside &= cloud.returns(r[i]) >= t
            frac = inside.mean()
            assert frac < 1 - veto_power + 0.05 + 0.02


class TestMaxQuantile:
    def test_single_agent_top_quantile(self):
        m = pa.gen_simplex_instance(2)
        single = m.replace_rewards(m.rewards[:1])
        pipe = harness.prepare(single, SAMPLES, seed=8)
        res = pa.max_quantile(pipe.model, pipe.poly, list(pipe.cdfs))
        assert res.certificate.q_star >= 0.97
        assert res.returns[0] == pytest.approx(1.0, abs=0.02)

    def test_simplex2_level(self, simplex2_pipe):
        res = pa.max_quantile(simplex2_pipe.model, simplex2_pipe.poly,
                              list(simplex2_pipe.cdfs))
        assert res.certificate.q_star == pytest.approx(0.5, abs=0.02)
        assert np.allclose(res.occupancy.flat, 0.5, atol=0.03)

    def test_at_least_one_over_e(self, random_pipe):
        res = pa.max_quantile(random_pipe.model, random_pipe.poly,
                              list(random_pipe.cdfs))
        assert res.certificate.q_star >= 1 / np.e - 0.03

    def test_certificate_consistency(self, simplex3_pipe):
        res = pa.max_quantile(simplex3_pipe.model, simplex3_pipe.poly,
                              list(simplex3_pipe.cdfs))
        cert = res.certificate
        if cert.infeasible_above is not None:
            assert cert.infeasible_above > cert.q_star
        for i, t in enumerate(cert.thresholds):
            assert res.returns[i] >= t - 1e-6

    def test_epsilon_must_divide_one(self, random_pipe):
        # on a grid of 0.3 steps, level 0.9 would be read as q = 1
        with pytest.raises(ValueError, match="1/epsilon must be an integer"):
            pa.max_quantile(random_pipe.model, random_pipe.poly, list(random_pipe.cdfs),
                            epsilon=0.3)

    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
    def test_q_star_is_the_largest_feasible_level(self, volumetric_pipes, epsilon):
        for pipe in volumetric_pipes[:4]:
            cdfs, r = list(pipe.cdfs), pipe.model.reward_vectors()
            levels = [k * epsilon for k in range(round(1 / epsilon))] + [1.0]
            feasible = [q for q in levels
                        if completes(pipe.poly, [pa.quantile_inverse(c, q) for c in cdfs], r)]
            res = pa.max_quantile(pipe.model, pipe.poly, cdfs, epsilon=epsilon)
            assert res.certificate.q_star == max(feasible)


class TestAlphaApproval:
    def test_low_alpha_everyone_approves(self, simplex3_pipe):
        res = pa.alpha_approval(simplex3_pipe.model, simplex3_pipe.poly,
                                list(simplex3_pipe.cdfs), alpha=0.3)
        assert res.certificate.score == 3

    def test_triangle_plurality(self):
        g = pa.Graph(3, ((0, 1), (1, 2), (0, 2)))
        pipe = harness.prepare(pa.gen_from_mis(g), SAMPLES, seed=9)
        res = pa.alpha_approval(pipe.model, pipe.poly, None, alpha=1.0)
        assert res.certificate.score == pa.brute_force_mis(g) == 1

    def test_specific_max2sat(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2), (-1, 2)))
        pipe = harness.prepare(pa.gen_from_max2sat(f), 50_000, seed=10)
        res = pa.alpha_approval(pipe.model, pipe.poly, list(pipe.cdfs), alpha=0.95)
        assert res.certificate.score == pa.brute_force_max2sat(f) == 2

    def test_approving_agents_clear_thresholds(self, random_pipe):
        res = pa.alpha_approval(random_pipe.model, random_pipe.poly,
                                list(random_pipe.cdfs), alpha=0.9)
        for i in res.certificate.approving_agents:
            assert res.returns[i] >= res.certificate.thresholds[i] - 1e-7

    def test_warehouse_milp_exact_despite_highs_print(self, monkeypatch, capfd):
        # On this program (the warehouse benchmark's seed 11, batch 0, slot 4)
        # HiGHS prints "HighsMipSolverData::transformNewIntegerFeasibleSolution
        # tmpSolver.run();" from inside its MIP solver to file descriptor 1,
        # which _solver.milp points at os.devnull; the solve stays exact
        results = []
        solve = _solver.milp

        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(_solver, "milp", spy)
        model = pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2004))
        pipe = harness.prepare(model, 12_800, 2867950245, burn_in=2_000, thinning=16)
        cdfs = list(pipe.cdfs)
        res = pa.alpha_approval(pipe.model, pipe.poly, cdfs, alpha=0.9)
        assert [(r.status, r.gap) for r in results] == [(_solver.OPTIMAL, 0.0)]
        program, _ = rules.approval_program(pipe.model, pipe.poly, cdfs, alpha=0.9)
        assert res.certificate.score == lp.enumerate_milp(program).objective_value
        assert capfd.readouterr() == ("", "")

    def test_budget_error_surfaces(self, simplex3_pipe, node_limit_reached):
        with pytest.raises(pa.MilpBudgetExhausted):
            pa.alpha_approval(simplex3_pipe.model, simplex3_pipe.poly,
                              list(simplex3_pipe.cdfs), alpha=0.7)

    @pytest.mark.parametrize("seed", [201, 208])
    def test_plurality_on_four_site_warehouse(self, seed):
        # 405 variables: LP relaxations with presolve off failed on these
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=4, agents=4, seed=seed))
        poly = build_polytope(m)
        model, _ = pa.normalize_rewards(m, poly)
        res = pa.plurality(model, poly)
        assert res.certificate.score == 1

    @pytest.mark.parametrize("k", [115, 117, 164, 169, 230])
    def test_plurality_equals_mis_on_degenerate_graphs(self, k):
        # graphs whose plurality points once broke the unit-mass or
        # nonnegativity tolerance
        g = without_isolated_vertices(pa.random_graph(8, 0.35, seed=k), seed=10_000 + k)
        m = pa.gen_from_mis(g)
        poly = build_polytope(m)
        model, _ = pa.normalize_rewards(m, poly)
        res = pa.plurality(model, poly)
        assert res.certificate.score == pa.brute_force_mis(g)

    def test_plurality_wrapper(self, simplex2_pipe):
        res = pa.plurality(simplex2_pipe.model, simplex2_pipe.poly)
        assert res.certificate.alpha == 1.0
        assert res.certificate.score == 1


class TestBordaMilp:
    def test_single_agent_all_levels_on(self):
        m = pa.gen_simplex_instance(2)
        single = m.replace_rewards(m.rewards[:1])
        pipe = harness.prepare(single, SAMPLES, seed=11)
        res = pa.borda_milp(pipe.model, pipe.poly, list(pipe.cdfs))
        assert res.returns[0] == pytest.approx(1.0, abs=1e-6)
        assert all(res.certificate.level_indicators[0])

    def test_budget_error_surfaces(self, simplex3_pipe, node_limit_reached):
        with pytest.raises(pa.MilpBudgetExhausted):
            pa.borda_milp(simplex3_pipe.model, simplex3_pipe.poly,
                          list(simplex3_pipe.cdfs))

    @pytest.mark.parametrize("epsilon", [0.3, 0, -0.05, -0.5])
    def test_epsilon_must_divide_one(self, simplex2_pipe, epsilon):
        with pytest.raises(ValueError):
            pa.borda_milp(simplex2_pipe.model, simplex2_pipe.poly,
                          list(simplex2_pipe.cdfs), epsilon=epsilon)

    def test_simplex2_flat_score(self, simplex2_pipe):
        res = pa.borda_milp(simplex2_pipe.model, simplex2_pipe.poly,
                            list(simplex2_pipe.cdfs))
        score = borda_score(res, simplex2_pipe.cdfs,
                            simplex2_pipe.model.reward_vectors())
        assert score == pytest.approx(1.0, abs=0.05)

    def test_indicators_monotone(self, random_pipe):
        res = pa.borda_milp(random_pipe.model, random_pipe.poly,
                            list(random_pipe.cdfs))
        for row in res.certificate.level_indicators:
            assert all(a >= b for a, b in zip(row, row[1:]))

    def test_milps_optimal_and_silent(self, capfd, monkeypatch):
        # HiGHS once printed a line from inside its MIP solver on these
        # programs, past any Python-level output handling
        results = []
        solve = _solver.milp

        def spy(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(_solver, "milp", spy)
        for m in (pa.gen_simplex_instance(4), pa.random_momdp(4, 3, 4, seed=500)):
            pipe = harness.prepare(m, SAMPLES, seed=7)
            for eps in (0.05, 0.1):
                pa.borda_milp(pipe.model, pipe.poly, list(pipe.cdfs), epsilon=eps)
        assert [(r.status, r.gap) for r in results] == [(_solver.OPTIMAL, 0.0)] * 4
        assert capfd.readouterr() == ("", "")

    def test_beats_max_quantile_score(self, random_pipe):
        cdfs = list(random_pipe.cdfs)
        r = random_pipe.model.reward_vectors()
        quant = pa.max_quantile(random_pipe.model, random_pipe.poly, cdfs)
        borda = pa.borda_milp(random_pipe.model, random_pipe.poly, cdfs)
        n = random_pipe.model.num_agents
        assert (borda_score(borda, cdfs, r)
                >= borda_score(quant, cdfs, r) - 0.05 - n * 0.05)


def concave_majorant(xs, ys, x):
    """The least concave function above the points (xs, ys), at x in
    [xs[0], xs[-1]]: the highest chord of two points that straddle x."""
    return max(ys[a] if xs[b] == xs[a] else
               ys[a] + (ys[b] - ys[a]) * (x - xs[a]) / (xs[b] - xs[a])
               for a in range(len(xs)) for b in range(a, len(xs)) if xs[a] <= x <= xs[b])


class TestBordaConcave:
    def test_envelope_objective_is_the_majorant_at_the_returns(self, volumetric_pipes):
        # every mode region of these five models is nonempty
        for pipe in volumetric_pipes:
            cdfs = list(pipe.cdfs)
            res = pa.borda_concave(pipe.model, pipe.poly, cdfs)
            majorants = []
            for cdf, mode, r in zip(cdfs, res.certificate.modes, res.returns):
                xs = np.linspace(mode, max(1.0, mode + 1e-6), rules.CONCAVE_KNOTS)
                majorants.append(concave_majorant(xs, cdf.evaluate(xs),
                                                  float(np.clip(r, xs[0], xs[-1]))))
            assert res.certificate.envelope_objective == pytest.approx(sum(majorants), abs=1e-7)

    def test_single_agent(self):
        m = pa.gen_simplex_instance(2)
        single = m.replace_rewards(m.rewards[:1])
        pipe = harness.prepare(single, SAMPLES, seed=12)
        res = pa.borda_concave(pipe.model, pipe.poly, list(pipe.cdfs))
        assert res.returns[0] == pytest.approx(1.0, abs=0.02)

    def test_agreement_with_milp(self, random_pipe):
        cdfs = list(random_pipe.cdfs)
        r = random_pipe.model.reward_vectors()
        try:
            conc = pa.borda_concave(random_pipe.model, random_pipe.poly, cdfs)
        except pa.ConcaveRegionEmpty:
            pytest.skip("mode region empty on this instance")
        milp = pa.borda_milp(random_pipe.model, random_pipe.poly, cdfs)
        eps = 0.05
        assert (borda_score(conc, cdfs, r)
                >= borda_score(milp, cdfs, r) - 2 * (eps + 0.05))

    def test_empty_mode_region_raises(self, simplex2_pipe):
        from polyagg.volume import ReturnCdf

        high = np.linspace(0.9, 1.0, 500)
        cdfs = [
            ReturnCdf(kind="empirical", samples=high),
            ReturnCdf(kind="empirical", samples=high),
        ]
        with pytest.raises(pa.ConcaveRegionEmpty):
            pa.borda_concave(simplex2_pipe.model, simplex2_pipe.poly, cdfs)


@pytest.fixture(scope="module")
def own_objective_runs(volumetric_pipes):
    """Per pipeline: max-quantile's and borda-milp's results and every other
    rule's returns (borda-concave's where its mode region is nonempty)."""
    out = []
    for pipe in volumetric_pipes:
        others = {}
        for name, params in (("utilitarian", {}), ("egalitarian", {}), ("veto-core", {}),
                             ("approval", {"alpha": 0.9}), ("plurality", {}),
                             ("borda-concave", {})):
            try:
                others[name] = harness.run_rule(name, pipe, **params).returns
            except pa.ConcaveRegionEmpty:
                pass
        out.append((pipe, harness.run_rule("max-quantile", pipe, epsilon=0.01),
                    harness.run_rule("borda-milp", pipe, epsilon=0.05), others))
    return out


class TestOwnObjective:
    """Each volumetric rule scores at least every other rule's outcome on
    its own objective, read through the same CDFs."""

    def test_max_quantile_reaches_every_rules_level(self, own_objective_runs):
        levels = [k * 0.01 for k in range(100)] + [1.0]   # as max_quantile bisects them
        for pipe, quant, borda, others in own_objective_runs:
            for name, r in {**others, "borda-milp": borda.returns}.items():
                achieved = min(cdf.evaluate(v) for cdf, v in zip(pipe.cdfs, r))
                best = max(q for q in levels if achieved >= q)
                assert quant.certificate.q_star >= best, name

    def test_borda_milp_reaches_every_rules_rounded_score(self, own_objective_runs):
        grid = np.arange(21) * 0.05   # as borda_milp spells its levels
        for pipe, quant, borda, others in own_objective_runs:
            for name, r in {**others, "max-quantile": quant.returns}.items():
                levels = np.clip(np.floor(r / 0.05), 0, 20).astype(int)
                score = sum(cdf.evaluate(grid[k]) - cdf.evaluate(0.0)
                            for cdf, k in zip(pipe.cdfs, levels))
                assert borda.certificate.rounded_score >= score - 1e-9, name


class TestCrossRuleProperties:
    RULES = ("utilitarian", "egalitarian", "max-quantile", "borda-milp",
             "plurality")

    @pytest.mark.parametrize("rule", RULES)
    def test_pareto_resolve_check(self, random_pipe, rule):
        res = harness.run_rule(rule, random_pipe)
        r = random_pipe.model.reward_vectors()
        achieved = r @ res.occupancy.flat
        better = pa.pareto_complete(random_pipe.poly, achieved, r)
        assert float((r @ better.flat).sum() - achieved.sum()) < 1e-6

    def test_affine_invariance_of_pipeline(self):
        m = pa.random_momdp(3, 2, 3, seed=31)
        scale = np.array([2.0, 0.5, 4.0])[:, None, None]
        shift = np.array([0.25, -1.5, 3.0])[:, None, None]
        m2 = m.replace_rewards(scale * m.rewards + shift)
        p1 = harness.prepare(m, SAMPLES, seed=32)
        p2 = harness.prepare(m2, SAMPLES, seed=32)
        assert np.array_equal(p1.model.rewards, p2.model.rewards)
        for rule in ("utilitarian", "max-quantile"):
            a = harness.run_rule(rule, p1)
            b = harness.run_rule(rule, p2)
            assert np.array_equal(a.occupancy.flat, b.occupancy.flat)
            assert np.array_equal(a.returns, b.returns)

    def test_rule_results_deterministic(self, random_pipe):
        a = harness.run_rule("borda-milp", random_pipe)
        b = harness.run_rule("borda-milp", random_pipe)
        assert np.array_equal(a.occupancy.flat, b.occupancy.flat)
        assert a.certificate.rounded_score == b.certificate.rounded_score


class TestMilpCompletion:
    """An indicator MILP decides only its binaries; each MILP rule completes
    its assignment once, from the return floors the assignment certifies."""

    @pytest.mark.parametrize("seed", [501, 502, 503])
    @pytest.mark.parametrize("rule, params", [
        ("borda-milp", {"epsilon": 0.1}), ("approval", {"alpha": 0.9}), ("plurality", {})],
        ids=["borda-milp", "approval", "plurality"])
    def test_outcome_is_welfare_optimum_of_its_levels(self, seed, rule, params):
        pipe = harness.prepare(pa.random_momdp(4, 3, 4, seed=seed), 20_000, seed=7)
        r = pipe.model.reward_vectors()
        res = harness.run_rule(rule, pipe, **params)
        cert = res.certificate
        if rule == "borda-milp":   # eps per active level
            floors = 0.1 * np.array([sum(row) for row in cert.level_indicators])
        else:                      # the threshold of each approving agent
            approves = np.isin(np.arange(r.shape[0]), cert.approving_agents)
            floors = np.where(approves, cert.thresholds, 0.0)
        # the rule's floors less COMPLETION_RELAX, whose 1e-9 moves welfare by
        # up to ~1e-8 through the floors' duals
        best = pa.pareto_complete(pipe.poly, floors - rules.COMPLETION_RELAX, r)
        assert res.returns.sum() == pytest.approx(float((r @ best.flat).sum()), abs=1e-9)

    @pytest.mark.parametrize("rule, params", [
        ("approval", {"alpha": 0.9}), ("plurality", {}), ("borda-milp", {})])
    def test_one_milp_and_one_completion(self, random_pipe, rule, params):
        res = harness.run_rule(rule, random_pipe, **params)
        assert res.diagnostics.lp_solves == 2

    @pytest.mark.parametrize("rule", ["plurality", "borda-milp"])
    def test_infeasible_assignment_is_a_solver_fault(self, simplex2_pipe, monkeypatch, rule):
        # a MILP "optimum" with every binary on: no policy gives both agents
        # their top return, so the completion has no point
        def all_on(c, *args, integrality, node_limit, start=None):
            x = np.asarray(integrality, dtype=float)
            return _solver.Result(status=_solver.OPTIMAL, x=x, fun=float(c @ x), nodes=1)

        monkeypatch.setattr(_solver, "milp", all_on)
        with pytest.raises(pa.LpFailure):
            harness.run_rule(rule, simplex2_pipe)

    def test_samples_used_counts_the_cloud_behind_the_cdfs(self, simplex3_pipe):
        count = simplex3_pipe.cloud.count
        expected = {"utilitarian": 0, "egalitarian": 0, "plurality": 0,
                    "veto-core": count, "max-quantile": count, "approval": count,
                    "borda-milp": count, "borda-concave": count}
        used = {rule: harness.run_rule(rule, simplex3_pipe).diagnostics.samples_used
                for rule in expected}
        assert used == expected
