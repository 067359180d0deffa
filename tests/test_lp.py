import copy
import dataclasses

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy._core import HighsModelStatus

import polyagg as pa
from polyagg import _solver, harness, lp, rules, volume
from polyagg.mdp import MASS_TOL, build_polytope

from conftest import strip, transient_53_model, unit_box


@pytest.fixture
def simplex3_poly(simplex3):
    return build_polytope(simplex3)


class TestSolveLp:
    def test_total_mass_objective(self, simplex3_poly):
        point = pa.solve_lp(simplex3_poly, None, np.ones(3))
        assert np.ones(3) @ point.flat == pytest.approx(1.0, abs=1e-7)

    def test_vertex_optimum(self, simplex3, simplex3_poly):
        r1 = simplex3.reward_vectors()[0]
        point = pa.solve_lp(simplex3_poly, None, r1)
        assert r1 @ point.flat == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(point.flat, [1.0, 0.0, 0.0], atol=1e-7)

    def test_infeasible_extra_row(self, simplex3, simplex3_poly):
        r1 = simplex3.reward_vectors()[0]
        with pytest.raises(pa.InfeasibleBounds):
            pa.solve_lp(simplex3_poly, (-r1[None], [-2.0]), r1)

    def test_point_satisfies_extra_rows(self, simplex3, simplex3_poly):
        r1 = simplex3.reward_vectors()[0]
        point = pa.solve_lp(simplex3_poly, (r1[None], [0.4]), r1)
        assert r1 @ point.flat == pytest.approx(0.4, abs=1e-7)

    def test_determinism_bitwise(self, simplex3_poly):
        coeffs = np.array([0.3, 0.3, 0.4])
        a = pa.solve_lp(simplex3_poly, None, coeffs)
        b = pa.solve_lp(simplex3_poly, None, coeffs)
        assert np.array_equal(a.flat, b.flat)

    def test_objective_length_checked(self, simplex3_poly):
        with pytest.raises(ValueError):
            pa.solve_lp(simplex3_poly, None, np.ones(2))

    def test_point_off_unit_mass_raises(self):
        # the unit square's optimum (1, 1) is no occupancy measure: it is
        # refused, not rescaled to the point (0.5, 0.5) of another objective
        box = unit_box(2)
        for call in (lambda: pa.solve_lp(box, None, [1.0, 1.0]),
                     lambda: pa.pareto_complete(box, [0.0, 0.0], np.eye(2)),
                     lambda: pa.leximin(box, np.eye(2))):
            with pytest.raises(ValueError, match="mass 2, not 1"):
                call()


class TestImpliedBounds:
    """x >= 0 is implied by every polytope and reaches the solver as bounds."""

    def test_marginals_keep_one_entry_per_row_in_order(self):
        # max x + 2y over x + y <= 1 with x, y >= 0 as singleton rows around
        # it and one slack row last: one marginal per row, in row order
        res = _solver.lp([-1.0, -2.0],
                         a_ub=[[-1.0, 0.0], [1.0, 1.0], [0.0, -1.0], [1.0, -2.0]],
                         b_ub=[0.0, 1.0, 0.0, 5.0])
        assert res.x == pytest.approx([0.0, 1.0])
        duals = res.duals
        assert duals.shape == (4,)
        assert duals[1] == pytest.approx(-2.0)
        assert duals[2] == pytest.approx(0.0)
        assert duals[3] == pytest.approx(0.0)

    def test_strip_charts_and_solves_with_y_free(self):
        # the strip is 0 <= x <= 1 with y >= 0 from the orthant; the solver
        # leaves y free unless it is given the orthant's bounds
        poly = strip()
        assert pa.affine_hull(poly).dim == 2
        res = _solver.lp([0.0, 1.0], *poly.program())
        assert res.status == _solver.OPTIMAL
        assert res.x[1] == pytest.approx(0.0)
        with pytest.raises(pa.LpFailure):  # y unbounded above
            _solver.lp([0.0, -1.0], *poly.program())
        with pytest.raises(pa.LpFailure):  # y free: unbounded below
            _solver.lp([0.0, 1.0], a_ub=poly.a_ub, b_ub=poly.b_ub)
        with pytest.raises(pa.DegeneratePolytope, match="unbounded"):
            pa.sample_uniform(poly, pa.affine_hull(poly), count=10, seed=0)


def recorded_lps(monkeypatch, run):
    """The ``(args, kwargs)`` of every ``_solver.lp`` call ``run()`` makes,
    copied before the caller can modify them."""
    calls = []
    solve = _solver.lp

    def spy(*args, **kwargs):
        calls.append(copy.deepcopy((args, kwargs)))
        return solve(*args, **kwargs)

    monkeypatch.setattr(_solver, "lp", spy)
    run()
    monkeypatch.undo()
    return calls


def linprog_reference(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)):
    """The same LP through scipy's linprog with the options ``_solver.lp`` uses."""
    def rows(a):
        return None if a is None or not np.size(a) else np.asarray(a, dtype=float)

    return linprog(np.asarray(c, dtype=float), A_ub=rows(a_ub), b_ub=rows(b_ub),
                   A_eq=rows(a_eq), b_eq=rows(b_eq), bounds=bounds, method="highs",
                   options={"presolve": False})


def assert_matches_linprog(args, kwargs):
    res = _solver.lp(*args, **kwargs)
    ref = linprog_reference(*args, **kwargs)
    assert res.status == ref.status
    if ref.status == _solver.OPTIMAL:
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun
        assert np.array_equal(res.duals, np.concatenate([ref.ineqlin.marginals,
                                                         ref.eqlin.marginals]))
    else:
        assert res.x is None and ref.x is None


def borda_program(pipe, epsilon, monkeypatch) -> lp.MilpProgram:
    """The MILP that ``borda_milp`` poses on a prepared pipeline."""
    programs = []
    solve = lp.milp_solve

    def spy(program, start=None):
        programs.append(program)
        return solve(program, start)

    monkeypatch.setattr(lp, "milp_solve", spy)
    rules.borda_milp(pipe.model, pipe.poly, list(pipe.cdfs), epsilon=epsilon)
    monkeypatch.undo()
    return programs[0]


@pytest.fixture(scope="module")
def random_500_pipe():
    # borda_concave's mode region is nonempty on this model
    return harness.prepare(pa.random_momdp(4, 3, 4, seed=500), 20_000, seed=7)


class TestLinprogReference:
    """``_solver`` drives HiGHS itself and agrees bit for bit with scipy's
    ``linprog`` and ``milp`` under the same options."""

    @pytest.mark.parametrize("solve", ["constructor", "borda_concave"])
    def test_programs_over_the_polytope(self, solve, random_500_pipe, monkeypatch):
        m, poly, cdfs = random_500_pipe.model, random_500_pipe.poly, list(random_500_pipe.cdfs)
        run = {
            "constructor": lambda: build_polytope(m),
            "borda_concave": lambda: rules.borda_concave(m, poly, cdfs),  # hypograph LP
        }[solve]
        calls = recorded_lps(monkeypatch, run)
        assert calls
        for args, kwargs in calls:
            assert_matches_linprog(args, kwargs)

    def test_warehouse_return_bounds(self, monkeypatch):
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=4, seed=2000))
        poly = build_polytope(m)
        calls = recorded_lps(monkeypatch, lambda: pa.normalize_rewards(m, poly))
        assert len(calls) == 2 * m.num_agents
        for args, kwargs in calls:
            assert_matches_linprog(args, kwargs)

    def test_chebyshev_lp_of_transient_model(self, transient_53, monkeypatch):
        poly = build_polytope(transient_53)
        calls = recorded_lps(monkeypatch, lambda: volume.affine_hull(poly))
        assert calls
        for args, kwargs in calls:
            res = _solver.lp(*args, **kwargs)
            assert np.any(-res.duals > lp.FEAS_TOL)  # tight rows found
            assert_matches_linprog(args, kwargs)

    def test_infeasible_system(self, simplex3):
        poly = build_polytope(simplex3)
        r = simplex3.reward_vectors()
        args = (np.zeros(poly.dim), *poly.program((-r, np.full(3, -0.5))))
        kwargs = {}
        assert _solver.lp(*args, **kwargs).status == _solver.INFEASIBLE
        assert_matches_linprog(args, kwargs)

    def test_iteration_limit_raises(self, monkeypatch):
        # _solver sets no LP limit, so HiGHS cannot stop early for real;
        # a stop at one is a failed solve, not an infeasible or optimal one
        class IterationLimitHighs(_solver._Highs):
            def getModelStatus(self):
                return HighsModelStatus.kIterationLimit

        monkeypatch.setattr(_solver, "_Highs", IterationLimitHighs)
        with pytest.raises(pa.LpFailure, match="Iteration limit"):
            _solver.lp([0.0, 1.0], *strip().program())

    def test_unbounded_system_raises(self):
        # min -y over 0 <= x <= 1, y >= 0
        args = ([0.0, -1.0], *strip().program())
        kwargs = {}
        assert linprog_reference(*args, **kwargs).status == 3  # unbounded
        with pytest.raises(pa.LpFailure, match="Unbounded"):
            _solver.lp(*args, **kwargs)

    def test_milp_matches_scipy_milp(self, random_500_pipe, monkeypatch):
        poly = random_500_pipe.poly
        plurality, _ = rules.approval_program(random_500_pipe.model, poly, None, alpha=1.0)
        for program in (plurality, borda_program(random_500_pipe, 0.05, monkeypatch)):
            c, a_ub, b_ub, a_eq, b_eq, bounds = lp._relaxation_system(program)
            integrality = np.concatenate([np.zeros(poly.dim), np.ones(program.weights.size)])
            res = _solver.milp(c, a_ub, b_ub, a_eq, b_eq, bounds, integrality=integrality,
                               node_limit=lp.NODE_LIMIT)
            ref = milp(c, integrality=integrality, bounds=Bounds(bounds[:, 0], bounds[:, 1]),
                       constraints=[LinearConstraint(a_ub, -np.inf, b_ub),
                                    LinearConstraint(a_eq, b_eq, b_eq)],
                       options={"presolve": True, "mip_rel_gap": 0.0,
                                "node_limit": lp.NODE_LIMIT})
            assert res.status == ref.status == _solver.OPTIMAL
            assert np.array_equal(res.x, ref.x)
            assert res.fun == ref.fun
            assert res.nodes == ref.mip_node_count
            assert res.gap == ref.mip_gap == 0.0


# the eight rule configurations, by registered name and parameters (Borda
# at eps 0.1: at 0.05 its MILP takes about a second on the MAX-2SAT models)
RULE_CONFIGS = (("utilitarian", {}), ("egalitarian", {}), ("veto-core", {}),
                ("max-quantile", {}), ("approval", {"alpha": 0.9}), ("plurality", {}),
                ("borda-milp", {"epsilon": 0.1}), ("borda-concave", {}))


@pytest.fixture(scope="module")
def battery():
    """16 models: the one-hot simplex l = 3..5, random 4x3x4 seeds 500..503,
    MAX-2SAT (4 variables, 3 clauses: 9 agents) and MIS (6 vertices)
    encodings at seeds 0..2, ``transient_53``, a discounted 2-site warehouse
    and warehouse 3x4 seed 2000, on short walks."""
    models = [
        *(pa.gen_simplex_instance(ell) for ell in (3, 4, 5)),
        *(pa.random_momdp(4, 3, 4, seed=s) for s in range(500, 504)),
        *(pa.gen_from_max2sat(pa.random_2cnf(4, 3, seed=s)) for s in range(3)),
        *(pa.gen_from_mis(pa.random_graph(6, 0.5, seed=s)) for s in range(3)),
        transient_53_model(),
        pa.gen_warehouse(pa.WarehouseParams(2, 3, seed=609, criterion="discounted")),
        pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000)),
    ]
    return [harness.prepare(m, 4000, seed=7, burn_in=2000, thinning=16) for m in models]


def on_fresh_polytope(pipe):
    """The pipeline with an equal polytope that holds no warm model yet."""
    return dataclasses.replace(pipe, poly=dataclasses.replace(pipe.poly))


def run_configs(pipe, configs=RULE_CONFIGS):
    """Each configuration's result, or the type of the error it raised."""
    out = {}
    for name, params in configs:
        try:
            out[name] = harness.run_rule(name, pipe, **params)
        except pa.PolyaggError as exc:
            out[name] = type(exc).__name__
    return out


def row_violation(args, x) -> float:
    """How far ``x`` lies outside the rows of ``_solver.lp(*args)``."""
    _, a_ub, b_ub, a_eq, b_eq, _ = args
    return max(np.max(a_ub @ x - b_ub, initial=0.0),
               np.max(np.abs(a_eq @ x - b_eq), initial=0.0))


def same_result(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return (np.array_equal(a.occupancy.flat, b.occupancy.flat)
            and np.array_equal(a.returns, b.returns)
            and harness.result_doc(a)["certificate"] == harness.result_doc(b)["certificate"])


class TestWarmModel:
    """Return-floor LPs share one warm model per polytope and reward matrix,
    and every solve of it starts from the home basis."""

    def test_warm_solves_match_cold_lps(self, battery, monkeypatch):
        solves = []   # (the LP's cold arguments, the warm result)

        class RecordingWarm(_solver.Warm):
            def __init__(self, c, a_ub, b_ub, a_eq, b_eq, bounds):
                super().__init__(c, a_ub, b_ub, a_eq, b_eq, bounds)
                self.rows = copy.deepcopy((a_ub, a_eq, b_eq))
                solves.append((copy.deepcopy((c, a_ub, b_ub, a_eq, b_eq, bounds)), self.home))

            def solve(self, c, b_ub, bounds):
                res = super().solve(c, b_ub, bounds)
                a_ub, a_eq, b_eq = self.rows
                solves.append((copy.deepcopy((c, a_ub, b_ub, a_eq, b_eq, bounds)), res))
                return res

        monkeypatch.setattr(_solver, "Warm", RecordingWarm)
        for pipe in battery:
            pipe = on_fresh_polytope(pipe)
            run_configs(pipe)
            r = pipe.model.reward_vectors()
            # every agent's floor above its maximum, all at once and one
            # agent at a time
            n = r.shape[0]
            for floors in (np.full(n, 1.01), *np.where(np.eye(n, dtype=bool), 1.01, 0.0)):
                with pytest.raises(pa.InfeasibleBounds):
                    lp.pareto_complete(pipe.poly, floors, r)
        infeasible = 0
        for args, res in solves:
            ref = _solver.lp(*args)
            assert res.status == ref.status
            if ref.status == _solver.OPTIMAL:
                # HiGHS accepts a point up to 1e-7 outside its rows, and that
                # slack moves the optimum by up to the duals times it: ten
                # solves here, most of them leximin's on the MAX-2SAT models,
                # differ from cold by 2e-9 to 2e-7
                slack = max(row_violation(args, res.x), row_violation(args, ref.x))
                duals = max(np.abs(res.duals).sum(), np.abs(ref.duals).sum())
                assert slack <= 1e-7
                assert abs(res.fun - ref.fun) <= 1e-9 + duals * slack
            infeasible += ref.status == _solver.INFEASIBLE
        assert len(solves) > 20 * len(battery)
        assert infeasible >= 2 * len(battery)

    def test_milp_starts_keep_enumeration_scores(self, battery, monkeypatch):
        calls = []
        solve = lp.milp_solve

        def spy(program, start=None):
            calls.append((program, start))
            return solve(program, start)

        monkeypatch.setattr(lp, "milp_solve", spy)
        for pipe in battery:
            # Borda at eps 0.5: two levels an agent
            run_configs(pipe, (("approval", {"alpha": 0.9}), ("plurality", {}),
                               ("borda-milp", {"epsilon": 0.5})))
        monkeypatch.undo()
        assert len(calls) == 3 * len(battery)
        checked = 0
        for program, start in calls:
            assert start is not None
            if program.weights.size <= 10:   # the oracle's cost doubles with each binary
                assert (solve(program, start).objective_value
                        == pytest.approx(lp.enumerate_milp(program).objective_value, abs=1e-9))
                checked += 1
        assert checked >= 2 * len(battery)

    @pytest.mark.parametrize("index", [3, 15])   # random 4x3x4 seed 500, warehouse 3x4 seed 2000
    def test_results_do_not_depend_on_rule_order(self, battery, index):
        pipe = battery[index]
        forward = run_configs(on_fresh_polytope(pipe))
        backward = run_configs(on_fresh_polytope(pipe), RULE_CONFIGS[::-1])
        for config in RULE_CONFIGS:
            alone = run_configs(on_fresh_polytope(pipe), (config,))[config[0]]
            assert same_result(forward[config[0]], backward[config[0]])
            assert same_result(forward[config[0]], alone)

    def test_nan_floor_raises(self, simplex3, simplex3_poly):
        r = simplex3.reward_vectors()
        floors = [np.nan, 0.0, 0.0]
        with pytest.raises(ValueError, match="NaN"):
            lp.pareto_complete(simplex3_poly, floors, r)
        model = _solver.Warm([0.0, 1.0], *strip().program())
        with pytest.raises(ValueError, match="NaN"):
            model.solve([0.0, 1.0], [np.nan, 0.0], strip().program()[-1])

    def test_infinite_floor_is_infeasible(self, simplex3, simplex3_poly):
        r = simplex3.reward_vectors()
        floors = [np.inf, 0.0, 0.0]
        with pytest.raises(pa.InfeasibleBounds):
            lp.pareto_complete(simplex3_poly, floors, r)

    def test_home_point_is_the_welfare_optimum(self, simplex3, simplex3_poly):
        r = simplex3.reward_vectors()
        before = _solver.solve_count
        home = lp.home_point(simplex3_poly, r)
        again = lp.home_point(simplex3_poly, r)
        assert _solver.solve_count - before == 1   # one home solve, kept by the polytope
        assert np.array_equal(home, again)
        assert (r @ home).sum() == pytest.approx(1.0, abs=1e-9)

    def test_milp_start_off_its_rows_raises(self, simplex2):
        poly = build_polytope(simplex2)
        r = simplex2.reward_vectors()
        program = lp.MilpProgram(base=poly, weights=np.ones(2),
                                 rows=(np.hstack([-r, np.diag([0.9, 0.9])]), np.zeros(2)))
        assert lp.milp_solve(program, start=[1.0, 0.0, 1.0, 0.0]).objective_value == 1.0
        for start in ([1.0, 0.0, 1.0, 1.0],    # agent 1 returns 0 < 0.9
                      [1.0, 0.0, 0.5, 0.0],    # not binary
                      [0.6, 0.6, 0.0, 0.0],    # off the unit-mass row
                      [1.0, 0.0, 1.0]):        # one value short
            with pytest.raises(ValueError):
                lp.milp_solve(program, start=start)


class TestParetoComplete:
    def test_zero_bounds_is_utilitarian(self, simplex2):
        poly = build_polytope(simplex2)
        r = simplex2.reward_vectors()
        point = pa.pareto_complete(poly, [0.0, 0.0], r)
        assert poly.contains(point)
        welfare = (r @ point.flat).sum()
        assert welfare == pytest.approx(1.0, abs=1e-7)

    def test_tight_bounds_pin_point(self, simplex2):
        poly = build_polytope(simplex2)
        r = simplex2.reward_vectors()
        point = pa.pareto_complete(poly, [0.5, 0.5], r)
        assert np.allclose(point.flat, [0.5, 0.5], atol=1e-6)

    def test_infeasible_bounds(self, simplex2):
        poly = build_polytope(simplex2)
        with pytest.raises(pa.InfeasibleBounds):
            pa.pareto_complete(poly, [0.6, 0.6], simplex2.reward_vectors())

    def test_no_dominating_point(self):
        m = pa.random_momdp(3, 3, 3, seed=21)
        poly = build_polytope(m)
        norm, _ = pa.normalize_rewards(m, poly)
        r = norm.reward_vectors()
        point = pa.pareto_complete(poly, np.zeros(r.shape[0]), r)
        achieved = r @ point.flat
        better = pa.pareto_complete(poly, achieved, r)
        assert (r @ better.flat).sum() - achieved.sum() < 1e-6


class TestLeximin:
    def test_clamped_point_keeps_unit_mass(self):
        # HiGHS leaves many entries of a probe LP's point a hair below zero
        # on this warehouse; clamped without rescaling they added 1.6e-7 of
        # mass and the occupancy measure was rejected
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=4, seed=1843504253))
        poly = build_polytope(m)
        model, _ = pa.normalize_rewards(m, poly)
        point = pa.leximin(poly, model.reward_vectors())
        assert poly.max_violation(point.flat) <= MASS_TOL

    def test_warehouse_pins_by_duals(self):
        # one floor LP per round, each pinning at least one agent, plus the
        # final welfare completion
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=4, seed=2000))
        poly = build_polytope(m)
        model, _ = pa.normalize_rewards(m, poly)
        res = pa.egalitarian(model, poly)
        assert res.diagnostics.lp_solves <= model.num_agents + 1

    @pytest.mark.parametrize("seed", [1843504253, 2000, 2001, 2002, 2003, 2004])
    def test_warehouse_returns_meet_pins(self, seed, monkeypatch):
        # on seed 1843504253 the round-3 floor LP reports t* a few ulps above
        # 1 and pins at t* itself left the welfare completion infeasible
        m = pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=4, seed=seed))
        poly = build_polytope(m)
        model, _ = pa.normalize_rewards(m, poly)
        r = model.reward_vectors()
        pins = []
        complete = lp.pareto_complete

        def spy(poly, lower_bounds, reward_vectors):
            pins.append(np.asarray(lower_bounds))
            return complete(poly, lower_bounds, reward_vectors)

        monkeypatch.setattr(lp, "pareto_complete", spy)
        point = lp.leximin(poly, r)
        assert np.all(r @ point.flat >= pins[0] - lp.FEAS_TOL)

    def test_zero_reward_agent_pinned_at_zero(self, simplex3):
        poly = build_polytope(simplex3)
        r = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        point = pa.leximin(poly, r)
        assert r @ point.flat == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_simplex_split(self, simplex2):
        poly = build_polytope(simplex2)
        point = pa.leximin(poly, simplex2.reward_vectors())
        assert np.allclose(point.flat, [0.5, 0.5], atol=1e-6)

    def test_single_agent_max(self, simplex2):
        poly = build_polytope(simplex2)
        point = pa.leximin(poly, simplex2.reward_vectors()[:1])
        assert float(simplex2.reward_vectors()[0] @ point.flat) == pytest.approx(1.0, abs=1e-6)

    def test_identical_agents_match_utilitarian(self, simplex2):
        poly = build_polytope(simplex2)
        r = np.vstack([simplex2.reward_vectors()[0]] * 2)
        point = pa.leximin(poly, r)
        util = pa.pareto_complete(poly, [0.0, 0.0], r)
        assert float(r[0] @ point.flat) == pytest.approx(float(r[0] @ util.flat), abs=1e-6)

    def test_sorted_returns_dominate_samples(self):
        m = pa.random_momdp(3, 3, 3, seed=33)
        poly = build_polytope(m)
        norm, _ = pa.normalize_rewards(m, poly)
        r = norm.reward_vectors()
        point = pa.leximin(poly, r)
        ours = np.sort(r @ point.flat)
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, 1000, seed=4)
        for x in cloud.points:
            theirs = np.sort(r @ x)
            # lexicographic comparison with tolerance
            for a, b in zip(ours, theirs):
                if a > b + 1e-6:
                    break
                assert a >= b - 1e-6

    def test_three_agent_staircase(self):
        # one state, 3 actions; agents 1/2 share action 0's reward, agent 3 owns action 2
        transition = np.ones((1, 3, 1))
        rewards = np.zeros((3, 1, 3))
        rewards[0, 0, 0] = 1.0
        rewards[1, 0, 0] = 1.0
        rewards[2, 0, 2] = 1.0
        m = pa.Momdp(transition=transition, rewards=rewards)
        poly = build_polytope(m)
        point = pa.leximin(poly, m.reward_vectors())
        returns = m.reward_vectors() @ point.flat
        # floor 0.5 for all; agents 1,2 then rise to their cap
        assert np.sort(returns)[0] == pytest.approx(0.5, abs=1e-6)
        assert returns[2] == pytest.approx(0.5, abs=1e-6)
        assert returns[0] == pytest.approx(0.5, abs=1e-6)


class TestMilp:
    def _approval_program(self, momdp, thresholds):
        poly = build_polytope(momdp)
        r = momdp.reward_vectors()
        return lp.MilpProgram(base=poly, weights=np.ones(r.shape[0]),
                              rows=(np.hstack([-r, np.diag(thresholds)]), np.zeros(r.shape[0])))

    def test_relaxation_already_integral(self, simplex3):
        # thresholds so weak every agent is satisfiable at once
        program = self._approval_program(simplex3, [0.0, 0.0, 0.0])
        sol = pa.milp_solve(program)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-6)
        assert sol.binary_assignment == (1, 1, 1)

    def test_conflicting_thresholds(self, simplex2):
        program = self._approval_program(simplex2, [0.9, 0.9])
        sol = pa.milp_solve(program)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sum(sol.binary_assignment) == 1

    def test_matches_enumeration_on_random_programs(self):
        rng = np.random.default_rng(9)
        for trial in range(6):
            m = pa.random_momdp(2, 3, 4, seed=100 + trial)
            poly = build_polytope(m)
            norm, _ = pa.normalize_rewards(m, poly)
            r = norm.reward_vectors()
            thresholds = rng.uniform(0.3, 0.9, size=r.shape[0])
            program = lp.MilpProgram(base=poly, weights=np.ones(r.shape[0]),
                                     rows=(np.hstack([-r, np.diag(thresholds)]),
                                           np.zeros(r.shape[0])))
            a = pa.milp_solve(program)
            b = lp.enumerate_milp(program)
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-6)

    def test_budget_exhaustion_surfaces(self, simplex3, node_limit_reached):
        program = self._approval_program(simplex3, [0.4, 0.4, 0.4])
        with pytest.raises(pa.MilpBudgetExhausted):
            pa.milp_solve(program)

    def test_no_fitting_assignment_raises(self, simplex2):
        # one binary forced on whose threshold no policy reaches
        poly = build_polytope(simplex2)
        r = simplex2.reward_vectors()
        program = lp.MilpProgram(base=poly, weights=[1.0],
                                 rows=(np.vstack([np.hstack([-r[:1], [[2.0]]]),
                                                  np.concatenate([np.zeros(poly.dim), [-1.0]])]),
                                       [0.0, -1.0]))
        for solve in (pa.milp_solve, lp.enumerate_milp):
            with pytest.raises(pa.InfeasibleBounds):
                solve(program)

    def test_highs_node_limit_maps_to_iteration_limit(self):
        # a 60-item, 5-row knapsack HiGHS needs over a hundred nodes to close
        rng = np.random.default_rng(1)
        weights = rng.integers(10, 100, (5, 60)).astype(float)
        values = rng.integers(10, 100, 60).astype(float)
        res = _solver.milp(-values, weights, weights.sum(axis=1) / 3, bounds=(0.0, 1.0),
                           integrality=np.ones(60), node_limit=1)
        assert res.status == _solver.ITERATION_LIMIT

    def test_deterministic(self, simplex3):
        thresholds = np.array([0.5, 0.5, 0.5])
        program = self._approval_program(simplex3, thresholds)
        a = pa.milp_solve(program)
        b = pa.milp_solve(program)
        assert a.binary_assignment == b.binary_assignment
        assert a.objective_value == b.objective_value
        # the MILP decides only its binaries; the completed outcome is a
        # function of the assignment
        r = simplex3.reward_vectors()
        a_done, b_done = (pa.pareto_complete(program.base,
                                             np.where(s.binary_assignment, thresholds, 0.0), r)
                          for s in (a, b))
        assert np.array_equal(a_done.flat, b_done.flat)

    def test_binary_rows_respected(self, simplex2):
        # two binaries forced into a monotone chain: z1 <= z0
        poly = build_polytope(simplex2)
        r = simplex2.reward_vectors()
        chain_row = np.concatenate([np.zeros(poly.dim), [-1.0, 1.0]])
        program = lp.MilpProgram(
            base=poly,
            weights=[0.1, 1.0],
            rows=(np.vstack([np.hstack([-r[:2], np.diag([0.9, 0.9])]), chain_row]),
                  np.zeros(3)),
        )
        sol = pa.milp_solve(program)
        z0, z1 = sol.binary_assignment
        assert z1 <= z0


def with_level_rows(program, rewards, epsilon):
    """The Borda relaxation plus each level's own row
    ``(k + 1) eps z_{i,k} <= <R_i, d>``, which the program leaves out."""
    c, a_ub, b_ub, a_eq, b_eq, bounds = lp._relaxation_system(program)
    n = rewards.shape[0]
    k_max = program.weights.size // n
    levels = np.hstack([-np.repeat(rewards, k_max, axis=0),
                        np.diag(np.tile(epsilon * np.arange(1, k_max + 1), n))])
    return (c, np.vstack([a_ub, levels]), np.concatenate([b_ub, np.zeros(n * k_max)]),
            a_eq, b_eq, bounds)


class TestBordaProgram:
    """Borda's MILP poses the monotone and aggregate rows only; they imply
    every level's own row, in the LP relaxation too."""

    @pytest.fixture(scope="class")
    def random_pipes(self):
        return {seed: harness.prepare(pa.random_momdp(4, 3, 4, seed=seed), 4000, seed=7)
                for seed in range(500, 504)}

    @pytest.mark.parametrize("epsilon", [0.05, 0.1])
    @pytest.mark.parametrize("seed", range(500, 504))
    def test_relaxation_equals_one_with_level_rows(self, seed, epsilon, random_pipes,
                                                   monkeypatch):
        pipe = random_pipes[seed]
        program = borda_program(pipe, epsilon, monkeypatch)
        a, _ = program.rows
        assert a.shape[0] == program.weights.size   # monotone and aggregate rows
        ours = _solver.lp(*lp._relaxation_system(program))
        full = _solver.lp(*with_level_rows(program, pipe.model.reward_vectors(), epsilon))
        assert ours.status == full.status == _solver.OPTIMAL
        assert abs(ours.fun - full.fun) <= 1e-9

    @pytest.mark.parametrize("seed", [600, 601, 602])
    def test_milp_matches_enumeration(self, seed, monkeypatch):
        # 3 agents at eps 0.25: 12 binaries
        pipe = harness.prepare(pa.random_momdp(3, 3, 3, seed=seed), 2000, seed=7)
        program = borda_program(pipe, 0.25, monkeypatch)
        assert program.weights.size == 12
        a = pa.milp_solve(program)
        b = lp.enumerate_milp(program)
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)
