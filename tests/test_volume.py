import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dger

import polyagg as pa
from polyagg import _solver, harness, volume
from polyagg.mdp import build_polytope

from conftest import strip, unit_box

SAMPLES = 20_000


class TestAffineHull:
    def test_simplex3_chart(self, simplex3):
        poly = build_polytope(simplex3)
        chart = pa.affine_hull(poly)
        assert chart.dim == 2
        assert np.allclose(chart.origin, 1 / 3)
        assert np.max(np.abs(poly.a_eq @ chart.basis)) <= 1e-12
        assert np.array_equal(chart.basis[chart.free], np.eye(2))
        assert np.linalg.matrix_rank(chart.basis) == 2

    def test_two_cycle_dim_zero(self, two_cycle):
        chart = pa.affine_hull(build_polytope(two_cycle))
        assert chart.dim == 0
        assert np.allclose(chart.origin, [0.5, 0.5], atol=1e-9)

    def test_fully_connected_dim(self, fully_connected_22):
        chart = pa.affine_hull(build_polytope(fully_connected_22))
        assert chart.dim == 2

    def test_box_full_dimension(self):
        chart = pa.affine_hull(unit_box(3))
        assert chart.dim == 3
        assert np.allclose(chart.origin, 0.5)

    def test_charted_points_satisfy_equalities(self, simplex3):
        poly = build_polytope(simplex3)
        chart = pa.affine_hull(poly)
        rng = np.random.default_rng(0)
        pts = chart.to_ambient(rng.standard_normal((20, chart.dim)) * 0.1)
        assert np.max(np.abs(poly.a_eq @ pts.T - poly.b_eq[:, None])) < 1e-9

    def test_degenerate_inequality_promoted(self):
        chart = pa.affine_hull(chart_model("squashed", None))
        assert chart.dim == 0
        assert np.allclose(chart.origin, 0.0, atol=1e-9)

    def test_transient_state_rows_promoted(self, transient_53):
        poly = build_polytope(transient_53)
        before = _solver.solve_count
        chart = pa.affine_hull(poly)
        assert _solver.solve_count - before <= 3
        assert chart.dim == 8
        assert poly.max_violation(chart.origin) <= 1e-9

    def test_pinned_box_coordinate(self):
        box = chart_model("pinned", None)
        chart = pa.affine_hull(box)
        assert chart.dim == 2
        assert box.max_violation(chart.origin) <= 1e-9


class TestSampleUniform:
    def test_box_mean(self):
        cloud = pa.sample_uniform(unit_box(2), pa.affine_hull(unit_box(2)),
                                  SAMPLES, seed=1)
        assert np.allclose(cloud.points.mean(axis=0), 0.5, atol=0.01)

    def test_segment_fraction(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), SAMPLES, seed=2)
        frac = float(np.mean(cloud.points[:, 0] <= 0.3))
        assert frac == pytest.approx(0.3, abs=0.02)

    def test_simplex3_halfspace_fraction(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=3)
        fe = pa.vol_fraction(cloud, (-np.eye(3)[0], -1 / 3))
        assert fe.fraction == pytest.approx((2 / 3) ** 2, abs=0.01)

    def test_membership(self, fully_connected_22):
        poly = build_polytope(fully_connected_22)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 2000, seed=4)
        worst = max(poly.max_violation(x) for x in cloud.points[::100])
        assert worst <= 1e-7

    def test_bitwise_reproducible(self, simplex3):
        poly = build_polytope(simplex3)
        chart = pa.affine_hull(poly)
        a = pa.sample_uniform(poly, chart, 5000, seed=9)
        b = pa.sample_uniform(poly, chart, 5000, seed=9)
        assert np.array_equal(a.points, b.points)
        c = pa.sample_uniform(poly, chart, 5000, seed=10)
        assert not np.array_equal(a.points, c.points)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_one_sweep_records_are_independent_on_box(self, dim):
        # along a box axis the chord is the whole edge, so one sweep
        # redraws every coordinate: consecutive records are independent
        box = unit_box(dim)
        cloud = pa.sample_uniform(box, pa.affine_hull(box), SAMPLES, seed=41)
        chains = cloud.walk_params.chains
        per_chain = -(-SAMPLES // chains)
        padded = np.full(chains * per_chain, np.nan)
        padded[:SAMPLES] = cloud.points[:, 0]
        walks = padded.reshape(chains, per_chain)
        now, nxt = walks[:, :-1].ravel(), walks[:, 1:].ravel()
        both = ~(np.isnan(now) | np.isnan(nxt))
        rho = np.corrcoef(now[both], nxt[both])[0, 1]
        assert abs(rho) <= 0.05

    def test_warehouse_cloud_stays_in_polytope(self):
        model = pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000))
        poly = build_polytope(model)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 12_800, seed=42,
                                  burn_in=2_000, thinning=16)
        assert max(poly.max_violation(x) for x in cloud.points) <= 1e-9

    @pytest.mark.parametrize("name", ["warehouse", "box"])
    def test_walk_without_resync_stays_in_polytope(self, name):
        # 100 + 300 steps, under the 512 between resyncs: every record rests
        # on the rank-1 slack updates alone
        if name == "warehouse":
            poly = build_polytope(pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000)))
        else:
            poly = unit_box(5)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 64 * 300, seed=3,
                                  burn_in=100, thinning=1)
        assert max(poly.max_violation(x) for x in cloud.points) <= 1e-9

    def test_transient_state_cloud_in_polytope(self, transient_53):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pipe = harness.prepare(transient_53, 2000, seed=5)
        assert not pipe.cloud.degenerate
        assert pipe.cloud.chart.dim == 8
        assert np.ptp(pipe.cloud.points, axis=0).max() > 0.01
        assert max(pipe.poly.max_violation(x) for x in pipe.cloud.points) <= 1e-9

    def test_walk_peak_memory(self):
        # the walk holds its records and one ambient cloud; a copy of the
        # cloud on the way out would read ~3x
        poly = build_polytope(pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000)))
        chart = pa.affine_hull(poly)
        tracemalloc.start()
        try:
            cloud = pa.sample_uniform(poly, chart, 12_800, seed=2000,
                                      burn_in=2_000, thinning=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * cloud.points.nbytes

    def test_walk_peak_against_chart_records(self):
        # the cloud keeps the walk's chart-coordinate records; an ambient
        # cloud on top of them would read ~2.7x
        poly = build_polytope(pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000)))
        chart = pa.affine_hull(poly)
        tracemalloc.start()
        try:
            cloud = pa.sample_uniform(poly, chart, 12_800, seed=2000,
                                      burn_in=2_000, thinning=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        records = cloud.count * chart.dim * np.dtype(float).itemsize
        assert peak <= 2.0 * records

    def test_unbounded_axis_raises(self):
        poly = strip()
        with pytest.raises(pa.DegeneratePolytope, match="unbounded"):
            pa.sample_uniform(poly, pa.affine_hull(poly), 100, seed=0)

    def test_degenerate_polytope_repeats_point(self, two_cycle):
        poly = build_polytope(two_cycle)
        chart = pa.affine_hull(poly)
        with pytest.warns(UserWarning, match="zero-dimensional"):
            cloud = pa.sample_uniform(poly, chart, 100, seed=0)
        assert cloud.degenerate
        assert cloud.count == 100
        assert np.allclose(cloud.points, [0.5, 0.5])

    @pytest.mark.parametrize("walk", [
        {"count": 0}, {"burn_in": -5}, {"thinning": 0}, {"chains": 0},
        {"thinning": 0, "chains": 0, "burn_in": -5},
    ])
    def test_bad_walk_parameters_rejected_on_a_point(self, two_cycle, walk):
        # a zero-dimensional chart takes no step, yet its walk parameters
        # are checked as for any other
        poly = build_polytope(two_cycle)
        chart = pa.affine_hull(poly)
        assert chart.dim == 0
        kwargs = {"count": 100, "seed": 0, **walk}
        with pytest.raises(ValueError, match="count must be positive|bad walk parameters"):
            pa.sample_uniform(poly, chart, **kwargs)


def reference_walk(poly, chart, count, seed, burn_in, thinning,
                   chains=volume.DEFAULT_CHAINS):
    """The coordinate walk as a plain step loop: what sample_uniform computes.

    Same chart rows, PCG64 stream, sweeps, walk lengths and resync period;
    each step gathers the axis's rows, reduces them to the chord, draws the
    point and moves along it with the same floating-point operations in the
    same order.
    """
    dim = chart.dim
    gy, hy = volume._intrinsic_inequalities(poly, chart.basis, chart.origin)
    keep = np.linalg.norm(gy, axis=1) > 1e-12
    gy, hy = gy[keep], hy[keep]
    axes = [volume._axis_rows(gy[:, k]) for k in range(dim)]
    rng = np.random.default_rng(seed)
    per_chain = -(-count // chains)
    block = -(-volume.SWEEP_BLOCK_STEPS // dim) * dim
    y = np.zeros((dim, chains))
    slack = np.tile(hy[:, None], (1, chains))
    records = np.empty((per_chain, chains, dim))
    rec = 0
    for step in range(burn_in + per_chain * thinning):
        j = step % block
        if j == 0:
            sweeps = np.tile(np.arange(dim), (block // dim, 1))
            order = rng.permuted(sweeps, axis=1).ravel()
            uniforms = rng.random((block, chains))
        k = order[j]
        rows, inv, n_pos, col = axes[k]
        r = np.take(slack, rows, axis=0) * inv
        t_hi = np.min(r[:n_pos], axis=0)
        t_lo = np.max(r[n_pos:], axis=0)
        t = (t_hi - t_lo) * uniforms[j] + t_lo
        t[t_hi < t_lo] = 0.0
        y[k] += t
        dger(-1.0, t, col, a=slack.T, overwrite_a=1)
        if (step + 1) % 512 == 0:
            slack = hy[:, None] - gy @ y
        if step >= burn_in and (step - burn_in + 1) % thinning == 0:
            records[rec] = y.T
            rec += 1
    flat = records.transpose(1, 0, 2).reshape(chains * per_chain, dim)[:count]
    return flat @ chart.basis.T + chart.origin


CHART_MODELS = ["warehouse", "simplex", "transient", "box"]


def chart_model(name, transient_53):
    """The polytope of one named test model (``transient`` is the fixture's)."""
    return {
        "warehouse": lambda: build_polytope(
            pa.gen_warehouse(pa.WarehouseParams(3, 4, seed=2000))),
        "simplex": lambda: build_polytope(pa.gen_simplex_instance(4)),
        "transient": lambda: build_polytope(transient_53),
        "box": lambda: unit_box(3),
        "max2sat": lambda: build_polytope(
            pa.gen_from_max2sat(pa.random_2cnf(6, 5, seed=0))),
        # triangle squashed flat: x + y <= 0 with x, y >= 0 pins the origin
        "squashed": lambda: pa.OccupancyPolytope(
            a_ub=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), b_ub=np.zeros(3),
            a_eq=np.zeros((0, 2)), b_eq=np.zeros(0)),
        # 0 <= x3 <= 0 flattens the unit cube to a square
        "pinned": lambda: pa.OccupancyPolytope(
            a_ub=unit_box(3).a_ub, b_ub=np.array([1.0, 1, 0, 0, 0, 0]),
            a_eq=np.zeros((0, 3)), b_eq=np.zeros(0)),
    }[name]()


def intrinsic_chebyshev_origin(poly, basis, particular):
    """The Chebyshev LP as it was posed in intrinsic coordinates:
    ``max r`` over ``[y ; r]`` with ``g_i basis y + |g_i basis| r <= h_i - g_i particular``."""
    gy, hy = volume._intrinsic_inequalities(poly, basis, particular)
    norms = np.linalg.norm(gy, axis=1)
    active = np.flatnonzero(norms > 1e-12)
    dim = basis.shape[1]
    c = np.zeros(dim + 1)
    c[dim] = -1.0
    res = _solver.lp(c, a_ub=np.hstack([gy[active], norms[active, None]]), b_ub=hy[active])
    tight = active[-res.duals > pa.lp.FEAS_TOL]
    return particular + basis @ res.x[:dim], float(res.x[dim]), tight


class TestChebyshevOrigin:
    """The ambient Chebyshev LP finds the intrinsic LP's origin, radius and
    tight rows in every round of ``affine_hull``'s flattening loop."""

    @pytest.mark.parametrize("name", CHART_MODELS + ["squashed", "pinned"])
    def test_matches_intrinsic_lp(self, name, transient_53, monkeypatch):
        rounds = []
        ambient = volume._chebyshev_origin

        def spy(poly, a_eq, b_eq, basis, particular):
            found = ambient(poly, a_eq, b_eq, basis, particular)
            rounds.append((found, intrinsic_chebyshev_origin(poly, basis, particular)))
            return found

        monkeypatch.setattr(volume, "_chebyshev_origin", spy)
        pa.affine_hull(chart_model(name, transient_53))
        assert rounds
        for (origin, radius, tight), (ref_origin, ref_radius, ref_tight) in rounds:
            assert abs(radius - ref_radius) <= 1e-9
            assert np.array_equal(tight, ref_tight)
            # at radius 0 every point of the polytope is optimal, and
            # affine_hull discards that round's point
            if radius > volume.INTERIOR_TOL:
                assert np.max(np.abs(origin - ref_origin)) <= 1e-9
        if name in ("squashed", "pinned", "transient"):   # the loop promoted rows
            assert rounds[0][0][1] <= volume.INTERIOR_TOL and rounds[0][0][2].size


class TestReferenceWalk:
    """sample_uniform equals the plain step loop bit for bit.

    Every walk crosses a SWEEP_BLOCK_STEPS block boundary (a fresh draw of
    sweeps and uniforms) and at least one resync; counts that are not a
    multiple of the chains truncate the last chain's records.
    """

    @pytest.mark.parametrize("name, count, burn_in, thinning", [
        ("warehouse", 9_000, 2_000, 16),   # 4,256 steps; records mid-sweep
        ("simplex", 30_000, None, None),   # dim 3: 4,407 steps
        ("transient", 2_000, None, None),  # dim 8: 8,256 steps
        ("box", 30_000, None, None),       # dim 3: 4,407 steps
        ("max2sat", 2_000, None, None),    # dim 6: 6,192 steps
    ])
    def test_matches_reference_walk(self, name, count, burn_in, thinning, transient_53):
        poly = chart_model(name, transient_53)
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, count, seed=11,
                                  burn_in=burn_in, thinning=thinning)
        params = cloud.walk_params
        steps = params.burn_in + -(-count // params.chains) * params.thinning
        block = -(-volume.SWEEP_BLOCK_STEPS // chart.dim) * chart.dim
        assert steps > max(block, 512)
        expected = reference_walk(poly, chart, count, 11, params.burn_in, params.thinning)
        assert np.array_equal(cloud.points, expected)


def identity_cloud(pts):
    """A hand-built cloud whose coordinates are its (count, n) points."""
    n = pts.shape[1]
    chart = volume.HullChart(basis=np.eye(n), origin=np.zeros(n), dim=n, free=np.arange(n))
    return volume.SampleCloud(
        coords=pts, chart=chart,
        seed=0, walk_params=volume.WalkParams(burn_in=0, thinning=1, count=len(pts)))


class TestChartCoordinates:
    """Chart coordinates are offsets of free ambient entries, and a cloud's
    returns read through its chart match its ambient points."""

    @pytest.mark.parametrize("name", CHART_MODELS)
    def test_chart_on_free_entries(self, name, transient_53):
        # the basis spans the equality rows' null space with the identity on
        # its free rows, so an axis moves its own entry and at most every
        # entry that is not free
        poly = chart_model(name, transient_53)
        chart = pa.affine_hull(poly)
        ambient, dim = chart.basis.shape
        assert dim == chart.dim and chart.free.shape == (dim,)
        assert np.max(np.abs(poly.a_eq @ chart.basis), initial=0.0) <= 1e-12
        assert np.array_equal(chart.basis[chart.free], np.eye(dim))
        assert np.linalg.matrix_rank(chart.basis) == dim
        moved = np.sum(np.abs(chart.basis) > volume.AXIS_ZERO_TOL, axis=0)
        assert moved.max() <= ambient - dim + 1

    @pytest.mark.parametrize("name", CHART_MODELS)
    def test_coords_are_free_entry_offsets(self, name, transient_53):
        poly = chart_model(name, transient_53)
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, 3000, seed=12)
        free, origin = chart.free, chart.origin
        assert np.max(np.abs(cloud.coords - (cloud.points[:, free] - origin[free]))) <= 1e-12
        y = np.random.default_rng(3).standard_normal((20, chart.dim))
        assert np.max(np.abs((chart.to_ambient(y) - origin)[:, free] - y)) <= 1e-12

    @pytest.mark.parametrize("name", CHART_MODELS)
    def test_returns_match_points(self, name, transient_53):
        poly = chart_model(name, transient_53)
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, 3000, seed=12)
        assert cloud.coords.shape == (3000, chart.dim)
        for r in np.random.default_rng(0).random((3, poly.dim)):
            assert np.max(np.abs(cloud.returns(r) - cloud.points @ r)) <= 1e-12

    def test_loaded_returns_bitwise(self, tmp_path, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 500, seed=24)
        path = tmp_path / "cloud.csv"
        pa.save_cloud(cloud, path)
        back = pa.load_cloud(path)
        for r in simplex3.rewards:
            assert np.array_equal(back.returns(r), cloud.points @ r.reshape(-1))

    def test_degenerate_returns_origin(self, two_cycle):
        poly = build_polytope(two_cycle)
        chart = pa.affine_hull(poly)
        with pytest.warns(UserWarning, match="zero-dimensional"):
            cloud = pa.sample_uniform(poly, chart, 50, seed=0)
        assert cloud.coords.shape == (50, 0)
        r = np.array([[1.0], [3.0]])
        assert np.array_equal(cloud.returns(r), np.full(50, chart.origin @ r.reshape(-1)))


class TestOwnership:
    """Clouds and cdfs own read-only arrays that no caller can write."""

    def test_cloud_copies_caller_array(self):
        pts = np.random.default_rng(1).random((50, 3))
        kept = pts.copy()
        cloud = identity_cloud(pts)
        pts[:] = 0.0
        assert np.array_equal(cloud.points, kept)

    def test_cloud_copies_caller_read_only_view(self):
        base = np.random.default_rng(2).random((50, 3))
        view = base[:]
        view.flags.writeable = False
        cloud = identity_cloud(view)
        base[:] = 0.0
        assert not np.shares_memory(cloud.coords, base)

    def test_cdf_copies_caller_array_and_keeps_its_order(self):
        values = np.random.default_rng(3).random(100)
        kept = values.copy()
        cdf = volume.ReturnCdf(agent=0, kind="empirical", samples=values)
        assert np.array_equal(values, kept)
        values[:] = 0.0
        assert np.array_equal(cdf.samples, np.sort(kept))

    def test_cdf_sorts_caller_read_only_array_in_a_copy(self):
        values = np.random.default_rng(4).random(100)
        kept = values.copy()
        values.flags.writeable = False
        cdf = volume.ReturnCdf(agent=0, kind="empirical", samples=values)
        assert np.array_equal(values, kept)
        assert np.array_equal(cdf.samples, np.sort(kept))

    @pytest.mark.parametrize("kind", ["empirical", "logistic"])
    def test_arrays_read_only(self, tmp_path, simplex3, two_cycle, kind):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 2000, seed=5)
        pa.save_cloud(cloud, tmp_path / "cloud.csv")
        flat = build_polytope(two_cycle)
        with pytest.warns(UserWarning, match="zero-dimensional"):
            degenerate = pa.sample_uniform(flat, pa.affine_hull(flat), 10, seed=0)
        clouds = [cloud, pa.load_cloud(tmp_path / "cloud.csv"), degenerate,
                  identity_cloud(np.ones((4, 2)))]
        for c in clouds:
            for a in (c.coords, c.points):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 1.0
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[0], kind=kind)
        with pytest.raises(ValueError, match="read-only"):
            cdf.samples[0] = 1.0

    def test_cloud_shares_memory_with_no_other_array(self, simplex3):
        poly = build_polytope(simplex3)
        chart = pa.affine_hull(poly)
        cloud = pa.sample_uniform(poly, chart, 2000, seed=6)
        again = pa.sample_uniform(poly, chart, 2000, seed=6)
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[0])
        coords = cloud.coords
        # a view of the walk's read-only records, which nothing else holds
        assert coords.base.flags.owndata and not coords.base.flags.writeable
        reachable = [poly.a_ub, poly.b_ub, poly.a_eq, poly.b_eq, chart.basis,
                     chart.origin, again.coords, cloud.points, cdf.samples]
        assert not any(np.shares_memory(coords, a) for a in reachable)


class TestVolFraction:
    def test_full_and_empty(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 2000, seed=6)
        assert pa.vol_fraction(cloud, (np.zeros(2), 1.0)).fraction == 1.0
        assert pa.vol_fraction(cloud, (np.ones(2), 0.5)).fraction == 0.0

    def test_complement_of_tight_cut(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=7)
        fe = pa.vol_fraction(cloud, (np.eye(3)[0], 1 / 3))
        assert fe.fraction == pytest.approx(1 - 4 / 9, abs=0.01)
        assert 0.001 < fe.std_error < 0.01


class TestEstimateCdf:
    def test_uniform_cdf_on_segment(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=8)
        cdf = pa.estimate_cdf(cloud, simplex2.rewards[0])
        grid = np.linspace(0.02, 0.98, 49)
        assert np.max(np.abs(cdf.evaluate(grid) - grid)) <= 0.02

    def test_max2sat_agent_closed_form(self):
        # scaled returns v in [0, 2] with cdf v^2/2 below 1: F(3/2) = 7/8
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=9)
        scaled = m.rewards[0] * m.num_states
        cdf = pa.estimate_cdf(cloud, scaled)
        assert cdf.evaluate(1.5) == pytest.approx(7 / 8, abs=0.02)
        assert cdf.evaluate(0.5) == pytest.approx(0.125, abs=0.02)

    def test_empirical_exact_at_extremes(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 2000, seed=10)
        cdf = pa.estimate_cdf(cloud, simplex2.rewards[0])
        lo, hi = cdf.support
        assert cdf.evaluate(lo) == 0.0
        assert cdf.evaluate(hi) == 1.0

    @pytest.mark.parametrize("kind", ["empirical", "logistic"])
    def test_samples_sorted_and_support_their_range(self, simplex3, kind):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 5000, seed=10)
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[0], kind=kind)
        expected = np.sort(cloud.returns(simplex3.rewards[0]))
        assert np.array_equal(cdf.samples, expected)
        assert cdf.support == (expected[0], expected[-1])

    def test_logistic_fit_smooth_target(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=11)
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[0], kind="logistic")
        truth = lambda v: 1 - (1 - v) ** 2
        grid = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(np.asarray(cdf.evaluate(grid)) - truth(grid))) <= 0.06

    def test_logistic_accepted_on_s_shaped_cdf(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=23)
        cdf = pa.estimate_cdf(cloud, m.rewards[0] * m.num_states, kind="logistic")
        assert cdf.kind == "logistic"
        assert cdf.evaluate(1.5) == pytest.approx(7 / 8, abs=0.02)
        assert cdf.evaluate(cdf.support[0]) == 0.0
        assert cdf.evaluate(cdf.support[1]) == 1.0

    def test_logistic_rejection_falls_back(self):
        # two tight clusters: no generalized-logistic cdf fits within 0.05
        pts = np.concatenate([np.full(500, 0.0), np.full(500, 1.0)])
        cloud = identity_cloud(pts[:, None])
        cdf = pa.estimate_cdf(cloud, np.array([1.0]), kind="logistic")
        assert cdf.kind == "empirical"

    def test_monotone(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 5000, seed=12)
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[1])
        grid = np.linspace(*cdf.support, 200)
        values = np.asarray(cdf.evaluate(grid))
        assert np.all(np.diff(values) >= -1e-12)


class TestQuantileInverse:
    def test_q_zero_gives_support_min(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 2000, seed=13)
        cdf = pa.estimate_cdf(cloud, simplex2.rewards[0])
        assert pa.quantile_inverse(cdf, 0.0) == cdf.support[0]

    def test_uniform_median(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=14)
        cdf = pa.estimate_cdf(cloud, simplex2.rewards[0])
        assert pa.quantile_inverse(cdf, 0.5) == pytest.approx(0.5, abs=0.02)

    def test_max2sat_seven_eighths(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=15)
        cdf = pa.estimate_cdf(cloud, m.rewards[0] * m.num_states)
        assert pa.quantile_inverse(cdf, 7 / 8) == pytest.approx(1.5, abs=0.03)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100))
    def test_monotone_in_q(self, pct):
        rng = np.random.default_rng(42)
        pts = np.sort(rng.beta(2, 3, size=4000))[:, None]
        cloud = identity_cloud(pts)
        cdf = pa.estimate_cdf(cloud, np.array([1.0]))
        q1 = pct / 100.0
        q2 = min(1.0, q1 + 0.07)
        assert pa.quantile_inverse(cdf, q1) <= pa.quantile_inverse(cdf, q2) + 1e-12


BISECTION_REL_TOL = 1e-4   # the reference bisection's width, relative to the support


def reference_quantile(cdf, q):
    """The smallest v with F(v) >= q, bracketed by bisection through
    ReturnCdf.evaluate to width 1e-4 of the support: an upper bound on it
    within that width."""
    lo, hi = cdf.support
    if q <= 0.0 or lo == hi:
        return lo
    delta = BISECTION_REL_TOL * (hi - lo)
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        if cdf.evaluate(mid) >= q:
            hi = mid
        else:
            lo = mid
    return float(hi)


class TestQuantileReference:
    QS = [0.0, 1.0, 1e-12, 1 - 1e-12, 0.5]

    @pytest.mark.parametrize("seed", range(40))
    def test_empirical_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3001))
        values = rng.normal(size=n)
        if seed % 2:
            values = np.round(values, 1)   # ties
        cdf = volume.ReturnCdf(agent=0, kind="empirical", samples=values)
        lo, hi = cdf.support
        for q in self.QS + list(rng.random(10)):
            v = pa.quantile_inverse(cdf, q)
            # the definition: the smallest float of the support with F(v) >= q
            assert lo <= v <= hi
            assert cdf.evaluate(v) >= q
            assert v == lo or cdf.evaluate(np.nextafter(v, -np.inf)) < q
            assert v <= reference_quantile(cdf, q) <= v + BISECTION_REL_TOL * (hi - lo)

    def test_levels_on_the_rank_grid(self):
        # levels k / n and their float neighbours, where q * n can round
        # across an integer; k * 0.1 is how max-quantile spells its levels
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 10, 20, 97, 1000):
            cdf = volume.ReturnCdf(agent=0, kind="empirical", samples=rng.normal(size=n))
            lo = cdf.support[0]
            qs = [k / n for k in range(1, n + 1)] + [k * 0.1 for k in range(1, 11)]
            for q in qs + [np.nextafter(q, d) for q in qs for d in (0.0, 2.0)]:
                q = min(float(q), 1.0)
                v = pa.quantile_inverse(cdf, q)
                assert cdf.evaluate(v) >= q
                assert v == lo or cdf.evaluate(np.nextafter(v, -np.inf)) < q

    def test_logistic_matches_reference(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 20_000, seed=23)
        cdf = pa.estimate_cdf(cloud, m.rewards[0] * m.num_states, kind="logistic")
        assert cdf.kind == "logistic"
        s = cdf.samples
        narrow = volume.ReturnCdf(agent=0, kind="logistic",
                                  samples=s[(s >= 0.5) & (s <= 1.75)], params=cdf.params)
        growth, midpoint, asymmetry = cdf.params
        for c in (cdf, narrow):
            lo, hi = c.support
            for q in self.QS[1:] + list(np.linspace(0.01, 0.99, 25)):
                v = pa.quantile_inverse(c, q)
                with np.errstate(divide="ignore"):
                    raw = midpoint - np.log(np.float64(q) ** (-1 / asymmetry) - 1) / growth
                if lo < raw < hi:
                    assert abs(c.evaluate(v) - q) <= 1e-12
                else:
                    assert v == (lo if raw <= lo else hi)
                assert v <= reference_quantile(c, q) + BISECTION_REL_TOL * (hi - lo)
            assert pa.quantile_inverse(c, 0.0) == lo


class TestCentroidAndMode:
    def test_simplex_centroid(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=16)
        c = pa.centroid_estimate(cloud)
        assert np.allclose(c.flat, 1 / 3, atol=0.01)
        assert poly.contains(c, tol=1e-9)

    def test_box_centroid(self):
        box = unit_box(2)
        cloud = pa.sample_uniform(box, pa.affine_hull(box), SAMPLES, seed=17)
        c = volume.centroid_point(cloud)
        assert np.allclose(c, 0.5, atol=0.01)

    def test_grunbaum_on_random_models(self):
        hits = []
        for seed in range(8):
            m = pa.random_momdp(2 + seed % 2, 2 + (seed // 2) % 2, 2, seed=seed)
            poly = build_polytope(m)
            norm, _ = pa.normalize_rewards(m, poly)
            cloud = pa.sample_uniform(poly, pa.affine_hull(poly), SAMPLES, seed=seed)
            c = pa.centroid_estimate(cloud)
            for i in range(norm.num_agents):
                r = norm.reward_vectors()[i]
                j_c = float(r @ c.flat)
                fe = pa.vol_fraction(cloud, (-r, -j_c))
                hits.append(fe.fraction)
        assert min(hits) >= 1 / np.e - 0.03

    def test_mode_decreasing_density(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=18)
        cdf = pa.estimate_cdf(cloud, simplex3.rewards[0])
        assert pa.mode_estimate(cdf) <= 0.1

    def test_mode_triangular_density(self):
        f = pa.CnfFormula(num_variables=2, clauses=((1, 2),))
        m = pa.gen_from_max2sat(f)
        poly = build_polytope(m)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 200_000, seed=19)
        cdf = pa.estimate_cdf(cloud, m.rewards[0] * m.num_states)
        assert pa.mode_estimate(cdf) == pytest.approx(1.0, abs=0.05)

    def test_flat_density_reports_inside_support(self, simplex2):
        poly = build_polytope(simplex2)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), SAMPLES, seed=20)
        cdf = pa.estimate_cdf(cloud, simplex2.rewards[0])
        assert 0.0 <= pa.mode_estimate(cdf) <= 1.0

    def test_histogram_unimodal_up_to_bin_noise(self, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 50_000, seed=21)
        values = cloud.returns(simplex3.rewards[1])
        counts, _ = np.histogram(values, bins=25)
        peak = int(np.argmax(counts))
        rising = counts[: peak + 1]
        falling = counts[peak:]
        slack = 3 * np.sqrt(counts.max())
        assert np.all(np.diff(rising) >= -slack)
        assert np.all(np.diff(falling) <= slack)


class TestCloudInterchange:
    def test_csv_round_trip_bitwise(self, tmp_path, simplex3):
        poly = build_polytope(simplex3)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 500, seed=22)
        path = tmp_path / "cloud.csv"
        pa.save_cloud(cloud, path)
        back = pa.load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.seed == cloud.seed
        assert back.walk_params == cloud.walk_params

    def test_round_trip_keeps_table_shape(self, tmp_path):
        model = pa.gen_warehouse(pa.WarehouseParams(1, 2, seed=706))
        poly = build_polytope(model)
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 500, seed=23)
        path = tmp_path / "cloud.csv"
        pa.save_cloud(cloud, path)
        back = pa.load_cloud(path)
        assert back.table_shape == cloud.table_shape == poly.table_shape
        assert pa.centroid_estimate(back).table.shape == poly.table_shape

    @pytest.fixture
    def saved(self, tmp_path):
        """Lines of a saved 200-sample cloud: its header, then its rows."""
        poly = build_polytope(pa.gen_simplex_instance(3))
        cloud = pa.sample_uniform(poly, pa.affine_hull(poly), 200, seed=25)
        pa.save_cloud(cloud, tmp_path / "cloud.csv")
        return (tmp_path / "cloud.csv").read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("damage, match", [
        (lambda lines: lines[:50], "has 49 rows but its header says count=200"),
        (lambda lines: lines[:1], "has no rows"),
        (lambda lines: [lines[0]] + [",".join(ln.split(",")[:2]) + "\n"
                                     for ln in lines[1:]],
         "has 2 columns but its header says table_shape=1x3"),
        (lambda lines: lines[:7] + ["nan,0.5,0.5\n"] + lines[8:], "not finite"),
        (lambda lines: [lines[0].replace(" seed=25", "")] + lines[1:],
         "malformed header: KeyError"),
    ])
    def test_rejects_damaged_file(self, tmp_path, saved, damage, match):
        path = tmp_path / "damaged.csv"
        path.write_text("".join(damage(saved)))
        with pytest.raises(ValueError, match=match):
            pa.load_cloud(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            pa.load_cloud(path)
