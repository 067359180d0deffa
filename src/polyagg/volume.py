"""Volumetric oracle over the occupancy polytope.

The polytope's equality rows give it zero ambient volume, so all sampling
happens in intrinsic coordinates on its affine hull: a strictly interior
origin plus a null-space basis of the equality system whose coordinates are
offsets of ``dim`` free ambient entries.  Volume-fraction queries, per-agent
return CDFs, quantile inversion, centroid and density-mode estimates are all
derived from one shared uniform sample cloud.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr
from scipy.linalg.blas import dger
from scipy.optimize import least_squares

from . import _solver
from .errors import DegeneratePolytope
from .lp import FEAS_TOL
from .mdp import OccupancyMeasure, OccupancyPolytope

EMPIRICAL = "empirical"
LOGISTIC = "logistic"

INTERIOR_TOL = 1e-10      # minimum Chebyshev radius before degeneracy
DEFAULT_CHAINS = 64
LOGISTIC_MAX_DEV = 0.05   # reject a fit whose cdf deviates more than this
SWEEP_BLOCK_STEPS = 4096  # walk steps per block of random draws, before rounding
AXIS_ZERO_TOL = 1e-14     # chart-axis entries this small never bound a chord
MODE_BINS = 100           # histogram bins of mode_estimate


@dataclass(frozen=True, eq=False)
class HullChart:
    """Affine-hull parametrization x = origin + basis @ y, y in R^dim.

    ``basis[free]`` is the identity, so coordinate k is the offset of ambient
    entry ``free[k]`` from the origin, and a point of the hull reads its
    coordinates off those entries.
    """

    basis: np.ndarray   # (ambient, dim)
    origin: np.ndarray  # strictly interior ambient point
    dim: int
    free: np.ndarray    # (dim,) ambient indices with basis[free] = I

    def to_ambient(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.basis.T + self.origin


@dataclass(frozen=True)
class WalkParams:
    burn_in: int
    thinning: int
    count: int
    chains: int = DEFAULT_CHAINS


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """Uniform samples of a polytope, kept in its hull chart's coordinates.

    ``coords`` is a (count, chart.dim) matrix: sample k is the ambient point
    ``chart.origin + chart.basis @ coords[k]``.  Per-agent returns are read
    through the chart, so no ambient copy of the cloud is ever held; a
    zero-dimensional cloud has (count, 0) ``coords``.  Reproducible
    bit-for-bit from (seed, walk_params).  ``degenerate`` marks clouds over
    zero-dimensional polytopes, where every sample is the unique feasible
    point.

    ``coords`` is read-only.  An array that is already read-only, C-ordered
    float64 and owns its data or views a read-only array that does, as
    :func:`sample_uniform` and :func:`load_cloud` build it, is kept as it
    is; anything else is copied, so later writes to a caller's array leave
    the cloud unchanged.
    """

    coords: np.ndarray
    chart: HullChart
    seed: int
    walk_params: WalkParams
    degenerate: bool = False
    table_shape: tuple[int, int] | None = None

    def __post_init__(self):
        c = self.coords
        if not _sealed(c):
            c = _seal(np.array(c, dtype=float, order="C", copy=True))
        object.__setattr__(self, "coords", c)

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The samples as a fresh read-only (count, ambient) matrix."""
        return _seal(self.chart.to_ambient(self.coords))

    def returns(self, reward_table) -> np.ndarray:
        """Per-sample returns <x, R> for one reward table (any shape)."""
        r = np.asarray(reward_table, dtype=float).reshape(-1)
        values = self.coords @ (self.chart.basis.T @ r)
        values += self.chart.origin @ r
        return values


@dataclass(frozen=True, eq=False)
class FractionEstimate:
    fraction: float
    std_error: float
    count: int


@dataclass(frozen=True, eq=False)
class ReturnCdf:
    """Estimated cdf of one agent's return over the polytope.

    ``samples`` holds the sorted sample returns regardless of kind, read-only,
    and ``support`` is their range, at whose ends F reads exactly 0 and 1.
    The logistic kind evaluates inside it through fitted parameters
    ``(growth, midpoint, asymmetry)`` of ``(1 + exp(-B (v - M)))**(-nu)``.

    A 1-D array that is already sorted, read-only, float64 and owns its data
    (or views a read-only array that does), as :func:`estimate_cdf` builds
    it, is kept as it is; anything else is copied and the copy sorted, so a
    caller's array is never reordered.
    """

    agent: int | str
    kind: str
    samples: np.ndarray
    params: tuple[float, float, float] | None = None

    def __post_init__(self):
        s = self.samples
        if not (_sealed(s) and s.ndim == 1 and bool(np.all(s[:-1] <= s[1:]))):
            s = np.array(s, dtype=float, copy=True)
            s.sort()
            _seal(s)
        object.__setattr__(self, "samples", s)

    @property
    def support(self) -> tuple[float, float]:
        """The samples' range."""
        return float(self.samples[0]), float(self.samples[-1])

    def evaluate(self, v):
        """F(v), vectorized; exactly 0/1 at or beyond the support edges."""
        v = np.asarray(v, dtype=float)
        lo, hi = self.support
        if self.kind == LOGISTIC:
            out = _logistic(v, *self.params)
        else:
            s = self.samples
            out = (s.searchsorted(v, "left") + s.searchsorted(v, "right")) / (2.0 * s.shape[0])
        out = np.where(v >= hi, 1.0, np.where(v <= lo, 0.0, out))
        return out if out.ndim else float(out)


def _sealed(a) -> bool:
    """Whether a constructor may keep ``a`` without a copy: a read-only,
    C-ordered float64 ndarray that owns its data or views a read-only
    ndarray that does."""
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and a.flags.c_contiguous and not a.flags.writeable):
        return False
    owner = a if a.flags.owndata else a.base
    return type(owner) is np.ndarray and owner.flags.owndata and not owner.flags.writeable


def _seal(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so a constructor keeps it as is."""
    a.flags.writeable = False
    return a


def affine_hull(poly: OccupancyPolytope) -> HullChart:
    """Chart the polytope's affine hull.

    The hull is found on the null space of the equality rows (SVD,
    standard rank tolerance); the origin maximizes the minimum inequality
    slack on the hull (a Chebyshev-center LP, posed sparse in ambient
    coordinates).  A radius of about 0 means the polytope is flat against
    some inequalities: the rows with a positive dual in that LP are tight
    over the whole polytope (see :func:`_chebyshev_origin`), so they are
    promoted to equalities and the null space is rebuilt.  Each round
    removes at least one dimension.

    The returned chart is that null space re-based on ``dim`` free ambient
    entries (:func:`_free_coordinates`): each axis moves one entry and only
    the entries the equality rows tie to it, so a walk step touches few
    rows.  An affine change of coordinates has a constant Jacobian, so the
    uniform law on the hull is the same in either chart.
    """
    a_eq, b_eq = poly.a_eq, poly.b_eq
    basis, origin = _null_space_chart(a_eq, b_eq, poly.dim)
    while basis.shape[1] > 0:
        origin, radius, tight = _chebyshev_origin(poly, a_eq, b_eq, basis, origin)
        if radius > INTERIOR_TOL:
            break
        if tight.size == 0:
            raise DegeneratePolytope("polytope has no interior on its affine hull")
        m = len(poly.a_ub)   # a tight row past the a_ub rows is the orthant's -x_j <= 0
        ub, j = tight[tight < m], tight[tight >= m] - m
        orthant = np.zeros((j.size, poly.dim))
        orthant[np.arange(j.size), j] = -1.0
        a_eq = np.vstack([a_eq, poly.a_ub[ub], orthant])
        b_eq = np.concatenate([b_eq, poly.b_ub[ub], np.zeros(j.size)])
        flatter, origin = _null_space_chart(a_eq, b_eq, poly.dim)
        if flatter.shape[1] >= basis.shape[1]:
            raise DegeneratePolytope("tight rows do not lower the hull dimension")
        basis = flatter
    if poly.max_violation(origin) > FEAS_TOL:
        raise DegeneratePolytope("chart origin lies outside the polytope")
    basis, free = _free_coordinates(basis)
    return HullChart(basis=basis, origin=origin, dim=basis.shape[1], free=free)


def _free_coordinates(basis):
    """Re-base a full-rank (ambient, dim) basis on ``dim`` of its rows.

    QR with column pivoting on ``basis.T`` picks a well-conditioned set of
    rows ``free``; the new basis is ``basis @ inv(basis[free])``, whose
    ``free`` rows are set to exactly the identity.  Returns the basis and
    ``free`` in increasing order.
    """
    dim = basis.shape[1]
    _, pivots = qr(basis.T, mode="r", pivoting=True)
    free = np.sort(pivots[:dim])
    rebased = basis @ np.linalg.inv(basis[free])
    rebased[free] = np.eye(dim)
    return rebased, free


def _null_space_chart(a_eq, b_eq, dim):
    if a_eq.shape[0] == 0:
        return np.eye(dim), np.zeros(dim)
    u, s, vt = np.linalg.svd(a_eq, full_matrices=True)
    tol = max(a_eq.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    basis = vt[rank:].T
    particular, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    return basis, particular


def _intrinsic_inequalities(poly, basis, origin):
    """Rows g x <= h become (g @ basis) y <= h - g @ origin: the ``a_ub``
    rows, then the orthant's rows -x_j <= 0 as -basis[j] y <= origin[j]."""
    return (np.vstack([poly.a_ub @ basis, -basis]),
            np.concatenate([poly.b_ub - poly.a_ub @ origin, origin]))


def _chebyshev_origin(poly, a_eq, b_eq, basis, particular):
    """Interior point of the hull ``a_eq x = b_eq`` maximizing the minimum
    slack, and the inequality rows tight over the whole polytope.

    The inequality rows ``g_i x <= h_i`` are the ``a_ub`` rows, then the
    orthant's ``-x_j <= 0``; a row whose restriction ``g_i basis`` to the
    hull vanishes is left out.  The LP is posed in ambient coordinates,
    where its rows stay sparse: ``max r`` over ``[x ; r]`` with the equality
    rows and ``g_i x + |g_i basis| r <= h_i``, x and r free, so that every
    dual sits on a row.  Its optimum is projected onto the hull through
    ``particular`` and the orthonormal ``basis``.

    Returns the point, the radius r* and the indices of the inequality rows
    whose dual exceeds ``FEAS_TOL``.  The multipliers lambda >= 0 of the
    inequality rows and mu (free) of the equality rows satisfy
    ``sum lambda_i g_i + mu a_eq = 0``, ``sum lambda_i |g_i basis| = 1`` and
    ``sum lambda_i h_i + mu b_eq = r*``, so ``sum lambda_i (h_i - g_i x) = r*``
    at every feasible x, on which ``mu (a_eq x - b_eq)`` vanishes (Farkas).
    When r* is about 0, every row with lambda_i > 0 therefore has zero slack
    over the whole polytope.
    """
    gy, _ = _intrinsic_inequalities(poly, basis, particular)
    norms = np.linalg.norm(gy, axis=1)
    active = np.flatnonzero(norms > 1e-12)
    if active.size == 0:
        return particular, np.inf, active
    n, m = poly.dim, len(poly.a_ub)
    ub, j = active[active < m], active[active >= m] - m
    a_ub = np.zeros((active.size, n + 1))
    a_ub[:ub.size, :n] = poly.a_ub[ub]
    a_ub[np.arange(ub.size, active.size), j] = -1.0
    a_ub[:, n] = norms[active]
    c = np.zeros(n + 1)
    c[n] = -1.0
    res = _solver.lp(c, a_ub=a_ub, b_ub=np.concatenate([poly.b_ub[ub], np.zeros(j.size)]),
                     a_eq=np.hstack([a_eq, np.zeros((len(a_eq), 1))]), b_eq=b_eq)
    if res.status != _solver.OPTIMAL:
        raise DegeneratePolytope("Chebyshev-center LP failed")
    radius = float(res.x[n])
    tight = active[-res.duals[:active.size] > FEAS_TOL]
    return particular + basis @ (basis.T @ (res.x[:n] - particular)), radius, tight


def check_walk(count: int, burn_in: int | None = None, thinning: int | None = None,
               chains: int = DEFAULT_CHAINS) -> None:
    """Raise :class:`ValueError` on walk parameters no walk takes: fewer than
    one sample, one chain or a thinning of one, or a negative burn-in
    (``None`` leaves a default to :func:`sample_uniform`)."""
    if count < 1:
        raise ValueError("count must be positive")
    if ((burn_in is not None and int(burn_in) < 0)
            or (thinning is not None and int(thinning) < 1) or chains < 1):
        raise ValueError("bad walk parameters")


def sample_uniform(
    poly: OccupancyPolytope,
    chart: HullChart,
    count: int,
    seed: int,
    burn_in: int | None = None,
    thinning: int | None = None,
    chains: int = DEFAULT_CHAINS,
) -> SampleCloud:
    """Asymptotically uniform samples via coordinate hit-and-run on the hull.

    Runs ``chains`` walkers in lockstep from the chart origin under a single
    seeded generator.  Every step moves all chains along the same chart axis
    to a uniform point of each chain's chord through the polytope; the axes
    come in sweeps, each a fresh random permutation of the ``dim`` axes,
    starting at step 0.  After ``burn_in`` steps (default 1000 * dim, i.e.
    1,000 sweeps) every ``thinning``-th state (default dim, one sweep per
    record) is recorded per chain; the cloud concatenates the chains'
    records in chain-major order and truncates to ``count``.  Records are
    written straight into a ``(chains, per_chain, dim)`` array, so the
    concatenation and the truncation are views.  The cloud keeps those
    chart coordinates as its ``coords``, read-only and neither copied nor
    mapped to ambient coordinates, so a walk's peak is the records plus the
    walk's own working arrays.

    A step gathers the axis's rows of the ``(rows, chains)`` slack matrix,
    reduces them to each chain's chord, and updates the slack by one BLAS
    rank-1 update.  At low dimension a step touches only a few rows, so its
    cost is the dispatch of its dozen numpy and BLAS calls rather than their
    arithmetic; the loop makes no call it can avoid.

    A zero-dimensional chart cannot be walked: the cloud holds ``count``
    empty coordinate rows, each the chart origin, and is flagged degenerate.
    """
    check_walk(count, burn_in, thinning, chains)
    dim = chart.dim
    if dim == 0:
        params = WalkParams(burn_in=0, thinning=1, count=count, chains=1)
        warnings.warn("sampling a zero-dimensional polytope: repeating its point")
        return SampleCloud(coords=_seal(np.empty((count, 0))), chart=chart, seed=seed,
                           walk_params=params, degenerate=True,
                           table_shape=poly.table_shape)
    burn_in = 1000 * dim if burn_in is None else int(burn_in)
    thinning = dim if thinning is None else int(thinning)
    params = WalkParams(burn_in=burn_in, thinning=thinning, count=count, chains=chains)

    gy, hy = _intrinsic_inequalities(poly, chart.basis, chart.origin)
    keep = np.linalg.norm(gy, axis=1) > 1e-12
    gy, hy = gy[keep], hy[keep]
    if np.any(hy < 0):
        raise DegeneratePolytope("chart origin is not interior to the polytope")

    rng = np.random.default_rng(seed)
    per_chain = -(-count // chains)
    total_steps = burn_in + per_chain * thinning
    block = -(-SWEEP_BLOCK_STEPS // dim) * dim   # whole sweeps per draw
    y = np.zeros((dim, chains))
    slack = np.tile(hy[:, None], (1, chains))    # (rows, chains), C order
    slack_f = slack.T                            # the Fortran view dger writes through
    records = np.empty((chains, per_chain, dim))
    ratio = np.empty((gy.shape[0], chains))
    t, t_hi, t_lo = np.empty(chains), np.empty(chains), np.empty(chains)
    empty = np.empty(chains, dtype=bool)
    # per axis: its rows and their inverse entries, the gathered ratios and
    # their upper- and lower-bound halves as views, its row of y, its column
    axes = []
    for k in range(dim):
        rows, inv, n_pos, col = _axis_rows(gy[:, k])
        r = ratio[: rows.size]
        axes.append((rows, inv, r, r[:n_pos], r[n_pos:], y[k], col))
    # ndarray.take skips np.take's Python wrapper; rows are valid indices by
    # construction, and "clip" writes straight into ``out``
    take = slack.take
    multiply, add, subtract, signbit = np.multiply, np.add, np.subtract, np.signbit
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    rec, next_record = 0, burn_in + thinning - 1
    for step in range(total_steps):
        j = step % block
        if j == 0:
            sweeps = np.tile(np.arange(dim), (block // dim, 1))
            order = rng.permuted(sweeps, axis=1).ravel().tolist()
            uniforms = list(rng.random((block, chains)))
        rows, inv, r, r_hi, r_lo, y_k, col = axes[order[j]]
        take(rows, axis=0, out=r, mode="clip")
        multiply(r, inv, r)
        lowest(r_hi, axis=0, out=t_hi)
        highest(r_lo, axis=0, out=t_lo)
        subtract(t_hi, t_lo, t)
        signbit(t, empty)   # t_hi < t_lo, read off the chord width's sign
        multiply(t, uniforms[j], t)
        add(t, t_lo, t)
        t[empty] = 0.0      # drift left an empty chord: stay put
        add(y_k, t, y_k)
        # slack -= col t^T as one in-place BLAS rank-1 update
        dger(-1.0, t, col, a=slack_f, overwrite_a=1)
        if step % 512 == 511:
            np.matmul(gy, y, out=slack)   # resync against drift
            np.subtract(hy[:, None], slack, out=slack)
        if step == next_record:
            records[:, rec] = y.T
            rec += 1
            next_record += thinning
    # chain-major records: the reshape and the truncation are views
    coords = _seal(records).reshape(chains * per_chain, dim)[:count]
    return SampleCloud(coords=coords, chart=chart, seed=seed, walk_params=params,
                       table_shape=poly.table_shape)


def _axis_rows(column):
    """Rows bounding the chord along one chart axis: positive entries first.

    Returns the row indices, their reciprocal entries as a (rows, 1) column,
    the number of positive rows, and a contiguous copy of the whole column
    (the rank-1 update's vector).  A chord y + t e_k stays feasible while
    t * column <= slack, so positive rows bound t above at slack / column
    and negative rows bound it below.
    """
    pos = np.flatnonzero(column > AXIS_ZERO_TOL)
    neg = np.flatnonzero(column < -AXIS_ZERO_TOL)
    if pos.size == 0 or neg.size == 0:
        raise DegeneratePolytope("polytope is unbounded along a chart axis")
    rows = np.concatenate([pos, neg])
    return rows, (1.0 / column[rows])[:, None], pos.size, np.ascontiguousarray(column)


def vol_fraction(cloud: SampleCloud, halfspace) -> FractionEstimate:
    """Fraction of samples with ``coeffs @ x <= bound``, with its standard error.

    ``std_error`` is the binomial sqrt(p (1 - p) / n), which treats the draws
    as iid.  Thinned walk records are autocorrelated in general, so it can
    understate the Monte Carlo error of a cloud that has not mixed.
    """
    coeffs, bound = halfspace
    values = cloud.returns(coeffs)
    hits = values <= bound
    n = cloud.count
    frac = float(hits.mean())
    se = float(np.sqrt(frac * (1.0 - frac) / n))
    return FractionEstimate(fraction=frac, std_error=se, count=n)


def estimate_cdf(cloud: SampleCloud, reward_table, kind: str = EMPIRICAL,
                 agent: int | str = 0) -> ReturnCdf:
    """Estimate one agent's return cdf from the shared cloud.

    The empirical kind evaluates by midpoint rank over the sorted sample
    returns.  The logistic kind least-squares fits the generalized logistic
    family ``(1 + exp(-B (v - M)))**(-nu)`` to the empirical cdf and falls
    back to the empirical kind when the fit strays more than 0.05 anywhere
    on the sample-quantile grid.
    """
    if kind not in (EMPIRICAL, LOGISTIC):
        raise ValueError(f"unknown cdf kind {kind!r}")
    returns = cloud.returns(reward_table)   # a fresh vector: sort it in place
    returns.sort()
    empirical = ReturnCdf(agent=agent, kind=EMPIRICAL, samples=_seal(returns))
    if kind == EMPIRICAL:
        return empirical
    values = empirical.samples
    params = _fit_generalized_logistic(values)
    if params is not None:
        fitted = ReturnCdf(agent=agent, kind=LOGISTIC, samples=values, params=params)
        if _logistic_fit_acceptable(fitted, values):
            return fitted
    return empirical


def _logistic(v, growth, midpoint, asymmetry):
    """``(1 + exp(-B (v - M)))**(-nu)``, its exponent clipped to +-700."""
    z = np.clip(-growth * (v - midpoint), -700.0, 700.0)
    return (1.0 + np.exp(z)) ** (-asymmetry)


def _quantile_grid(sorted_values, size):
    """At most ``size`` evenly spaced sorted samples, both extremes included,
    and their empirical cdf levels ``(rank + 0.5) / n``."""
    n = sorted_values.shape[0]
    grid = np.unique(np.linspace(0, n - 1, num=min(n, size)).astype(int))
    return sorted_values[grid], (grid + 0.5) / n


def _fit_generalized_logistic(sorted_values):
    span = sorted_values[-1] - sorted_values[0]
    if span <= 0:
        return None
    v, p = _quantile_grid(sorted_values, 512)
    scale = np.std(sorted_values)
    if scale <= 0:
        return None
    x0 = np.array([4.0 / scale, float(np.median(sorted_values)), 1.0])

    def residual(theta):
        return _logistic(v, *theta) - p

    try:
        fit = least_squares(
            residual, x0,
            bounds=([1e-8, sorted_values[0] - 10 * span, 1e-8],
                    [1e8, sorted_values[-1] + 10 * span, 1e6]),
            max_nfev=200,
        )
    except Exception:
        return None
    if not np.all(np.isfinite(fit.x)):
        return None
    return tuple(float(t) for t in fit.x)


def _logistic_fit_acceptable(cdf: ReturnCdf, sorted_values) -> bool:
    # the check grid reaches both sample extremes, so tail misfit beyond
    # LOGISTIC_MAX_DEV rejects too; evaluation clamps to exactly 0/1 at the
    # support edges either way
    v, p = _quantile_grid(sorted_values, 1024)
    return float(np.max(np.abs(_logistic(v, *cdf.params) - p))) <= LOGISTIC_MAX_DEV


def quantile_inverse(cdf: ReturnCdf, q: float) -> float:
    """Smallest float v in the support with F(v) >= q; the support's lower
    end for q = 0.

    Between samples the empirical F reads fl(c/n), c the samples at or
    below v, so the answer is the k-th smallest sample for the least k with
    fl(k/n) >= q, or the next float above it where the midpoint rank reads
    below q.  The logistic kind inverts its fit, M - ln(q^(-1/nu) - 1)/B,
    clamped to the support: F(v) = q up to rounding inside it, and q = 1
    gives the upper end.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    lo, hi = cdf.support
    if q == 0.0:
        return lo
    if cdf.kind == LOGISTIC:
        growth, midpoint, asymmetry = cdf.params
        with np.errstate(divide="ignore", over="ignore"):
            v = midpoint - np.log(np.float64(q) ** (-1.0 / asymmetry) - 1.0) / growth
        return float(np.clip(v, lo, hi))
    n = cdf.samples.shape[0]
    k = int(np.ceil(q * n))   # off by one where q * n rounds across an integer
    if k > 1 and (k - 1) / n >= q:
        k -= 1
    elif k < n and k / n < q:
        k += 1
    v = float(cdf.samples[k - 1])
    return v if cdf.evaluate(v) >= q else float(np.nextafter(v, np.inf))


def centroid_point(cloud: SampleCloud) -> np.ndarray:
    """Sample mean in chart coordinates, mapped to an ambient point.

    Taking the mean in the chart keeps it on the hull's equality rows.
    """
    chart = cloud.chart
    return chart.origin + chart.basis @ cloud.coords.mean(axis=0)


def centroid_estimate(cloud: SampleCloud) -> OccupancyMeasure:
    """Centroid of an occupancy polytope as a typed occupancy measure."""
    mean = centroid_point(cloud)
    shape = cloud.table_shape or (1, mean.shape[0])
    return OccupancyMeasure(table=mean.reshape(shape))


def mode_estimate(cdf: ReturnCdf) -> float:
    """Density mode via a ``MODE_BINS``-bin histogram of the sample returns.

    Ties break toward the lower return (``argmax`` picks the first maximal
    bin); a flat density therefore reports its lowest bin.
    """
    lo, hi = cdf.support
    if hi <= lo:
        return lo
    counts, edges = np.histogram(cdf.samples, bins=MODE_BINS, range=(lo, hi))
    k = int(np.argmax(counts))
    return float(0.5 * (edges[k] + edges[k + 1]))


# --- cloud CSV interchange ---------------------------------------------------
#
# Column order: the flattened (s, a) row-major coordinates of each point.
# Header comment lines carry seed, walk parameters and, when known, the
# occupancy table shape as ``table_shape=SxA``; floats are written
# with 17 significant digits so points reload bit-for-bit.


def save_cloud(cloud: SampleCloud, path) -> None:
    """Write the cloud's ambient points, one per line, under a header line.

    The file holds points, not chart coordinates, so it can be read
    without the chart that produced it.
    """
    p = cloud.walk_params
    header = (
        f"polyagg-cloud seed={cloud.seed} burn_in={p.burn_in} thinning={p.thinning} "
        f"count={p.count} chains={p.chains} degenerate={int(cloud.degenerate)}"
    )
    if cloud.table_shape is not None:
        header += " table_shape={}x{}".format(*cloud.table_shape)
    np.savetxt(path, cloud.points, delimiter=",", fmt="%.17g", header=header)


def load_cloud(path) -> SampleCloud:
    """Read a cloud written by :func:`save_cloud`.

    The points become the coordinates of the identity chart on their
    ambient space, so the loaded cloud's returns are the points' own
    products with a reward table.  Raises ``ValueError`` for a file that is
    not a cloud, lacks a header field, has no rows, has a row count other
    than its header's ``count``, a column count other than S * A of its
    ``table_shape``, or a value that is not finite.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# polyagg-cloud"):
            raise ValueError("not a polyagg cloud file")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
            pts = np.loadtxt(fh, delimiter=",", ndmin=2)
    try:
        fields = dict(tok.split("=") for tok in first.split()[2:])
        params = WalkParams(
            burn_in=int(fields["burn_in"]),
            thinning=int(fields["thinning"]),
            count=int(fields["count"]),
            chains=int(fields["chains"]),
        )
        seed, degenerate = int(fields["seed"]), bool(int(fields["degenerate"]))
        shape = fields.get("table_shape")
        table_shape = tuple(int(n) for n in shape.split("x")) if shape else None
        if table_shape is not None and len(table_shape) != 2:
            raise ValueError(f"table_shape={shape} is not SxA")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cloud file {path} has a malformed header: {exc!r}") from None
    rows, cols = pts.shape
    if rows == 0:
        raise ValueError(f"cloud file {path} has no rows")
    if rows != params.count:
        raise ValueError(f"cloud file {path} has {rows} rows but its header "
                         f"says count={params.count}")
    if table_shape is not None and cols != table_shape[0] * table_shape[1]:
        raise ValueError(f"cloud file {path} has {cols} columns but its header "
                         f"says table_shape={shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"cloud file {path} holds a value that is not finite")
    return SampleCloud(
        coords=_seal(pts),
        chart=HullChart(basis=np.eye(cols), origin=np.zeros(cols), dim=cols,
                        free=np.arange(cols)),
        seed=seed,
        walk_params=params,
        degenerate=degenerate,
        table_shape=table_shape,
    )
