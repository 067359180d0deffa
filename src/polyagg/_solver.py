"""HiGHS, driven directly through scipy's bindings.

All solves in the library go through this module so that solver options
stay uniform (deterministic, single-threaded HiGHS) and so that the number
of solves can be observed for diagnostics (``solve_count``).

A program is posed as ``min c @ x`` over the dense rows ``[a_ub; a_eq]``
(``-inf <= a_ub x <= b_ub`` and ``a_eq x = b_eq``, laid out in column-major
sparse order) and the caller's variable bounds, with the options scipy's
``linprog(method="highs")`` and ``milp`` set.  The bindings live in scipy's
private module ``scipy.optimize._highspy._core`` (scipy >= 1.17).  There
are three kinds of solve:

- :func:`lp` solves one LP on a fresh HiGHS instance, cold.  Its results
  match ``linprog``'s bit for bit, without its Python layer (about 2 ms a
  call).  The LPs that are solved once per program stay cold: the
  polytope's feasibility check, the extremal LPs of reward normalization,
  the Chebyshev LP and borda-concave's relaxed level program.
- :class:`Warm` keeps one HiGHS model for a family of LPs that share their
  rows and differ only in costs, row upper bounds ``b_ub`` and variable
  bounds.  Its constructor solves the first member, the *home* solve, and
  keeps its optimal basis, the *home basis*.  Every later solve changes
  only the entries that differ from the model's current ones, clears
  HiGHS's solver state (with ``setBasis`` alone, state left by earlier runs
  made results depend on the order of solves), restores the home basis and
  runs dual simplex from there.  So its result depends on its own inputs
  alone, never on which solves ran before it, and where its bounds bind it
  takes a few dozen iterations from a nearly right basis.
- :func:`milp` solves a MILP cold by branch-and-cut.  A ``start``, a point
  that meets every row, bound and integrality, becomes HiGHS's first
  incumbent, so a start that is already optimal closes the search at the
  root.

Options: LPs run with ``presolve`` off and dual simplex (``simplex_strategy``
1); MILPs with ``presolve`` on, ``mip_rel_gap`` 0 and ``mip_max_nodes``;
both with ``output_flag`` and ``log_to_console`` off.

Every solve returns a :class:`Result`.  It ends OPTIMAL or INFEASIBLE, and
a MILP also ITERATION_LIMIT at its node limit.  No other limit is set, so
every other HiGHS status (unbounded, a numerical failure) raises
:class:`LpFailure`.

HiGHS's MIP solver can still ``printf`` a line that neither output option
reaches (``HighsMipSolverData::transformNewIntegerFeasibleSolution
tmpSolver.run();``), so :func:`milp` points file descriptor 1 at
``os.devnull`` while HiGHS runs.

Presolve stays off for LPs: on near-degenerate threshold rows (a return
bound within 1e-6 of its true maximum over an equality-heavy polytope)
HiGHS LP presolve can declare a feasible system infeasible, which breaks
the plurality encoding.  :func:`milp` keeps presolve on: without it HiGHS
branch-and-cut hits numerical solve errors on the same plurality programs,
and with it, it closes them.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import (
    HighsLp, HighsModelStatus, HighsOptions, HighsStatus, HighsVarType, MatrixFormat, _Highs,
)

from .errors import LpFailure

# solves since import; rule implementations snapshot this to report how
# many solves they triggered
solve_count = 0

OPTIMAL = 0
ITERATION_LIMIT = 1
INFEASIBLE = 2

# HiGHS model statuses as scipy maps them; any other status is a failure
_STATUS = {
    HighsModelStatus.kOptimal: OPTIMAL,
    HighsModelStatus.kInfeasible: INFEASIBLE,
    HighsModelStatus.kModelError: INFEASIBLE,
}
_MILP_STATUS = {**_STATUS, HighsModelStatus.kSolutionLimit: ITERATION_LIMIT}  # node limit

# linprog's check of an optimal point, with its default tol of 1e-9
_CHECK_TOL = np.sqrt(1e-9) * 10


@dataclass(frozen=True, eq=False)
class Result:
    """How a solve ended and, at OPTIMAL, its answer.

    ``duals`` holds one entry per row, ``[a_ub; a_eq]`` in order: the rate
    at which the minimum moves per unit increase of the row's bound
    (HiGHS's row duals, and linprog's ``marginals``), so a binding
    ``a_ub`` row has a dual <= 0.  LPs only; a MILP reports its
    branch-and-cut ``nodes`` and relative ``gap`` instead.
    """

    status: int
    x: np.ndarray | None = None
    fun: float | None = None
    duals: np.ndarray | None = None
    nodes: int = 0
    gap: float = 0.0


def _options(**values) -> HighsOptions:
    options = HighsOptions()
    for name, value in dict(output_flag=False, log_to_console=False, **values).items():
        setattr(options, name, value)
    return options


_LP_OPTIONS = _options(presolve="off", simplex_strategy=1)


def _rows(c, a_ub, b_ub, a_eq, b_eq):
    """``c`` as a vector, the stacked rows ``[a_ub; a_eq]`` and their lower
    and upper bounds."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub, a_eq = (np.zeros((0, n)) if a is None else np.asarray(a, dtype=float).reshape(-1, n)
                  for a in (a_ub, a_eq))
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
                  for b in (b_ub, b_eq))
    return (c, np.vstack([a_ub, a_eq]), np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]))


def _solve(c, a, row_lower, row_upper, lower, upper, options, integrality=None, start=None):
    """Solve ``min c @ x`` over ``row_lower <= a x <= row_upper`` and
    ``lower <= x <= upper`` on a fresh HiGHS instance, from the point
    ``start`` if given.

    Returns the instance after its run, and the model status; a model
    HiGHS refuses to load reports ``kModelError``, as in scipy.
    """
    n = c.size
    at = a.T  # column-major walk of a: the order scipy's csc_array gives
    cols, rows = np.nonzero(at)
    col_start = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(cols, minlength=n), out=col_start[1:])

    model = HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = MatrixFormat.kColwise
    # integer arrays cross into HiGHS faster as lists; float arrays as arrays
    model.a_matrix_.start_ = col_start.tolist()
    model.a_matrix_.index_ = rows.tolist()
    model.a_matrix_.value_ = at[cols, rows]
    model.col_cost_ = c
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    if integrality is not None:
        model.integrality_ = [HighsVarType(int(k)) for k in integrality]

    highs = _Highs()
    highs.passOptions(options)
    if highs.passModel(model) == HighsStatus.kError:
        return highs, HighsModelStatus.kModelError
    if start is not None:
        highs.setSolution(n, np.arange(n, dtype=np.int32), np.asarray(start, dtype=float))
    highs.run()
    return highs, highs.getModelStatus()


def _bounds(bounds, n):
    """linprog's ``bounds`` (one pair, or one pair per variable; None is
    unbounded) as lower and upper arrays."""
    b = np.array(bounds, dtype=float).reshape(-1, 2)  # None becomes nan
    lower = np.broadcast_to(b[:, 0], n)
    upper = np.broadcast_to(b[:, 1], n)
    return np.where(np.isnan(lower), -np.inf, lower), np.where(np.isnan(upper), np.inf, upper)


@contextlib.contextmanager
def _stdout_to_devnull():
    """Send whatever is written to file descriptor 1 meanwhile to os.devnull."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _failure(kind, highs, status):
    return LpFailure(f"{kind} solver failed with HiGHS status {int(status)}: "
                     f"{highs.modelStatusToString(status)}")


def _lp_result(highs, status, lower, upper, row_lower, row_upper) -> Result:
    """The result of an LP run; as linprog does, an optimal point off its
    rows or bounds by more than ~3e-4 raises :class:`LpFailure`."""
    if status not in _STATUS:
        raise _failure("LP", highs, status)
    if status != HighsModelStatus.kOptimal:
        return Result(status=_STATUS[status])
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    if not (np.all((lower - _CHECK_TOL <= x) & (x <= upper + _CHECK_TOL))
            and np.all((row_lower - _CHECK_TOL <= row) & (row <= row_upper + _CHECK_TOL))):
        raise LpFailure("LP solver's optimal point violates its constraints")
    return Result(status=OPTIMAL, x=x, fun=highs.getInfo().objective_function_value,
                  duals=np.array(solution.row_dual))


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)) -> Result:
    """Solve ``min c @ x`` subject to ``a_ub x <= b_ub`` and ``a_eq x = b_eq``
    on a fresh HiGHS instance.

    Variables are free by default; ``bounds`` takes linprog's forms (an
    occupancy polytope's ``program`` passes ``x >= 0`` here).  Returns an
    OPTIMAL or INFEASIBLE :class:`Result`; raises :class:`LpFailure` on any
    other HiGHS status and on an optimal point off its rows or bounds.
    """
    global solve_count
    solve_count += 1
    c, a, row_lower, row_upper = _rows(c, a_ub, b_ub, a_eq, b_eq)
    lower, upper = _bounds(bounds, c.size)
    highs, status = _solve(c, a, row_lower, row_upper, lower, upper, _LP_OPTIONS)
    return _lp_result(highs, status, lower, upper, row_lower, row_upper)


class Warm:
    """One HiGHS model for the LPs ``lp(c, a_ub, b_ub, a_eq, b_eq, bounds)``
    that share ``a_ub``, ``a_eq`` and ``b_eq``.

    Construction is the home solve: it solves the given LP cold, which must
    end OPTIMAL (else :class:`LpFailure`), counts as one solve and keeps the
    result as ``home`` and its basis as the home basis.  Each
    :meth:`solve` sets the model's costs, row upper bounds and variable
    bounds to its arguments, clears the solver state, restores the home
    basis and runs dual simplex from it.
    """

    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)):
        global solve_count
        solve_count += 1
        c, a, row_lower, row_upper = _rows(c, a_ub, b_ub, a_eq, b_eq)
        lower, upper = _bounds(bounds, c.size)
        self._highs, status = _solve(c, a, row_lower, row_upper, lower, upper, _LP_OPTIONS)
        self.home = _lp_result(self._highs, status, lower, upper, row_lower, row_upper)
        if self.home.status != OPTIMAL:
            raise LpFailure("warm model's home LP is infeasible")
        self._basis = self._highs.getBasis()
        self._c, self._row_lower, self._row_upper = c, row_lower, row_upper
        self._lower, self._upper = lower, upper
        self._num_ub = row_upper.size - (0 if b_eq is None else np.size(b_eq))

    def solve(self, c, b_ub, bounds) -> Result:
        """``lp(c, a_ub, b_ub, a_eq, b_eq, bounds)`` over the model's rows,
        solved from the home basis.

        Raises :class:`ValueError` on a NaN bound.  A bound that no value
        meets (``b_ub`` or an upper bound at -inf, a lower bound at +inf)
        is INFEASIBLE without a run, as HiGHS refuses such a model.
        """
        global solve_count
        solve_count += 1
        c = np.array(c, dtype=float).reshape(-1)  # a copy: it is kept as the model's state
        row_upper = np.concatenate([np.asarray(b_ub, dtype=float).reshape(-1),
                                    self._row_upper[self._num_ub:]])
        lower, upper = _bounds(bounds, c.size)
        if c.shape != self._c.shape or row_upper.shape != self._row_upper.shape:
            raise ValueError("warm solve must keep the model's shape")
        if np.isnan(row_upper).any() or np.isnan(c).any():
            raise ValueError("warm solve got a NaN cost or bound")
        if (row_upper == -np.inf).any() or (lower == np.inf).any() or (upper == -np.inf).any():
            return Result(status=INFEASIBLE)
        highs = self._highs
        changed = np.flatnonzero(c != self._c)
        if changed.size:
            highs.changeColsCost(changed.size, changed.astype(np.int32), c[changed])
        changed = np.flatnonzero((lower != self._lower) | (upper != self._upper))
        if changed.size:
            highs.changeColsBounds(changed.size, changed.astype(np.int32),
                                   lower[changed], upper[changed])
        for i in np.flatnonzero(row_upper != self._row_upper).tolist():
            highs.changeRowBounds(i, self._row_lower[i], float(row_upper[i]))
        self._c, self._row_upper, self._lower, self._upper = c, row_upper, lower, upper
        highs.clearSolver()
        highs.setBasis(self._basis)
        highs.run()
        return _lp_result(highs, highs.getModelStatus(), lower, upper,
                          self._row_lower, row_upper)


def milp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None), *,
         integrality, node_limit, start=None) -> Result:
    """Solve ``min c @ x`` over the rows and ``bounds`` of :func:`lp` and
    integrality (1 marks an integer variable) by HiGHS branch-and-cut,
    with ``start`` (a feasible point, checked by the caller) as the first
    incumbent if given.

    The relative gap is 0, so an OPTIMAL result is proven optimal.  Returns
    a :class:`Result` with status OPTIMAL, ITERATION_LIMIT (``node_limit``
    reached) or INFEASIBLE; ``x``, ``fun``, ``nodes`` and ``gap`` are set at
    OPTIMAL.  Raises :class:`LpFailure` on any other HiGHS status.
    """
    global solve_count
    solve_count += 1
    options = _options(presolve="on", mip_rel_gap=0.0, mip_max_nodes=int(node_limit))
    c, a, row_lower, row_upper = _rows(c, a_ub, b_ub, a_eq, b_eq)
    lower, upper = _bounds(bounds, c.size)
    with _stdout_to_devnull():
        highs, status = _solve(c, a, row_lower, row_upper, lower, upper, options,
                               integrality, start)
    if status not in _MILP_STATUS:
        raise _failure("MILP", highs, status)
    if _MILP_STATUS[status] != OPTIMAL:
        return Result(status=_MILP_STATUS[status])
    info = highs.getInfo()
    return Result(status=OPTIMAL, x=np.array(highs.getSolution().col_value),
                  fun=info.objective_function_value, nodes=info.mip_node_count,
                  gap=info.mip_gap)
