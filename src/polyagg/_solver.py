"""HiGHS, driven directly through scipy's bindings.

All solves in the library go through :func:`lp` and :func:`milp` so that
solver options stay uniform (deterministic, single-threaded HiGHS) and so
that the number of solver invocations can be observed for diagnostics.

Each call poses one ``HighsLp`` - the dense rows ``[a_ub; a_eq]`` in
column-major sparse order, ``-inf <= a_ub x <= b_ub`` and
``a_eq x = b_eq``, the caller's variable bounds - and solves it on a fresh
HiGHS instance with the options scipy's ``linprog(method="highs")`` and
``milp`` set, so results match theirs bit for bit without their Python
layer (about 2 ms a call).  The bindings live in scipy's private module
``scipy.optimize._highspy._core`` (scipy >= 1.17).  Options:

- :func:`lp`: ``presolve`` off, dual simplex (``simplex_strategy`` 1);
- :func:`milp`: ``presolve`` on, ``mip_rel_gap`` 0, ``mip_max_nodes``;
- both: ``output_flag`` and ``log_to_console`` off.

A solve ends OPTIMAL or INFEASIBLE, and a MILP also ITERATION_LIMIT at its
node limit.  Neither function sets any other limit, so every other HiGHS
status (unbounded, a numerical failure) raises :class:`LpFailure`.

HiGHS's MIP solver can still ``printf`` a line that neither option reaches
(``HighsMipSolverData::transformNewIntegerFeasibleSolution
tmpSolver.run();``), so :func:`milp` points file descriptor 1 at
``os.devnull`` while HiGHS runs.

Presolve stays off in :func:`lp`: on near-degenerate threshold rows (a
return bound within 1e-6 of its true maximum over an equality-heavy
polytope) HiGHS LP presolve can declare a feasible system infeasible, which
breaks the plurality encoding.  :func:`milp` keeps presolve on: without it
HiGHS branch-and-cut hits numerical solve errors on the same plurality
programs, and with it, it closes them.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy._core import (
    HighsLp, HighsModelStatus, HighsOptions, HighsStatus, HighsVarType, MatrixFormat, _Highs,
)

from .errors import LpFailure

# lp and milp invocations since import; rule implementations snapshot
# this to report how many solves they triggered.
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


def _options(**values) -> HighsOptions:
    options = HighsOptions()
    for name, value in dict(output_flag=False, log_to_console=False, **values).items():
        setattr(options, name, value)
    return options


_LP_OPTIONS = _options(presolve="off", simplex_strategy=1)


def _rows(c, a_ub, b_ub, a_eq, b_eq):
    """``c`` as a vector, the stacked rows ``[a_ub; a_eq]``, their lower and
    upper bounds, and the number of inequality rows."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.size
    a_ub, a_eq = (np.zeros((0, n)) if a is None else np.asarray(a, dtype=float).reshape(-1, n)
                  for a in (a_ub, a_eq))
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
                  for b in (b_ub, b_eq))
    return (c, np.vstack([a_ub, a_eq]), np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]), b_ub.size)


def _solve(c, a, row_lower, row_upper, lower, upper, options, integrality=None):
    """Solve ``min c @ x`` over ``row_lower <= a x <= row_upper`` and
    ``lower <= x <= upper`` on a fresh HiGHS instance.

    Returns the instance after its run, and the model status; a model
    HiGHS refuses to load reports ``kModelError``, as in scipy.
    """
    n = c.size
    at = a.T  # column-major walk of a: the order scipy's csc_array gives
    cols, rows = np.nonzero(at)
    start = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])

    model = HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = MatrixFormat.kColwise
    # integer arrays cross into HiGHS faster as lists; float arrays as arrays
    model.a_matrix_.start_ = start.tolist()
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


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)):
    """Solve ``min c @ x`` subject to ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    Variables are free by default; ``bounds`` takes linprog's forms (an
    occupancy polytope's ``program`` passes ``x >= 0`` here).  Returns a scipy result
    with ``status`` (OPTIMAL or INFEASIBLE), ``message``, and at OPTIMAL
    ``x``, ``fun`` and the inequality rows' duals ``ineqlin.marginals``
    (HiGHS's row duals, linprog's sign).  Raises :class:`LpFailure` on any
    other HiGHS status (unbounded, a limit reached, numerical failure) and,
    as linprog does, on an optimal point off its rows or bounds by more than
    ~3e-4; no well-formed polyagg program should produce either.
    """
    global solve_count
    solve_count += 1
    c, a, row_lower, row_upper, m_ub = _rows(c, a_ub, b_ub, a_eq, b_eq)
    lower, upper = _bounds(bounds, c.size)
    highs, status = _solve(c, a, row_lower, row_upper, lower, upper, _LP_OPTIONS)
    if status not in _STATUS:
        raise _failure("LP", highs, status)
    res = OptimizeResult(status=_STATUS[status], message=highs.modelStatusToString(status),
                         x=None, fun=None)
    if status != HighsModelStatus.kOptimal:
        return res
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row = np.array(solution.row_value)
    if not (np.all((lower - _CHECK_TOL <= x) & (x <= upper + _CHECK_TOL))
            and np.all((row_lower - _CHECK_TOL <= row) & (row <= row_upper + _CHECK_TOL))):
        raise LpFailure("LP solver's optimal point violates its constraints")
    res.x = x
    res.fun = highs.getInfo().objective_function_value
    res.ineqlin = OptimizeResult(marginals=np.array(solution.row_dual[:m_ub]))
    return res


def milp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None), *,
         integrality, node_limit):
    """Solve ``min c @ x`` over the rows and ``bounds`` of :func:`lp` and
    integrality (1 marks an integer variable) by HiGHS branch-and-cut.

    The relative gap is 0, so an OPTIMAL result is proven optimal.  Returns
    a scipy result with ``status`` one of OPTIMAL, ITERATION_LIMIT
    (``node_limit`` reached) or INFEASIBLE and ``message``; ``x``, ``fun``,
    ``mip_node_count`` and ``mip_gap`` are set at OPTIMAL and None
    otherwise.  Raises :class:`LpFailure` on any other HiGHS status.
    """
    global solve_count
    solve_count += 1
    options = _options(presolve="on", mip_rel_gap=0.0, mip_max_nodes=int(node_limit))
    c, a, row_lower, row_upper, _ = _rows(c, a_ub, b_ub, a_eq, b_eq)
    lower, upper = _bounds(bounds, c.size)
    with _stdout_to_devnull():
        highs, status = _solve(c, a, row_lower, row_upper, lower, upper, options, integrality)
    if status not in _MILP_STATUS:
        raise _failure("MILP", highs, status)
    res = OptimizeResult(status=_MILP_STATUS[status], message=highs.modelStatusToString(status),
                         x=None, fun=None, mip_node_count=None, mip_gap=None)
    if res.status == OPTIMAL:
        info = highs.getInfo()
        res.x = np.array(highs.getSolution().col_value)
        res.fun = info.objective_function_value
        res.mip_node_count = info.mip_node_count
        res.mip_gap = info.mip_gap
    return res
