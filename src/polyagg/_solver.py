"""Thin wrapper around scipy's HiGHS linprog and milp.

All solves in the library go through :func:`lp` and :func:`milp` so that
solver options stay uniform (deterministic, single-threaded HiGHS) and so
that the number of solver invocations can be observed for diagnostics.

Presolve stays off in :func:`lp`: on near-degenerate threshold rows (a
return bound within 1e-6 of its true maximum over an equality-heavy
polytope) HiGHS LP presolve can declare a feasible system infeasible, which
breaks the plurality encoding.  :func:`milp` keeps presolve on: without it
HiGHS branch-and-cut hits numerical solve errors on the same plurality
programs, and with it, it closes them.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import LinearConstraint, linprog
from scipy.optimize import milp as _highs_milp

from .errors import LpFailure

# linprog and milp invocations since import; rule implementations snapshot
# this to report how many solves they triggered.
solve_count = 0

OPTIMAL = 0
ITERATION_LIMIT = 1
INFEASIBLE = 2

# how scipy 1.17 reports HiGHS's MIP node limit (status 4, not 1)
_NODE_LIMIT_MESSAGE = "Solution limit reached"


def _or_none(a):
    if a is None:
        return None
    a = np.asarray(a, dtype=float)
    return a if a.size else None


def lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=(None, None)):
    """Solve ``min c @ x`` subject to ``a_ub x <= b_ub`` and ``a_eq x = b_eq``.

    Variables are free by default; ``bounds`` takes linprog's forms (an
    occupancy polytope passes ``x >= 0`` here).  Returns the scipy
    result object; raises :class:`LpFailure` on unbounded or numerically
    failed solves, which no well-formed polyagg program should produce.
    """
    global solve_count
    solve_count += 1
    res = linprog(
        np.asarray(c, dtype=float),
        A_ub=_or_none(a_ub),
        b_ub=_or_none(b_ub),
        A_eq=_or_none(a_eq),
        b_eq=_or_none(b_eq),
        bounds=bounds,
        method="highs",
        options={"presolve": False},
    )
    if res.status in (3, 4):
        raise LpFailure(f"LP solver failed with status {res.status}: {res.message}")
    return res


def milp(c, a_ub, b_ub, a_eq, b_eq, lower, upper, integrality, node_limit):
    """Solve ``min c @ x`` over the rows of :func:`lp`, ``lower <= x <= upper``
    and integrality (1 marks an integer variable) by HiGHS branch-and-cut.

    The relative gap is 0, so an OPTIMAL result is proven optimal.  Returns
    the scipy result object with ``status`` one of OPTIMAL, ITERATION_LIMIT
    (``node_limit`` reached) or INFEASIBLE; raises :class:`LpFailure` on
    unbounded or numerically failed solves.
    """
    global solve_count
    solve_count += 1
    constraints = []
    if a_ub is not None and np.size(a_ub):
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if a_eq is not None and np.size(a_eq):
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    res = _highs_milp(
        np.asarray(c, dtype=float),
        integrality=integrality,
        bounds=(lower, upper),
        constraints=constraints,
        options={"presolve": True, "mip_rel_gap": 0.0, "node_limit": int(node_limit)},
    )
    if res.status == 4 and _NODE_LIMIT_MESSAGE in res.message:
        res.status = ITERATION_LIMIT
    if res.status not in (OPTIMAL, ITERATION_LIMIT, INFEASIBLE):
        raise LpFailure(f"MILP solver failed with status {res.status}: {res.message}")
    return res
