"""Linear programs over box-bounded variables with equality constraints.

Every query in this package reduces to

    maximize    c @ x
    subject to  A @ x = b,    lb <= x <= ub,

which HiGHS solves through scipy.  Only an LP without variables is
answered without a solver call; one without constraint rows goes to
HiGHS like any other, so it gets the same data checks and verdicts.
HiGHS is deterministic, so equal inputs give equal results.

Every LP is solved without HiGHS's presolve, which costs most of the
time of the small LPs here:

* a feasibility LP (c == 0) is solved once, at HiGHS's default primal
  feasibility tolerance of 1e-7;
* an objective LP is solved at a tolerance of 1e-10, and its optimum is
  returned only if x meets A @ x = b and the bounds within 1e-9; if not,
  the LP is solved again with presolve;
* any other verdict on an objective LP is replaced by that of a solve at
  the default tolerance, so a tight tolerance never turns a support -inf.

`_highs` is the one place in the package that talks to HiGHS.  It calls
the bindings that scipy ships in its private module
`scipy.optimize._highspy._core` (scipy >= 1.15) instead of scipy's LP
front end, whose input cleaning and option checks cost more than
HiGHS's own solve of the small LPs here.  `_highs` gives HiGHS the model
and options that front end gives it with method "highs", and keeps its
checks, so the answers are bitwise the same.  There is no fallback to
the front end: a second solve path would be a second set of answers to
keep equal, and a scipy without the module fails at import instead.

Each thread keeps one HiGHS instance.  Every call passes a full set of
options and clears the solver afterwards, so no option, basis or warm
start carries from one LP to the next.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPError(RuntimeError):
    """HiGHS ended without a verdict (iteration limit, numerical failure)."""


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _settings(presolve: bool, tolerance: float | None = None):
    """HiGHS's options as scipy's LP front end sets them for method "highs"."""
    settings = _core.HighsOptions()
    settings.output_flag = False
    settings.log_to_console = False
    settings.highs_debug_level = _core.kHighsDebugLevelNone
    dual_simplex = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    settings.simplex_strategy = dual_simplex
    settings.presolve = "on" if presolve else "off"
    if tolerance is not None:
        settings.primal_feasibility_tolerance = tolerance
    return settings


# The three option sets of the solve policy, built once; every solve
# passes one of them whole.
_DEFAULT = _settings(presolve=True)
_NO_PRESOLVE = _settings(presolve=False)
_TIGHT = _settings(presolve=False, tolerance=1e-10)


def solve_box_lp(c, A, b, lb, ub, *, maximize=True, tol=1e-9) -> LPResult:
    """Solve max/min c@x subject to A@x = b and lb <= x <= ub."""
    c = np.asarray(c, dtype=float).ravel()
    lb = np.asarray(lb, dtype=float).ravel()
    ub = np.asarray(ub, dtype=float).ravel()
    n = c.size
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).ravel()
    if lb.size != n or ub.size != n:
        raise ValueError("bound vectors do not match the variable count")
    if n == 0:
        if np.all(np.abs(b) <= tol):
            return LPResult(OPTIMAL, np.zeros(0), 0.0)
        return LPResult(INFEASIBLE)
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float).reshape(-1, n)
    if A.shape[0] != b.size:
        raise ValueError("constraint matrix and right-hand side disagree")
    if np.any(lb > ub + tol):
        return LPResult(INFEASIBLE)

    def highs(options):
        return _highs(-c if maximize else c, A, b, b, lb, ub, options)

    if not np.any(c):
        res = highs(_NO_PRESOLVE)
    else:
        res = highs(_TIGHT)
        if res.status != 0:
            res = highs(_NO_PRESOLVE)
        elif _violation(A, b, lb, ub, res.x) > 1e-9:
            res = highs(_DEFAULT)
    if res.status == 0:
        return LPResult(OPTIMAL, res.x, float(c @ res.x))
    if res.status == 2:
        return LPResult(INFEASIBLE)
    if res.status == 3:
        return LPResult(UNBOUNDED)
    raise LPError(f"HiGHS failed: {res.message}")


def _violation(A, b, lb, ub, x) -> float:
    """Largest equation residual or bound violation of x."""
    return max(np.abs(A @ x - b).max(initial=0.0), (lb - x).max(), (x - ub).max())


class _Solve(NamedTuple):
    """One HiGHS solve, with scipy's LP status codes: 0 optimal, 1 limit
    reached, 2 infeasible, 3 unbounded, 4 failure.  x only when optimal."""

    status: int
    x: np.ndarray | None
    message: str


_MODEL_STATUS = _core.HighsModelStatus
_STATUS = {
    _MODEL_STATUS.kOptimal: 0,
    _MODEL_STATUS.kTimeLimit: 1,
    _MODEL_STATUS.kIterationLimit: 1,
    _MODEL_STATUS.kInfeasible: 2,
    _MODEL_STATUS.kModelError: 2,
    _MODEL_STATUS.kUnbounded: 3,
}  # every other model status is 4
_ERROR = _core.HighsStatus.kError
# scipy's acceptance of an optimum: bounds and rows met within sqrt(1e-9) * 10.
_ACCEPT = np.sqrt(1e-9) * 10
_thread = threading.local()


def _highs(c, A, lhs, rhs, lb, ub, options) -> _Solve:
    """Minimize c @ x subject to lhs <= A @ x <= rhs and lb <= x <= ub.

    `options` is `_DEFAULT`, `_NO_PRESOLVE` or `_TIGHT`.  Raises
    ValueError, as scipy's front end does, if c, A or a row bound is NaN
    or infinite, or a variable bound is NaN; a row bound may be infinite
    only on the open side (lhs = -inf).
    """
    if not (
        np.isfinite(c).all()
        and np.isfinite(A).all()
        and np.isfinite(rhs).all()
        and (lhs < np.inf).all()
        and not (np.isnan(lb).any() or np.isnan(ub).any())
    ):
        raise ValueError("LP data must be finite (bounds may be infinite)")

    # Column-wise, zeros dropped, each column's rows in increasing order.
    m, n = A.shape
    cols, rows = np.nonzero(A.T)
    model = _core.HighsLp()
    model.num_col_ = n
    model.num_row_ = m
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    matrix = model.a_matrix_
    matrix.format_ = _core.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = m
    matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    matrix.index_ = rows
    matrix.value_ = A.T[cols, rows]

    try:
        highs = _thread.highs
    except AttributeError:
        highs = _thread.highs = _core._Highs()
    try:
        if highs.passOptions(options) == _ERROR:
            return _Solve(4, None, "HiGHS refused the options")
        if highs.passModel(model) == _ERROR:
            # scipy reads a model HiGHS refuses (kModelError) as infeasible.
            return _Solve(2, None, "HiGHS refused the model")
        ran = highs.run()
        status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
        if ran == _ERROR or status != _MODEL_STATUS.kOptimal:
            # An optimum reported by a failed run counts as a failure.
            return _Solve(_STATUS.get(status, 4) or 4, None, message)
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row = np.array(solution.row_value)
    finally:
        highs.clearSolver()
    # The same expressions as scipy's check, so the verdict is the same.
    if not (
        (x >= lb - _ACCEPT).all()
        and (x <= ub + _ACCEPT).all()
        and (rhs - row >= -_ACCEPT).all()
        and (lhs - row <= _ACCEPT).all()
    ):
        return _Solve(4, None, "the optimum misses the constraints")
    return _Solve(0, x, message)
