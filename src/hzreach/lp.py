"""Linear programs over box-bounded variables with equality constraints.

Every query in this package reduces to

    maximize    c @ x
    subject to  A @ x = b,    lb <= x <= ub,

which HiGHS solves through scipy.  Only an LP without variables is
answered without a solver call: feasible iff every |b_i| <= 1e-9.  One
without constraint rows passes a (0, n) matrix and goes to HiGHS like
any other, so it gets the same data checks and verdicts.  HiGHS is
deterministic, so equal inputs give equal results.

Every LP is solved without HiGHS's presolve, which costs most of the
time of the small LPs here:

* a feasibility LP (c == 0) is solved at HiGHS's default primal
  feasibility tolerance of 1e-7, once, or twice when a warm solve (see
  below) ends without an optimum;
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
options and clears the solver afterwards, so only an explicit start
basis passed by the caller carries from one LP to the next.
`solve_box_lp` takes one (`start`) and gives it to HiGHS on the first
solve only: the tight solve of an objective LP, or the one solve of a
feasibility LP.  A warm solve that does not end at an optimum is solved
again cold, so a verdict other than an optimum always comes from a cold
solve.  Which simplex runs follows from what the start keeps (Bertsimas
& Tsitsiklis, *Introduction to Linear Optimization*, 1997, section 5.1):

* a warm objective LP shares its start's rows and right-hand side and
  changes only the cost, so the start stays primal feasible; the primal
  simplex goes straight to phase 2, where the dual simplex would first
  win back dual feasibility;
* a warm feasibility LP changes the right-hand side, and with c == 0
  every basis is dual feasible, so the dual simplex only repairs the
  rows whose right-hand side changed;
* every cold solve, and every re-solve, runs the dual simplex, as
  scipy's front end does.

Every optimum returns its basis (`LPResult.basis`).  A solve without a
start basis gets bitwise the answer of scipy's front end; a warm solve
may differ from it in the last bits, and always meets the same checks.

A caller may name an objective LP's family: ``solve_box_lp(c, ...,
family=F)`` with c = F @ d for some d.  An optimum then also returns the
optimality cone of its basis in d (`LPResult.cone`, see `_cone`), which
`_highs` computes while HiGHS still holds the basis's factorization, by
one transpose solve per column of F.  Where HiGHS refuses those solves,
the optimum comes without a cone.

A constraint matrix reaches HiGHS as `Rows`, built once.  `solve_box_lp`
and `_highs` take it or a plain array, which they prepare on the spot;
the oracle's leaf store prepares a set's matrix once for all its leaf
LPs.  Every solve copies the prepared matrix into a fresh model, so
HiGHS sees the same bytes either way.
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
    basis: object = None  # HiGHS's optimal basis, a start for a sibling LP
    cone: np.ndarray | None = None  # that basis's optimality cone in d (family LPs)

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _settings(presolve: bool, tolerance: float | None = None, primal: bool = False):
    """HiGHS's options as scipy's LP front end sets them for method "highs".

    scipy runs the dual simplex; only a warm objective LP, whose start
    stays primal feasible under a new cost, passes the primal one.
    """
    settings = _core.HighsOptions()
    settings.output_flag = False
    settings.log_to_console = False
    settings.highs_debug_level = _core.kHighsDebugLevelNone
    strategy = _core.simplex_constants.SimplexStrategy
    settings.simplex_strategy = (
        strategy.kSimplexStrategyPrimal if primal else strategy.kSimplexStrategyDual
    )
    settings.presolve = "on" if presolve else "off"
    if tolerance is not None:
        settings.primal_feasibility_tolerance = tolerance
    return settings


# The four option sets of the solve policy, built once; every solve
# passes one of them whole.  `_WARM` is `_TIGHT` with the primal simplex.
_DEFAULT = _settings(presolve=True)
_NO_PRESOLVE = _settings(presolve=False)
_TIGHT = _settings(presolve=False, tolerance=1e-10)
_WARM = _settings(presolve=False, tolerance=1e-10, primal=True)


class Rows:
    """A constraint matrix A, prepared for HiGHS once.

    `matrix` is A column-wise with zeros dropped and each column's rows in
    increasing order, as HiGHS reads it; `finite` says whether every
    entry of A is finite.  A itself is kept for residual checks.
    """

    __slots__ = ("A", "shape", "finite", "matrix")

    def __init__(self, A):
        self.A = A = np.asarray(A, dtype=float)
        self.shape = (m, n) = A.shape
        self.finite = bool(np.isfinite(A).all())
        cols, rows = np.nonzero(A.T)
        matrix = self.matrix = _core.HighsSparseMatrix()
        matrix.format_ = _core.MatrixFormat.kColwise
        matrix.num_col_ = n
        matrix.num_row_ = m
        matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
        # The bindings convert a list about twice as fast as an array,
        # into the same values.
        matrix.index_ = rows.tolist()
        matrix.value_ = A.T[cols, rows].tolist()

    def __len__(self) -> int:
        """The row count, as len() of the array gives it; perfbench's LP cell
        counter takes len() of the A that solve_box_lp receives."""
        return self.shape[0]


def solve_box_lp(c, A, b, lb, ub, *, start=None, family=None) -> LPResult:
    """Solve max c@x subject to A@x = b and lb <= x <= ub.

    A is an array or `Rows`.  `start` is the `basis` of an earlier optimum
    with the same shape, from which the first solve starts, with the
    primal simplex for an objective LP and the dual simplex for a
    feasibility LP (c == 0); a warm solve without an optimum is solved
    again cold.  `family` is an (n, k) matrix F with c = F @ d for some
    d; an optimum then also returns its basis's `cone` over F (see
    `_cone`), or None where HiGHS refuses the solves it needs.
    """
    c = np.asarray(c, dtype=float).ravel()
    lb = np.asarray(lb, dtype=float).ravel()
    ub = np.asarray(ub, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n = c.size
    if lb.size != n or ub.size != n:
        raise ValueError("bound vectors do not match the variable count")
    if n == 0:
        if np.all(np.abs(b) <= 1e-9):
            return LPResult(OPTIMAL, np.zeros(0), 0.0)
        return LPResult(INFEASIBLE)
    if not isinstance(A, Rows):
        A = Rows(np.asarray(A, dtype=float).reshape(-1, n))
    if A.shape != (b.size, n):
        raise ValueError("constraint matrix and right-hand side disagree")
    if np.any(lb > ub + 1e-9):
        return LPResult(INFEASIBLE)

    if family is not None:
        family = -np.asarray(family, dtype=float)

    def highs(options, start=None):
        return _highs(-c, A, b, b, lb, ub, options, start, family)

    if not np.any(c):
        res = highs(_NO_PRESOLVE, start)
        if start is not None and res.status != 0:
            res = highs(_NO_PRESOLVE)
    else:
        res = highs(_TIGHT if start is None else _WARM, start)
        if res.status != 0:
            res = highs(_NO_PRESOLVE)
        elif _violation(A.A, b, lb, ub, res.x) > 1e-9:
            res = highs(_DEFAULT)
    if res.status == 0:
        return LPResult(OPTIMAL, res.x, float(c @ res.x), res.basis, res.cone)
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
    reached, 2 infeasible, 3 unbounded, 4 failure.  x and the basis only
    when optimal, and the cone when optimal and asked for."""

    status: int
    x: np.ndarray | None
    message: str
    basis: object = None
    cone: np.ndarray | None = None


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


def _highs(c, A, lhs, rhs, lb, ub, options, start=None, family=None) -> _Solve:
    """Minimize c @ x subject to lhs <= A @ x <= rhs and lb <= x <= ub.

    A is an array or `Rows`; `options` is `_DEFAULT`, `_NO_PRESOLVE`,
    `_TIGHT` or `_WARM`; `start`, if given, is the basis HiGHS starts
    from; `family`, if given, is F with c = F @ d, whose cone an optimum
    returns.  Raises ValueError, as scipy's front end does, if c, A or a
    row bound is NaN or infinite, or a variable bound is NaN; a row bound
    may be infinite only on the open side (lhs = -inf).
    """
    if not isinstance(A, Rows):
        A = Rows(A)
    if not (
        np.isfinite(c).all()
        and A.finite
        and np.isfinite(rhs).all()
        and (lhs < np.inf).all()
        and not (np.isnan(lb).any() or np.isnan(ub).any())
    ):
        raise ValueError("LP data must be finite (bounds may be infinite)")

    model = _core.HighsLp()
    model.num_row_, model.num_col_ = A.shape
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    model.a_matrix_ = A.matrix  # a copy: the prepared matrix stays as it is

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
        if start is not None and highs.setBasis(start) == _ERROR:
            return _Solve(4, None, "HiGHS refused the start basis")
        ran = highs.run()
        status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
        if ran == _ERROR or status != _MODEL_STATUS.kOptimal:
            # An optimum reported by a failed run counts as a failure.
            return _Solve(_STATUS.get(status, 4) or 4, None, message)
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row = np.array(solution.row_value)
        basis = highs.getBasis()
        cone = None if family is None else _cone(highs, A, family, x, lb, ub)
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
    return _Solve(0, x, message, basis, cone)


def _cone(highs, A: Rows, F: np.ndarray, x, lb, ub) -> np.ndarray | None:
    """The optimality cone of HiGHS's current basis for costs F @ d.

    With y(d) solving B^T y = (F d)_B over the basic variables (a basic
    row slack costs 0), variable j's reduced cost is r_j(d) = F_j d -
    A_j . y(d), linear in d.  Returns one row per variable within 1e-12
    of a bound: that map's row, negated at an upper bound, so that the
    basis is optimal for the costs F @ d wherever every entry of
    ``cone @ d`` is >= 0.  A basic variable has r_j = 0, so the rows need
    no basis status; a nonbasic variable off its bounds, or a solve HiGHS
    refuses, gives None.  Must run before `clearSolver`, while HiGHS holds
    the basis's factorization.
    """
    status, basic = highs.getBasicVariables()
    lower = x <= lb + 1e-12
    bound = lower | (x >= ub - 1e-12)
    structural = basic >= 0
    cols = basic[structural]
    # Every variable off its bounds must be basic.
    if status == _ERROR or x.size - np.count_nonzero(bound) != np.count_nonzero(~bound[cols]):
        return None
    G = F.T  # row i: the costs of d = e_i
    Y = np.zeros((len(G), A.shape[0]))
    if A.shape[0]:
        cost = np.zeros(A.shape[0])  # by basis position
        for i, g in enumerate(G):
            cost[structural] = g[cols]
            status, Y[i] = highs.getBasisTransposeSolve(cost)
            if status == _ERROR:
                return None
    at = np.flatnonzero(bound)
    return ((G - Y @ A.A) * np.where(lower, 1.0, -1.0))[:, at].T
