"""Linear programs over box-bounded variables with equality constraints.

Every query in this package reduces to

    maximize    c @ x
    subject to  A @ x = b,    lb <= x <= ub,

which HiGHS solves through scipy.  The trivial shapes (no variables, no
constraint rows) are answered in closed form without a solver call.
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

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


_NO_PRESOLVE = {"presolve": False}
_TIGHT = {"presolve": False, "primal_feasibility_tolerance": 1e-10}


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

    if A.shape[0] == 0:
        x = np.where((c > 0) == maximize, ub, lb)
        x = np.where(c == 0, lb, x)
        return LPResult(OPTIMAL, x, float(c @ x))

    def highs(options):
        return linprog(
            -c if maximize else c,
            A_eq=A,
            b_eq=b,
            bounds=np.column_stack([lb, ub]),
            method="highs",
            options=options,
        )

    if not np.any(c):
        res = highs(_NO_PRESOLVE)
    else:
        res = highs(_TIGHT)
        if res.status != 0:
            res = highs(_NO_PRESOLVE)
        elif _violation(A, b, lb, ub, res.x) > 1e-9:
            res = highs(None)
    if res.status == 0:
        return LPResult(OPTIMAL, np.asarray(res.x), float(c @ res.x))
    if res.status == 2:
        return LPResult(INFEASIBLE)
    if res.status == 3:
        return LPResult(UNBOUNDED)
    raise LPError(f"HiGHS failed: {res.message}")


def _violation(A, b, lb, ub, x) -> float:
    """Largest equation residual or bound violation of x."""
    return max(np.abs(A @ x - b).max(), (lb - x).max(), (x - ub).max())
