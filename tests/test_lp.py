"""HiGHS box-bounded equality-constrained LPs against vertex enumeration."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog

from hzreach import lp

from conftest import recorded_highs


def vertex_optimum(c, A, b, lb, ub, maximize=True):
    """Best objective over the vertices of {A x = b, lb <= x <= ub}, or None.

    A vertex leaves rank(A) variables free and puts every other variable
    on one of its bounds.  The polytope is bounded, so it is empty exactly
    when no such point satisfies the equations and the bounds.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    n = c.size
    rank = np.linalg.matrix_rank(A)
    best = None
    for free in itertools.combinations(range(n), rank):
        free = list(free)
        if np.linalg.matrix_rank(A[:, free]) < rank:
            continue
        fixed = [j for j in range(n) if j not in free]
        for upper in itertools.product((False, True), repeat=len(fixed)):
            x = np.zeros(n)
            x[fixed] = np.where(upper, ub[fixed], lb[fixed])
            if free:
                x[free] = np.linalg.lstsq(A[:, free], b - A @ x, rcond=None)[0]
            if not np.allclose(A @ x, b, atol=1e-9):
                continue
            if np.any(x < lb - 1e-9) or np.any(x > ub + 1e-9):
                continue
            value = float(c @ x)
            if best is None or (value > best if maximize else value < best):
                best = value
    return best


def solve_checked(c, A, b, lb, ub, maximize=True):
    """HiGHS result, after checking status and value against the vertices."""
    res = lp.solve_box_lp(c, A, b, lb, ub, maximize=maximize)
    ref = vertex_optimum(c, A, b, lb, ub, maximize)
    if ref is None:
        assert res.status == lp.INFEASIBLE
    else:
        assert res.optimal
        assert res.value == pytest.approx(ref, abs=1e-7)
    return res


def test_unconstrained_box_max():
    res = lp.solve_box_lp([1.0, -2.0, 0.0], None, None, -np.ones(3), np.ones(3))
    assert res.optimal
    assert res.value == pytest.approx(3.0)


def test_single_equality():
    # max x1 + x2 st x1 + x2 = 0.5 in the unit box
    res = solve_checked([1.0, 1.0], [[1.0, 1.0]], [0.5], -np.ones(2), np.ones(2))
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_infeasible_rhs_out_of_reach():
    res = solve_checked([0.0, 0.0], [[1.0, 1.0]], [3.0], -np.ones(2), np.ones(2))
    assert res.status == lp.INFEASIBLE


def test_binding_upper_bound():
    res = solve_checked([1.0, 0.0], [[1.0, -1.0]], [0.0], -np.ones(2), np.ones(2))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)


def test_minimize():
    res = solve_checked(
        [1.0, 1.0], [[1.0, 1.0]], [0.5], -np.ones(2), np.ones(2), maximize=False
    )
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_degenerate_zero_row():
    A = [[1.0, 0.0], [0.0, 0.0]]
    res = solve_checked([0.0, 1.0], A, [0.25, 0.0], -np.ones(2), np.ones(2))
    assert res.optimal
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_contradictory_zero_row_is_infeasible():
    res = solve_checked([0.0], [[0.0]], [1.0], [-1.0], [1.0])
    assert res.status == lp.INFEASIBLE


def test_general_bounds():
    res = solve_checked([1.0, 1.0], [[1.0, 2.0]], [1.0], [0.0, -0.5], [2.0, 0.5])
    # x2 at its lower bound -0.5 makes x1 = 2 and the sum 1.5
    assert res.value == pytest.approx(1.5, abs=1e-9)


def test_random_cross_check():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        A = rng.normal(size=(m, n))
        # Feasible by construction: pick an interior point
        x0 = rng.uniform(-0.8, 0.8, n)
        b = A @ x0
        c = rng.normal(size=n)
        res = solve_checked(c, A, b, -np.ones(n), np.ones(n))
        assert np.all(np.abs(res.x) <= 1 + 1e-9)
        assert np.allclose(A @ res.x, b, atol=1e-8)


def test_random_infeasible_cross_check():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 20.0  # usually out of the box's reach
        res = solve_checked(np.zeros(n), A, b, -np.ones(n), np.ones(n))
        hits += res.status == lp.INFEASIBLE
    assert hits > 10


def violation(A, b, lb, ub, x):
    return max(np.abs(A @ x - b).max(), (lb - x).max(), (x - ub).max())


def presolve(call):
    return call.options.presolve == "on"


def feasibility_tolerance(call):
    return call.options.primal_feasibility_tolerance


A2 = np.array([[1.0, 1.0, 0.5], [0.0, 1.0, -1.0]])
B2 = np.array([0.5, 0.25])
BOX3 = (-np.ones(3), np.ones(3))


def test_feasibility_lp_is_solved_once_without_presolve(monkeypatch):
    calls = recorded_highs(monkeypatch, lambda res: res)
    assert lp.solve_box_lp(np.zeros(3), A2, B2, *BOX3).optimal
    assert len(calls) == 1
    assert not presolve(calls[0]) and feasibility_tolerance(calls[0]) == 1e-7


def test_objective_lp_is_solved_once_at_a_tight_tolerance(monkeypatch):
    calls = recorded_highs(monkeypatch, lambda res: res)
    assert lp.solve_box_lp([1.0, -1.0, 2.0], A2, B2, *BOX3).optimal
    assert len(calls) == 1
    assert not presolve(calls[0]) and feasibility_tolerance(calls[0]) == 1e-10


def test_inexact_optimum_is_replaced_by_the_presolve_solve(monkeypatch):
    def off_by_1e7(res):
        return res._replace(x=res.x + 1e-7)

    calls = recorded_highs(monkeypatch, off_by_1e7)
    res = lp.solve_box_lp([1.0, -1.0, 2.0], A2, B2, *BOX3)
    assert len(calls) == 2 and presolve(calls[1])
    assert res.optimal
    assert violation(A2, B2, *BOX3, res.x) <= 1e-9


@pytest.mark.parametrize("b, status", [(B2, lp.OPTIMAL), (B2 + 5.0, lp.INFEASIBLE)])
def test_non_optimal_verdict_is_the_second_solves(monkeypatch, b, status):
    def infeasible(res):
        return res._replace(status=2, x=None)

    calls = recorded_highs(monkeypatch, infeasible)
    res = lp.solve_box_lp([1.0, -1.0, 2.0], A2, b, *BOX3)
    assert len(calls) == 2
    assert not presolve(calls[1]) and feasibility_tolerance(calls[1]) == 1e-7
    assert res.status == status


def test_random_objective_lps_meet_the_constraints_within_1e9():
    # Mixed row and column scales, optima on many bounds.
    rng = np.random.default_rng(2024)
    for _ in range(30):
        m = int(rng.integers(5, 25))
        n = int(rng.integers(m + 5, 2 * m + 20))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-2, 1, (m, 1))
        A = A * 10.0 ** rng.uniform(-2, 1, (1, n))
        x0 = np.clip(rng.uniform(-1.5, 1.5, n), -1.0, 1.0)
        lb, ub = -np.ones(n), np.ones(n)
        res = lp.solve_box_lp(rng.normal(size=n), A, A @ x0, lb, ub)
        assert res.optimal
        assert violation(A, A @ x0, lb, ub, res.x) <= 1e-9


# `lp._highs` against scipy.optimize.linprog, which gives HiGHS the same
# model and options: every answer must be bitwise the same.
LINPROG_OPTIONS = (
    (lp._DEFAULT, None),
    (lp._NO_PRESOLVE, {"presolve": False}),
    (lp._TIGHT, {"presolve": False, "primal_feasibility_tolerance": 1e-10}),
)


def random_lps(seed, count=24):
    """(c, A_ub, b_ub, A_eq, b_eq, lb, ub) with mixed row and column scales:
    feasible, out of reach (infeasible), free variables with an objective
    (often unbounded), and the leaf-anchor shape with inequality rows."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = k % 4
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m + 1, m + 8))
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-2, 1, (m, 1))
        A = A * 10.0 ** rng.uniform(-2, 1, (1, n))
        A[rng.random(A.shape) < 0.2] = 0.0
        lb, ub = -np.ones(n), np.ones(n)
        b = A @ rng.uniform(-0.9, 0.9, n)
        c = rng.normal(size=n)
        no_rows = (np.zeros((0, n)), np.zeros(0))
        if kind == 1:
            b = b + np.abs(A).sum(axis=1) + 1.0
        elif kind == 2:
            free = rng.random(n) < 0.5
            lb[free], ub[free] = -np.inf, np.inf
        if kind != 3:
            yield (c, *no_rows, A, b, lb, ub)
            continue
        # max t subject to |xi_k| + t <= 1 and A xi = b, as in oracle._leaf_anchor
        eye, ones = np.eye(n), np.ones((n, 1))
        A_ub = np.vstack([np.hstack([eye, ones]), np.hstack([-eye, ones])])
        A_eq = np.hstack([A, np.zeros((m, 1))])
        cost = np.zeros(n + 1)
        cost[-1] = -1.0
        lb, ub = np.append(lb, 0.0), np.ones(n + 1)
        yield cost, A_ub, np.ones(2 * n), A_eq, b, lb, ub


@pytest.mark.parametrize("options, linprog_options", LINPROG_OPTIONS)
def test_highs_matches_linprog_bitwise(options, linprog_options):
    statuses = set()
    for c, A_ub, b_ub, A_eq, b_eq, lb, ub in random_lps(5):
        ref = linprog(
            c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            bounds=np.column_stack([lb, ub]), method="highs", options=linprog_options,
        )
        lhs = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
        rhs = np.concatenate([b_ub, b_eq])
        res = lp._highs(c, np.vstack([A_ub, A_eq]), lhs, rhs, lb, ub, options)
        assert res.status == ref.status
        if res.status == 0:
            assert res.x.tobytes() == ref.x.tobytes()
        statuses.add(res.status)
    assert {0, 2, 3} <= statuses


def test_no_option_or_state_carries_to_the_next_lp():
    # A feasibility solve after a tight objective solve and a presolve solve
    # on the same thread runs without presolve at HiGHS's default 1e-7, from
    # a cleared solver, and answers as a fresh linprog call does.
    c = np.array([1.0, -1.0, 2.0])
    assert lp.solve_box_lp(c, A2, B2, *BOX3).optimal
    lp._highs(-c, A2, B2, B2, *BOX3, lp._DEFAULT)
    res = lp.solve_box_lp(np.zeros(3), A2, B2, *BOX3)
    highs = lp._thread.highs
    assert highs.getOptionValue("presolve")[1] == "off"
    assert highs.getOptionValue("primal_feasibility_tolerance")[1] == 1e-7
    assert not highs.getBasis().valid
    ref = linprog(
        np.zeros(3), A_eq=A2, b_eq=B2, bounds=np.column_stack(BOX3),
        method="highs", options={"presolve": False},
    )
    assert res.x.tobytes() == ref.x.tobytes()


def test_threads_answer_bitwise_as_one_thread():
    problems = [
        (c if k % 3 else np.zeros_like(c), A_eq, b_eq, lb, ub)
        for k, (c, A_ub, _, A_eq, b_eq, lb, ub) in enumerate(random_lps(9, 40))
        if A_ub.size == 0 and np.isfinite(lb).all()
    ]

    def solve(problem):
        res = lp.solve_box_lp(*problem)
        return res.status, None if res.x is None else res.x.tobytes()

    serial = [solve(p) for p in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, problems * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4


@pytest.mark.parametrize("where", ["c", "A", "b", "c without rows"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("c", [np.zeros(3), np.array([1.0, -1.0, 2.0])])
def test_non_finite_data_is_refused(where, value, c):
    data = {"c": c.copy(), "A": A2.copy(), "b": B2.copy()}
    if where == "c without rows":
        data.update(A=None, b=None)
        where = "c"
    data[where].flat[1] = value
    with pytest.raises(ValueError):
        lp.solve_box_lp(data["c"], data["A"], data["b"], *BOX3)


def test_infinite_bounds_are_allowed():
    # x3 is free; the equations bound it.
    lb, ub = np.array([-1.0, -1.0, -np.inf]), np.array([1.0, 1.0, np.inf])
    res = lp.solve_box_lp([0.0, 0.0, 1.0], A2, B2, lb, ub)
    assert res.optimal
    assert res.value == pytest.approx(0.75, abs=1e-9)
    # Without rows nothing bounds x3, and HiGHS says so.
    for maximize in (True, False):
        res = lp.solve_box_lp([0.0, 0.0, 1.0], None, None, lb, ub, maximize=maximize)
        assert res.status == lp.UNBOUNDED
