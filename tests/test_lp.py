"""HiGHS box-bounded equality-constrained LPs against vertex enumeration."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core

from hzreach import lp

from conftest import recorded_highs


def vertex_optimum(c, A, b, lb, ub):
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
            if best is None or value > best:
                best = value
    return best


def solve_checked(c, A, b, lb, ub):
    """HiGHS result, after checking status and value against the vertices."""
    res = lp.solve_box_lp(c, A, b, lb, ub)
    ref = vertex_optimum(c, A, b, lb, ub)
    if ref is None:
        assert res.status == lp.INFEASIBLE
    else:
        assert res.optimal
        assert res.value == pytest.approx(ref, abs=1e-7)
    return res


def test_unconstrained_box_max():
    res = lp.solve_box_lp([1.0, -2.0, 0.0], np.zeros((0, 3)), [], -np.ones(3), np.ones(3))
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


def sibling_basis(b=B2):
    """The optimal basis of an objective LP over A2 with right-hand side b."""
    res = lp.solve_box_lp([1.0, 1.0, -1.0], A2, b, *BOX3)
    assert res.optimal and res.basis is not None
    return res.basis


def test_start_basis_keeps_an_infeasible_verdict(monkeypatch):
    # Same matrix as a feasible sibling, a right-hand side out of reach.
    start = sibling_basis()
    calls = recorded_highs(monkeypatch)
    res = lp.solve_box_lp([1.0, -1.0, 2.0], A2, B2 + 5.0, *BOX3, start=start)
    assert res.status == lp.INFEASIBLE
    assert [call.start is start for call in calls] == [True, False]


@pytest.mark.parametrize("first", ["infeasible", "inexact"])
def test_start_basis_goes_to_the_tight_solve_only(monkeypatch, first):
    def infeasible(res):
        return res._replace(status=2, x=None)

    def inexact(res):
        return res._replace(x=res.x + 1e-7)

    start = sibling_basis(B2 + 0.1)
    calls = recorded_highs(monkeypatch, {"infeasible": infeasible, "inexact": inexact}[first])
    assert lp.solve_box_lp([1.0, -1.0, 2.0], A2, B2, *BOX3, start=start).optimal
    assert len(calls) == 2
    assert calls[0].start is start and feasibility_tolerance(calls[0]) == 1e-10
    assert calls[1].start is None
    assert presolve(calls[1]) == (first == "inexact")


def test_start_basis_goes_to_a_feasibility_lp(monkeypatch):
    rows = np.hstack([A2, np.eye(2)])
    box = (np.concatenate([BOX3[0], [-1e-7] * 2]), np.concatenate([BOX3[1], [1e-7] * 2]))
    start = lp.solve_box_lp(np.zeros(5), rows, B2, *box).basis
    calls = recorded_highs(monkeypatch)
    res = lp.solve_box_lp(np.zeros(5), rows, B2 + 0.1, *box, start=start)
    assert res.optimal and res.basis is not None
    assert [call.start is start for call in calls] == [True]
    assert not presolve(calls[0]) and feasibility_tolerance(calls[0]) == 1e-7


@pytest.mark.parametrize("b, status", [(B2, lp.OPTIMAL), (B2 + 5.0, lp.INFEASIBLE)])
def test_warm_feasibility_lp_without_an_optimum_is_solved_again_cold(monkeypatch, b, status):
    def infeasible(res):
        return res._replace(status=2, x=None)

    start = lp.solve_box_lp(np.zeros(3), A2, B2, *BOX3).basis
    calls = recorded_highs(monkeypatch, infeasible)
    res = lp.solve_box_lp(np.zeros(3), A2, b, *BOX3, start=start)
    assert [call.start is start for call in calls] == [True, False]
    assert calls[1].start is None and not presolve(calls[1])
    assert res.status == status


def sibling_lps(seed, count):
    """(A, b, c, c2) per LP: well-posed random rows, an interior point, and
    two objectives over the same rows."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(3, 20))
        n = int(rng.integers(m + 3, 2 * m + 15))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(-0.9, 0.9, n)
        yield A, b, rng.normal(size=n), rng.normal(size=n)


def test_warm_solves_match_cold_solves():
    for A, b, c, c2 in sibling_lps(31, 30):
        lb, ub = -np.ones(A.shape[1]), np.ones(A.shape[1])
        home = lp.solve_box_lp(c, A, b, lb, ub)
        warm = lp.solve_box_lp(c2, A, b, lb, ub, start=home.basis)
        cold = lp.solve_box_lp(c2, A, b, lb, ub)
        assert warm.optimal and cold.optimal
        assert violation(A, b, lb, ub, warm.x) <= 1e-9
        assert abs(warm.value - cold.value) <= 1e-12 * (1.0 + abs(cold.value))


def test_threads_from_one_stored_basis_answer_as_one_thread():
    A, b, c, _ = next(sibling_lps(8, 1))
    box = (-np.ones(A.shape[1]), np.ones(A.shape[1]))
    rows = lp.Rows(A)
    start = lp.solve_box_lp(c, rows, b, *box).basis
    costs = list(np.random.default_rng(3).normal(size=(24, A.shape[1])))

    def solve(cost):
        return lp.solve_box_lp(cost, rows, b, *box, start=start).x.tobytes()

    serial = [solve(cost) for cost in costs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(solve, costs * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4


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
        A = np.vstack([A_ub, A_eq])
        lhs = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
        rhs = np.concatenate([b_ub, b_eq])
        rows = lp.Rows(A)
        # A plain array, and prepared rows twice: each model gets a copy of
        # the prepared matrix, which stays as it was.
        for matrix in (A, rows, rows):
            res = lp._highs(c, matrix, lhs, rhs, lb, ub, options)
            assert res.status == ref.status
            if res.status == 0:
                assert res.x.tobytes() == ref.x.tobytes()
        statuses.add(res.status)
    assert {0, 2, 3} <= statuses


def test_warm_objective_lps_answer_as_cold_ones():
    # Mixed row and column scales, and free variables: each LP starts from
    # the optimal basis of a sibling with the same rows and right-hand side
    # and another cost (on a free variable, none), and must give the cold
    # solve's verdict, and its value within 1e-9 (1 + |h|).
    rng = np.random.default_rng(30)
    verdicts = set()
    for c, A_ub, _, A, b, lb, ub in random_lps(30, 80):
        if A_ub.size:
            continue
        home = lp.solve_box_lp(np.where(np.isfinite(lb), c, 0.0), A, b, lb, ub)
        if not home.optimal:
            continue
        for cost in rng.normal(size=(3, c.size)):
            warm = lp.solve_box_lp(cost, A, b, lb, ub, start=home.basis)
            cold = lp.solve_box_lp(cost, A, b, lb, ub)
            assert warm.status == cold.status
            if cold.optimal:
                assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            verdicts.add(cold.status)
    assert verdicts == {lp.OPTIMAL, lp.UNBOUNDED}


def test_no_option_or_state_carries_to_the_next_lp():
    # A warm objective solve runs the primal simplex.  A feasibility solve
    # after it, a tight objective solve and a presolve solve on the same
    # thread runs the dual simplex without presolve at HiGHS's default
    # 1e-7, from a cleared solver, and answers as a fresh linprog call does.
    strategy = _core.simplex_constants.SimplexStrategy
    c = np.array([1.0, -1.0, 2.0])
    home = lp.solve_box_lp(c, A2, B2, *BOX3)
    assert home.optimal
    lp._highs(-c, A2, B2, B2, *BOX3, lp._DEFAULT)
    assert lp.solve_box_lp(-c, A2, B2, *BOX3, start=home.basis).optimal
    highs = lp._thread.highs
    assert highs.getOptionValue("simplex_strategy")[1] == strategy.kSimplexStrategyPrimal
    res = lp.solve_box_lp(np.zeros(3), A2, B2, *BOX3)
    assert highs.getOptionValue("simplex_strategy")[1] == strategy.kSimplexStrategyDual
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


@pytest.mark.parametrize("where", ["c", "A", "b", "c without rows", "prepared A"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("c", [np.zeros(3), np.array([1.0, -1.0, 2.0])])
def test_non_finite_data_is_refused(where, value, c):
    data = {"c": c.copy(), "A": A2.copy(), "b": B2.copy()}
    if where == "c without rows":
        data.update(A=None, b=None)
        where = "c"
    prepared = where == "prepared A"
    if prepared:
        where = "A"
    data[where].flat[1] = value
    if prepared:
        data["A"] = lp.Rows(data["A"])
    with pytest.raises(ValueError):
        lp.solve_box_lp(data["c"], data["A"], data["b"], *BOX3)


def test_infinite_bounds_are_allowed():
    # x3 is free; the equations bound it.
    lb, ub = np.array([-1.0, -1.0, -np.inf]), np.array([1.0, 1.0, np.inf])
    res = lp.solve_box_lp([0.0, 0.0, 1.0], A2, B2, lb, ub)
    assert res.optimal
    assert res.value == pytest.approx(0.75, abs=1e-9)
    # Without rows nothing bounds x3, and HiGHS says so.
    res = lp.solve_box_lp([0.0, 0.0, 1.0], np.zeros((0, 3)), [], lb, ub)
    assert res.status == lp.UNBOUNDED


def test_solve_box_lp_takes_prepared_rows():
    problems = [
        (c, A_eq, b_eq, lb, ub)
        for c, A_ub, _, A_eq, b_eq, lb, ub in random_lps(9, 40)
        if A_ub.size == 0
    ]
    for c, A, b, lb, ub in problems:
        for cost in (c, np.zeros_like(c)):
            plain = lp.solve_box_lp(cost, A, b, lb, ub)
            res = lp.solve_box_lp(cost, lp.Rows(A), b, lb, ub)
            assert res.status == plain.status
            if res.optimal:
                assert res.x.tobytes() == plain.x.tobytes()
                assert res.value == plain.value
    with pytest.raises(ValueError):
        lp.solve_box_lp(np.ones(3), lp.Rows(A2), B2[:1], *BOX3)


def test_cone_is_the_reduced_cost_map_of_the_optimal_basis():
    # The reduced costs of the costs F @ d', as numpy computes them from the
    # basis matrix, at every variable on a bound, each row signed so that
    # the basis stays optimal where cone @ d' >= 0.
    basic = lp._core.HighsBasisStatus.kBasic
    for A, b, _, _ in sibling_lps(7, 20):
        (m, n), k = A.shape, 3
        rng = np.random.default_rng(m * n)
        F, d = rng.normal(size=(n, k)), rng.normal(size=k)
        lb, ub = -np.ones(n), np.ones(n)
        res = lp.solve_box_lp(F @ d, A, b, lb, ub, family=F)
        assert res.optimal and lp.solve_box_lp(F @ d, A, b, lb, ub).cone is None
        cols = [j for j, s in enumerate(res.basis.col_status) if s == basic]
        rows = [i for i, s in enumerate(res.basis.row_status) if s == basic]
        B = np.hstack([A[:, cols], np.eye(m)[:, rows]])
        Y = np.linalg.solve(B.T, np.vstack([F[cols], np.zeros((len(rows), k))]))
        reduced = F - A.T @ Y
        upper, lower = res.x >= 1.0 - 1e-12, res.x <= -1.0 + 1e-12
        sign = np.where(upper, 1.0, -1.0)
        expected = (sign[:, None] * reduced)[upper | lower]
        assert res.cone.shape == expected.shape
        assert np.abs(res.cone - expected).max() <= 1e-10 * (1.0 + np.abs(expected).max())
        assert (res.cone @ d >= -1e-9).all()
