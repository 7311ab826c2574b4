"""Oracle queries: membership, support, hull, emptiness, sampling."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hzreach import (
    Halfspace,
    HybridZonotope,
    MatrixZonotope,
    Zonotope,
    empty_hz,
    generalized_intersection,
    halfspace_intersection,
    lift_zonotope,
    minkowski_sum,
    union,
)
from hzreach import lp, oracle

from conftest import box, directions_2d, interval


@pytest.fixture
def one_d_union():
    return union(interval(-1.0, 0.0), interval(1.0, 2.0))


class TestMembership:
    def test_origin_in_unit_box(self, unit_box_2d):
        assert oracle.membership(unit_box_2d, [0.0, 0.0], 1e-9)

    def test_outside_unit_box(self, unit_box_2d):
        assert not oracle.membership(unit_box_2d, [2.0, 0.0], 1e-9)

    def test_union_gap(self, one_d_union):
        assert not oracle.membership(one_d_union, [0.5], 1e-9)

    def test_dimension_check(self, unit_box_2d):
        with pytest.raises(ValueError):
            oracle.membership(unit_box_2d, [0.0], 1e-9)

    def test_cap(self, unit_box_2d):
        wide = unit_box_2d
        for _ in range(3):
            wide = union(wide, wide)
        assert wide.nb == 7
        with pytest.raises(oracle.EnumerationCapError):
            oracle.membership(wide, [0.0, 0.0], 1e-9, bin_cap=5)


class TestSupport:
    def test_unit_box(self, unit_box_2d):
        assert oracle.support(unit_box_2d, [1.0, 0.0]) == pytest.approx(1.0)

    def test_sum_additivity(self, unit_box_2d):
        s = minkowski_sum(unit_box_2d, unit_box_2d)
        assert oracle.support(s, [1.0, 0.0]) == pytest.approx(2.0)

    def test_half_box(self, unit_box_2d):
        half = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], 0.0))
        assert oracle.support(half, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_zero_direction_rejected(self, unit_box_2d):
        with pytest.raises(ValueError):
            oracle.support(unit_box_2d, [0.0, 0.0])

    def test_empty_support_is_minus_inf(self):
        assert oracle.support(empty_hz(2), [1.0, 0.0]) == -np.inf

    def test_closed_form_matches_lp(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = lift_zonotope(Zonotope(rng.normal(size=3), rng.normal(size=(3, 4))))
            # Append a vacuous constraint row to force the LP path.
            con = HybridZonotope(
                z.Gc, z.Gb, z.c, np.zeros((1, z.ng)), np.zeros((1, 0)), np.zeros(1)
            )
            d = rng.normal(size=3)
            closed = float(d @ z.c + np.abs(d @ z.Gc).sum())
            assert oracle.support(z, d) == pytest.approx(closed, abs=1e-9)
            assert oracle.support(con, d) == pytest.approx(closed, abs=1e-9)


class TestIntervalHull:
    def test_unit_box(self, unit_box_2d):
        lo, hi = oracle.interval_hull(unit_box_2d)
        assert np.allclose(lo, [-1.0, -1.0])
        assert np.allclose(hi, [1.0, 1.0])

    def test_translated(self):
        lo, hi = oracle.interval_hull(box([3.0, 3.0], 1.0))
        assert np.allclose(lo, [2.0, 2.0])
        assert np.allclose(hi, [4.0, 4.0])

    def test_half_box(self, unit_box_2d):
        half = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], 0.0))
        lo, hi = oracle.interval_hull(half)
        assert np.allclose(lo, [-1.0, -1.0], atol=1e-9)
        assert np.allclose(hi, [0.0, 1.0], atol=1e-9)

    def test_empty_raises(self):
        with pytest.raises(oracle.EmptySetError):
            oracle.interval_hull(empty_hz(2))


class TestIsEmpty:
    def test_unit_box(self, unit_box_2d):
        assert not oracle.is_empty(unit_box_2d)

    def test_repeat_solves_no_lp(self, monkeypatch, unit_box_2d, one_d_union):
        # Without binaries the first test's answer is the whole leaf list;
        # with binaries, any query that found the full list serves it.
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 1.0], 0.5))
        assert not oracle.is_empty(cut)
        oracle.support(one_d_union, [1.0])
        calls = []
        solve = lp.solve_box_lp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp, "solve_box_lp", counted)
        assert not oracle.is_empty(cut)
        oracle.sample(cut, 5, seed=0)
        assert not oracle.is_empty(one_d_union)
        oracle.sample(one_d_union, 5, seed=0)
        assert calls == []

    def test_disjoint_intersection(self, unit_box_2d):
        z = generalized_intersection(unit_box_2d, np.eye(2), box([5.0, 5.0], 1.0))
        assert oracle.is_empty(z)

    def test_contradictory_constraint(self):
        assert oracle.is_empty(empty_hz(3))


class TestSample:
    def test_unit_box_infnorm(self, unit_box_2d):
        pts = oracle.sample(unit_box_2d, 50, seed=0)
        assert pts.shape == (50, 2)
        assert np.max(np.abs(pts)) <= 1.0 + 1e-12

    def test_point_set(self):
        p = HybridZonotope.from_point([2.0, -1.0])
        pts = oracle.sample(p, 5, seed=1)
        assert np.allclose(pts, [2.0, -1.0])

    def test_union_samples_land_in_pieces(self, one_d_union):
        pts = oracle.sample(one_d_union, 60, seed=2)
        for x in pts.ravel():
            assert (-1.0 - 1e-9 <= x <= 1e-9) or (1.0 - 1e-9 <= x <= 2.0 + 1e-9)

    def test_membership_of_samples(self, unit_box_2d):
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 1.0], 0.5))
        for x in oracle.sample(cut, 100, seed=3):
            assert oracle.membership(cut, x, 1e-7)

    def test_deterministic(self, unit_box_2d):
        a = oracle.sample(unit_box_2d, 20, seed=42)
        b = oracle.sample(unit_box_2d, 20, seed=42)
        assert np.array_equal(a, b)
        c = oracle.sample(unit_box_2d, 20, seed=43)
        assert not np.array_equal(a, c)

    def test_empty_raises(self):
        with pytest.raises(oracle.EmptySetError):
            oracle.sample(empty_hz(2), 3, seed=0)


class TestLeafProblem:
    def test_rhs_invariant(self, one_d_union):
        for leaf in oracle.enumerate_leaves(one_d_union):
            expected = one_d_union.b - one_d_union.Ab @ leaf.assignment
            assert np.allclose(leaf.con_rhs, expected)
            assert np.all(np.abs(leaf.assignment) == 1.0)

    def test_feasible_leaf_count(self, one_d_union):
        # One selector binary, both pieces nonempty.
        assert len(oracle.feasible_assignments(one_d_union)) == 2


class TestConsistency:
    def test_width_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
            for d in directions_2d(8):
                assert oracle.support(z, d) + oracle.support(z, -d) >= -1e-12

    def test_membership_respects_support(self, one_d_union):
        pts = oracle.sample(one_d_union, 30, seed=5)
        for d in [np.array([1.0]), np.array([-1.0])]:
            h = oracle.support(one_d_union, d)
            for x in pts:
                assert float(d @ x) <= h + 1e-7

    def test_dfs_path_agrees_with_enumeration(self):
        # Fold unions until the binary count exceeds the enumeration limit.
        pieces = [interval(float(2 * k), float(2 * k) + 0.5) for k in range(12)]
        u = pieces[0]
        for p in pieces[1:]:
            u = union(u, p)
        assert u.nb == 11  # strictly above the enumeration limit
        for k in range(12):
            assert oracle.membership(u, [2.0 * k + 0.25], 1e-9)
            assert not oracle.membership(u, [2.0 * k + 1.25], 1e-9)
        assert oracle.support(u, [1.0]) == pytest.approx(22.5, abs=1e-7)
        assert oracle.support(u, [-1.0]) == pytest.approx(0.0, abs=1e-7)
        assert not oracle.is_empty(u)
        pts = oracle.sample(u, 40, seed=6)
        for x in pts:
            assert oracle.membership(u, x, 1e-7)

    def test_support_matches_brute_force(self, unit_box_2d):
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 2.0], 0.3))
        for d in directions_2d(8):
            assert oracle.support(cut, d) == pytest.approx(
                brute_support(cut, d), abs=1e-8
            )

    def test_enum_limit_only_selects_the_search(self):
        # The same leaves, in the same order, by enumeration and by DFS.
        pieces = [interval(float(3 * k), float(3 * k) + 1.0) for k in range(4)]
        u = pieces[0]
        for p in pieces[1:]:
            u = union(u, p)
        u = halfspace_intersection(u, Halfspace([1.0], 7.5))
        by_enum = oracle.feasible_assignments(u, enum_limit=u.nb)
        by_dfs = oracle.feasible_assignments(fresh(u), enum_limit=0)
        assert len(by_enum) == 3
        assert np.array_equal(by_enum, by_dfs)


# ---------------------------------------------------------------------------
# Brute force: every one of the 2**nb leaves, one scipy LP each.


def fresh(z):
    """An equal set that has not stored its leaves yet."""
    return HybridZonotope(z.Gc, z.Gb, z.c, z.Ac, z.Ab, z.b)


def brute_leaves(z):
    for xb in itertools.product((1.0, -1.0), repeat=z.nb):
        yield np.array(xb).reshape(z.nb)


def brute_support(z, d):
    best = -np.inf
    for xb in brute_leaves(z):
        res = linprog(
            -(d @ z.Gc), A_eq=z.Ac, b_eq=z.b - z.Ab @ xb,
            bounds=[(-1.0, 1.0)] * z.ng, method="highs",
        )
        if res.status == 0:
            best = max(best, -res.fun + float(d @ (z.c + z.Gb @ xb)))
    return best


def brute_membership(z, x):
    A = np.vstack([z.Gc, z.Ac])
    for xb in brute_leaves(z):
        rhs = np.concatenate([x - z.c - z.Gb @ xb, z.b - z.Ab @ xb])
        res = linprog(
            np.zeros(z.ng), A_eq=A, b_eq=rhs,
            bounds=[(-1.0, 1.0)] * z.ng, method="highs",
        )
        if res.status == 0:
            return True
    return False


def random_piece(rng, dim):
    """A zonotope, cut by a halfspace half of the time."""
    z = lift_zonotope(
        Zonotope(rng.uniform(-2.0, 2.0, dim), rng.uniform(-1.0, 1.0, (dim, 2)))
    )
    if rng.random() < 0.5:
        z = halfspace_intersection(
            z, Halfspace(rng.normal(size=dim), float(rng.uniform(-2.0, 2.0)))
        )
    return z


def build_set(seed, ops, dim):
    """Apply union / cut / sum to a random start set, keeping nb <= 4."""
    rng = np.random.default_rng(seed)
    z = random_piece(rng, dim)
    for op in ops:
        if op == "union" and z.nb < 4:
            z = union(z, random_piece(rng, dim))
        elif op == "cut":
            # An offset below the set's minimum empties the set; one that
            # cuts off a union piece leaves an infeasible leaf.
            z = halfspace_intersection(
                z, Halfspace(rng.normal(size=dim), float(rng.uniform(-4.0, 3.0)))
            )
        elif op == "sum" and z.nb < 4:
            z = minkowski_sum(z, union(random_piece(rng, dim), random_piece(rng, dim)))
    return z


def assert_matches_brute_force(z, queries, rng):
    """Each query against brute force to 1e-7; a repeat returns the same value."""
    empty = brute_support(z, np.eye(z.dim)[0]) == -np.inf
    dirs = rng.normal(size=(4, z.dim))
    points = rng.uniform(-4.0, 4.0, (6, z.dim))
    for query in queries:
        if query == "is_empty":
            first = oracle.is_empty(z)
            assert first == empty
            assert oracle.is_empty(z) == first
        elif query == "support":
            for d in dirs:
                first = oracle.support(z, d)
                assert first == pytest.approx(brute_support(z, d), abs=1e-7)
                assert oracle.support(z, d) == first
        elif query == "interval_hull":
            if empty:
                with pytest.raises(oracle.EmptySetError):
                    oracle.interval_hull(z)
                continue
            lo, hi = oracle.interval_hull(z)
            for k, e in enumerate(np.eye(z.dim)):
                assert hi[k] == pytest.approx(brute_support(z, e), abs=1e-7)
                assert lo[k] == pytest.approx(-brute_support(z, -e), abs=1e-7)
            lo2, hi2 = oracle.interval_hull(z)
            assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        elif query == "membership":
            for x in points:
                first = oracle.membership(z, x)
                assert first == brute_membership(z, x)
                assert oracle.membership(z, x) == first


QUERIES = ("is_empty", "support", "interval_hull", "membership")


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=5),
        dim=st.integers(1, 2),
        queries=st.permutations(QUERIES),
    )
    def test_random_sets(self, seed, ops, dim, queries):
        z = build_set(seed, ops, dim)
        assert z.nb <= 4
        assert_matches_brute_force(z, queries, np.random.default_rng(seed))

    @pytest.mark.parametrize("queries", [QUERIES, QUERIES[::-1]])
    def test_set_with_an_infeasible_leaf(self, queries):
        # The cut removes [2, 3] but keeps the other two pieces.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        z = halfspace_intersection(z, Halfspace([1.0], 1.75))
        assert len(oracle.feasible_assignments(fresh(z))) < 2**z.nb
        assert_matches_brute_force(z, queries, np.random.default_rng(0))

    @pytest.mark.parametrize("queries", [QUERIES, QUERIES[::-1]])
    def test_empty_set(self, queries):
        z = union(interval(-1.0, 0.0), interval(2.0, 3.0))
        z = halfspace_intersection(z, Halfspace([1.0], -2.0))
        assert_matches_brute_force(z, queries, np.random.default_rng(0))


class TestMatrixMembership:
    def test_center(self):
        M = MatrixZonotope(np.eye(2), (0.1 * np.eye(2),))
        assert oracle.matrix_membership(M, np.eye(2))

    def test_edge_of_range(self):
        M = MatrixZonotope(np.eye(2), (0.1 * np.eye(2),))
        assert oracle.matrix_membership(M, 1.1 * np.eye(2))
        assert not oracle.matrix_membership(M, 1.2 * np.eye(2))

    def test_no_generators(self):
        M = MatrixZonotope(np.eye(2), ())
        assert oracle.matrix_membership(M, np.eye(2))
        assert not oracle.matrix_membership(M, 1.01 * np.eye(2))
