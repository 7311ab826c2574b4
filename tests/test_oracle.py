"""Oracle queries: membership, support, hull, emptiness, sampling."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hzreach import (
    Halfspace,
    HybridZonotope,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    empty_hz,
    generalized_intersection,
    halfspace_intersection,
    lift_zonotope,
    linear_map,
    matzono_times_set,
    minkowski_sum,
    union,
)
from hzreach import cli, lp, oracle
from hzreach.ident import identify_models, partition_trajectories, read_trajectory_csv
from hzreach.reach import reach_horizon

from conftest import box, directions_2d, interval, is_anchor, recorded_highs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


# Unit boxes whose equality rows are infeasible in the factor box by `gap`:
# one row asks for xi1 + xi2 = 2 + gap, two rows make xi1 = 1 + gap.
NEAR_EMPTY = {
    "one row": ([[1.0, 1.0]], lambda gap: [2.0 + gap]),
    "two rows": ([[1.0, 1.0], [1.0, -1.0]], lambda gap: [1.0, 1.0 + 2.0 * gap]),
}
HIGHS_PRUNES = pytest.mark.xfail(
    strict=True,
    reason="HiGHS calls this system infeasible at its 1e-7 tolerance",
)


def near_empty(system, gap, nb):
    rows, rhs = NEAR_EMPTY[system]
    Ac = np.array(rows)
    return HybridZonotope(
        Gc=np.eye(2), Gb=np.zeros((2, nb)), c=np.zeros(2),
        Ac=Ac, Ab=np.zeros((len(Ac), nb)), b=rhs(gap),
    )


class TestPruningNearTolerance:
    """Emptiness on both sides of HiGHS's 1e-7 feasibility tolerance.

    A set infeasible by 5e-8 should be kept (pruning leans toward
    keeping); one infeasible by 1e-5 is empty.  The strict xfails pin
    where the oracle prunes such a set today.
    """

    @pytest.mark.parametrize("nb", [0, 1])
    @pytest.mark.parametrize("system", list(NEAR_EMPTY))
    def test_gap_of_1e5_is_empty(self, system, nb):
        assert oracle.is_empty(near_empty(system, 1e-5, nb))
        for d in directions_2d(8):
            assert oracle.support(near_empty(system, 1e-5, nb), d) == -np.inf

    @pytest.mark.parametrize(
        "system", ["one row", pytest.param("two rows", marks=HIGHS_PRUNES)]
    )
    def test_support_without_binaries_is_finite(self, system):
        # With nb = 0, support solves the leaf LP without a feasibility pass.
        for d in directions_2d(8):
            assert np.isfinite(oracle.support(near_empty(system, 5e-8, 0), d))

    @pytest.mark.parametrize(
        "system", ["one row", pytest.param("two rows", marks=HIGHS_PRUNES)]
    )
    @pytest.mark.parametrize("nb", [0, 1])
    def test_gap_of_5e8_is_kept(self, system, nb):
        assert not oracle.is_empty(near_empty(system, 5e-8, nb))

    @pytest.mark.parametrize(
        "system", ["one row", pytest.param("two rows", marks=HIGHS_PRUNES)]
    )
    def test_support_with_binaries_is_finite(self, system):
        for d in directions_2d(8):
            assert np.isfinite(oracle.support(near_empty(system, 5e-8, 1), d))


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
        # Eleven binaries and twelve feasible leaves; the fresh copy has no
        # candidates, so its leaves come from the DFS.
        pieces = [interval(float(2 * k), float(2 * k) + 0.5) for k in range(12)]
        u = pieces[0]
        for p in pieces[1:]:
            u = union(u, p)
        u = fresh(u)
        assert u.nb == 11
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


# ---------------------------------------------------------------------------
# Brute force: every one of the 2**nb leaves, one scipy LP each.


def fresh(z):
    """An equal set that has not stored its leaves yet."""
    return HybridZonotope(z.Gc, z.Gb, z.c, z.Ac, z.Ab, z.b)


def brute_leaves(z):
    for xb in itertools.product((1.0, -1.0), repeat=z.nb):
        yield np.array(xb).reshape(z.nb)


def brute_feasible_leaves(z):
    """The assignments whose leaf passes a feasibility LP, in enumeration order."""
    return [
        xb
        for xb in brute_leaves(z)
        if linprog(
            np.zeros(z.ng), A_eq=z.Ac, b_eq=z.b - z.Ab @ xb,
            bounds=[(-1.0, 1.0)] * z.ng, method="highs",
        ).status == 0
    ]


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


def unpruned_support(z, d):
    """The maximum over every stored leaf of its LP, none skipped.

    The leaf LP has the oracle's inputs and value expression, so the
    pruned answer must equal this one bit for bit.
    """
    if z.nc == 0:
        return oracle.support(z, d)
    best = -np.inf
    for xb in oracle.feasible_assignments(z):
        res = lp.solve_box_lp(
            d @ z.Gc, z.Ac, z.b - z.Ab @ xb, -np.ones(z.ng), np.ones(z.ng)
        )
        if res.optimal:
            best = max(best, res.value + float(d @ (z.c + z.Gb @ xb)))
    return best


def robust_membership(z, x):
    """membership(z, x), or None when x lies within about 1e-5 outside z."""
    inside = oracle.membership(z, x)
    return inside if inside == oracle.membership(z, x, 1e-5) else None


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
    # Pins a past fault: with presolve, HiGHS rejected a member's 1e-9 slack LP.
    @example(
        seed=1161, ops=["cut", "union", "union", "union", "union"], dim=2, queries=QUERIES
    )
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

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=5),
        dim=st.integers(1, 3),
    )
    def test_pruned_support_is_bitwise_the_leaf_maximum(self, seed, ops, dim):
        z = build_set(seed, ops, dim)
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(16, dim))
        dirs[0] = np.eye(dim)[0]  # answered from the stored box
        expected = [unpruned_support(z, d) for d in dirs]
        for order in (dirs, dirs[::-1]):
            w = fresh(z)
            got = [oracle.support(w, d) for d in order]
            if order is not dirs:
                got = got[::-1]
            assert got == expected
            assert [oracle.support(w, d) for d in dirs] == expected
        if expected[0] == -np.inf:
            return
        # interval_hull equals the loop over +-e_k of the unpruned maximum.
        lo, hi = oracle.interval_hull(fresh(z))
        for k, e in enumerate(np.eye(dim)):
            assert hi[k] == unpruned_support(z, e)
            assert lo[k] == -unpruned_support(z, -e)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops_a=st.lists(st.sampled_from(("union", "cut")), max_size=2),
        ops_b=st.lists(st.sampled_from(("union", "cut")), max_size=2),
        dim=st.integers(1, 2),
    )
    def test_union_and_cut_membership_are_exact(self, seed, ops_a, ops_b, dim):
        # On points away from every boundary: x in A u B iff x in A or x in B,
        # and x in A n H iff x in A and x in H.
        a = build_set(seed, ops_a, dim)
        b = build_set(seed + 1, ops_b, dim)
        rng = np.random.default_rng(seed)
        h = Halfspace(rng.normal(size=dim), float(rng.uniform(-2.0, 2.0)))
        u = union(a, b)
        cut = halfspace_intersection(a, h)
        points = list(rng.uniform(-4.0, 4.0, (8, dim)))
        for z in (a, b):
            if not oracle.is_empty(z):
                points += list(oracle.sample(z, 4, seed))
        for x in points:
            in_a, in_b = robust_membership(a, x), robust_membership(b, x)
            if in_a is None or in_b is None:
                continue
            assert oracle.membership(u, x) == (in_a or in_b)
            margin = float(h.normal @ x) - h.offset
            if abs(margin) > 1e-6:
                assert oracle.membership(cut, x) == (in_a and margin < 0.0)

    @pytest.mark.parametrize("queries", [QUERIES, QUERIES[::-1]])
    def test_set_with_an_infeasible_leaf(self, queries):
        # The cut removes [2, 3] but keeps the other two pieces.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        z = halfspace_intersection(z, Halfspace([1.0], 1.75))
        assert len(oracle.feasible_assignments(fresh(z))) < 2**z.nb
        assert_matches_brute_force(z, queries, np.random.default_rng(0))

    def test_member_found_with_a_slack_below_highs_tolerance(self):
        # Pins a past fault: when slack LPs ran with presolve, HiGHS called
        # this point's slack system (per-row slack 1e-9) infeasible although
        # the system without slack is feasible.
        z = build_set(1161, ["cut", "union", "union", "union", "union"], 2)
        rng = np.random.default_rng(1161)
        rng.normal(size=(4, 2))
        x = rng.uniform(-4.0, 4.0, 2)
        assert brute_membership(z, x)
        assert oracle.membership(z, x)

    @pytest.mark.parametrize("queries", [QUERIES, QUERIES[::-1]])
    def test_empty_set(self, queries):
        z = union(interval(-1.0, 0.0), interval(2.0, 3.0))
        z = halfspace_intersection(z, Halfspace([1.0], -2.0))
        assert_matches_brute_force(z, queries, np.random.default_rng(0))


class TestPrunedSupport:
    def test_second_sweep_solves_no_lp(self, monkeypatch):
        pieces = [box([3.0 * np.cos(t), 3.0 * np.sin(t)], 0.5) for t in (0.0, 2.0, 4.0)]
        z = union(union(pieces[0], pieces[1]), pieces[2])
        z = halfspace_intersection(z, Halfspace([0.0, 1.0], 3.0))
        calls = []
        solve = lp.solve_box_lp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        leaves = len(oracle.feasible_assignments(z))
        assert leaves == 3
        monkeypatch.setattr(lp, "solve_box_lp", counted)
        first = [oracle.support(z, d) for d in directions_2d(64)]
        # 2 * dim box LPs per leaf, then far fewer than one LP per leaf.
        assert len(calls) < 4 * leaves + 64 * leaves // 2
        calls.clear()
        assert [oracle.support(z, d) for d in directions_2d(64)] == first
        assert calls == []

    def test_threads_sharing_one_store_get_the_leaf_maximum(self):
        # More workers than cores, switching often, all starting on a set
        # whose store does not exist yet.
        pieces = [box([3.0 * np.cos(t), 3.0 * np.sin(t)], 0.5) for t in range(5)]
        z = pieces[0]
        for piece in pieces[1:]:
            z = union(z, piece)
        z = halfspace_intersection(z, Halfspace([1.0, 1.0], 3.5))
        dirs = directions_2d(32)
        expected = [unpruned_support(z, d) for d in dirs]
        w = fresh(z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [
                    pool.submit(lambda r: [oracle.support(w, d) for d in np.roll(dirs, r, 0)], r)
                    for r in range(6)
                ]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for r, got in enumerate(results):
            assert got == list(np.roll(expected, r))

    def test_sets_of_any_leaf_count_store_their_supports(
        self, unit_box_2d, one_d_union
    ):
        # The hull's +e_1 query reads the first query's pair; only a set
        # with two or more leaves solves the leaves' boxes.
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 1.0], 0.5))
        oracle.support(cut, [1.0, 0.0])
        oracle.interval_hull(cut)
        assert len(cut._store.pairs) == 4 and cut._store.box is None
        oracle.support(one_d_union, [1.0])
        assert one_d_union._store.box is not None

    def test_benchmark_families_are_bitwise_the_leaf_maximum(self, tmp_path):
        # The six families of the benchmark_pwa reachability run, in the
        # 64 directions of its polygon export.
        cfg = cli.load_config(CONFIGS / "benchmark_pwa.json")
        cli.simulate(cfg, tmp_path, seed=1001)
        transitions = read_trajectory_csv(
            tmp_path / cli.TRAJECTORY_FILE, cfg.state_dim, cfg.input_dim
        )
        models = identify_models(
            partition_trajectories(transitions, cfg.system.regions),
            cfg.system.noise_w,
        )
        families = reach_horizon(
            cfg.initial_set,
            models,
            cfg.system.regions,
            lift_zonotope(cfg.input_set),
            cfg.system.noise_w,
            5,
            opts=cfg.reach_options(),
        )
        assert max(len(oracle.feasible_assignments(f.union_set)) for f in families) > 2
        for fam in families:
            z = fam.union_set
            got = [oracle.support(z, d) for d in directions_2d(64)]
            assert got == [unpruned_support(z, d) for d in directions_2d(64)]


def derived_sets(seed, ops, dim):
    """A random start set and each set derived from it by union / cut / sum /
    map / product, keeping nb <= 4.

    An operand is sometimes the empty set, whose one candidate fails the
    prescreen, and a cut far outside empties the set the same way.  Some
    sets are queried before the next operation, so that it starts from
    stored leaves instead of candidates.
    """
    rng = np.random.default_rng(seed)

    def operand():
        return empty_hz(dim) if rng.random() < 0.2 else random_piece(rng, dim)

    z = random_piece(rng, dim)
    sets = [z]
    for op in ops:
        if rng.random() < 0.3:
            oracle.is_empty(z)
        elif rng.random() < 0.3:
            oracle.feasible_assignments(z)
        if op == "union" and z.nb < 4:
            # Either operand may come first, and both may have binaries.
            other = operand() if z.nb > 1 else union(operand(), operand())
            z = union(z, other) if rng.random() < 0.5 else union(other, z)
        elif op == "cut":
            z = halfspace_intersection(
                z, Halfspace(rng.normal(size=dim), float(rng.uniform(-4.0, 3.0)))
            )
        elif op == "sum" and z.nb < 4:
            z = minkowski_sum(z, union(operand(), operand()))
        elif op == "map":
            z = linear_map(rng.normal(size=(dim, dim)), z)
        elif op == "product" and z.nb < 4:
            sets.append(cartesian_product(z, union(operand(), random_piece(rng, dim))))
            z = linear_map(rng.normal(size=(dim, 2 * dim)), sets[-1])
        else:
            continue
        sets.append(z)
    return sets


def as_rows(assignments, nb):
    return np.array(assignments, dtype=float).reshape(len(assignments), nb)


class TestCandidates:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(("union", "cut", "sum", "map", "product")), max_size=6
        ),
        dim=st.integers(1, 2),
    )
    def test_derived_sets_store_what_a_search_finds(self, seed, ops, dim):
        # The candidates' leaves, and those the DFS finds on a fresh copy,
        # are the brute-force list.
        sets = derived_sets(seed, ops, dim)
        assert all(z._candidates is not None for z in sets[1:])
        for z in sets:
            expected = as_rows(brute_feasible_leaves(z), z.nb)
            got = as_rows(oracle.feasible_assignments(z), z.nb)
            searched = as_rows(oracle.feasible_assignments(fresh(z)), z.nb)
            assert np.array_equal(got, expected)
            assert np.array_equal(searched, expected)

    def test_folded_union_checks_each_candidate_once(self, monkeypatch):
        pieces = [interval(float(2 * k), float(2 * k) + 0.5) for k in range(12)]
        u = pieces[0]
        for p in pieces[1:]:
            u = union(u, p)
        assert u.nb == 11 and len(u._candidates) == 12
        calls = []
        solve = lp.solve_box_lp

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        def no_search(*args):
            raise AssertionError("a set with candidates was searched")

        monkeypatch.setattr(lp, "solve_box_lp", counted)
        monkeypatch.setattr(oracle, "_dfs_assignments", no_search)
        assert len(oracle.feasible_assignments(u)) == 12
        assert len(calls) <= len(u._candidates)

    @pytest.mark.parametrize("offset", [0.25, 1.75])
    def test_product_does_not_recheck_what_an_emptiness_test_checked(
        self, monkeypatch, offset
    ):
        # At 0.25 the first candidate is infeasible; at 1.75 it is
        # feasible, so the emptiness test stops before the infeasible one.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        piece = halfspace_intersection(z, Halfspace([1.0], offset))
        checked = []
        leaf_feasible = oracle._leaf_feasible

        def recorded(z, xb):
            checked.append((z.b - z.Ab @ xb).tobytes())
            return leaf_feasible(z, xb)

        monkeypatch.setattr(oracle, "_leaf_feasible", recorded)
        assert not oracle.is_empty(piece)
        product = cartesian_product(piece, interval(-1.0, 1.0))
        got = as_rows(oracle.feasible_assignments(product), product.nb)
        assert len(checked) == len(set(checked))
        expected = oracle.feasible_assignments(fresh(product))
        assert np.array_equal(got, as_rows(expected, product.nb))

    def test_matrix_product_carries_the_verified_leaves(self):
        # The hull inside matzono_times_set stores the operand's leaves
        # before the map is built, so the cut-off piece is not a candidate.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        z = halfspace_intersection(z, Halfspace([1.0], 1.75))
        assert len(z._candidates) == 3
        M = MatrixZonotope(np.array([[2.0]]), (np.array([[0.1]]),))
        out = matzono_times_set(M, z)
        assert np.array_equal(out._candidates, z._leaves)
        assert len(out._candidates) == 2


def near_boundary_points(z, rng):
    """Points on either side of, and on, the boundary of z.

    For a random direction, x* maximizes it over z and s is a sample;
    the points sit at 0.99, 1 and 1.01 of the way from s to x*.
    """
    points = []
    for s in oracle.sample(z, 2, int(rng.integers(2**31))):
        d = rng.normal(size=z.dim)
        best, x_star = -np.inf, None
        for xb in brute_leaves(z):
            res = linprog(
                -(d @ z.Gc), A_eq=z.Ac, b_eq=z.b - z.Ab @ xb,
                bounds=[(-1.0, 1.0)] * z.ng, method="highs",
            )
            if res.status == 0 and -res.fun + d @ (z.c + z.Gb @ xb) > best:
                best = -res.fun + d @ (z.c + z.Gb @ xb)
                x_star = z.c + z.Gb @ xb + z.Gc @ res.x
        points += [s + t * (x_star - s) for t in (0.99, 1.0, 1.01)]
    return points


def single_leaf_set():
    z = box([0.5, -0.5], [1.0, 2.0])
    z = halfspace_intersection(z, Halfspace([1.0, 1.0], 0.5))
    return halfspace_intersection(z, Halfspace([-1.0, 2.0], 1.0))


def stub_anchor_lps(monkeypatch, status):
    """Answer every leaf-anchor LP with `status` and no point; solve the rest."""
    highs = lp._highs

    def stub(c, A, lhs, rhs, lb, ub, options):
        if is_anchor(lhs):
            return lp._Solve(status, None, "stubbed")
        return highs(c, A, lhs, rhs, lb, ub, options)

    monkeypatch.setattr(lp, "_highs", stub)


class TestLeafStore:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=5),
        dim=st.integers(1, 2),
    )
    def test_membership_matches_brute_force(self, seed, ops, dim):
        z = build_set(seed, ops, dim)
        if brute_support(z, np.eye(dim)[0]) == -np.inf:
            return
        rng = np.random.default_rng(seed)
        points = list(oracle.sample(z, 6, seed)) + near_boundary_points(z, rng)
        for x in points:
            assert oracle.membership(z, x) == brute_membership(z, x)
        assert all(oracle.membership(fresh(z), x) for x in oracle.sample(z, 6, seed))

    def test_interior_point_of_a_single_leaf_set_needs_no_lp(self, monkeypatch):
        # A sample may lie on the boundary; moving it a tenth of the way to
        # the samples' mean puts it inside.
        z = single_leaf_set()
        samples = oracle.sample(z, 20, seed=5)
        points = 0.9 * samples + 0.1 * samples.mean(axis=0)
        calls = recorded_highs(monkeypatch)
        assert all(oracle.membership(z, x) for x in points)
        assert calls == []

    def test_point_off_a_flat_set_is_refused(self):
        # The segment from (-1, -1) to (1, 1), whole and cut at x1 <= 0.8:
        # the least-squares factors of a point beside it lie in the box,
        # but miss the equations.
        segment = lift_zonotope(Zonotope([0.0, 0.0], [[1.0], [1.0]]))
        for z in (segment, halfspace_intersection(segment, Halfspace([1.0, 0.0], 0.8))):
            assert oracle.membership(z, [0.5, 0.5])
            assert not oracle.membership(z, [0.5, -0.5])
            assert not oracle.membership(z, [0.3, 0.2], 1e-3)

    def test_non_member_is_refused_by_an_lp(self, monkeypatch):
        z = single_leaf_set()
        oracle.sample(z, 5, seed=0)
        calls = recorded_highs(monkeypatch)
        assert not oracle.membership(z, [3.0, 3.0])
        assert len(calls) == 1 and not calls[0].anchor

    def test_repeated_support_solves_no_second_lp(self, monkeypatch):
        z = single_leaf_set()
        d = np.array([0.3, -0.7])
        calls = recorded_highs(monkeypatch)
        first = oracle.support(z, d)
        assert len(calls) == 1 and not calls[0].anchor
        again = oracle.support(z, d.copy())
        assert len(calls) == 1
        assert np.float64(again).tobytes() == np.float64(first).tobytes()

    def test_second_sample_solves_no_anchor_lp(self, monkeypatch):
        z = union(single_leaf_set(), box([4.0, 0.0], 0.5))
        calls = recorded_highs(monkeypatch)
        first = oracle.sample(z, 30, seed=9)
        assert sum(call.anchor for call in calls) == 2  # one per leaf
        assert np.array_equal(oracle.sample(z, 30, seed=9), first)
        assert sum(call.anchor for call in calls) == 2

    @pytest.mark.parametrize(
        "status, error", [(2, oracle.EmptySetError), (1, lp.LPError), (4, lp.LPError)]
    )
    def test_anchor_failure_kinds(self, monkeypatch, status, error):
        stub_anchor_lps(monkeypatch, status)
        with pytest.raises(error):
            oracle.sample(single_leaf_set(), 3, seed=0)

    def test_membership_without_an_anchor_falls_back_to_the_lp(self, monkeypatch):
        z = single_leaf_set()
        points = oracle.sample(fresh(z), 10, seed=1)

        stub_anchor_lps(monkeypatch, 4)
        assert all(oracle.membership(z, x) for x in points)
        assert not oracle.membership(z, [3.0, 3.0])


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
