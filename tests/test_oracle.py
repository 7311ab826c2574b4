"""Oracle queries: membership, support, hull, emptiness, sampling."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

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
from hzreach.setops import _union_operands

from conftest import CONFIGS, box, directions_2d, interval, is_anchor, recorded_highs


@pytest.fixture
def one_d_union():
    return union(interval(-1.0, 0.0), interval(1.0, 2.0))


@pytest.fixture(scope="module")
def benchmark_families(tmp_path_factory):
    """The union sets of the six families of the benchmark_pwa reachability
    run (seed 1001), whose polygon export queries 64 directions."""
    tmp_path = tmp_path_factory.mktemp("benchmark_pwa")
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
    return [fam.union_set for fam in families]


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
        # Also a direction that is not finite, on a set without constraint
        # rows and on the cut box {|x|_inf <= 1, x1 + x2 <= 0.5}.
        cut = TestStoredBases.cut_box()
        bad = ([0.0, 0.0], [np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0])
        for z, d in itertools.product((unit_box_2d, cut), bad):
            with pytest.raises(ValueError):
                oracle.support(z, d)

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
        # with binaries, any query that found the full list serves it.  (A
        # union's support reads its operands, not its own leaves.)
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 1.0], 0.5))
        assert not oracle.is_empty(cut)
        oracle.feasible_assignments(one_d_union)
        calls = count_lps(monkeypatch)
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

    def test_emptiness_is_the_first_hull_lp(self, monkeypatch, unit_box_2d):
        # is_empty solves the first leaf's +e_1 support LP, and the hull
        # reads it: 4 LPs per leaf in all, not a feasibility LP and 4 more.
        # A union's hull also checks its second leaf by that leaf's +e_1 LP;
        # its copy without the operand record answers from its own leaves.
        z = generalized_intersection(unit_box_2d, np.eye(2), box([0.5, 0.5], 1.0))
        cases = [
            (z, 1, [-0.5, -0.5], [1.0, 1.0]),
            (with_candidates(union(z, box([3.0, 0.0], 0.5))), 2, [-0.5, -0.5], [3.5, 1.0]),
        ]
        for w, leaves, lo_expected, hi_expected in cases:
            calls = count_lps(monkeypatch)
            assert not oracle.is_empty(w)
            assert len(calls) == 1
            lo, hi = oracle.interval_hull(w)
            assert len(calls) == 4 * leaves
            assert len(oracle.feasible_assignments(w)) == leaves
            assert np.allclose(lo, lo_expected) and np.allclose(hi, hi_expected)

    def test_empty_set_without_binaries(self, monkeypatch, unit_box_2d):
        # The row prescreen refuses the single candidate before any LP.
        z = generalized_intersection(unit_box_2d, np.eye(2), box([5.0, 5.0], 1.0))
        calls = count_lps(monkeypatch)
        assert oracle.is_empty(z)
        for d in directions_2d(8):
            assert oracle.support(z, d) == -np.inf
        assert len(calls) == 0
        with pytest.raises(oracle.EmptySetError):
            oracle.interval_hull(z)

    def test_set_without_a_dimension(self):
        # No direction to ask: the feasibility LP decides.
        z = HybridZonotope(
            np.zeros((0, 1)), np.zeros((0, 0)), np.zeros(0),
            [[1.0]], np.zeros((1, 0)), [2.0],
        )
        assert oracle.is_empty(z)
        assert not oracle.is_empty(HybridZonotope(z.Gc, z.Gb, z.c, z.Ac, z.Ab, [0.5]))

    def test_set_without_a_dimension_checks_each_candidate_by_a_zero_cost_lp(
        self, monkeypatch
    ):
        # Its home direction is the empty vector, whose LP costs nothing.
        # Each candidate passes the row prescreen.  In the first set, xb = +1
        # asks for xi = (1.8, 0), out of the box, and xb = -1 for (0.5, 0.5);
        # in the second, xb = +-1 asks for xi1 = +-1.8, and only the
        # relaxation's xb = 0 fits.
        Ac = np.array([[1.0, 1.0], [1.0, -1.0]])
        cases = [
            ([1.4, 0.9], [[-0.4], [-0.9]], [[-1.0]]),
            ([0.0, 0.0], [[-1.8], [-1.8]], []),
        ]
        for b, Ab, leaves in cases:
            z = HybridZonotope(np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), Ac, Ab, b)
            calls = recorded_highs(monkeypatch)
            assert oracle.is_empty(z) == (not leaves)
            assert as_rows(oracle.feasible_assignments(z), 1).tolist() == leaves
            checks = [call for call in calls if call.c.size == z.ng]
            assert len(checks) == 2
            assert all(not call.c.any() and call.start is None for call in checks)


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
        # With nb = 0, the leaf's +e_1 LP decides it, then support solves d.
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

    def test_draws_from_every_leaf_of_65(self):
        # 64 intervals of half-width 0.25 centred on the odd numbers from
        # -63 to 63, one binary factor per power of two, and [100, 101]
        # as the 65th leaf in enumeration order.
        grid = HybridZonotope(
            [[0.25]], [2.0 ** np.arange(6)], [0.0],
            np.zeros((0, 1)), np.zeros((0, 6)), np.zeros(0),
        )
        z = union(grid, interval(100.0, 101.0))
        assert len(oracle.feasible_assignments(z)) == 65
        centers = np.append(np.arange(-63.0, 64.0, 2.0), 100.5)
        halfwidths = np.append(np.full(64, 0.25), 0.5)
        pts = oracle.sample(z, 1000, seed=0).ravel()
        nearest = np.abs(pts[:, None] - centers).argmin(axis=1)
        assert np.all(np.abs(pts - centers[nearest]) <= halfwidths[nearest] + 1e-9)
        assert set(nearest.tolist()) == set(range(65))


class TestLeafProblem:
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


def leaf_lp(z, xb, d):
    """Leaf xb's LP in direction d, with the oracle's inputs and value
    expression: +e_1 is solved cold, and any other direction from the
    optimal basis of that +e_1 LP (cold where it has none)."""
    d = np.asarray(d, dtype=float)
    e1 = np.eye(z.dim)[0]
    rhs, box = z.b - z.Ab @ xb, (-np.ones(z.ng), np.ones(z.ng))
    res = lp.solve_box_lp(e1 @ z.Gc, z.Ac, rhs, *box)
    if not np.array_equal(d, e1):
        res = lp.solve_box_lp(d @ z.Gc, z.Ac, rhs, *box, start=res.basis)
    return res.value + float(d @ (z.c + z.Gb @ xb)) if res.optimal else -np.inf


def assert_leaves_within_bounds(z, dirs):
    """Every feasible leaf's LP in each direction is at most its bound
    U_k(d) from what z's store holds, within the pruning margin."""
    leaves = oracle.feasible_assignments(z)
    if z.nc == 0 or not leaves:
        return  # nothing stored: a closed form, or no leaf
    for d in dirs:
        bound, _ = z._store.bounds(z, d, len(leaves))
        for k, xb in enumerate(leaves):
            h = leaf_lp(z, xb, d)
            assert h <= bound[k] + 1e-9 * (1.0 + abs(h))


def unpruned_support(z, d):
    """The maximum over every stored leaf of its LP, none skipped.

    The pruned answer must equal this one bit for bit in an axis
    direction, which is always solved by the leaf's LP; in any other
    direction a stored basis may answer, within round-off (`same_support`).
    """
    if z.nc == 0:
        return oracle.support(z, d)
    return max((leaf_lp(z, xb, d) for xb in oracle.feasible_assignments(z)), default=-np.inf)


def close_support(got, expected) -> bool:
    """got == expected where either is infinite, else within 1e-12 (1 + |expected|)."""
    if not (np.isfinite(got) and np.isfinite(expected)):
        return got == expected
    return abs(got - expected) <= 1e-12 * (1.0 + abs(expected))


def same_support(got, expected, d) -> bool:
    """got == expected in an axis direction, else close_support."""
    if np.count_nonzero(d) == 1:
        return got == expected
    return close_support(got, expected)


def recorded_support(z, d):
    """unpruned_support over what z records: the maximum over a union's
    operands, the sum over a product's factors (0, or -inf for an empty
    factor, where d is zero on it).  The oracle's answer equals this bit
    for bit in an axis direction; a union's own leaf LPs need not."""
    rule, sets = z._operands or (None, ())
    if rule == "union":
        return max(recorded_support(w, d) for w in sets)
    if rule == "product" and z.nc:
        parts = np.split(d, [sets[0].dim])
        return sum(
            recorded_support(w, part) if part.any() else (-np.inf if oracle.is_empty(w) else 0.0)
            for w, part in zip(sets, parts)
        )
    return unpruned_support(z, d)


def same_supports(got, expected, dirs) -> bool:
    return len(got) == len(expected) and all(map(same_support, got, expected, dirs))


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
            assert same_supports(got, expected, dirs)
            assert [oracle.support(w, d) for d in dirs] == got
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


class TestProductSupport:
    """A product's support, answered from its factors, against the maximum
    over the product's own leaf LPs."""

    @staticmethod
    def directions(rng, a, z):
        """Random directions, and some that are zero on one factor."""
        dirs = rng.normal(size=(6, z.dim))
        dirs[0, : a.dim] = 0.0
        dirs[1, a.dim :] = 0.0
        return np.vstack([dirs, np.eye(z.dim), -np.eye(z.dim)])

    @settings(max_examples=30, deadline=None)
    @example(seed=0, ops_a=["union", "cut"], ops_b=["cut"], dims=(2, 1))
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops_a=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=3),
        ops_b=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=3),
        dims=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    )
    def test_support_is_the_product_leaf_maximum(self, seed, ops_a, ops_b, dims):
        a = build_set(seed, ops_a, dims[0])
        b = build_set(seed + 1, ops_b, dims[1])
        z = cartesian_product(a, b)
        for d in self.directions(np.random.default_rng(seed), a, z):
            got = oracle.support(z, d)
            expected = unpruned_support(fresh(z), d)
            if expected == -np.inf:
                assert got == -np.inf
            else:
                assert abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("empty_first", [False, True])
    def test_empty_factor(self, empty_first):
        # The cut removes both pieces of a union with one binary.
        empty = halfspace_intersection(
            union(interval(-1.0, 0.0), interval(2.0, 3.0)), Halfspace([1.0], -2.0)
        )
        a, b = box([0.0, 1.0], 1.0), empty
        if empty_first:
            a, b = b, a
        z = cartesian_product(a, b)
        for d in self.directions(np.random.default_rng(0), a, z):
            assert oracle.support(z, d) == -np.inf
            assert unpruned_support(fresh(z), d) == -np.inf

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(st.sampled_from(("union", "cut", "sum")), max_size=3),
        dim=st.integers(1, 3),
        input_dim=st.integers(1, 2),
    )
    def test_point_factor_hull_is_bitwise(self, seed, ops, dim, input_dim):
        # As estimation's time update builds it: a set times a point input.
        a = build_set(seed, ops, dim)
        u = np.random.default_rng(seed).uniform(-3.0, 3.0, input_dim)
        z = cartesian_product(a, HybridZonotope.from_point(u))
        for d in np.vstack([np.eye(z.dim), -np.eye(z.dim)]):
            got = oracle.support(z, d)
            assert got == recorded_support(z, d)
            assert close_support(got, unpruned_support(fresh(z), d))

    def test_factors_answer_from_their_stores(self, monkeypatch):
        # Every direction of the product's hull was solved on a factor.
        a = three_boxes()
        lo, hi = oracle.interval_hull(a)
        z = cartesian_product(a, interval(-1.0, 2.0))
        calls = count_lps(monkeypatch)
        lo_z, hi_z = oracle.interval_hull(z)
        assert calls == []
        assert np.array_equal(lo_z, np.append(lo, -1.0))
        assert np.array_equal(hi_z, np.append(hi, 2.0))


class TestUnionSupport:
    """A union's support, answered as the largest of its recorded operands'."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(("union", "cut", "sum", "map", "product")), max_size=4
        ),
        dim=st.integers(1, 2),
    )
    def test_support_is_the_operand_maximum(self, seed, ops, dim):
        # On every union among the derived sets: bitwise the operands' own
        # answers, within round-off of the union's own leaf LPs, and the
        # brute-force support.
        rng = np.random.default_rng(seed)
        for u in derived_sets(seed, ["union"] + ops, dim):
            if _union_operands(u)[0] is u:  # not a union
                continue
            dirs = np.vstack([np.eye(u.dim), -np.eye(u.dim), rng.normal(size=(4, u.dim))])
            for d in dirs:
                got = oracle.support(u, d)
                assert got == max(oracle.support(w, d) for w in _union_operands(u))
                assert close_support(got, unpruned_support(fresh(u), d))
                assert got == pytest.approx(brute_support(u, d), abs=1e-7)

    def test_folded_union_records_its_pieces_flat(self):
        rule, pieces = folded_union()._operands
        assert rule == "union" and len(pieces) == 12
        for k, piece in enumerate(pieces):
            assert piece._operands is None
            assert oracle.support(piece, [-1.0]) == -2.0 * k
            assert oracle.support(piece, [1.0]) == 2.0 * k + 0.5

    def test_empty_operands(self):
        # An operand emptied by a cut, or built empty, adds nothing.
        cut_away = halfspace_intersection(box([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -2.0))
        other = halfspace_intersection(box([1.0, 2.0], 0.5), Halfspace([1.0, 1.0], 3.2))
        for empty in (empty_hz(2), cut_away):
            for u in (union(empty, other), union(other, empty)):
                for d in directions_2d(16):
                    assert oracle.support(u, d) == oracle.support(other, d)
            assert oracle.support(union(empty, cut_away), [1.0, 0.0]) == -np.inf
        assert oracle.support(union(empty_hz(2), empty_hz(2)), [0.0, 1.0]) == -np.inf

    def test_an_operand_below_the_floor_solves_no_lp(self, monkeypatch):
        # small lies inside big, whose support is a closed form: in each of
        # 64 directions the bound from small's home basis is below big's
        # answer, so small solves its home LP, the check of its one leaf,
        # and no other.  Alone, the same sweep solves LPs on small.
        big = box([0.0, 0.0], 2.0)
        small = halfspace_intersection(box([0.1, -0.2], 0.3), Halfspace([1.0, 1.0], 0.2))
        u = union(big, small)
        calls = count_lps(monkeypatch)
        got = [oracle.support(u, d) for d in directions_2d(64)]
        assert len(calls) == 1
        assert got == [oracle.support(big, d) for d in directions_2d(64)]
        for d in directions_2d(64):
            oracle.support(fresh(small), d)
        assert len(calls) > 64


class TestPrunedSupport:
    def test_second_sweep_solves_no_lp(self, monkeypatch):
        z = three_boxes()
        leaves = len(oracle.feasible_assignments(z))
        assert leaves == 3
        calls = count_lps(monkeypatch)
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
            assert same_supports(got, list(np.roll(expected, r)), np.roll(dirs, r, 0))

    def test_a_leaf_stored_during_a_query_still_counts(self, monkeypatch):
        # Other threads have stored a losing leaf's value in d, and store
        # the winning leaf's after this query has read what d holds but
        # before it visits the leaves.
        z = three_boxes()
        leaves = oracle.feasible_assignments(z)
        d = directions_at(100.0)
        values = [leaf_lp(z, xb, d) for xb in leaves]
        winner, loser = int(np.argmax(values)), int(np.argmin(values))
        oracle.support(z, directions_at(10.0))
        z._store._put(loser, d, values[loser])
        bounds = oracle._LeafStore.bounds

        def raced(store, z, d, count):
            store._put(winner, d, values[winner])
            return bounds(store, z, d, count)

        monkeypatch.setattr(oracle._LeafStore, "bounds", raced)
        assert same_support(oracle.support(z, d), max(values), d)

    def test_sets_of_any_leaf_count_store_their_supports(
        self, unit_box_2d, one_d_union
    ):
        # The hull's +e_1 query reads the first query's value; only a set
        # with two or more leaves solves the leaves' boxes.
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 1.0], 0.5))
        oracle.support(cut, [1.0, 0.0])
        oracle.interval_hull(cut)
        assert sum(map(len, cut._store.solved.values())) == 4 and cut._store.box is None
        u = fresh(one_d_union)
        oracle.support(u, [1.0])
        assert u._store.box is not None

    def test_benchmark_families_are_bitwise_the_leaf_maximum(self, benchmark_families):
        # Bitwise the maximum over the branches' own leaf LPs in the axis
        # directions, and within round-off of the union's own leaf LPs.
        assert max(len(oracle.feasible_assignments(z)) for z in benchmark_families) > 2
        dirs = directions_2d(64)
        for z in benchmark_families:
            got = [oracle.support(z, d) for d in dirs]
            assert same_supports(got, [recorded_support(z, d) for d in dirs], dirs)
            assert all(close_support(h, unpruned_support(z, d)) for h, d in zip(got, dirs))

    def test_benchmark_sweep_solves_as_many_leaf_lps_as_cold_starts(
        self, monkeypatch, benchmark_families
    ):
        # Fresh copies of the six sets, their leaves found first.  The sweep
        # needs 434 leaf answers: 177 LPs, and 257 from stored bases.  The
        # leaves' home +e_1 LPs are not among them: each leaf solved its
        # home when the search checked it.
        sets = [fresh(z) for z in benchmark_families]
        for w in sets:
            oracle.feasible_assignments(w)
        answered = record_cone_answers(monkeypatch)
        calls = count_lps(monkeypatch)
        for w in sets:
            for d in directions_2d(64):
                oracle.support(w, d)
        assert len(calls) == 177
        assert len(calls) + len(answered) == 434

    def test_benchmark_answers_from_stored_bases_are_the_leaf_lps(
        self, monkeypatch, benchmark_families
    ):
        # Every answer a stored basis gave is its leaf's LP value within
        # round-off, and no axis direction is answered that way.
        sets = [fresh(z) for z in benchmark_families]
        answered = record_cone_answers(monkeypatch)
        for w in sets:
            for d in directions_2d(64):
                oracle.support(w, d)
        assert len(answered) == 257
        for w, k, d, h in answered:
            assert np.count_nonzero(d) > 1
            expected = leaf_lp(w, oracle.feasible_assignments(w)[k], d)
            assert abs(h - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_each_leaf_solves_its_home_lp_once(self, monkeypatch):
        # The candidates' checks are the leaves' home LPs.
        z = three_boxes()
        calls = recorded_highs(monkeypatch)
        leaves = oracle.feasible_assignments(z)
        for d in directions_2d(64):
            oracle.support(z, d)
        oracle.interval_hull(z)
        objective = [call for call in calls if call.options is lp._TIGHT]
        home = [call for call in objective if np.array_equal(call.c, -z.Gc[0])]
        assert len(home) == len({call.rhs.tobytes() for call in home}) == len(leaves)
        assert all(call.start is None for call in home)
        # Every other support LP starts from its own leaf's home basis.
        homes = {
            (z.b - z.Ab @ xb).tobytes(): z._store.homes[k] for k, xb in enumerate(leaves)
        }
        rest = [call for call in objective if not np.array_equal(call.c, -z.Gc[0])]
        assert rest and all(call.start is homes[call.rhs.tobytes()] for call in rest)

    def test_3d_queries_answer_alike_in_both_orders(self, monkeypatch):
        # +e_1 is not the first direction asked; the leaf's +e_1 LP is
        # solved first and stored, so the order of queries does not matter.
        single = halfspace_intersection(
            box([0.2, -0.1, 0.3], [1.0, 0.5, 2.0]), Halfspace([1.0, 1.0, 1.0], 0.5)
        )
        pieces = union(single, box([3.0, 0.0, 0.0], [0.5, 1.0, 0.5]))
        cut = halfspace_intersection(pieces, Halfspace([1.0, -1.0, 0.5], 2.5))
        assert len(oracle.feasible_assignments(cut)) == 2
        dirs = np.random.default_rng(4).normal(size=(12, 3))
        dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True), np.eye(3)])
        for z in (single, cut):
            expected = [unpruned_support(z, d) for d in dirs]
            for order in (range(len(dirs)), reversed(range(len(dirs)))):
                w = fresh(z)
                got = {i: oracle.support(w, dirs[i]) for i in order}
                assert same_supports([got[i] for i in range(len(dirs))], expected, dirs)
        w = fresh(single)
        calls = count_lps(monkeypatch)
        oracle.support(w, dirs[0])
        assert len(calls) == 2
        oracle.support(w, np.eye(3)[0])
        assert len(calls) == 2

    def test_no_benchmark_leaf_exceeds_its_bound(self, benchmark_families):
        # After the pruned sweep, every leaf of every branch has an LP value
        # in each of the 64 directions at most its bound from its box and
        # stored bases, within the pruning margin.
        for z in benchmark_families:
            for d in directions_2d(64):
                oracle.support(z, d)
            for w in _union_operands(z):
                assert_leaves_within_bounds(w, directions_2d(64))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(("union", "cut", "sum", "map", "product")), max_size=5
        ),
        dim=st.integers(1, 2),
    )
    def test_no_leaf_exceeds_its_bound(self, seed, ops, dim):
        # After a sweep of random directions, axes included, every feasible
        # leaf's LP is at most its bound, in those directions and new ones;
        # for a union, on each operand, whose stores the sweep filled.
        rng = np.random.default_rng(seed)
        for z in derived_sets(seed, ops, dim):
            axes = np.vstack([np.eye(z.dim), -np.eye(z.dim)])
            dirs = np.vstack([axes, rng.normal(size=(6, z.dim))])
            for d in dirs:
                oracle.support(z, d)
            more = np.vstack([dirs, rng.normal(size=(2, z.dim))])
            for w in _union_operands(z):
                assert_leaves_within_bounds(w, more)

    def test_sweep_prepares_the_constraint_matrix_once(self, monkeypatch):
        z = three_boxes()
        built = []

        class Counted(lp.Rows):
            __slots__ = ()

            def __init__(self, A):
                built.append(np.shape(A))
                super().__init__(A)

        monkeypatch.setattr(lp, "Rows", Counted)
        for d in directions_2d(64):
            oracle.support(z, d)
        assert len(oracle.feasible_assignments(z)) == 3
        assert built == [z.Ac.shape]

    def test_a_stored_basis_bound_skips_a_leaf(self, monkeypatch):
        # A small box off the 45 degree edge of an octagon of radius about 1.
        # The small box's 30 degree basis (its corner (0.9, 0.9)) stays
        # optimal at 60 degrees, so it answers there from that basis; the
        # octagon's stored bases bound it at 60 degrees below that answer,
        # though its box does not.  So 60 degrees after 30 solves no LP.
        t = np.pi / 4 * np.arange(4)
        octagon = lift_zonotope(
            Zonotope([0.0, 0.0], np.vstack([np.cos(t), np.sin(t)]) / (1 + np.sqrt(2)))
        )
        z = fresh(union(box([0.85, 0.85], 0.05), octagon))
        d30, d60 = directions_at(30.0), directions_at(60.0)
        expected = unpruned_support(z, d60)
        oracle.support(z, d30)
        # Leaf 0 is the octagon, leaf 1 the small box.
        bound, holds = z._store.bounds(z, d60, 2)
        assert leaf_lp(z, oracle.feasible_assignments(z)[1], d60) == expected
        assert list(holds) == [1] and np.allclose(holds[1], [0.9, 0.9])
        center, half, _ = z._store.box
        assert bound[0] < expected < center[0] @ d60 + half[0] @ np.abs(d60)
        calls = count_lps(monkeypatch)
        assert same_support(oracle.support(z, d60), expected, d60)
        assert calls == []


class TestStoredBases:
    """Answers from a stored basis whose reduced costs keep their signs.

    The cut box {|x|_inf <= 1, x1 + x2 <= 0.5} has one constraint row and
    a slack factor.  Its corner (-1, 1) is optimal from 90 to 180 degrees,
    with the slack factor inside its box, so one basis has that whole
    normal cone.  Its cut edge, normal at 45 degrees, joins (1, -0.5) and
    (-0.5, 1).  The home +e_1 LP ends at a corner with x1 = 1, optimal
    between -90 and 45 degrees.
    """

    @staticmethod
    def cut_box():
        return halfspace_intersection(box([0.0, 0.0], 1.0), Halfspace([1.0, 1.0], 0.5))

    def test_a_direction_in_the_same_normal_cone_solves_no_lp(self, monkeypatch):
        z = self.cut_box()
        calls = count_lps(monkeypatch)
        oracle.support(z, directions_at(100.0))
        assert len(calls) == 2  # the home +e_1 LP, then 100 degrees
        d = directions_at(170.0)
        assert oracle.support(z, d) == pytest.approx(d @ [-1.0, 1.0], abs=1e-12)
        assert len(calls) == 2
        d = directions_at(210.0)
        assert oracle.support(z, d) == pytest.approx(d @ [-1.0, -1.0], abs=1e-12)
        assert len(calls) == 3

    def test_a_direction_normal_to_an_edge_gets_the_lp_value(self, monkeypatch):
        z = self.cut_box()
        oracle.support(z, directions_at(30.0))
        d = directions_at(45.0)
        calls = count_lps(monkeypatch)
        h = oracle.support(z, d)
        assert calls == []
        (xb,) = oracle.feasible_assignments(z)
        assert abs(h - leaf_lp(fresh(z), xb, d)) <= 1e-12
        assert abs(h - 0.5 / np.sqrt(2.0)) <= 1e-12


def directions_at(*degrees) -> np.ndarray:
    """Unit directions at the given angles, one per row (one angle: a vector)."""
    t = np.radians(degrees)
    return np.column_stack([np.cos(t), np.sin(t)]).squeeze()


def record_cone_answers(monkeypatch) -> list:
    """Record every support a stored basis answers, as (set, leaf, d, h)."""
    answered = []
    solve = oracle._LeafStore.solve

    def recorded(store, z, k, xb, d, x=None):
        h = solve(store, z, k, xb, d, x)
        if x is not None:
            answered.append((z, k, d.copy(), h))
        return h

    monkeypatch.setattr(oracle._LeafStore, "solve", recorded)
    return answered


def count_lps(monkeypatch) -> list:
    calls = []
    solve = lp.solve_box_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_box_lp", counted)
    return calls


def three_boxes():
    pieces = [box([3.0 * np.cos(t), 3.0 * np.sin(t)], 0.5) for t in (0.0, 2.0, 4.0)]
    z = union(union(pieces[0], pieces[1]), pieces[2])
    return halfspace_intersection(z, Halfspace([0.0, 1.0], 3.0))


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
        assert all(z._leaves is not None for z in sets[1:])
        for z in sets:
            expected = as_rows(brute_feasible_leaves(z), z.nb)
            got = as_rows(oracle.feasible_assignments(z), z.nb)
            searched = as_rows(oracle.feasible_assignments(fresh(z)), z.nb)
            assert np.array_equal(got, expected)
            assert np.array_equal(searched, expected)

    def test_folded_union_checks_each_candidate_once(self, monkeypatch):
        u = folded_union()
        candidates = u._leaves[0]
        assert u.nb == 11 and len(candidates) == 12

        def no_search(*args):
            raise AssertionError("a set with candidates was searched")

        calls = count_lps(monkeypatch)
        monkeypatch.setattr(oracle, "_dfs_candidates", no_search)
        assert len(oracle.feasible_assignments(u)) == 12
        assert len(calls) <= len(candidates)

    def test_searched_leaves_are_decided_by_their_home_lps(self, monkeypatch):
        # On the search path too, a full assignment is decided by its home
        # +e_1 LP alone, so the hull then solves one -e_1 LP per leaf.
        u = fresh(folded_union())
        calls = count_lps(monkeypatch)
        assert len(oracle.feasible_assignments(u)) == 12
        leaf_feasibility = [
            (c, A) for c, A, *_ in calls if not np.any(c) and A.shape[1] == u.ng
        ]
        assert leaf_feasibility == []
        calls.clear()
        oracle.interval_hull(u)
        assert len(calls) == 12
        assert all(np.array_equal(c, -u.Gc[0]) for c, *_ in calls)
        assert len({rhs.tobytes() for _, _, rhs, *_ in calls}) == 12

    @pytest.mark.parametrize("offset", [0.25, 1.75])
    def test_product_does_not_recheck_what_an_emptiness_test_checked(
        self, monkeypatch, offset
    ):
        # At 0.25 the first candidate is infeasible; at 1.75 it is
        # feasible, so the emptiness test stops before the infeasible one.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        piece = halfspace_intersection(z, Halfspace([1.0], offset))
        checked = record_leaf_checks(monkeypatch)
        assert not oracle.is_empty(piece)
        # The product's candidates are the rows of the piece's record: the
        # leaf the emptiness test found, then the rows it left unchecked.
        product = cartesian_product(piece, interval(-1.0, 1.0))
        assert np.array_equal(product._leaves[0], piece._leaves[0])
        leaves = oracle.feasible_assignments(piece)
        got = oracle.feasible_assignments(product)
        assert len(checked) == len(set(checked))
        assert np.array_equal(as_rows(got, product.nb), as_rows(leaves, piece.nb))
        expected = oracle.feasible_assignments(fresh(product))
        assert np.array_equal(as_rows(got, product.nb), as_rows(expected, product.nb))

    def test_matrix_product_carries_the_operands_leaves(self):
        # The hull inside matzono_times_set records the operand's leaves
        # before the map is built, so the cut-off piece is not a candidate.
        z = union(union(interval(-1.0, 0.0), interval(2.0, 3.0)), interval(0.5, 1.5))
        z = halfspace_intersection(z, Halfspace([1.0], 1.75))
        assert len(z._leaves[0]) == 3
        M = MatrixZonotope(np.array([[2.0]]), (np.array([[0.1]]),))
        out = matzono_times_set(M, z)
        assert np.array_equal(out._leaves[0], z._leaves[0])
        assert len(out._leaves[0]) == 2

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(("union", "cut", "sum", "map", "product")), max_size=5
        ),
        dim=st.integers(1, 2),
    )
    def test_query_paths_find_the_same_leaves(self, seed, ops, dim):
        # Three fresh copies of each set: an emptiness test and then the
        # full list, the full list alone, and brute force.  Also with the
        # set's candidates in place of the search.
        with pytest.MonkeyPatch.context() as mp:
            checked = record_leaf_checks(mp)
            for z in derived_sets(seed, ops, dim):
                expected = as_rows(brute_feasible_leaves(fresh(z)), z.nb)
                for copy in (fresh, with_candidates):
                    first, second = copy(z), copy(z)
                    checked.clear()
                    assert oracle.is_empty(first) == (len(expected) == 0)
                    paths = [oracle.feasible_assignments(w) for w in (first, second)]
                    assert len(checked) == len(set(checked))
                    for got in paths:
                        assert np.array_equal(as_rows(got, z.nb), expected)


def folded_union():
    """The union of 12 disjoint intervals, folded one at a time."""
    u = interval(0.0, 0.5)
    for k in range(1, 12):
        u = union(u, interval(float(2 * k), float(2 * k) + 0.5))
    return u


def with_candidates(z):
    """A fresh copy of z that carries z's candidate rows, none verified."""
    w = fresh(z)
    if z._leaves is not None:
        object.__setattr__(w, "_leaves", (z._leaves[0], 0))
    return w


def record_leaf_checks(monkeypatch) -> list:
    """Record every candidate check as (set, right-hand side)."""
    checked = []
    check = oracle._LeafStore.check

    def recorded(store, z, k, xb):
        checked.append((id(z), (z.b - z.Ab @ xb).tobytes()))
        return check(store, z, k, xb)

    monkeypatch.setattr(oracle._LeafStore, "check", recorded)
    return checked


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

    def stub(c, A, lhs, rhs, lb, ub, options, start=None, family=None):
        if is_anchor(lhs):
            return lp._Solve(status, None, "stubbed")
        return highs(c, A, lhs, rhs, lb, ub, options, start, family)

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

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.sampled_from(("union", "cut", "sum", "map", "product")), max_size=5
        ),
        dim=st.integers(1, 2),
    )
    def test_a_fitting_moved_anchor_needs_no_slack_lp(self, seed, ops, dim):
        # Where the anchor moved onto a leaf's affine set, a + P (rhs - A a),
        # fits, the midpoint that the witness tries certifies the point.
        rng = np.random.default_rng(seed)
        for z in derived_sets(seed, ops, dim):
            leaves = oracle.feasible_assignments(z)
            if not leaves:
                continue
            store = oracle._store(z)
            A = np.vstack([z.Gc, z.Ac])
            P = np.linalg.pinv(A)
            anchors = [store.anchor(z, k, xb) for k, xb in enumerate(leaves)]
            points = list(oracle.sample(z, 4, seed)) + near_boundary_points(z, rng)
            for x, tol in itertools.product(points, (1e-9, 1e-7)):
                rhs = [np.concatenate([x - z.c - z.Gb @ xb, z.b - z.Ab @ xb]) for xb in leaves]
                fits = any(
                    oracle._fits(A, r, a + P @ (r - A @ a), tol) for a, r in zip(anchors, rhs)
                )
                with pytest.MonkeyPatch.context() as mp:
                    calls = recorded_highs(mp)
                    member = oracle.membership(z, x, tol)
                if fits:
                    assert member and calls == []

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
        # The leaf's +e_1 LP, which gives its home basis, then d.
        assert len(calls) == 2 and not any(call.anchor for call in calls)
        again = oracle.support(z, d.copy())
        assert len(calls) == 2
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
