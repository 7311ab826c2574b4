"""Closed-form operations checked against the enumeration oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzreach import (
    Halfspace,
    HybridZonotope,
    MatrixZonotope,
    PolyhedralRegion,
    Zonotope,
    cartesian_product,
    from_dict,
    generalized_intersection,
    halfspace_intersection,
    lift_zonotope,
    linear_map,
    matzono_times_set,
    minkowski_sum,
    to_dict,
    union,
)
from hzreach import oracle

from conftest import box, directions_2d, interval


def support_match(za, zb, dirs, tol=1e-9):
    for d in dirs:
        assert oracle.support(za, d) == pytest.approx(
            oracle.support(zb, d), abs=tol
        )


class TestLift:
    def test_unit_interval(self):
        hz = lift_zonotope(Zonotope([0.0], [[1.0]]))
        assert hz.Gc.tolist() == [[1.0]]
        assert hz.nb == 0 and hz.nc == 0

    def test_point(self):
        hz = lift_zonotope(Zonotope([1.0, -2.0], np.zeros((2, 0))))
        assert hz.ng == 0
        assert np.allclose(hz.c, [1.0, -2.0])

    def test_unit_box_membership_grid(self, unit_box_2d):
        # Grid sampling: membership iff the point is in [-1,1]^2.
        for x1 in np.linspace(-1.6, 1.6, 9):
            for x2 in np.linspace(-1.6, 1.6, 9):
                inside = abs(x1) <= 1.0 + 1e-12 and abs(x2) <= 1.0 + 1e-12
                assert oracle.membership(unit_box_2d, [x1, x2], 1e-9) == inside


class TestMinkowskiSum:
    def test_translation_by_point(self, unit_box_2d):
        p = HybridZonotope.from_point([3.0, -1.0])
        s = minkowski_sum(p, unit_box_2d)
        lo, hi = oracle.interval_hull(s)
        assert np.allclose(lo, [2.0, -2.0])
        assert np.allclose(hi, [4.0, 0.0])

    def test_intervals(self):
        s = minkowski_sum(interval(0.0, 1.0), interval(2.0, 3.0))
        lo, hi = oracle.interval_hull(s)
        assert lo[0] == pytest.approx(2.0)
        assert hi[0] == pytest.approx(4.0)

    def test_additive_identity(self, unit_box_2d):
        zero = HybridZonotope.from_point([0.0, 0.0])
        support_match(minkowski_sum(unit_box_2d, zero), unit_box_2d, directions_2d())

    def test_support_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z1 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
            z2 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 2))))
            s = minkowski_sum(z1, z2)
            for d in directions_2d():
                assert oracle.support(s, d) == pytest.approx(
                    oracle.support(z1, d) + oracle.support(z2, d), abs=1e-9
                )


class TestGeneralizedIntersection:
    def test_self_intersection(self, unit_box_2d):
        z = generalized_intersection(unit_box_2d, np.eye(2), unit_box_2d)
        pts = oracle.sample(unit_box_2d, 100, seed=5)
        for x in pts:
            assert oracle.membership(z, x, 1e-7)
        # Bookkeeping: both operands' rows plus one coupling row per mapped
        # dimension; columns concatenate.
        assert z.nc == unit_box_2d.nc * 2 + 2
        assert z.ng == unit_box_2d.ng * 2

    def test_overlapping_boxes(self, unit_box_2d):
        other = box([1.0, 1.0], 1.0)
        z = generalized_intersection(unit_box_2d, np.eye(2), other)
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, [0.0, 0.0], atol=1e-9)
        assert np.allclose(hi, [1.0, 1.0], atol=1e-9)

    def test_disjoint_boxes_empty(self, unit_box_2d):
        other = box([5.0, 5.0], 1.0)
        z = generalized_intersection(unit_box_2d, np.eye(2), other)
        assert oracle.is_empty(z)

    def test_dimension_mismatch(self, unit_box_2d):
        with pytest.raises(ValueError):
            generalized_intersection(unit_box_2d, np.eye(3), unit_box_2d)

    @pytest.mark.parametrize(
        "R",
        [np.arange(1.0, 7.0).reshape(2, 3), np.arange(1.0, 7.0)],
        ids=["2x3", "flat-6"],
    )
    def test_map_of_another_shape_is_refused(self, unit_box_2d, R):
        # z1 is 2-D and z3 3-D, so R must be 3 x 2; six entries in another
        # shape are not read as one.
        with pytest.raises(ValueError, match=r"3 x 2"):
            generalized_intersection(unit_box_2d, R, box([0.0, 0.0, 0.0], 1.0))


class TestHalfspaceIntersection:
    def test_dm_formula_and_hull(self, unit_box_2d):
        z = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], 0.0))
        # d_m = 0 - 0 + 1 = 1: fresh constraint row is xi_1 + 0.5 xi_new = -0.5
        assert z.nc == 1 and z.ng == 3
        assert np.allclose(z.Ac[0], [1.0, 0.0, 0.5])
        assert z.b[0] == pytest.approx(-0.5)
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, [-1.0, -1.0], atol=1e-9)
        assert np.allclose(hi, [0.0, 1.0], atol=1e-9)

    def test_non_binding(self, unit_box_2d):
        z = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], 10.0))
        support_match(z, unit_box_2d, directions_2d())

    def test_fully_outside_empty(self, unit_box_2d):
        z = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], -10.0))
        assert oracle.is_empty(z)

    def test_dimension_mismatch(self, unit_box_2d):
        with pytest.raises(ValueError, match="normal does not match"):
            halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0, 0.0], 0.0))

    def test_never_removes_satisfying_points(self):
        rng = np.random.default_rng(9)
        z = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 4))))
        h = Halfspace(rng.normal(size=2), 0.3)
        cut = halfspace_intersection(z, h)
        for x in oracle.sample(z, 60, seed=1):
            if h.normal @ x <= h.offset + 1e-10:
                assert oracle.membership(cut, x, 1e-7)


class TestLinearMap:
    def test_identity(self, unit_box_2d):
        support_match(linear_map(np.eye(2), unit_box_2d), unit_box_2d, directions_2d())

    def test_scaling(self, unit_box_2d):
        lo, hi = oracle.interval_hull(linear_map(2.0 * np.eye(2), unit_box_2d))
        assert np.allclose(lo, [-2.0, -2.0])
        assert np.allclose(hi, [2.0, 2.0])

    def test_rotation(self):
        z = lift_zonotope(
            Zonotope([0.5, -0.5], np.diag([0.5, 0.5]))
        )  # [0,1] x [-1,0]
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        lo, hi = oracle.interval_hull(linear_map(rot, z))
        assert np.allclose(lo, [0.0, 0.0], atol=1e-12)
        assert np.allclose(hi, [1.0, 1.0], atol=1e-12)


class TestCartesianProduct:
    def test_intervals(self):
        z = cartesian_product(interval(0.0, 1.0), interval(2.0, 3.0))
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, [0.0, 2.0])
        assert np.allclose(hi, [1.0, 3.0])

    def test_with_point(self, unit_box_2d):
        p = HybridZonotope.from_point([7.0])
        z = cartesian_product(unit_box_2d, p)
        assert z.dim == 3
        for x in oracle.sample(z, 30, seed=2):
            assert x[2] == pytest.approx(7.0)

    def test_box_times_interval(self, unit_box_2d):
        z = cartesian_product(unit_box_2d, interval(-1.0, 1.0))
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, -np.ones(3))
        assert np.allclose(hi, np.ones(3))


class TestUnion:
    def test_disjoint_intervals(self):
        u = union(interval(-1.0, 0.0), interval(1.0, 2.0))
        assert oracle.membership(u, [-0.5], 1e-9)
        assert oracle.membership(u, [1.5], 1e-9)
        assert not oracle.membership(u, [0.5], 1e-9)
        lo, hi = oracle.interval_hull(u)
        assert lo[0] == pytest.approx(-1.0)
        assert hi[0] == pytest.approx(2.0)

    def test_self_union(self, unit_box_2d):
        support_match(union(unit_box_2d, unit_box_2d), unit_box_2d, directions_2d())

    def test_touching_boxes(self):
        left = lift_zonotope(Zonotope([-0.5, 0.0], np.diag([0.5, 1.0])))
        right = lift_zonotope(Zonotope([0.5, 0.0], np.diag([0.5, 1.0])))
        u = union(left, right)
        lo, hi = oracle.interval_hull(u)
        assert np.allclose(lo, [-1.0, -1.0], atol=1e-9)
        assert np.allclose(hi, [1.0, 1.0], atol=1e-9)
        assert oracle.membership(u, [0.0, 0.0], 1e-9)

    def test_union_exactness_on_samples(self):
        rng = np.random.default_rng(21)
        z1 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
        z2 = lift_zonotope(Zonotope(rng.normal(size=2) + 2.0, rng.normal(size=(2, 2))))
        u = union(z1, z2)
        for x in oracle.sample(u, 80, seed=3):
            assert oracle.membership(z1, x, 1e-7) or oracle.membership(z2, x, 1e-7)
        for x in oracle.sample(z1, 40, seed=4):
            assert oracle.membership(u, x, 1e-7)
        for x in oracle.sample(z2, 40, seed=5):
            assert oracle.membership(u, x, 1e-7)

    def test_union_with_binary_operand(self):
        inner = union(interval(-3.0, -2.0), interval(2.0, 3.0))
        u = union(inner, interval(-0.5, 0.5))
        for x, inside in [
            (-2.5, True), (0.0, True), (2.5, True),
            (-1.0, False), (1.0, False), (4.0, False),
        ]:
            assert oracle.membership(u, [x], 1e-9) == inside


class TestMatZonoTimesSet:
    def test_center_only(self, unit_box_2d):
        M = MatrixZonotope(np.array([[0.5, 0.0], [0.0, 2.0]]), ())
        z = matzono_times_set(M, unit_box_2d)
        support_match(z, linear_map(M.center, unit_box_2d), directions_2d())

    def test_scalar_interval_model(self):
        M = MatrixZonotope(np.array([[0.5]]), (np.array([[0.1]]),))
        z = matzono_times_set(M, interval(-1.0, 1.0))
        for a in np.linspace(0.4, 0.6, 9):
            for x in np.linspace(-1.0, 1.0, 9):
                assert oracle.membership(z, [a * x], 1e-9)

    def test_point_argument(self):
        rng = np.random.default_rng(12)
        C = rng.normal(size=(2, 2))
        gens = tuple(rng.normal(size=(2, 2)) * 0.2 for _ in range(3))
        M = MatrixZonotope(C, gens)
        p = np.array([0.7, -1.3])
        z = matzono_times_set(M, HybridZonotope.from_point(p))
        for beta in rng.uniform(-1, 1, size=(50, 3)):
            A = C + sum(b * G for b, G in zip(beta, gens))
            assert oracle.membership(z, A @ p, 1e-7)

    def test_containment_random(self):
        rng = np.random.default_rng(13)
        z = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
        M = MatrixZonotope(
            rng.normal(size=(2, 2)), tuple(0.1 * rng.normal(size=(2, 2)) for _ in range(2))
        )
        prod = matzono_times_set(M, z)
        pts = oracle.sample(z, 40, seed=8)
        for i, x in enumerate(pts):
            beta = rng.uniform(-1, 1, M.num_generators)
            A = M.center + sum(bj * G for bj, G in zip(beta, M.generators))
            assert oracle.membership(prod, A @ x, 1e-7)


class TestExactnessOnSamples:
    """Sampled points of exact-op results are members iff set-theory says so."""

    def test_sum_members(self):
        rng = np.random.default_rng(30)
        z1 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 2))))
        z2 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
        s = minkowski_sum(z1, z2)
        for d in directions_2d():
            assert oracle.support(s, d) == pytest.approx(
                oracle.support(z1, d) + oracle.support(z2, d), abs=1e-9
            )
        for x in oracle.sample(s, 200, seed=14):
            assert oracle.membership(s, x, 1e-7)

    def test_intersection_members_agree(self, unit_box_2d):
        shifted = box([0.7, 0.2], 1.0)
        inter = generalized_intersection(unit_box_2d, np.eye(2), shifted)
        for x in oracle.sample(inter, 200, seed=15):
            assert oracle.membership(unit_box_2d, x, 1e-7)
            assert oracle.membership(shifted, x, 1e-7)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_sum_support_additivity_property(g1, g2, seed):
    rng = np.random.default_rng(seed)
    z1 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, g1))))
    z2 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, g2))))
    s = minkowski_sum(z1, z2)
    d = rng.normal(size=2)
    if not np.any(d):
        d = np.array([1.0, 0.0])
    assert oracle.support(s, d) == pytest.approx(
        oracle.support(z1, d) + oracle.support(z2, d), abs=1e-9
    )


class TestSerialization:
    def test_hybrid_roundtrip(self, unit_box_2d):
        cut = halfspace_intersection(unit_box_2d, Halfspace([1.0, 0.0], 0.0))
        doc = to_dict(cut)
        assert set(doc) == {"type", "center", "gc", "gb", "ac", "ab", "b"}
        back = from_dict(doc)
        support_match(back, cut, directions_2d())

    def test_zonotope_roundtrip(self):
        z = Zonotope([1.0, 2.0], [[0.5, 0.0], [0.0, 0.25]])
        back = from_dict(to_dict(z))
        assert np.allclose(back.center, z.center)
        assert np.allclose(back.generators, z.generators)

    def test_matrix_zonotope_roundtrip(self):
        M = MatrixZonotope(np.eye(2), (0.1 * np.ones((2, 2)),))
        back = from_dict(to_dict(M))
        assert np.allclose(back.center, M.center)
        assert np.allclose(back.generators[0], M.generators[0])

    def test_region_roundtrip(self):
        r = PolyhedralRegion([[1.0, 0.0]], [0.0])
        back = from_dict(to_dict(r))
        assert np.allclose(back.L, r.L)
        assert np.allclose(back.rho, r.rho)

    def test_degenerate_shapes(self):
        p = HybridZonotope.from_point([1.0, 2.0])
        back = from_dict(to_dict(p))
        assert back.ng == 0 and back.nb == 0 and back.nc == 0

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"type": "matrix_zonotope", "center": [[1.0]], "generator": [[[0.5]]]},
             "matrix_zonotope document has unknown field 'generator'"),
            ({"type": "matrix_zonotope", "center": [[1.0]], "generators": 0.5},
             "matrix_zonotope field 'generators' must be a list"),
            ({"type": "zonotope", "center": [0.0], "generators": [[1.0]], "genrators": [[5.0]]},
             "zonotope document has unknown field 'genrators'"),
            ({**to_dict(HybridZonotope.from_point([1.0])), "leaves": []},
             "hybrid_zonotope document has unknown field 'leaves'"),
            ({"type": "polyhedral_region", "L": [[1.0]], "rho": [0.0], "dims": 1},
             "polyhedral_region document has unknown field 'dims'"),
        ],
        ids=["misspelled-matrix-generators", "matrix-generators-not-list", "misspelled-generators", "hybrid-extra",
             "region-extra"],
    )
    def test_unknown_or_missing_field_is_refused(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            from_dict(doc)

    def test_each_type_reads_every_field_it_writes(self):
        # Without any field but a region's optional dim, a written document
        # is refused, naming the field.
        for obj in (
            HybridZonotope.from_point([1.0, 2.0]),
            Zonotope([1.0], [[0.5]]),
            MatrixZonotope(np.eye(2), (0.1 * np.ones((2, 2)),)),
            PolyhedralRegion([[1.0, 0.0]], [0.0]),
        ):
            doc = to_dict(obj)
            for key in set(doc) - {"type", "dim"}:
                part = {k: v for k, v in doc.items() if k != key}
                with pytest.raises(ValueError, match=f"no field '{key}'"):
                    from_dict(part)
