"""Reachability loop: restriction, propagation, union, horizons."""

import numpy as np
import pytest

from hzreach import (
    HybridZonotope,
    MatrixZonotope,
    PolyhedralRegion,
    Zonotope,
    lift_zonotope,
    oracle,
    union,
)
from hzreach.ident import (
    PwaSystemSpec,
    Transition,
    identify_models,
    partition_trajectories,
    region_index,
)
from hzreach.reach import (
    ReachOptions,
    make_family,
    propagate_mode,
    reach_horizon,
    reach_horizon_known,
    reach_step,
    representation_size,
    restrict_to_region,
    singleton_models,
)

from conftest import box, directions_2d

A1 = np.array([[0.75, 0.25], [-0.25, 0.75]])
B1 = np.array([[-0.25], [-0.25]])
A2 = np.array([[0.75, -0.25], [0.25, 0.75]])
B2 = np.array([[0.25], [-0.25]])
REGIONS = (
    PolyhedralRegion([[1.0, 0.0]], [0.0]),
    PolyhedralRegion([[-1.0, 0.0]], [0.0]),
)
R0 = lift_zonotope(
    Zonotope([-1.51, 2.55], [[0.25, -0.19], [0.19, 0.25]])
)
U_SET = Zonotope([0.0], [[1.0]])
NO_NOISE = Zonotope(np.zeros(2), np.zeros((2, 0)))
OPTS = ReachOptions()


def benchmark_spec(noise=NO_NOISE):
    return PwaSystemSpec(
        regions=REGIONS, noise_w=noise, modes=((A1, B1), (A2, B2))
    )


def simulate_transitions(rng, steps, noise_radius=0.0, x0=(-1.51, 2.55)):
    modes = ((A1, B1), (A2, B2))
    x = np.asarray(x0, dtype=float)
    out = []
    for _ in range(steps):
        i = region_index(x, REGIONS)
        A, B = modes[i]
        u = rng.uniform(-1.0, 1.0, 1)
        w = rng.uniform(-noise_radius, noise_radius, 2)
        x_next = A @ x + B @ u + w
        out.append(Transition(x=x, u=u, x_next=x_next))
        x = x_next
    return out


class TestRestrict:
    def test_half_box(self, unit_box_2d):
        piece = restrict_to_region(unit_box_2d, REGIONS[0])
        lo, hi = oracle.interval_hull(piece)
        assert np.allclose(lo, [-1.0, -1.0], atol=1e-9)
        assert np.allclose(hi, [0.0, 1.0], atol=1e-9)

    def test_inside_unchanged(self):
        z = box([-3.0, 0.0], 0.5)
        piece = restrict_to_region(z, REGIONS[0])
        for d in directions_2d():
            assert oracle.support(piece, d) == pytest.approx(
                oracle.support(z, d), abs=1e-9
            )

    def test_outside_empty(self):
        z = box([3.0, 0.0], 0.5)
        assert oracle.is_empty(restrict_to_region(z, REGIONS[0]))

    def test_unconstrained_region_is_identity(self, unit_box_2d):
        whole = PolyhedralRegion(np.zeros((0, 2)), np.zeros(0))
        assert restrict_to_region(unit_box_2d, whole) is unit_box_2d


class TestPropagateMode:
    def test_point_through_known_model(self):
        model = MatrixZonotope(np.hstack([A1, B1]), ())
        x = np.array([-1.0, 2.0])
        u = np.array([0.5])
        out = propagate_mode(
            model, HybridZonotope.from_point(x), u, NO_NOISE
        )
        expected = A1 @ x + B1 @ u
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, expected, atol=1e-12)
        assert np.allclose(hi, expected, atol=1e-12)

    def test_identity_model_passthrough(self, unit_box_2d):
        model = MatrixZonotope(np.hstack([np.eye(2), np.zeros((2, 1))]), ())
        out = propagate_mode(model, unit_box_2d, np.zeros(1), NO_NOISE)
        for d in directions_2d():
            assert oracle.support(out, d) == pytest.approx(
                oracle.support(unit_box_2d, d), abs=1e-9
            )

    def test_scalar_interval_model_contains_products(self):
        model = MatrixZonotope(
            np.array([[0.5, 1.0]]), (np.array([[0.1, 0.0]]),)
        )
        state = lift_zonotope(Zonotope([0.0], [[1.0]]))
        out = propagate_mode(
            model, state, np.zeros(1), Zonotope([0.0], np.zeros((1, 0)))
        )
        for a in np.linspace(0.4, 0.6, 7):
            for x in np.linspace(-1.0, 1.0, 7):
                assert oracle.membership(out, [a * x], 1e-9)

    def test_dimension_mismatch(self, unit_box_2d):
        model = MatrixZonotope(np.hstack([A1, B1]), ())
        with pytest.raises(ValueError):
            propagate_mode(model, unit_box_2d, np.zeros(2), NO_NOISE)


class TestMakeFamily:
    def test_cap(self, unit_box_2d):
        wide = unit_box_2d
        for _ in range(3):
            wide = union(wide, wide)
        assert wide.nb == 7
        with pytest.raises(oracle.EnumerationCapError):
            make_family(0, wide, REGIONS, ReachOptions(bin_cap=5))
        family = make_family(0, wide, REGIONS, ReachOptions(bin_cap=7))
        assert family.num_active_modes == 2


class TestReachStep:
    def test_single_active_mode_passthrough(self):
        start = box([-3.0, 0.0], 0.5)  # strictly inside region 1
        family = make_family(0, start, REGIONS, OPTS)
        assert family.empty == (False, True)
        models = singleton_models(benchmark_spec())
        nxt = reach_step(family, models, REGIONS, U_SET, NO_NOISE, opts=OPTS)
        direct = propagate_mode(models[0], start, U_SET, NO_NOISE)
        for d in directions_2d():
            assert oracle.support(nxt.union_set, d) == pytest.approx(
                oracle.support(direct, d), abs=1e-9
            )

    def test_straddling_set_splits(self, unit_box_2d):
        family = make_family(0, unit_box_2d, REGIONS, OPTS)
        assert family.num_active_modes == 2
        models = singleton_models(benchmark_spec())
        nxt = reach_step(family, models, REGIONS, U_SET, NO_NOISE, opts=OPTS)
        # Union of two branches: exactly one fresh selector binary.
        assert nxt.union_set.nb == 1
        assert len(nxt.per_mode) == len(REGIONS)

    def test_hull_relax_gives_the_exact_unions_box(self, unit_box_2d):
        family = make_family(0, unit_box_2d, REGIONS, OPTS)
        models = singleton_models(benchmark_spec())
        exact = reach_step(family, models, REGIONS, U_SET, NO_NOISE, opts=OPTS)
        relax = ReachOptions(hull_relax=True)
        relaxed = reach_step(family, models, REGIONS, U_SET, NO_NOISE, opts=relax)
        assert exact.union_set.nb == 1
        assert relaxed.union_set.nb == relaxed.union_set.nc == 0
        for e in np.eye(2):
            for d in (e, -e):
                assert oracle.support(relaxed.union_set, d) == pytest.approx(
                    oracle.support(exact.union_set, d), abs=1e-12
                )
        # The box is an over-approximation: a diagonal support grows.
        diagonal = np.array([1.0, 1.0])
        assert oracle.support(relaxed.union_set, diagonal) > oracle.support(
            exact.union_set, diagonal
        ) + 1e-3

    def test_mode_exclusivity_on_samples(self, unit_box_2d):
        family = make_family(0, unit_box_2d, REGIONS, OPTS)
        for x in oracle.sample(family.per_mode[0], 50, seed=0):
            assert x[0] <= 1e-7
        for x in oracle.sample(family.per_mode[1], 50, seed=1):
            assert x[0] >= -1e-7

    def test_family_pieces_cover_union(self, unit_box_2d):
        # Closed regions cover the plane, so every union member lies in
        # some restricted piece; each piece lies inside the union.
        family = make_family(0, unit_box_2d, REGIONS, OPTS)
        for x in oracle.sample(family.union_set, 60, seed=2):
            assert any(
                oracle.membership(piece, x, 1e-7) for piece in family.per_mode
            )
        for piece in family.per_mode:
            for x in oracle.sample(piece, 30, seed=3):
                assert oracle.membership(family.union_set, x, 1e-7)


class TestReachHorizon:
    def test_n1_equals_single_step(self):
        models = singleton_models(benchmark_spec())
        fams = reach_horizon(R0, models, REGIONS, U_SET, NO_NOISE, 1, opts=OPTS)
        family0 = make_family(0, R0, REGIONS, OPTS)
        step = reach_step(family0, models, REGIONS, U_SET, NO_NOISE, opts=OPTS)
        assert len(fams) == 2
        for d in directions_2d():
            assert oracle.support(fams[1].union_set, d) == pytest.approx(
                oracle.support(step.union_set, d), abs=1e-9
            )

    def test_data_driven_contains_known_one_step(self):
        rng = np.random.default_rng(17)
        radius = 0.01
        noise = Zonotope(np.zeros(2), radius * np.eye(2))
        transitions = []
        for start in ([-1.5, 2.5], [-0.5, -1.0], [1.0, 1.5], [0.5, -2.0]):
            transitions += simulate_transitions(rng, 12, radius, x0=start)
        datasets = partition_trajectories(transitions, REGIONS)
        models = identify_models(datasets, noise)
        known = reach_horizon_known(R0, benchmark_spec(noise), U_SET, 1, opts=OPTS)
        data = reach_horizon(R0, models, REGIONS, U_SET, noise, 1, opts=OPTS)
        pts = oracle.sample(known[1].union_set, 100, seed=3)
        for x in pts:
            assert oracle.membership(data[1].union_set, x, 1e-7)

    def test_sizes_nondecreasing(self):
        models = singleton_models(benchmark_spec())
        fams = reach_horizon(R0, models, REGIONS, U_SET, NO_NOISE, 3, opts=OPTS)
        sizes = [representation_size(f.union_set) for f in fams]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_per_mode_inputs_with_n_equal_to_mode_count(self):
        # Two modes and N = 2: the list holds one input per mode (u = 0 left
        # of the guard, u = 100 right of it), never one per step.
        regions = (PolyhedralRegion([[1.0]], [0.0]), PolyhedralRegion([[-1.0]], [0.0]))
        models = [MatrixZonotope([[0.5, 1.0]], ())] * 2
        inputs = [np.array([0.0]), np.array([100.0])]
        noise = Zonotope([0.0], np.zeros((1, 0)))
        x0 = lift_zonotope(Zonotope([-2.0], [[0.4]]))
        fams = reach_horizon(x0, models, regions, inputs, noise, 2, opts=OPTS)
        chained = make_family(0, x0, regions, OPTS)
        for _ in range(2):
            chained = reach_step(chained, models, regions, inputs, noise, opts=OPTS)
        lo, hi = oracle.interval_hull(fams[2].union_set)
        assert np.allclose([lo[0], hi[0]], [-0.6, -0.4], atol=1e-9)
        assert np.allclose((lo, hi), oracle.interval_hull(chained.union_set), atol=1e-9)


class TestReachHorizonKnown:
    def test_identity_dynamics_fixed_point(self, unit_box_2d):
        eye_modes = (
            (np.eye(2), np.zeros((2, 1))),
            (np.eye(2), np.zeros((2, 1))),
        )
        spec = PwaSystemSpec(regions=REGIONS, noise_w=NO_NOISE, modes=eye_modes)
        fams = reach_horizon_known(
            unit_box_2d, spec, np.zeros(1), 3, opts=OPTS
        )
        for fam in fams:
            for d in directions_2d():
                assert oracle.support(fam.union_set, d) == pytest.approx(
                    oracle.support(unit_box_2d, d), abs=1e-9
                )

    def test_mode2_start_hand_hull(self):
        start = Zonotope([2.0, 0.5], 0.3 * np.eye(2))
        fams = reach_horizon_known(
            lift_zonotope(start), benchmark_spec(), U_SET, 1, opts=OPTS
        )
        center = A2 @ start.center
        G = A2 @ start.generators
        radius = np.abs(G).sum(axis=1) + np.abs(B2[:, 0])
        lo, hi = oracle.interval_hull(fams[1].union_set)
        assert np.allclose(lo, center - radius, atol=1e-9)
        assert np.allclose(hi, center + radius, atol=1e-9)

    def test_n0_returns_initial_only(self):
        fams = reach_horizon_known(R0, benchmark_spec(), U_SET, 0, opts=OPTS)
        assert len(fams) == 1
        assert fams[0].step == 0

    def test_missing_modes_rejected(self):
        spec = PwaSystemSpec(regions=REGIONS, noise_w=NO_NOISE)
        with pytest.raises(ValueError):
            reach_horizon_known(R0, spec, U_SET, 1, opts=OPTS)


class TestRandomSystemSoundness:
    def test_twenty_random_two_mode_systems(self):
        # Data-driven one-step sets contain the known-model sets for
        # randomly drawn stable dynamics split on x1 = 0.
        rng = np.random.default_rng(99)
        for trial in range(20):
            modes = []
            for _ in range(2):
                A = rng.normal(size=(2, 2))
                A *= rng.uniform(0.4, 0.9) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-9)
                modes.append((A, rng.normal(size=(2, 1))))
            radius = float(rng.uniform(0.005, 0.03))
            noise = Zonotope(np.zeros(2), radius * np.eye(2))
            spec = PwaSystemSpec(regions=REGIONS, noise_w=noise, modes=tuple(modes))
            transitions = []
            for start in ([-1.0, 0.5], [1.0, -0.5], [-0.3, -1.0], [0.4, 1.2]):
                x = np.asarray(start)
                for _ in range(8):
                    i = region_index(x, REGIONS)
                    A, B = modes[i]
                    u = rng.uniform(-1.0, 1.0, 1)
                    x_next = A @ x + B @ u + rng.uniform(-radius, radius, 2)
                    transitions.append(Transition(x=x, u=u, x_next=x_next))
                    x = x_next
            models = identify_models(
                partition_trajectories(transitions, REGIONS), noise
            )
            start_set = box([0.1, -0.2], 0.6)  # straddles the guard
            known = reach_horizon_known(start_set, spec, U_SET, 1, opts=OPTS)
            data = reach_horizon(
                start_set, models, REGIONS, U_SET, noise, 1, opts=OPTS
            )
            pts = oracle.sample(known[1].union_set, 25, seed=trial)
            for x in pts:
                assert oracle.membership(data[1].union_set, x, 1e-7), trial


class TestNoiseMonotonicity:
    def test_single_step_support_dominance(self):
        models = singleton_models(benchmark_spec())
        small = Zonotope(np.zeros(2), 0.01 * np.eye(2))
        large = Zonotope(np.zeros(2), 0.02 * np.eye(2))
        fam_small = reach_horizon(R0, models, REGIONS, U_SET, small, 1, opts=OPTS)
        fam_large = reach_horizon(R0, models, REGIONS, U_SET, large, 1, opts=OPTS)
        for d in directions_2d():
            assert oracle.support(fam_large[1].union_set, d) >= oracle.support(
                fam_small[1].union_set, d
            ) - 1e-9
