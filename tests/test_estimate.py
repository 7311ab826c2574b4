"""Measurement updates (RM, IN, GI), their equivalence, and the online loop."""

import logging

import numpy as np
import pytest

from hzreach import (
    Halfspace,
    MatrixZonotope,
    PolyhedralRegion,
    Zonotope,
    cli,
    estimate,
    halfspace_intersection,
    lift_zonotope,
    lp,
    oracle,
    setops,
    union,
)
from hzreach.estimate import (
    EstimationInfeasible,
    SensorReading,
    StepData,
    equivalence_report,
    estimate_online,
    reverse_map_zonotope,
    rm_bound_policy,
    solve_in_weights,
    update_gi,
    update_in,
    update_rm,
)
from hzreach.ident import Sensor, Transition, identify_models_from_outputs, partition_trajectories
from hzreach.reach import ReachOptions, make_family

from conftest import CONFIGS, box, directions_2d

WHOLE_PLANE = (PolyhedralRegion(np.zeros((0, 2)), np.zeros(0)),)

# MIMO benchmark system with three sensors.
A_SYS = np.array([[0.9455, -0.2426], [0.2486, 0.9455]])
B_SYS = np.array([[0.1], [0.0]])
C1 = np.array([[1.0, 0.4]])
C2 = np.array([[0.9, -1.2]])
C3 = np.array([[-0.8, 0.2], [0.0, 0.7]])


def three_sensors(noise_radius: float):
    return tuple(
        Sensor(C, Zonotope(np.zeros(C.shape[0]), noise_radius * np.eye(C.shape[0])))
        for C in (C1, C2, C3)
    )


def zero_noise_sensor(C):
    return Sensor(C, Zonotope(np.zeros(C.shape[0]), np.zeros((C.shape[0], 0))))


def readings_for(sensors, x, rng=None, step=0):
    out = []
    for j, s in enumerate(sensors):
        v = np.zeros(s.output_dim)
        if rng is not None and s.noise.num_generators:
            v = s.noise.generators @ rng.uniform(-1, 1, s.noise.num_generators)
        out.append(SensorReading(j, s.C @ x + s.noise.center + v, step))
    return tuple(out)


class TestReverseMap:
    def test_square_invertible_zero_noise(self):
        mz = reverse_map_zonotope(zero_noise_sensor(np.eye(2)), [1.0, 2.0], M=10.0)
        assert np.allclose(mz.center, [1.0, 2.0])
        assert mz.generators.shape == (2, 0)

    def test_row_sensor_line_segment(self):
        mz = reverse_map_zonotope(zero_noise_sensor(np.array([[1.0, 0.0]])), [3.0], M=10.0)
        z = lift_zonotope(Zonotope(mz.center, mz.generators))
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, [3.0, -10.0], atol=1e-9)
        assert np.allclose(hi, [3.0, 10.0], atol=1e-9)

    def test_row_sensor_noisy_slab(self):
        s = Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.5]]))
        mz = reverse_map_zonotope(s, [3.0], M=10.0)
        z = lift_zonotope(Zonotope(mz.center, mz.generators))
        lo, hi = oracle.interval_hull(z)
        assert np.allclose(lo, [2.5, -10.0], atol=1e-9)
        assert np.allclose(hi, [3.5, 10.0], atol=1e-9)

    def test_measurement_consistency(self):
        # C @ center must reproduce y - c_v.
        rng = np.random.default_rng(0)
        for _ in range(10):
            C = rng.normal(size=(1, 3))
            s = Sensor(C, Zonotope([0.1], [[0.05]]))
            y = rng.normal(size=1)
            mz = reverse_map_zonotope(s, y, M=5.0)
            assert np.allclose(C @ mz.center, y - 0.1, atol=1e-8)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            reverse_map_zonotope(
                zero_noise_sensor(np.array([[1.0, 0.0], [2.0, 0.0]])), [0.0, 0.0], M=1.0
            )

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ValueError):
            reverse_map_zonotope(zero_noise_sensor(np.eye(2)), [0.0, 0.0], M=0.0)


class TestUpdateRM:
    def test_exact_observation_pins_state(self, unit_box_2d):
        sensors = (zero_noise_sensor(np.eye(2)),)
        out = update_rm(unit_box_2d, readings_for(sensors, np.array([0.3, -0.2])), sensors, M=10.0)
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, [0.3, -0.2], atol=1e-9)
        assert np.allclose(hi, [0.3, -0.2], atol=1e-9)

    def test_partial_observation_slab(self, unit_box_2d):
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        out = update_rm(unit_box_2d, (SensorReading(0, [0.5]),), sensors, M=10.0)
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, [0.4, -1.0], atol=1e-9)
        assert np.allclose(hi, [0.6, 1.0], atol=1e-9)

    def test_true_state_contained(self):
        rng = np.random.default_rng(1)
        sensors = three_sensors(0.01)
        pred = box([0.0, 0.0], 2.0)
        x_true = np.array([0.7, -1.1])
        readings = readings_for(sensors, x_true, rng)
        out = update_rm(pred, readings, sensors, M=rm_bound_policy(pred))
        assert oracle.membership(out, x_true, 1e-7)

    @pytest.mark.parametrize("method", ["rm", "gi"])
    def test_stacked_build_equals_sequential_fold(self, method):
        # RM is pred ∩ { x : x in reverse-mapped zonotope } per reading, GI
        # pred ∩ { x : C x in <y - c_v, -G_v> }; the one stacked build must
        # give the fold of generalized_intersection bit for bit.
        from hzreach import generalized_intersection

        rng = np.random.default_rng(11)
        sensors = three_sensors(0.02)
        pred = update_gi(
            box([0.1, -0.4], 1.5),
            readings_for(sensors, np.array([0.2, -0.3]), rng),
            sensors,
        )  # gives pred some constraints and extra columns
        readings = readings_for(sensors, np.array([0.15, -0.35]), rng)
        if method == "rm":
            stacked = update_rm(pred, readings, sensors, M=7.0)
        else:
            stacked = update_gi(pred, readings, sensors)
        folded = pred
        for r in sorted(readings, key=lambda r: r.sensor_index):
            s = sensors[r.sensor_index]
            if method == "rm":
                R, z = np.eye(2), reverse_map_zonotope(s, r.y, 7.0)
            else:
                R, z = s.C, Zonotope(r.y - s.noise.center, -s.noise.generators)
            folded = generalized_intersection(folded, R, lift_zonotope(z))
        for field in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
            a, b = getattr(stacked, field), getattr(folded, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field

    def test_no_readings_is_identity(self, unit_box_2d):
        assert update_rm(unit_box_2d, (), (), M=1.0) is unit_box_2d


class TestRmBoundPolicy:
    def test_bound_covers_every_null_direction_above_four_dimensions(self):
        # Six states, five sensor rows orthogonal to (1, ..., 1): the null
        # space is spanned by (1, ..., 1) / sqrt(6), along which a set near
        # 10 * (1, ..., 1) reaches sqrt(6) times its largest coordinate.
        rng = np.random.default_rng(5)
        n = 6
        ones = np.ones(n) / np.sqrt(n)
        for _ in range(3):
            C = rng.normal(size=(n - 1, n))
            C -= np.outer(C @ ones, ones)
            sensor = Sensor(C, Zonotope(np.zeros(n - 1), 0.1 * np.eye(n - 1)))
            center = 10.0 + rng.uniform(-0.5, 0.5, n)
            normal = rng.normal(size=n)
            pred = halfspace_intersection(
                box(center, 0.5), Halfspace(normal, float(normal @ center))
            )
            M = rm_bound_policy(pred)
            null_rows = np.linalg.svd(C, full_matrices=True)[2][C.shape[0]:]
            assert null_rows.shape[0] == 1
            for v in null_rows:
                assert oracle.support(pred, v) <= M
                assert oracle.support(pred, -v) <= M

    def test_solves_no_lp_and_covers_the_hull_bound(self, monkeypatch):
        # The box of the set without its rows holds its interval hull, so
        # M is at least the bound the hull gives.
        def refuse(*args, **kwargs):
            raise AssertionError("rm_bound_policy solved an LP")

        cut = halfspace_intersection(box([10.0, -3.0], [0.5, 2.0]), Halfspace([1.0, 1.0], 8.0))
        two_boxes = union(box([-3.0, 1.0], 0.5), cut)
        for pred in (box([0.0, 0.0], 1.0), cut, two_boxes):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lp, "solve_box_lp", refuse)
                mp.setattr(lp, "_highs", refuse)
                M = rm_bound_policy(pred)
            lo, hi = oracle.interval_hull(pred)
            assert M >= 2.0 * np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))) + 1.0


class TestUpdateIN:
    def test_identity_sensor_zero_noise_collapses(self, unit_box_2d):
        sensors = (zero_noise_sensor(np.eye(2)),)
        y = np.array([0.25, -0.5])
        w = solve_in_weights(unit_box_2d, (SensorReading(0, y),), sensors, alpha=1.0)
        assert np.allclose(w.lam, np.eye(2), atol=1e-12)
        assert w.residual <= 1e-12
        out = update_in(unit_box_2d, (SensorReading(0, y),), sensors, alpha=1.0)
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, y, atol=1e-9)
        assert np.allclose(hi, y, atol=1e-9)

    def test_zero_information_sensor_returns_pred(self, unit_box_2d):
        sensors = (Sensor(np.zeros((1, 2)), Zonotope([0.0], [[0.1]])),)
        w = solve_in_weights(unit_box_2d, (SensorReading(0, [0.0]),), sensors, alpha=1.0)
        assert np.allclose(w.lam, 0.0)
        out = update_in(unit_box_2d, (SensorReading(0, [0.0]),), sensors, alpha=1.0)
        assert np.allclose(out.c, unit_box_2d.c)
        for d in directions_2d():
            assert oracle.support(out, d) == pytest.approx(
                oracle.support(unit_box_2d, d), abs=1e-12
            )

    def test_three_sensor_equivalence_small_noise(self):
        # The IN-vs-exact gap scales linearly with the measurement-noise
        # radius (about 1.3 r on this sensor geometry), so the 1e-4
        # agreement needs small noise.
        rng = np.random.default_rng(2)
        sensors = three_sensors(1e-5)
        pred = box([0.4, -0.3], 0.2)
        x_true = np.array([0.45, -0.25])
        readings = readings_for(sensors, x_true, rng)
        rm = update_rm(pred, readings, sensors, M=rm_bound_policy(pred))
        inn = update_in(pred, readings, sensors, alpha=1.0)
        gi = update_gi(pred, readings, sensors)
        for d in directions_2d(32):
            h_rm = oracle.support(rm, d)
            assert oracle.support(gi, d) == pytest.approx(h_rm, abs=1e-9)
            assert oracle.support(inn, d) == pytest.approx(h_rm, abs=1e-4)

    def test_no_readings_is_identity(self, unit_box_2d):
        assert update_in(unit_box_2d, (), (), alpha=1.0) is unit_box_2d

    def test_condition_number_is_computed_only_when_read(self, monkeypatch, caplog):
        sensors = three_sensors(1e-3)
        pred = box([0.4, -0.3], 0.2)
        readings = readings_for(sensors, np.array([0.45, -0.25]), np.random.default_rng(2))
        cond = np.linalg.cond

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.cond called")

        caplog.set_level(logging.INFO, logger="hzreach.estimate")
        monkeypatch.setattr(np.linalg, "cond", refuse)
        update_in(pred, readings, sensors, alpha=1.0)
        w = solve_in_weights(pred, readings, sensors, alpha=1.0)
        monkeypatch.setattr(np.linalg, "cond", cond)
        S = pred.Gc @ pred.Gc.T + 1.0 * (pred.Gb @ pred.Gb.T)
        Cbar = np.vstack([s.C for s in sensors])
        noise = setops.block_diag(*(g @ g.T for g in (s.noise.generators for s in sensors)))
        K = Cbar @ S @ Cbar.T + noise
        assert np.float64(w.condition).tobytes() == np.float64(cond(K)).tobytes()


class TestUpdateGI:
    def test_no_readings_is_identity(self, unit_box_2d):
        assert update_gi(unit_box_2d, (), ()) is unit_box_2d

    def test_exact_observation_pins_state(self, unit_box_2d):
        sensors = (zero_noise_sensor(np.eye(2)),)
        out = update_gi(unit_box_2d, readings_for(sensors, np.array([0.1, 0.9])), sensors)
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, [0.1, 0.9], atol=1e-9)
        assert np.allclose(hi, [0.1, 0.9], atol=1e-9)

    def test_matches_rm_slab(self, unit_box_2d):
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        readings = (SensorReading(0, [0.5]),)
        gi = update_gi(unit_box_2d, readings, sensors)
        lo, hi = oracle.interval_hull(gi)
        assert np.allclose(lo, [0.4, -1.0], atol=1e-9)
        assert np.allclose(hi, [0.6, 1.0], atol=1e-9)
        rm = update_rm(unit_box_2d, readings, sensors, M=10.0)
        for d in directions_2d():
            assert oracle.support(gi, d) == pytest.approx(oracle.support(rm, d), abs=1e-9)

    def test_kills_deselected_branch(self, monkeypatch):
        left = box([-2.0, 0.0], 0.5)
        right = box([2.0, 0.0], 0.5)
        pred = union(left, right)
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        out = update_gi(pred, (SensorReading(0, [2.0]),), sensors)

        def no_search(*args):
            raise AssertionError("a set built by estimation was searched")

        # The update carries pred's candidate rows, so no search runs.
        monkeypatch.setattr(setops, "_candidates", no_search)
        lo, hi = oracle.interval_hull(out)
        assert np.allclose(lo, [1.9, -0.5], atol=1e-9)
        assert np.allclose(hi, [2.1, 0.5], atol=1e-9)

    def test_subset_of_pred_on_samples(self, unit_box_2d):
        sensors = three_sensors(0.05)
        readings = readings_for(sensors, np.array([0.2, 0.1]))
        out = update_gi(unit_box_2d, readings, sensors)
        for x in oracle.sample(out, 60, seed=4):
            assert oracle.membership(unit_box_2d, x, 1e-7)


class TestEquivalenceReport:
    def test_identical_sets(self, unit_box_2d):
        rep = equivalence_report(unit_box_2d, unit_box_2d, directions=16)
        assert rep.max_gap == pytest.approx(0.0, abs=1e-12)
        assert rep.a_in_b == rep.num_samples
        assert rep.b_in_a == rep.num_samples

    def test_rm_vs_gi_tight(self, unit_box_2d):
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        readings = (SensorReading(0, [0.5]),)
        rm = update_rm(unit_box_2d, readings, sensors, M=10.0)
        gi = update_gi(unit_box_2d, readings, sensors)
        rep = equivalence_report(rm, gi, directions=16)
        assert rep.max_gap <= 1e-9

    def test_suboptimal_lambda_reported(self, unit_box_2d):
        # lambda = 0 leaves pred unchanged; the gap against RM is visible.
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        readings = (SensorReading(0, [0.5]),)
        rm = update_rm(unit_box_2d, readings, sensors, M=10.0)
        rep = equivalence_report(unit_box_2d, rm, directions=16)
        assert rep.max_gap > 0.1

    def test_either_set_above_the_cap_is_refused(self, unit_box_2d):
        two = union(unit_box_2d, box([3.0, 0.0], 1.0))
        opts = ReachOptions(bin_cap=0)
        for a, b in ((two, unit_box_2d), (unit_box_2d, two)):
            with pytest.raises(oracle.EnumerationCapError):
                equivalence_report(a, b, directions=4, num_samples=3, opts=opts)
        rep = equivalence_report(two, two, directions=4, num_samples=3)
        assert rep.a_in_b == rep.b_in_a == 3

    def test_three_dimensional_sets(self):
        # Random unit directions; b is a's upper half in x3, so the gap in
        # d is |d3| where d3 < 0 and 0 elsewhere.
        a = box([0.0, 0.0, 0.0], 1.0)
        b = box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])
        rep = equivalence_report(a, b, directions=8, num_samples=10)
        dirs = estimate._spread_directions(3, 8)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert rep.num_directions == 8
        assert rep.max_gap == pytest.approx(max(0.0, -dirs[:, 2].min()), abs=1e-9)
        assert rep.b_in_a == 10


class TestCorrectFamily:
    def test_an_empty_predicted_piece_is_skipped(self):
        # The box lies in the first of two half-planes: the second piece
        # is empty, so RM corrects the first alone, with its bound.
        regions = (
            PolyhedralRegion([[1.0, 0.0]], [0.0]),
            PolyhedralRegion([[-1.0, 0.0]], [0.0]),
        )
        family = make_family(0, box([-3.0, 0.0], 0.5), regions, ReachOptions())
        assert family.empty == (False, True)
        sensors = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], [[0.1]])),)
        readings = (SensorReading(0, [-3.0]),)
        out, bound = estimate._correct_family(family, readings, sensors, "rm", 1.0)
        pred = family.per_mode[0]
        assert bound == rm_bound_policy(pred)
        direct = update_rm(pred, readings, sensors, bound)
        for field in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
            assert getattr(out, field).tobytes() == getattr(direct, field).tobytes(), field


def simulate_mimo(rng, sensors, steps, x0, noise_w_radius):
    xs = [np.asarray(x0, dtype=float)]
    us = []
    for _ in range(steps):
        u = rng.uniform(-1.0, 1.0, 1)
        w = rng.uniform(-noise_w_radius, noise_w_radius, 2)
        xs.append(A_SYS @ xs[-1] + B_SYS @ u + w)
        us.append(u)
    stream = []
    for k in range(steps + 1):
        stream.append(
            StepData(
                readings=readings_for(sensors, xs[k], rng, step=k),
                u=us[k] if k < steps else None,
            )
        )
    return xs, stream


def output_models(rng, sensors, noise_w, episodes=2, length=30):
    transitions = []
    Cs = np.vstack([s.C for s in sensors])
    for _ in range(episodes):
        x = rng.uniform(-5.0, 5.0, 2)
        for _ in range(length):
            u = rng.uniform(-1.0, 1.0, 1)
            w = noise_w.generators @ rng.uniform(-1, 1, noise_w.num_generators)
            x_next = A_SYS @ x + B_SYS @ u + w
            y = np.concatenate(
                [r.y for r in readings_for(sensors, x, rng)]
            )
            y_next = np.concatenate(
                [r.y for r in readings_for(sensors, x_next, rng)]
            )
            transitions.append(Transition(x, u, x_next, y, y_next))
            x = x_next
    datasets = partition_trajectories(transitions, WHOLE_PLANE)
    return identify_models_from_outputs(datasets, sensors, noise_w, a_bound=1.5)


class TestEstimateOnline:
    def test_zero_noise_tracks_trajectory(self):
        rng = np.random.default_rng(5)
        sensors = (zero_noise_sensor(np.eye(2)),)
        noise_w = Zonotope(np.zeros(2), np.zeros((2, 0)))
        xs, stream = simulate_mimo(rng, sensors, 5, [1.0, -2.0], 0.0)
        models = [MatrixZonotope(np.hstack([A_SYS, B_SYS]), ())]
        run = estimate_online(
            box([0.0, 0.0], 5.0), stream, models, WHOLE_PLANE, sensors,
            noise_w, method="gi",
        )
        for k, step in enumerate(run.steps):
            lo, hi = oracle.interval_hull(step.corrected["gi"])
            assert np.allclose(lo, xs[k], atol=1e-7)
            assert np.allclose(hi, xs[k], atol=1e-7)

    def test_true_state_contained_all_methods(self):
        rng = np.random.default_rng(6)
        sensors = three_sensors(1e-3)
        noise_w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
        models = output_models(rng, sensors, noise_w)
        xs, stream = simulate_mimo(rng, sensors, 5, [-3.0, 4.0], 0.01)
        run = estimate_online(
            box([0.0, 0.0], 8.0), stream, models, WHOLE_PLANE, sensors,
            noise_w, method="all",
        )
        for k, step in enumerate(run.steps):
            for m in ("rm", "in", "gi"):
                assert oracle.membership(step.corrected[m], xs[k], 1e-7), (k, m)

    def test_methods_agree_within_tolerance(self):
        rng = np.random.default_rng(7)
        sensors = three_sensors(1e-5)
        noise_w = Zonotope(np.zeros(2), 0.01 * np.eye(2))
        models = output_models(rng, sensors, noise_w)
        xs, stream = simulate_mimo(rng, sensors, 4, [2.0, 1.0], 0.01)
        run = estimate_online(
            box([0.0, 0.0], 8.0), stream, models, WHOLE_PLANE, sensors,
            noise_w, method="all",
        )
        for step in run.steps:
            rep_rm_gi = equivalence_report(
                step.corrected["rm"], step.corrected["gi"], directions=16
            )
            rep_in_gi = equivalence_report(
                step.corrected["in"], step.corrected["gi"], directions=16
            )
            assert rep_rm_gi.max_gap <= 1e-7
            assert rep_in_gi.max_gap <= 1e-4

    def test_rm_bound_is_the_largest_over_the_modes(self, monkeypatch):
        # Both halves of the box are restrictions of one set, with its
        # center and generators, so the policy gives them one M; doubling
        # the first mode's M shows which mode the step reports.
        halves = (
            PolyhedralRegion([[1.0, 0.0]], [0.0]),
            PolyhedralRegion([[-1.0, 0.0]], [0.0]),
        )
        sensors = (Sensor(np.array([[0.0, 1.0]]), Zonotope([0.0], [[0.5]])),)
        noise_w = Zonotope(np.zeros(2), np.zeros((2, 0)))
        models = [MatrixZonotope(np.hstack([A_SYS, B_SYS]), ())] * 2
        stream = [StepData(readings=(SensorReading(0, [0.0]),), u=np.zeros(1))]
        policy = estimate.rm_bound_policy
        bounds = []

        def doubled_first(pred):
            bounds.append(policy(pred) * (1.0 if bounds else 2.0))
            return bounds[-1]

        monkeypatch.setattr(estimate, "rm_bound_policy", doubled_first)
        run = estimate_online(
            box([0.0, 0.0], 1.0), stream, models, halves, sensors, noise_w,
            method="rm", N=0,
        )
        assert len(bounds) == 2 and bounds[0] > bounds[1]
        assert run.steps[0].rm_bound == max(bounds)

    def test_inconsistent_data_raises_with_step(self):
        sensors = (zero_noise_sensor(np.eye(2)),)
        noise_w = Zonotope(np.zeros(2), np.zeros((2, 0)))
        models = [MatrixZonotope(np.hstack([A_SYS, B_SYS]), ())]
        # Reading far outside the initial set: infeasible at step 0.
        stream = [StepData(readings=(SensorReading(0, [50.0, 50.0]),), u=np.zeros(1))]
        with pytest.raises(EstimationInfeasible) as err:
            estimate_online(
                box([0.0, 0.0], 1.0), stream, models, WHOLE_PLANE, sensors,
                noise_w, method="gi", N=0,
            )
        assert err.value.step == 0

    def test_unknown_method_is_refused_before_any_step(self):
        # The initial set lies in no region, so step 0 has no piece to
        # correct; the method is still checked first.
        sensors = (zero_noise_sensor(np.eye(2)),)
        noise_w = Zonotope(np.zeros(2), np.zeros((2, 0)))
        models = [MatrixZonotope(np.hstack([A_SYS, B_SYS]), ())]
        far = (PolyhedralRegion([[-1.0, 0.0]], [-10.0]),)  # x1 >= 10
        stream = [StepData(readings=(SensorReading(0, [0.0, 0.0]),), u=np.zeros(1))]
        with pytest.raises(ValueError, match="unknown method 'rn'"):
            estimate_online(
                box([0.0, 0.0], 1.0), stream, models, far, sensors,
                noise_w, method="rn", N=0,
            )


def recorded_lps(monkeypatch) -> list:
    """Every solve_box_lp call, keyed by the bytes of its data (and of an
    array keyword, such as `family`)."""
    keys = []
    solve = lp.solve_box_lp

    def keyed(c, A, b, lb, ub, **kwargs):
        M = A.A if isinstance(A, lp.Rows) else np.asarray(A, dtype=float)
        data = (c, M, b, lb, ub)
        options = {
            key: value.tobytes() if isinstance(value, np.ndarray) else value
            for key, value in kwargs.items()
        }
        keys.append(
            (M.shape, *(np.asarray(v, dtype=float).tobytes() for v in data),
             tuple(sorted(options.items())))
        )
        return solve(c, A, b, lb, ub, **kwargs)

    monkeypatch.setattr(lp, "solve_box_lp", keyed)
    return keys


class TestLpReuse:
    def test_estimation_and_bounds_export_solve_no_lp_twice(self, monkeypatch, tmp_path):
        # The time update's hull of (corrected x u) reads the corrected
        # set's stored supports and emptiness, and the bounds export then
        # reads them again; emptiness is the first hull LP.
        cfg = cli.load_config(CONFIGS / "mimo_estimation.json")
        cli.simulate(cfg, tmp_path)
        models = cli._build_output_models(cfg, tmp_path)
        stream = cli.read_measurement_csv(tmp_path / cli.MEASUREMENT_FILE, cfg.input_dim)
        keys = recorded_lps(monkeypatch)
        run = estimate_online(
            cfg.initial_set, stream, models, cfg.system.regions, cfg.system.sensors,
            cfg.system.noise_w, method="all", N=5, alpha=cfg.alpha,
            opts=cfg.reach_options(),
        )
        for step in run.steps:
            for z in step.corrected.values():
                oracle.interval_hull(z)
        repeats = len(keys) - len(set(keys))
        assert keys and repeats == 0, f"{repeats} of {len(keys)} LPs repeat an earlier one"
