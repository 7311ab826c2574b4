"""Model-set identification from trajectories."""

import numpy as np
import pytest

from hzreach import MatrixZonotope, PolyhedralRegion, Zonotope, oracle
from hzreach import ident
from hzreach.ident import (
    ModeDataset,
    NoRegionError,
    RankDeficiencyError,
    Sensor,
    Transition,
    build_model_set,
    build_model_set_from_outputs,
    noise_matrix_zonotope,
    partition_trajectories,
    region_index,
)

A1 = np.array([[0.75, 0.25], [-0.25, 0.75]])
B1 = np.array([[-0.25], [-0.25]])
A2 = np.array([[0.75, -0.25], [0.25, 0.75]])
B2 = np.array([[0.25], [-0.25]])
REGIONS = (
    PolyhedralRegion([[1.0, 0.0]], [0.0]),
    PolyhedralRegion([[-1.0, 0.0]], [0.0]),
)


def simulate_pwa(modes, regions, x0, steps, rng, noise_radius=0.0, input_radius=1.0):
    """Plain rollout used as the independent data generator for these tests."""
    xs = [np.asarray(x0, dtype=float)]
    us = []
    for _ in range(steps):
        i = region_index(xs[-1], regions)
        A, B = modes[i]
        u = rng.uniform(-input_radius, input_radius, B.shape[1])
        w = rng.uniform(-noise_radius, noise_radius, A.shape[0])
        xs.append(A @ xs[-1] + B @ u + w)
        us.append(u)
    return [
        Transition(x=xs[k], u=us[k], x_next=xs[k + 1]) for k in range(steps)
    ]


class TestPartition:
    def test_two_region_split(self):
        regions = (
            PolyhedralRegion([[1.0]], [0.0]),
            PolyhedralRegion([[-1.0]], [0.0]),
        )
        trs = [
            Transition(np.array([-0.5]), np.array([0.0]), np.array([-0.4])),
            Transition(np.array([0.5]), np.array([0.0]), np.array([0.4])),
        ]
        data = partition_trajectories(trs, regions)
        assert data[0].length == 1 and data[1].length == 1
        assert data[0].X_minus[0, 0] == -0.5
        assert data[1].X_minus[0, 0] == 0.5

    def test_region_without_data_raises(self):
        regions = (
            PolyhedralRegion([[1.0]], [0.0]),
            PolyhedralRegion([[-1.0]], [0.0]),
        )
        trs = [
            Transition(np.array([-0.5]), np.array([0.0]), np.array([-0.4])),
            Transition(np.array([-0.4]), np.array([0.0]), np.array([-0.3])),
        ]
        with pytest.raises(RankDeficiencyError, match="mode 1 has no data"):
            partition_trajectories(trs, regions)

    def test_boundary_tie_goes_low(self):
        regions = (
            PolyhedralRegion([[1.0]], [0.0]),
            PolyhedralRegion([[-1.0]], [0.0]),
        )
        assert region_index(np.array([0.0]), regions) == 0

    def test_no_region_raises(self):
        regions = (PolyhedralRegion([[1.0]], [0.0]),)
        with pytest.raises(NoRegionError):
            region_index(np.array([1.0]), regions)

    def test_benchmark_counts_preserved(self):
        rng = np.random.default_rng(0)
        trs = simulate_pwa(
            ((A1, B1), (A2, B2)), REGIONS, [-1.51, 2.55], 50, rng
        )
        data = partition_trajectories(trs, REGIONS)
        assert data[0].length + data[1].length == 50


class TestNoiseLifting:
    def test_zero_noise(self):
        mz = noise_matrix_zonotope(Zonotope([0.0], np.zeros((1, 0))), 3)
        assert mz.num_generators == 0
        assert np.allclose(mz.center, 0.0)

    def test_per_slot_generators(self):
        mz = noise_matrix_zonotope(Zonotope([0.0], [[0.1]]), 2)
        assert mz.num_generators == 2
        assert np.allclose(mz.generators[0], [[0.1, 0.0]])
        assert np.allclose(mz.generators[1], [[0.0, 0.1]])

    def test_sequence_membership(self):
        mz = noise_matrix_zonotope(Zonotope([0.0], [[0.1]]), 2)
        assert oracle.matrix_membership(mz, np.array([[0.05, -0.1]]))
        assert not oracle.matrix_membership(mz, np.array([[0.2, 0.0]]))


class TestBuildModelSet:
    def test_scalar_hand_example(self):
        d = ModeDataset(
            0,
            X_plus=np.array([[1.5, 0.75]]),
            X_minus=np.array([[1.0, 1.5]]),
            U_minus=np.array([[1.0, 0.0]]),
        )
        mz = build_model_set(d, noise_matrix_zonotope(Zonotope([0.0], np.zeros((1, 0))), 2))
        assert np.allclose(mz.center, [[0.5, 1.0]], atol=1e-12)
        assert mz.num_generators == 0

    def test_identity_recovery(self):
        rng = np.random.default_rng(1)
        X_minus = rng.normal(size=(2, 6))
        U_minus = rng.normal(size=(1, 6))
        d = ModeDataset(0, X_plus=X_minus.copy(), X_minus=X_minus, U_minus=U_minus)
        mz = build_model_set(
            d, noise_matrix_zonotope(Zonotope([0.0, 0.0], np.zeros((2, 0))), 6)
        )
        assert np.allclose(mz.center, np.hstack([np.eye(2), np.zeros((2, 1))]), atol=1e-10)

    def test_benchmark_mode1_recovery(self):
        rng = np.random.default_rng(2)
        X_minus = rng.uniform(-2.0, -0.1, size=(2, 10))
        X_minus[0] = -np.abs(X_minus[0])  # keep every column in region 1
        U_minus = rng.uniform(-1.0, 1.0, size=(1, 10))
        X_plus = A1 @ X_minus + B1 @ U_minus
        d = ModeDataset(0, X_plus=X_plus, X_minus=X_minus, U_minus=U_minus)
        mz = build_model_set(
            d, noise_matrix_zonotope(Zonotope([0.0, 0.0], np.zeros((2, 0))), 10)
        )
        assert np.linalg.norm(mz.center - np.hstack([A1, B1])) < 1e-8

    def test_rank_deficiency(self):
        d = ModeDataset(
            0,
            X_plus=np.array([[1.0, 2.0]]),
            X_minus=np.array([[1.0, 2.0]]),
            U_minus=np.array([[0.0, 0.0]]),  # input never excited
        )
        with pytest.raises(RankDeficiencyError):
            build_model_set(
                d, noise_matrix_zonotope(Zonotope([0.0], np.zeros((1, 0))), 2)
            )

    def test_too_few_samples(self):
        d = ModeDataset(
            0,
            X_plus=np.array([[1.0]]),
            X_minus=np.array([[1.0]]),
            U_minus=np.array([[1.0]]),
        )
        with pytest.raises(RankDeficiencyError):
            build_model_set(
                d, noise_matrix_zonotope(Zonotope([0.0], np.zeros((1, 0))), 1)
            )


class TestExactRecoveryProperty:
    def test_random_stable_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            A = rng.normal(size=(n, n))
            A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
            B = rng.normal(size=(n, m))
            T = n + m + 3
            X_minus = rng.normal(size=(n, T))
            U_minus = rng.normal(size=(m, T))
            X_plus = A @ X_minus + B @ U_minus
            d = ModeDataset(0, X_plus=X_plus, X_minus=X_minus, U_minus=U_minus)
            mz = build_model_set(
                d, noise_matrix_zonotope(Zonotope(np.zeros(n), np.zeros((n, 0))), T)
            )
            assert np.linalg.norm(mz.center - np.hstack([A, B])) < 1e-8
            assert mz.num_generators == 0


class TestModelSetContainment:
    def test_noisy_trials(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            A *= 0.9 / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
            B = rng.normal(size=(2, 1))
            radius = 0.05
            noise = Zonotope(np.zeros(2), radius * np.eye(2))
            T = 15
            X_minus = rng.normal(size=(2, T))
            U_minus = rng.normal(size=(1, T))
            W = rng.uniform(-radius, radius, size=(2, T))
            X_plus = A @ X_minus + B @ U_minus + W
            d = ModeDataset(0, X_plus=X_plus, X_minus=X_minus, U_minus=U_minus)
            mz = build_model_set(d, noise_matrix_zonotope(noise, T))
            assert oracle.matrix_membership(mz, np.hstack([A, B]), tol=1e-7)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(5)
        A = np.array([[0.5, 0.1], [0.0, 0.8]])
        B = np.array([[1.0], [0.5]])
        T = 12
        X_minus = rng.normal(size=(2, T))
        U_minus = rng.normal(size=(1, T))
        X_plus = A @ X_minus + B @ U_minus
        d = ModeDataset(0, X_plus=X_plus, X_minus=X_minus, U_minus=U_minus)

        def width(radius):
            noise = Zonotope(np.zeros(2), radius * np.eye(2))
            mz = build_model_set(d, noise_matrix_zonotope(noise, T))
            return sum(np.abs(G) for G in mz.generators)

        w1, w2 = width(0.05), width(0.1)
        assert np.all(w2 >= w1 - 1e-12)


def direct_output_model_set(dataset, sensors, noise_mz, a_bound):
    """Reference: the output-data model set built in three explicit loops.

    The noise generators are -G @ pinv(D) for each generator G of noise_mz,
    of each nonzero column of pinv(C) G_v in each time slot, and of the
    rho box in each (slot, axis), with D the reconstructed data matrix.
    """
    C = np.vstack([s.C for s in sensors])
    n, T = dataset.state_dim, dataset.length
    Cpinv = np.linalg.pinv(C, rcond=ident.PINV_CUTOFF)
    cv = np.concatenate([s.noise.center for s in sensors])
    Gv = np.zeros((C.shape[0], sum(s.noise.num_generators for s in sensors)))
    row = col = 0
    for s in sensors:
        Gv[row : row + s.output_dim, col : col + s.noise.num_generators] = s.noise.generators
        row += s.output_dim
        col += s.noise.num_generators
    X_hat_plus = Cpinv @ (dataset.Y_plus - cv[:, None])
    X_hat_minus = Cpinv @ (dataset.Y_minus - cv[:, None])
    Dpinv = np.linalg.pinv(np.vstack([X_hat_minus, dataset.U_minus]), rcond=ident.PINV_CUTOFF)
    gens = list(noise_mz.generators)
    CG = Cpinv @ Gv
    for j in range(CG.shape[1]):
        if np.any(CG[:, j]):
            for t in range(T):
                G = np.zeros((n, T))
                G[:, t] = CG[:, j]
                gens.append(G)
    rho = a_bound * float(np.abs(CG).sum(axis=1).max())
    for t in range(T):
        for i in range(n):
            G = np.zeros((n, T))
            G[i, t] = rho
            gens.append(G)
    center = (X_hat_plus - noise_mz.center) @ Dpinv
    return MatrixZonotope(center, tuple(-G @ Dpinv for G in gens))


class TestOutputBasedModelSet:
    def _dataset(self, rng, C_list, noise_radius, T=12):
        A = np.array([[0.6, 0.2], [-0.1, 0.7]])
        B = np.array([[1.0], [0.0]])
        sensors = tuple(
            Sensor(C, Zonotope(np.zeros(C.shape[0]), noise_radius * np.eye(C.shape[0])))
            for C in C_list
        )
        Cs = np.vstack([s.C for s in sensors])
        X_minus = rng.normal(size=(2, T))
        U_minus = rng.normal(size=(1, T))
        X_plus = A @ X_minus + B @ U_minus
        V_minus = rng.uniform(-noise_radius, noise_radius, size=(Cs.shape[0], T))
        V_plus = rng.uniform(-noise_radius, noise_radius, size=(Cs.shape[0], T))
        d = ModeDataset(
            0,
            X_plus=X_plus,
            X_minus=X_minus,
            U_minus=U_minus,
            Y_plus=Cs @ X_plus + V_plus,
            Y_minus=Cs @ X_minus + V_minus,
        )
        return d, sensors, np.hstack([A, B])

    def test_identity_sensor_matches_state_version(self):
        rng = np.random.default_rng(6)
        d, sensors, truth = self._dataset(rng, [np.eye(2)], 0.0)
        mw = noise_matrix_zonotope(Zonotope(np.zeros(2), np.zeros((2, 0))), d.length)
        from_outputs = build_model_set_from_outputs(d, sensors, mw, a_bound=1.0)
        from_states = build_model_set(d, mw)
        assert np.allclose(from_outputs.center, from_states.center, atol=1e-10)
        assert from_outputs.num_generators == from_states.num_generators == 0

    def test_scaled_sensor_cancels(self):
        rng = np.random.default_rng(7)
        d, sensors, truth = self._dataset(rng, [2.0 * np.eye(2)], 0.0)
        mw = noise_matrix_zonotope(Zonotope(np.zeros(2), np.zeros((2, 0))), d.length)
        from_outputs = build_model_set_from_outputs(d, sensors, mw, a_bound=1.0)
        assert np.allclose(from_outputs.center, truth, atol=1e-10)

    def test_scalar_containment_monte_carlo(self):
        rng = np.random.default_rng(8)
        truth = np.array([[0.5, 1.0]])
        for _ in range(20):
            T = 10
            X_minus = rng.normal(size=(1, T))
            U_minus = rng.normal(size=(1, T))
            X_plus = 0.5 * X_minus + U_minus
            V_m = rng.uniform(-0.01, 0.01, size=(1, T))
            V_p = rng.uniform(-0.01, 0.01, size=(1, T))
            d = ModeDataset(
                0, X_plus, X_minus, U_minus, Y_plus=X_plus + V_p, Y_minus=X_minus + V_m
            )
            sensors = (Sensor(np.eye(1), Zonotope([0.0], [[0.01]])),)
            mw = noise_matrix_zonotope(Zonotope([0.0], np.zeros((1, 0))), T)
            mz = build_model_set_from_outputs(d, sensors, mw, a_bound=1.0)
            assert np.max(np.abs(mz.center - truth)) < 0.05
            assert oracle.matrix_membership(mz, truth, tol=1e-7)

    def test_equals_the_direct_three_loop_construction(self):
        rng = np.random.default_rng(10)
        d, sensors, _ = self._dataset(
            rng, [np.array([[1.0, 0.4]]), np.array([[0.9, -1.2], [0.0, 0.7]])], 0.05
        )
        # Offset centers and a zero noise column, which the widening drops.
        sensors = (
            Sensor(sensors[0].C, Zonotope([0.01], [[0.05, 0.0]])),
            Sensor(sensors[1].C, Zonotope([-0.02, 0.03], 0.05 * np.eye(2))),
        )
        mw = noise_matrix_zonotope(Zonotope(np.zeros(2), 0.01 * np.eye(2)), d.length)
        got = build_model_set_from_outputs(d, sensors, mw, a_bound=1.5)
        want = direct_output_model_set(d, sensors, mw, a_bound=1.5)
        assert got.center.tobytes() == want.center.tobytes()
        assert got.num_generators == want.num_generators == (2 + 3 + 2) * 12
        assert sorted(G.tobytes() for G in got.generators) == sorted(
            G.tobytes() for G in want.generators
        )

    def test_rank_deficient_sensor(self):
        rng = np.random.default_rng(9)
        d, _, _ = self._dataset(rng, [np.eye(2)], 0.0)
        bad = (Sensor(np.array([[1.0, 0.0]]), Zonotope([0.0], np.zeros((1, 0)))),)
        mw = noise_matrix_zonotope(Zonotope(np.zeros(2), np.zeros((2, 0))), d.length)
        with pytest.raises(RankDeficiencyError):
            build_model_set_from_outputs(d, bad, mw, a_bound=1.0)


class TestTrajectoryCsv(object):
    def test_episode_boundaries(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "k,x1,u1\n"
            "0,1.0,0.5\n"
            "1,2.0,0.25\n"
            "2,3.0,0.0\n"
            "\n"
            "0,10.0,1.0\n"
            "1,11.0,0.0\n"
        )
        trs = ident.read_trajectory_csv(path, state_dim=1, input_dim=1)
        assert len(trs) == 3  # 2 within episode one, 1 within episode two
        assert trs[0].x[0] == 1.0 and trs[0].x_next[0] == 2.0
        assert trs[2].x[0] == 10.0 and trs[2].x_next[0] == 11.0
        assert trs[0].y is None

    def test_outputs_parsed(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "k,x1,u1,y1,y2\n"
            "0,1.0,0.5,9.0,8.0\n"
            "1,2.0,0.0,7.0,6.0\n"
        )
        trs = ident.read_trajectory_csv(path, state_dim=1, input_dim=1)
        assert len(trs) == 1
        assert np.allclose(trs[0].y, [9.0, 8.0])
        assert np.allclose(trs[0].y_next, [7.0, 6.0])
