"""Per-mode model sets from recorded PWA trajectories.

Given trajectories partitioned by region, the set of system matrices
[A_i B_i] consistent with the data and the noise bounds is a matrix
zonotope: (X_plus - M_w) @ pinv([X_minus; U_minus]), where M_w lifts the
per-step noise zonotope into matrix space.  From output data, the
states are first reconstructed through the sensors, and the same
construction runs on them with M_w widened by the sensor noise.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .setops import MatrixZonotope, Zonotope, block_diag

RANK_TOL = 1e-8
PINV_CUTOFF = 1e-10
GUARD_TOL = 1e-9


class RankDeficiencyError(ValueError):
    """Recorded data does not excite the system enough to pin down a model set."""


class NoRegionError(ValueError):
    """A recorded state lies in none of the partition regions."""


@dataclass(frozen=True)
class Sensor:
    """One output channel y = C @ x + v with v in the noise zonotope."""

    C: np.ndarray
    noise: Zonotope

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if self.noise.dim != C.shape[0]:
            raise ValueError("sensor noise dimension must match the output rows")
        object.__setattr__(self, "C", C)

    @property
    def output_dim(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class PwaSystemSpec:
    """Regions plus noise description; modes only for known-model baselines."""

    regions: tuple
    noise_w: Zonotope
    modes: tuple | None = None
    sensors: tuple = ()

    def __post_init__(self):
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if self.modes is not None:
            modes = tuple(
                (np.asarray(A, dtype=float), np.asarray(B, dtype=float))
                for A, B in self.modes
            )
            if len(modes) != len(regions):
                raise ValueError("one region per mode is required")
            n = modes[0][0].shape[0]
            for A, B in modes:
                if A.shape != (n, n) or B.shape[0] != n:
                    raise ValueError("mode matrices disagree on the state dimension")
            object.__setattr__(self, "modes", modes)
        if self.noise_w.dim != self.dim:
            raise ValueError("process noise dimension must match the state")

    @property
    def dim(self) -> int:
        return self.regions[0].dim


@dataclass(frozen=True)
class Transition:
    """One recorded step: state, applied input, successor (outputs optional)."""

    x: np.ndarray
    u: np.ndarray
    x_next: np.ndarray
    y: np.ndarray | None = None
    y_next: np.ndarray | None = None


@dataclass(frozen=True)
class ModeDataset:
    mode_index: int
    X_plus: np.ndarray
    X_minus: np.ndarray
    U_minus: np.ndarray
    Y_plus: np.ndarray | None = None
    Y_minus: np.ndarray | None = None

    def __post_init__(self):
        T = self.X_plus.shape[1]
        if self.X_minus.shape[1] != T or self.U_minus.shape[1] != T:
            raise ValueError("data matrices disagree on the transition count")
        for Y in (self.Y_plus, self.Y_minus):
            if Y is not None and Y.shape[1] != T:
                raise ValueError("output matrices disagree on the transition count")

    @property
    def length(self) -> int:
        return self.X_plus.shape[1]

    @property
    def state_dim(self) -> int:
        return self.X_plus.shape[0]


def region_index(x, regions) -> int:
    """Lowest region index containing x within GUARD_TOL; closed
    boundaries, ties go low."""
    for i, region in enumerate(regions):
        if region.contains(x, GUARD_TOL):
            return i
    raise NoRegionError(f"state {np.asarray(x)} lies in no region")


def partition_trajectories(transitions, regions) -> list:
    """Split recorded transitions by the region of their source state; a
    region without any cannot be identified (RankDeficiencyError)."""
    buckets: list[list[Transition]] = [[] for _ in regions]
    for tr in transitions:
        buckets[region_index(tr.x, regions)].append(tr)
    datasets = []
    for i, bucket in enumerate(buckets):
        if not bucket:
            raise RankDeficiencyError(f"mode {i} has no data")
        X_minus = np.column_stack([tr.x for tr in bucket])
        X_plus = np.column_stack([tr.x_next for tr in bucket])
        U_minus = np.column_stack([np.atleast_1d(tr.u) for tr in bucket])
        has_outputs = all(tr.y is not None and tr.y_next is not None for tr in bucket)
        Y_minus = np.column_stack([tr.y for tr in bucket]) if has_outputs else None
        Y_plus = np.column_stack([tr.y_next for tr in bucket]) if has_outputs else None
        datasets.append(ModeDataset(i, X_plus, X_minus, U_minus, Y_plus, Y_minus))
    return datasets


def noise_matrix_zonotope(noise: Zonotope, horizon: int) -> MatrixZonotope:
    """Lift a per-step noise zonotope to length-`horizon` noise sequences.

    One generator per (noise generator, time slot) pair; contains every
    realizable i.i.d.-bounded sequence.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = noise.dim
    center = np.tile(noise.center[:, None], (1, horizon))
    gens = []
    for j in range(noise.num_generators):
        col = noise.generators[:, j]
        for t in range(horizon):
            G = np.zeros((n, horizon))
            G[:, t] = col
            gens.append(G)
    return MatrixZonotope(center, tuple(gens))


def _checked_pinv(D: np.ndarray, what: str) -> np.ndarray:
    if D.shape[1] < D.shape[0]:
        raise RankDeficiencyError(
            f"{what}: need at least {D.shape[0]} transitions, have {D.shape[1]}"
        )
    svals = np.linalg.svd(D, compute_uv=False)
    if svals.size == 0 or svals[-1] <= RANK_TOL * svals[0]:
        raise RankDeficiencyError(f"{what}: stacked data matrix is rank deficient")
    return np.linalg.pinv(D, rcond=PINV_CUTOFF)


def build_model_set(dataset: ModeDataset, noise_mz: MatrixZonotope) -> MatrixZonotope:
    """Matrix zonotope containing every [A B] consistent with the data."""
    T = dataset.length
    if noise_mz.shape != (dataset.state_dim, T):
        raise ValueError("noise matrix zonotope shape does not match the data")
    D = np.vstack([dataset.X_minus, dataset.U_minus])
    Dpinv = _checked_pinv(D, f"mode {dataset.mode_index}")
    center = (dataset.X_plus - noise_mz.center) @ Dpinv
    gens = tuple(-G @ Dpinv for G in noise_mz.generators)
    return MatrixZonotope(center, gens)


def build_model_set_from_outputs(
    dataset: ModeDataset,
    sensors,
    noise_mz: MatrixZonotope,
    a_bound: float,
) -> MatrixZonotope:
    """Model set from output data: states reconstructed through the sensors.

    Writing x = pinv(C) @ (y - v) for the stacked sensor matrix C turns the
    dynamics into ones driven by an effective noise
    w + pinv(C) v_plus - A pinv(C) v_minus; the unknown-A term is bounded
    by a_bound (an infinity-norm bound on A, supplied by configuration)
    and folded in as an axis-aligned box.  The result is build_model_set
    on the reconstructed states with noise_mz widened by the lifting of
    the zonotope <0, [pinv(C) G_v, rho I]>.
    """
    if dataset.Y_plus is None or dataset.Y_minus is None:
        raise ValueError("dataset carries no output data")
    if a_bound <= 0:
        raise ValueError("a_bound must be positive")
    sensors = tuple(sensors)
    C = np.vstack([s.C for s in sensors])
    n = dataset.state_dim
    svals = np.linalg.svd(C, compute_uv=False)
    if C.shape[0] < n or svals[-1] <= RANK_TOL * svals[0]:
        raise RankDeficiencyError("stacked sensor matrix must have full column rank")
    Cpinv = np.linalg.pinv(C, rcond=PINV_CUTOFF)

    cv = np.concatenate([s.noise.center for s in sensors])
    CG = Cpinv @ block_diag(*(s.noise.generators for s in sensors))
    # Unknown-A term: |A z|_inf <= a_bound * max row sum of |pinv(C) Gv|.
    rho = a_bound * float(np.abs(CG).sum(axis=1).max())
    W = np.hstack([CG, rho * np.eye(n)])
    W = W[:, np.any(W, axis=0)]  # a zero column (all of rho I if rho = 0) adds nothing
    extra = noise_matrix_zonotope(Zonotope(np.zeros(n), W), dataset.length)
    reconstructed = ModeDataset(
        dataset.mode_index,
        Cpinv @ (dataset.Y_plus - cv[:, None]),
        Cpinv @ (dataset.Y_minus - cv[:, None]),
        dataset.U_minus,
    )
    return build_model_set(
        reconstructed,
        MatrixZonotope(noise_mz.center, noise_mz.generators + extra.generators),
    )


def identify_models(datasets, noise_w: Zonotope) -> list:
    """Per-mode model sets via the per-mode noise lifting."""
    return [build_model_set(d, noise_matrix_zonotope(noise_w, d.length)) for d in datasets]


def identify_models_from_outputs(datasets, sensors, noise_w, a_bound) -> list:
    return [
        build_model_set_from_outputs(
            d, sensors, noise_matrix_zonotope(noise_w, d.length), a_bound
        )
        for d in datasets
    ]


# ---------------------------------------------------------------------------
# Trajectory files: header k, x1..xn, u1..um[, y1..yp]; blank lines separate
# episodes; transitions never cross an episode boundary.


def read_trajectory_csv(path, state_dim: int, input_dim: int) -> list:
    episodes = []
    current: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                if current:
                    episodes.append(current)
                    current = []
                continue
            if header is None:
                header = raw
                continue
            vals = [float(v) for v in raw]
            x = np.array(vals[1 : 1 + state_dim])
            u = np.array(vals[1 + state_dim : 1 + state_dim + input_dim])
            rest = vals[1 + state_dim + input_dim :]
            current.append({"x": x, "u": u, "y": np.array(rest) if rest else None})
    if current:
        episodes.append(current)

    transitions = []
    for rows in episodes:
        for prev, nxt in zip(rows, rows[1:]):
            transitions.append(
                Transition(
                    x=prev["x"],
                    u=prev["u"],
                    x_next=nxt["x"],
                    y=prev["y"],
                    y_next=nxt["y"],
                )
            )
    return transitions
