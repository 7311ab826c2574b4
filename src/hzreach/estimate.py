"""Set-based state estimation: time update plus three measurement updates.

The corrected set is the time-updated set intersected with every
sensor's measurement-consistent slab { x : C x in y - noise }.  Three
routes compute it: RM builds each slab explicitly in state space via an
SVD of C and intersects; IN folds the measurements in through weight
matrices chosen to minimize a Frobenius objective; GI appends the slab
equations directly as constraints.  With full-row-rank sensors, optimal
weights, and a large enough null-space box, the three agree.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import oracle
from .reach import (
    ReachFamily,
    ReachOptions,
    as_hybrid,
    check_cap,
    make_family,
    reach_step,
)
from .setops import HybridZonotope, Zonotope, union

log = logging.getLogger(__name__)

METHODS = ("rm", "in", "gi")


class StationarityError(ArithmeticError):
    """The weight solve failed to satisfy the optimality condition."""


class EstimationInfeasible(RuntimeError):
    """Every per-mode corrected set became empty (data contradict bounds)."""

    def __init__(self, step: int):
        super().__init__(f"corrected set empty at step {step}")
        self.step = step


@dataclass(frozen=True)
class SensorReading:
    sensor_index: int
    y: np.ndarray
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())


@dataclass(frozen=True)
class MeasurementZonotope:
    """State-space zonotope consistent with one sensor reading."""

    center: np.ndarray
    generators: np.ndarray


@dataclass(frozen=True)
class InWeights:
    """Stacked weight matrix with its stationarity diagnostics."""

    lam: np.ndarray
    residual: float
    condition: float


@dataclass(frozen=True)
class StepData:
    readings: tuple
    u: np.ndarray | None = None


@dataclass(frozen=True)
class StepEstimate:
    step: int
    corrected: dict
    pred: HybridZonotope | None = None
    rm_bound: float | None = None


@dataclass(frozen=True)
class EstimationRun:
    methods: tuple
    steps: list

    def sets(self, method: str) -> list:
        return [s.corrected[method] for s in self.steps]


@dataclass(frozen=True)
class EquivalenceReport:
    max_gap: float
    num_directions: int
    a_in_b: int
    b_in_a: int
    num_samples: int
    tol: float


def _sorted_readings(readings) -> list:
    return sorted(readings, key=lambda r: r.sensor_index)


def reverse_map_zonotope(sensor, y, M: float) -> MeasurementZonotope:
    """State zonotope { x : C x in y - noise, |V2^T x| <= M } via the SVD of C.

    The center satisfies C @ center = y - c_v by construction (right
    inverse through the SVD); the trailing generator block spans the
    null space of C scaled by M.
    """
    if M <= 0:
        raise ValueError("null-space extent M must be positive")
    C = sensor.C
    p, n = C.shape
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    if p > n or s[-1] <= 1e-10 * s[0]:
        raise ValueError("sensor matrix must have full row rank")
    y = np.asarray(y, dtype=float).ravel()
    core = (Vt[:p] / s[:, None]).T @ U.T  # n x p right inverse of C
    center = core @ (y - sensor.noise.center)
    gens = np.hstack([core @ sensor.noise.generators, M * Vt[p:].T])
    return MeasurementZonotope(center, gens)


def update_rm(
    pred: HybridZonotope, readings, sensors, M: float
) -> HybridZonotope:
    """Intersect pred with every sensor's reverse-mapped zonotope.

    Assembled directly in the stacked form the sequential generalized
    intersections produce: one coupling block of ambient rows per
    sensor, fresh columns for each measurement zonotope's factors.
    """
    readings = _sorted_readings(readings)
    if not readings:
        return pred
    mzs = [reverse_map_zonotope(sensors[r.sensor_index], r.y, M) for r in readings]
    n = pred.dim
    q = len(mzs)
    widths = [mz.generators.shape[1] for mz in mzs]
    ng_out = pred.ng + sum(widths)
    nc_out = pred.nc + q * n
    Gc = np.zeros((n, ng_out))
    Gc[:, : pred.ng] = pred.Gc
    Ac = np.zeros((nc_out, ng_out))
    Ac[: pred.nc, : pred.ng] = pred.Ac
    Ab = np.zeros((nc_out, pred.nb))
    Ab[: pred.nc] = pred.Ab
    b = np.zeros(nc_out)
    b[: pred.nc] = pred.b
    row, col = pred.nc, pred.ng
    for mz, w in zip(mzs, widths):
        Ac[row : row + n, : pred.ng] = pred.Gc
        Ac[row : row + n, col : col + w] = -mz.generators
        Ab[row : row + n] = pred.Gb
        b[row : row + n] = mz.center - pred.c
        row += n
        col += w
    return HybridZonotope(Gc, pred.Gb, pred.c, Ac, Ab, b)


def solve_in_weights(pred: HybridZonotope, readings, sensors, alpha: float) -> InWeights:
    """Frobenius-optimal stacked weights via the normal equations.

    Stationarity of J = |(I - L) Gc|_F^2 + alpha |(I - L) Gb|_F^2
    + sum_j |lam_j Gv_j|_F^2 with L = sum_j lam_j C_j gives
    lam = S Cbar^T (Cbar S Cbar^T + blkdiag(Gv_j Gv_j^T))^+.
    """
    readings = _sorted_readings(readings)
    S = pred.Gc @ pred.Gc.T + alpha * (pred.Gb @ pred.Gb.T)
    Cbar = np.vstack([sensors[r.sensor_index].C for r in readings])
    blocks = [sensors[r.sensor_index].noise.generators for r in readings]
    P = Cbar.shape[0]
    R = np.zeros((P, P))
    row = 0
    for g in blocks:
        R[row : row + g.shape[0], row : row + g.shape[0]] = g @ g.T
        row += g.shape[0]
    K = Cbar @ S @ Cbar.T + R
    Kpinv = np.linalg.pinv(K)
    target = S @ Cbar.T  # stationarity: lam @ K = target
    lam = target @ Kpinv
    scale = 1.0 + float(np.linalg.norm(target))
    # K's conditioning reaches ~1e12 when the measurement noise is tiny
    # relative to the predicted set, and one pseudoinverse solve then
    # leaves a stationarity residual far above the 1e-8 contract.  A
    # fixed refinement schedule (each round shrinks the residual by
    # roughly eps * cond(K)) guarantees the contract for every step of a
    # run at a deterministic, data-independent cost.
    for _ in range(6):
        lam = lam + (target - lam @ K) @ Kpinv
    # Verify optimality sensor-by-sensor: each gradient block of the
    # Frobenius objective must vanish.
    defect = lam @ K - target
    residual = 0.0
    row = 0
    for g in blocks:
        p = g.shape[0]
        residual = max(residual, float(np.linalg.norm(defect[:, row : row + p])))
        row += p
    residual /= scale
    condition = float(np.linalg.cond(K)) if P else 1.0
    return InWeights(lam, residual, condition)


def update_in(
    pred: HybridZonotope,
    readings,
    sensors,
    alpha: float = 1.0,
    *,
    stationarity_tol: float = 1e-8,
) -> HybridZonotope:
    """Weighted implicit intersection; weights solve the Frobenius problem."""
    readings = _sorted_readings(readings)
    if not readings:
        return pred
    w = solve_in_weights(pred, readings, sensors, alpha)
    if w.residual > stationarity_tol:
        raise StationarityError(
            f"weight solve residual {w.residual:.2e} exceeds {stationarity_tol:.0e}"
        )
    log.debug("IN weights: residual %.2e cond %.2e", w.residual, w.condition)
    n = pred.dim
    Cbar = np.vstack([sensors[r.sensor_index].C for r in readings])
    shrink = np.eye(n) - w.lam @ Cbar

    gc_blocks = [shrink @ pred.Gc]
    innovation = np.zeros(n)
    row = 0
    for r in readings:
        s = sensors[r.sensor_index]
        lam_j = w.lam[:, row : row + s.output_dim]
        gc_blocks.append(-lam_j @ s.noise.generators)
        innovation += lam_j @ (r.y - s.C @ pred.c - s.noise.center)
        row += s.output_dim
    new_Gc = np.hstack(gc_blocks)
    extra = new_Gc.shape[1] - pred.ng
    return HybridZonotope(
        new_Gc,
        shrink @ pred.Gb,
        pred.c + innovation,
        np.hstack([pred.Ac, np.zeros((pred.nc, extra))]),
        pred.Ab,
        pred.b,
    )


def update_gi(pred: HybridZonotope, readings, sensors) -> HybridZonotope:
    """Append each sensor's slab as constraint rows with fresh noise factors."""
    out = pred
    for r in _sorted_readings(readings):
        s = sensors[r.sensor_index]
        nv = s.noise.num_generators
        Ac = np.vstack(
            [
                np.hstack([out.Ac, np.zeros((out.nc, nv))]),
                np.hstack([s.C @ out.Gc, s.noise.generators]),
            ]
        )
        Ab = np.vstack([out.Ab, s.C @ out.Gb])
        b = np.concatenate([out.b, r.y - s.noise.center - s.C @ out.c])
        out = HybridZonotope(
            np.hstack([out.Gc, np.zeros((out.dim, nv))]), out.Gb, out.c, Ac, Ab, b
        )
    return out


def rm_bound_policy(pred: HybridZonotope) -> float:
    """Null-space extent covering pred with a factor-two margin.

    Every x in pred has |x_i| <= r_i = max(|lo_i|, |hi_i|), so for each
    unit null-space vector v, |v @ x| <= |x|_2 <= |r|_2 < M in any
    dimension.
    """
    lo, hi = oracle.interval_hull(pred)
    return 2.0 * float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))) + 1.0


def time_update(
    prev: HybridZonotope,
    models_y,
    regions,
    input_sets,
    noise: Zonotope,
    *,
    step: int = 0,
    opts: ReachOptions = ReachOptions(),
) -> ReachFamily:
    """One prediction through the output-derived model sets."""
    family = make_family(step, prev, regions, opts)
    return reach_step(family, models_y, regions, input_sets, noise, opts=opts)


def _correct_family(family: ReachFamily, readings, sensors, method, alpha):
    """Per-mode measurement update, re-unioned across nonempty modes."""
    pieces = []
    rm_bound = None
    for i in range(len(family.per_mode)):
        if family.empty[i]:
            continue
        pred = family.per_mode[i]
        if method == "rm":
            rm_bound = rm_bound_policy(pred)
            corrected = update_rm(pred, readings, sensors, rm_bound)
        elif method == "in":
            corrected = update_in(pred, readings, sensors, alpha)
        elif method == "gi":
            corrected = update_gi(pred, readings, sensors)
        else:
            raise ValueError(f"unknown method {method!r}")
        if not oracle.is_empty(corrected):
            pieces.append(corrected)
    if not pieces:
        return None, rm_bound
    out = pieces[0]
    for piece in pieces[1:]:
        out = union(out, piece)
    return out, rm_bound


def estimate_online(
    x0_set,
    stream,
    models_y,
    regions,
    sensors,
    noise_w: Zonotope,
    method: str = "all",
    N: int | None = None,
    *,
    alpha: float = 1.0,
    opts: ReachOptions = ReachOptions(),
) -> EstimationRun:
    """Alternate time and measurement updates over a reading stream.

    stream[k] supplies the readings at step k and the input applied at
    step k.  With method "all" the three updates run on identical
    per-step inputs and the GI result carries the chain forward.
    """
    stream = list(stream)
    if N is None:
        N = len(stream) - 1
    if len(stream) < N + 1:
        raise ValueError("stream shorter than the requested horizon")
    methods = METHODS if method == "all" else (method,)
    reference = "gi" if method == "all" else method

    steps = []
    family = make_family(0, as_hybrid(x0_set), regions, opts)
    pred_union = family.union_set
    for k in range(N + 1):
        readings = stream[k].readings
        corrected = {}
        rm_bound = None
        for m in methods:
            out, bound = _correct_family(family, readings, sensors, m, alpha)
            if m == "rm":
                rm_bound = bound
            if out is None:
                if m == reference:
                    raise EstimationInfeasible(k)
                log.warning("method %s produced an empty corrected set at %d", m, k)
            corrected[m] = out
        steps.append(
            StepEstimate(step=k, corrected=corrected, pred=pred_union, rm_bound=rm_bound)
        )
        if k == N:
            break
        u = stream[k].u
        if u is None:
            raise ValueError(f"stream step {k} carries no input")
        family = time_update(
            corrected[reference],
            models_y,
            regions,
            np.asarray(u, dtype=float),
            noise_w,
            step=k,
            opts=opts,
        )
        pred_union = family.union_set
    return EstimationRun(methods=methods, steps=steps)


def equivalence_report(
    set_a: HybridZonotope,
    set_b: HybridZonotope,
    directions: int = 32,
    tol: float = 1e-7,
    *,
    num_samples: int = 50,
    seed: int = 0,
    opts: ReachOptions = ReachOptions(),
) -> EquivalenceReport:
    """Support gap over spread directions plus mutual sample containment.

    Raises EnumerationCapError when either set has more than opts.bin_cap
    binary factors.
    """
    check_cap(set_a, opts)
    check_cap(set_b, opts)
    dirs = _spread_directions(set_a.dim, directions)
    max_gap = 0.0
    for d in dirs:
        ha = oracle.support(set_a, d)
        hb = oracle.support(set_b, d)
        if ha == -np.inf or hb == -np.inf:
            raise oracle.EmptySetError("equivalence report needs nonempty sets")
        max_gap = max(max_gap, abs(ha - hb))
    a_pts = oracle.sample(set_a, num_samples, seed)
    b_pts = oracle.sample(set_b, num_samples, seed + 1)
    a_in_b = sum(oracle.membership(set_b, x, tol) for x in a_pts)
    b_in_a = sum(oracle.membership(set_a, x, tol) for x in b_pts)
    return EquivalenceReport(
        max_gap=float(max_gap),
        num_directions=len(dirs),
        a_in_b=int(a_in_b),
        b_in_a=int(b_in_a),
        num_samples=num_samples,
        tol=tol,
    )


def _spread_directions(dim: int, count: int) -> np.ndarray:
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(count)
    d = rng.normal(size=(count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)
