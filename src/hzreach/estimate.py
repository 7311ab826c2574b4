"""Set-based state estimation: time update plus three measurement updates.

The corrected set is the time-updated set intersected with every
sensor's measurement-consistent slab { x : C x in y - noise }.  Three
routes compute it: RM builds each slab explicitly in state space via an
SVD of C and intersects; IN folds the measurements in through weight
matrices chosen to minimize a Frobenius objective; GI intersects with
the slabs through C.  RM and GI are one stacked generalized intersection
with R = I or R = C per reading.  With full-row-rank sensors, optimal
weights, and a large enough null-space box, the three agree.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

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
from .setops import HybridZonotope, Zonotope, _known_leaves, _with_candidates, block_diag, union

log = logging.getLogger(__name__)

METHODS = ("rm", "in", "gi")
# Largest stationarity residual the IN weight solve may leave.
STATIONARITY_TOL = 1e-8


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
class InWeights:
    """Stacked weight matrix with its stationarity diagnostics: the
    residual, and the condition number of the stationarity matrix K,
    computed (an SVD) the first time it is read."""

    lam: np.ndarray
    residual: float
    K: np.ndarray

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.K)) if self.K.size else 1.0


@dataclass(frozen=True)
class StepData:
    readings: tuple
    u: np.ndarray | None = None


@dataclass(frozen=True)
class StepEstimate:
    step: int
    corrected: dict
    rm_bound: float | None = None


@dataclass(frozen=True)
class EstimationRun:
    steps: list


@dataclass(frozen=True)
class EquivalenceReport:
    max_gap: float
    num_directions: int
    a_in_b: int
    b_in_a: int
    num_samples: int


def _sorted_readings(readings) -> list:
    return sorted(readings, key=lambda r: r.sensor_index)


def reverse_map_zonotope(sensor, y, M: float) -> Zonotope:
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
    return Zonotope(center, gens)


def _stacked_intersection(pred: HybridZonotope, blocks) -> HybridZonotope:
    """pred ∩ { x : R x in <c, G> } for every block (R, c, G): the fold of
    generalized_intersection(., R, lift_zonotope(Zonotope(c, G))) over the
    blocks, assembled at once rather than re-copying the set per block.
    R = None stands for the identity, whose block reads pred's arrays as
    they are.  The blocks add rows and continuous factors only, so pred's
    rows are the result's candidates."""
    if not blocks:
        return pred
    n = pred.dim
    ng_out = pred.ng + sum(G.shape[1] for _, _, G in blocks)
    nc_out = pred.nc + sum(G.shape[0] for _, _, G in blocks)
    Gc = np.zeros((n, ng_out))
    Gc[:, : pred.ng] = pred.Gc
    Ac = np.zeros((nc_out, ng_out))
    Ac[: pred.nc, : pred.ng] = pred.Ac
    Ab = np.zeros((nc_out, pred.nb))
    Ab[: pred.nc] = pred.Ab
    b = np.zeros(nc_out)
    b[: pred.nc] = pred.b
    row, col = pred.nc, pred.ng
    for R, c, G in blocks:
        p, w = G.shape
        if R is None:
            RGc, RGb, Rc = pred.Gc, pred.Gb, pred.c
        else:
            RGc, RGb, Rc = R @ pred.Gc, R @ pred.Gb, R @ pred.c
        Ac[row : row + p, : pred.ng] = RGc
        Ac[row : row + p, col : col + w] = -G
        Ab[row : row + p] = RGb
        b[row : row + p] = c - Rc
        row += p
        col += w
    out = HybridZonotope(Gc, pred.Gb, pred.c, Ac, Ab, b)
    return _with_candidates(out, _known_leaves(pred))


def update_rm(pred: HybridZonotope, readings, sensors, M: float) -> HybridZonotope:
    """Intersect pred with every sensor's reverse-mapped zonotope (R = I)."""
    blocks = []
    for r in _sorted_readings(readings):
        mz = reverse_map_zonotope(sensors[r.sensor_index], r.y, M)
        blocks.append((None, mz.center, mz.generators))
    return _stacked_intersection(pred, blocks)


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
    K = Cbar @ S @ Cbar.T + block_diag(*(g @ g.T for g in blocks))
    Kpinv = np.linalg.pinv(K)
    target = S @ Cbar.T  # stationarity: lam @ K = target
    lam = target @ Kpinv
    scale = 1.0 + float(np.linalg.norm(target))
    # K's conditioning reaches ~1e12 when the measurement noise is tiny
    # relative to the predicted set, and one pseudoinverse solve then
    # leaves a stationarity residual far above STATIONARITY_TOL.  A
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
    return InWeights(lam, residual, K)


def update_in(
    pred: HybridZonotope, readings, sensors, alpha: float = 1.0
) -> HybridZonotope:
    """Weighted implicit intersection; weights solve the Frobenius problem.

    The result keeps pred's binary rows and adds continuous factors only,
    so pred's rows are its candidates."""
    readings = _sorted_readings(readings)
    if not readings:
        return pred
    w = solve_in_weights(pred, readings, sensors, alpha)
    if w.residual > STATIONARITY_TOL:
        raise StationarityError(
            f"weight solve residual {w.residual:.2e} exceeds {STATIONARITY_TOL:.0e}"
        )
    if log.isEnabledFor(logging.DEBUG):
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
    out = HybridZonotope(
        new_Gc,
        shrink @ pred.Gb,
        pred.c + innovation,
        np.hstack([pred.Ac, np.zeros((pred.nc, extra))]),
        pred.Ab,
        pred.b,
    )
    return _with_candidates(out, _known_leaves(pred))


def update_gi(pred: HybridZonotope, readings, sensors) -> HybridZonotope:
    """Intersect pred through each sensor's C with its slab <y - c_v, -G_v>."""
    blocks = []
    for r in _sorted_readings(readings):
        s = sensors[r.sensor_index]
        blocks.append((s.C, r.y - s.noise.center, -s.noise.generators))
    return _stacked_intersection(pred, blocks)


def rm_bound_policy(pred: HybridZonotope) -> float:
    """Null-space extent covering pred with a factor-two margin, without an LP.

    Every x in pred is c + Gc xi + Gb xb with |xi|_inf <= 1 and xb in
    {-1, 1}^nb, so |x_i| <= r_i = |c_i| + sum_j |Gc_ij| + sum_j |Gb_ij|:
    r bounds the set without its constraint rows, which only shrink it.
    For each unit null-space vector v, |v @ x| <= |x|_2 <= |r|_2 < M =
    2 |r|_2 + 1 in any dimension.
    """
    r = np.abs(pred.c) + np.abs(pred.Gc).sum(axis=1) + np.abs(pred.Gb).sum(axis=1)
    return 2.0 * float(np.linalg.norm(r)) + 1.0


def time_update(
    prev: HybridZonotope,
    models_y,
    regions,
    input_set,
    noise: Zonotope,
    *,
    step: int = 0,
    opts: ReachOptions = ReachOptions(),
) -> ReachFamily:
    """One prediction through the output-derived model sets."""
    family = make_family(step, prev, regions, opts)
    return reach_step(family, models_y, regions, input_set, noise, opts=opts)


def _correct_family(family: ReachFamily, readings, sensors, method, alpha):
    """Per-mode measurement update, re-unioned across nonempty modes, with
    the largest RM null-space extent over the modes (None unless RM)."""
    pieces = []
    rm_bound = None
    for i in range(len(family.per_mode)):
        if family.empty[i]:
            continue
        pred = family.per_mode[i]
        if method == "rm":
            M = rm_bound_policy(pred)
            rm_bound = M if rm_bound is None else max(rm_bound, M)
            corrected = update_rm(pred, readings, sensors, M)
        elif method == "in":
            corrected = update_in(pred, readings, sensors, alpha)
        else:
            corrected = update_gi(pred, readings, sensors)
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
    if method != "all" and method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stream = list(stream)
    if N is None:
        N = len(stream) - 1
    if len(stream) < N + 1:
        raise ValueError("stream shorter than the requested horizon")
    methods = METHODS if method == "all" else (method,)
    reference = "gi" if method == "all" else method

    steps = []
    family = make_family(0, as_hybrid(x0_set), regions, opts)
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
        steps.append(StepEstimate(step=k, corrected=corrected, rm_bound=rm_bound))
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
    return EstimationRun(steps=steps)


def equivalence_report(
    set_a: HybridZonotope,
    set_b: HybridZonotope,
    directions: int = 32,
    tol: float = 1e-7,
    *,
    num_samples: int = 50,
    opts: ReachOptions = ReachOptions(),
) -> EquivalenceReport:
    """Support gap over spread directions plus mutual sample containment,
    set_a sampled with seed 0 and set_b with seed 1.

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
    a_pts = oracle.sample(set_a, num_samples, 0)
    b_pts = oracle.sample(set_b, num_samples, 1)
    a_in_b = sum(oracle.membership(set_b, x, tol) for x in a_pts)
    b_in_a = sum(oracle.membership(set_a, x, tol) for x in b_pts)
    return EquivalenceReport(
        max_gap=float(max_gap),
        num_directions=len(dirs),
        a_in_b=int(a_in_b),
        b_in_a=int(b_in_a),
        num_samples=num_samples,
    )


def _spread_directions(dim: int, count: int) -> np.ndarray:
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.default_rng(count)
    d = rng.normal(size=(count, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)
