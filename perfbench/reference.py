"""Computations the benchmark checks the program against, posed here in scipy.

Nothing in this file calls hzreach: the simulator, the support function and
the membership test work on the raw matrices of a set, so a fault in the
package's oracle or LP layer cannot hide itself by agreeing with itself.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

# Leaf enumeration up to this many binaries (2**7 = 128 LPs), a MILP beyond.
ENUMERATION_MAX_BINARIES = 7


def draw(rng, center, generators) -> np.ndarray:
    """Uniform draw of the zonotope's factors, mapped to a point."""
    generators = np.asarray(generators, dtype=float)
    return center + generators @ rng.uniform(-1.0, 1.0, generators.shape[1])


def mode_of(x, regions) -> int:
    """Lowest region index whose closed polyhedron holds x."""
    for i, (L, rho) in enumerate(regions):
        if L.shape[0] == 0 or np.all(L @ x <= rho + 1e-9):
            return i
    raise ValueError(f"state {x} lies in no region")


def pwa_next(x, u, w, modes, regions) -> np.ndarray:
    A, B = modes[mode_of(x, regions)]
    return A @ x + B @ u + w


def rollouts(rng, modes, regions, x0_box, u_box, w_box, count, steps) -> np.ndarray:
    """True trajectories of the known PWA system, shape (steps+1, count, n).

    Each box is (center, generators).  A quarter of the draws sit on a
    vertex of the factor box (inputs and noise included), where an
    over-approximation is tightest; the rest are uniform.
    """
    def factors(box, vertex):
        g = np.asarray(box[1]).shape[1]
        if vertex:
            return rng.choice((-1.0, 1.0), size=g)
        return rng.uniform(-1.0, 1.0, g)

    n = np.asarray(x0_box[0]).size
    out = np.zeros((steps + 1, count, n))
    for t in range(count):
        vertex = t % 4 == 0
        x = x0_box[0] + np.asarray(x0_box[1]) @ factors(x0_box, vertex)
        out[0, t] = x
        for k in range(steps):
            u = u_box[0] + np.asarray(u_box[1]) @ factors(u_box, vertex)
            w = w_box[0] + np.asarray(w_box[1]) @ factors(w_box, vertex)
            x = pwa_next(x, u, w, modes, regions)
            out[k + 1, t] = x
    return out


def _leaf_max(g, Ac, rhs) -> float | None:
    """max g @ xi over { |xi|_inf <= 1, Ac xi = rhs }, None when infeasible."""
    if Ac.shape[0] == 0:
        return float(np.abs(g).sum())
    res = linprog(-g, A_eq=Ac, b_eq=rhs, bounds=(-1.0, 1.0), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


def support(z, d) -> float:
    """max d @ x over the hybrid zonotope z; -inf when z is empty.

    Brute-force leaf enumeration for at most ENUMERATION_MAX_BINARIES
    binaries, otherwise one MILP with the binaries as {0,1} integers.
    """
    d = np.asarray(d, dtype=float)
    g = d @ z.Gc
    if z.nb <= ENUMERATION_MAX_BINARIES:
        best = -np.inf
        for bits in itertools.product((-1.0, 1.0), repeat=z.nb):
            xb = np.array(bits)
            value = _leaf_max(g, z.Ac, z.b - z.Ab @ xb)
            if value is not None:
                best = max(best, value + float(d @ (z.c + z.Gb @ xb)))
        return best
    # xb = 2 s - 1 with s in {0, 1}.
    gb = d @ z.Gb
    cost = -np.concatenate([g, 2.0 * gb])
    A = np.hstack([z.Ac, 2.0 * z.Ab])
    rhs = z.b + z.Ab.sum(axis=1)
    integrality = np.concatenate([np.zeros(z.ng), np.ones(z.nb)])
    lb = np.concatenate([-np.ones(z.ng), np.zeros(z.nb)])
    ub = np.ones(z.ng + z.nb)
    res = milp(
        cost,
        constraints=[LinearConstraint(A, rhs, rhs)],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"mip_rel_gap": 1e-12},
    )
    if res.status == 2:
        return -np.inf
    if res.status != 0:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    return float(-res.fun + d @ z.c - gb.sum())


def violation(z, x) -> float:
    """Least uniform residual t with x = c + Gc xi, Ac xi = b, |xi| <= 1.

    Only for sets without binaries.  A member of z has t at rounding level.
    """
    if z.nb:
        raise ValueError("violation() takes sets without binary factors")
    E = np.vstack([z.Gc, z.Ac])
    r = np.concatenate([np.asarray(x, dtype=float) - z.c, z.b])
    m, ng = E.shape
    ones = np.ones((m, 1))
    # Variables (xi, t): minimize t subject to -t <= E xi - r <= t.
    A_ub = np.vstack([np.hstack([E, -ones]), np.hstack([-E, -ones])])
    b_ub = np.concatenate([r, -r])
    cost = np.zeros(ng + 1)
    cost[-1] = 1.0
    bounds = [(-1.0, 1.0)] * ng + [(0.0, None)]
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])
