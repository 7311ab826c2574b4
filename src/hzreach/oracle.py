"""Exact semantic queries on hybrid zonotopes.

Fixing the binary factors of a hybrid zonotope leaves a constrained
zonotope ("leaf").  The first query that needs them finds the set's
feasible binary assignments and stores them on the set, one list per
set in enumeration order; the set's arrays are read-only, so the list
stays valid for the set's lifetime.  Every query then loops HiGHS LPs
over that list: support takes the best leaf optimum, membership asks
whether some leaf reproduces the point, sampling draws from the leaves.

Up to ``enum_limit`` binaries the leaves are found by enumerating all
assignments behind a cheap row prescreen; above it by a depth-first
search that drops a branch once the LP relaxation of its free binaries
is infeasible.  Both keep exactly the leaves that pass one feasibility
LP without slack.  A set without binaries has a single leaf, which
support and membership solve directly: an infeasible leaf makes their
LP infeasible, so no separate feasibility pass is needed.

A set with two or more leaves also stores every leaf support it has
solved.  Its first support query (or interval hull) solves each leaf's
``+-e_k`` supports, which give the leaf's bounding box B_k.  Support
functions are sublinear and the leaf lies in B_k, so every stored pair
``(d_j, h_k(d_j))`` bounds the leaf in a new direction d:

    h_k(d) <= U_k(d) = min(h_Bk(d), min_j [h_k(d_j) + h_Bk(d - d_j)]).

A query visits the leaves in descending U_k and stops solving once
``U_k < best - 1e-9 (1 + |best|)``; a direction already stored for a
leaf is read, not solved.  The margin covers the LP round-off (on the
benchmark_pwa reach sets, with every leaf solved in 64 directions, no
value exceeds its bound by more than 2e-15), so the leaf that attains
the maximum is always solved and the answer is bitwise the maximum over
all leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import lp
from .setops import HybridZonotope, MatrixZonotope

DEFAULT_BIN_CAP = 20
_ENUM_LIMIT = 10  # exhaustive enumeration up to 2**_ENUM_LIMIT leaves


class EmptySetError(ValueError):
    """Raised when a query needs a nonempty set."""


class EnumerationCapError(RuntimeError):
    """Raised when a set has more binary factors than the configured cap."""


@dataclass(frozen=True)
class LeafProblem:
    """Constrained zonotope obtained by fixing the binary factors."""

    generators: np.ndarray
    center: np.ndarray
    con_matrix: np.ndarray
    con_rhs: np.ndarray
    assignment: np.ndarray


def leaf_problem(z: HybridZonotope, assignment) -> LeafProblem:
    xb = np.asarray(assignment, dtype=float).ravel()
    if xb.size != z.nb:
        raise ValueError("assignment length must equal the binary factor count")
    return LeafProblem(
        generators=z.Gc,
        center=z.c + z.Gb @ xb,
        con_matrix=z.Ac,
        con_rhs=z.b - z.Ab @ xb,
        assignment=xb,
    )


def _check_cap(z: HybridZonotope, bin_cap: int) -> None:
    if z.nb > bin_cap:
        raise EnumerationCapError(
            f"set has {z.nb} binary factors, cap is {bin_cap}"
        )


def _all_assignments(nb: int) -> np.ndarray:
    if nb == 0:
        return np.zeros((1, 0))
    return np.array(list(itertools.product((1.0, -1.0), repeat=nb)))


def _prescreen(z: HybridZonotope, S: np.ndarray, tol: float) -> np.ndarray:
    """Necessary feasibility: |b - Ab xb| per row within reach of Ac's box image."""
    if z.nc == 0:
        return np.ones(S.shape[0], dtype=bool)
    rhs = z.b[None, :] - S @ z.Ab.T
    cap = np.abs(z.Ac).sum(axis=1)
    return np.all(np.abs(rhs) <= cap[None, :] + tol + 1e-12, axis=1)


def _leaf_feasible(z, xb) -> bool:
    if z.nc == 0:
        return True
    return _feasibility_lp(z.Ac, z.b - z.Ab @ xb, 0.0).optimal


def _feasibility_lp(A, rhs, tol) -> lp.LPResult:
    """Box feasibility of A @ xi = rhs, allowing a per-row residual of tol."""
    m, n = A.shape
    lb = -np.ones(n)
    ub = np.ones(n)
    if tol > 0.0 and m > 0:
        # Unit-coefficient slack columns bounded by +-tol keep the system
        # well scaled.  HiGHS's presolve calls some such systems infeasible
        # when tol is below its 1e-7 feasibility tolerance, although the
        # system without slack, a subset, is feasible; so it is skipped.
        A = np.hstack([A, np.eye(m)])
        lb = np.concatenate([lb, -tol * np.ones(m)])
        ub = np.concatenate([ub, tol * np.ones(m)])
        return lp.solve_box_lp(np.zeros(n + m), A, rhs, lb, ub, presolve=False)
    return lp.solve_box_lp(np.zeros(n), A, rhs, lb, ub)


def _find_leaves(z: HybridZonotope, enum_limit, limit) -> list:
    """Feasible assignments, at most `limit` of them, in enumeration order."""
    if z.nb > (_ENUM_LIMIT if enum_limit is None else enum_limit):
        return _dfs_assignments(z, limit)
    S = _all_assignments(z.nb)
    found = []
    for xb in S[_prescreen(z, S, 0.0)]:
        if _leaf_feasible(z, xb):
            found.append(xb)
            if len(found) == limit:
                break
    return found


def _store_leaves(z: HybridZonotope, found: list) -> None:
    leaves = np.array(found, dtype=float).reshape(len(found), z.nb)
    leaves.flags.writeable = False
    object.__setattr__(z, "_leaves", leaves)


def _query_leaves(z: HybridZonotope, bin_cap: int, enum_limit) -> list:
    """Assignments a support or membership query solves its LP over."""
    if z.nb == 0 and z._leaves is None:
        return [np.zeros(0)]
    return feasible_assignments(z, bin_cap=bin_cap, enum_limit=enum_limit)


def membership(
    z: HybridZonotope,
    x,
    tol: float = 1e-9,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    enum_limit: int | None = None,
) -> bool:
    """True iff some feasible leaf admits in-box factors reproducing x.

    Both the generator equations and the constraint rows may be violated
    by at most tol per row.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != z.dim:
        raise ValueError("point dimension does not match the set")
    _check_cap(z, bin_cap)
    A = np.vstack([z.Gc, z.Ac])
    for xb in _query_leaves(z, bin_cap, enum_limit):
        rhs = np.concatenate([x - z.c - z.Gb @ xb, z.b - z.Ab @ xb])
        if _feasibility_lp(A, rhs, tol).optimal:
            return True
    return False


def support(
    z: HybridZonotope,
    d,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    enum_limit: int | None = None,
) -> float:
    """max_{x in z} d @ x, or -inf when the set is empty."""
    d = np.asarray(d, dtype=float).ravel()
    if d.size != z.dim:
        raise ValueError("direction dimension does not match the set")
    if not np.any(d):
        raise ValueError("support direction must be nonzero")
    _check_cap(z, bin_cap)
    if z.nc == 0:
        # Unconstrained factors decouple; closed form.
        return float(d @ z.c + np.abs(d @ z.Gc).sum() + np.abs(d @ z.Gb).sum())
    leaves = _query_leaves(z, bin_cap, enum_limit)
    if len(leaves) > 1:
        if z._supports is None:
            object.__setattr__(z, "_supports", _LeafSupports(z, leaves))
        return z._supports.support(z, d, leaves)
    return max((_leaf_support(z, d, xb) for xb in leaves), default=-np.inf)


def _leaf_support(z: HybridZonotope, d: np.ndarray, xb: np.ndarray) -> float:
    """Support of the leaf xb in direction d; -inf without an optimum."""
    res = lp.solve_box_lp(
        d @ z.Gc, z.Ac, z.b - z.Ab @ xb, -np.ones(z.ng), np.ones(z.ng)
    )
    if not res.optimal:
        return -np.inf
    return res.value + float(d @ (z.c + z.Gb @ xb))


class _LeafSupports:
    """Leaf supports solved on one set, and the bounds they give.

    `pairs` holds (leaf index, direction, value) triples, the value being
    -inf where the leaf LP found no optimum.  Worker threads may append
    while others read: a list append is atomic, and a reader that misses
    a recent triple only gets a looser bound.
    """

    def __init__(self, z: HybridZonotope, leaves: list):
        self.pairs = []
        for k, xb in enumerate(leaves):
            for e in np.eye(z.dim):
                for d in (e, -e):
                    self.pairs.append((k, d, _leaf_support(z, d, xb)))
        h = np.array([value for _, _, value in self.pairs]).reshape(len(leaves), -1)
        self.hi, self.lo = h[:, 0::2], -h[:, 1::2]
        # A leaf without a finite box is never skipped.
        self.boxed = np.isfinite(h).all(axis=1)
        self.hi[~self.boxed] = 0.0
        self.lo[~self.boxed] = 0.0

    def _box_support(self, V: np.ndarray, rows) -> np.ndarray:
        """h_Bk(v) for each row v of V, with k the matching entry of rows."""
        return (
            np.maximum(V, 0.0) * self.hi[rows] + np.minimum(V, 0.0) * self.lo[rows]
        ).sum(axis=-1)

    def support(self, z: HybridZonotope, d: np.ndarray, leaves: list) -> float:
        pairs = self.pairs[:]
        K = np.array([k for k, _, _ in pairs])
        D = np.array([dj for _, dj, _ in pairs])
        H = np.array([value for _, _, value in pairs])
        hit = np.all(D == d, axis=1)
        solved = set(K[hit].tolist())
        best = float(H[hit].max()) if solved else -np.inf

        bound = self._box_support(np.broadcast_to(d, self.hi.shape), slice(None))
        use = ~hit & np.isfinite(H)
        via = H[use] + self._box_support(d - D[use], K[use])
        np.minimum.at(bound, K[use], via)
        bound[~self.boxed] = np.inf

        for k in np.argsort(-bound, kind="stable"):
            if k in solved:
                continue
            if bound[k] < best - 1e-9 * (1.0 + abs(best)):
                break
            h = _leaf_support(z, d, leaves[k])
            self.pairs.append((int(k), d.copy(), h))
            best = max(best, h)
        return best


def interval_hull(
    z: HybridZonotope,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    enum_limit: int | None = None,
):
    """Componentwise (lower, upper) bounds; raises EmptySetError when empty."""
    lower = np.zeros(z.dim)
    upper = np.zeros(z.dim)
    for k in range(z.dim):
        e = np.zeros(z.dim)
        e[k] = 1.0
        hi = support(z, e, bin_cap=bin_cap, enum_limit=enum_limit)
        if hi == -np.inf:
            raise EmptySetError("interval hull of an empty set")
        lower[k] = -support(z, -e, bin_cap=bin_cap, enum_limit=enum_limit)
        upper[k] = hi
    return lower, upper


def is_empty(
    z: HybridZonotope,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    enum_limit: int | None = None,
) -> bool:
    """True iff no leaf is feasible.

    Without a stored list the search stops at the first feasible leaf;
    its result is stored when it is the whole list (no leaf, or the single
    leaf of a set without binaries).
    """
    _check_cap(z, bin_cap)
    if z.nc == 0:
        return False
    if z._leaves is None:
        found = _find_leaves(z, enum_limit, 1)
        if not found or z.nb == 0:
            _store_leaves(z, found)
        return not found
    return len(z._leaves) == 0


def feasible_assignments(
    z: HybridZonotope,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    limit: int | None = None,
    enum_limit: int | None = None,
) -> list:
    """Binary assignments whose leaf is feasible, in enumeration order.

    The first call finds them all and stores them on z; `enum_limit`
    only chooses how (enumeration up to that many binaries, DFS above).
    """
    _check_cap(z, bin_cap)
    if z._leaves is None:
        _store_leaves(z, _find_leaves(z, enum_limit, None))
    return list(z._leaves[:limit])


def _dfs_assignments(z, limit) -> list:
    """Relaxation-pruned DFS over binaries, newest factor first.

    Returns the assignments in enumeration order.
    """
    found: list = []
    order = list(range(z.nb - 1, -1, -1))

    def relax_feasible(fixed: dict) -> bool:
        free = [i for i in range(z.nb) if i not in fixed]
        rhs = z.b.copy()
        for i, v in fixed.items():
            rhs = rhs - z.Ab[:, i] * v
        A = np.hstack([z.Ac, z.Ab[:, free]]) if free else z.Ac
        return _feasibility_lp(A, rhs, 0.0).optimal

    def rec(depth: int, fixed: dict) -> bool:
        if limit is not None and len(found) >= limit:
            return True
        if not relax_feasible(fixed):
            return False
        if depth == z.nb:
            xb = np.zeros(z.nb)
            for i, v in fixed.items():
                xb[i] = v
            found.append(xb)
            return limit is not None and len(found) >= limit
        idx = order[depth]
        for v in (1.0, -1.0):
            fixed[idx] = v
            if rec(depth + 1, fixed):
                del fixed[idx]
                return True
            del fixed[idx]
        return False

    rec(0, {})
    found.sort(key=lambda xb: tuple(-xb))
    return found


def enumerate_leaves(z: HybridZonotope, **kwargs) -> list:
    """Feasible leaves as LeafProblem instances."""
    return [leaf_problem(z, xb) for xb in feasible_assignments(z, **kwargs)]


def sample(
    z: HybridZonotope,
    count: int,
    seed: int,
    *,
    bin_cap: int = DEFAULT_BIN_CAP,
    max_leaves: int = 64,
    enum_limit: int | None = None,
) -> np.ndarray:
    """Deterministic members of z, shape (count, dim).

    Per draw: pick a feasible leaf, draw factors uniformly in the box,
    apply the least-norm correction onto the leaf's affine constraint
    set, and if that leaves the box, shrink toward a strictly interior
    anchor of the leaf.  Every output passes membership at 1e-7.
    """
    _check_cap(z, bin_cap)
    assignments = feasible_assignments(
        z, bin_cap=bin_cap, limit=max_leaves, enum_limit=enum_limit
    )
    if not assignments:
        raise EmptySetError("cannot sample from an empty set")
    leaves = []
    for xb in assignments:
        leaf = leaf_problem(z, xb)
        pinv = np.linalg.pinv(leaf.con_matrix) if z.nc and z.ng else None
        anchor = _leaf_anchor(leaf) if z.ng else np.zeros(0)
        leaves.append((leaf, pinv, anchor))

    out = np.zeros((count, z.dim))
    children = np.random.SeedSequence(seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(children[i])
        leaf, pinv, anchor = leaves[int(rng.integers(len(leaves)))]
        if z.ng == 0:
            out[i] = leaf.center
            continue
        xi = rng.uniform(-1.0, 1.0, z.ng)
        if pinv is not None:
            xi = xi - pinv @ (leaf.con_matrix @ xi - leaf.con_rhs)
        overshoot = np.abs(xi).max()
        if overshoot > 1.0:
            step = xi - anchor
            t = 1.0
            for k in np.flatnonzero(np.abs(step) > 1e-14):
                bound = 1.0 if step[k] > 0 else -1.0
                t = min(t, (bound - anchor[k]) / step[k])
            xi = anchor + max(t, 0.0) * step
        xi = np.clip(xi, -1.0, 1.0)
        out[i] = leaf.center + leaf.generators @ xi
    return out


def _leaf_anchor(leaf: LeafProblem) -> np.ndarray:
    """Point of the leaf's factor polytope maximizing distance to the box walls."""
    ng = leaf.generators.shape[1]
    if leaf.con_matrix.shape[0] == 0:
        return np.zeros(ng)
    c = np.zeros(ng + 1)
    c[-1] = -1.0
    A_ub = np.vstack(
        [
            np.hstack([np.eye(ng), np.ones((ng, 1))]),
            np.hstack([-np.eye(ng), np.ones((ng, 1))]),
        ]
    )
    b_ub = np.ones(2 * ng)
    A_eq = np.hstack([leaf.con_matrix, np.zeros((leaf.con_matrix.shape[0], 1))])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=leaf.con_rhs,
        bounds=[(-1.0, 1.0)] * ng + [(0.0, 1.0)],
        method="highs",
    )
    if res.status != 0:
        raise EmptySetError("leaf became infeasible while anchoring")
    return np.asarray(res.x[:ng])


def matrix_membership(M: MatrixZonotope, X, tol: float = 1e-9) -> bool:
    """True iff X = center + sum_j beta_j G_j for some |beta|_inf <= 1."""
    X = np.asarray(X, dtype=float)
    if X.shape != M.shape:
        raise ValueError("candidate matrix shape does not match the set")
    if M.num_generators == 0:
        return bool(np.all(np.abs(X - M.center) <= tol))
    A = np.column_stack([G.ravel() for G in M.generators])
    rhs = (X - M.center).ravel()
    return _feasibility_lp(A, rhs, tol).optimal
