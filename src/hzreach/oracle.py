"""Exact semantic queries on hybrid zonotopes.

Fixing the binary factors of a hybrid zonotope leaves a constrained
zonotope ("leaf").  The first query that needs them finds the set's
feasible binary assignments and stores them on the set, one list per
set in enumeration order; the set's arrays are read-only, so the list
stays valid for the set's lifetime.  Every query then works over that
list: support takes the best leaf optimum, membership asks whether some
leaf reproduces the point, sampling draws from the leaves.

A set built by :mod:`hzreach.setops` from operands with known leaves
carries candidate assignments, a superset of its feasible leaves in
enumeration order; the oracle checks only those, behind a cheap row
prescreen, and skips the leading rows already verified (see setops).
The search runs only for sets without candidates: those built directly
(from a configuration, `from_dict`, the measurement updates) or from an
operand with binaries whose leaves are unknown.  Up to ``enum_limit``
binaries it enumerates all assignments behind the same prescreen; above
it, a depth-first search drops a branch once the LP relaxation of its
free binaries is infeasible.  All three keep exactly the leaves that
pass one feasibility LP without slack.  The prescreen drops a row only
when it is out of the factor box's reach by more than 1e-6, well above
HiGHS's 1e-7 tolerance, so it never prunes what the LP would keep.  A
set without binaries has a single leaf, which support and membership
solve directly: an infeasible leaf makes their LP infeasible, so no
separate feasibility pass is needed.

Each set also holds one leaf store, filled as queries need it and kept
for the set's lifetime:

* per set, ``pinv([Gc; Ac])`` for membership and ``pinv(Ac)`` for the
  sampler; both are the same for every leaf, since binaries only shift
  the right-hand side;
* per leaf, its interior anchor (the factor point farthest from the box
  walls, one LP) and every ``(direction, value)`` support solved on it.

Membership tries a witness before any LP.  With P = pinv(A) and the
leaf's right-hand side r, it checks the least-norm factors ``P r``, the
anchor a moved onto the affine set, ``a + P (r - A a)``, and the midpoint
of the segment between the two that lies in the box.  A candidate
certifies x when ``|xi|_inf <= 1`` and every row of ``A xi - r`` is within
tol: that is the membership contract itself.  Otherwise the slack LP
decides, so a False always comes from an LP.

A support query reads a direction already solved on a leaf instead of
solving it again.  On a set with two or more leaves, its first query
also solves each leaf's ``+-e_k`` supports, which give the leaf's
bounding box B_k.  Support functions are sublinear and the leaf lies in
B_k, so every stored pair ``(d_j, h_k(d_j))`` bounds the leaf in a new
direction d:

    h_k(d) <= U_k(d) = min(h_Bk(d), min_j [h_k(d_j) + h_Bk(d - d_j)]).

A query visits the leaves in descending U_k and stops solving once
``U_k < best - 1e-9 (1 + |best|)``.  The margin covers the LP round-off
(on the benchmark_pwa reach sets, with every leaf solved in 64
directions, no value exceeds its bound by more than 2e-15), so the leaf
that attains the maximum is always solved and the answer is bitwise the
maximum over all leaves.

Worker threads may query one set at once.  Each write to the store is a
single assignment or list append, so the worst a race does is compute a
value twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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


def _prescreen(z: HybridZonotope, S: np.ndarray) -> np.ndarray:
    """Necessary feasibility: |b - Ab xb| per row within reach of Ac's box image.

    The 1e-6 margin keeps rows that the LP, at HiGHS's 1e-7 tolerance,
    may still call feasible.
    """
    if z.nc == 0:
        return np.ones(S.shape[0], dtype=bool)
    rhs = z.b[None, :] - S @ z.Ab.T
    cap = np.abs(z.Ac).sum(axis=1)
    return np.all(np.abs(rhs) <= cap[None, :] + 1e-6, axis=1)


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
        # well scaled.  lp solves this feasibility LP without presolve,
        # which has called such systems infeasible for a tol below HiGHS's
        # 1e-7 tolerance although the system without slack was feasible.
        A = np.hstack([A, np.eye(m)])
        lb = np.concatenate([lb, -tol * np.ones(m)])
        ub = np.concatenate([ub, tol * np.ones(m)])
    return lp.solve_box_lp(np.zeros(A.shape[1]), A, rhs, lb, ub)


def _find_leaves(z: HybridZonotope, enum_limit, limit) -> list:
    """Feasible assignments, at most `limit` of them, in enumeration order.

    Candidates already checked are not checked again, and a search that
    stops at `limit` leaves its progress on z.
    """
    found, start = [], 0
    if z._candidates is not None:
        S = z._candidates
        checked = z._checked
        if checked is not None:
            found, start = list(checked[0]), checked[1]
    elif z.nb > (_ENUM_LIMIT if enum_limit is None else enum_limit):
        return _dfs_assignments(z, limit)
    else:
        S = _all_assignments(z.nb)
    if limit is not None and len(found) >= limit:
        return found[:limit]
    rest = S[start:]
    for i in np.flatnonzero(_prescreen(z, rest)):
        if _leaf_feasible(z, rest[i]):
            found.append(rest[i])
            if len(found) == limit:
                if z._candidates is not None:
                    rows = np.array(found).reshape(len(found), z.nb)
                    object.__setattr__(z, "_checked", (rows, int(start + i + 1)))
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
    store = _store(z)
    A = np.vstack([z.Gc, z.Ac])
    leaves = _query_leaves(z, bin_cap, enum_limit)
    rhs = [np.concatenate([x - z.c - z.Gb @ xb, z.b - z.Ab @ xb]) for xb in leaves]
    for k, xb in enumerate(leaves):
        if store.witness(z, k, xb, A, rhs[k], tol):
            return True
    return any(_feasibility_lp(A, r, tol).optimal for r in rhs)


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
    return _store(z).support(z, d, _query_leaves(z, bin_cap, enum_limit))


def _leaf_support(z: HybridZonotope, d: np.ndarray, xb: np.ndarray) -> float:
    """Support of the leaf xb in direction d; -inf without an optimum."""
    res = lp.solve_box_lp(
        d @ z.Gc, z.Ac, z.b - z.Ab @ xb, -np.ones(z.ng), np.ones(z.ng)
    )
    if not res.optimal:
        return -np.inf
    return res.value + float(d @ (z.c + z.Gb @ xb))


def _store(z: HybridZonotope) -> "_LeafStore":
    store = z._store
    if store is None:
        store = _LeafStore()
        object.__setattr__(z, "_store", store)
    return store


def _fits(A: np.ndarray, rhs: np.ndarray, xi: np.ndarray, tol: float) -> bool:
    """The membership contract: xi in the box, each row of A xi = rhs within tol."""
    return (
        np.abs(xi).max(initial=0.0) <= 1.0
        and np.abs(A @ xi - rhs).max(initial=0.0) <= tol
    )


class _LeafStore:
    """What the oracle has solved on one set; see the module docstring.

    Leaves are indexed by their position in the set's leaf list.  `pairs`
    holds (leaf, direction, value) triples, the value being -inf where
    the leaf LP found no optimum; `box` holds the leaves' bounding boxes
    once a support query on two or more leaves has solved them.
    """

    def __init__(self):
        self.member_pinv = None
        self.sample_pinv = None
        self.anchors = {}
        self.pairs = []
        self.box = None

    def anchor(self, z: HybridZonotope, k: int, xb: np.ndarray) -> np.ndarray:
        a = self.anchors.get(k)
        if a is None:
            a = _leaf_anchor(leaf_problem(z, xb)) if z.ng else np.zeros(0)
            self.anchors[k] = a
        return a

    def witness(self, z, k, xb, A, rhs, tol) -> bool:
        """True if an explicit factor vector shows that leaf k reproduces rhs."""
        if self.member_pinv is None:
            self.member_pinv = np.linalg.pinv(A)
        P = self.member_pinv
        xi = P @ rhs
        if _fits(A, rhs, xi, tol):
            return True
        try:
            a = self.anchor(z, k, xb)
        except (EmptySetError, lp.LPError):
            return False  # no anchor: the slack LP decides
        xi_a = a + P @ (rhs - A @ a)
        if _fits(A, rhs, xi_a, tol):
            return True
        # Both ends solve A xi = A P rhs, and so does every point between
        # them; try the middle of the stretch of the line inside the box.
        step = xi_a - xi
        moving = step != 0.0
        if not moving.any() or np.any(np.abs(xi[~moving]) > 1.0):
            return False
        ends = np.stack([-1.0 - xi[moving], 1.0 - xi[moving]]) / step[moving]
        lo, hi = ends.min(axis=0).max(), ends.max(axis=0).min()
        return bool(lo <= hi) and _fits(A, rhs, xi + 0.5 * (lo + hi) * step, tol)

    def _solve_boxes(self, z: HybridZonotope, leaves: list) -> tuple:
        """Each leaf's bounding box from its +-e_k supports, stored as pairs."""
        h = []
        for k, xb in enumerate(leaves):
            for e in np.eye(z.dim):
                for d in (e, -e):
                    h.append(_leaf_support(z, d, xb))
                    self.pairs.append((k, d, h[-1]))
        h = np.array(h).reshape(len(leaves), -1)
        hi, lo = h[:, 0::2], -h[:, 1::2]
        # A leaf without a finite box is never skipped.
        boxed = np.isfinite(h).all(axis=1)
        hi[~boxed] = 0.0
        lo[~boxed] = 0.0
        return hi, lo, boxed

    def support(self, z: HybridZonotope, d: np.ndarray, leaves: list) -> float:
        # A leaf is only ever skipped in favour of another, so a single
        # leaf needs no box.
        if len(leaves) > 1 and self.box is None:
            self.box = self._solve_boxes(z, leaves)
        box = self.box
        pairs = self.pairs[:]
        K = np.array([k for k, _, _ in pairs], dtype=int)
        D = np.array([dj for _, dj, _ in pairs]).reshape(len(pairs), z.dim)
        H = np.array([value for _, _, value in pairs])
        hit = np.all(D == d, axis=1)
        solved = set(K[hit].tolist())
        best = float(H[hit].max()) if solved else -np.inf

        bound = np.full(len(leaves), np.inf)
        if box is not None:
            hi, lo, boxed = box

            def box_support(V, rows):
                """h_Bk(v) for each row v of V, with k the matching entry of rows."""
                pos, neg = np.maximum(V, 0.0), np.minimum(V, 0.0)
                return (pos * hi[rows] + neg * lo[rows]).sum(axis=-1)

            bound = box_support(np.broadcast_to(d, hi.shape), slice(None))
            use = ~hit & np.isfinite(H)
            via = H[use] + box_support(d - D[use], K[use])
            np.minimum.at(bound, K[use], via)
            bound[~boxed] = np.inf

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

    The first call finds them all and stores them on z: by checking z's
    candidates when a set operation attached them, else by a search where
    `enum_limit` only chooses how (enumeration up to that many binaries,
    DFS above).
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
    store = _store(z)
    if z.nc and z.ng and store.sample_pinv is None:
        store.sample_pinv = np.linalg.pinv(z.Ac)
    pinv = store.sample_pinv
    leaves = [
        (leaf_problem(z, xb), pinv, store.anchor(z, k, xb))
        for k, xb in enumerate(assignments)
    ]

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
    # max t subject to |xi_k| + t <= 1, as rows of the same model that
    # lie open below (lhs = -inf), before the leaf's equations.
    c = np.zeros(ng + 1)
    c[-1] = -1.0
    A = np.vstack(
        [
            np.hstack([np.eye(ng), np.ones((ng, 1))]),
            np.hstack([-np.eye(ng), np.ones((ng, 1))]),
            np.hstack([leaf.con_matrix, np.zeros((leaf.con_matrix.shape[0], 1))]),
        ]
    )
    lhs = np.concatenate([np.full(2 * ng, -np.inf), leaf.con_rhs])
    rhs = np.concatenate([np.ones(2 * ng), leaf.con_rhs])
    lb = np.concatenate([-np.ones(ng), [0.0]])
    res = lp._highs(c, A, lhs, rhs, lb, np.ones(ng + 1), lp._DEFAULT)
    if res.status == 2:
        raise EmptySetError("leaf became infeasible while anchoring")
    if res.status != 0:
        raise lp.LPError(f"HiGHS failed while anchoring: {res.message}")
    return res.x[:ng]


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
