"""Exact semantic queries on hybrid zonotopes.

Fixing the binary factors of a hybrid zonotope leaves a constrained
zonotope ("leaf").  Each set carries one leaf record, ``(rows,
verified)``: candidate assignments in enumeration order (lexicographic,
+1 before -1) that include every feasible leaf, the first `verified` of
them checked leaves.  The set's arrays are read-only, so the record
stays valid for the set's lifetime.  The first query that needs leaves
checks rows until it has enough; every query then works over the
verified rows: support takes the best leaf optimum, membership asks
whether some leaf reproduces the point, sampling draws from the leaves.

:mod:`hzreach.setops` owns the rows: a set built by `setops` or
:mod:`hzreach.estimate` carries rows computed from its operands'
records, and a set built directly (from a configuration, `from_dict`)
gets the rows of a search without an LP on first need: binaries are
fixed newest first, and a prefix is dropped once some constraint row is
out of reach of the factor box and the free binaries by more than the
prescreen's margin (below).  A full assignment that passes the
prescreen passes it on every prefix (the free binaries reach at least
what the assignment fixes there), so the search drops only what the
prescreen drops.  A set without binaries gets the single candidate
``[]``.  The oracle only checks rows.

The candidates are checked in order, each behind a cheap row prescreen
that drops a row only when it is out of the factor box's reach by more
than 1e-6, well above HiGHS's 1e-7 tolerance, so it never prunes what the
LP would keep.  One rule decides a candidate of a set with constraint
rows: it is a feasible leaf iff its ``+e_1`` support LP, solved cold,
has an optimum.  The candidate that passes becomes the next leaf, and
that LP its home (see below), which the leaf's support queries need
first anyway; a candidate that fails stores nothing.  The verdict is
that of `lp`'s objective-LP policy (a tight solve, re-solved at the
default tolerance on any other verdict), so a feasible leaf is never
dropped for the tight tolerance alone; in a set without a dimension,
+e_1 is the empty vector, and `lp` solves its LP as a feasibility LP.
A check that stops early (an emptiness test stops at the first leaf)
records the leaves found, then the rows it has not checked.  The oracle
puts no limit on the binary count; the reachability loop refuses sets
above its cap (see `hzreach.reach.make_family`).

A Cartesian product answers support from its two factors, which
`setops.cartesian_product` records on it:

    h_{A x B}(d1, d2) = h_A(d1) + h_B(d2),

where h_A(0) is 0 for a nonempty A and -inf for an empty one.  Proof: the
product's leaves are the pairs (a, b) of a leaf of A and a leaf of B,
and its constraints are block-diagonal, so the LP of leaf (a, b) in
direction (d1, d2) separates into leaf a's LP in d1 plus leaf b's in d2,
and is infeasible iff either is.  The maximum over all pairs of a sum of
two independent terms is the sum of the two maxima, and an empty factor
leaves no pair.  Each factor's own leaf store then answers what it has
already solved: in estimation, the time update's hull of ``corrected x
u`` reads the corrected set's stored supports and stored emptiness.  A
factor that is a point (the estimation input u) adds no LP column, and
in a hull direction +-e_k it adds an exact ``0 u`` or ``+-u_k``, so the
hull is bitwise the direct product LP's.  (In a general direction the
two ways sum the dot products in another order, and may differ in the
last bit.)  A product without constraint rows keeps the closed form.

A union answers support from the operands that `setops.union` records
on it (flattened, so a fold over n sets records those n sets):

    h_{A u B}(d) = max(h_A(d), h_B(d)).

Proof: `setops.union` shows that the union's feasible leaves are the
operands' feasible leaves, each with the other operand pinned, and that
such a leaf reaches exactly the points of its operand's leaf; so the
maximum over the union's leaves is the maximum over both operands'
leaves, and an empty operand adds none.  An operand's leaf LP has no
pinned columns and no switched rows, so it is about half the size of
the union's: at step 5 of the benchmark_pwa reach, the union's leaf LP
is 200 x 462.  Emptiness, leaves, membership and samples of a union
still come from its own leaves.

The operands are asked in order, and each query gets the best answer so
far as a floor: `_support(z, d, floor)` returns some v with
``max(v, floor) == max(h_z(d), floor)``.  A leaf store starts its best
value at the floor, so a leaf whose bound U_k(d) (below) lies under an
earlier operand's answer, by the margin ``1e-9 (1 + |floor|)`` that
separates leaves, solves no LP.  That margin makes U_k(d) < floor imply
h_k(d) < floor, as it makes U_k(d) < best imply h_k(d) < best between
leaves; so the union's answer is bitwise the largest operand answer.

Each set also holds one leaf store, filled as queries need it and kept
for the set's lifetime:

* per set, ``Ac`` prepared for HiGHS (`lp.Rows`), which every leaf LP
  uses, ``[Gc; Ac]`` with its pseudoinverse and its slack matrix
  ``[[Gc; Ac], I]`` prepared for HiGHS, for membership, and ``pinv(Ac)``
  for the sampler; all are the same for every leaf, since binaries only
  shift the right-hand side;
* per leaf, its interior anchor (the factor point farthest from the box
  walls, one LP), its home LP's basis, every support solved on it, as
  direction and value, the optimality cone and maximizer of every
  optimal basis its LPs ended at, and the basis of its last feasible
  membership slack LP.

A leaf's support LPs share its rows and right-hand side and differ only
in the objective, so each starts HiGHS from the leaf's home basis: the
optimal basis of the leaf's ``+e_1`` support LP, solved cold and stored
as a support.  Every leaf solved it when it was checked as a candidate.
A new cost leaves the home basis primal feasible, so `lp` solves these
warm LPs with HiGHS's primal simplex, which needs only phase-2 pivots.
Since the home is fixed, the LP of a leaf and a direction has one answer
whatever order the queries come in.  A warm answer may differ from a
cold solve's in the last bits; `lp` re-solves cold, with the dual
simplex, after any verdict but an exact optimum.

A leaf answers a direction d off the axes from a stored basis when it
can (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, 1997,
section 5.1).  The leaf LP maximizes c . xi with c = F d, F = Gc^T, over
``A xi = r, |xi|_inf <= 1``; at a basis, the reduced costs
``c - A^T y`` (y solving ``B^T y = c_B``) are linear in d.  Each optimum
stores the rows g_j of that map at the variables on a bound, negated at
a lower bound (`lp._cone`), with the LP's maximizer x: the basis is
optimal in d iff every ``g_j . d >= 0``.  Before solving an LP in d, a leaf
tests its stored bases, oldest first; the first basis whose shortfall
``s(d) = sum_j max(0, -g_j . d)`` is at most ``tol = 1e-12 (1 + |F d|_inf)``
answers ``d . x``, and that answer is stored as a support, like an LP's.
It lies within ``2 tol`` below the leaf's support h_k(d):

* x is a point of the leaf (up to the residual of the rows that every LP
  answer carries), so ``d . x <= h_k(d)``;
* for any point xi of the leaf, the rows cancel in
  ``c . (xi - xi*) = sum_j (c - A^T y)_j (xi_j - xi*_j)`` (weak duality
  with the basis's dual y); a basic variable's reduced cost is 0, and a
  variable at its upper bound has ``xi_j - xi*_j`` in [-2, 0] and
  reduced cost ``g_j . d`` (at a lower bound both signs flip), so each
  term is at most ``2 max(0, -g_j . d)``, and ``h_k(d) <= d . x + 2 s(d)``.

On the branches of the benchmark_pwa reach unions (seed 1001, 64
directions), 2 tol is at most 2.7e-12 and 2 s(d) of an answering basis
at most 6.4e-15, so the pruning margin below covers every stored value.

A direction with one nonzero entry, such as +-e_k, is always solved by
an LP.  That covers the homes, the leaf boxes and the interval hull,
which are all that the reachability loop and estimation build sets
from, so those sets are the same as without the stored bases.  A
direction off the axes gets the LP's answer to within round-off, but no
longer bit for bit in every query order: which basis answers depends on
the LPs solved before it.

Membership tries a witness before any LP.  With P = pinv(A) and the
leaf's right-hand side r, it checks the least-norm factors ``P r``,
then the middle of the stretch, within the box, of the line through
``P r`` and the anchor a moved onto the affine set, ``a + P (r - A a)``.
Every point of that line has the residual ``A P r - r``, so the middle
fits whenever the moved anchor does.  A candidate certifies x when
``|xi|_inf <= 1`` and every row of ``A xi - r`` is within tol: that is
the membership contract itself.  Otherwise the slack LP decides: find
factors in the box and a slack in ``[-tol, tol]`` per row with
``[A, I] (xi, s) = r``.  The leaf's slack LPs share that matrix and
differ only in r, and with no objective every basis is dual feasible, so
each starts from the basis of the leaf's last feasible slack LP, and
HiGHS's dual simplex (which `lp` keeps for every feasibility LP, warm or
cold) only repairs the rows that r pushes out of bounds
(Bertsimas & Tsitsiklis, section 5.1).  `lp` solves a warm LP that ends
without an optimum again cold, so a False always comes from a cold LP;
a True may come from a warm one.  Which basis a leaf holds depends on
the memberships asked before, so on a point within HiGHS's tolerance of
the leaf's boundary the verdict may depend on that order.

A support query reads a direction already solved on a leaf instead of
solving it again.  On a set with two or more leaves, its first query
also solves each leaf's ``+-e_k`` supports, which give the leaf's
bounding box B_k.  The second point above holds in every direction d,
not only where the basis is optimal, so each stored basis b of leaf k,
with maximizer x_b and shortfall s_b, bounds the leaf too:

    U_k(d) = min(h_Bk(d), min_b [d . x_b + 2 s_b(d)]) >= h_k(d).

The caveat is the one of the proof: the rows cancel only up to
``y . (A xi* - r)``, the LP's row residual (at most 1e-9 per row, see
`lp`) weighted by the basis's dual, which the bound leaves out.  On the
branches of the benchmark_pwa reach unions, with every leaf solved in
64 directions, no LP value exceeds its bound by more than 5.6e-15.
Every leaf has its home basis from its check, so a query visits the
leaves in descending U_k and stops solving once
``U_k < best - 1e-9 (1 + |best|)``.  The margin covers the LP
round-off, that residual and the deficit of an answer from a stored
basis, so the leaf that attains the maximum is always solved and the
answer is the maximum over all leaves of their answers: bitwise the
maximum of the leaf LPs in an axis direction.

All leaves' bases are kept in one tuple (see `_LeafStore`), so a query
takes one product of the rows with d, sums the shortfalls per basis,
and takes the least bound per leaf; the same sums pick, off the axes,
each leaf's oldest basis that answers d.  An axis query without a floor
on a set with one leaf, such as an interval hull in estimation, skips
this, as it can neither prune the leaf nor be answered from a basis.

Worker threads may query one set at once.  A set's store is made under
one module lock, so that the threads share it, and written without a
lock: a value by a dict `setdefault` and an item assignment, and a
basis by one assignment of a new tuple, so a reader sees a whole tuple.
A query reads a copy of the values stored in its direction, so a value
that another thread stores meanwhile is solved again, not skipped.  Two
threads that add a basis at once may lose one, which costs a later
LP that the lost basis would have answered; two that answer one leaf in
one direction store one of their answers, each the LP's within
round-off.  Neither gives a wrong value.
"""

from __future__ import annotations

import threading

import numpy as np

from . import lp
from .setops import HybridZonotope, MatrixZonotope, Zonotope, _prescreen, _record, lift_zonotope


class EmptySetError(ValueError):
    """Raised when a query needs a nonempty set."""


class EnumerationCapError(RuntimeError):
    """Raised when a set has more binary factors than the configured cap."""


def _slack_matrix(A: np.ndarray, tol: float) -> np.ndarray:
    """The matrix of A's feasibility LP at tol: [A, I] when tol > 0, else A.

    Unit-coefficient slack columns bounded by +-tol keep the system well
    scaled.  lp solves the feasibility LP without presolve, which has
    called such systems infeasible for a tol below HiGHS's 1e-7 tolerance
    although the system without slack was feasible.
    """
    if tol > 0.0 and A.shape[0] > 0:
        return np.hstack([A, np.eye(A.shape[0])])
    return A


def _find_leaves(z: HybridZonotope, limit) -> tuple:
    """z's leaf record (rows, verified), checked until `limit` rows are
    verified or no row is left unchecked (every row when limit is None).

    Unverified rows are checked in order, and what the check leaves is
    written back on z at once: the leaves found, then the rows not yet
    checked.
    """
    record = _record(z)
    rows, verified = record
    if verified == len(rows) or (limit is not None and verified >= limit):
        return record
    found, end = list(rows[:verified]), len(rows)
    rest = rows[verified:]
    for i in np.flatnonzero(_prescreen(z, rest)):
        if not z.nc or _store(z).check(z, len(found), rest[i]):
            found.append(rest[i])
            if len(found) == limit:
                end = verified + i + 1
                break
    count = len(found)
    found += list(rows[end:])
    leaves = np.array(found, dtype=float).reshape(len(found), z.nb)
    leaves.flags.writeable = False
    record = (leaves, count)
    object.__setattr__(z, "_leaves", record)
    return record


def membership(z: HybridZonotope, x, tol: float = 1e-9) -> bool:
    """True iff some feasible leaf admits in-box factors reproducing x.

    Both the generator equations and the constraint rows may be violated
    by at most tol per row.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != z.dim:
        raise ValueError("point dimension does not match the set")
    store = _store(z)
    leaves = feasible_assignments(z)
    rhs = [np.concatenate([x - z.c - z.Gb @ xb, z.b - z.Ab @ xb]) for xb in leaves]
    for k, xb in enumerate(leaves):
        if store.witness(z, k, xb, rhs[k], tol):
            return True
    return any(store.reproduces(z, k, r, tol) for k, r in enumerate(rhs))


def support(z: HybridZonotope, d) -> float:
    """max_{x in z} d @ x, or -inf when the set is empty."""
    d = np.asarray(d, dtype=float).ravel()
    if d.size != z.dim:
        raise ValueError("direction dimension does not match the set")
    if not np.any(d):
        raise ValueError("support direction must be nonzero")
    if not np.all(np.isfinite(d)):
        raise ValueError("support direction must be finite")
    return _support(z, d)


def _support(z: HybridZonotope, d: np.ndarray, floor: float = -np.inf) -> float:
    """Some v with max(v, floor) == max(h_z(d), floor): h_z(d) itself, or
    any value at most floor where h_z(d) is at most floor."""
    rule, sets = z._operands or (None, ())
    if rule == "union":
        for w in sets:
            floor = max(floor, _support(w, d, floor))
        return floor
    if z.nc == 0:
        # Unconstrained factors decouple; closed form.
        return float(d @ z.c + np.abs(d @ z.Gc).sum() + np.abs(d @ z.Gb).sum())
    if rule == "product":
        z1, z2 = sets
        return _factor_support(z1, d[: z1.dim]) + _factor_support(z2, d[z1.dim :])
    return _store(z).support(z, d, feasible_assignments(z), floor)


def _factor_support(z: HybridZonotope, d: np.ndarray) -> float:
    """h_z(d) for a product's factor: 0 in d = 0 if z is nonempty, else -inf."""
    if np.any(d):
        return _support(z, d)
    return -np.inf if is_empty(z) else 0.0


def _leaf_support(z: HybridZonotope, d: np.ndarray, xb: np.ndarray, start=None) -> tuple:
    """(h, basis, x, cone) for the leaf xb in direction d: its support,
    -inf without an optimum, and the LP's optimal basis, a maximizer x in
    the set and the basis's cone over Gc^T (`lp._cone`), all None without
    one.  The LP starts from basis `start`."""
    res = lp.solve_box_lp(
        d @ z.Gc,
        _store(z).rows(z),
        z.b - z.Ab @ xb,
        -np.ones(z.ng),
        np.ones(z.ng),
        start=start,
        family=z.Gc.T,
    )
    if not res.optimal:
        return -np.inf, None, None, None
    center = z.c + z.Gb @ xb
    return res.value + float(d @ center), res.basis, center + z.Gc @ res.x, res.cone


def _home_direction(dim: int) -> np.ndarray:
    """+e_1, the direction whose LP gives each leaf its home basis; the
    empty vector, whose LP has no cost, for a set without a dimension."""
    return np.eye(1, dim)[0]


def _key(d: np.ndarray) -> bytes:
    """The direction's key in the leaf store; -0.0 and 0.0 key alike."""
    return (d + 0.0).tobytes()


def _on_axis(d: np.ndarray) -> bool:
    """Whether d has one nonzero entry, as +-e_k does: always solved by an LP."""
    return np.count_nonzero(d) == 1


_NEW_STORE = threading.Lock()


def _store(z: HybridZonotope) -> "_LeafStore":
    store = z._store
    if store is None:
        # Two threads that each made a store would each fill their own,
        # and one would then read homes from the store the other kept.
        with _NEW_STORE:
            store = z._store
            if store is None:
                store = _LeafStore(z.dim)
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

    Leaves are indexed by their position in the set's leaf list.  `solved`
    maps each direction d, keyed by ``_key(d)``, to ``{leaf: h_k(d)}``, the
    value being -inf where the leaf LP found no optimum; `homes` holds each
    leaf's home basis, stored with its value in `solved` by the check that
    made it a leaf; `bases` holds every leaf's stored bases as (rows,
    basis, leaf, X): the cone rows of every basis, the basis each row
    belongs to, the leaf each basis belongs to, and each basis's
    maximizer; `box` holds the leaves' bounding boxes once a support query
    on two or more leaves has solved them; `prepared` holds the set's Ac
    as `lp.Rows` once a leaf LP needs it.  For membership, `member` holds
    ``A = [Gc; Ac]`` with its pseudoinverse, `member_rows` the slack LP's
    matrix ``_slack_matrix(A, tol)`` as `lp.Rows`, keyed by whether tol >
    0, and `member_bases` the basis of leaf k's last feasible slack LP,
    keyed by (k, whether tol > 0).
    """

    def __init__(self, dim: int):
        self.prepared = None
        self.member = None
        self.member_rows = {}
        self.member_bases = {}
        self.sample_pinv = None
        self.anchors = {}
        self.homes = {}
        none = np.zeros(0, dtype=int)
        self.bases = (np.zeros((0, dim)), none, none, np.zeros((0, dim)))
        self.solved = {}
        self.box = None

    def rows(self, z: HybridZonotope) -> lp.Rows:
        """z.Ac prepared for HiGHS, shared by every leaf's LPs."""
        if self.prepared is None:
            self.prepared = lp.Rows(z.Ac)
        return self.prepared

    def anchor(self, z: HybridZonotope, k: int, xb: np.ndarray) -> np.ndarray:
        a = self.anchors.get(k)
        if a is None:
            a = _leaf_anchor(z.Ac, z.b - z.Ab @ xb) if z.ng else np.zeros(0)
            self.anchors[k] = a
        return a

    def membership_system(self, z: HybridZonotope) -> tuple:
        """(A, pinv(A)) with A = [Gc; Ac], the same for every leaf."""
        if self.member is None:
            A = np.vstack([z.Gc, z.Ac])
            self.member = (A, np.linalg.pinv(A))
        return self.member

    def witness(self, z, k, xb, rhs, tol) -> bool:
        """True if an explicit factor vector shows that leaf k reproduces rhs."""
        A, P = self.membership_system(z)
        xi = P @ rhs
        if _fits(A, rhs, xi, tol):
            return True
        try:
            a = self.anchor(z, k, xb)
        except (EmptySetError, lp.LPError):
            return False  # no anchor: the slack LP decides
        # Every point of the line through P rhs and the anchor moved onto
        # the affine set solves A xi = A P rhs; try the middle of its
        # stretch inside the box.
        step = a + P @ (rhs - A @ a) - xi
        moving = step != 0.0
        if not moving.any() or np.any(np.abs(xi[~moving]) > 1.0):
            return False
        ends = np.stack([-1.0 - xi[moving], 1.0 - xi[moving]]) / step[moving]
        lo, hi = ends.min(axis=0).max(), ends.max(axis=0).min()
        return bool(lo <= hi) and _fits(A, rhs, xi + 0.5 * (lo + hi) * step, tol)

    def reproduces(self, z: HybridZonotope, k: int, rhs: np.ndarray, tol: float) -> bool:
        """Whether leaf k reproduces rhs within tol per row: the slack LP,
        started from the basis of leaf k's last feasible slack LP with the
        same columns.  `lp` solves a warm LP without an optimum again cold,
        so a False always comes from a cold LP."""
        A, _ = self.membership_system(z)
        slack = tol > 0.0
        rows = self.member_rows.get(slack)
        if rows is None:
            rows = self.member_rows[slack] = lp.Rows(_slack_matrix(A, tol))
        # The factors in the box, a slack column (if any) per row in +-tol.
        n = A.shape[1]
        bound = np.concatenate([np.ones(n), np.full(rows.shape[1] - n, tol)])
        res = lp.solve_box_lp(
            np.zeros(len(bound)), rows, rhs, -bound, bound,
            start=self.member_bases.get((k, slack)),
        )
        if res.optimal:
            self.member_bases[k, slack] = res.basis
        return res.optimal

    def solve(self, z: HybridZonotope, k: int, xb: np.ndarray, d: np.ndarray, x=None) -> float:
        """h_k(d), and stored: d . x when x is the maximizer of a stored
        basis whose cone holds d; else solved from leaf k's home basis."""
        if x is None:
            h, _, x, cone = _leaf_support(z, d, xb, self.homes[k])
            self._add_basis(k, cone, x)
        else:
            h = float(d @ x)
        self._put(k, d, h)
        return h

    def _put(self, k: int, d: np.ndarray, h: float) -> None:
        self.solved.setdefault(_key(d), {})[k] = h

    def _add_basis(self, k: int, cone, x) -> None:
        """Store a basis's cone rows with its maximizer x, as leaf k's
        newest basis; nothing when the LP gave no cone."""
        if cone is None:
            return
        rows, basis, leaf, X = self.bases
        self.bases = (
            np.concatenate([rows, cone]),
            np.concatenate([basis, np.full(len(cone), len(X))]),
            np.append(leaf, k),
            np.concatenate([X, x[None]]),
        )

    def check(self, z: HybridZonotope, k: int, xb: np.ndarray) -> bool:
        """Whether candidate xb is a feasible leaf: its +e_1 LP, solved cold,
        has an optimum.  If so, that LP is stored as leaf k's home, and as
        a support and a basis; an infeasible candidate stores nothing, since
        the next feasible one becomes leaf k."""
        e = _home_direction(z.dim)
        h, basis, x, cone = _leaf_support(z, e, xb)
        if h == -np.inf:
            return False
        self._put(k, e, h)
        self._add_basis(k, cone, x)
        self.homes[k] = basis
        return True

    def _solve_boxes(self, z: HybridZonotope, leaves: list) -> tuple:
        """Each leaf's bounding box from its +-e_k supports, +e_1 first, as
        (center, half width, whether finite) per leaf; +e_1 is the home,
        stored by the leaf's check."""
        signed = [d for e in np.eye(z.dim) for d in (e, -e)]
        home = self.solved[_key(signed[0])]
        h = [
            [home[k]] + [self.solve(z, k, xb, d) for d in signed[1:]]
            for k, xb in enumerate(leaves)
        ]
        h = np.array(h)
        hi, lo = h[:, 0::2], -h[:, 1::2]
        # A leaf without a finite box is never skipped.
        boxed = np.isfinite(h).all(axis=1)
        hi[~boxed] = 0.0
        lo[~boxed] = 0.0
        return 0.5 * (hi + lo), 0.5 * (hi - lo), boxed

    def support(self, z: HybridZonotope, d: np.ndarray, leaves: list, floor: float) -> float:
        """h_z(d), or a value at most `floor` where h_z(d) is below it: a
        leaf is skipped when its bound is below `floor` too."""
        # A leaf is only ever skipped in favour of another, or of the
        # floor, so a single leaf needs no box.
        if len(leaves) > 1 and self.box is None:
            self.box = self._solve_boxes(z, leaves)
        # A copy, so that a leaf another thread stores after `best` is
        # taken is solved again rather than skipped without its value.
        known = dict(self.solved.get(_key(d), {}))
        best = max(known.values(), default=-np.inf)
        if len(known) == len(leaves):
            return best
        if len(leaves) == 1 and _on_axis(d) and floor == -np.inf:
            return self.solve(z, 0, leaves[0], d)
        best = max(best, floor)
        bound, holds = self.bounds(z, d, len(leaves))
        for k in np.argsort(-bound, kind="stable"):
            if k in known:
                continue
            if bound[k] < best - 1e-9 * (1.0 + abs(best)):
                break
            best = max(best, self.solve(z, int(k), leaves[k], d, holds.get(k)))
        return best

    def bounds(self, z: HybridZonotope, d: np.ndarray, count: int) -> tuple:
        """(U_k(d) per leaf, {k: x}): the least of leaf k's box bound and its
        stored bases' bounds ``d . x_b + 2 sum_j max(0, -g_j . d)``, inf for
        a leaf with neither; and, off the axes, the maximizer x of each
        leaf's oldest basis whose shortfall, that sum, is at most
        1e-12 (1 + |Gc^T d|_inf)."""
        rows, basis, leaf, X = self.bases
        short = np.bincount(basis, np.maximum(-(rows @ d), 0.0), minlength=len(X))
        bound = np.full(count, np.inf)
        if self.box is not None:
            center, half, boxed = self.box
            bound[boxed] = (center @ d + half @ np.abs(d))[boxed]
        np.minimum.at(bound, leaf, X @ d + 2.0 * short)
        if _on_axis(d):
            return bound, {}
        tol = 1e-12 * (1.0 + np.abs(d @ z.Gc).max(initial=0.0))
        holding = np.flatnonzero(short <= tol)
        first = np.unique(leaf[holding], return_index=True)
        return bound, {int(k): X[holding[i]] for k, i in zip(*first)}


def interval_hull(z: HybridZonotope):
    """Componentwise (lower, upper) bounds; raises EmptySetError when empty."""
    lower = np.zeros(z.dim)
    upper = np.zeros(z.dim)
    for k in range(z.dim):
        e = np.zeros(z.dim)
        e[k] = 1.0
        hi = support(z, e)
        if hi == -np.inf:
            raise EmptySetError("interval hull of an empty set")
        lower[k] = -support(z, -e)
        upper[k] = hi
    return lower, upper


def is_empty(z: HybridZonotope) -> bool:
    """True iff no leaf is feasible.

    Without a record that decides it, the check stops at the first
    feasible leaf.
    """
    if z.nc == 0:
        return False
    return _find_leaves(z, 1)[1] == 0


def feasible_assignments(z: HybridZonotope) -> list:
    """Binary assignments whose leaf is feasible, in enumeration order.

    The first call checks every row of z's record and records the leaves
    on z.
    """
    return list(_find_leaves(z, None)[0])


def sample(z: HybridZonotope, count: int, seed: int) -> np.ndarray:
    """Deterministic members of z, shape (count, dim).

    Per draw: pick one of the feasible leaves, draw factors uniformly in
    the box, apply the least-norm correction onto the leaf's affine
    constraint set, and if that leaves the box, shrink toward a strictly
    interior anchor of the leaf; only the leaves drawn are anchored.
    Every output passes membership at 1e-7.
    """
    assignments = feasible_assignments(z)
    if not assignments:
        raise EmptySetError("cannot sample from an empty set")
    store = _store(z)
    if z.nc and z.ng and store.sample_pinv is None:
        store.sample_pinv = np.linalg.pinv(z.Ac)
    pinv = store.sample_pinv
    leaves = {}

    out = np.zeros((count, z.dim))
    children = np.random.SeedSequence(seed).spawn(count)
    for i in range(count):
        rng = np.random.default_rng(children[i])
        k = int(rng.integers(len(assignments)))
        if k not in leaves:
            xb = assignments[k]
            leaves[k] = (z.c + z.Gb @ xb, z.b - z.Ab @ xb, store.anchor(z, k, xb))
        center, rhs, anchor = leaves[k]
        if z.ng == 0:
            out[i] = center
            continue
        xi = rng.uniform(-1.0, 1.0, z.ng)
        if pinv is not None:
            xi = xi - pinv @ (z.Ac @ xi - rhs)
        overshoot = np.abs(xi).max()
        if overshoot > 1.0:
            step = xi - anchor
            moving = np.abs(step) > 1e-14
            wall = np.where(step[moving] > 0, 1.0, -1.0)
            t = ((wall - anchor[moving]) / step[moving]).min(initial=1.0)
            xi = anchor + max(t, 0.0) * step
        xi = np.clip(xi, -1.0, 1.0)
        out[i] = center + z.Gc @ xi
    return out


def _leaf_anchor(Ac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Point of the leaf {xi in the box : Ac xi = rhs} maximizing distance
    to the box walls."""
    ng = Ac.shape[1]
    if Ac.shape[0] == 0:
        return np.zeros(ng)
    # max t subject to |xi_k| + t <= 1, as rows of the same model that
    # lie open below (lhs = -inf), before the leaf's equations.
    c = np.zeros(ng + 1)
    c[-1] = -1.0
    A = np.vstack(
        [
            np.hstack([np.eye(ng), np.ones((ng, 1))]),
            np.hstack([-np.eye(ng), np.ones((ng, 1))]),
            np.hstack([Ac, np.zeros((Ac.shape[0], 1))]),
        ]
    )
    lhs = np.concatenate([np.full(2 * ng, -np.inf), rhs])
    upper = np.concatenate([np.ones(2 * ng), rhs])
    lb = np.concatenate([-np.ones(ng), [0.0]])
    res = lp._highs(c, A, lhs, upper, lb, np.ones(ng + 1), lp._DEFAULT)
    if res.status == 2:
        raise EmptySetError("leaf became infeasible while anchoring")
    if res.status != 0:
        raise lp.LPError(f"HiGHS failed while anchoring: {res.message}")
    return res.x[:ng]


def matrix_membership(M: MatrixZonotope, X, tol: float = 1e-9) -> bool:
    """True iff X = center + sum_j beta_j G_j for some |beta|_inf <= 1,
    within tol per entry: `membership` of vec(X) in the zonotope of
    vec(center) and the vec(G_j)."""
    X = np.asarray(X, dtype=float)
    if X.shape != M.shape:
        raise ValueError("candidate matrix shape does not match the set")
    # The slack LP honours tol only down to HiGHS's 1e-7 tolerance; a set
    # without generators is decided exactly.
    if M.num_generators == 0:
        return bool(np.all(np.abs(X - M.center) <= tol))
    gens = np.column_stack([G.ravel() for G in M.generators])
    return membership(lift_zonotope(Zonotope(M.center.ravel(), gens)), X.ravel(), tol)
