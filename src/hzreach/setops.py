"""Set representations and closed-form hybrid zonotope operations.

A hybrid zonotope is the constrained image

    { c + Gc @ xc + Gb @ xb : xc in [-1,1]^ng, xb in {-1,1}^nb,
                              Ac @ xc + Ab @ xb = b }

All operations here are pure and total: they never decide emptiness and
always return a syntactic set.  Semantic questions (membership, support,
emptiness) live in :mod:`hzreach.oracle`.

Fixing the binary factors leaves a constrained zonotope, a leaf.  When
every operand's leaves are known (recorded by the oracle, carried as
candidates, or the single empty assignment of a set without binaries),
`linear_map`, `halfspace_intersection`, `cartesian_product`,
`minkowski_sum` and `union` attach to their result candidate
assignments: rows computed from the operands' rows with numpy, in
enumeration order (``tuple(-xb)`` ascending), that include every
feasible leaf of the result.  The oracle then checks only those rows
instead of searching all 2**nb assignments.  Linear maps and halfspace
cuts keep the operand's rows; products and sums take the lexicographic
product of the two lists; see `union` for its rows.  An operand's rows
are its whole record: the leaves the oracle has verified on it, then
the rows it has not checked yet.  The result checks its rows on its own.

`cartesian_product` and `union` also record their operands on the
result, as ``_operands``.  The support of a product separates over its
two factors, and that of a union is the largest of its operands' (see
`hzreach.oracle.support`), so the oracle answers it from what each
operand has already solved.  A union's record is flat: an operand that
is itself a recorded union contributes its own operands, so a fold of
n sets keeps those n sets alive, not the n - 1 unions between them.  No
other operation records its operands: a sum or map that kept them alive
would hold every intermediate set of a chain in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Zonotope",
    "HybridZonotope",
    "MatrixZonotope",
    "Halfspace",
    "PolyhedralRegion",
    "lift_zonotope",
    "empty_hz",
    "minkowski_sum",
    "generalized_intersection",
    "halfspace_intersection",
    "linear_map",
    "cartesian_product",
    "union",
    "matzono_times_set",
    "to_dict",
    "from_dict",
]


def _vector(v, name: str) -> np.ndarray:
    a = np.array(v, dtype=float).ravel()
    a.flags.writeable = False
    return a


def _matrix(M, rows: int | None, name: str) -> np.ndarray:
    a = np.array(M, dtype=float)
    if a.ndim != 2:
        if a.size == 0:
            a = a.reshape(rows if rows is not None else 0, -1)
        else:
            raise ValueError(f"{name} must be a matrix, got shape {a.shape}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {a.shape[0]}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Zonotope:
    """Affine image of a unit box: { center + generators @ xi : |xi|_inf <= 1 }."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = _vector(self.center, "center")
        object.__setattr__(self, "center", c)
        object.__setattr__(
            self, "generators", _matrix(self.generators, c.size, "generators")
        )

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def num_generators(self) -> int:
        return self.generators.shape[1]


@dataclass(frozen=True)
class HybridZonotope:
    Gc: np.ndarray
    Gb: np.ndarray
    c: np.ndarray
    Ac: np.ndarray
    Ab: np.ndarray
    b: np.ndarray
    # (rows, verified): assignments in enumeration order that include
    # every feasible one, the first `verified` of them checked leaves.
    # Set to (rows, 0) by the operation that built this set, rewritten by
    # hzreach.oracle as it checks rows.  The arrays above are read-only,
    # so the record stays valid for the object's lifetime.
    _leaves: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # What hzreach.oracle has solved on this set (leaf supports, anchors,
    # pseudo-inverses), filled as queries need it.
    _store: object | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (rule, sets): ("product", (z1, z2)) when this set is
    # cartesian_product(z1, z2), ("union", (z_1, ..., z_n)) when it is the
    # union of z_1, ..., z_n, none of them a recorded union; the oracle
    # answers its support from those sets, which the record keeps alive.
    _operands: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        c = _vector(self.c, "c")
        n = c.size
        Gc = _matrix(self.Gc, n, "Gc")
        Gb = _matrix(self.Gb, n, "Gb")
        b = _vector(self.b, "b")
        Ac = _matrix(self.Ac, b.size, "Ac")
        Ab = _matrix(self.Ab, b.size, "Ab")
        if Ac.shape[1] != Gc.shape[1]:
            raise ValueError("Ac must have one column per continuous generator")
        if Ab.shape[1] != Gb.shape[1]:
            raise ValueError("Ab must have one column per binary generator")
        for name, value in (("c", c), ("Gc", Gc), ("Gb", Gb), ("Ac", Ac), ("Ab", Ab), ("b", b)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def ng(self) -> int:
        return self.Gc.shape[1]

    @property
    def nb(self) -> int:
        return self.Gb.shape[1]

    @property
    def nc(self) -> int:
        return self.b.size

    @classmethod
    def from_point(cls, x) -> "HybridZonotope":
        x = np.asarray(x, dtype=float).ravel()
        n = x.size
        return cls(
            np.zeros((n, 0)), np.zeros((n, 0)), x,
            np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0),
        )


@dataclass(frozen=True)
class MatrixZonotope:
    """Zonotope in matrix space: { center + sum_j beta_j * G_j : |beta|_inf <= 1 }."""

    center: np.ndarray
    generators: tuple

    def __post_init__(self):
        C = _matrix(self.center, None, "center")
        gens = []
        for j, G in enumerate(self.generators):
            G = _matrix(G, C.shape[0], f"generator {j}")
            if G.shape != C.shape:
                raise ValueError("generator matrices must match the center's shape")
            gens.append(G)
        object.__setattr__(self, "center", C)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def shape(self) -> tuple:
        return self.center.shape

    @property
    def num_generators(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Halfspace:
    """{ x : normal @ x <= offset }."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        l = _vector(self.normal, "normal")
        if not np.any(l):
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", l)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(frozen=True)
class PolyhedralRegion:
    """One PWA mode's domain { x : L @ x <= rho }."""

    L: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        rho = _vector(self.rho, "rho")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "L", _matrix(self.L, rho.size, "L"))

    @property
    def dim(self) -> int:
        return self.L.shape[1]

    @property
    def num_halfspaces(self) -> int:
        return self.rho.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        if self.num_halfspaces == 0:
            return True
        return bool(np.all(self.L @ x <= self.rho + tol))


def lift_zonotope(z: Zonotope) -> HybridZonotope:
    """Embed a plain zonotope: no binary generators, no constraints."""
    n, g = z.dim, z.num_generators
    return HybridZonotope(
        z.generators, np.zeros((n, 0)), z.center,
        np.zeros((0, g)), np.zeros((0, 0)), np.zeros(0),
    )


def empty_hz(dim: int) -> HybridZonotope:
    """Canonical syntactically empty set (constraint 0 = 1)."""
    return HybridZonotope(
        np.zeros((dim, 0)), np.zeros((dim, 0)), np.zeros(dim),
        np.zeros((1, 0)), np.zeros((1, 0)), np.ones(1),
    )


def _blkdiag(A, B) -> np.ndarray:
    out = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]))
    out[: A.shape[0], : A.shape[1]] = A
    out[A.shape[0] :, A.shape[1] :] = B
    return out


def _known_leaves(z: HybridZonotope) -> np.ndarray | None:
    """Rows in enumeration order that include every feasible leaf of z;
    None if unknown."""
    if z._leaves is not None:
        return z._leaves[0]
    if z.nb == 0:
        return np.zeros((1, 0))
    return None


def _with_candidates(z: HybridZonotope, rows: np.ndarray | None) -> HybridZonotope:
    """z carrying `rows`, sorted into enumeration order, as unchecked candidates."""
    if rows is not None:
        if z.nb:
            rows = rows[np.lexsort(-rows.T[::-1])]
        rows.flags.writeable = False
        object.__setattr__(z, "_leaves", (rows, 0))
    return z


def _product_leaves(z1: HybridZonotope, z2: HybridZonotope) -> np.ndarray | None:
    """Each known row of z1 joined with each known row of z2."""
    A, B = _known_leaves(z1), _known_leaves(z2)
    if A is None or B is None:
        return None
    return np.hstack([np.repeat(A, len(B), axis=0), np.tile(B, (len(A), 1))])


def minkowski_sum(z1: HybridZonotope, z2: HybridZonotope) -> HybridZonotope:
    if z1.dim != z2.dim:
        raise ValueError("minkowski_sum requires equal ambient dimensions")
    out = HybridZonotope(
        np.hstack([z1.Gc, z2.Gc]),
        np.hstack([z1.Gb, z2.Gb]),
        z1.c + z2.c,
        _blkdiag(z1.Ac, z2.Ac),
        _blkdiag(z1.Ab, z2.Ab),
        np.concatenate([z1.b, z2.b]),
    )
    return _with_candidates(out, _product_leaves(z1, z2))


def generalized_intersection(z1: HybridZonotope, R, z3: HybridZonotope) -> HybridZonotope:
    """{ x in z1 : R @ x in z3 }, exact via one coupling constraint block."""
    R = np.asarray(R, dtype=float).reshape(z3.dim, -1)
    if R.shape[1] != z1.dim:
        raise ValueError("map R must send z1's space into z3's space")
    n = z1.dim
    Ac = np.vstack(
        [
            np.hstack([z1.Ac, np.zeros((z1.nc, z3.ng))]),
            np.hstack([np.zeros((z3.nc, z1.ng)), z3.Ac]),
            np.hstack([R @ z1.Gc, -z3.Gc]),
        ]
    )
    Ab = np.vstack(
        [
            np.hstack([z1.Ab, np.zeros((z1.nc, z3.nb))]),
            np.hstack([np.zeros((z3.nc, z1.nb)), z3.Ab]),
            np.hstack([R @ z1.Gb, -z3.Gb]),
        ]
    )
    b = np.concatenate([z1.b, z3.b, z3.c - R @ z1.c])
    return HybridZonotope(
        np.hstack([z1.Gc, np.zeros((n, z3.ng))]),
        np.hstack([z1.Gb, np.zeros((n, z3.nb))]),
        z1.c,
        Ac,
        Ab,
        b,
    )


def halfspace_intersection(z1: HybridZonotope, h: Halfspace) -> HybridZonotope:
    """{ x in z1 : l @ x <= rho } via one fresh generator and constraint row."""
    l = h.normal
    if l.size != z1.dim:
        raise ValueError("halfspace normal does not match the set dimension")
    lGc = l @ z1.Gc
    lGb = l @ z1.Gb
    lc = float(l @ z1.c)
    d_m = h.offset - lc + np.abs(lGc).sum() + np.abs(lGb).sum()
    # Negative d_m means the set lies strictly outside the halfspace; a
    # negative slack half-width would flip the encoded interval and re-admit
    # points, so clamp it: the row then has no solution and the result is empty.
    d_m = max(d_m, 0.0)
    n = z1.dim
    Ac = np.vstack(
        [
            np.hstack([z1.Ac, np.zeros((z1.nc, 1))]),
            np.concatenate([lGc, [d_m / 2.0]])[None, :],
        ]
    )
    Ab = np.vstack([z1.Ab, lGb[None, :]])
    b = np.concatenate([z1.b, [h.offset - lc - d_m / 2.0]])
    out = HybridZonotope(
        np.hstack([z1.Gc, np.zeros((n, 1))]), z1.Gb, z1.c, Ac, Ab, b
    )
    return _with_candidates(out, _known_leaves(z1))


def linear_map(M, z: HybridZonotope) -> HybridZonotope:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != z.dim:
        raise ValueError("map columns must match the set dimension")
    out = HybridZonotope(M @ z.Gc, M @ z.Gb, M @ z.c, z.Ac, z.Ab, z.b)
    return _with_candidates(out, _known_leaves(z))


def cartesian_product(z1: HybridZonotope, z2: HybridZonotope) -> HybridZonotope:
    out = HybridZonotope(
        _blkdiag(z1.Gc, z2.Gc),
        _blkdiag(z1.Gb, z2.Gb),
        np.concatenate([z1.c, z2.c]),
        _blkdiag(z1.Ac, z2.Ac),
        _blkdiag(z1.Ab, z2.Ab),
        np.concatenate([z1.b, z2.b]),
    )
    object.__setattr__(out, "_operands", ("product", (z1, z2)))
    return _with_candidates(out, _product_leaves(z1, z2))


def _union_operands(z: HybridZonotope) -> tuple:
    """The sets z is the recorded union of, else z alone."""
    if z._operands is not None and z._operands[0] == "union":
        return z._operands[1]
    return (z,)


def union(z1: HybridZonotope, z2: HybridZonotope) -> HybridZonotope:
    """Exact union via one selector binary.

    The selector sigma picks z1 at -1 and z2 at +1.  The deselected
    operand is neutralized exactly: its binary factors are pinned to +1
    (one switched row each), its continuous contribution is pinned to
    zero per ambient coordinate (two switched rows each), and its own
    constraint rows get a sigma-dependent right-hand side that is
    satisfiable by the pinned assignment.  Every switched inequality is
    encoded as an equality with a fresh slack generator sized to make it
    non-binding on the active side.

    Binaries are ordered (z1's, z2's, sigma).  When both operands' leaves
    are known, the candidates are the rows [a, 1...1, -1] for each known
    leaf a of z1 and [1...1, b, +1] for each known leaf b of z2, sorted
    into enumeration order (+1 before -1, first binary most significant),
    so the two groups may interleave.  They include every feasible leaf
    (xb1, xb2, sigma) of the union.  Say sigma = -1.  Binary i of z2 has
    the pin row -xb2_i - sigma + s = -1 with |s| <= 1, so s = xb2_i - 2
    and xb2_i = +1.  z1's rows read Ac1 xc1 + Ab1 xb1 - sigma (b1 - Ab1 1)/2
    = (b1 + Ab1 1)/2, that is Ac1 xc1 + Ab1 xb1 = b1 with xc1 in the box,
    so xb1 is a feasible leaf of z1 and one of its known rows a.  The case
    sigma = +1 is the same with the operands swapped.

    So the union's feasible leaves are the operands' feasible leaves,
    each with the other operand pinned, and a leaf of the union reaches
    exactly the points of its operand's leaf.  The result records its
    operands (flattened, see the module docstring) for the oracle.
    """
    if z1.dim != z2.dim:
        raise ValueError("union requires equal ambient dimensions")
    n = z1.dim
    gb1_ones = z1.Gb @ np.ones(z1.nb)
    gb2_ones = z2.Gb @ np.ones(z2.nb)
    ab1_ones = z1.Ab @ np.ones(z1.nb)
    ab2_ones = z2.Ab @ np.ones(z2.nb)

    c_out = 0.5 * (z1.c + z2.c - gb1_ones - gb2_ones)
    g_sigma = 0.5 * (z2.c - z1.c + gb2_ones - gb1_ones)

    pin1 = [r for r in range(n) if np.abs(z1.Gc[r]).sum() > 0.0]
    pin2 = [r for r in range(n) if np.abs(z2.Gc[r]).sum() > 0.0]
    n_slack = 2 * len(pin1) + 2 * len(pin2) + z1.nb + z2.nb
    nc_out = z1.nc + z2.nc + n_slack
    ng_out = z1.ng + z2.ng + n_slack
    nb_out = z1.nb + z2.nb + 1

    Gc = np.zeros((n, ng_out))
    Gc[:, : z1.ng] = z1.Gc
    Gc[:, z1.ng : z1.ng + z2.ng] = z2.Gc
    Gb = np.zeros((n, nb_out))
    Gb[:, : z1.nb] = z1.Gb
    Gb[:, z1.nb : z1.nb + z2.nb] = z2.Gb
    Gb[:, -1] = g_sigma

    Ac = np.zeros((nc_out, ng_out))
    Ab = np.zeros((nc_out, nb_out))
    b = np.zeros(nc_out)

    # Operand constraint rows with sigma-switched right-hand sides.
    Ac[: z1.nc, : z1.ng] = z1.Ac
    Ab[: z1.nc, : z1.nb] = z1.Ab
    Ab[: z1.nc, -1] = 0.5 * (z1.b - ab1_ones)
    b[: z1.nc] = 0.5 * (z1.b + ab1_ones)
    row = z1.nc
    Ac[row : row + z2.nc, z1.ng : z1.ng + z2.ng] = z2.Ac
    Ab[row : row + z2.nc, z1.nb : z1.nb + z2.nb] = z2.Ab
    Ab[row : row + z2.nc, -1] = 0.5 * (ab2_ones - z2.b)
    b[row : row + z2.nc] = 0.5 * (z2.b + ab2_ones)
    row += z2.nc
    slack = z1.ng + z2.ng

    def pin_rows(rows, gc, col0, sigma_sign):
        nonlocal row, slack
        for r in rows:
            w = np.abs(gc[r]).sum()
            for flip in (1.0, -1.0):
                Ac[row, col0 : col0 + gc.shape[1]] = flip * gc[r] / w
                Ab[row, -1] = sigma_sign * 0.5
                Ac[row, slack] = 1.0
                b[row] = -0.5
                row += 1
                slack += 1

    # Continuous contribution pinned to zero when the operand is deselected.
    pin_rows(pin1, z1.Gc, 0, 1.0)
    pin_rows(pin2, z2.Gc, z1.ng, -1.0)

    # Deselected binary factors pinned to +1.
    for i in range(z1.nb):
        Ab[row, i] = -1.0
        Ab[row, -1] = 1.0
        Ac[row, slack] = 1.0
        b[row] = -1.0
        row += 1
        slack += 1
    for i in range(z2.nb):
        Ab[row, z1.nb + i] = -1.0
        Ab[row, -1] = -1.0
        Ac[row, slack] = 1.0
        b[row] = -1.0
        row += 1
        slack += 1

    A, B = _known_leaves(z1), _known_leaves(z2)
    rows = None
    if A is not None and B is not None:
        rows = np.vstack(
            [
                np.hstack([A, np.ones((len(A), z2.nb)), -np.ones((len(A), 1))]),
                np.hstack([np.ones((len(B), z1.nb)), B, np.ones((len(B), 1))]),
            ]
        )
    out = HybridZonotope(Gc, Gb, c_out, Ac, Ab, b)
    object.__setattr__(
        out, "_operands", ("union", _union_operands(z1) + _union_operands(z2))
    )
    return _with_candidates(out, rows)


def matzono_times_set(M: MatrixZonotope, z: HybridZonotope) -> HybridZonotope:
    """Over-approximation of { A @ x : A in M, x in z }.

    The center matrix maps z exactly (binary structure preserved); each
    matrix generator contributes the symmetric interval box bounding its
    image of z's interval hull.  Raises EmptySetError when z is empty
    and M has generators (the hull is undefined then).
    """
    if M.shape[1] != z.dim:
        raise ValueError("matrix set columns must match the set dimension")
    if M.num_generators == 0:
        return linear_map(M.center, z)
    from . import oracle  # deferred: oracle depends on setops types

    # The hull of a product reads its factors and records no leaves on
    # z, so the map may carry z's unchecked candidates.
    lo, hi = oracle.interval_hull(z)
    base = linear_map(M.center, z)
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    G = np.stack(M.generators)
    radius = (np.abs(G @ mid) + np.abs(G) @ rad).sum(axis=0)
    cols = np.diag(radius)[:, radius > 0.0]
    return minkowski_sum(base, lift_zonotope(Zonotope(np.zeros(M.shape[0]), cols)))


# ---------------------------------------------------------------------------
# JSON interchange


def to_dict(obj) -> dict:
    """Row-major nested-list document for any of the set types."""
    if isinstance(obj, HybridZonotope):
        return {
            "type": "hybrid_zonotope",
            "center": obj.c.tolist(),
            "gc": obj.Gc.tolist(),
            "gb": obj.Gb.tolist(),
            "ac": obj.Ac.tolist(),
            "ab": obj.Ab.tolist(),
            "b": obj.b.tolist(),
        }
    if isinstance(obj, Zonotope):
        return {
            "type": "zonotope",
            "center": obj.center.tolist(),
            "generators": obj.generators.tolist(),
        }
    if isinstance(obj, MatrixZonotope):
        return {
            "type": "matrix_zonotope",
            "center": obj.center.tolist(),
            "generators": [G.tolist() for G in obj.generators],
        }
    if isinstance(obj, PolyhedralRegion):
        return {
            "type": "polyhedral_region",
            "L": obj.L.tolist(),
            "rho": obj.rho.tolist(),
            "dim": obj.dim,
        }
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def finite_array(value, name: str, ndim: int | None = None) -> np.ndarray:
    """`value` as a float array of `ndim` axes with only finite entries.

    Every failure is a ValueError that names the field.
    """
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a numeric array") from None
    # An empty matrix may come as a flat [].
    if ndim is not None and a.ndim != ndim and not (ndim == 2 and a.size == 0):
        raise ValueError(f"{name} must have {ndim} axes, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a NaN or infinite entry")
    return a


def _field(doc: dict, key: str, ndim: int) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"{doc.get('type')} document has no field {key!r}")
    return finite_array(doc[key], f"{doc.get('type')} field {key!r}", ndim)


def _matrix_field(doc: dict, key: str, rows: int, cols: int | None = None) -> np.ndarray:
    """A rows x cols matrix; an empty entry means one without columns."""
    a = _field(doc, key, 2)
    if a.size == 0 and rows * (cols or 0) == 0:
        return a.reshape(rows, cols or 0)
    if a.ndim != 2 or a.shape[0] != rows or (cols is not None and a.shape[1] != cols):
        want = f"{rows} x {'k' if cols is None else cols}"
        raise ValueError(
            f"{doc.get('type')} field {key!r} must be {want}, got shape {a.shape}"
        )
    return a


def from_dict(doc: dict):
    """Inverse of to_dict; raises ValueError naming any malformed field."""
    kind = doc.get("type")
    if kind == "hybrid_zonotope":
        c = _field(doc, "center", 1)
        b = _field(doc, "b", 1)
        Gc = _matrix_field(doc, "gc", c.size)
        Gb = _matrix_field(doc, "gb", c.size)
        Ac = _matrix_field(doc, "ac", b.size, Gc.shape[1])
        Ab = _matrix_field(doc, "ab", b.size, Gb.shape[1])
        return HybridZonotope(Gc, Gb, c, Ac, Ab, b)
    if kind == "zonotope":
        c = _field(doc, "center", 1)
        return Zonotope(c, _matrix_field(doc, "generators", c.size))
    if kind == "matrix_zonotope":
        C = _field(doc, "center", 2)
        gens = []
        for j, G in enumerate(doc.get("generators", ())):
            G = finite_array(G, f"matrix_zonotope field 'generators'[{j}]", 2)
            if G.shape != C.shape:
                raise ValueError(
                    f"matrix_zonotope field 'generators'[{j}] must be "
                    f"{C.shape[0]} x {C.shape[1]}, got shape {G.shape}"
                )
            gens.append(G)
        return MatrixZonotope(C, tuple(gens))
    if kind == "polyhedral_region":
        rho = _field(doc, "rho", 1)
        dim = int(doc["dim"]) if "dim" in doc else None
        return PolyhedralRegion(_matrix_field(doc, "L", rho.size, dim), rho)
    raise ValueError(f"unknown set document type {kind!r}")
