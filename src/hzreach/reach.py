"""Data-driven reachable-set propagation for PWA systems.

One step: restrict the current set to every region, push each nonempty
piece through its mode's model set (plus process noise), and take the
exact union of the branches.  Empty branches are pruned semantically to
curb representation growth; the union itself is the binary-selector
construction from :mod:`hzreach.setops`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .setops import (
    Halfspace,
    HybridZonotope,
    MatrixZonotope,
    PolyhedralRegion,
    Zonotope,
    cartesian_product,
    empty_hz,
    halfspace_intersection,
    lift_zonotope,
    matzono_times_set,
    minkowski_sum,
    union,
)


@dataclass(frozen=True)
class ReachOptions:
    """Binary cap for the reachability loop."""

    bin_cap: int = 64  # most binary factors a family's union may carry


@dataclass(frozen=True)
class ReachFamily:
    """Reachable set at one step: the union and its per-region restrictions."""

    step: int
    union_set: HybridZonotope
    per_mode: tuple
    empty: tuple


def as_hybrid(obj) -> HybridZonotope:
    if isinstance(obj, HybridZonotope):
        return obj
    if isinstance(obj, Zonotope):
        return lift_zonotope(obj)
    return HybridZonotope.from_point(np.asarray(obj, dtype=float))


def restrict_to_region(z: HybridZonotope, region: PolyhedralRegion) -> HybridZonotope:
    """z intersected with { x : L x <= rho }, one halfspace row at a time."""
    out = z
    for j in range(region.num_halfspaces):
        out = halfspace_intersection(out, Halfspace(region.L[j], region.rho[j]))
    return out


def make_family(
    step: int, union_set: HybridZonotope, regions, opts: ReachOptions
) -> ReachFamily:
    """Restrict union_set to each region and mark the empty pieces.

    Raises EnumerationCapError when union_set has more than opts.bin_cap
    binary factors; every reach step and estimation step goes through here.
    """
    check_cap(union_set, opts)
    per_mode = []
    empty = []
    for region in regions:
        piece = restrict_to_region(union_set, region)
        per_mode.append(piece)
        empty.append(oracle.is_empty(piece))
    return ReachFamily(step, union_set, tuple(per_mode), tuple(empty))


def check_cap(z: HybridZonotope, opts: ReachOptions) -> None:
    """Raise EnumerationCapError when z has more than opts.bin_cap binaries."""
    if z.nb > opts.bin_cap:
        raise oracle.EnumerationCapError(
            f"set has {z.nb} binary factors, cap is {opts.bin_cap}"
        )


def propagate_mode(
    model: MatrixZonotope,
    state_set: HybridZonotope,
    input_set,
    noise: Zonotope,
):
    """model @ (state x input) + noise; None marks an empty state set."""
    input_hz = as_hybrid(input_set)
    if model.shape[1] != state_set.dim + input_hz.dim:
        raise ValueError("model columns must equal state dim + input dim")
    product = cartesian_product(state_set, input_hz)
    try:
        mapped = matzono_times_set(model, product)
    except oracle.EmptySetError:
        return None
    return minkowski_sum(mapped, lift_zonotope(noise))


def reach_step(
    family: ReachFamily,
    models,
    regions,
    input_set,
    noise: Zonotope,
    *,
    opts: ReachOptions = ReachOptions(),
) -> ReachFamily:
    """One update: per-mode restriction, propagation, union of branches.

    Every active mode reads the same `input_set`: a set, or a point given
    as an array or a list (see `as_hybrid`).
    """
    if len(models) != len(regions):
        raise ValueError("one model per region is required")
    branches = []
    for i in range(len(regions)):
        if family.empty[i]:
            continue
        branch = propagate_mode(models[i], family.per_mode[i], input_set, noise)
        if branch is not None:
            branches.append(branch)
    if not branches:
        new_union = empty_hz(family.union_set.dim)
    else:
        new_union = branches[0]
        for branch in branches[1:]:
            new_union = union(new_union, branch)
    return make_family(family.step + 1, new_union, regions, opts)


def reach_horizon(
    initial,
    models,
    regions,
    input_set,
    noise: Zonotope,
    N: int,
    *,
    opts: ReachOptions = ReachOptions(),
) -> list:
    """Families for steps 0..N; family[0] wraps the initial set verbatim.

    `input_set` goes to every step and every mode unchanged, as in
    `reach_step`.  For a known system, pass `singleton_models(spec)`.
    """
    if N < 0:
        raise ValueError("horizon must be nonnegative")
    families = [make_family(0, as_hybrid(initial), regions, opts)]
    for _ in range(N):
        families.append(
            reach_step(families[-1], models, regions, input_set, noise, opts=opts)
        )
    return families


def singleton_models(sys_spec) -> list:
    """Generator-free matrix zonotopes [A_i B_i] for a known system."""
    if sys_spec.modes is None:
        raise ValueError("system spec carries no known modes")
    return [MatrixZonotope(np.hstack([A, B]), ()) for A, B in sys_spec.modes]


def representation_size(z: HybridZonotope) -> int:
    """Total generators plus constraint rows (growth diagnostics)."""
    return z.ng + z.nb + z.nc
