import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from hzreach import HybridZonotope, Zonotope, lift_zonotope, lp

# Every run draws the same examples, and no example database carries a
# failure from one checkout's run into the next: a test fails on every
# run or on none.  Each test keeps its own max_examples.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def benchmark_reach_config(seed=None) -> dict:
    """A fresh copy of configs/benchmark_pwa.json, the two-mode PWA
    reachability benchmark, with `seed` in place of its seed if given."""
    doc = json.loads((CONFIGS / "benchmark_pwa.json").read_text())
    if seed is not None:
        doc["seed"] = seed
    return doc


def mimo_estimation_config(seed=None, steps=None) -> dict:
    """A fresh copy of configs/mimo_estimation.json, the three-sensor
    estimation scenario, with `seed` in place of its seed and `steps` as
    both its horizon and its estimation steps, if given."""
    doc = json.loads((CONFIGS / "mimo_estimation.json").read_text())
    if seed is not None:
        doc["seed"] = seed
    if steps is not None:
        doc["horizon"] = doc["estimation"]["steps"] = steps
    return doc


def interval(lo: float, hi: float) -> HybridZonotope:
    """1-D interval [lo, hi] as a hybrid zonotope."""
    return lift_zonotope(Zonotope([0.5 * (lo + hi)], [[0.5 * (hi - lo)]]))


def box(center, halfwidth) -> HybridZonotope:
    center = np.asarray(center, dtype=float)
    halfwidth = np.broadcast_to(np.asarray(halfwidth, dtype=float), center.shape)
    return lift_zonotope(Zonotope(center, np.diag(halfwidth)))


def is_anchor(lhs) -> bool:
    """Whether a HiGHS model is a leaf-anchor LP: only `oracle._leaf_anchor`
    solves models with rows open below (lhs = -inf)."""
    return bool(np.isneginf(lhs).any())


def recorded_highs(monkeypatch, first_answer=None):
    """Record every HiGHS solve as (options, anchor, start, c, rhs): the
    option set passed to `lp._highs`, whether it is a leaf-anchor LP, the
    start basis, the cost vector and the row upper bounds.  `first_answer`,
    if given, edits the first result."""
    calls = []
    highs = lp._highs

    def fake(c, A, lhs, rhs, lb, ub, options, start=None, family=None):
        res = highs(c, A, lhs, rhs, lb, ub, options, start, family)
        calls.append(
            SimpleNamespace(
                options=options, anchor=is_anchor(lhs), start=start, c=c, rhs=rhs
            )
        )
        return first_answer(res) if first_answer and len(calls) == 1 else res

    monkeypatch.setattr(lp, "_highs", fake)
    return calls


def directions_2d(count: int = 16) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.fixture
def unit_box_2d() -> HybridZonotope:
    return box([0.0, 0.0], 1.0)
