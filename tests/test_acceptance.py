"""Acceptance gates for the package, one test per criterion.

Each test prints a PASS/FAIL line (visible with -s or -rA) and checks
its stated runtime budget.  Scenario constants come from the shipped
configurations in configs/; tolerances are pinned here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np

from hzreach import (
    Halfspace,
    HybridZonotope,
    MatrixZonotope,
    Zonotope,
    cartesian_product,
    generalized_intersection,
    halfspace_intersection,
    lift_zonotope,
    linear_map,
    matzono_times_set,
    minkowski_sum,
    oracle,
    union,
)
from hzreach.cli import (
    _build_output_models,
    cmd_bench,
    config_from_dict,
    main,
    read_measurement_csv,
    read_truth_csv,
    simulate,
    simulate_transitions,
)
from hzreach.estimate import estimate_online
from hzreach.ident import ModeDataset, identify_models, partition_trajectories
from hzreach.reach import (
    ReachOptions,
    make_family,
    reach_horizon,
    reach_step,
    representation_size,
    singleton_models,
)

from conftest import benchmark_reach_config, mimo_estimation_config

OPTS = ReachOptions(bin_cap=64)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_model_recovery():
    """Noiseless full-rank benchmark data recovers [A B] to 1e-8, zero width."""
    t0 = time.perf_counter()
    doc = benchmark_reach_config(seed=1001)
    doc["system"]["noise_w"]["generators"] = []
    cfg = config_from_dict(doc)
    rng = np.random.default_rng(cfg.seed)
    transitions = simulate_transitions(cfg, rng)
    datasets = partition_trajectories(transitions, cfg.system.regions)
    models = identify_models(datasets, cfg.system.noise_w)
    worst = 0.0
    for mz, (A, B) in zip(models, cfg.system.modes):
        assert mz.num_generators == 0
        worst = max(worst, float(np.linalg.norm(mz.center - np.hstack([A, B]))))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: exact model recovery",
        worst < 1e-8 and elapsed < 1.0,
        f"frobenius error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_model_set_containment():
    """True [A B] is a member of the model set in 50/50 noisy random trials."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    hits = 0
    for _ in range(50):
        A = rng.normal(size=(2, 2))
        A *= rng.uniform(0.3, 0.95) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-9)
        B = rng.normal(size=(2, 1))
        radius = rng.uniform(0.01, 0.1)
        T = int(rng.integers(10, 30))
        X_minus = rng.normal(size=(2, T))
        U_minus = rng.normal(size=(1, T))
        W = rng.uniform(-radius, radius, size=(2, T))
        X_plus = A @ X_minus + B @ U_minus + W
        d = ModeDataset(0, X_plus=X_plus, X_minus=X_minus, U_minus=U_minus)
        mz = identify_models([d], Zonotope(np.zeros(2), radius * np.eye(2)))[0]
        hits += oracle.matrix_membership(mz, np.hstack([A, B]), tol=1e-7)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2: model-set containment",
        hits == 50 and elapsed < 30.0,
        f"{hits}/50 trials, {elapsed:.1f}s",
    )


def test_criterion_3_reachability_soundness():
    """500 samples per step from the known-model sets lie in the data-driven sets."""
    t0 = time.perf_counter()
    cfg = config_from_dict(benchmark_reach_config(seed=3003))
    rng = np.random.default_rng(cfg.seed)
    transitions = simulate_transitions(cfg, rng)
    models = identify_models(
        partition_trajectories(transitions, cfg.system.regions), cfg.system.noise_w
    )
    input_hz = lift_zonotope(cfg.input_set)
    known = reach_horizon(
        cfg.initial_set, singleton_models(cfg.system), cfg.system.regions, input_hz,
        cfg.system.noise_w, 5, opts=OPTS,
    )
    data = reach_horizon(
        cfg.initial_set, models, cfg.system.regions, input_hz,
        cfg.system.noise_w, 5, opts=OPTS,
    )
    contained = 0
    total = 0
    for k in range(6):
        pts = oracle.sample(known[k].union_set, 500, seed=100 + k)
        for x in pts:
            total += 1
            contained += oracle.membership(data[k].union_set, x, 1e-7)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3: reachability soundness",
        contained == total == 3000 and elapsed < 300.0,
        f"{contained}/{total} contained, {elapsed:.0f}s",
    )


def test_criterion_4_operation_exactness_suite():
    """Closed-form set operations agree with the enumeration oracle."""
    t0 = time.perf_counter()
    unit_box = lift_zonotope(Zonotope([0.0, 0.0], np.eye(2)))

    def iv(lo, hi):
        return lift_zonotope(Zonotope([0.5 * (lo + hi)], [[0.5 * (hi - lo)]]))

    def hull_close(z, lo, hi):
        a, b = oracle.interval_hull(z)
        return np.allclose(a, lo, atol=1e-9) and np.allclose(b, hi, atol=1e-9)

    checks = []
    # lift
    z = lift_zonotope(Zonotope([0.0], [[1.0]]))
    checks.append(z.ng == 1 and z.nb == 0 and z.nc == 0)
    checks.append(lift_zonotope(Zonotope([2.0, 3.0], np.zeros((2, 0)))).ng == 0)
    grid = [
        oracle.membership(unit_box, [a, b], 1e-9) == (abs(a) <= 1 and abs(b) <= 1)
        for a in (-1.5, -1.0, 0.0, 1.0, 1.5)
        for b in (-1.5, 0.0, 1.5)
    ]
    checks.append(all(grid))
    # minkowski sum
    p = HybridZonotope.from_point([3.0, -1.0])
    checks.append(hull_close(minkowski_sum(p, unit_box), [2.0, -2.0], [4.0, 0.0]))
    checks.append(hull_close(minkowski_sum(iv(0, 1), iv(2, 3)), [2.0], [4.0]))
    zero = HybridZonotope.from_point([0.0, 0.0])
    s = minkowski_sum(unit_box, zero)
    checks.append(
        all(
            abs(oracle.support(s, d) - oracle.support(unit_box, d)) < 1e-9
            for d in _dirs(16)
        )
    )
    # generalized intersection
    self_int = generalized_intersection(unit_box, np.eye(2), unit_box)
    checks.append(
        all(
            oracle.membership(self_int, x, 1e-7)
            for x in oracle.sample(unit_box, 100, seed=0)
        )
    )
    other = lift_zonotope(Zonotope([1.0, 1.0], np.eye(2)))
    checks.append(
        hull_close(
            generalized_intersection(unit_box, np.eye(2), other), [0.0, 0.0], [1.0, 1.0]
        )
    )
    far = lift_zonotope(Zonotope([5.0, 5.0], np.eye(2)))
    checks.append(oracle.is_empty(generalized_intersection(unit_box, np.eye(2), far)))
    # halfspace intersection
    half = halfspace_intersection(unit_box, Halfspace([1.0, 0.0], 0.0))
    checks.append(
        abs(half.Ac[0, 0] - 1.0) < 1e-12
        and abs(half.Ac[0, 2] - 0.5) < 1e-12
        and abs(half.b[0] + 0.5) < 1e-12
    )
    checks.append(hull_close(half, [-1.0, -1.0], [0.0, 1.0]))
    inside = halfspace_intersection(unit_box, Halfspace([1.0, 0.0], 10.0))
    checks.append(
        all(
            abs(oracle.support(inside, d) - oracle.support(unit_box, d)) < 1e-9
            for d in _dirs(16)
        )
    )
    checks.append(
        oracle.is_empty(halfspace_intersection(unit_box, Halfspace([1.0, 0.0], -10.0)))
    )
    # linear map
    checks.append(hull_close(linear_map(2.0 * np.eye(2), unit_box), [-2, -2], [2, 2]))
    quarter = lift_zonotope(Zonotope([0.5, -0.5], np.diag([0.5, 0.5])))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    checks.append(hull_close(linear_map(rot, quarter), [0.0, 0.0], [1.0, 1.0]))
    # cartesian product
    prod = cartesian_product(iv(0, 1), iv(2, 3))
    checks.append(hull_close(prod, [0.0, 2.0], [1.0, 3.0]))
    with_pt = cartesian_product(unit_box, HybridZonotope.from_point([7.0]))
    checks.append(
        all(abs(x[2] - 7.0) < 1e-9 for x in oracle.sample(with_pt, 20, seed=1))
    )
    cube = cartesian_product(unit_box, iv(-1, 1))
    checks.append(hull_close(cube, -np.ones(3), np.ones(3)))
    # union
    u = union(iv(-1, 0), iv(1, 2))
    checks.append(oracle.membership(u, [-0.5], 1e-9))
    checks.append(oracle.membership(u, [1.5], 1e-9))
    checks.append(not oracle.membership(u, [0.5], 1e-9))
    self_u = union(unit_box, unit_box)
    checks.append(
        all(
            abs(oracle.support(self_u, d) - oracle.support(unit_box, d)) < 1e-9
            for d in _dirs(16)
        )
    )
    left = lift_zonotope(Zonotope([-0.5, 0.0], np.diag([0.5, 1.0])))
    right = lift_zonotope(Zonotope([0.5, 0.0], np.diag([0.5, 1.0])))
    touching = union(left, right)
    checks.append(hull_close(touching, [-1.0, -1.0], [1.0, 1.0]))
    checks.append(oracle.membership(touching, [0.0, 0.0], 1e-9))
    # matrix zonotope product
    M0 = MatrixZonotope(np.array([[0.5, 0.0], [0.0, 2.0]]), ())
    prod0 = matzono_times_set(M0, unit_box)
    mapped = linear_map(M0.center, unit_box)
    checks.append(
        all(
            abs(oracle.support(prod0, d) - oracle.support(mapped, d)) < 1e-9
            for d in _dirs(16)
        )
    )
    M1 = MatrixZonotope(np.array([[0.5]]), (np.array([[0.1]]),))
    prod1 = matzono_times_set(M1, iv(-1, 1))
    checks.append(
        all(
            oracle.membership(prod1, [a * x], 1e-9)
            for a in np.linspace(0.4, 0.6, 5)
            for x in np.linspace(-1, 1, 5)
        )
    )
    rngp = np.random.default_rng(3)
    Mp = MatrixZonotope(
        rngp.normal(size=(2, 2)), tuple(0.2 * rngp.normal(size=(2, 2)) for _ in range(2))
    )
    pt = np.array([0.7, -1.3])
    prod2 = matzono_times_set(Mp, HybridZonotope.from_point(pt))
    ok_pt = all(
        oracle.membership(
            prod2,
            (Mp.center + sum(b * G for b, G in zip(beta, Mp.generators))) @ pt,
            1e-7,
        )
        for beta in rngp.uniform(-1, 1, size=(30, 2))
    )
    checks.append(ok_pt)
    # support additivity on random pairs
    rng = np.random.default_rng(4004)
    additive = True
    for _ in range(20):
        z1 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 3))))
        z2 = lift_zonotope(Zonotope(rng.normal(size=2), rng.normal(size=(2, 2))))
        sz = minkowski_sum(z1, z2)
        for d in _dirs(16):
            gap = abs(
                oracle.support(sz, d) - oracle.support(z1, d) - oracle.support(z2, d)
            )
            additive = additive and gap <= 1e-9
    checks.append(additive)

    elapsed = time.perf_counter() - t0
    report(
        "criterion 4: operation exactness suite",
        all(checks) and elapsed < 60.0,
        f"{sum(checks)}/{len(checks)} checks, {elapsed:.1f}s",
    )


def _dirs(count):
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _run_mimo_scenario(tmp_path: Path, seed: int, steps: int = 20):
    doc = mimo_estimation_config(seed=seed, steps=steps)
    cfg = config_from_dict(doc)
    out = tmp_path / f"scenario_{seed}"
    simulate(cfg, out)
    models = _build_output_models(cfg, out)
    stream = read_measurement_csv(out / "measurements.csv", cfg.input_dim)
    truth = read_truth_csv(out / "estimate_truth.csv")
    run = estimate_online(
        cfg.initial_set,
        stream,
        models,
        cfg.system.regions,
        cfg.system.sensors,
        cfg.system.noise_w,
        method="all",
        N=steps,
        alpha=cfg.alpha,
        opts=cfg.reach_options(),
    )
    return run, truth


def test_criterion_5_three_method_equivalence(tmp_path):
    """Max support gap among RM/IN/GI stays below 1e-4 over 20 steps."""
    t0 = time.perf_counter()
    run, _ = _run_mimo_scenario(tmp_path, seed=5005, steps=20)
    dirs = _dirs(32)
    worst = 0.0
    for step in run.steps:
        sups = {
            m: np.array(
                [oracle.support(step.corrected[m], d) for d in dirs]
            )
            for m in ("rm", "in", "gi")
        }
        for a, b in (("rm", "in"), ("rm", "gi"), ("in", "gi")):
            worst = max(worst, float(np.abs(sups[a] - sups[b]).max()))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5: three-method equivalence",
        worst <= 1e-4 and elapsed < 120.0,
        f"max support gap {worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_estimation_soundness(tmp_path):
    """True state inside every corrected set, every method, 20 steps x 10 seeds."""
    t0 = time.perf_counter()
    failures = []
    for seed in range(6100, 6110):
        run, truth = _run_mimo_scenario(tmp_path, seed=seed, steps=20)
        for k, step in enumerate(run.steps):
            for m in ("rm", "in", "gi"):
                if not oracle.membership(step.corrected[m], truth[k], 1e-7):
                    failures.append((seed, k, m))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6: estimation soundness",
        not failures and elapsed < 300.0,
        f"failures {failures[:5]}, {elapsed:.0f}s" if failures else f"10 seeds clean, {elapsed:.0f}s",
    )


def test_criterion_7_timing_ordering(tmp_path):
    """Median measurement-update times: RM strictly below IN (hard gate)."""
    t0 = time.perf_counter()
    cfg = config_from_dict(mimo_estimation_config(seed=7007, steps=20))
    out = tmp_path / "bench"
    assert cmd_bench(cfg, out, repeats=150) == 0
    rows = (out / "stats.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    medians = {}
    for line in rows[1:]:
        cells = line.split(",")
        medians[cells[0]] = float(cells[header.index("median")])
    order = sorted(medians, key=medians.get)
    elapsed = time.perf_counter() - t0
    detail = (
        "medians "
        + ", ".join(f"{m}={medians[m]*1e6:.0f}us" for m in ("rm", "in", "gi"))
        + f"; observed ordering {' < '.join(order)}; the gate checks rm < in"
    )
    report(
        "criterion 7: timing ordering (rm < in)",
        medians["rm"] < medians["in"] and elapsed < 120.0,
        detail,
    )


def test_criterion_8_growth_trend():
    """Per-step wall time and representation size over six steps: monotone,
    superlinear growth (increasing time differences, ratios above one).

    The raw step-ratio series is reported for the record: it fluctuates
    around a constant factor of roughly four (exponential growth), and
    is not itself monotone -- constant ratios are what exponential
    growth looks like.
    """
    t0 = time.perf_counter()
    cfg = config_from_dict(benchmark_reach_config(seed=8008))
    rng = np.random.default_rng(cfg.seed)
    transitions = simulate_transitions(cfg, rng)
    models = identify_models(
        partition_trajectories(transitions, cfg.system.regions), cfg.system.noise_w
    )
    opts = ReachOptions(bin_cap=128)
    input_hz = lift_zonotope(cfg.input_set)

    def polygon(z):
        for d in _dirs(64):
            oracle.support(z, d)

    def run_once():
        fam = make_family(0, cfg.initial_set, cfg.system.regions, opts)
        times = []
        sizes = [representation_size(fam.union_set)]
        for _ in range(6):
            s0 = time.perf_counter()
            fam = reach_step(
                fam, models, cfg.system.regions, input_hz, cfg.system.noise_w, opts=opts
            )
            polygon(fam.union_set)
            times.append(time.perf_counter() - s0)
            sizes.append(representation_size(fam.union_set))
        return np.array(times), sizes

    run_once()  # warm-up
    samples = [run_once() for _ in range(3)]
    times = np.median(np.array([s[0] for s in samples]), axis=0)
    sizes = samples[0][1]
    ratios = times[1:] / times[:-1]
    sizes_monotone = all(b > a for a, b in zip(sizes, sizes[1:]))
    times_monotone = bool(np.all(np.diff(times) > 0))
    superlinear = bool(np.all(np.diff(np.diff(times)) > 0)) and bool(
        np.all(ratios > 1.0)
    )
    elapsed = time.perf_counter() - t0
    detail = (
        f"sizes {sizes}; per-step seconds {[f'{t:.3f}' for t in times]}; "
        f"ratios {[f'{r:.2f}' for r in ratios]}; {elapsed:.0f}s"
    )
    report(
        "criterion 8: growth trend",
        sizes_monotone and times_monotone and superlinear and elapsed < 600.0,
        detail,
    )


def test_criterion_9_determinism(tmp_path):
    """simulate + reach + estimate twice with one seed: byte-identical outputs."""
    t0 = time.perf_counter()
    doc = mimo_estimation_config(seed=9009, steps=3)
    doc["data"] = {"episodes": 1, "length": 15}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))

    def run(out):
        assert main(["simulate", "--config", str(cfg_path), "--out", out]) == 0
        assert main(["identify", "--config", str(cfg_path), "--out", out]) == 0
        assert main(
            ["reach", "--config", str(cfg_path), "--out", out, "--steps", "3"]
        ) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", out]) == 0

    run(str(tmp_path / "a"))
    run(str(tmp_path / "b"))
    mismatches = []
    for name in (
        "trajectory.csv", "measurements.csv", "estimate_truth.csv", "modes.csv",
        "models.json", "reach_sets_data.json", "reach_sets_known.json",
        "polygons.csv", "estimate_sets.json", "bounds.csv", "equivalence.csv",
    ):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            mismatches.append(name)
    # sizes.csv carries wall-clock columns and is excluded as a timing file.
    elapsed = time.perf_counter() - t0
    report(
        "criterion 9: determinism",
        not mismatches,
        f"mismatches {mismatches}, {elapsed:.0f}s" if mismatches else f"{elapsed:.0f}s",
    )
