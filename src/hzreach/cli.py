"""Command-line front end: simulate, identify, reach, estimate, bench.

All commands consume a single JSON configuration document (matrices as
row-major nested lists) and write JSON/CSV outputs into --out.  Runs are
deterministic for a fixed seed; only wall-clock timing columns vary.

Exit codes: 0 success, 2 identification failure, 3 estimation
infeasibility, 1 anything else, a malformed command line included.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .estimate import (
    METHODS,
    EstimationInfeasible,
    SensorReading,
    StepData,
    equivalence_report,
    estimate_online,
    _spread_directions,
    rm_bound_policy,
    time_update,
    update_gi,
    update_in,
    update_rm,
)
from .ident import (
    NoRegionError,
    PwaSystemSpec,
    RankDeficiencyError,
    Sensor,
    Transition,
    identify_models,
    identify_models_from_outputs,
    partition_trajectories,
    read_trajectory_csv,
    region_index,
)
from .reach import (
    ReachOptions,
    make_family,
    reach_step,
    representation_size,
    singleton_models,
)
from .setops import (
    HybridZonotope,
    Zonotope,
    finite_array,
    from_dict,
    lift_zonotope,
    to_dict,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_IDENT = 2
EXIT_ESTIMATE = 3

TRAJECTORY_FILE = "trajectory.csv"
MEASUREMENT_FILE = "measurements.csv"
TRUTH_FILE = "estimate_truth.csv"
MODE_TAG_FILE = "modes.csv"
MODELS_FILE = "models.json"
METHOD_CHOICES = (*METHODS, "all")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    system: PwaSystemSpec
    initial_set: HybridZonotope
    input_set: Zonotope
    horizon: int
    episodes: int
    episode_length: int
    alpha: float
    a_bound: float
    method: str
    estimation_steps: int
    x0_true: np.ndarray | None
    bin_cap: int
    output_dir: str

    @property
    def state_dim(self) -> int:
        return self.system.dim

    @property
    def input_dim(self) -> int:
        return self.input_set.dim

    def reach_options(self) -> ReachOptions:
        return ReachOptions(bin_cap=self.bin_cap)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _typed(value, kind: type, name: str):
    """`value`, which must be a JSON object (kind dict) or array (kind list);
    a ValueError names the field otherwise."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ValueError(f"{name}: must be {what}, got {value!r}")
    return value


def _object(doc, name: str, *fields) -> dict:
    """`doc`, a JSON object with no key outside `fields`; a ValueError names
    the path of any other key (the top level's path is "")."""
    for key in _typed(doc, dict, name or "configuration"):
        if key not in fields:
            raise ValueError(f"{name}{'.' if name else ''}{key}: unknown field")
    return doc


def _objects(doc, name: str, *fields) -> list:
    """doc's list at the path `name` (empty if absent) of _objects `name[i]`."""
    docs = _typed(doc.get(name.rpartition(".")[2], []), list, name)
    return [_object(d, f"{name}[{i}]", *fields) for i, d in enumerate(docs)]


def _set_field(doc, name: str):
    """from_dict(doc) with the configuration path of the field in any error."""
    _typed(doc, dict, name)
    try:
        return from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _required(doc, name: str):
    """The _object doc's entry at the path `name`; a ValueError names a missing one."""
    key = name.rpartition(".")[2]
    if key not in doc:
        raise ValueError(f"{name}: missing")
    return doc[key]


def _finite_float(value, name: str) -> float:
    return float(finite_array(value, name, 0))


def _choice(value, choices, name: str) -> str:
    """One of `choices`; a ValueError names the field otherwise."""
    if value not in choices:
        raise ValueError(f"{name}: must be one of {', '.join(choices)}, got {value!r}")
    return value


def _count(value, name: str) -> int:
    """A nonnegative integer entry; a ValueError names the field otherwise."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name}: must be a nonnegative integer, got {value!r}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse a configuration document; a ValueError names any bad field."""
    _object(doc, "", "seed", "system", "initial_set", "input_set", "horizon", "data",
            "estimation", "reach", "output_dir")
    if "seed" not in doc:
        raise ValueError("configuration must carry a seed")
    sysdoc = _required(doc, "system")
    _object(sysdoc, "system", "regions", "noise_w", "modes", "sensors")
    region_docs = _typed(_required(sysdoc, "system.regions"), list, "system.regions")
    regions = tuple(_set_field(r, f"system.regions[{i}]") for i, r in enumerate(region_docs))
    noise_w = _set_field(_required(sysdoc, "system.noise_w"), "system.noise_w")
    modes = tuple(
        (
            finite_array(_required(m, f"system.modes[{i}].A"), f"system.modes[{i}].A", 2),
            finite_array(_required(m, f"system.modes[{i}].B"), f"system.modes[{i}].B", 2),
        )
        for i, m in enumerate(_objects(sysdoc, "system.modes", "A", "B"))
    ) or None
    sensors = tuple(
        Sensor(
            finite_array(_required(s, f"system.sensors[{j}].C"), f"system.sensors[{j}].C"),
            _set_field(
                _required(s, f"system.sensors[{j}].noise"), f"system.sensors[{j}].noise"
            ),
        )
        for j, s in enumerate(_objects(sysdoc, "system.sensors", "C", "noise"))
    )
    system = PwaSystemSpec(
        regions=regions, noise_w=noise_w, modes=modes, sensors=sensors
    )
    initial = _set_field(_required(doc, "initial_set"), "initial_set")
    if isinstance(initial, Zonotope):
        initial = lift_zonotope(initial)
    input_set = _set_field(_required(doc, "input_set"), "input_set")
    est = _object(doc.get("estimation", {}), "estimation", "method", "models", "a_bound",
                  "alpha", "steps", "x0_true")
    data = _object(doc.get("data", {}), "data", "episodes", "length")
    reach_doc = _object(doc.get("reach", {}), "reach", "bin_cap")
    x0_true = est.get("x0_true")
    # Estimation models always come from output data; the key may name that.
    _choice(est.get("models", "outputs"), ("outputs",), "estimation.models")
    a_bound = _finite_float(est.get("a_bound", 1.5), "estimation.a_bound")
    if a_bound <= 0:
        raise ValueError(f"estimation.a_bound: must be positive, got {a_bound!r}")
    cfg = ExperimentConfig(
        seed=_count(doc["seed"], "seed"),
        system=system,
        initial_set=initial,
        input_set=input_set,
        horizon=_count(doc.get("horizon", 5), "horizon"),
        episodes=_count(data.get("episodes", 2), "data.episodes"),
        episode_length=_count(data.get("length", 25), "data.length"),
        alpha=_finite_float(est.get("alpha", 1.0), "estimation.alpha"),
        a_bound=a_bound,
        method=_choice(est.get("method", "all"), METHOD_CHOICES, "estimation.method"),
        estimation_steps=_count(
            est.get("steps", doc.get("horizon", 20)), "estimation.steps"
        ),
        x0_true=(
            None
            if x0_true is None
            else finite_array(x0_true, "estimation.x0_true", 1)
        ),
        bin_cap=_count(reach_doc.get("bin_cap", 64), "reach.bin_cap"),
        output_dir=str(doc.get("output_dir", "out")),
    )
    _validate_dimensions(cfg)
    return cfg


def _validate_dimensions(cfg: ExperimentConfig) -> None:
    n = cfg.system.dim
    if cfg.initial_set.dim != n:
        raise ValueError("initial set dimension does not match the regions")
    for i, (A, B) in enumerate(cfg.system.modes or ()):
        if A.shape != (n, n):
            raise ValueError(f"system.modes[{i}].A must be {n} x {n}, got {A.shape}")
        if B.shape != (n, cfg.input_set.dim):
            raise ValueError(
                f"system.modes[{i}].B must be {n} x {cfg.input_set.dim}, got {B.shape}"
            )
    for j, s in enumerate(cfg.system.sensors):
        if s.C.shape[1] != n:
            raise ValueError(f"system.sensors[{j}].C columns must match the state dimension")
    if cfg.x0_true is not None and cfg.x0_true.size != n:
        raise ValueError("true initial state dimension mismatch")


# ---------------------------------------------------------------------------
# Output helpers (deterministic formatting)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# simulate


def _draw(rng, z: Zonotope) -> np.ndarray:
    if z.num_generators == 0:
        return z.center.copy()
    return z.center + z.generators @ rng.uniform(-1.0, 1.0, z.num_generators)


def _rollout(rng, cfg: ExperimentConfig, x, steps: int, where: str):
    """Roll the known system out from x for `steps` steps.

    Yields (k, region, x, u, readings) for k = 0..steps, where readings
    holds one output per sensor at x.  Per step, rng draws the input (none
    at the last step, whose u is zero), then each sensor's noise, then the
    process noise.  A state in no region raises NoRegionError prefixed
    with f"{where}{k}: ".
    """
    for k in range(steps + 1):
        try:
            i = region_index(x, cfg.system.regions)
        except NoRegionError as exc:
            raise NoRegionError(f"{where}{k}: {exc}") from None
        u = _draw(rng, cfg.input_set) if k < steps else np.zeros(cfg.input_dim)
        readings = [s.C @ x + _draw(rng, s.noise) for s in cfg.system.sensors]
        yield k, i, x, u, readings
        if k < steps:
            A, B = cfg.system.modes[i]
            x = A @ x + B @ u + _draw(rng, cfg.system.noise_w)


def _episodes(rng, cfg: ExperimentConfig) -> list:
    """`cfg.episodes` rollouts, each from a point drawn in the initial set."""
    start = Zonotope(cfg.initial_set.c, cfg.initial_set.Gc)
    episodes = []
    for e in range(cfg.episodes):
        x = _draw(rng, start)
        where = f"episode {e}, step "
        episodes.append(list(_rollout(rng, cfg, x, cfg.episode_length, where)))
    return episodes


def simulate(cfg: ExperimentConfig, out_dir: Path, seed: int | None = None) -> dict:
    """Roll the known PWA system out; writes the data files identification
    and estimation consume, plus the true states for verification."""
    if cfg.system.modes is None:
        raise ValueError("simulate requires known mode matrices")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    sensors = cfg.system.sensors
    n, m = cfg.state_dim, cfg.input_dim
    out_dir.mkdir(parents=True, exist_ok=True)

    header = ["k"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
    p_total = sum(s.output_dim for s in sensors)
    header += [f"y{i+1}" for i in range(p_total)]

    traj_rows = []
    mode_rows = []
    for episode, rows in enumerate(_episodes(rng, cfg)):
        if episode:
            traj_rows.append([])  # blank separator line
        for k, i, x, u, readings in rows:
            traj_rows.append([k, *x, *u, *(v for y in readings for v in y)])
            mode_rows.append([episode, k, i])
    paths = {"trajectory": out_dir / TRAJECTORY_FILE, "modes": out_dir / MODE_TAG_FILE}
    _write_csv(paths["trajectory"], header, traj_rows)
    _write_csv(paths["modes"], ["episode", "k", "region"], mode_rows)

    if sensors and cfg.x0_true is not None:
        meas_rows = []
        truth_rows = []
        for k, _, x, u, readings in _rollout(
            rng, cfg, cfg.x0_true, cfg.estimation_steps, "estimation step "
        ):
            truth_rows.append([k, *x])
            meas_rows += [[k, *u, j, *y] for j, y in enumerate(readings)]
        paths["measurements"] = out_dir / MEASUREMENT_FILE
        paths["truth"] = out_dir / TRUTH_FILE
        _write_csv(
            paths["measurements"],
            ["k"] + [f"u{i+1}" for i in range(m)] + ["j", "y..."],
            meas_rows,
        )
        _write_csv(paths["truth"], ["k"] + [f"x{i+1}" for i in range(n)], truth_rows)
    return paths


def simulate_transitions(cfg: ExperimentConfig, rng) -> list:
    """Identification data in memory: the transitions of `cfg.episodes`
    rollouts of the known system, each from a point drawn in the initial
    set and `episode_length` steps long.

    The rollouts are `simulate`'s, so for the same rng the result equals,
    bit for bit, what read_trajectory_csv reads back from its
    trajectory.csv: consecutive states of an episode paired, with y and
    y_next the stacked sensor readings at x and x_next (None without
    sensors).
    """
    if cfg.system.modes is None:
        raise ValueError("simulating transitions requires known mode matrices")

    def outputs(readings):
        return np.concatenate(readings) if readings else None

    transitions = []
    for rows in _episodes(rng, cfg):
        for (_, _, x, u, y), (_, _, x_next, _, y_next) in zip(rows, rows[1:]):
            transitions.append(
                Transition(x, u, x_next, outputs(y), outputs(y_next))
            )
    return transitions


def read_measurement_csv(path, input_dim: int) -> list:
    """Measurement stream rows k, u.., j, y..; one row per sensor reading."""
    per_step: dict[int, dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for raw in reader:
            if not raw:
                continue
            k = int(float(raw[0]))
            u = np.array([float(v) for v in raw[1 : 1 + input_dim]])
            j = int(float(raw[1 + input_dim]))
            y = np.array([float(v) for v in raw[2 + input_dim :]])
            entry = per_step.setdefault(k, {"u": u, "readings": []})
            entry["readings"].append(SensorReading(j, y, k))
    stream = []
    for k in sorted(per_step):
        entry = per_step[k]
        stream.append(StepData(readings=tuple(entry["readings"]), u=entry["u"]))
    return stream


def read_truth_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row[1:]] for row in reader if row])


# ---------------------------------------------------------------------------
# identify


def cmd_identify(cfg: ExperimentConfig, data_dir: Path, out_dir: Path) -> int:
    transitions = read_trajectory_csv(
        data_dir / TRAJECTORY_FILE, cfg.state_dim, cfg.input_dim
    )
    datasets = partition_trajectories(transitions, cfg.system.regions)
    for d in datasets:
        D = np.vstack([d.X_minus, d.U_minus])
        svals = np.linalg.svd(D, compute_uv=False)
        print(
            f"mode {d.mode_index}: T={d.length} "
            f"sigma_max={svals[0]:.3e} sigma_min={svals[-1]:.3e}"
        )
    models = identify_models(datasets, cfg.system.noise_w)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / MODELS_FILE, {"modes": [to_dict(mz) for mz in models]})
    print(f"wrote {out_dir / MODELS_FILE}")
    return EXIT_OK


def load_models(path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    return [_set_field(m, f"modes[{i}]") for i, m in enumerate(doc["modes"])]


# ---------------------------------------------------------------------------
# reach


def _support_polygon(z: HybridZonotope, count: int):
    """Outer polygon from `count` support directions (2-D only)."""
    dirs = _spread_directions(2, count)
    values = [oracle.support(z, d) for d in dirs]
    if not all(np.isfinite(values)):  # empty set: no outline to export
        return []
    vertices = []
    for i in range(count):
        j = (i + 1) % count
        Dm = np.vstack([dirs[i], dirs[j]])
        vertices.append(np.linalg.solve(Dm, [values[i], values[j]]))
    return vertices


def _run_reach(
    label: str,
    initial: HybridZonotope,
    models,
    cfg: ExperimentConfig,
    steps: int,
    opts: ReachOptions,
):
    families = [make_family(0, initial, cfg.system.regions, opts)]
    times = [0.0]
    for _ in range(steps):
        t0 = time.perf_counter()
        families.append(
            reach_step(
                families[-1],
                models,
                cfg.system.regions,
                lift_zonotope(cfg.input_set),
                cfg.system.noise_w,
                opts=opts,
            )
        )
        times.append(time.perf_counter() - t0)
    step_docs = []
    size_rows = []
    polygon_rows = []
    for fam, dt in zip(families, times):
        z = fam.union_set
        step_docs.append(
            {
                "k": fam.step,
                "union": to_dict(z),
                "per_mode": [to_dict(p) for p in fam.per_mode],
                "empty": list(fam.empty),
            }
        )
        size_rows.append(
            [label, fam.step, z.ng, z.nb, z.nc, representation_size(z), float(dt)]
        )
        if z.dim == 2:
            for idx, v in enumerate(_support_polygon(z, 64)):
                polygon_rows.append([label, fam.step, idx, float(v[0]), float(v[1])])
    return {"label": label, "steps": step_docs}, size_rows, polygon_rows


def cmd_reach(
    cfg: ExperimentConfig,
    out_dir: Path,
    steps: int | None = None,
    models_path: Path | None = None,
) -> int:
    opts = cfg.reach_options()
    steps = cfg.horizon if steps is None else steps
    runs = []
    if models_path is not None and Path(models_path).exists():
        runs.append(("data", load_models(models_path)))
    if cfg.system.modes is not None:
        runs.append(("known", singleton_models(cfg.system)))
    if not runs:
        raise ValueError("cmd_reach needs identified models or known modes")
    out_dir.mkdir(parents=True, exist_ok=True)

    size_rows = []
    polygon_rows = []
    for label, models in runs:
        doc, sizes, polys = _run_reach(
            label, cfg.initial_set, models, cfg, steps, opts
        )
        _write_json(out_dir / f"reach_sets_{label}.json", doc)
        size_rows.extend(sizes)
        polygon_rows.extend(polys)
        print(f"{label}: {steps} steps, final size {sizes[-1][5]}")
    _write_csv(
        out_dir / "sizes.csv",
        ["run", "step", "ng", "nb", "nc", "total", "seconds"],
        size_rows,
    )
    _write_csv(
        out_dir / "polygons.csv",
        ["run", "step", "vertex", "x1", "x2"],
        polygon_rows,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _build_output_models(cfg: ExperimentConfig, data_dir: Path):
    transitions = read_trajectory_csv(
        data_dir / TRAJECTORY_FILE, cfg.state_dim, cfg.input_dim
    )
    datasets = partition_trajectories(transitions, cfg.system.regions)
    return identify_models_from_outputs(
        datasets, cfg.system.sensors, cfg.system.noise_w, cfg.a_bound
    )


def cmd_estimate(
    cfg: ExperimentConfig,
    data_dir: Path,
    out_dir: Path,
    method: str | None = None,
) -> int:
    if not cfg.system.sensors:
        raise ValueError("estimate needs a system with sensors")
    method = cfg.method if method is None else method
    models = _build_output_models(cfg, data_dir)
    stream = read_measurement_csv(data_dir / MEASUREMENT_FILE, cfg.input_dim)
    opts = cfg.reach_options()
    run = estimate_online(
        cfg.initial_set,
        stream,
        models,
        cfg.system.regions,
        cfg.system.sensors,
        cfg.system.noise_w,
        method=method,
        N=cfg.estimation_steps,
        alpha=cfg.alpha,
        opts=opts,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    step_docs = []
    bound_rows = []
    for step in run.steps:
        doc = {"k": step.step, "sets": {}}
        if step.rm_bound is not None:
            doc["rm_bound"] = step.rm_bound
        for m, z in step.corrected.items():
            if z is None:
                continue
            doc["sets"][m] = to_dict(z)
            lo, hi = oracle.interval_hull(z)
            for d in range(z.dim):
                bound_rows.append([m, step.step, d, float(lo[d]), float(hi[d])])
        step_docs.append(doc)
    _write_json(out_dir / "estimate_sets.json", {"method": method, "steps": step_docs})
    _write_csv(
        out_dir / "bounds.csv", ["method", "step", "dim", "lo", "hi"], bound_rows
    )

    if method == "all":
        eq_rows = []
        for step in run.steps:
            for pair in (("rm", "in"), ("rm", "gi"), ("in", "gi")):
                if step.corrected[pair[0]] is None or step.corrected[pair[1]] is None:
                    continue
                rep = equivalence_report(
                    step.corrected[pair[0]],
                    step.corrected[pair[1]],
                    directions=32,
                    tol=1e-7,
                    opts=opts,
                )
                eq_rows.append(
                    [
                        step.step,
                        f"{pair[0]}-{pair[1]}",
                        float(rep.max_gap),
                        rep.a_in_b,
                        rep.b_in_a,
                        rep.num_directions,
                        rep.num_samples,
                    ]
                )
        _write_csv(
            out_dir / "equivalence.csv",
            ["step", "pair", "max_gap", "a_in_b", "b_in_a", "directions", "samples"],
            eq_rows,
        )
        max_gap = max(row[2] for row in eq_rows)
        print(f"equivalence: max support gap {max_gap:.3e} over all steps/pairs")
    print(f"wrote {out_dir / 'estimate_sets.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def build_bench_workload(cfg: ExperimentConfig, seed: int | None = None):
    """Fixed measurement-update workload from the estimation scenario.

    Returns (pred, readings, sensors, M, alpha): one representative
    predicted set from the reference chain plus the matching readings;
    M follows the step policy and is precomputed, mirroring Algorithm
    2's treatment of it as a given parameter.
    """
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    sensors = cfg.system.sensors
    if not sensors or cfg.system.modes is None or cfg.x0_true is None:
        raise ValueError("bench needs a known system with sensors and x0_true")
    opts = cfg.reach_options()
    datasets = partition_trajectories(
        simulate_transitions(cfg, rng), cfg.system.regions
    )
    models = identify_models_from_outputs(
        datasets, sensors, cfg.system.noise_w, cfg.a_bound
    )

    # Advance the reference chain halfway into the scenario.
    warm_steps = max(1, min(8, cfg.estimation_steps))
    stream = [
        StepData(tuple(SensorReading(j, y, k) for j, y in enumerate(readings)), u)
        for k, _, _, u, readings in _rollout(
            rng, cfg, cfg.x0_true, warm_steps, "warm-up step "
        )
    ]
    run = estimate_online(
        cfg.initial_set,
        stream,
        models,
        cfg.system.regions,
        sensors,
        cfg.system.noise_w,
        method="gi",
        N=warm_steps - 1,
        alpha=cfg.alpha,
        opts=opts,
    )
    family = time_update(
        run.steps[-1].corrected["gi"],
        models,
        cfg.system.regions,
        stream[warm_steps - 1].u,
        cfg.system.noise_w,
        opts=opts,
    )
    pred = next(
        family.per_mode[i] for i in range(len(family.per_mode)) if not family.empty[i]
    )
    readings = stream[warm_steps].readings
    M = rm_bound_policy(pred)
    return pred, readings, sensors, M, cfg.alpha


def cmd_bench(
    cfg: ExperimentConfig, out_dir: Path, repeats: int, seed: int | None = None
) -> int:
    if repeats < 30:
        raise ValueError(f"--repeats: bench needs at least 30, got {repeats}")
    pred, readings, sensors, M, alpha = build_bench_workload(cfg, seed)
    runners = {
        "rm": lambda: update_rm(pred, readings, sensors, M),
        "in": lambda: update_in(pred, readings, sensors, alpha),
        "gi": lambda: update_gi(pred, readings, sensors),
    }
    for fn in runners.values():  # 5 warm-up runs per method, discarded
        for _ in range(5):
            fn()
    rows = []
    for rep in range(repeats):
        for m, fn in runners.items():
            t0 = time.perf_counter()
            fn()
            rows.append([m, rep, time.perf_counter() - t0])

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "timing.csv", ["method", "run", "seconds"], rows)
    stats_rows = []
    print(f"{'method':8s} {'mean':>12s} {'median':>12s} {'variance':>12s} "
          f"{'stddev':>12s} {'min':>12s} {'max':>12s}")
    for m in ("rm", "in", "gi"):
        t = np.array([seconds for method, _, seconds in rows if method == m])
        stats = [
            float(t.mean()),
            float(np.median(t)),
            float(t.var(ddof=1)),
            float(t.std(ddof=1)),
            float(t.min()),
            float(t.max()),
        ]
        stats_rows.append([m] + stats)
        print(f"{m:8s} " + " ".join(f"{v:12.3e}" for v in stats))
    _write_csv(
        out_dir / "stats.csv",
        ["method", "mean", "median", "variance", "stddev", "min", "max"],
        stats_rows,
    )
    med = {r[0]: r[2] for r in stats_rows}
    order = sorted(med, key=med.get)
    print(f"median ordering: {' < '.join(order)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hzreach",
        description="Data-driven reachability and set-based estimation "
        "for piecewise affine systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the seed (simulate and bench)",
        )
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("simulate", help="generate trajectory and measurement files")
    common(p)

    p = sub.add_parser("identify", help="build per-mode model sets from data")
    common(p)
    p.add_argument("--data", default=None, help="directory with trajectory.csv")

    p = sub.add_parser("reach", help="propagate reachable sets")
    common(p)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--models", default=None, help="models.json from identify")

    p = sub.add_parser("estimate", help="online set-based estimation")
    common(p)
    p.add_argument("--data", default=None, help="directory with the data files")
    p.add_argument("--method", choices=METHOD_CHOICES, default=None)

    p = sub.add_parser("bench", help="measurement-update timing statistics")
    common(p)
    p.add_argument("--repeats", type=int, default=100)
    return parser


# Only these commands draw random numbers, from the configuration's seed
# or the --seed override.
_SEEDED_COMMANDS = ("simulate", "bench")


def _check_options(args) -> None:
    """Refuse a negative count, a --seed the command does not read, or a
    --models file that does not exist; the ValueError names the option."""
    if args.seed is not None:
        if args.command not in _SEEDED_COMMANDS:
            raise ValueError(
                f"--seed: {args.command} reads no seed; only "
                f"{' and '.join(_SEEDED_COMMANDS)} do"
            )
        _count(args.seed, "--seed")
    if getattr(args, "steps", None) is not None:
        _count(args.steps, "--steps")
    models = getattr(args, "models", None)
    if models is not None and not Path(models).is_file():
        raise ValueError(f"--models: no such file {models}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, version or error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _check_options(args)
        cfg = load_config(args.config)
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        if args.command == "simulate":
            paths = simulate(cfg, out_dir, args.seed)
            for name, path in paths.items():
                print(f"{name}: {path}")
            return EXIT_OK
        if args.command == "identify":
            data_dir = Path(args.data) if args.data else out_dir
            return cmd_identify(cfg, data_dir, out_dir)
        if args.command == "reach":
            models = Path(args.models) if args.models else out_dir / MODELS_FILE
            return cmd_reach(cfg, out_dir, args.steps, models)
        if args.command == "estimate":
            data_dir = Path(args.data) if args.data else out_dir
            return cmd_estimate(cfg, data_dir, out_dir, args.method)
        if args.command == "bench":
            return cmd_bench(cfg, out_dir, args.repeats, args.seed)
        raise ValueError(f"unknown command {args.command}")
    except (RankDeficiencyError, NoRegionError) as exc:
        print(f"identification error: {exc}", file=sys.stderr)
        return EXIT_IDENT
    except EstimationInfeasible as exc:
        print(f"estimation infeasible at step {exc.step}", file=sys.stderr)
        return EXIT_ESTIMATE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "verbose", False):
            raise
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
