"""The benchmark's three workloads.

Each workload builds its inputs from the seed (set-up), runs timed rounds
of identical work through hzreach's public functions, and checks the last
round's outputs against reference.py.  A round marks its stages on a
hostclock.HostClock and returns their reference seconds;
`OPS` is the number of operations (support queries, reach steps,
estimation steps, updates) one round attempts.
"""

from __future__ import annotations

import dataclasses
import inspect
import time
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, milp

import reference
from hzreach import cli, estimate, ident, oracle, reach
from hzreach.estimate import SensorReading, StepData
from hzreach.setops import lift_zonotope

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
POLYGON_DIRECTIONS = 64
EQUIVALENCE_DIRECTIONS = 32  # as `hzreach estimate --method all`
METHOD_PAIRS = (("rm", "in"), ("rm", "gi"), ("in", "gi"))
GAP_TOL = 1e-4  # criterion 5: method-pair support gap
# RM and GI describe the same set, so their supports differ only by LP
# tolerance: gaps up to 8.4e-8 were seen (HiGHS feasibility tolerance 1e-7).
RM_GI_TOL = 1e-6


def _rng(seed: int, stream: int):
    return np.random.default_rng([stream, seed % 2**63])


def _box(z):
    """(center, generators) of a zonotope or of a hybrid zonotope's continuous part."""
    if hasattr(z, "Gc"):
        return np.asarray(z.c), np.asarray(z.Gc)
    return np.asarray(z.center), np.asarray(z.generators)


def _regions(cfg):
    return [(r.L, r.rho) for r in cfg.system.regions]


def _directions(count: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def highs_only(opts):
    """`opts`, and keyword arguments for oracle calls, that send every LP to HiGHS.

    The embedded simplex raises "singular basis" in estimation on some
    inputs (seeds 14 and 21 of 1-40), so estimate_mimo leaves it out.  Once
    the LP layer has no engine option, the defaults already do this.
    """
    if "engine" not in inspect.signature(oracle.interval_hull).parameters:
        return opts, {}
    return dataclasses.replace(opts, engine="highs"), {"engine": "highs"}


def median_of_rounds(rounds) -> dict:
    """Each stage's median over the run's rounds."""
    return {key: float(np.median([r[key] for r in rounds])) for key in rounds[0]}


def warm_up() -> None:
    """First calls into the LP layer, small and large, and into HiGHS's MILP.

    Lazy imports and first-call set-up then land in setup_s.  No engine
    option is passed, so this keeps working when the LP layer's options change.
    """
    from hzreach import lp

    for rows in (1, 48):  # below and above the embedded simplex's size limit
        A = np.hstack([np.eye(rows), np.ones((rows, 2))])
        n = A.shape[1]
        lp.solve_box_lp(np.ones(n), A, np.zeros(rows), -np.ones(n), np.ones(n))
    milp([1.0, -1.0], integrality=[1, 0], bounds=Bounds(0.0, 1.0))


def _transitions(rng, cfg, with_outputs: bool) -> list:
    """Identification data: the configured episodes of the known system."""
    modes, regions = cfg.system.modes, _regions(cfg)
    noise, inputs = _box(cfg.system.noise_w), _box(cfg.input_set)
    x0_box = _box(cfg.initial_set)
    sensors = cfg.system.sensors

    def outputs(x):
        return np.concatenate(
            [s.C @ x + reference.draw(rng, *_box(s.noise)) for s in sensors]
        )

    out = []
    for _ in range(cfg.episodes):
        x = reference.draw(rng, *x0_box)
        for _ in range(cfg.episode_length):
            u = reference.draw(rng, *inputs)
            x_next = reference.pwa_next(x, u, reference.draw(rng, *noise), modes, regions)
            if with_outputs:
                out.append(ident.Transition(x, u, x_next, outputs(x), outputs(x_next)))
            else:
                out.append(ident.Transition(x, u, x_next))
            x = x_next
    return out


# ---------------------------------------------------------------------------


class ReachPwa:
    """Data-driven reachability on benchmark_pwa: 5 steps plus 64-direction polygons."""

    SIZE_METRIC = "reach_size"
    summarize = staticmethod(median_of_rounds)
    STEPS = 5
    OPS = STEPS + (STEPS + 1) * POLYGON_DIRECTIONS
    CHECKED_DIRECTIONS = 3  # per step, recomputed by reference.support
    ROLLOUTS = 1000

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = cli.load_config(CONFIGS / "benchmark_pwa.json")
        cfg = self.cfg
        transitions = _transitions(_rng(seed, 0), cfg, with_outputs=False)
        datasets = ident.partition_trajectories(transitions, cfg.system.regions)
        self.models = ident.identify_models(datasets, cfg.system.noise_w)
        self.opts = cfg.reach_options()
        self.input_set = lift_zonotope(cfg.input_set)
        warm_up()

    def round(self, clock) -> tuple:
        cfg, opts = self.cfg, self.opts
        self.families = self.supports = None  # peak RSS must not grow with rounds
        m0 = clock.mark()
        families = [reach.make_family(0, cfg.initial_set, cfg.system.regions, opts)]
        for _ in range(self.STEPS):
            families.append(
                reach.reach_step(
                    families[-1],
                    self.models,
                    cfg.system.regions,
                    self.input_set,
                    cfg.system.noise_w,
                    opts=opts,
                )
            )
        m1 = clock.mark()
        dirs = _directions(POLYGON_DIRECTIONS)
        supports = []
        for fam in families:
            h = np.array([oracle.support(fam.union_set, d) for d in dirs])
            if np.all(np.isfinite(h)):
                # Polygon vertices, as `hzreach reach` exports them.
                for i in range(POLYGON_DIRECTIONS):
                    j = (i + 1) % POLYGON_DIRECTIONS
                    np.linalg.solve(dirs[[i, j]], h[[i, j]])
            supports.append(h)
        m2 = clock.mark()
        self.families, self.supports = families, supports
        failed = sum(int(np.sum(~np.isfinite(h))) for h in supports)
        stages = {
            "run_ref_s": clock.seconds(m0, m2),
            "reach_s": clock.seconds(m0, m1),
            "polygon_s": clock.seconds(m1, m2),
        }
        return stages, failed

    def set_size(self) -> int:
        return reach.representation_size(self.families[-1].union_set)

    def check(self) -> list:
        """Soundness against true rollouts; supports against reference.support."""
        cfg, errors = self.cfg, []
        dirs = _directions(POLYGON_DIRECTIONS)
        rng = _rng(self.seed, 1)
        traj = reference.rollouts(
            rng,
            cfg.system.modes,
            _regions(cfg),
            _box(cfg.initial_set),
            _box(cfg.input_set),
            _box(cfg.system.noise_w),
            self.ROLLOUTS,
            self.STEPS,
        )
        for k, h in enumerate(self.supports):
            excess = (traj[k] @ dirs.T - h[None, :]).max()
            if excess > 1e-9 * (1.0 + np.abs(h).max()):
                errors.append(f"step {k}: a true state lies {excess:.3e} outside")
        for k, (fam, h) in enumerate(zip(self.families, self.supports)):
            for i in rng.choice(POLYGON_DIRECTIONS, self.CHECKED_DIRECTIONS, replace=False):
                ref = reference.support(fam.union_set, dirs[i])
                if abs(ref - h[i]) > 1e-6 * (1.0 + abs(ref)):
                    errors.append(f"step {k} direction {i}: support {h[i]!r}, reference {ref!r}")
        return errors

    def step_stats(self) -> dict:
        """reach.step{k}.{ng,nb,nc,leaves} of the last round (leaves cost a DFS)."""
        out = {}
        for fam in self.families[1:]:
            z = fam.union_set
            leaves = oracle.feasible_assignments(z)
            prefix = f"reach.step{fam.step}"
            out.update(
                {f"{prefix}.ng": z.ng, f"{prefix}.nb": z.nb, f"{prefix}.nc": z.nc,
                 f"{prefix}.leaves": len(leaves)}
            )
        return out


class EstimateMimo:
    """RM/IN/GI estimation on mimo_estimation: 20 steps, hulls, final-step equivalence.

    A round runs CASES input sets, each drawn from the seed: identification
    data, identified models and a reading stream.  The solver's effort
    depends on the identified models (with the same LP calls and sizes, one
    input set takes up to a quarter longer than another), so a round over
    two sets halves the variance that the choice of seed adds.
    """

    SIZE_METRIC = "gi_size"
    summarize = staticmethod(median_of_rounds)
    CASES = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = cli.load_config(CONFIGS / "mimo_estimation.json")
        cfg = self.cfg
        self.cases = [self._case(_rng(seed, stream)) for stream in range(self.CASES)]
        self.opts, self.oracle_kw = highs_only(cfg.reach_options())
        self.steps = cfg.estimation_steps
        # Per input set: each estimation step, the 2*dim supports of each
        # hull, and both sets' supports in each equivalence report.
        hull_supports = len(estimate.METHODS) * 2 * cfg.system.dim
        self.OPS = self.CASES * (
            (self.steps + 1) * (1 + hull_supports)
            + len(METHOD_PAIRS) * 2 * EQUIVALENCE_DIRECTIONS
        )
        warm_up()

    def _case(self, rng) -> dict:
        cfg = self.cfg
        transitions = _transitions(rng, cfg, with_outputs=True)
        datasets = ident.partition_trajectories(transitions, cfg.system.regions)
        models = ident.identify_models_from_outputs(
            datasets, cfg.system.sensors, cfg.system.noise_w, cfg.a_bound
        )
        stream, truth = self._stream(rng)
        return {"models": models, "stream": stream, "truth": truth}

    def _stream(self, rng):
        cfg = self.cfg
        modes, regions = cfg.system.modes, _regions(cfg)
        x = np.array(cfg.x0_true, dtype=float)
        stream, truth = [], []
        for k in range(cfg.estimation_steps + 1):
            readings = tuple(
                SensorReading(j, s.C @ x + reference.draw(rng, *_box(s.noise)), k)
                for j, s in enumerate(cfg.system.sensors)
            )
            u = reference.draw(rng, *_box(cfg.input_set))
            stream.append(StepData(readings=readings, u=u))
            truth.append(x)
            w = reference.draw(rng, *_box(cfg.system.noise_w))
            x = reference.pwa_next(x, u, w, modes, regions)
        return stream, truth

    def round(self, clock) -> tuple:
        stages = dict.fromkeys(("run_ref_s", "estimate_s", "bounds_s", "equiv_s"), 0.0)
        for case in self.cases:
            for key, value in self._run_case(case, clock).items():
                stages[key] += value
        return stages, 0

    def _run_case(self, case, clock) -> dict:
        cfg, opts = self.cfg, self.opts
        case.pop("outputs", None)  # peak RSS must not grow with rounds
        m0 = clock.mark()
        run = estimate.estimate_online(
            cfg.initial_set,
            case["stream"],
            case["models"],
            cfg.system.regions,
            cfg.system.sensors,
            cfg.system.noise_w,
            method="all",
            N=self.steps,
            alpha=cfg.alpha,
            opts=opts,
        )
        m1 = clock.mark()
        hulls = {
            (m, step.step): oracle.interval_hull(z, **self.oracle_kw)
            for step in run.steps
            for m, z in step.corrected.items()
        }
        m2 = clock.mark()
        final = run.steps[-1].corrected
        reports = {
            pair: estimate.equivalence_report(
                final[pair[0]],
                final[pair[1]],
                directions=EQUIVALENCE_DIRECTIONS,
                tol=1e-7,
                opts=opts,
            )
            for pair in METHOD_PAIRS
        }
        m3 = clock.mark()
        case["outputs"] = run, hulls, reports
        return {
            "run_ref_s": clock.seconds(m0, m3),
            "estimate_s": clock.seconds(m0, m1),
            "bounds_s": clock.seconds(m1, m2),
            "equiv_s": clock.seconds(m2, m3),
        }

    def set_size(self) -> int:
        run = self.cases[-1]["outputs"][0]
        return reach.representation_size(run.steps[-1].corrected["gi"])

    def check(self) -> list:
        errors = []
        for i, case in enumerate(self.cases):
            errors += [f"input set {i}: {e}" for e in self._check_case(case)]
        return errors

    @staticmethod
    def _check_case(case) -> list:
        errors = []
        run, hulls, reports = case["outputs"]
        for step, x in zip(run.steps, case["truth"]):
            for m, z in step.corrected.items():
                if z.nb or reference.violation(z, x) > 1e-8:
                    errors.append(f"step {step.step}: true state outside the {m} set")
            for a, b in METHOD_PAIRS:
                hull_a, hull_b = hulls[(a, step.step)], hulls[(b, step.step)]
                gap = np.abs(np.subtract(hull_a, hull_b)).max()
                tol = RM_GI_TOL if (a, b) == ("rm", "gi") else GAP_TOL
                if gap > tol:
                    errors.append(f"step {step.step}: {a}-{b} hull gap {gap:.3e} > {tol:.0e}")
        for (a, b), rep in reports.items():
            tol = RM_GI_TOL if (a, b) == ("rm", "gi") else GAP_TOL
            if rep.max_gap > tol:
                errors.append(f"final step: {a}-{b} support gap {rep.max_gap:.3e} > {tol:.0e}")
        rep = reports[("rm", "in")]
        if rep.a_in_b != rep.num_samples:
            errors.append(f"IN set holds {rep.a_in_b} of {rep.num_samples} RM samples")
        # The program's own sampler feeds the containment count; check the
        # samples against reference.violation as well.
        final = run.steps[-1].corrected
        for x in oracle.sample(final["rm"], 5, 0):
            if reference.violation(final["in"], x) > 1e-7:
                errors.append("an RM sample lies outside the IN set (reference LP)")
        return errors


class UpdateMimo:
    """Closed-form RM/IN/GI measurement updates of `hzreach bench`, interleaved."""

    SIZE_METRIC = None
    REPEATS = 500  # interleaved rm/in/gi iterations per round
    OPS = 3 * REPEATS

    def __init__(self, seed: int):
        self.cfg = cli.load_config(CONFIGS / "mimo_estimation.json")
        pred, readings, sensors, M, alpha = cli.build_bench_workload(self.cfg, seed)
        self.calls = {
            "rm": lambda: estimate.update_rm(pred, readings, sensors, M),
            "in": lambda: estimate.update_in(pred, readings, sensors, alpha),
            "gi": lambda: estimate.update_gi(pred, readings, sensors),
        }
        for fn in self.calls.values():  # the 5 discarded runs of `hzreach bench`
            for _ in range(5):
                fn()
        self.first = self.outputs()

    def round(self, clock) -> tuple:
        """REPEATS interleaved iterations; per-call times leave out calls a probe split."""
        perf = time.perf_counter
        samples = {m: [] for m in self.calls}
        m0 = clock.mark()
        for _ in range(self.REPEATS):
            for m, fn in self.calls.items():
                entries, start = clock.count, perf()
                fn()
                elapsed = perf() - start
                if clock.count == entries:
                    samples[m].append(elapsed)
        m1 = clock.mark()
        ref_s = clock.seconds(m0, m1)
        scale = ref_s / clock.wall(m0, m1)  # reference over wall seconds, this round
        stages = {f"update_{m}_us": 1e6 * scale * float(np.mean(v)) for m, v in samples.items()}
        stages["run_ref_s"] = ref_s / self.REPEATS
        return stages, 0

    @staticmethod
    def summarize(rounds) -> dict:
        """Mean time per iteration and per call over the run's rounds.

        Means, not medians: the host switches between a fast and a ~1.6x
        slower level, and a quantile jumps between the levels as their
        shares change, where a mean moves in proportion to them.
        """
        return {key: float(np.mean([r[key] for r in rounds])) for key in rounds[0]}

    def outputs(self) -> dict:
        return {m: fn() for m, fn in self.calls.items()}

    def set_size(self) -> int:
        return reach.representation_size(self.first["gi"])

    def check(self) -> list:
        errors = []
        out = self.outputs()
        for m, z in out.items():
            ref = self.first[m]
            fields = ("Gc", "Gb", "c", "Ac", "Ab", "b")
            if not all(np.array_equal(getattr(z, f), getattr(ref, f)) for f in fields):
                errors.append(f"update_{m} returned a different set on a later call")
        dirs = _directions(32)
        h = {m: np.array([reference.support(z, d) for d in dirs]) for m, z in out.items()}
        for a, b in METHOD_PAIRS:
            gap = np.abs(h[a] - h[b]).max()
            if not gap <= GAP_TOL:
                errors.append(f"updated sets {a}-{b}: support gap {gap:.3e} > {GAP_TOL:.0e}")
        return errors


WORKLOADS = {"reach_pwa": ReachPwa, "estimate_mimo": EstimateMimo, "update_mimo": UpdateMimo}
