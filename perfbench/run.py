"""hzreach benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload reach_pwa --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Set-up is timed in fresh child processes (imports, configuration,
simulated data, identified models, warm-up), the workload then repeats
whole rounds until --seconds have passed and checks the last round's
outputs.  Times are reference-host seconds (see hostclock.py): wall
seconds scaled by the host's speed, measured alongside the work.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the
metrics are the per-layer ones (see tracing.py and README.md).
A detailed record of the run goes to perfbench-out/.
"""

import os

# One thread everywhere: the host's speed already varies, thread scheduling
# would add a second source of noise.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "HZREACH_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_SAMPLES = 5

WORKLOAD_NAMES = ("reach_pwa", "estimate_mimo", "update_mimo")

WRAPPED = (
    "lp.solve_box_lp", "lp.solve_box_milp",
    "oracle.support", "oracle.interval_hull", "oracle.is_empty", "oracle.membership",
    "oracle.sample", "oracle.feasible_assignments",
    "setops.union", "setops.matzono_times_set",
    "reach.reach_step", "reach.make_family",
    "estimate.time_update", "estimate.rm_bound_policy",
    "estimate.update_rm", "estimate.update_in", "estimate.update_gi",
    "ident.identify_models", "ident.identify_models_from_outputs",
)
STAGES = (
    ("reach_s", "s"), ("polygon_s", "s"), ("reach_size", "count"),
    ("estimate_s", "s"), ("bounds_s", "s"), ("equiv_s", "s"), ("gi_size", "count"),
    ("update_rm_us", "us"), ("update_in_us", "us"), ("update_gi_us", "us"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in WRAPPED:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for name in ("lp.solve_box_lp.infeasible", "lp.solve_box_lp.cells",
                 "lp.solve_box_milp.cells", "oracle.is_empty.empty"):
        units[name] = "count"
    units["estimate.in.residual_max"] = "1"
    units["estimate.in.cond_max"] = "1"
    for k in range(1, 6):
        for field in ("ng", "nb", "nc", "leaves"):
            units[f"reach.step{k}.{field}"] = "count"
    units.update(dict(STAGES))
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workloads():
    """Import the benchmark's workloads against ./src, never an installed copy."""
    if not (SRC / "hzreach" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hzreach sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hzreach

    if not Path(hzreach.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: hzreach imported from {hzreach.__file__}, not {SRC}")
    import workloads

    return workloads


def time_setup(args) -> float:
    """Reference seconds from starting a fresh interpreter until the workload is ready.

    The host's speed is probed right before and right after the child.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = hostclock.probe_median()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    after = hostclock.probe_median()
    return elapsed * hostclock.REF_PROBE_S / statistics.mean((before, after))


def measure(workload, seconds: float):
    """Whole rounds until `seconds` have passed, at least one.

    Returns the completed rounds' stage dicts and wall times (probes left
    out), and the operations attempted and failed.  A round that raises
    counts as failed as a whole and ends the measurement.
    """
    rounds, walls, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    with hostclock.HostClock() as clock:
        while True:
            attempted += workload.OPS
            start = clock.mark()
            try:
                stages, round_failed = workload.round(clock)
            except Exception:  # noqa: BLE001 - reported as failed operations
                traceback.print_exc()
                return rounds, walls, attempted, failed + workload.OPS
            walls.append(clock.wall(start, clock.mark()))
            rounds.append(stages)
            failed += round_failed
            if time.perf_counter() >= deadline:
                return rounds, walls, attempted, failed


def run(args, out_fd) -> int:
    wl_module = load_workloads()
    if args.setup_only:
        wl_module.WORKLOADS[args.workload](args.seed)
        os.write(out_fd, b"ready\n")
        return 0

    # setup_s is an end-to-end metric, measured with tracing off only.
    setup = [] if args.trace else [time_setup(args) for _ in range(SETUP_SAMPLES)]
    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(tracing.ident_targets())
    workload = wl_module.WORKLOADS[args.workload](args.seed)
    tracer.uninstall()

    rounds, walls, attempted, failed = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    stages = workload.summarize(rounds)
    set_size = workload.set_size()

    if args.trace:
        tracer.install(tracing.layer_targets())
        start = time.perf_counter()
        try:
            workload.round(hostclock.HostClock(active=False))
        finally:
            traced_wall = time.perf_counter() - start
            tracer.uninstall()
        values = {name: 0 for name in per_layer_units()}
        values.update((k, v) for k, v in tracer.summary().items() if k in values)
        values.update((k, v) for k, v in stages.items() if k in values)
        if workload.SIZE_METRIC:
            values[workload.SIZE_METRIC] = set_size
        if args.workload == "reach_pwa":
            values.update(workload.step_stats())
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "run_ref_s": {"value": stages["run_ref_s"], "unit": "s"},
            "set_size": {"value": set_size, "unit": "count"},
        }

    errors = workload.check()
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setup, stages=stages, round_walls=walls,
                  errors=errors, python=platform.python_version(), cpus=os.cpu_count())
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    os.write(out_fd, (json.dumps(result) + "\n").encode())
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Native solvers may print to the C-level stdout; send all of that to
    # stderr so that the result stays the last line of standard output.
    sys.stdout.flush()
    out_fd = os.dup(1)
    os.dup2(2, 1)
    return run(args, out_fd)


if __name__ == "__main__":
    sys.exit(main())
