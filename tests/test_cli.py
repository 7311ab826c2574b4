"""CLI commands end to end: files, exit codes, determinism."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hzreach import from_dict, oracle
from hzreach.cli import (
    EXIT_ERROR,
    EXIT_ESTIMATE,
    EXIT_IDENT,
    EXIT_OK,
    config_from_dict,
    load_config,
    main,
    simulate,
    simulate_transitions,
)
from hzreach.ident import read_trajectory_csv, region_index
from conftest import benchmark_reach_config, mimo_estimation_config


SENSOR_NOISE = {"type": "zonotope", "center": [0.0], "generators": [[0.01]]}


def write_config(tmp_path: Path, doc: dict, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


@pytest.fixture
def bench_cfg(tmp_path):
    doc = benchmark_reach_config(seed=101)
    doc["output_dir"] = str(tmp_path / "out")
    return write_config(tmp_path, doc)


@pytest.fixture
def mimo_cfg(tmp_path):
    doc = mimo_estimation_config(seed=202, steps=4)
    doc["data"] = {"episodes": 2, "length": 20}
    doc["output_dir"] = str(tmp_path / "out")
    return write_config(tmp_path, doc)


class TestSimulate:
    def test_identity_system_stays_put(self, tmp_path):
        doc = benchmark_reach_config(seed=3)
        doc["system"]["modes"] = [
            {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]]},
            {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]]},
        ]
        doc["system"]["noise_w"] = {
            "type": "zonotope", "center": [0.0, 0.0], "generators": [],
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "trajectory.csv")
        episodes = [r for r in rows[1:] if r]
        first = [float(v) for v in episodes[0][1:3]]
        for row in episodes[:26]:
            assert [float(v) for v in row[1:3]] == pytest.approx(first, abs=1e-12)

    def test_benchmark_crosses_guard(self, bench_cfg, tmp_path):
        assert main(["simulate", "--config", str(bench_cfg)]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "modes.csv")[1:]
        by_episode = {}
        for episode, k, region in rows:
            by_episode.setdefault(int(episode), []).append((int(k), int(region)))
        # Starting near (-1.51, 2.55) the state reaches region 2 within 10 steps.
        for steps in by_episode.values():
            early = [r for k, r in steps if k <= 10]
            assert 1 in early

    def test_seed_reproducibility(self, bench_cfg, tmp_path):
        main(["simulate", "--config", str(bench_cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(bench_cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b
        c_dir = tmp_path / "c"
        main([
            "simulate", "--config", str(bench_cfg), "--out", str(c_dir),
            "--seed", "999",
        ])
        assert (c_dir / "trajectory.csv").read_bytes() != a


    @pytest.mark.parametrize(
        "scenario", [benchmark_reach_config, mimo_estimation_config]
    )
    def test_in_memory_transitions_follow_the_system(self, scenario):
        cfg = config_from_dict(scenario(seed=5))
        transitions = simulate_transitions(cfg, np.random.default_rng(5))
        assert len(transitions) == cfg.episodes * cfg.episode_length

        def within(z, residual):
            reach = np.abs(z.generators).sum(axis=1)
            return np.all(np.abs(residual - z.center) <= reach + 1e-12)

        for k, t in enumerate(transitions):
            if k % cfg.episode_length:
                assert t.x is transitions[k - 1].x_next
            A, B = cfg.system.modes[region_index(t.x, cfg.system.regions)]
            assert within(cfg.input_set, t.u)
            assert within(cfg.system.noise_w, t.x_next - A @ t.x - B @ t.u)
            if not cfg.system.sensors:
                assert t.y is None and t.y_next is None
                continue
            row = 0
            for s in cfg.system.sensors:
                rows = slice(row, row + s.output_dim)
                assert within(s.noise, t.y[rows] - s.C @ t.x)
                assert within(s.noise, t.y_next[rows] - s.C @ t.x_next)
                row += s.output_dim
            assert row == t.y.size == t.y_next.size

    @pytest.mark.parametrize("seed", [1, 5, 1001])
    @pytest.mark.parametrize(
        "scenario", [benchmark_reach_config, mimo_estimation_config]
    )
    def test_in_memory_transitions_equal_the_file(self, scenario, seed, tmp_path):
        """simulate_transitions is, bit for bit, what identify reads back from
        the trajectory.csv that simulate writes with the same seed."""
        cfg = config_from_dict(scenario())
        simulate(cfg, tmp_path, seed)
        from_file = read_trajectory_csv(
            tmp_path / "trajectory.csv", cfg.state_dim, cfg.input_dim
        )
        in_memory = simulate_transitions(cfg, np.random.default_rng(seed))
        assert len(in_memory) == len(from_file) == cfg.episodes * cfg.episode_length

        def raw(v):
            return None if v is None else v.tobytes()

        for a, b in zip(in_memory, from_file):
            for field in ("x", "u", "x_next", "y", "y_next"):
                assert raw(getattr(a, field)) == raw(getattr(b, field)), field


class TestIdentify:
    def test_noiseless_recovery(self, tmp_path):
        doc = benchmark_reach_config(seed=11)
        doc["system"]["noise_w"] = {
            "type": "zonotope", "center": [0.0, 0.0], "generators": [],
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        assert main(["identify", "--config", str(cfg_path)]) == EXIT_OK
        models = json.load(open(tmp_path / "out" / "models.json"))
        truth = [
            np.array([[0.75, 0.25, -0.25], [-0.25, 0.75, -0.25]]),
            np.array([[0.75, -0.25, 0.25], [0.25, 0.75, -0.25]]),
        ]
        for doc_m, expected in zip(models["modes"], truth):
            mz = from_dict(doc_m)
            assert np.linalg.norm(mz.center - expected) < 1e-8
            assert mz.num_generators == 0

    def test_empty_mode_exits_2(self, tmp_path):
        doc = benchmark_reach_config(seed=12)
        # Dynamics that keep every trajectory strictly inside region 1.
        doc["system"]["modes"] = [
            {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[0.0], [0.0]]},
            {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[0.0], [0.0]]},
        ]
        doc["system"]["noise_w"] = {
            "type": "zonotope", "center": [0.0, 0.0], "generators": [],
        }
        doc["initial_set"] = {
            "type": "zonotope", "center": [-5.0, 0.0], "generators": [[0.1, 0.0], [0.0, 0.1]],
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = write_config(tmp_path, doc)
        main(["simulate", "--config", str(cfg_path)])
        assert main(["identify", "--config", str(cfg_path)]) == EXIT_IDENT

    def test_noisy_models_contain_truth(self, bench_cfg, tmp_path):
        main(["simulate", "--config", str(bench_cfg)])
        assert main(["identify", "--config", str(bench_cfg)]) == EXIT_OK
        models = json.load(open(tmp_path / "out" / "models.json"))
        truth = [
            np.array([[0.75, 0.25, -0.25], [-0.25, 0.75, -0.25]]),
            np.array([[0.75, -0.25, 0.25], [0.25, 0.75, -0.25]]),
        ]
        for doc_m, expected in zip(models["modes"], truth):
            assert oracle.matrix_membership(from_dict(doc_m), expected, tol=1e-7)


class TestReach:
    def test_emits_step_records_and_roundtrip(self, bench_cfg, tmp_path):
        main(["simulate", "--config", str(bench_cfg)])
        main(["identify", "--config", str(bench_cfg)])
        assert main(["reach", "--config", str(bench_cfg), "--steps", "2"]) == EXIT_OK
        out = tmp_path / "out"
        for label in ("data", "known"):
            doc = json.load(open(out / f"reach_sets_{label}.json"))
            assert len(doc["steps"]) == 3
        sizes = read_rows(out / "sizes.csv")
        assert sizes[0] == ["run", "step", "ng", "nb", "nc", "total", "seconds"]
        assert len(sizes) == 1 + 2 * 3
        # Round-trip: serialized sets reproduce support functions.
        doc = json.load(open(out / "reach_sets_known.json"))
        z = from_dict(doc["steps"][1]["union"])
        z2 = from_dict(json.loads(json.dumps(doc["steps"][1]["union"])))
        for k in range(8):
            d = np.array([np.cos(np.pi * k / 4), np.sin(np.pi * k / 4)])
            assert oracle.support(z, d) == pytest.approx(
                oracle.support(z2, d), abs=1e-12
            )
        polys = read_rows(out / "polygons.csv")
        assert polys[0] == ["run", "step", "vertex", "x1", "x2"]
        assert len(polys) == 1 + 2 * 3 * 64

    def test_requires_models_or_modes(self, tmp_path):
        doc = benchmark_reach_config(seed=5)
        del doc["system"]["modes"]
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = write_config(tmp_path, doc)
        assert main(["reach", "--config", str(cfg_path), "--steps", "1"]) == 1
        assert not (tmp_path / "out").exists()


class TestEstimate:
    def test_short_run_contains_truth_and_reports(self, mimo_cfg, tmp_path):
        main(["simulate", "--config", str(mimo_cfg)])
        assert main(["estimate", "--config", str(mimo_cfg)]) == EXIT_OK
        out = tmp_path / "out"
        truth = np.array(
            [[float(v) for v in row[1:]] for row in read_rows(out / "estimate_truth.csv")[1:]]
        )
        doc = json.load(open(out / "estimate_sets.json"))
        assert len(doc["steps"]) == 5
        for k, step in enumerate(doc["steps"]):
            for m in ("rm", "in", "gi"):
                z = from_dict(step["sets"][m])
                assert oracle.membership(z, truth[k], 1e-7), (k, m)
        eq = read_rows(out / "equivalence.csv")
        assert eq[0][0] == "step"
        gaps = [float(r[2]) for r in eq[1:]]
        assert max(gaps) <= 1e-4

    def test_single_method_writes_no_equivalence(self, mimo_cfg, tmp_path):
        main(["simulate", "--config", str(mimo_cfg)])
        assert main(
            ["estimate", "--config", str(mimo_cfg), "--method", "rm"]
        ) == EXIT_OK
        assert not (tmp_path / "out" / "equivalence.csv").exists()

    def test_inconsistent_measurements_exit_3(self, mimo_cfg, tmp_path):
        main(["simulate", "--config", str(mimo_cfg)])
        # Corrupt the step-0 readings far beyond the initial set.
        meas = tmp_path / "out" / "measurements.csv"
        rows = read_rows(meas)
        for row in rows[1:]:
            if row and row[0] == "0":
                row[3] = repr(500.0)
        meas.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = main(["estimate", "--config", str(mimo_cfg)])
        assert code == EXIT_ESTIMATE

    def test_system_without_sensors_is_refused_first(self, bench_cfg, tmp_path, capsys):
        # The refusal names the cause, before any data is read (the data
        # directory holds only the simulation's state data) or any output
        # directory is made.
        main(["simulate", "--config", str(bench_cfg)])
        out = tmp_path / "estimates"
        args = ["estimate", "--config", str(bench_cfg), "--data", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(args + ["--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: estimate needs a system with sensors\n"
        assert not out.exists()


class TestBench:
    def test_rows_and_columns(self, mimo_cfg, tmp_path):
        assert main(
            ["bench", "--config", str(mimo_cfg), "--repeats", "30"]
        ) == EXIT_OK
        out = tmp_path / "out"
        timing = read_rows(out / "timing.csv")
        assert timing[0] == ["method", "run", "seconds"]
        assert len(timing) == 1 + 90
        stats = read_rows(out / "stats.csv")
        assert stats[0] == ["method", "mean", "median", "variance", "stddev", "min", "max"]
        assert [r[0] for r in stats[1:]] == ["rm", "in", "gi"]

    def test_too_few_repeats_rejected(self, mimo_cfg):
        assert main(["bench", "--config", str(mimo_cfg), "--repeats", "10"]) == 1


class TestOptions:
    @pytest.mark.parametrize(
        "command, extra, option",
        [
            ("reach", ["--steps", "-2"], "--steps"),
            ("simulate", ["--seed", "-1"], "--seed"),
            ("bench", ["--seed", "-1"], "--seed"),
            ("identify", ["--seed", "3"], "--seed"),
            ("reach", ["--seed", "3"], "--seed"),
            ("estimate", ["--seed", "3"], "--seed"),
            ("bench", ["--repeats", "10"], "--repeats"),
            ("reach", ["--models", "/no/such.json"], "--models"),
        ],
        ids=[
            "negative-steps", "negative-seed", "negative-bench-seed",
            "identify-seed", "reach-seed", "estimate-seed", "too-few-repeats",
            "missing-models",
        ],
    )
    def test_bad_option_exits_1_naming_it(self, tmp_path, capsys, command, extra, option):
        # Refused before any output directory is made; a seed that the
        # command would not read is refused rather than ignored.
        cfg_path = write_config(tmp_path, benchmark_reach_config())
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([command, "--config", str(cfg_path), "--out", str(out)] + extra)
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {option}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reach", "--config", "config.json", "--steps", "two"],
             "argument --steps: invalid int value: 'two'"),
            (["reach"], "the following arguments are required: --config"),
        ],
        ids=["string-steps", "no-config"],
    )
    def test_parse_error_exits_1(self, tmp_path, capsys, argv, message):
        # Not argparse's own exit code, 2, which means identification failure.
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.endswith(f"hzreach reach: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["--version"], ["reach", "--help"]], ids=["version", "help"]
    )
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        doc = mimo_estimation_config(seed=77, steps=3)
        doc["data"] = {"episodes": 1, "length": 15}
        cfg_path = write_config(tmp_path, doc)

        def run(out):
            main(["simulate", "--config", str(cfg_path), "--out", out])
            main(["identify", "--config", str(cfg_path), "--out", out])
            main(["reach", "--config", str(cfg_path), "--out", out, "--steps", "2"])
            main(["estimate", "--config", str(cfg_path), "--out", out])

        run(str(tmp_path / "a"))
        run(str(tmp_path / "b"))
        compare = [
            "trajectory.csv", "measurements.csv", "estimate_truth.csv", "modes.csv",
            "models.json", "reach_sets_data.json", "reach_sets_known.json",
            "polygons.csv", "estimate_sets.json", "bounds.csv", "equivalence.csv",
        ]
        for name in compare:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name
        # sizes.csv carries wall times; compare everything but the last column.
        rows_a = read_rows(tmp_path / "a" / "sizes.csv")
        rows_b = read_rows(tmp_path / "b" / "sizes.csv")
        assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]


class TestConfig:
    def test_missing_seed_rejected(self, tmp_path):
        doc = benchmark_reach_config()
        del doc["seed"]
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ValueError):
            load_config(cfg_path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        doc = benchmark_reach_config()
        doc["initial_set"]["center"] = [0.0, 0.0, 0.0]
        doc["initial_set"]["generators"] = [[1.0], [0.0], [0.0]]
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ValueError):
            load_config(cfg_path)

    def test_unknown_reach_field_rejected(self, tmp_path):
        # A field the loop does not read is refused, not ignored.
        doc = benchmark_reach_config()
        doc["reach"]["hull_relax"] = True
        with pytest.raises(ValueError, match=re.escape("reach.hull_relax")):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("initial_set: zonotope field 'center'",
             lambda doc: doc["initial_set"]["center"].__setitem__(0, float("nan"))),
            ("system.modes[1].A",
             lambda doc: doc["system"]["modes"][1]["A"][0].__setitem__(1, float("inf"))),
            ("initial_set: zonotope field 'generators'",
             lambda doc: doc["initial_set"].__setitem__("generators", [[0.25, -0.19]])),
            ("system.noise_w: zonotope field 'generators'",
             lambda doc: doc["system"]["noise_w"].__setitem__("generators", [[0.1], [0.2, 0.3]])),
            ("estimation.steps",
             lambda doc: doc.setdefault("estimation", {}).__setitem__("steps", -1)),
            ("estimation.steps",
             lambda doc: doc.setdefault("estimation", {}).__setitem__("steps", 2.7)),
            ("data.episodes", lambda doc: doc["data"].__setitem__("episodes", "2")),
            ("reach.bin_cap", lambda doc: doc["reach"].__setitem__("bin_cap", True)),
            ("horizon", lambda doc: doc.__setitem__("horizon", float("inf"))),
            ("seed", lambda doc: doc.__setitem__("seed", -3)),
            ("system: missing", lambda doc: doc.pop("system")),
            ("initial_set: missing", lambda doc: doc.pop("initial_set")),
            ("system.noise_w: missing", lambda doc: doc["system"].pop("noise_w")),
            ("system.modes[1].B: missing", lambda doc: doc["system"]["modes"][1].pop("B")),
            ("system.sensors[0].C: missing",
             lambda doc: doc["system"].__setitem__("sensors", [{"noise": SENSOR_NOISE}])),
            ("system: must be an object, got 5", lambda doc: doc.__setitem__("system", 5)),
            ("system.sensors[0]: must be an object, got 5",
             lambda doc: doc["system"].__setitem__("sensors", [5])),
            ("estimation: must be an object, got []",
             lambda doc: doc.__setitem__("estimation", [])),
            ("data: must be an object, got 'x'", lambda doc: doc.__setitem__("data", "x")),
            ("system.regions: must be a list, got 3",
             lambda doc: doc["system"].__setitem__("regions", 3)),
            ("system.modes: must be a list, got {}",
             lambda doc: doc["system"].__setitem__("modes", {})),
        ],
        ids=[
            "nan", "inf", "generator-rows", "ragged-generators", "negative-count",
            "fractional-count", "string-count", "bool-count", "infinite-count",
            "negative-seed", "missing-system", "missing-initial-set",
            "missing-noise", "missing-B", "missing-C", "system-not-object",
            "sensor-not-object", "estimation-not-object", "data-not-object",
            "regions-not-list", "modes-not-list",
        ],
    )
    def test_bad_entry_exits_1_naming_the_field(self, tmp_path, capsys, field, edit):
        doc = benchmark_reach_config()
        edit(doc)
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = write_config(tmp_path, doc)
        with pytest.raises(ValueError, match=re.escape(field)):
            load_config(cfg_path)
        assert main(["reach", "--config", str(cfg_path), "--steps", "2"]) == EXIT_ERROR
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
