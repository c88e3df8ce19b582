"""Command-line surface: generate, eval, benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepesn
from deepesn import save_series
from deepesn.cli import LASER_PATH_ENV, main, make_task

TINY = [
    "--length", "600", "--train-len", "300", "--washout", "20", "--validation-len", "80",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_overrides(argv, overrides):
    argv = list(argv)
    for flag, value in overrides.items():
        argv[argv.index(flag) + 1] = value
    return argv


def forbid_data(monkeypatch):
    """Make any call to ``make_task`` fail the test."""
    import deepesn.cli as cli_module

    def no_data(*args, **kwargs):
        raise AssertionError("data was made")

    monkeypatch.setattr(cli_module, "make_task", no_data)


def assert_rejected_before_any_work(argv, capsys, monkeypatch):
    """The command exits as a usage error without making any data; returns its stderr."""
    forbid_data(monkeypatch)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "no trial can run" in err
    return err


class TestMakeTask:
    @pytest.mark.parametrize("name, lines", [
        ("narma10", ["dataset.narma10.seed = 3", "dataset.narma10.length = 600"]),
        *[(f"mg{tau}", [f"dataset.mg{tau}.tau = {tau}.0", f"dataset.mg{tau}.step = 0.1",
                        f"dataset.mg{tau}.subsample = 10", f"dataset.mg{tau}.initial_history = 1.2",
                        f"dataset.mg{tau}.discard = 1000", f"dataset.mg{tau}.length = 600"])
          for tau in (17, 30)],
    ])
    def test_metadata_keys_order_and_values(self, name, lines):
        # the report prints each entry as "key = value", in this order
        dataset, meta = make_task(name, seed=3, length=600, train_len=300, washout=20, validation_len=80)
        assert [f"{key} = {value}" for key, value in meta.items()] == lines
        assert (dataset.name, dataset.train_len, dataset.washout, dataset.validation_len) == (name, 300, 20, 80)

    def test_narma_diverging_seed_moves_to_the_next(self, capsys):
        # seed 15 diverges at 10000 steps and seed 16 does not
        dataset, meta = make_task("narma10", seed=15, length=10000)
        assert meta["dataset.narma10.seed"] == 16
        assert len(dataset) == 10000
        assert capsys.readouterr().err == "warning: narma10 seed 15 diverged, retrying with 16\n"


class TestGenerate:
    def test_writes_series_and_metadata(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["generate", "narma10", "--seed", "42", "--out", str(tmp_path), *TINY], capsys
        )
        assert code == 0
        inputs = (tmp_path / "narma10_inputs.txt").read_text().splitlines()
        targets = (tmp_path / "narma10_targets.txt").read_text().splitlines()
        assert len(inputs) == 600 and len(targets) == 600
        meta = json.loads((tmp_path / "narma10_meta.json").read_text())
        assert meta["task"] == "narma10"
        assert meta["generator"]["dataset.narma10.seed"] == 42
        assert "wrote" in out

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["generate", "mg17", "--seed", "1", "--out", str(a), *TINY], capsys)
        run_cli(["generate", "mg17", "--seed", "1", "--out", str(b), *TINY], capsys)
        assert (a / "mg17_inputs.txt").read_bytes() == (b / "mg17_inputs.txt").read_bytes()
        assert (a / "mg17_targets.txt").read_bytes() == (b / "mg17_targets.txt").read_bytes()

    def test_laser_cannot_be_generated(self, tmp_path, capsys):
        code, _, err = run_cli(["generate", "laser", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "cannot be generated" in err

    @pytest.mark.parametrize("overrides", [{"--washout": "220"}, {"--length": "300"}], ids=["no-fit-range", "short"])
    def test_unrunnable_split_is_rejected_before_any_work(self, overrides, tmp_path, capsys, monkeypatch):
        argv = with_overrides(["generate", "narma10", "--out", str(tmp_path), *TINY], overrides)
        assert_rejected_before_any_work(argv, capsys, monkeypatch)
        assert not list(tmp_path.iterdir())

    def test_narma_retries_diverging_seed(self, tmp_path, capsys, monkeypatch):
        import deepesn.cli as cli_module
        from deepesn.datasets import DivergenceError

        real = cli_module.generate_narma10
        calls = []

        def flaky(length, seed, **kwargs):
            calls.append(seed)
            if seed == 5:
                raise DivergenceError("boom")
            return real(length, seed, **kwargs)

        monkeypatch.setattr(cli_module, "generate_narma10", flaky)
        code, _, err = run_cli(
            ["generate", "narma10", "--seed", "5", "--out", str(tmp_path), *TINY], capsys
        )
        assert code == 0
        assert calls == [5, 6]
        assert "retrying" in err
        meta = json.loads((tmp_path / "narma10_meta.json").read_text())
        assert meta["generator"]["dataset.narma10.seed"] == 6


EVAL_ARGS = [
    "eval", "--task", "narma10", "--topology", "ring", "--layers", "2",
    "--rho", "0.9", "--omega-in", "0.5", "--omega-il", "0.5",
    "--guesses", "2", "--seed", "7", "--units", "20", *TINY,
]

# TINY's split has 600 steps, 300 of them for training, so every case fails one rule
EVAL_UNRUNNABLE = {
    "fewer-units-than-layers": {"--layers": "5", "--units": "3"},
    "no-fit-range": {"--washout": "220"},
    "series-too-short": {"--length": "300"},
    "sparse-fan-in": {"--topology": "sparse", "--layers": "1", "--units": "4"},  # sparse fan-in 5
    "interlayer-fan-in": {"--units": "8"},  # two ring layers of 4 units, inter-layer fan-in 5
    "ring-single-unit": {"--layers": "1", "--units": "1"},
}

# layout errors are worded in the layer sizes that --units sets, not in settings no flag reaches
EVAL_LAYOUT_ERRORS = {
    "sparse-fan-in": "a sparse layer of 4 units cannot take 5 inputs per unit",
    "interlayer-fan-in": "a layer that feeds another needs at least 5 units, got 4",
}


class TestEval:
    def test_reports_finite_mse_reproducibly(self, capsys):
        code1, out1, _ = run_cli(EVAL_ARGS, capsys)
        code2, out2, _ = run_cli(EVAL_ARGS, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "validation MSE" in out1 and "test MSE" in out1

    def test_writes_result_file(self, tmp_path, capsys):
        code, out, _ = run_cli(EVAL_ARGS + ["--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "eval_result.txt").read_text().strip() in out.strip()

    def test_zero_layers_is_a_usage_error(self, capsys):
        argv = EVAL_ARGS.copy()
        argv[argv.index("--layers") + 1] = "0"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_rho_above_one_warns_but_runs(self, capsys):
        argv = EVAL_ARGS.copy()
        argv[argv.index("--rho") + 1] = "1.5"
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert "warning" in err.lower()
        assert "test MSE" in out

    @pytest.mark.parametrize("case", EVAL_UNRUNNABLE)
    def test_unrunnable_combination_is_rejected_before_any_work(self, case, tmp_path, capsys, monkeypatch):
        argv = with_overrides(EVAL_ARGS + ["--out", str(tmp_path)], EVAL_UNRUNNABLE[case])
        err = assert_rejected_before_any_work(argv, capsys, monkeypatch)
        if case in EVAL_LAYOUT_ERRORS:
            assert EVAL_LAYOUT_ERRORS[case] in err and "fan_in" not in err
        assert not (tmp_path / "eval_result.txt").exists()

    @pytest.mark.parametrize("value", ["-0.5", "inf", "nan"])
    @pytest.mark.parametrize("flag", ["--rho", "--omega-in", "--omega-il"])
    def test_bad_scaling_rejected_by_parser(self, flag, value, capsys, monkeypatch):
        forbid_data(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(with_overrides(EVAL_ARGS, {flag: value}))
        assert excinfo.value.code == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_missing_laser_file_is_a_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "laser.txt"
        code, out, err = run_cli(with_overrides(EVAL_ARGS, {"--task": "laser"}) + ["--laser-path", str(missing)], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert not out

    def test_missing_openblas_is_reported(self, capsys, monkeypatch):
        # without a pinned BLAS the MSEs may depend on its thread count, so the run says so
        monkeypatch.setattr("deepesn.experiment._openblas_thread_calls", lambda: [])
        code, out, err = run_cli(EVAL_ARGS, capsys)
        assert code == 0 and "test MSE" in out
        assert err.count("no OpenBLAS found") == 1


BENCH_ARGS = [
    "benchmark", "--tasks", "narma10", "--topologies", "sparse,permutation",
    "--configs", "2", "--guesses", "2", "--layers", "2", "--units", "20",
    "--seed", "9", "--quiet", *TINY,
]

BENCH_UNRUNNABLE = {
    "fewer-units-than-layers": {"--topologies": "ring", "--layers": "5", "--units": "3"},
    "no-fit-range": {"--washout": "220"},
    "series-too-short": {"--length": "300"},
    "sparse-fan-in": {"--units": "4"},  # the shallow sparse layer, fan-in 5
    "interlayer-fan-in": {"--topologies": "ring", "--units": "8"},
    "ring-single-unit": {"--topologies": "ring", "--layers": "1", "--units": "1"},
}

BENCH_LAYOUT_ERRORS = {
    "sparse-fan-in": "a sparse layer of 4 units cannot take 5 inputs per unit",
    "interlayer-fan-in": "a layer that feeds another needs at least 5 units, got 4",
}

# each list is empty or holds an unknown or a repeated name, which argparse rejects with this message
BENCH_BAD_LISTS = {
    "unknown-topology": ({"--topologies": "nonsense"}, "unknown topology 'nonsense'"),
    "unknown-task": ({"--tasks": "nonsense"}, "unknown task 'nonsense'"),
    "repeated-layers": ({"--layers": "2,2"}, "repeated layer count in '2,2'"),
    "repeated-layers-spelled-apart": ({"--layers": "2,02"}, "repeated layer count in '2,02'"),
    "repeated-topology": ({"--topologies": "ring,ring"}, "repeated topology in 'ring,ring'"),
    "repeated-task": ({"--tasks": "narma10,narma10"}, "repeated task in 'narma10,narma10'"),
    "empty-list": ({"--tasks": ","}, "expected a comma-separated list"),
}

# argparse rejects each of these command lines, with this message, before any work
PARSER_ERRORS = {
    "eval-negative-seed": (with_overrides(EVAL_ARGS, {"--seed": "-1"}), "must be non-negative, got -1"),
    "eval-fan-in": (EVAL_ARGS + ["--fan-in", "5"], "unrecognized arguments: --fan-in 5"),
    "benchmark-budget": (BENCH_ARGS + ["--budget", "full"], "unrecognized arguments: --budget full"),
}


class TestBenchmark:
    def test_writes_report_and_log(self, tmp_path, capsys):
        code, out, _ = run_cli(BENCH_ARGS + ["--out", str(tmp_path)], capsys)
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "task: narma10" in report
        assert report.count("sparse") >= 1 and report.count("permutation") >= 1
        log = (tmp_path / "trials.tsv").read_text().splitlines()
        assert len(log) == 1 + 2 * (2 + 2)  # header + 2 topologies x (shallow 2 + deep 2)
        assert "ordering checks" in out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        run_cli(BENCH_ARGS + ["--out", str(tmp_path / "r1")], capsys)
        run_cli(BENCH_ARGS + ["--out", str(tmp_path / "r2")], capsys)
        assert (tmp_path / "r1/trials.tsv").read_bytes() == (tmp_path / "r2/trials.tsv").read_bytes()
        assert (tmp_path / "r1/report.txt").read_bytes() == (tmp_path / "r2/report.txt").read_bytes()

    def test_eval_reproduces_logged_trials(self, tmp_path, capsys):
        run_cli(BENCH_ARGS + ["--out", str(tmp_path)], capsys)
        rows = deepesn.load_trial_log(tmp_path / "trials.tsv")
        shallow = next(row for row in rows if row["topology"] == "sparse" and row["group"] == "shallow")
        deep = next(row for row in rows if row["topology"] == "permutation" and row["group"] == "deep")
        for row in (shallow, deep):
            code, out, _ = run_cli(
                ["eval", "--task", "narma10", "--topology", row["topology"], "--layers", str(row["layers"]),
                 "--rho", repr(row["rho"]), "--omega-in", repr(row["omega_in"]),
                 "--omega-il", repr(row["omega_il"]), "--guesses", str(row["guesses"]),
                 "--seed", "9", "--units", "20", *TINY],
                capsys,
            )
            assert code == 0
            assert f"validation MSE: {row['val_mse_mean']:.6e} " in out
            assert f"test MSE:       {row['test_mse_mean']:.6e} " in out

    def test_missing_laser_skipped_with_partial_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(LASER_PATH_ENV, raising=False)
        argv = ["benchmark", "--tasks", "narma10,laser", "--topologies", "ring",
                "--configs", "1", "--guesses", "1", "--layers", "2", "--units", "20",
                "--seed", "9", "--quiet", "--out", str(tmp_path), *TINY]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "skipping task laser" in err
        assert "task: narma10" in (tmp_path / "report.txt").read_text()
        # with the laser task alone, no task is left and nothing is written
        code, out, err = run_cli(with_overrides(argv, {"--tasks": "laser", "--out": str(tmp_path / "none")}), capsys)
        assert code == 1
        assert err.endswith("error: no tasks left to run\n")
        assert not (tmp_path / "none").exists()

    def test_laser_path_from_environment(self, tmp_path, capsys, monkeypatch):
        laser_file = tmp_path / "laser.txt"
        save_series(np.abs(np.sin(np.arange(600))) * 100 + 1, laser_file)
        monkeypatch.setenv(LASER_PATH_ENV, str(laser_file))
        with pytest.warns(UserWarning, match="expected 10092 laser samples, found 600"):
            code, _, _ = run_cli(
                ["benchmark", "--tasks", "laser", "--topologies", "ring",
                 "--configs", "1", "--guesses", "1", "--layers", "2", "--units", "20",
                 "--seed", "9", "--quiet", "--out", str(tmp_path / "out"), *TINY],
                capsys,
            )
        assert code == 0
        assert "task: laser" in (tmp_path / "out/report.txt").read_text()

    def test_raising_trial_writes_the_report_and_exits_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken trial")

        monkeypatch.setattr("deepesn.experiment.evaluate_trial", broken)
        code, out, _ = run_cli(BENCH_ARGS + ["--out", str(tmp_path)], capsys)
        assert code == 1
        report = (tmp_path / "report.txt").read_text()
        assert "isolated failures:\n  narma10/sparse/L=1/config=0: RuntimeError: broken trial\n" in report
        assert report in out

    @pytest.mark.parametrize("layers", ["a", "0", "2,0"])
    def test_bad_layers_is_a_usage_error(self, layers, tmp_path, capsys):
        argv = BENCH_ARGS + ["--out", str(tmp_path)]
        argv[argv.index("--layers") + 1] = layers
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_zero_validation_len_is_rejected_before_any_work(self, tmp_path, capsys):
        argv = BENCH_ARGS + ["--out", str(tmp_path)]
        argv[argv.index("--validation-len") + 1] = "0"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("case", BENCH_UNRUNNABLE)
    def test_unrunnable_combination_is_rejected_before_any_work(self, case, tmp_path, capsys, monkeypatch):
        argv = with_overrides(BENCH_ARGS + ["--out", str(tmp_path)], BENCH_UNRUNNABLE[case])
        err = assert_rejected_before_any_work(argv, capsys, monkeypatch)
        if case in BENCH_LAYOUT_ERRORS:
            assert BENCH_LAYOUT_ERRORS[case] in err and "fan_in" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_unknown_task_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--tasks", "nonsense", "--topologies", "ring", "--configs", "1",
                  "--guesses", "1", "--layers", "2", "--units", "20", "--quiet",
                  "--out", str(tmp_path), *TINY])
        assert excinfo.value.code == 2
        assert "unknown task" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", BENCH_BAD_LISTS.values(), ids=BENCH_BAD_LISTS.keys())
    def test_unknown_or_repeated_name_is_a_usage_error(self, overrides, message, tmp_path, capsys, monkeypatch):
        forbid_data(monkeypatch)
        argv = with_overrides(BENCH_ARGS + ["--out", str(tmp_path)], overrides)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("argv, message", PARSER_ERRORS.values(), ids=PARSER_ERRORS.keys())
def test_parser_rejects_before_any_work(argv, message, tmp_path, capsys, monkeypatch):
    forbid_data(monkeypatch)
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_module_entry_point_runs_main():
    # the package may be importable from a source tree only, so hand that path on
    src = str(Path(deepesn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "deepesn.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"deepesn {deepesn.__version__}"
