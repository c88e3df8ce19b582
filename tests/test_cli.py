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


def assert_rejected_before_any_work(argv, capsys, monkeypatch):
    """The command exits as a usage error without making any data."""
    import deepesn.cli as cli_module

    def no_data(*args, **kwargs):
        raise AssertionError("data was made")

    monkeypatch.setattr(cli_module, "make_task", no_data)
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "no trial can run" in err


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
                raise DivergenceError("boom", seed=seed)
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
    "--guesses", "2", "--seed", "7", "--units", "20", "--fan-in", "3", *TINY,
]

# TINY's split has 600 steps, 300 of them for training, so every case fails one rule
EVAL_UNRUNNABLE = {
    "fewer-units-than-layers": {"--layers": "5", "--units": "3"},
    "no-fit-range": {"--washout": "220"},
    "series-too-short": {"--length": "300"},
    "sparse-fan-in": {"--topology": "sparse", "--fan-in": "9", "--layers": "1", "--units": "5"},
    "interlayer-fan-in": {"--units": "8"},  # two ring layers of 4 units, inter-layer fan-in 5
    "ring-single-unit": {"--layers": "1", "--units": "1"},
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

    def test_fan_in_leaves_non_sparse_networks_unchanged(self, capsys):
        # --fan-in is the in-degree of sparse layers; inter-layer matrices keep five inputs per unit
        argv = EVAL_ARGS.copy()
        argv[argv.index("--topology") + 1] = "permutation"
        argv[argv.index("--units") + 1] = "40"
        outputs = []
        for fan_in in ("2", "5"):
            argv[argv.index("--fan-in") + 1] = fan_in
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("overrides", EVAL_UNRUNNABLE.values(), ids=EVAL_UNRUNNABLE.keys())
    def test_unrunnable_combination_is_rejected_before_any_work(self, overrides, tmp_path, capsys, monkeypatch):
        argv = with_overrides(EVAL_ARGS + ["--out", str(tmp_path)], overrides)
        assert_rejected_before_any_work(argv, capsys, monkeypatch)
        assert not (tmp_path / "eval_result.txt").exists()

    def test_negative_rho_rejected_by_parser(self, capsys):
        argv = EVAL_ARGS.copy()
        argv[argv.index("--rho") + 1] = "-0.5"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


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

# each list holds an unknown or a repeated name, which argparse rejects
BENCH_BAD_LISTS = {
    "unknown-topology": {"--topologies": "nonsense"},
    "unknown-task": {"--tasks": "nonsense"},
    "repeated-layers": {"--layers": "2,2"},
    "repeated-layers-spelled-apart": {"--layers": "2,02"},
    "repeated-topology": {"--topologies": "ring,ring"},
    "repeated-task": {"--tasks": "narma10,narma10"},
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

    def test_missing_laser_skipped_with_partial_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(LASER_PATH_ENV, raising=False)
        code, out, err = run_cli(
            ["benchmark", "--tasks", "narma10,laser", "--topologies", "ring",
             "--configs", "1", "--guesses", "1", "--layers", "2", "--units", "20",
             "--seed", "9", "--quiet", "--out", str(tmp_path), *TINY],
            capsys,
        )
        assert code == 1
        assert "skipping task laser" in err
        assert "task: narma10" in (tmp_path / "report.txt").read_text()

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

    @pytest.mark.parametrize("overrides", BENCH_UNRUNNABLE.values(), ids=BENCH_UNRUNNABLE.keys())
    def test_unrunnable_combination_is_rejected_before_any_work(self, overrides, tmp_path, capsys, monkeypatch):
        argv = with_overrides(BENCH_ARGS + ["--out", str(tmp_path)], overrides)
        assert_rejected_before_any_work(argv, capsys, monkeypatch)
        assert not (tmp_path / "report.txt").exists()

    def test_unknown_task_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["benchmark", "--tasks", "nonsense", "--topologies", "ring", "--configs", "1",
                  "--guesses", "1", "--layers", "2", "--units", "20", "--quiet",
                  "--out", str(tmp_path), *TINY])
        assert excinfo.value.code == 2
        assert "unknown task" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", BENCH_BAD_LISTS.values(), ids=BENCH_BAD_LISTS.keys())
    def test_unknown_or_repeated_name_is_a_usage_error(self, overrides, tmp_path, capsys, monkeypatch):
        import deepesn.cli as cli_module

        def no_data(*args, **kwargs):
            raise AssertionError("data was made")

        monkeypatch.setattr(cli_module, "make_task", no_data)
        argv = with_overrides(BENCH_ARGS + ["--out", str(tmp_path)], overrides)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown" in err or "repeated" in err
        assert not (tmp_path / "report.txt").exists()


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
