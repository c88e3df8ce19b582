"""Search protocol: sampling, trial scoring, selection, determinism, logs."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepesn
from deepesn import (
    Dataset,
    Ring,
    ScalingSpec,
    SearchSpace,
    Sparse,
    TrialResult,
    derive_seed,
    evaluate_trial,
    format_report,
    generate_narma10,
    load_trial_log,
    mse,
    random_stream,
    run_benchmark_suite,
    sample_config,
    trial_log_table,
)
from deepesn.experiment import _execute_jobs, _plan_search, _set_openblas_threads, select_best

TINY_SPACE = SearchSpace(configs_per_layer=2, guesses=2, layer_counts=(2,))
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


@pytest.fixture(scope="module")
def tiny_task():
    return generate_narma10(600, seed=3, train_len=300, washout=20, validation_len=80)


def make_trial(task="t", topology="sparse", layers=1, config=0, val=1.0, test=1.0, failed=False):
    validation_mses = (float("nan"),) if failed else (val,)
    return TrialResult(task, topology, layers, config, ScalingSpec(0.5, 0.5, 0.5), validation_mses, (test,))


def statistics(trial):
    return (trial.validation_mse_mean, trial.validation_mse_std, trial.test_mse_mean, trial.test_mse_std)


@st.composite
def guess_mses(draw):
    """Validation and test MSE lists of 2-6 guesses; sometimes one entry is NaN or infinite."""
    lists = [draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=6)) for _ in range(2)]
    bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if bad is not None:
        target = lists[draw(st.integers(0, 1))]
        target[draw(st.integers(0, len(target) - 1))] = bad
    return tuple(lists[0]), tuple(lists[1])


class TestTrialResult:
    @staticmethod
    def oracle(val, test):
        """(failed, statistics) with the population std; NaN statistics for a failed trial."""
        if not val or not all(math.isfinite(v) for v in val + test):
            return True, (math.nan,) * 4
        return False, (np.mean(val), np.std(val, ddof=0), np.mean(test), np.std(test, ddof=0))

    @settings(max_examples=200, deadline=None)
    @given(guess_mses(), guess_mses())
    def test_statistics_derive_from_the_guesses(self, mses, other):
        val, test = mses
        trial = replace(make_trial(), validation_mses=val, test_mses=test)
        # the trial's values are cached before the replaced trial derives its own
        for current, test_mses in ((trial, test), (replace(trial, test_mses=other[1]), other[1])):
            failed, expected = self.oracle(val, test_mses)
            assert current.failed is failed
            assert current.guesses == len(val)
            np.testing.assert_array_equal(statistics(current), expected)

    def test_no_guesses_is_a_failure(self):
        trial = replace(make_trial(), validation_mses=(), test_mses=())
        assert trial.failed
        assert trial.guesses == 0
        assert np.isnan(statistics(trial)).all()
        assert select_best([trial]) is None


class TestSampleConfig:
    def test_degenerate_intervals_collapse_to_the_point(self):
        space = SearchSpace(rho_range=(0.4, 0.4), omega_in_range=(0.9, 0.9), omega_il_range=(1.1, 1.1))
        hyper = sample_config(space, random_stream(0))
        assert (hyper.rho, hyper.omega_in, hyper.omega_il) == (0.4, 0.9, 1.1)

    def test_uniformity_over_many_draws(self):
        rng = random_stream(123)
        rhos = np.array([sample_config(SearchSpace(), rng).rho for _ in range(10000)])
        assert rhos.min() > 0.1
        assert rhos.max() <= 1.0
        assert rhos.mean() == pytest.approx(0.55, abs=0.02)

    def test_same_stream_same_sample(self):
        a = sample_config(SearchSpace(), random_stream(9, 1))
        b = sample_config(SearchSpace(), random_stream(9, 1))
        assert a == b

    def test_space_validation(self):
        with pytest.raises(ValueError):
            SearchSpace(rho_range=(1.0, 0.1))
        with pytest.raises(ValueError):
            SearchSpace(configs_per_layer=0)
        with pytest.raises(ValueError):
            SearchSpace(layer_counts=())
        with pytest.raises(ValueError):
            SearchSpace(layer_counts=(2, 3, 2))


class TestDeriveSeed:
    def test_stable_and_sensitive(self):
        a = derive_seed(1, "guess", "ring", 0, 2, 0.5, 3)
        b = derive_seed(1, "guess", "ring", 0, 2, 0.5, 3)
        c = derive_seed(1, "guess", "ring", 0, 2, 0.5, 4)
        assert a == b
        assert a != c
        assert 0 <= a < 2 ** 64

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            derive_seed(object())


class TestEvaluateTrial:
    def test_single_guess_has_zero_std(self, tiny_task):
        trial = evaluate_trial(tiny_task, Sparse(3), 1, ScalingSpec(0.8, 0.6, 0.6), 1, 5, total_units=20)
        assert trial.validation_mse_std == 0.0
        assert trial.test_mse_std == 0.0
        assert trial.guesses == 1

    def test_deterministic(self, tiny_task):
        args = (tiny_task, Sparse(3), 2, ScalingSpec(0.8, 0.6, 0.6), 3, 5)
        a = evaluate_trial(*args, total_units=20)
        b = evaluate_trial(*args, total_units=20)
        assert a == b

    def test_aggregates_match_recomputation(self, tiny_task):
        trial = evaluate_trial(tiny_task, Sparse(3), 2, ScalingSpec(0.7, 0.5, 0.5), 4, 5,
                               total_units=20)
        assert trial.validation_mse_mean == pytest.approx(np.mean(trial.validation_mses), rel=1e-15)
        assert trial.validation_mse_std == pytest.approx(np.std(trial.validation_mses), rel=1e-12)
        assert trial.test_mse_mean == pytest.approx(np.mean(trial.test_mses), rel=1e-15)

    def test_constant_mean_prediction_equals_variance(self, tiny_task):
        # the variance identity that anchors MSE magnitudes
        test_targets = tiny_task.targets[tiny_task.train_len:]
        constant = np.full_like(test_targets, test_targets.mean())
        assert mse(constant, test_targets) == pytest.approx(np.var(test_targets), rel=1e-12)

    def test_validation_tail_required(self, tiny_task):
        flat = Dataset("flat", tiny_task.inputs, tiny_task.targets,
                       train_len=300, washout=20, validation_len=0)
        with pytest.raises(ValueError):
            evaluate_trial(flat, Sparse(3), 1, ScalingSpec(0.5, 0.5, 0.5), 1, 0, total_units=10)

    def test_washout_rows_never_influence_results(self, tiny_task):
        # corrupt the targets inside the washout region only: nothing may change
        corrupted_targets = tiny_task.targets.copy()
        corrupted_targets[: tiny_task.washout] = 123.456
        corrupted = Dataset(
            tiny_task.name, tiny_task.inputs, corrupted_targets,
            train_len=tiny_task.train_len, washout=tiny_task.washout,
            validation_len=tiny_task.validation_len,
        )
        args = dict(topology=Sparse(3), num_layers=2, hyper=ScalingSpec(0.9, 0.7, 0.7),
                    guesses=2, master_seed=11, total_units=20)
        a = evaluate_trial(tiny_task, **args)
        b = evaluate_trial(corrupted, **args)
        assert a.validation_mses == b.validation_mses
        assert a.test_mses == b.test_mses

    def test_one_state_array_alive_at_a_time(self):
        # a guess's states are dropped before the next guess runs; holding them peaks above 2.3 arrays
        task = generate_narma10(3000, seed=1, train_len=1500, washout=100, validation_len=300)
        tracemalloc.start()
        try:
            evaluate_trial(task, Sparse(5), 2, ScalingSpec(0.9, 0.5, 0.8), 2, 7, total_units=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * 3000 * 200 * 8


class TestSelection:
    def test_validation_decides_not_test(self):
        a = make_trial(config=0, val=1e-5, test=999.0)
        b = make_trial(config=1, val=2e-5, test=1e-9)
        assert select_best([a, b]) is a

    def test_tie_breaks_lower_layers_then_order(self):
        a = make_trial(layers=3, config=0, val=1.0)
        b = make_trial(layers=2, config=1, val=1.0)
        c = make_trial(layers=2, config=0, val=1.0)
        assert select_best([a, b, c]) is c

    def test_failed_trials_excluded(self):
        good = make_trial(val=5.0)
        bad = make_trial(val=0.0, failed=True)
        assert bad.failed
        assert select_best([bad, good]) is good
        assert select_best([bad]) is None

    def test_rescaling_test_mses_keeps_selection(self):
        trials = [make_trial(config=i, val=v, test=t)
                  for i, (v, t) in enumerate([(3.0, 5.0), (1.0, 9.0), (2.0, 1.0)])]
        scaled = [replace(t, test_mses=tuple(v * 100.0 for v in t.test_mses)) for t in trials]
        assert [t.test_mse_mean for t in scaled] == [500.0, 900.0, 100.0]
        assert select_best(trials).config_index == select_best(scaled).config_index == 1


class TestBenchmarkSuite:
    def suite(self, tiny_task, space=TINY_SPACE, **kwargs):
        return run_benchmark_suite(
            [tiny_task], ["sparse", "ring"], space, 7,
            total_units=20, **kwargs,
        )

    def test_structure(self, tiny_task):
        single = SearchSpace(configs_per_layer=1, guesses=1, layer_counts=(1,))
        two_depths = SearchSpace(configs_per_layer=3, guesses=1, layer_counts=(2, 3))
        for space in (TINY_SPACE, single, two_depths):
            report = self.suite(tiny_task, space)
            assert len(report.entries) == 2
            assert not report.failures
            for entry in report.entries:
                assert {t.num_layers for t in entry.shallow.trials} == {1}
                # the plan covers the budget: every config at every layer count
                assert len(entry.shallow.trials) == space.configs_per_layer
                assert len(entry.deep.trials) == space.configs_per_layer * len(space.layer_counts)
                assert {t.num_layers for t in entry.deep.trials} == set(space.layer_counts)
                for result in (entry.shallow, entry.deep):
                    assert result.selected is not None
                    best = min(t.validation_mse_mean for t in result.trials)
                    assert result.selected.validation_mse_mean == best

    def test_rerun_and_shuffled_parallel_identical(self, tiny_task):
        base = trial_log_table(self.suite(tiny_task))
        assert base == trial_log_table(self.suite(tiny_task))
        assert base == trial_log_table(self.suite(tiny_task, workers=2))

        # the executor run on a shuffled plan gives the same outcome for every job
        space = replace(TINY_SPACE, layer_counts=(1, 2))
        plan = [job for kind in (Sparse(3), Ring()) for job in _plan_search(tiny_task, 0, kind, space, 7)]
        settings = dict(guesses=2, master_seed=7, total_units=20)
        in_order = _execute_jobs([tiny_task], plan, settings, workers=1)
        order = np.random.default_rng(12345).permutation(len(plan))
        assert not np.array_equal(order, np.arange(len(plan)))
        shuffled = _execute_jobs([tiny_task], [plan[i] for i in order], settings, workers=2)
        reordered = [None] * len(plan)
        for position, original in enumerate(order):
            reordered[original] = shuffled[position]
        assert reordered == in_order

    def test_trial_log_independent_of_workers_and_blas_environment(self, tmp_path):
        # at 500 units the readout's BLAS calls split over threads, which moves the MSEs' last digits
        src = str(Path(deepesn.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        logs = []
        for index, (workers, extra) in enumerate([("1", {}), ("2", {}), ("1", {"OPENBLAS_NUM_THREADS": "1"})]):
            out = tmp_path / str(index)
            proc = subprocess.run(
                [sys.executable, "-m", "deepesn.cli", "benchmark", "--tasks", "narma10",
                 "--topologies", "permutation,sparse", "--configs", "1", "--guesses", "1", "--layers", "2",
                 "--length", "3000", "--train-len", "1500", "--validation-len", "300",
                 "--workers", workers, "--quiet", "--out", str(out)],
                capture_output=True, text=True, env={**env, **extra}, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            assert "OpenBLAS" not in proc.stderr
            logs.append((out / "trials.tsv").read_bytes())
        assert logs[0] == logs[1] == logs[2]

    def test_serial_search_pins_blas_then_restores_it(self, tiny_task, monkeypatch):
        before = _set_openblas_threads(2)
        if not before:
            pytest.skip("no OpenBLAS is loaded")
        during = []

        def recording(*args, **kwargs):
            during.extend(count for _, count in _set_openblas_threads(1))
            return evaluate_trial(*args, **kwargs)

        monkeypatch.setattr("deepesn.experiment.evaluate_trial", recording)
        try:
            self.suite(tiny_task, replace(TINY_SPACE, guesses=1))
            after = [count for _, count in _set_openblas_threads(2)]
        finally:
            for set_threads, count in before:
                set_threads(count)
        assert during and set(during) == {1}
        assert after == [2] * len(before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_openblas_is_reported_once(self, tiny_task, capsys, monkeypatch, workers):
        monkeypatch.setattr("deepesn.experiment._set_openblas_threads", lambda threads: [])
        report = self.suite(tiny_task, replace(TINY_SPACE, guesses=1), workers=workers)
        assert not report.failures
        assert all(entry.deep.selected is not None for entry in report.entries)
        assert capsys.readouterr().err.count("no OpenBLAS found") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_trial_is_isolated_and_logged(self, tiny_task, tmp_path, monkeypatch, workers):
        def broken_second_config(*args, config_index=0, **kwargs):
            if config_index == 1:
                raise RuntimeError("broken config")
            return evaluate_trial(*args, config_index=config_index, **kwargs)

        # forked workers inherit the patch
        monkeypatch.setattr("deepesn.experiment.evaluate_trial", broken_second_config)
        report = self.suite(tiny_task, workers=workers)
        broken = [(topology, layers) for topology in ("sparse", "ring") for layers in (1, 2)]  # plan order
        notes = tuple(f"narma10/{t}/L={l}/config=1: RuntimeError: broken config" for t, l in broken)
        assert report.failures == notes
        for entry in report.entries:
            for result in (entry.shallow, entry.deep):
                good, bad = result.trials
                assert bad.failed and not good.failed
                assert bad.guesses == 0
                assert np.isnan(statistics(bad)).all()
                assert select_best(result.trials) is good
                assert result.selected is good
        text = format_report(report)
        assert text.endswith("\n".join(["isolated failures:"] + [f"  {note}" for note in notes]) + "\n")

        log_path = tmp_path / "trials.tsv"
        log_path.write_text(trial_log_table(report), encoding="ascii")
        rows = [row for row in load_trial_log(log_path) if row["failed"]]
        assert [(row["topology"], row["layers"], row["config"]) for row in rows] == [(t, l, 1) for t, l in broken]
        for row in rows:
            assert row["guesses"] == 0
            assert row["val_mses"] == row["test_mses"] == ()
            assert not row["selected"]
            assert np.isnan([row["val_mse_mean"], row["val_mse_std"], row["test_mse_mean"], row["test_mse_std"]]).all()

    def test_deep_with_single_layer_equals_shallow(self, tiny_task):
        report = run_benchmark_suite(
            [tiny_task], ["sparse"], replace(TINY_SPACE, layer_counts=(1,)), 7,
            total_units=20,
        )
        entry = report.entries[0]
        assert entry.shallow.trials == entry.deep.trials
        assert entry.shallow.selected == entry.deep.selected

    def test_metadata_records_protocol(self, tiny_task):
        report = self.suite(tiny_task, metadata={"dataset.narma10.seed": 3})
        for key in ("master_seed", "configs_per_layer", "guesses", "rcond", "rho_range", "std_convention"):
            assert key in report.metadata
        assert report.metadata["dataset.narma10.seed"] == "3"

    def test_report_text_and_log_round_trip(self, tiny_task, tmp_path):
        report = self.suite(tiny_task)
        text = format_report(report)
        assert "task: narma10" in text
        assert "ordering checks" in text
        log_path = tmp_path / "trials.tsv"
        log_path.write_text(trial_log_table(report), encoding="ascii")
        rows = load_trial_log(log_path)
        assert len(rows) == sum(len(e.shallow.trials) + len(e.deep.trials) for e in report.entries)
        selected = [r for r in rows if r["selected"]]
        assert len(selected) == 4  # shallow and deep selection per topology
        first = rows[0]
        match = report.entries[0].shallow.trials[first["config"]]
        assert first["val_mse_mean"] == match.validation_mse_mean
        assert first["val_mses"] == match.validation_mses
