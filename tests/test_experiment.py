"""Search protocol: sampling, trial scoring, selection, determinism, logs."""

import io
import math
import os
import re
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
    Chain,
    Dataset,
    MGParams,
    Permutation,
    Ring,
    ScalingSpec,
    SearchSpace,
    Sparse,
    TrialResult,
    derive_seed,
    evaluate_trial,
    format_report,
    generate_mackey_glass,
    generate_narma10,
    load_trial_log,
    mse,
    random_stream,
    run,
    run_benchmark_suite,
    sample_config,
    trial_log_table,
)
from deepesn import readout
from deepesn.cli import make_task
from deepesn.experiment import ExperimentReport, _execute_jobs, _openblas_thread_calls, _plan_search, select_best

TINY_SPACE = SearchSpace(configs_per_layer=2, guesses=2, layer_counts=(2,))
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


@pytest.fixture(scope="module")
def tiny_task():
    return generate_narma10(600, seed=3, train_len=300, washout=20, validation_len=80)


def openblas_threads():
    return [get_threads() for _, get_threads in _openblas_thread_calls()]


def blas_threads_at(threads):
    """Every loaded OpenBLAS at ``threads`` for the test, the counts found before it restored after."""
    calls = _openblas_thread_calls()
    before = openblas_threads()
    for set_threads, _ in calls:
        set_threads(threads)
    assert openblas_threads() == [threads] * len(calls)
    yield
    for (set_threads, _), count in zip(calls, before):
        set_threads(count)


@pytest.fixture
def caller_at_two_blas_threads():
    if not _openblas_thread_calls():
        pytest.skip("no OpenBLAS is loaded")
    yield from blas_threads_at(2)


@pytest.fixture
def one_blas_thread():
    """As inside evaluate_trial."""
    yield from blas_threads_at(1)


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
        with pytest.raises(TypeError):  # the sampling ranges are fixed
            SearchSpace(rho_range=(0.2, 0.5))
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
        trial = evaluate_trial(tiny_task, Sparse(), 1, ScalingSpec(0.8, 0.6, 0.6), 1, 5, total_units=20)
        assert trial.validation_mse_std == 0.0
        assert trial.test_mse_std == 0.0
        assert trial.guesses == 1

    def test_deterministic(self, tiny_task):
        args = (tiny_task, Sparse(), 2, ScalingSpec(0.8, 0.6, 0.6), 3, 5)
        a = evaluate_trial(*args, total_units=20)
        b = evaluate_trial(*args, total_units=20)
        assert a == b

    def test_aggregates_match_recomputation(self, tiny_task):
        trial = evaluate_trial(tiny_task, Sparse(), 2, ScalingSpec(0.7, 0.5, 0.5), 4, 5,
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
            evaluate_trial(flat, Sparse(), 1, ScalingSpec(0.5, 0.5, 0.5), 1, 0, total_units=10)

    def test_at_least_one_guess(self, tiny_task):
        with pytest.raises(ValueError, match="^guesses must be at least 1, got 0$"):
            evaluate_trial(tiny_task, Sparse(), 1, ScalingSpec(0.5, 0.5, 0.5), 0, 0, total_units=20)

    def test_washout_rows_never_influence_results(self, tiny_task):
        # corrupt the targets inside the washout region only: nothing may change
        corrupted_targets = tiny_task.targets.copy()
        corrupted_targets[: tiny_task.washout] = 123.456
        corrupted = Dataset(
            tiny_task.name, tiny_task.inputs, corrupted_targets,
            train_len=tiny_task.train_len, washout=tiny_task.washout,
            validation_len=tiny_task.validation_len,
        )
        args = dict(topology=Sparse(), num_layers=2, hyper=ScalingSpec(0.9, 0.7, 0.7),
                    guesses=2, master_seed=11, total_units=20)
        a = evaluate_trial(tiny_task, **args)
        b = evaluate_trial(corrupted, **args)
        assert a.validation_mses == b.validation_mses
        assert a.test_mses == b.test_mses

    @pytest.mark.parametrize("topology, num_layers", [(Sparse(), 2), (Permutation(), 1), (Permutation(), 5)],
                             ids=["sparse-L2", "permutation-L1", "permutation-L5"])
    def test_one_leg_of_states_alive_at_a_time(self, topology, num_layers):
        # the leg alive is one piece: every range runs in 512-step pieces, so a guess holds its readout's factor
        # buffer (room for half the fit range's 2600 rows: 1501 rows here) and one piece of states: the traced peak
        # is buffer + 1.5-2.0 pieces (3.5-3.9 MB), run's un-skew temporary and the reservoir making up the rest.
        # A buffer with room for the whole fit range (2600 rows) peaked at new buffer + 3.9-4.4 pieces (5.4-5.8 MB)
        units = 200
        task = generate_narma10(6000, seed=1, train_len=3000, washout=100, validation_len=300)
        tracemalloc.start()
        try:
            evaluate_trial(task, topology, num_layers, ScalingSpec(0.9, 0.5, 0.8), 2, 7, total_units=units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fit_rows = task.train_len - task.validation_len - task.washout
        buffer, piece = (units + 1 + math.ceil((fit_rows - (units + 1)) / 2)) * (units + 1) * 8, 512 * units * 8
        assert peak <= buffer + 2.5 * piece

    @staticmethod
    def one_run_mses(task, reservoirs):
        """Each reservoir's (validation, test) MSEs from one run over the whole series, fitted in two stages."""
        washout, fit_end, train_end = task.washout, task.train_len - task.validation_len, task.train_len
        targets = task.targets[:, None]
        expected = []
        for reservoir in reservoirs:
            states = run(reservoir, task.inputs)
            # sized as evaluate_trial sizes it, so the buffer fills and is factored at the same rows
            half_fit = -(-(fit_end - washout - (reservoir.total_units + 1)) // 2)
            fit = readout.NestedFit(reservoir.total_units, 1, max(half_fit, task.validation_len))
            fit.append(states[washout:fit_end], targets[washout:fit_end])
            val_fit = readout.train_pseudo_inverse(fit)
            fit.append(states[fit_end:train_end], targets[fit_end:train_end])
            test_fit = readout.train_pseudo_inverse(fit)
            expected.append((mse(states[fit_end:train_end] @ val_fit, targets[fit_end:train_end]),
                             mse(states[train_end:] @ test_fit, targets[train_end:])))
        return tuple(v for v, _ in expected), tuple(t for _, t in expected)

    @pytest.fixture
    def built(self, monkeypatch):
        """Every reservoir evaluate_trial builds, in order."""
        reservoirs = []
        build = deepesn.experiment.build_reservoir
        monkeypatch.setattr("deepesn.experiment.build_reservoir",
                            lambda spec: reservoirs.append(build(spec)) or reservoirs[-1])
        return reservoirs

    @pytest.mark.parametrize("topology", [Sparse(), Permutation(), Ring(), Chain()], ids=lambda kind: kind.name)
    @pytest.mark.parametrize("num_layers, length, train_len, validation_len", [
        pytest.param(1, 600, 300, 80, id="1-600"),
        pytest.param(3, 600, 300, 80, id="3-600"),
        pytest.param(3, 301, 300, 80, id="3-301"),
        pytest.param(3, 3000, 1800, 700, id="3-3000"),
    ])
    def test_two_legs_give_the_one_run_mses(self, built, topology, num_layers, length, train_len, validation_len):
        # at 301 steps the test leg is one step, shorter than the deepest layer's lag of 2; at 3000 steps the
        # validation range spans 2 pieces and the test range 3, the last of each cut short
        # the first 600 steps of this series are tiny_task's
        series = generate_narma10(3000, seed=3, train_len=300, washout=20, validation_len=80)
        task = Dataset(series.name, series.inputs[:length], series.targets[:length],
                       train_len=train_len, washout=20, validation_len=validation_len)
        trial = evaluate_trial(task, topology, num_layers, ScalingSpec(0.9, 0.7, 0.6), 3, 11, total_units=20)
        assert len(built) == 3
        val_mses, test_mses = self.one_run_mses(task, built)
        assert repr(trial.validation_mses) == repr(val_mses)
        assert repr(trial.test_mses) == repr(test_mses)

    @pytest.mark.parametrize("segment", [1, 2, 7, 200, 512])
    @pytest.mark.parametrize("washout", [0, 7, 20, 150])
    def test_fit_range_segments_give_the_one_run_mses(self, tiny_task, built, monkeypatch, segment, washout):
        # segments shorter than the deepest layer's lag of 2, washouts within, across and beyond a segment,
        # and a last segment cut short by the end of the fit range
        monkeypatch.setattr("deepesn.experiment._SEGMENT", segment)
        task = replace(tiny_task, washout=washout)
        trial = evaluate_trial(task, Permutation(), 3, ScalingSpec(0.9, 0.7, 0.6), 2, 11, total_units=20)
        val_mses, test_mses = self.one_run_mses(task, built)
        assert repr(trial.validation_mses) == repr(val_mses)
        assert repr(trial.test_mses) == repr(test_mses)

    @pytest.mark.parametrize("task_name, topology, num_layers", [("mg17", Permutation(), 5), ("narma10", Sparse(), 1)],
                             ids=["mg17-permutation-L5", "narma10-sparse-L1"])
    def test_paper_size_guess_gives_the_one_run_mses(self, built, one_blas_thread, task_name, topology, num_layers):
        # 500 units over 10000 steps: the validation and test pieces' predictions keep the bits of one product over
        # their range only while each piece starts a multiple of the BLAS gemv row block from the range's start
        task, _ = make_task(task_name, seed=1, length=10000)
        trial = evaluate_trial(task, topology, num_layers, ScalingSpec(0.9, 0.5, 0.8), 1, 7, total_units=500)
        val_mses, test_mses = self.one_run_mses(task, built)
        assert repr(trial.validation_mses) == repr(val_mses)
        assert repr(trial.test_mses) == repr(test_mses)

    def test_mses_independent_of_caller_blas_threads(self, caller_at_two_blas_threads):
        # at 500 units the readout's BLAS calls split over 2 threads, which moves the MSEs' last digits
        task = generate_narma10(3000, seed=3, train_len=1500, washout=100, validation_len=300)
        space = SearchSpace(configs_per_layer=1, guesses=2, layer_counts=(2,))
        stored = run_benchmark_suite([task], [Permutation()], space, 7, total_units=500).entries[0].deep.trials[0]
        trials = []
        for threads in (2, 1, 2):
            for set_threads, _ in _openblas_thread_calls():
                set_threads(threads)
            trials.append(evaluate_trial(task, Permutation(), 2, stored.hyper, 2, 7, total_units=500))
        for trial in trials:
            assert repr(trial.validation_mses + trial.test_mses) == repr(stored.validation_mses + stored.test_mses)

    def test_pins_one_blas_thread_and_restores_the_callers(self, tiny_task, caller_at_two_blas_threads, monkeypatch):
        # an OpenBLAS left at 2 threads after any BLAS call of a guess may spin on after it
        during = {"run": [], "train_pseudo_inverse": [], "mse": []}

        def recording(name, call):
            def recorded(*args, **kwargs):
                during[name].append(openblas_threads())
                return call(*args, **kwargs)
            return recorded

        monkeypatch.setattr("deepesn.experiment.run", recording("run", run))
        monkeypatch.setattr(readout, "train_pseudo_inverse", recording("train_pseudo_inverse", readout.train_pseudo_inverse))
        monkeypatch.setattr(readout, "mse", recording("mse", readout.mse))
        args = (tiny_task, Sparse(), 2, ScalingSpec(0.8, 0.6, 0.6), 2, 5)
        evaluate_trial(*args, total_units=20)
        # per guess: one piece each of the fit, validation and test ranges, a fit after each of the first two,
        # and a validation and a test score
        assert {name: len(calls) for name, calls in during.items()} == {"run": 6, "train_pseudo_inverse": 4, "mse": 4}
        assert all(set(counts) == {1} for calls in during.values() for counts in calls)
        assert set(openblas_threads()) == {2}

        broken = []

        def broken_run(*args, **kwargs):
            broken.append(openblas_threads())
            raise RuntimeError("broken guess")

        monkeypatch.setattr("deepesn.experiment.run", broken_run)
        with pytest.raises(RuntimeError, match="broken guess"):
            evaluate_trial(*args, total_units=20)
        assert broken and set(broken[0]) == {1}
        assert set(openblas_threads()) == {2}

    def test_finds_openblas_under_a_path_with_spaces(self, tmp_path, monkeypatch):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            loaded = sorted({line[line.index("/"):].rstrip("\n") for line in maps if "openblas" in line})
        if not loaded:
            pytest.skip("no OpenBLAS is loaded")
        link = tmp_path / "a b" / Path(loaded[0]).name
        link.parent.mkdir()
        link.symlink_to(loaded[0])
        maps_text = (
            "7f0000000000-7f0000001000 rw-p 00000000 00:00 0\n"  # an anonymous mapping has no path
            f"7f0294800000-7f0294a89000 r--p 00000000 fe:00 62288                      {link}\n"
        )
        real_open = open

        def fake_open(path, *args, **kwargs):
            return io.StringIO(maps_text) if path == "/proc/self/maps" else real_open(path, *args, **kwargs)

        monkeypatch.setattr("deepesn.experiment.open", fake_open, raising=False)
        [(_, get_threads)] = _openblas_thread_calls()
        assert get_threads() >= 1


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
        plan = [job for kind in (Sparse(), Ring()) for job in _plan_search(tiny_task, kind, space, 7, 20)]
        in_order = _execute_jobs(plan, workers=1)
        order = np.random.default_rng(12345).permutation(len(plan))
        assert not np.array_equal(order, np.arange(len(plan)))
        shuffled = _execute_jobs([plan[i] for i in order], workers=2)
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

    def test_serial_search_pins_blas_then_restores_it(self, tiny_task, caller_at_two_blas_threads, monkeypatch):
        # the executor leaves the caller's threads alone; each trial pins around its own guesses
        outside, inside = [], []
        trial, fit = evaluate_trial, readout.train_pseudo_inverse

        def recording_trial(*args, **kwargs):
            outside.append(openblas_threads())
            return trial(*args, **kwargs)

        def recording_fit(*args, **kwargs):
            inside.append(openblas_threads())
            return fit(*args, **kwargs)

        monkeypatch.setattr("deepesn.experiment.evaluate_trial", recording_trial)
        monkeypatch.setattr(readout, "train_pseudo_inverse", recording_fit)
        self.suite(tiny_task, replace(TINY_SPACE, guesses=1))
        # two topologies, each with two shallow and two deep trials of one guess, and two fits per guess
        assert len(outside) == 8 and all(set(counts) == {2} for counts in outside)
        assert len(inside) == 16 and all(set(counts) == {1} for counts in inside)
        assert set(openblas_threads()) == {2}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_lines_show_rate_and_eta(self, tiny_task, capsys, workers):
        space = replace(TINY_SPACE, guesses=1)
        self.suite(tiny_task, space, workers=workers, progress=True)
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("progress:")]
        trials = 2 * 2 * space.configs_per_layer  # two topologies, each with a shallow and a deep search
        assert len(lines) == trials  # under 100 trials, every trial is reported
        for index, line in enumerate(lines, start=1):
            assert re.fullmatch(rf"progress: {index}/{trials} trials, \d+\.\d\d trials/s, ETA \d+m[0-5]\ds", line)
        assert lines[-1].endswith("ETA 0m00s")
        self.suite(tiny_task, space, workers=workers)
        assert "progress" not in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_openblas_is_reported_once(self, tiny_task, capsys, monkeypatch, workers):
        # forked workers inherit the patch, so no process finds an OpenBLAS, yet one warning is printed
        monkeypatch.setattr("deepesn.experiment._openblas_thread_calls", lambda: [])
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
        # the split, so that a results directory can rebuild its rows without the CLI's defaults
        assert {key: report.metadata[f"split.narma10.{key}"] for key in ("train_len", "washout", "validation_len")} == {
            "train_len": "300", "washout": "20", "validation_len": "80"}
        assert report.metadata["deepesn_version"] == deepesn.__version__
        assert "split.narma10.train_len = 300\n" in format_report(report)

    def test_report_over_two_tasks(self, tiny_task):
        mg17 = generate_mackey_glass(MGParams(tau=17.0), 600, train_len=300, washout=20, validation_len=80)
        report = run_benchmark_suite([tiny_task, mg17], ["sparse", "ring"], replace(TINY_SPACE, configs_per_layer=1),
                                     7, total_units=20)
        body, checks = format_report(report).split("ordering checks (deep test MSE < shallow test MSE):\n")
        blocks = body.split("task: ")[1:]
        assert len(blocks) == 2
        for task, block in zip(("narma10", "mg17"), blocks):
            name, _, *rows = filter(None, block.splitlines())  # the column header after the name
            entries = [entry for entry in report.entries if entry.task == task]
            assert name == task and len(entries) == 2
            assert [row.split()[0] for row in rows] == ["sparse", "ring"]  # only this task's entries, in plan order
            for row, entry in zip(rows, entries):
                _, shallow, _, deep, *_ = row.split()
                assert shallow == f"{entry.shallow.selected.test_mse_mean:.3e}"
                assert deep == f"{entry.deep.selected.test_mse_mean:.3e}"
        assert [line.split(":")[0].strip() for line in checks.splitlines() if line] == [
            f"{task}/{topology}" for task in ("narma10", "mg17") for topology in ("sparse", "ring")
        ]

    @pytest.mark.parametrize("text, message", [
        ("", "empty trial log"),
        ("a\tb\n", "unexpected header ('a', 'b')"),
        ("{header}x\ty\n", "malformed row: 'x\\ty'"),
    ], ids=["empty", "wrong-header", "short-row"])
    def test_malformed_log_is_rejected(self, text, message, tmp_path):
        log_path = tmp_path / "trials.tsv"
        log_path.write_text(text.format(header=trial_log_table(ExperimentReport(()))), encoding="ascii")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{log_path}: {message}')}$"):
            load_trial_log(log_path)

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
