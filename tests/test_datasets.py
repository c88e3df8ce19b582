"""Generators, the laser loader and dataset validation."""

import numpy as np
import pytest

from deepesn import (
    Dataset,
    DivergenceError,
    MGParams,
    generate_mackey_glass,
    generate_narma10,
    load_laser,
    save_series,
)
from deepesn.datasets import mackey_glass_raw, narma10_targets


def narma_oracle(inputs):
    """Independent re-evaluation of the order-10 recurrence."""
    u = [0.0] * 10 + list(map(float, inputs))
    y = [0.0] * (len(inputs) + 10)
    for t in range(10, len(y)):
        window = 0.0
        for i in range(t - 10, t):
            window += y[i]
        y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * window + 1.5 * u[t - 10] * u[t - 1] + 0.1
    return np.asarray(y[10:])


class TestNarma10:
    def test_zero_input_prefix_matches_hand_values(self):
        targets = narma10_targets(np.zeros(4))
        assert targets[0] == 0.1
        assert targets[1] == 0.3 * 0.1 + 0.05 * 0.1 * 0.1 + 0.1
        assert targets[1] == pytest.approx(0.1305, abs=1e-15)
        y3 = 0.3 * targets[1] + 0.05 * targets[1] * (targets[0] + targets[1]) + 0.1
        assert targets[2] == y3

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_recurrence_reevaluation_oracle_exact(self, seed):
        ds = generate_narma10(2000, seed, train_len=1200, washout=50, validation_len=200)
        assert np.array_equal(ds.targets, narma_oracle(ds.inputs))

    def test_inputs_uniform_on_half_interval(self):
        ds = generate_narma10(10000, seed=5)
        assert ds.inputs.min() >= 0.0
        assert ds.inputs.max() <= 0.5
        assert ds.inputs.mean() == pytest.approx(0.25, abs=0.01)

    def test_default_lengths(self):
        ds = generate_narma10(10000, seed=3)
        assert len(ds) == 10000
        assert ds.train_len == 5000 and ds.washout == 100 and ds.validation_len == 1000

    def test_determinism(self):
        a = generate_narma10(500, 7, train_len=300, washout=10, validation_len=50)
        b = generate_narma10(500, 7, train_len=300, washout=10, validation_len=50)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_too_short(self):
        with pytest.raises(ValueError):
            generate_narma10(10, seed=0)

    def test_divergence_is_reported(self):
        # constant maximal input drives the recurrence out of its stable region
        with pytest.raises(DivergenceError):
            narma10_targets(np.full(5000, 0.5))

    def test_real_seed_divergence_names_the_seed(self):
        # 125 of seeds 0-2999 diverge at 10000 steps; 15 is the first
        with pytest.raises(DivergenceError, match="diverged for seed 15$"):
            generate_narma10(10000, 15)


class TestMackeyGlass:
    def test_squashed_range_and_alignment(self):
        ds = generate_mackey_glass(MGParams(tau=17.0), 1500, train_len=900, washout=50, validation_len=100)
        assert np.all(np.abs(ds.inputs) < 1.0)
        assert np.all(np.abs(ds.targets) < 1.0)
        assert np.array_equal(ds.targets[:-1], ds.inputs[1:])
        assert len(ds) == 1500
        assert ds.name == "mg17"

    def test_raw_series_stays_positive_and_bounded(self):
        raw = mackey_glass_raw(MGParams(tau=30.0), 1200)
        assert raw.min() > 0.0
        assert raw.max() < 2.0

    def test_deterministic(self):
        a = mackey_glass_raw(MGParams(tau=17.0), 300)
        b = mackey_glass_raw(MGParams(tau=17.0), 300)
        assert np.array_equal(a, b)

    def test_first_order_step_refinement_on_early_window(self):
        # before chaotic separation kicks in, halving the step roughly halves
        # the deviation; the window here stays within the smooth early segment
        base = MGParams(tau=17.0, step=0.1, subsample=10, discard=0)
        half = MGParams(tau=17.0, step=0.05, subsample=20, discard=0)
        quarter = MGParams(tau=17.0, step=0.025, subsample=40, discard=0)
        n = 300
        d1 = np.max(np.abs(mackey_glass_raw(base, n) - mackey_glass_raw(half, n)))
        d2 = np.max(np.abs(mackey_glass_raw(half, n) - mackey_glass_raw(quarter, n)))
        assert d2 < d1
        assert d1 / d2 == pytest.approx(2.0, abs=0.6)
        # the very first samples agree tightly
        d_head = np.max(np.abs(mackey_glass_raw(base, 15) - mackey_glass_raw(half, 15)))
        assert d_head < 1e-3

    def test_divergent_step_raises(self):
        with pytest.raises(DivergenceError):
            mackey_glass_raw(MGParams(tau=17.0, step=30.0, subsample=1, discard=0), 500)

    def test_step_coarser_than_delay_rejected(self):
        with pytest.raises(ValueError):
            mackey_glass_raw(MGParams(tau=17.0, step=50.0, subsample=1, discard=0), 10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MGParams(tau=-1.0)
        with pytest.raises(ValueError):
            MGParams(step=0.0)
        with pytest.raises(ValueError):
            MGParams(subsample=0)

    def test_mg30_name(self):
        ds = generate_mackey_glass(MGParams(tau=30.0), 400, train_len=250, washout=20, validation_len=50)
        assert ds.name == "mg30"


class TestLaserLoader:
    def test_scale_and_shift(self, tmp_path):
        path = tmp_path / "laser.txt"
        path.write_text("100\n200\n300\n")
        with pytest.warns(UserWarning):
            ds = load_laser(path, train_len=1, washout=0, validation_len=0)
        assert np.allclose(ds.inputs, [1.0, 2.0])
        assert np.allclose(ds.targets, [2.0, 3.0])

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.uniform(10.0, 300.0, size=64)
        path = tmp_path / "series.txt"
        save_series(values, path)
        with pytest.warns(UserWarning):
            ds = load_laser(path, train_len=30, washout=2, validation_len=5)
        assert np.array_equal(ds.inputs, values[:-1] * 0.01)
        assert np.array_equal(ds.targets, values[1:] * 0.01)

    def test_canonical_count_does_not_warn(self, tmp_path, recwarn):
        values = np.abs(np.sin(np.arange(10092))) * 100 + 1
        path = tmp_path / "laser.txt"
        save_series(values, path)
        ds = load_laser(path)
        assert len(ds) == 10091
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_non_numeric_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.5\nbogus\n2.5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_laser(path, train_len=1, washout=0, validation_len=0)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_laser(path, train_len=1, washout=0, validation_len=0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_laser(tmp_path / "absent.txt")


def test_dataset_validation():
    values = np.linspace(0.0, 1.0, 5000)
    with pytest.raises(ValueError):
        Dataset("toy", values, values, train_len=5000)  # too short: needs train_len + 1
    with pytest.raises(ValueError):
        Dataset("x", np.ones(100), np.ones(99), train_len=50)
    with pytest.raises(ValueError):
        Dataset("x", np.ones(100), np.full(100, np.nan), train_len=50)
    with pytest.raises(ValueError):
        # washout plus validation swallows the whole training split
        Dataset("x", np.ones(100), np.ones(100), train_len=50, washout=30, validation_len=20)
