"""Acceptance criteria, one test per criterion.

Criteria 1-7 are property checks sized for CI.  Criteria 8-10 verify the
full-budget benchmark reproduction; they read trial logs from the directory
named by DEEPESN_RESULTS (written by `deepesn benchmark` at its default,
full budget) and skip without it.

Criterion 5 is recorded as a strict expected failure: the generated series
is chaotic, so trajectory-level agreement between step sizes over 1000
emitted samples is unattainable for any practical step (deviations are
amplified by roughly e^(0.004 t); halving the step from the default leaves
a sup-norm gap of order 1e-1, crossing 1e-3 within ~20 samples).
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import deepesn as d

RESULTS_ENV = "DEEPESN_RESULTS"

SIZES = (2, 10, 167, 500)
NUM_SEEDS = 100


# --- criterion 1: topology exactness -------------------------------------

def test_c01_permutation_and_ring_orthogonality():
    for seed in range(NUM_SEEDS):
        lam = 0.3 + 0.6 * seed / (NUM_SEEDS - 1)
        for n in SIZES:
            p = d.Permutation().recurrent(n, lam, d.random_stream(seed, n))
            assert np.abs(p.T @ p - lam * lam * np.eye(n)).max() <= 1e-12
    for n in SIZES:
        r = d.Ring().recurrent(n, 0.9, None)
        assert np.abs(r.T @ r - 0.81 * np.eye(n)).max() <= 1e-12


def test_c01_chain_nilpotent_exactly():
    for n in SIZES:
        m = d.Chain().recurrent(n, 0.9, None)
        assert np.array_equal(np.linalg.matrix_power(m, n), np.zeros((n, n)))


def test_c01_sparse_hits_target_radius():
    for seed in range(NUM_SEEDS):
        rho = 0.1 + 0.9 * (seed + 1) / NUM_SEEDS
        n = SIZES[seed % len(SIZES)]
        m = d.topology.make_sparse_recurrent(n, min(5, n), rho, d.random_stream(seed, 1000 + n))
        oracle = np.max(np.abs(np.linalg.eigvals(m)))  # independent dense eigensolver
        assert abs(oracle - rho) <= 1e-8


# --- criterion 2: dynamics ------------------------------------------------

def test_c02_zero_input_zero_state_and_boundedness():
    scaling = d.ScalingSpec(rho=0.9, omega_in=1.5, omega_il=1.5)
    spec = d.ReservoirSpec(total_units=500, num_layers=3, topology=d.Sparse(), scaling=scaling, seed=2)
    res = d.build_reservoir(spec)
    zeros = d.run(res, np.zeros(200))
    assert np.array_equal(zeros, np.zeros((200, 500)))
    driven = d.run(res, d.generate_narma10(1000, 0, train_len=500, washout=10, validation_len=100).inputs)
    assert np.all(np.abs(driven) < 1.0)


def test_c02_permutation_contraction_factor():
    scaling = d.ScalingSpec(rho=0.9, omega_in=1.0, omega_il=1.0)
    spec = d.ReservoirSpec(total_units=167, num_layers=1, topology=d.Permutation(), scaling=scaling, seed=4)
    res = d.build_reservoir(spec)
    inputs = d.generate_narma10(400, 1, train_len=200, washout=10, validation_len=50).inputs
    start = np.clip(np.random.default_rng(0).uniform(-0.8, 0.8, 167), -0.8, 0.8)
    a = d.run(res, inputs)
    b = d.run(res, inputs, initial_state=start)
    previous = float(np.linalg.norm(start))
    for gap in np.linalg.norm(a - b, axis=1):
        if previous < 1e-4:
            break
        assert gap / previous <= 0.9 + 1e-9
        previous = float(gap)


# --- criterion 3: readout oracle -------------------------------------------

def fit_readout(states, targets):
    fit = d.NestedFit(states.shape[1], targets.shape[1], len(states))
    fit.append(states, targets)
    return d.train_pseudo_inverse(fit)


def test_c03_pseudo_inverse_matches_normal_equations():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rows = int(rng.integers(100, 300))
        cols = int(rng.integers(10, 60))
        states = rng.standard_normal((rows, cols))
        targets = rng.standard_normal((rows, 1))
        fitted = fit_readout(states, targets)
        oracle = np.linalg.solve(states.T @ states, states.T @ targets)
        assert np.abs(fitted - oracle).max() <= 1e-8


def test_c03_noiseless_linear_training_error():
    rng = np.random.default_rng(34)
    for _ in range(10):
        states = rng.standard_normal((120, 20))
        coefs = rng.standard_normal((1, 20))
        targets = states @ coefs.T
        fitted = fit_readout(states, targets)
        assert d.mse(states @ fitted, targets) <= 1e-18


# --- criterion 4: NARMA10 oracle -------------------------------------------

def test_c04_narma10_reevaluation_exact():
    for seed in (0, 1, 2):
        ds = d.generate_narma10(10000, seed)
        u = [0.0] * 10 + [float(v) for v in ds.inputs]
        y = [0.0] * (len(ds) + 10)
        for t in range(10, len(y)):
            window = 0.0
            for i in range(t - 10, t):
                window += y[i]
            y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * window + 1.5 * u[t - 10] * u[t - 1] + 0.1
        assert np.array_equal(ds.targets, np.asarray(y[10:]))


def test_c04_zero_input_prefix():
    prefix = d.datasets.narma10_targets(np.zeros(2))
    assert prefix[0] == 0.1
    assert prefix[1] == pytest.approx(0.1305, abs=1e-15)


# --- criterion 5: Mackey-Glass step refinement (unattainable, kept honest) --

@pytest.mark.xfail(
    strict=True,
    reason="chaotic trajectory divergence: no practical Euler step keeps the "
    "h vs h/2 sup-norm gap below 1e-3 across 1000 emitted samples",
)
def test_c05_mg_step_refinement_over_1000_samples():
    base = d.MGParams(tau=17.0)  # step 0.1, one sample per time unit
    half = replace(base, step=base.step / 2, subsample=base.subsample * 2)
    coarse = d.datasets.mackey_glass_raw(base, 1000)
    fine = d.datasets.mackey_glass_raw(half, 1000)
    assert np.max(np.abs(coarse - fine)) < 1e-3


# --- criterion 6: determinism of the reduced-budget benchmark ---------------

def _ci_tasks():
    splits = dict(train_len=300, washout=20, validation_len=80)
    return [
        d.generate_narma10(600, 1, **splits),
        d.generate_mackey_glass(d.MGParams(tau=17.0), 600, **splits),
        d.generate_mackey_glass(d.MGParams(tau=30.0), 600, **splits),
    ]


def _ci_suite(**kwargs):
    space = d.SearchSpace(configs_per_layer=3, guesses=2)
    return d.run_benchmark_suite(
        _ci_tasks(), ["sparse", "permutation", "ring", "chain"], space, 21,
        total_units=30, **kwargs,
    )


def test_c06_reduced_benchmark_rerun_and_parallel_shuffle_identical():
    # the pool spreads the trials over its workers; that the executor's outcomes
    # do not depend on the order it runs the plan in is checked in test_experiment.py
    first = d.trial_log_table(_ci_suite())
    rerun = d.trial_log_table(_ci_suite())
    parallel = d.trial_log_table(_ci_suite(workers=2))
    assert first == rerun
    assert first == parallel


# --- criterion 7: shallow pipeline is the deep pipeline at L = 1 ------------

def test_c07_single_layer_deep_equals_shallow_bit_exactly():
    task = d.generate_narma10(600, 2, train_len=300, washout=20, validation_len=80)
    space = d.SearchSpace(configs_per_layer=4, guesses=2, layer_counts=(1,))
    report = d.run_benchmark_suite([task], ["sparse", "ring"], space, 13, total_units=30)
    for entry in report.entries:
        assert entry.shallow.trials == entry.deep.trials
        assert entry.shallow.selected == entry.deep.selected


# --- criteria 8-10: full-budget quantitative reproduction -------------------

MG17_DEEP_PERMUTATION_REFERENCE = 4.576e-10  # published reference point for the interval check
FULL_TASKS = ("narma10", "mg17", "mg30")
TOPOLOGIES = ("sparse", "permutation", "ring", "chain")


def _load_result_rows():
    results_dir = os.environ.get(RESULTS_ENV)
    if not results_dir:
        pytest.skip(f"full-budget checks need {RESULTS_ENV}=<dir with trials.tsv from `deepesn benchmark`>")
    logs = sorted(Path(results_dir).rglob("trials.tsv"))
    if not logs:
        pytest.skip(f"{RESULTS_ENV}={results_dir} contains no trials.tsv files")
    return [row for log in logs for row in d.load_trial_log(log)]


@pytest.fixture(scope="session")
def full_rows():
    return _load_result_rows()


def _selected(rows, task, topology, group):
    hits = [r for r in rows if r["task"] == task and r["topology"] == topology
            and r["group"] == group and r["selected"]]
    if not hits:
        pytest.skip(f"no completed {group} search for {task}/{topology} in the supplied logs")
    assert len(hits) == 1, f"multiple selected rows for {task}/{topology}/{group}"
    return hits[0]


@pytest.mark.full
def test_c08_narma10_quantitative(full_rows):
    shallow_sparse = _selected(full_rows, "narma10", "sparse", "shallow")
    deep_permutation = _selected(full_rows, "narma10", "permutation", "deep")
    assert 0.8e-4 <= shallow_sparse["test_mse_mean"] <= 3.5e-4
    assert deep_permutation["test_mse_mean"] < shallow_sparse["test_mse_mean"]


@pytest.mark.full
def test_c09_mg17_quantitative(full_rows):
    shallow_sparse = _selected(full_rows, "mg17", "sparse", "shallow")
    deep_permutation = _selected(full_rows, "mg17", "permutation", "deep")
    assert MG17_DEEP_PERMUTATION_REFERENCE / 10 <= deep_permutation["test_mse_mean"] <= MG17_DEEP_PERMUTATION_REFERENCE * 10
    assert deep_permutation["test_mse_mean"] * 2 <= shallow_sparse["test_mse_mean"]


@pytest.mark.full
def test_c10_deep_beats_shallow_everywhere(full_rows):
    tasks = list(FULL_TASKS)
    if any(r["task"] == "laser" for r in full_rows):
        tasks.append("laser")  # ordering applies to laser only when its data was supplied
    violations = []
    for task in tasks:
        for topology in TOPOLOGIES:
            shallow = _selected(full_rows, task, topology, "shallow")
            deep = _selected(full_rows, task, topology, "deep")
            if not deep["test_mse_mean"] < shallow["test_mse_mean"]:
                violations.append(
                    f"{task}/{topology}: deep {deep['test_mse_mean']:.3e} "
                    f">= shallow {shallow['test_mse_mean']:.3e}"
                )
    assert not violations, "; ".join(violations)
