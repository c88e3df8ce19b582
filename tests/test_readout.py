"""Readout training against the normal-equations and lstsq oracles, plus scoring."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepesn import DEFAULT_RCOND, NestedFit, mse, train_pseudo_inverse


def fit_prefixes(states, targets, row_ends=None, room=None):
    """One readout per prefix end (default: all rows), each prefix's new rows appended, then fitted.

    The buffer has ``room`` rows past the triangle's (default: the longest stage's).
    """
    states = np.asarray(states, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(len(states), -1)
    ends = [len(states)] if row_ends is None else list(row_ends)
    starts = [0] + ends[:-1]
    fit = NestedFit(states.shape[1], targets.shape[1], room or max(b - a for a, b in zip(starts, ends)))
    fits = []
    for start, end in zip(starts, ends):
        fit.append(states[start:end], targets[start:end])
        fits.append(train_pseudo_inverse(fit))
    return fits


def normal_equations(states, targets):
    """Independent oracle for well-conditioned problems."""
    gram = states.T @ states
    return np.linalg.solve(gram, states.T @ targets)


class TestTrainPseudoInverse:
    def test_identity_design(self):
        [w] = fit_prefixes(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert w.shape == (3, 1)
        assert np.allclose(w, [[1.0], [2.0], [3.0]], atol=1e-12)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((50, 8))
        coefs = rng.standard_normal(8)
        targets = states @ coefs
        [w] = fit_prefixes(states, targets)
        assert np.allclose(w.ravel(), coefs, atol=1e-10)
        assert mse(states @ w, targets) <= 1e-20

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        states = rng.standard_normal((200, 50))
        targets = rng.standard_normal((200, 2))
        [w] = fit_prefixes(states, targets)
        assert np.allclose(w, normal_equations(states, targets), atol=1e-8)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((80, 12))
        targets = rng.standard_normal(80)
        [w] = fit_prefixes(states, targets)
        base = mse(states @ w, targets)
        for magnitude in (1e-6, 1e-3, 1e-1):
            delta = rng.standard_normal(w.shape) * magnitude
            perturbed = mse(states @ (w + delta), targets)
            assert base <= perturbed * (1.0 + 1e-12) + 1e-18

    def test_minimum_norm_on_rank_deficient_problem(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((40, 6))
        states = np.hstack([base, base[:, :3]])  # duplicated columns: rank 6 of 9
        targets = rng.standard_normal(40)
        [w] = fit_prefixes(states, targets)
        # tiny-ridge oracle approaches the minimum-norm solution from above
        ridge_oracle = np.linalg.solve(states.T @ states + 1e-10 * np.eye(9), states.T @ targets[:, None])
        assert np.linalg.norm(w) <= np.linalg.norm(ridge_oracle) * (1.0 + 1e-6)
        # and still fits as well
        assert mse(states @ w, targets) <= mse(states @ ridge_oracle, targets) * (1 + 1e-9) + 1e-18

    def test_problem_validation(self):
        # lstsq alone returns zeros for an empty problem and NaN for a non-finite one
        with pytest.raises(ValueError, match="empty"):
            train_pseudo_inverse(NestedFit(3, 1, 4))
        fit = NestedFit(3, 1, 4)
        fit.append(np.zeros((0, 3)), np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            train_pseudo_inverse(fit)
        with pytest.raises(ValueError, match="row mismatch"):
            fit.append(np.zeros((4, 3)), np.zeros(5))
        with pytest.raises(ValueError, match="non-finite"):
            fit.append(np.full((4, 3), np.nan), np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            fit.append(np.ones((4, 3)), np.array([0.0, np.inf, 0.0, 0.0]))
        for states, targets in ((np.ones((4, 2)), np.zeros(4)), (np.ones(3), np.zeros(1)),
                                (np.ones((4, 3)), np.zeros((4, 2)))):  # wrong widths
            with pytest.raises(ValueError, match="must hold 3 states and 1 targets"):
                fit.append(states, targets)
        assert fit.rows == 0  # a rejected append copies nothing
        for rows in (0, -1):  # a buffer factored down to its triangle would have no room left
            with pytest.raises(ValueError, match=f"^rows must be at least 1, got {rows}$"):
                NestedFit(3, 1, rows)
        # 4 rows of room after a triangle's 4: 9 rows, or 5 after a fit, fill the buffer, which factors itself
        # down to its triangle and takes the last row under it
        rng = np.random.default_rng(1)
        states, targets = rng.standard_normal((14, 3)), rng.standard_normal(14)
        for start, end in ((0, 9), (9, 14)):
            fit.append(states[start:end], targets[start:end])
            assert fit.rows == 5
            w = train_pseudo_inverse(fit)
            assert fit.rows == 4
            assert np.allclose(w, np.linalg.lstsq(states[:end], targets[:end, None], rcond=DEFAULT_RCOND)[0])


@st.composite
def nested_problems(draw):
    """Tall, wide and column-rank-deficient problems with 1-3 nested prefixes, in buffers with 1-30 rows of room.

    A buffer with less room than a stage factors itself down to its triangle, once or many times, within it.
    """
    rows = draw(st.integers(1, 30))
    base = draw(st.integers(1, 10))
    duplicated = draw(st.integers(0, min(base, 3)))  # copies of leading columns: rank-deficient when rows > base
    outputs = draw(st.sampled_from([None, 1, 3]))  # None: 1-D targets
    row_ends = sorted(draw(st.sets(st.integers(1, rows), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = rng.standard_normal((rows, base))
    states = np.hstack([columns, columns[:, :duplicated]])
    targets = rng.standard_normal(rows if outputs is None else (rows, outputs))
    return states, targets, row_ends, draw(st.integers(1, rows))


class TestNestedPrefixes:
    """Every prefix's readout is the one lstsq fits on that prefix alone."""

    @settings(max_examples=200, deadline=None)
    @given(nested_problems())
    # the first prefix is one row of three columns, so the carried triangle is trapezoidal
    @example((np.array([[0.5, 0.5], [-1.5, -1.5]]), np.array([1.0, 2.0]), [1, 2], 1))
    # one row of room after a triangle of two: the second stage's rows are factored in one at a time
    @example((np.arange(12.0).reshape(12, 1) % 5, np.arange(12.0) % 3, [3, 12], 1))
    def test_each_prefix_matches_lstsq(self, problem):
        states, targets, row_ends, room = problem
        fits = fit_prefixes(states, targets, row_ends, room)
        assert len(fits) == len(row_ends)
        targets = targets.reshape(len(targets), -1)
        for end, w in zip(row_ends, fits):
            a, y = states[:end], targets[:end]
            ref = np.linalg.lstsq(a, y, rcond=DEFAULT_RCOND)[0]
            assert w.shape == ref.shape
            singular = np.linalg.svd(a, compute_uv=False)
            if singular[-1] > 1e-3 * singular[0]:  # well conditioned
                assert np.allclose(w, ref, rtol=1e-8, atol=1e-8)
            else:  # rank-deficient: the same fit, and no larger a readout
                scale = 1.0 + np.linalg.norm(y)
                assert abs(np.linalg.norm(a @ w - y) - np.linalg.norm(a @ ref - y)) <= 1e-8 * scale
                assert np.linalg.norm(w) <= np.linalg.norm(ref) * (1.0 + 1e-8) + 1e-12


@settings(max_examples=50, deadline=None)
@given(nested_problems(), st.data())
def test_a_stage_appended_in_pieces_fits_the_same_bits(problem, data):
    # the rows land in the same places of the buffer, and a full buffer is factored wherever the cuts fall, so the
    # factorization cannot tell the pieces apart
    states, targets, row_ends, room = problem
    whole = fit_prefixes(states, targets, row_ends, room)
    fit = NestedFit(states.shape[1], np.reshape(targets, (len(states), -1)).shape[1], room)
    start = 0
    for end, expected in zip(row_ends, whole):
        cuts = sorted(data.draw(st.sets(st.integers(start, end), max_size=3)))
        for a, b in zip([start] + cuts, cuts + [end]):
            fit.append(states[a:b], targets[a:b])
        assert np.array_equal(train_pseudo_inverse(fit), expected)
        start = end


def test_fit_factors_its_buffer_in_place():
    # the rows are factored where they were appended; a copy of them before factoring peaks above twice the buffer
    rng = np.random.default_rng(5)
    states = np.tanh(rng.standard_normal((3000, 200)))
    targets = rng.standard_normal(3000)
    tracemalloc.start()
    try:
        fit = NestedFit(200, 1, 2000)
        for start, end in ((0, 2000), (2000, 3000)):
            fit.append(states[start:end], targets[start:end])
            train_pseudo_inverse(fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = 201 * (201 + 2000) * 8  # the carried triangle's rows on top of the longest stage
    assert peak <= 1.6 * buffer


class TestPredict:
    """Prediction is the product of the post-washout states with the trained matrix."""

    def test_consistency_with_training(self):
        states = np.eye(3)
        targets = np.array([1.0, 2.0, 3.0])
        [w] = fit_prefixes(states, targets)
        assert np.allclose((states @ w).ravel(), targets, atol=1e-12)


class TestMse:
    def test_identical_is_zero(self):
        values = np.arange(5.0)
        assert mse(values, values) == 0.0

    def test_unit_error(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_direct_arithmetic(self):
        assert mse([1.0, 2.0], [0.0, 4.0]) == pytest.approx(2.5, abs=0)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(20)
        t = rng.standard_normal(20)
        order = rng.permutation(20)
        assert mse(p, t) == pytest.approx(mse(p[order], t[order]), rel=1e-15)

    def test_mean_over_components_too(self):
        p = np.array([[0.0, 0.0], [0.0, 0.0]])
        t = np.array([[1.0, 1.0], [3.0, 1.0]])
        assert mse(p, t) == pytest.approx((1 + 1 + 9 + 1) / 4)

    def test_errors(self):
        with pytest.raises(ValueError):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            mse([], [])


def test_predict_after_train_on_noiseless_trajectory():
    rng = np.random.default_rng(9)
    states = np.tanh(rng.standard_normal((30, 5)))
    coefs = rng.standard_normal((1, 5))
    targets = states @ coefs.T
    [w] = fit_prefixes(states[3:], targets[3:])
    assert mse(states[3:] @ w, targets[3:]) <= 1e-10
