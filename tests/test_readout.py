"""Readout training against the normal-equations oracle, plus scoring."""

import numpy as np
import pytest

from deepesn import mse, train_pseudo_inverse


def normal_equations(states, targets):
    """Independent oracle for well-conditioned problems."""
    gram = states.T @ states
    return np.linalg.solve(gram, states.T @ targets)


class TestTrainPseudoInverse:
    def test_identity_design(self):
        w = train_pseudo_inverse(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert w.shape == (3, 1)
        assert np.allclose(w, [[1.0], [2.0], [3.0]], atol=1e-12)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((50, 8))
        coefs = rng.standard_normal(8)
        targets = states @ coefs
        w = train_pseudo_inverse(states, targets)
        assert np.allclose(w.ravel(), coefs, atol=1e-10)
        assert mse(states @ w, targets) <= 1e-20

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        states = rng.standard_normal((200, 50))
        targets = rng.standard_normal((200, 2))
        w = train_pseudo_inverse(states, targets)
        assert np.allclose(w, normal_equations(states, targets), atol=1e-8)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((80, 12))
        targets = rng.standard_normal(80)
        w = train_pseudo_inverse(states, targets)
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
        w = train_pseudo_inverse(states, targets)
        # tiny-ridge oracle approaches the minimum-norm solution from above
        ridge_oracle = np.linalg.solve(states.T @ states + 1e-10 * np.eye(9), states.T @ targets[:, None])
        assert np.linalg.norm(w) <= np.linalg.norm(ridge_oracle) * (1.0 + 1e-6)
        # and still fits as well
        assert mse(states @ w, targets) <= mse(states @ ridge_oracle, targets) * (1 + 1e-9) + 1e-18

    def test_problem_validation(self):
        # lstsq alone returns zeros for an empty problem and NaN for a non-finite one
        with pytest.raises(ValueError):
            train_pseudo_inverse(np.zeros((0, 3)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            train_pseudo_inverse(np.zeros((4, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            train_pseudo_inverse(np.full((4, 3), np.nan), np.zeros(4))
        with pytest.raises(ValueError):
            train_pseudo_inverse(np.ones((4, 3)), np.array([0.0, np.inf, 0.0, 0.0]))


class TestPredict:
    """Prediction is the product of the post-washout states with the trained matrix."""

    def test_consistency_with_training(self):
        states = np.eye(3)
        targets = np.array([1.0, 2.0, 3.0])
        w = train_pseudo_inverse(states, targets)
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
    w = train_pseudo_inverse(states[3:], targets[3:])
    assert mse(states[3:] @ w, targets[3:]) <= 1e-10
