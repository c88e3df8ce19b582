"""Readout training against the normal-equations oracle, plus scoring."""

import numpy as np
import pytest

from deepesn import (
    ReadoutWeights,
    RegressionProblem,
    StateTrajectory,
    mse,
    predict,
    train_pseudo_inverse,
)


def normal_equations(states, targets):
    """Independent oracle for well-conditioned problems."""
    gram = states.T @ states
    return np.linalg.solve(gram, states.T @ targets).T


class TestTrainPseudoInverse:
    def test_identity_design(self):
        w = train_pseudo_inverse(RegressionProblem(np.eye(3), np.array([1.0, 2.0, 3.0])))
        assert w.matrix.shape == (1, 3)
        assert np.allclose(w.matrix, [[1.0, 2.0, 3.0]], atol=1e-12)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((50, 8))
        coefs = rng.standard_normal(8)
        targets = states @ coefs
        w = train_pseudo_inverse(RegressionProblem(states, targets))
        assert np.allclose(w.matrix.ravel(), coefs, atol=1e-10)
        assert mse(states @ w.matrix.T, targets) <= 1e-20

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        states = rng.standard_normal((200, 50))
        targets = rng.standard_normal((200, 2))
        w = train_pseudo_inverse(RegressionProblem(states, targets))
        assert np.allclose(w.matrix, normal_equations(states, targets), atol=1e-8)

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((80, 12))
        targets = rng.standard_normal(80)
        w = train_pseudo_inverse(RegressionProblem(states, targets))
        base = mse(states @ w.matrix.T, targets)
        for magnitude in (1e-6, 1e-3, 1e-1):
            delta = rng.standard_normal(w.matrix.shape) * magnitude
            perturbed = mse(states @ (w.matrix + delta).T, targets)
            assert base <= perturbed * (1.0 + 1e-12) + 1e-18

    def test_minimum_norm_on_rank_deficient_problem(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((40, 6))
        states = np.hstack([base, base[:, :3]])  # duplicated columns: rank 6 of 9
        targets = rng.standard_normal(40)
        w = train_pseudo_inverse(RegressionProblem(states, targets))
        # tiny-ridge oracle approaches the minimum-norm solution from above
        ridge_oracle = np.linalg.solve(
            states.T @ states + 1e-10 * np.eye(9), states.T @ targets[:, None]
        ).T
        assert np.linalg.norm(w.matrix) <= np.linalg.norm(ridge_oracle) * (1.0 + 1e-6)
        # and still fits as well
        assert mse(states @ w.matrix.T, targets) <= mse(states @ ridge_oracle.T, targets) * (1 + 1e-9) + 1e-18

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            RegressionProblem(np.zeros((0, 3)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            RegressionProblem(np.zeros((4, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            RegressionProblem(np.full((4, 3), np.nan), np.zeros(4))


class TestPredict:
    def trajectory(self, states):
        return StateTrajectory(states=np.asarray(states, dtype=float), layer_sizes=(np.shape(states)[1],))

    def test_zero_weights_zero_predictions(self):
        traj = self.trajectory(np.random.default_rng(0).standard_normal((6, 3)))
        out = predict(ReadoutWeights(np.zeros((1, 3))), traj, washout=2)
        assert np.array_equal(out, np.zeros((4, 1)))

    def test_consistency_with_training(self):
        states = np.eye(3)
        targets = np.array([1.0, 2.0, 3.0])
        w = train_pseudo_inverse(RegressionProblem(states, targets))
        out = predict(w, self.trajectory(states), washout=0)
        assert np.allclose(out.ravel(), targets, atol=1e-12)

    def test_scalar_readout(self):
        traj = self.trajectory([[0.05], [0.1], [0.2]])
        out = predict(ReadoutWeights(np.array([[2.0]])), traj, washout=1)
        assert np.allclose(out, [[0.2], [0.4]], atol=1e-15)

    def test_washout_and_width_errors(self):
        traj = self.trajectory([[0.1], [0.2]])
        with pytest.raises(ValueError):
            predict(ReadoutWeights(np.array([[2.0]])), traj, washout=2)
        with pytest.raises(ValueError):
            predict(ReadoutWeights(np.zeros((1, 4))), traj, washout=0)


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
    traj = StateTrajectory(states=states, layer_sizes=(5,))
    coefs = rng.standard_normal((1, 5))
    targets = states @ coefs.T
    w = train_pseudo_inverse(RegressionProblem(states[3:], targets[3:]))
    assert mse(predict(w, traj, washout=3), targets[3:]) <= 1e-10
