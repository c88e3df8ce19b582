"""Linear readout: pseudo-inverse training, prediction and MSE scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reservoir import StateTrajectory

DEFAULT_RCOND = 1e-12


@dataclass(frozen=True)
class RegressionProblem:
    """Post-washout global states paired with their target rows."""

    states: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if states.ndim != 2:
            raise ValueError(f"states must be 2-D, got shape {states.shape}")
        if targets.ndim == 1:
            targets = targets[:, None]
        if targets.ndim != 2:
            raise ValueError(f"targets must be 1-D or 2-D, got shape {targets.shape}")
        if states.shape[0] != targets.shape[0]:
            raise ValueError(f"row mismatch: {states.shape[0]} states vs {targets.shape[0]} targets")
        if states.shape[0] == 0:
            raise ValueError("regression problem is empty")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(targets))):
            raise ValueError("regression problem contains non-finite entries")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class ReadoutWeights:
    """Trained output matrix, one row per output component."""

    matrix: np.ndarray

    @property
    def width(self) -> int:
        return int(self.matrix.shape[1])


def train_pseudo_inverse(problem: RegressionProblem, rcond: float = DEFAULT_RCOND) -> ReadoutWeights:
    """Minimum-norm least-squares readout via SVD pseudo-inversion.

    Singular values below ``rcond`` times the largest are treated as zero.
    """
    coeffs, _, _, _ = np.linalg.lstsq(problem.states, problem.targets, rcond=rcond)
    return ReadoutWeights(matrix=np.ascontiguousarray(coeffs.T))


def predict(weights: ReadoutWeights, trajectory: StateTrajectory, washout: int) -> np.ndarray:
    """Apply the readout to every post-washout global state, in step order."""
    if not 0 <= washout < trajectory.num_steps:
        raise ValueError(f"washout must be in [0, {trajectory.num_steps}), got {washout}")
    if trajectory.width != weights.width:
        raise ValueError(f"state width {trajectory.width} does not match readout width {weights.width}")
    return trajectory.states[washout:] @ weights.matrix.T


def mse(predictions, targets) -> float:
    """Mean squared error over steps and output components."""
    p = _as_rows(predictions, "predictions")
    t = _as_rows(targets, "targets")
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.shape[0] == 0:
        raise ValueError("cannot score an empty sequence")
    diff = p - t
    return float(np.mean(diff * diff))


def _as_rows(values, label: str) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError(f"{label} must be 1-D or 2-D, got shape {out.shape}")
    return out
