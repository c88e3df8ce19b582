"""Linear readout: pseudo-inverse training and MSE scoring."""

from __future__ import annotations

import numpy as np

DEFAULT_RCOND = 1e-12


def train_pseudo_inverse(states, targets, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Minimum-norm least-squares readout via SVD pseudo-inversion.

    ``states`` holds one post-washout global state per row and ``targets``
    the matching target rows (1-D for a single output).  Returns the
    ``(width, outputs)`` matrix ``w``, so ``states @ w`` predicts.  Singular
    values below ``rcond`` times the largest are treated as zero.

    Raises ``ValueError`` on an empty, row-mismatched or non-finite
    problem, where ``np.linalg.lstsq`` alone would return zeros or NaN.
    """
    states = np.asarray(states, dtype=float)
    targets = _as_rows(targets, "targets")
    if states.ndim != 2:
        raise ValueError(f"states must be 2-D, got shape {states.shape}")
    if states.shape[0] != targets.shape[0]:
        raise ValueError(f"row mismatch: {states.shape[0]} states vs {targets.shape[0]} targets")
    if states.shape[0] == 0:
        raise ValueError("regression problem is empty")
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(targets))):
        raise ValueError("regression problem contains non-finite entries")
    return np.linalg.lstsq(states, targets, rcond=rcond)[0]


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
