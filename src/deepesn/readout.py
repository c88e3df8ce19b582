"""Linear readout: pseudo-inverse training and MSE scoring.

A :class:`NestedFit` takes the rows of a least-squares problem stage by
stage, straight into the column-major buffer that LAPACK's ``dgeqrf`` (the
routine behind ``np.linalg.qr``, which would copy its input twice) factors
in place, through numpy's ``lapack_lite`` binding and with the workspace
``np.linalg.qr`` would query, so the triangle is the one it gives.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, lapack_lite

__all__ = ["NestedFit", "train_pseudo_inverse", "mse", "DEFAULT_RCOND"]

DEFAULT_RCOND = 1e-12


class NestedFit:
    """Rows of ``width`` states and ``outputs`` targets, appended stage by stage, for nested readouts.

    One column-major ``[states | targets]`` buffer holds the triangle carried from the last
    :func:`train_pseudo_inverse` call (at most ``width + outputs`` rows), then up to ``rows`` new rows.
    Before the first call there is no triangle, so the first stage may fill its place too.  This buffer is
    most of a guess's memory: :func:`experiment.evaluate_trial` holds it and one piece of states.
    """

    def __init__(self, width: int, outputs: int, rows: int):
        self.width = width
        columns = width + outputs
        self.lda = columns + rows
        self.storage = np.empty((columns, self.lda))  # column j of the problem is storage[j]
        self.tau = np.empty(columns)
        work = np.empty(1)
        lapack_lite.dgeqrf(self.lda, columns, self.storage, self.lda, self.tau, work, -1, 0)  # workspace query
        self.work = np.empty(max(int(work[0]), columns))
        self.rows = 0  # the carried triangle's rows plus those appended since

    def append(self, states, targets) -> None:
        """Copy rows of states, and their targets (1-D for one output), under the carried triangle.

        Raises ``ValueError`` on wrong widths, mismatched row counts, non-finite entries (where
        ``np.linalg.lstsq`` would return NaN) and more rows than the buffer holds.
        """
        states = np.asarray(states, dtype=float)
        targets = _as_rows(targets, "targets")
        outputs = self.storage.shape[0] - self.width
        if states.ndim != 2 or states.shape[1] != self.width or targets.shape[1] != outputs:
            raise ValueError(f"rows must hold {self.width} states and {outputs} targets, "
                             f"got shapes {states.shape} and {targets.shape}")
        if states.shape[0] != targets.shape[0]:
            raise ValueError(f"row mismatch: {states.shape[0]} states vs {targets.shape[0]} targets")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(targets))):
            raise ValueError("regression problem contains non-finite entries")
        end = self.rows + states.shape[0]
        if end > self.lda:
            raise ValueError(f"{states.shape[0]} rows overflow the buffer: {self.lda - self.rows} left")
        block = self.storage.T
        block[self.rows:end, :self.width] = states
        block[self.rows:end, self.width:] = targets
        self.rows = end


def train_pseudo_inverse(fit: NestedFit) -> np.ndarray:
    """Minimum-norm least-squares readout of every row appended to ``fit`` so far.

    Returns the ``(width, outputs)`` matrix ``w``, so ``states @ w`` predicts;
    singular values below ``DEFAULT_RCOND`` times the largest count as zero.
    It is solved on the triangle ``r`` of a QR factorization of the rows
    ``[states | targets]``: ``r`` has their singular values, and ``r[:, :width]
    @ w - r[:, width:]`` their residual norm for every ``w``.  The call
    factors only the rows appended since the last call, under the triangle
    that call left in their place, so every row is factorized once, however
    many nested readouts hold it.

    Raises ``ValueError`` on an empty problem, where ``np.linalg.lstsq``
    alone would return zeros, and ``LinAlgError`` if ``dgeqrf`` fails.
    """
    if fit.rows == 0:
        raise ValueError("regression problem is empty")
    columns = fit.storage.shape[0]
    if info := lapack_lite.dgeqrf(fit.rows, columns, fit.storage, fit.lda, fit.tau, fit.work, fit.work.size, 0)["info"]:
        raise LinAlgError(f"dgeqrf failed with info={info}")
    carried = fit.rows = min(fit.rows, columns)
    for j in range(carried - 1):  # clear the reflectors under the diagonal, leaving the triangle
        fit.storage[j, j + 1:carried] = 0.0
    block = fit.storage.T
    return np.linalg.lstsq(block[:carried, :fit.width], block[:carried, fit.width:], rcond=DEFAULT_RCOND)[0]


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
