"""Linear readout: pseudo-inverse training and MSE scoring.

A :class:`NestedFit` takes the rows of a least-squares problem stage by
stage, straight into the column-major buffer that LAPACK's ``dgeqrf`` (the
routine behind ``np.linalg.qr``, which would copy its input twice) factors
in place, through numpy's ``lapack_lite`` binding and with the workspace
``np.linalg.qr`` would query, so the triangle is the one it gives.  A
buffer that fills up is factored down to that triangle before more rows go
under it: the sequential TSQR of Demmel, Grigori, Hoemmen and Langou (SIAM
J. Sci. Comput. 34, 2012), backward stable like one Householder QR of all
the rows.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, lapack_lite

__all__ = ["NestedFit", "train_pseudo_inverse", "mse", "DEFAULT_RCOND"]

DEFAULT_RCOND = 1e-12


class NestedFit:
    """Rows of ``width`` states and ``outputs`` targets, appended stage by stage, for nested readouts.

    One column-major ``[states | targets]`` buffer holds a triangle of at most ``width + outputs`` rows, then
    room for at least ``rows`` more.  Before the first factorization there is no triangle, so the first rows
    may fill its place too.  An append that finds the buffer full factors it down to its triangle, as
    :func:`train_pseudo_inverse` does, and goes on copying under it, so a stage may hold more rows than the
    buffer and still be factored once per row.  Where those factorizations fall depends only on the buffer's
    size, not on how the rows are cut into appends.  This buffer is most of a guess's memory:
    :func:`experiment.evaluate_trial` holds it and one piece of states.
    """

    def __init__(self, width: int, outputs: int, rows: int):
        if rows < 1:  # a full buffer factored down to its triangle would have no room left
            raise ValueError(f"rows must be at least 1, got {rows}")
        self.width = width
        columns = width + outputs
        self.lda = columns + rows
        self.storage = np.empty((columns, self.lda))  # column j of the problem is storage[j]
        self.tau = np.empty(columns)
        work = np.empty(1)
        lapack_lite.dgeqrf(self.lda, columns, self.storage, self.lda, self.tau, work, -1, 0)  # workspace query
        self.work = np.empty(max(int(work[0]), columns))
        self.rows = 0  # the triangle's rows plus those appended since

    def append(self, states, targets) -> None:
        """Copy rows of states, and their targets (1-D for one output), under the triangle.

        Raises ``ValueError`` on wrong widths, mismatched row counts and non-finite entries (where
        ``np.linalg.lstsq`` would return NaN), before copying any row, and ``LinAlgError`` if ``dgeqrf`` fails.
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
        block = self.storage.T
        while states.shape[0]:
            if self.rows == self.lda:
                self._factor()
            take = min(self.lda - self.rows, states.shape[0])
            block[self.rows:self.rows + take, :self.width] = states[:take]
            block[self.rows:self.rows + take, self.width:] = targets[:take]
            self.rows += take
            states, targets = states[take:], targets[take:]

    def _factor(self) -> None:
        """Factor the buffer's rows in place with ``dgeqrf`` and keep their triangle."""
        columns = self.storage.shape[0]
        if info := lapack_lite.dgeqrf(self.rows, columns, self.storage, self.lda, self.tau, self.work,
                                      self.work.size, 0)["info"]:
            raise LinAlgError(f"dgeqrf failed with info={info}")
        triangle = self.rows = min(self.rows, columns)
        for j in range(triangle - 1):  # clear the reflectors under the diagonal, leaving the triangle
            self.storage[j, j + 1:triangle] = 0.0


def train_pseudo_inverse(fit: NestedFit) -> np.ndarray:
    """Minimum-norm least-squares readout of every row appended to ``fit`` so far.

    Returns the ``(width, outputs)`` matrix ``w``, so ``states @ w`` predicts;
    singular values below ``DEFAULT_RCOND`` times the largest count as zero.
    It is solved on the triangle ``r`` of a QR factorization of the rows
    ``[states | targets]``: ``r`` has their singular values, and ``r[:, :width]
    @ w - r[:, width:]`` their residual norm for every ``w``.  The call
    factors only the rows appended since the buffer was last factored, under
    the triangle that factorization left in their place, so every row is
    factorized once, however many nested readouts hold it.

    Raises ``ValueError`` on an empty problem, where ``np.linalg.lstsq``
    alone would return zeros, and ``LinAlgError`` if ``dgeqrf`` fails.
    """
    if fit.rows == 0:
        raise ValueError("regression problem is empty")
    fit._factor()
    block = fit.storage.T
    return np.linalg.lstsq(block[:fit.rows, :fit.width], block[:fit.rows, fit.width:], rcond=DEFAULT_RCOND)[0]


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
