"""Linear readout: pseudo-inverse training and MSE scoring.

The QR factorization is LAPACK's ``dgeqrf``, the routine behind
``np.linalg.qr``, called through numpy's ``numpy.linalg.lapack_lite``
binding because it factors the caller's array in place.  ``np.linalg.qr``
copies its input twice first, to a new array and to column-major order;
the direct call factors a column-major buffer where it lies, with the
workspace ``np.linalg.qr`` would query, so the triangle is unchanged.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, lapack_lite

__all__ = ["train_pseudo_inverse", "mse", "DEFAULT_RCOND"]

DEFAULT_RCOND = 1e-12


def train_pseudo_inverse(states, targets, row_ends=None) -> list[np.ndarray]:
    """Minimum-norm least-squares readouts on nested row prefixes.

    ``states`` holds one post-washout global state per row and ``targets``
    the matching target rows (1-D for a single output).  ``row_ends`` lists
    increasing prefix ends (default: all rows); for each end ``e`` the
    readout is fitted on rows ``[0, e)``.  Returns one ``(width, outputs)``
    matrix ``w`` per end, so ``states @ w`` predicts.

    Each readout is the minimum-norm least-squares solution: singular
    values below ``DEFAULT_RCOND`` times the largest are treated as zero.
    It is solved on the triangle ``r`` of a QR factorization of the
    prefix's ``[states | targets]`` rows.  ``r`` has the prefix's singular
    values, and ``r[:, :width] @ w - r[:, width:]`` has the prefix's
    residual norm for every ``w``, so the solution is the prefix's.  Each
    factorization takes the previous prefix's triangle in place of its
    rows, so every row is factorized once, however many prefixes hold it.

    Raises ``ValueError`` on an empty, row-mismatched or non-finite
    problem, where ``np.linalg.lstsq`` alone would return zeros or NaN, and
    on row ends that are empty, not increasing, below 1 or past the last row.
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
    ends = (states.shape[0],) if row_ends is None else tuple(row_ends)
    starts = (0,) + ends[:-1]
    if not ends or any(b <= a for a, b in zip(starts, ends)) or ends[-1] > states.shape[0]:
        raise ValueError(f"row ends must increase from above 0 to at most {states.shape[0]}, got {row_ends}")

    width = states.shape[1]
    columns = width + targets.shape[1]
    # one column-major buffer for every stage: the carried triangle (at most `columns` rows), then the new rows
    lda = columns + max(b - a for a, b in zip(starts, ends))
    storage, tau, work = np.empty((columns, lda)), np.empty(columns), np.empty(1)
    block = storage.T
    lapack_lite.dgeqrf(lda, columns, storage, lda, tau, work, -1, 0)  # workspace query
    work = np.empty(max(int(work[0]), columns))
    carried = 0
    fits = []
    for start, end in zip(starts, ends):
        rows = carried + end - start
        block[carried:rows, :width] = states[start:end]
        block[carried:rows, width:] = targets[start:end]
        if info := lapack_lite.dgeqrf(rows, columns, storage, lda, tau, work, work.size, 0)["info"]:
            raise LinAlgError(f"dgeqrf failed with info={info}")
        carried = min(rows, columns)
        for j in range(carried - 1):  # clear the reflectors under the diagonal, leaving the triangle
            storage[j, j + 1:carried] = 0.0
        fits.append(np.linalg.lstsq(block[:carried, :width], block[:carried, width:], rcond=DEFAULT_RCOND)[0])
    return fits


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
