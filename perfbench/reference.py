"""Plain reference for one guess, used as the benchmark's correctness gate.

The program's weights are taken from ``build_reservoir`` and densified; the
state run is an explicit per-step tanh loop over dense matrices, and both
readouts are fitted with ``np.linalg.lstsq``.  Nothing here calls the
program's run or readout code, so a fast path that changes either is checked
against this loop.

How closely the program's MSE can match depends on the guess.  The readout is
a pseudo-inverse that keeps singular values down to ``rcond`` times the
largest, and on many guesses it keeps directions whose singular values sit
barely above that cutoff; their coefficients reach 1e10.  A validation or
test MSE, scored on rows the fit did not see, then moves with the last bits
of the states, and on some guesses it has two values that rounding picks
between: on one narma10 guess at 500 units, states 7e-18 apart (sparse
against dense matvec) and one BLAS thread gave test MSEs 1.5e-3 apart, and
the reference itself gave the program's value for one in three nudges of its
states by one rounding error.  On other guesses the two agree to every digit.
A fixed tolerance cannot both allow that and catch a split one row off, which
moves an MSE by 1e-5 to 1e-2.  So each MSE of the program is checked against
the reference's MSEs on states within one rounding error of its own:

* the tolerance is ``TOLERANCE_FACTOR`` times the median relative change of
  the MSE over ``ROUNDING_DRAWS`` such nudges, and never less than
  ``TOLERANCE_FLOOR``;
* the MSE passes if it is within the tolerance of the unnudged value or of a
  nudged one; while it is not, up to ``SEARCH_DRAWS`` more nudges are tried.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np
import scipy.sparse

ROUNDING_DRAWS = 3
SEARCH_DRAWS = 16
TOLERANCE_FACTOR = 30.0
TOLERANCE_FLOOR = 1e-9
LABELS = ("validation", "test")


@dataclass(frozen=True)
class Check:
    """One of the program's MSEs against the nearest reference MSE."""

    label: str
    value: float
    nearest: float
    tolerance: float

    @property
    def gap(self) -> float:
        return relative_gap(self.value, self.nearest)

    @property
    def ok(self) -> bool:
        return self.gap <= self.tolerance


def _dense(matrix) -> np.ndarray:
    if scipy.sparse.issparse(matrix):
        return matrix.toarray()
    return np.array(matrix, dtype=float)


def reference_states(reservoir, inputs) -> np.ndarray:
    """Global states of ``reservoir`` over ``inputs``, one row per step, from the null state."""
    w_in = _dense(reservoir.input_weights)
    recurrent = [_dense(layer.recurrent) for layer in reservoir.layers]
    inbound = [None if layer.inbound is None else _dense(layer.inbound) for layer in reservoir.layers]
    u = np.asarray(inputs, dtype=float).reshape(len(inputs), -1)
    x = [np.zeros(r.shape[0]) for r in recurrent]
    states = np.empty((u.shape[0], sum(r.shape[0] for r in recurrent)))
    for t in range(u.shape[0]):
        for l in range(len(recurrent)):
            drive = w_in @ u[t] if l == 0 else inbound[l] @ x[l - 1]
            x[l] = np.tanh(recurrent[l] @ x[l] + drive)
        states[t] = np.concatenate(x)
    return states


def split_mses(states, task, rcond: float) -> tuple[float, float]:
    """(validation MSE, test MSE) of readouts fitted on ``states`` with the program's split geometry."""
    y = task.targets
    washout, train_end = task.washout, task.train_len
    fit_end = train_end - task.validation_len

    def fit_and_score(fit_stop: int, score: slice) -> float:
        coeffs = np.linalg.lstsq(states[washout:fit_stop], y[washout:fit_stop], rcond=rcond)[0]
        residual = states[score] @ coeffs - y[score]
        return float(np.mean(residual * residual))

    return fit_and_score(fit_end, slice(fit_end, train_end)), fit_and_score(train_end, slice(train_end, None))


def _nudged(states: np.ndarray, rng) -> np.ndarray:
    """``states`` with every entry moved by up to one rounding error."""
    return states * (1.0 + np.finfo(float).eps * rng.uniform(-1.0, 1.0, states.shape))


def check_guess(reservoir, task, rcond: float, mses) -> tuple[Check, Check]:
    """Check the program's (validation, test) ``mses`` of one guess; see the module docstring."""
    states = reference_states(reservoir, task.inputs)
    rng = np.random.default_rng(0)
    base = split_mses(states, task, rcond)
    candidates = [base] + [split_mses(_nudged(states, rng), task, rcond) for _ in range(ROUNDING_DRAWS)]
    tolerances = [
        max(TOLERANCE_FLOOR, TOLERANCE_FACTOR * statistics.median(relative_gap(c[k], base[k]) for c in candidates[1:]))
        for k in range(2)
    ]

    def checks() -> tuple[Check, Check]:
        return tuple(
            Check(LABELS[k], value, min((c[k] for c in candidates), key=lambda c: abs(c - value)), tolerances[k])
            for k, value in enumerate(mses)
        )

    result = checks()
    for _ in range(SEARCH_DRAWS):
        if all(c.ok for c in result):
            break
        candidates.append(split_mses(_nudged(states, rng), task, rcond))
        result = checks()
    return result


def relative_gap(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)
