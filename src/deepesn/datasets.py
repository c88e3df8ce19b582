"""Benchmark time series: NARMA10, Mackey-Glass and the laser recording.

All tasks are univariate next-value problems packaged as a :class:`Dataset`
holding the input series, the aligned targets and the split geometry
(training prefix, validation tail of the training split, washout length).
NARMA10 and Mackey-Glass are generated; the laser series is measured data
loaded from a user-supplied text file (one intensity per line).  Every task
builder passes its ``**split`` keywords (``train_len``, ``washout``,
``validation_len``) to :class:`Dataset` unchanged, so the field defaults
there are the only ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .topology import random_stream

__all__ = [
    "Dataset", "MGParams", "DivergenceError", "generate_narma10", "generate_mackey_glass", "load_laser", "save_series",
]

NARMA_ORDER = 10
LASER_EXPECTED_SAMPLES = 10092


class DivergenceError(RuntimeError):
    """A generated series left the finite range."""


@dataclass(frozen=True)
class Dataset:
    """Input/target series with named split boundaries.

    ``train_len`` steps form the training split (the last ``validation_len``
    of them are reserved for model selection); everything after is the test
    split.  ``washout`` is the number of initial steps excluded from any fit
    or score.
    """

    name: str
    inputs: np.ndarray
    targets: np.ndarray
    train_len: int = 5000
    washout: int = 100
    validation_len: int = 1000

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.ndim != 1 or targets.ndim != 1:
            raise ValueError("inputs and targets must be 1-D series")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"length mismatch: {inputs.shape[0]} inputs vs {targets.shape[0]} targets")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("series contain non-finite values")
        check_split(self.train_len, self.washout, self.validation_len, inputs.shape[0])
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def check_split(train_len: int, washout: int, validation_len: int, length: int | None = None) -> None:
    """Raise ValueError unless the split leaves a fit range and, for a known length, a test range."""
    if washout < 0 or validation_len < 0:
        raise ValueError("washout and validation_len must be non-negative")
    if washout + validation_len >= train_len:  # so train_len is positive, too
        raise ValueError(
            f"washout {washout} plus validation_len {validation_len} leaves no fit range in train_len {train_len}"
        )
    if length is not None and length < train_len + 1:
        raise ValueError(f"series of length {length} is too short for train_len {train_len}")


def narma10_targets(inputs) -> np.ndarray:
    """Order-10 nonlinear auto-regressive moving-average response to ``inputs``.

    The recurrence is
        y(t) = 0.3 y(t-1) + 0.05 y(t-1) * sum_{i=1..10} y(t-i)
               + 1.5 u(t-10) u(t-1) + 0.1
    with y and u taken as zero before the first step.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1:
        raise ValueError("inputs must be a 1-D series")
    n = u.shape[0]
    order = NARMA_ORDER
    up = [0.0] * order + [float(v) for v in u]
    y = [0.0] * (n + order)
    for t in range(order, n + order):
        window = 0.0
        for i in range(t - order, t):
            window += y[i]
        y[t] = 0.3 * y[t - 1] + 0.05 * y[t - 1] * window + 1.5 * up[t - order] * up[t - 1] + 0.1
    out = np.asarray(y[order:])
    if not np.all(np.isfinite(out)):
        raise DivergenceError("the order-10 recurrence diverged for these inputs")
    return out


def generate_narma10(length: int = 10000, seed: int = 0, **split) -> Dataset:
    """NARMA10 task: inputs i.i.d. uniform on [0, 0.5], targets from the recurrence.

    Rare input draws make the recurrence diverge; those raise
    :class:`DivergenceError`, and a caller can retry with the next seed.
    """
    if length < NARMA_ORDER + 1:
        raise ValueError(f"length must be at least {NARMA_ORDER + 1}, got {length}")
    rng = random_stream(seed, 0)
    inputs = rng.uniform(0.0, 0.5, size=length)
    try:
        targets = narma10_targets(inputs)
    except DivergenceError:
        raise DivergenceError(f"NARMA10 generation diverged for seed {seed}") from None
    return Dataset("narma10", inputs, targets, **split)


@dataclass(frozen=True)
class MGParams:
    """Delay-differential generator settings for the Mackey-Glass series.

    ``subsample`` is the number of integration steps per emitted sample and
    ``discard`` the number of initial emitted samples dropped as generator
    transient.  The series follows
        du/dt = 0.2 u(t - tau) / (1 + u(t - tau)^10) - 0.1 u(t)
    from a constant pre-history, integrated by the explicit Euler scheme.
    """

    tau: float = 17.0
    step: float = 0.1
    subsample: int = 10
    initial_history: float = 1.2
    discard: int = 1000

    def __post_init__(self):
        if self.tau <= 0 or not np.isfinite(self.tau):
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if self.step <= 0 or not np.isfinite(self.step):
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.subsample < 1:
            raise ValueError(f"subsample must be at least 1, got {self.subsample}")
        if self.discard < 0:
            raise ValueError(f"discard must be non-negative, got {self.discard}")
        if not np.isfinite(self.initial_history):
            raise ValueError("initial_history must be finite")


def mackey_glass_raw(params: MGParams, count: int) -> np.ndarray:
    """First ``count`` emitted raw samples of the delayed-feedback series."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    delay = int(round(params.tau / params.step))
    if delay < 1:
        raise ValueError(f"step {params.step} is too coarse for delay {params.tau}")
    steps = (params.discard + count - 1) * params.subsample
    series = [float(params.initial_history)]
    history = params.initial_history
    try:
        for k in range(steps):
            lagged = series[k - delay] if k >= delay else history
            current = series[k]
            series.append(current + params.step * (0.2 * lagged / (1.0 + lagged ** 10) - 0.1 * current))
    except OverflowError:
        raise DivergenceError(f"Mackey-Glass integration diverged for {params}") from None
    emitted = np.asarray(series[:: params.subsample])
    out = emitted[params.discard:]
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"Mackey-Glass integration diverged for {params}")
    return out


def generate_mackey_glass(params: MGParams = MGParams(), length: int = 10000, **split) -> Dataset:
    """Mackey-Glass next-step task on the squashed series tanh(u - 1), named ``mg`` plus ``tau``."""
    if length < 2:
        raise ValueError(f"length must be at least 2, got {length}")
    raw = mackey_glass_raw(params, length + 1)
    squashed = np.tanh(raw - 1.0)
    return Dataset(f"mg{params.tau:g}", squashed[:-1], squashed[1:], **split)


def load_laser(path, **split) -> Dataset:
    """Load the laser intensity recording and build its next-step task.

    The file holds one numeric intensity per line; values are scaled by
    0.01.  A sample count other than the canonical 10092 only warns, so
    trimmed or extended recordings stay usable.
    """
    values = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: file contains no samples")
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 samples for a next-step task")
    if len(values) != LASER_EXPECTED_SAMPLES:
        warnings.warn(
            f"{path}: expected {LASER_EXPECTED_SAMPLES} laser samples, found {len(values)}",
            stacklevel=2,
        )
    scaled = np.asarray(values, dtype=float) * 0.01
    return Dataset("laser", scaled[:-1], scaled[1:], **split)


def save_series(values, path) -> None:
    """Write a series as text, one value per line, at full round-trip precision."""
    data = np.asarray(values, dtype=float).ravel()
    with open(path, "w", encoding="ascii") as handle:
        for value in data:
            handle.write(f"{float(value)!r}\n")
