"""Structured reservoir weight matrices and their scaling controls.

Recurrent matrices come in four flavours: plain sparse (the usual ESN
baseline, with a fixed in-degree of 5 per unit), permutation (one non-zero
per row and column, orthogonal up to the weight value), ring (one global
cycle) and chain (a delay line, which is nilpotent).  Each kind carries its
``name`` and builds its own recurrent matrix with :meth:`recurrent`.  Sparse
and permutation matrices are drawn from an explicit random stream; ring and
chain are fully deterministic.

Sparse recurrent matrices are rescaled to a target spectral radius; input
and inter-layer matrices are rescaled to a target matrix 2-norm.  Both
measurements are exact dense LAPACK computations: the radius from the full
eigenvalue spectrum, the norm from the largest singular value.

The kinds' :meth:`recurrent` and the ``make_*`` builders of sparse, input
and inter-layer matrices trust their arguments: sizes and fan-ins are
checked once per reservoir by ``reservoir.check_layout``, and the scalings
by :class:`ScalingSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

__all__ = [
    "Sparse", "Permutation", "Ring", "Chain", "ScalingSpec",
    "DegenerateMatrixError", "spectral_radius", "operator_norm", "random_stream", "parse_topology",
]

_DEGENERATE_FLOOR = 1e-12


class DegenerateMatrixError(RuntimeError):
    """Raised when a random draw produces a matrix too close to zero to rescale."""


@dataclass(frozen=True)
class Sparse:
    """Randomly connected layer; every unit receives a fixed ``fan_in`` of 5 inputs."""

    name: ClassVar[str] = "sparse"
    fan_in: ClassVar[int] = 5

    def recurrent(self, n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
        return make_sparse_recurrent(n, self.fan_in, rho, rng)


@dataclass(frozen=True)
class Permutation:
    """Recurrence matrix is a scaled random permutation (disjoint cycles); its spectral radius is exactly ``rho``."""

    name: ClassVar[str] = "permutation"

    def recurrent(self, n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((n, n))
        out[rng.permutation(n), np.arange(n)] = rho  # column j feeds row perm[j]
        return out


@dataclass(frozen=True)
class Ring:
    """All units form a single cycle: the chain plus the top-right corner, all ``rho``."""

    name: ClassVar[str] = "ring"

    def recurrent(self, n: int, rho: float, rng: np.random.Generator | None) -> np.ndarray:
        out = Chain().recurrent(n, rho, rng)
        out[0, n - 1] = rho
        return out


@dataclass(frozen=True)
class Chain:
    """Units form a delay line: sub-diagonal entries only, so the matrix is nilpotent (spectral radius 0).

    ``rho`` is still applied as the sub-diagonal weight, so a chain layer
    shares the search space of the other topologies.
    """

    name: ClassVar[str] = "chain"

    def recurrent(self, n: int, rho: float, rng: np.random.Generator | None) -> np.ndarray:
        out = np.zeros((n, n))
        out[np.arange(1, n), np.arange(0, n - 1)] = rho
        return out


TopologyKind = Union[Sparse, Permutation, Ring, Chain]


def parse_topology(name: str) -> TopologyKind:
    """The topology whose ``name`` is ``name``."""
    kinds = {kind.name: kind for kind in get_args(TopologyKind)}
    try:
        return kinds[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; expected one of {sorted(kinds)}") from None


@dataclass(frozen=True)
class ScalingSpec:
    """Target spectral radius and 2-norm scalings of a reservoir.

    ``rho`` controls the recurrent matrices (applied as the plain weight
    value for permutation/ring/chain), ``omega_in`` the input matrix norm
    and ``omega_il`` the norm of each inter-layer matrix.
    """

    rho: float
    omega_in: float
    omega_il: float

    def __post_init__(self):
        for label in ("rho", "omega_in", "omega_il"):
            _require_positive(label, getattr(self, label))


def random_stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Independent counter-based random stream keyed by structural ids.

    Same key, same stream; different keys give statistically independent
    streams regardless of the order they are created or consumed in.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    entropy = [int(master_seed)] + [int(i) for i in ids]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _sparse_uniform(rows: int, cols: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Rows with exactly ``fan_in`` non-zeros at distinct columns, values uniform [-1, 1]."""
    out = np.zeros((rows, cols))
    for r in range(rows):
        idx = rng.choice(cols, size=fan_in, replace=False)
        out[r, idx] = rng.uniform(-1.0, 1.0, size=fan_in)
    return out


def _rescaled(raw: np.ndarray, measure, target: float, label: str) -> np.ndarray:
    """``raw`` rescaled in place so that ``measure`` of it is ``target``; a numerically zero draw raises."""
    measured = measure(raw)
    if measured < _DEGENERATE_FLOOR:
        raise DegenerateMatrixError(f"{label} measured numerically zero ({measured!r})")
    raw *= target / measured
    return raw


def make_sparse_recurrent(n: int, fan_in: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Sparse recurrent matrix with in-degree ``fan_in``, rescaled to spectral radius ``rho``."""
    return _rescaled(_sparse_uniform(n, n, fan_in, rng), spectral_radius, rho, f"sparse {n}x{n} draw")


def make_input_matrix(n_r: int, omega_in: float, rng: np.random.Generator) -> np.ndarray:
    """Dense uniform [-1, 1] ``(n_r, 1)`` column rescaled so its 2-norm equals ``omega_in``."""
    return _rescaled(rng.uniform(-1.0, 1.0, size=(n_r, 1)), operator_norm, omega_in, f"input {n_r}x1 draw")


def make_interlayer_matrix(n_to: int, n_from: int, fan_in: int, omega_il: float, rng: np.random.Generator) -> np.ndarray:
    """Layer-to-layer matrix: ``fan_in`` non-zeros per row, 2-norm rescaled to ``omega_il``."""
    return _rescaled(_sparse_uniform(n_to, n_from, fan_in, rng), operator_norm, omega_il,
                     f"inter-layer {n_to}x{n_from} draw")


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix, from its full dense spectrum."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {m.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (the matrix 2-norm), from a dense SVD."""
    return float(np.linalg.norm(_as_matrix(m), 2))


def _as_matrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=float)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must all be finite")
    return out


def _require_positive(label: str, value: float) -> None:
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{label} must be positive and finite, got {value!r}")
