"""Stacked reservoir construction and state-trajectory computation.

A deep reservoir is a pipeline of untrained tanh layers.  The external
input drives only the first layer; every later layer is driven by the
current-step state of the layer below it.  The readout consumes the
concatenation of all layer states, so :func:`run` returns the full
trajectory of that global state.

State updates, with ``u(t)`` the input and ``x_l(t)`` the state of layer
``l`` (zero at step 0 unless :func:`run` is given an initial state, no
bias terms):

    x_1(t) = tanh(W_in u(t)  + R_1 x_1(t-1))
    x_l(t) = tanh(V_l x_{l-1}(t) + R_l x_l(t-1))      for l > 1

where ``R_l`` is the layer's recurrent matrix and ``V_l`` its inbound
(inter-layer) matrix.

:func:`run` evaluates these equations with layer ``l`` (from 0) running
``l`` steps late.  Every layer then depends only on the previous skewed
step, so the whole stack is one sparse block-bidiagonal matrix and each
step is one sparse product and one ``tanh``, whatever the depth.

The product is computed by ``csr_matvec`` from the private module
``scipy.sparse._sparsetools``: the CSR kernel behind ``stack @ x``, called
directly because it adds into an array the caller passes.  Each step writes
straight into its zeroed row of the state array, which skips the result
allocation and argument checks of ``stack @ x``, about half of its cost per
step at 500 units.  The kernel sums each row's products in stored order
from zero, as ``stack @ x`` does; ``W_in`` is the stack's last column, so
the input's term is the last of each first-layer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .topology import (
    Chain,
    Permutation,
    Ring,
    ScalingSpec,
    Sparse,
    TopologyKind,
    check_chain_size,
    check_fan_in,
    make_chain_recurrent,
    make_input_matrix,
    make_interlayer_matrix,
    make_permutation_recurrent,
    make_ring_recurrent,
    make_sparse_recurrent,
    random_stream,
)

INTERLAYER_FAN_IN = 5

# stream ids so that each matrix draws from its own substream of the seed
_STREAM_INPUT = 0
_STREAM_RECURRENT = 1
_STREAM_INBOUND = 2


def layer_sizes(total_units: int, num_layers: int) -> tuple[int, ...]:
    """Split ``total_units`` as evenly as possible; earlier layers take the remainder."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be at least 1, got {num_layers}")
    if total_units < num_layers:
        raise ValueError(f"need at least one unit per layer, got {total_units} for {num_layers} layers")
    base, rem = divmod(total_units, num_layers)
    return tuple(base + 1 if i < rem else base for i in range(num_layers))


def check_layout(total_units: int, num_layers: int, topology: TopologyKind) -> None:
    """Raise ValueError unless every matrix of such a reservoir can be drawn."""
    sizes = layer_sizes(total_units, num_layers)
    if isinstance(topology, Sparse):
        check_fan_in(topology.fan_in, sizes[-1])  # the last layer is the smallest
    if isinstance(topology, (Ring, Chain)):
        check_chain_size(sizes[-1])
    if num_layers > 1:
        check_fan_in(INTERLAYER_FAN_IN, sizes[-2], "interlayer_fan_in")  # the smallest layer feeding another


@dataclass(frozen=True)
class ReservoirSpec:
    """Everything needed to build a deep reservoir deterministically."""

    total_units: int
    num_layers: int
    topology: TopologyKind
    scaling: ScalingSpec
    seed: int = 0

    def __post_init__(self):
        check_layout(self.total_units, self.num_layers, self.topology)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class LayerWeights:
    """Recurrent matrix of one layer plus its inbound matrix (absent for layer 1)."""

    recurrent: np.ndarray
    inbound: Optional[np.ndarray] = None


@dataclass(frozen=True)
class DeepReservoir:
    """Immutable bundle of all untrained weights of a deep reservoir."""

    input_weights: np.ndarray
    layers: tuple[LayerWeights, ...]
    layer_sizes: tuple[int, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_units(self) -> int:
        return int(sum(self.layer_sizes))


def _make_recurrent(kind: TopologyKind, n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    if isinstance(kind, Sparse):
        return make_sparse_recurrent(n, kind.fan_in, rho, rng)
    if isinstance(kind, Permutation):
        return make_permutation_recurrent(n, rho, rng)
    if isinstance(kind, Ring):
        return make_ring_recurrent(n, rho)
    if isinstance(kind, Chain):
        return make_chain_recurrent(n, rho)
    raise TypeError(f"unknown topology kind: {kind!r}")


def build_reservoir(spec: ReservoirSpec) -> DeepReservoir:
    """Construct all weight matrices for ``spec``.

    Each matrix is drawn from its own random substream keyed on
    ``(spec.seed, role, layer index)``, so the result is bit-identical for
    equal specs and does not depend on construction order.
    """
    sizes = layer_sizes(spec.total_units, spec.num_layers)
    input_weights = make_input_matrix(sizes[0], spec.scaling.omega_in, random_stream(spec.seed, _STREAM_INPUT, 0))
    input_weights.setflags(write=False)
    layers = []
    for index, n in enumerate(sizes):
        recurrent = _make_recurrent(
            spec.topology, n, spec.scaling.rho, random_stream(spec.seed, _STREAM_RECURRENT, index)
        )
        recurrent.setflags(write=False)
        inbound = None
        if index > 0:
            inbound = make_interlayer_matrix(
                n,
                sizes[index - 1],
                INTERLAYER_FAN_IN,
                spec.scaling.omega_il,
                random_stream(spec.seed, _STREAM_INBOUND, index),
            )
            inbound.setflags(write=False)
        layers.append(LayerWeights(recurrent=recurrent, inbound=inbound))
    return DeepReservoir(input_weights=input_weights, layers=tuple(layers), layer_sizes=sizes)


def run(reservoir: DeepReservoir, inputs: Sequence, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
    """Drive the reservoir over ``inputs`` and return the global states.

    The result has one row per input step and one column per unit, the
    layers' states side by side in layer order: ``(steps, total_units)``.

    The run starts from the null state unless ``initial_state``, a finite
    concatenated state of length ``total_units``, is given.  Raises
    ``ValueError`` on inputs of another shape, or on non-finite inputs or
    initial state.

    Layer ``l`` (from 0) is computed ``l`` steps late, so that at skewed
    step ``s`` it sees its own state and that of the layer below, both
    from step ``s - 1``, and the first also the input of step ``s``, stored
    after them.  One product with ``stack`` (the block-bidiagonal weights,
    then the input weights), written into the zeroed row of step ``s``,
    and one ``tanh`` in place advance every layer at once.  Layers that
    have not started yet are held at their initial state, and the skew is
    undone before the states are returned.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[1] != 1:
        raise ValueError(f"inputs must be (steps,) or (steps, 1), got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("inputs must be finite")
    state0 = np.zeros(reservoir.total_units) if initial_state is None else np.asarray(initial_state, dtype=float)
    if state0.shape != (reservoir.total_units,):
        raise ValueError(f"initial state must have length {reservoir.total_units}, got {state0.shape}")
    if not np.all(np.isfinite(state0)):
        raise ValueError("initial state must be finite")

    sizes = reservoir.layer_sizes
    offsets = np.cumsum((0,) + sizes)
    num_layers = len(sizes)
    steps = u.shape[0]
    n = offsets[-1]

    # recurrent matrices on the diagonal, inbound ones just below it, the input weights in a last column
    blocks = [[None] * (num_layers + 1) for _ in range(num_layers)]
    blocks[0][num_layers] = scipy.sparse.csr_array(reservoir.input_weights)
    for l, lw in enumerate(reservoir.layers):
        blocks[l][l] = scipy.sparse.csr_array(lw.recurrent)
        if l > 0:
            blocks[l][l - 1] = scipy.sparse.csr_array(lw.inbound)
    stack = scipy.sparse.block_array(blocks, format="csr")

    skewed = np.zeros((steps + num_layers - 1, n + 1))  # row s: skewed step s, then the input of step s + 1
    skewed[:max(steps - 1, 0), n] = u[1:, 0]
    states = skewed[:, :n]
    prev = np.append(state0, u[0, 0] if steps else 0.0)
    for s in range(skewed.shape[0]):
        row = states[s]
        csr_matvec(n, n + 1, stack.indptr, stack.indices, stack.data, prev, row)  # row += stack @ prev
        np.tanh(row, out=row)
        if s < num_layers - 1:  # layers above s have not started yet
            row[offsets[s + 1]:] = state0[offsets[s + 1]:]
        prev = skewed[s]
    for l in range(1, num_layers):  # undo the skew: move each layer's block up by its lag
        states[:steps, offsets[l]:offsets[l + 1]] = states[l:l + steps, offsets[l]:offsets[l + 1]]
    return states[:steps]
