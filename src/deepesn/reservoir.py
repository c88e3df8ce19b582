"""Stacked reservoir construction and state-trajectory computation.

A deep reservoir is a pipeline of untrained tanh layers.  The external
input drives only the first layer; every later layer is driven by the
current-step state of the layer below it.  The readout consumes the
concatenation of all layer states, so :func:`run` returns the full
trajectory of that global state.

Every layer runs the same update, with ``x_l(t)`` the state of layer ``l``
(zero at step 0 unless :func:`run` is given an initial state, no bias
terms):

    x_l(t) = tanh(V_l i_l(t) + R_l x_l(t-1)),    i_1(t) = u(t),  i_l(t) = x_{l-1}(t) for l > 1

where ``u(t)`` is the input, ``R_l`` the layer's recurrent matrix and ``V_l``
its inbound matrix: the ``(n_1, 1)`` input matrix for layer 1, the
inter-layer matrix for every later layer.

:func:`run` evaluates these equations with layer ``l`` (from 0) running
``l`` steps late.  Every layer then depends only on the previous skewed
step, so the whole stack is one sparse block-bidiagonal matrix and each
step is one sparse product and one ``tanh``, whatever the depth.  A
reservoir assembles that matrix, :attr:`DeepReservoir.stack`, on its first
run and keeps it for the next.

The product is computed by ``csr_matvec`` from the private module
``scipy.sparse._sparsetools``: the CSR kernel behind ``stack @ x``, called
directly because it adds into an array the caller passes.  Each step writes
straight into its zeroed row of the state array, which skips the result
allocation and argument checks of ``stack @ x``, about half of its cost per
step at 500 units.  The kernel sums each row's products in stored order
from zero, as ``stack @ x`` does; layer 1's inbound matrix is the stack's
last column, so the input's term is the last of each first-layer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .topology import (
    Chain,
    Ring,
    ScalingSpec,
    Sparse,
    TopologyKind,
    make_input_matrix,
    make_interlayer_matrix,
    random_stream,
)

__all__ = ["ReservoirSpec", "DeepReservoir", "LayerWeights", "build_reservoir", "run", "INTERLAYER_FAN_IN"]

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
    """Raise ValueError unless every matrix of such a reservoir can be drawn.

    Each topology kind's ``recurrent`` and the ``make_*`` builders trust this check.
    """
    *feeding, smallest = layer_sizes(total_units, num_layers)  # the last layer is the smallest
    if isinstance(topology, Sparse) and topology.fan_in > smallest:
        raise ValueError(f"a sparse layer of {smallest} units cannot take {topology.fan_in} inputs per unit")
    if isinstance(topology, (Ring, Chain)) and smallest < 2:
        raise ValueError(f"a chain or ring needs at least 2 units, got {smallest}")
    if feeding and INTERLAYER_FAN_IN > feeding[-1]:  # the smallest layer feeding another
        raise ValueError(f"a layer that feeds another needs at least {INTERLAYER_FAN_IN} units, got {feeding[-1]}")


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
    """Recurrent matrix of one layer and its inbound matrix: the input matrix for layer 1, else the inter-layer one."""

    recurrent: np.ndarray
    inbound: np.ndarray


@dataclass(frozen=True)
class DeepReservoir:
    """Immutable bundle of all untrained weights of a deep reservoir, one :class:`LayerWeights` per layer.

    The layer sizes are read off the recurrent matrices' row counts, and
    :attr:`stack` checks once that all the weights fit them.
    """

    layers: tuple[LayerWeights, ...]

    @property
    def input_weights(self) -> np.ndarray:
        """The ``(n_1, 1)`` input matrix, which is layer 1's inbound matrix."""
        return self.layers[0].inbound

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(lw.recurrent.shape[0] for lw in self.layers)

    @property
    def total_units(self) -> int:
        return int(sum(self.layer_sizes))

    @cached_property
    def stack(self) -> scipy.sparse.csr_array:
        """The CSR weights :func:`run` multiplies by, assembled on first use: ``(total_units, total_units + 1)``.

        Each layer's recurrent matrix sits on the diagonal and its inbound matrix in the block column to the
        left, which for layer 1 wraps round to the last column, the input's.  Raises ``ValueError`` unless
        the weights fit the layers.
        """
        num_layers = self.num_layers
        blocks = [[None] * (num_layers + 1) for _ in range(num_layers)]
        for l, lw in enumerate(self.layers):
            blocks[l][l] = scipy.sparse.csr_array(lw.recurrent)
            blocks[l][l - 1] = scipy.sparse.csr_array(lw.inbound)
        stack = scipy.sparse.block_array(blocks, format="csr")
        n = self.total_units
        if stack.shape != (n, n + 1):  # run's kernel trusts this shape
            raise ValueError(f"weights of shape {stack.shape} do not fit layers of {self.layer_sizes} units")
        return stack


def build_reservoir(spec: ReservoirSpec) -> DeepReservoir:
    """Construct all weight matrices for ``spec``.

    Each matrix is drawn from its own random substream keyed on
    ``(spec.seed, role, layer index)``, so the result is bit-identical for
    equal specs and does not depend on construction order.
    """
    sizes = layer_sizes(spec.total_units, spec.num_layers)
    layers = []
    for index, n in enumerate(sizes):
        recurrent = spec.topology.recurrent(n, spec.scaling.rho, random_stream(spec.seed, _STREAM_RECURRENT, index))
        if index == 0:
            inbound = make_input_matrix(n, spec.scaling.omega_in, random_stream(spec.seed, _STREAM_INPUT, 0))
        else:
            inbound = make_interlayer_matrix(n, sizes[index - 1], INTERLAYER_FAN_IN, spec.scaling.omega_il,
                                             random_stream(spec.seed, _STREAM_INBOUND, index))
        recurrent.setflags(write=False)
        inbound.setflags(write=False)
        layers.append(LayerWeights(recurrent=recurrent, inbound=inbound))
    return DeepReservoir(layers=tuple(layers))


def run(reservoir: DeepReservoir, inputs: Sequence, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
    """Drive the reservoir over ``inputs``, a 1-D series, and return the global states.

    The result has one row per input step and one column per unit, the
    layers' states side by side in layer order: ``(steps, total_units)``.

    The run starts from the null state unless ``initial_state``, a finite
    concatenated state of length ``total_units``, is given.  Raises
    ``ValueError`` on inputs of another shape, or on non-finite inputs or
    initial state.

    Layer ``l`` (from 0) is computed ``l`` steps late, so that at skewed
    step ``s`` it sees its own state and that of the layer below, both
    from step ``s - 1``, and the first also the input of step ``s``, stored
    after them.  One product with ``reservoir.stack`` (assembled once per
    reservoir), written into the zeroed row of step ``s``,
    and one ``tanh`` in place advance every layer at once.  Layers that
    have not started yet are held at their initial state, and the skew is
    undone before the states are returned.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"inputs must be a 1-D series, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("inputs must be finite")
    state0 = np.zeros(reservoir.total_units) if initial_state is None else np.asarray(initial_state, dtype=float)
    if state0.shape != (reservoir.total_units,):
        raise ValueError(f"initial state must have length {reservoir.total_units}, got {state0.shape}")
    if not np.all(np.isfinite(state0)):
        raise ValueError("initial state must be finite")

    offsets = np.cumsum((0,) + reservoir.layer_sizes)
    num_layers = reservoir.num_layers
    steps = u.shape[0]
    n = offsets[-1]
    stack = reservoir.stack

    skewed = np.zeros((steps + num_layers - 1, n + 1))  # row s: skewed step s, then the input of step s + 1
    skewed[:max(steps - 1, 0), n] = u[1:]
    states = skewed[:, :n]
    prev = np.append(state0, u[0] if steps else 0.0)
    for s in range(skewed.shape[0]):
        row = states[s]
        csr_matvec(n, n + 1, stack.indptr, stack.indices, stack.data, prev, row)  # row += stack @ prev
        np.tanh(row, out=row)
        if s < num_layers - 1:  # layers above s have not started yet
            row[offsets[s + 1]:] = state0[offsets[s + 1]:]
        prev = skewed[s]
    for l in range(1, num_layers):  # undo the skew: move each layer's block up by its lag
        dst, src = states[:steps, offsets[l]:offsets[l + 1]], states[l:l + steps, offsets[l]:offsets[l + 1]]
        for start in range(0, steps, 512):  # forward pieces read each row before it is overwritten, and numpy
            dst[start:start + 512] = src[start:start + 512]  # copies an overlapping piece, not the whole block
    return states[:steps]
