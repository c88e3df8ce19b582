"""Deep echo state networks with structured reservoir topologies.

The package builds stacked untrained tanh reservoirs whose per-layer
recurrent matrices follow one of four structures (sparse, permutation,
ring, chain), trains a linear readout on the concatenated layer states by
pseudo-inversion, and ships a deterministic random-search harness that
compares deep stacks against equally sized single-layer reservoirs on
standard next-value prediction tasks.
"""

__version__ = "0.1.0"

from . import datasets, experiment, readout, reservoir, topology
from .topology import *
from .reservoir import *
from .readout import *
from .datasets import *
from .experiment import *

__all__ = ["__version__"] + [
    name for module in (topology, reservoir, readout, datasets, experiment) for name in module.__all__
]
