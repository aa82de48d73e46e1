"""Probabilistic quantum cloning under the no-signalling constraint.

A dense, exact simulation stack: quantum primitives (``qcore``), the
entangled preparation game between Alice and Bob (``entangle``),
probabilistic cloning machines legal and otherwise (``pqcm``), the exact
column law of the signalling protocol and counts drawn from it
(``signalling``), plus config handling and a CLI. The names below are the
API for running the argument; everything else lives in the submodules.
"""

from .entangle import AliceBasis
from .errors import ConfigError, FeasibilityError, PqcloneError, RankError
from .pqcm import (
    FactoredSet,
    IllegalClonerSpec,
    PqcmMachine,
    construct_machine,
    feasibility_matrix,
    max_uniform_gamma,
)
from .qcore import SeededRng
from .signalling import ProtocolConfig, column_law, run_channel, run_protocol

__version__ = "0.1.0"
