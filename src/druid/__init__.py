"""Decentralized curvature-aided primal-dual solvers over simulated networks.

A network of agents minimizes a sum of local smooth costs plus a shared
(possibly nonsmooth) regularizer held at one designated agent.  Agents
keep edge-decoupled curvature blocks, so gradient, Newton, and BFGS
updates all run with one exchange of iterates per iteration, synchronously or
under randomized activation.  The analysis layer provides the centralized
reference, an unreduced three-block oracle, optimality residuals, and
theoretical rate constants for verification at desk scale.
"""

from .activation import ActivationRecord, ActivationSampler, async_step, sample_activation
from .curvature import BFGS, GRADIENT, NEWTON, SCHEMES, Hyperparams
from .network import NetworkState, init_network, local_gradient, sync_step
from .problems import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    SQUARED_L2,
    ConsensusProblem,
    Regularizer,
    SmoothnessConstants,
    prox,
    subgradient_membership,
)
from .reference import ReferenceSolution, centralized_reference
from .topology import (
    Graph,
    SpectralConstants,
    random_connected_graph,
    read_edge_list,
    spectral_constants,
    write_edge_list,
)

__all__ = [
    "ActivationRecord", "ActivationSampler", "async_step", "sample_activation",
    "BFGS", "GRADIENT", "NEWTON", "SCHEMES", "Hyperparams",
    "NetworkState", "init_network", "local_gradient", "sync_step",
    "L1", "LEAST_SQUARES", "LOGISTIC", "SQUARED_L2",
    "ConsensusProblem", "Regularizer", "SmoothnessConstants",
    "prox", "subgradient_membership",
    "ReferenceSolution", "centralized_reference",
    "Graph", "SpectralConstants", "random_connected_graph", "read_edge_list",
    "spectral_constants", "write_edge_list",
]

__version__ = "0.1.0"
