"""Simulated multi-agent network and the primal-dual iteration.

The network state is stacked: row i of ``X`` and ``Phi`` holds agent i's
primal variable and aggregate consensus dual, and the leader agent
additionally holds the pair (theta, lambda) coupling the shared variable
to the regularizer.  One iteration runs on the rows of the participating
agents, in this order: curvature refresh and primal step from the
start-of-step iterates, dual ascent on every edge with a participating
endpoint, the leader's proximal step, and (for BFGS) the curvature-pair
update.  Each agent reads its neighbors' current iterates, since every
update is sent to the neighbors as it happens.  Synchronous and asynchronous
iterations are the same step with a full or a partial activation mask,
so full participation is exactly the synchronous algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import ConfigurationError
from .problems import Regularizer, prox
from .topology import Graph


@dataclass
class ConsensusProblem:
    """One local objective per agent plus the shared regularizer."""

    objectives: list
    regularizer: Regularizer = Regularizer()

    def __post_init__(self):
        if not self.objectives:
            raise ConfigurationError("need at least one local objective")
        dims = {obj.d for obj in self.objectives}
        if len(dims) != 1:
            raise ConfigurationError(f"objective dimensions differ: {sorted(dims)}")

    @property
    def m(self) -> int:
        return len(self.objectives)

    @property
    def d(self) -> int:
        return self.objectives[0].d

    def total_value(self, x: np.ndarray) -> float:
        """Centralized composite cost at a single shared point."""
        return sum(obj.value(x) for obj in self.objectives) + self.regularizer.value(x)

    def total_gradient(self, x: np.ndarray) -> np.ndarray:
        return sum(obj.gradient(x) for obj in self.objectives)


@dataclass
class NetworkState:
    """Stacked state of the whole network.

    ``X``/``Phi`` are (m, d); ``theta``/``lam`` are the leader's (d,)
    regularizer copy and multiplier; ``shift`` (m,) is the constant
    diagonal of every agent's curvature block.  Under BFGS, ``B`` (m, d, d)
    holds the inverse models and ``G`` (m, d) the local gradients at
    ``X``; both are None under the other schemes.
    """

    graph: Graph
    problem: ConsensusProblem
    X: np.ndarray
    Phi: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    shift: np.ndarray
    B: np.ndarray = None
    G: np.ndarray = None
    leader: int = 0
    t: int = 0
    comm_scalars: int = 0


def _gradients(problem: ConsensusProblem, X: np.ndarray, rows) -> np.ndarray:
    """Local-objective gradients of the listed agents at their rows of X.

    The explicit shape makes an empty row list (an empty activation) a
    (0, d) array.
    """
    grads = [problem.objectives[i].gradient(X[i]) for i in rows]
    return np.array(grads, dtype=float).reshape(len(rows), problem.d)


def init_network(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> NetworkState:
    """Zero-initialized network; curvature state per the chosen scheme.

    The BFGS inverse models start at I/shift, the exact inverse of the
    curvature block when the local Hessian vanishes.
    """
    if problem.m != graph.m:
        raise ConfigurationError(
            f"{problem.m} objectives for {graph.m} agents"
        )
    if not (0 <= hp.leader < graph.m):
        raise ConfigurationError(f"leader {hp.leader} out of range for m={graph.m}")
    m, d = graph.m, problem.d
    shift = np.array([cv.block_diag_value(hp, graph.degree(i), i == hp.leader) for i in range(m)])
    ns = NetworkState(
        graph=graph, problem=problem, X=np.zeros((m, d)), Phi=np.zeros((m, d)),
        theta=np.zeros(d), lam=np.zeros(d), shift=shift, leader=hp.leader,
    )
    if hp.scheme == cv.BFGS:
        ns.B = np.eye(d) / shift[:, None, None]
        ns.G = _gradients(problem, ns.X, range(m))
    return ns


def local_gradient(ns: NetworkState, hp: Hyperparams, rows) -> np.ndarray:
    """Gradient of the augmented Lagrangian with respect to the listed rows of X.

    Under BFGS the cached local gradients ``G`` are reused (they were
    evaluated at the same iterates).
    """
    rows = np.asarray(rows, dtype=np.intp)
    X = ns.X
    grad = ns.G[rows] if hp.scheme == cv.BFGS else _gradients(ns.problem, X, rows)
    adjacency = ns.graph.adjacency[rows]
    coupling = adjacency.sum(axis=1)[:, None] * X[rows] - adjacency @ X
    H = grad + ns.Phi[rows] + 0.5 * hp.mu_z * coupling
    lead = np.flatnonzero(rows == ns.leader)
    H[lead] = H[lead] + hp.mu_theta * (X[ns.leader] - ns.theta) + ns.lam
    return H


def dual_updates(ns: NetworkState, hp: Hyperparams, active: np.ndarray) -> None:
    """Dual ascent along every edge with a participating endpoint.

    The consensus duals live on edges; an edge whose source or destination
    participated moves by half the penalty times the disagreement, entering
    both endpoints' rows of Phi with opposite signs (so the aggregate dual
    stays in the range of the signed incidence even under partial
    participation).  The participating leader then applies the proximal
    map and its multiplier step.
    """
    touched = ns.graph.adjacency * (active[:, None] | active[None, :])
    ns.Phi += 0.5 * hp.mu_z * (touched.sum(axis=1)[:, None] * ns.X - touched @ ns.X)
    if active[ns.leader]:
        x_lead = ns.X[ns.leader]
        theta_new = prox(ns.problem.regularizer, hp.mu_theta, x_lead + ns.lam / hp.mu_theta)
        ns.lam = ns.lam + hp.mu_theta * (x_lead - theta_new)
        ns.theta = theta_new


def apply_step(ns: NetworkState, hp: Hyperparams, active: np.ndarray) -> NetworkState:
    """Advance the network one iteration; ``active`` is a boolean mask over agents."""
    active = np.asarray(active, dtype=bool)
    rows = np.flatnonzero(active)
    d = ns.problem.d
    if hp.scheme == cv.NEWTON:
        blocks = [
            cv.newton_block(ns.problem.objectives[i], ns.X[i], hp, ns.graph.degree(i),
                            i == ns.leader)
            for i in rows
        ]
        curvature = np.array(blocks, dtype=float).reshape(len(rows), d, d)
    elif hp.scheme == cv.BFGS:
        curvature = ns.B[rows]
    else:
        curvature = ns.shift[rows]
    H = local_gradient(ns, hp, rows)
    x_old = ns.X[rows]
    x_new = x_old - cv.solve_direction(hp.scheme, curvature, H)
    ns.X[rows] = x_new
    ns.comm_scalars += int(ns.graph.adjacency[rows].sum()) * d

    dual_updates(ns, hp, active)
    if hp.scheme == cv.BFGS:
        grad_new = _gradients(ns.problem, ns.X, rows)
        s, q = cv.bfgs_pair(x_old, x_new, ns.G[rows], grad_new, ns.shift[rows, None])
        psi = hp.psi if hp.bfgs_bounding else None
        for k, i in enumerate(rows):
            ns.B[i] = cv.bfgs_inverse_update(ns.B[i], s[k], q[k], psi=psi)
        ns.G[rows] = grad_new
    ns.t += 1
    return ns


def sync_step(ns: NetworkState, hp: Hyperparams) -> NetworkState:
    """One synchronous iteration: every agent participates."""
    return apply_step(ns, hp, np.ones(ns.graph.m, dtype=bool))
