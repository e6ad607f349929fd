"""Simulated multi-agent network and the primal-dual iteration.

The network state is stacked: row i of ``X`` and ``Phi`` holds agent i's
primal variable and aggregate consensus dual, and the leader agent
additionally holds the pair (theta, lambda) coupling the shared variable
to the regularizer.  One iteration runs on the rows of the participating
agents, in this order: curvature and primal step from the start-of-step
iterates, dual ascent on every edge with a participating endpoint, the
leader's proximal step, then the local gradients and the scheme's model.
The hyperparameters and the kernel are fixed at ``init_network`` and held
by the state.  Each agent reads its neighbors' current iterates,
since every update is sent to the neighbors as it happens.  Synchronous and
asynchronous iterations are the same step with a full or a partial
activation mask, so full participation is exactly the synchronous algorithm.
With every agent active the step replaces ``X`` and ``G`` whole, and the
Laplacian term the dual update forms at the new iterates is the next step's
coupling, so each synchronous round computes it once.
The rows every phase wrote are checked before the step returns, so a
diverging run stops on the step that first produces a non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import ConfigurationError, DivergenceError
from .problems import ConsensusProblem, prox
from .topology import Graph


@dataclass(eq=False)  # eq would compare the state arrays by truth value
class NetworkState:
    """Stacked state of the whole network.

    ``hp`` are the hyperparameters it was built with (the leader is
    ``hp.leader``) and ``kernel`` the ``curvature.KERNELS`` entry it runs;
    ``X``/``Phi`` are (m, d); ``theta``/``lam`` are the leader's (d,)
    regularizer copy and multiplier; ``shift`` (m,) is the constant
    diagonal of every agent's curvature block; ``G`` (m, d) the local
    gradients at ``X``; ``B``
    (m, d, d) the inverse models of the curvature blocks: the BFGS
    estimates, or under Newton with constant local Hessians the exact
    inverses computed once at init; None otherwise.  ``lap`` caches the
    Laplacian term ``deg*X - A@X`` (m, d) as the pair (X, term): a
    synchronous dual update forms it at the new iterates and the next
    synchronous step's coupling reads it.  It is valid only while that very
    array is ``X``, so assigning a new ``X`` drops it; a partial step, which
    writes ``X`` in place, sets it to None.  Outside a step, write the state
    through ``set_state``, which keeps ``G`` and ``lap`` true to ``X``.
    """

    graph: Graph
    problem: ConsensusProblem
    hp: Hyperparams
    kernel: cv.Kernel
    X: np.ndarray
    Phi: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    shift: np.ndarray
    G: np.ndarray
    B: np.ndarray = None
    lap: tuple = None
    t: int = 0
    comm_scalars: int = 0


def init_network(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> NetworkState:
    """Zero-initialized network with the local gradients at zero and the
    initial curvature model of the scheme's kernel."""
    if problem.m != graph.m:
        raise ConfigurationError(
            f"{problem.m} objectives for {graph.m} agents"
        )
    if hp.leader >= graph.m:   # Hyperparams' rule holds it at 0 or more
        raise ConfigurationError(f"leader {hp.leader} out of range for m={graph.m}")
    shift = cv.block_diag_value(hp, graph.degrees, np.arange(graph.m) == hp.leader)
    ns = NetworkState(graph=graph, problem=problem, hp=hp, kernel=cv.kernel(hp, problem),
                      X=None, Phi=None, theta=None, lam=None, shift=shift, G=None)
    zeros = np.zeros((graph.m, problem.d))
    return set_state(ns, X=zeros, Phi=zeros, theta=zeros[0], lam=zeros[0])


def set_state(ns: NetworkState, X=None, Phi=None, theta=None, lam=None, B=None) -> NetworkState:
    """Replace the given state arrays of ``ns`` by float copies of them: the
    local gradients ``G`` are taken at ``X``, ``lap`` is dropped, and the
    models ``B`` restart from the kernel's ``init`` unless given."""
    for name, value in (("X", X), ("Phi", Phi), ("theta", theta), ("lam", lam)):
        if value is not None:
            setattr(ns, name, np.array(value, dtype=float))
    ns.G = ns.problem.gradients(ns.X, range(ns.graph.m))
    ns.B = ns.kernel.init(ns.problem, ns.shift) if B is None else np.array(B, dtype=float)
    ns.lap = None
    return ns


def laplacian_term(ns: NetworkState) -> np.ndarray:
    """``deg*X - A@X`` at the current ``X`` of every agent, read from
    ``ns.lap`` when it was formed from this ``X``, else formed and cached."""
    X = ns.X
    if ns.lap is None or ns.lap[0] is not X:
        ns.lap = (X, ns.graph.degrees[:, None] * X - ns.graph.adjacency @ X)
    return ns.lap[1]


def local_gradient(ns: NetworkState, rows=None) -> np.ndarray:
    """Augmented-Lagrangian gradient at the listed rows of X, or at every row
    when ``rows`` is None; the local part is the cached ``G``."""
    X, hp = ns.X, ns.hp
    if rows is None:
        H = ns.G + ns.Phi + 0.5 * hp.mu_z * laplacian_term(ns)
        lead = [hp.leader]
    else:
        rows = np.asarray(rows, dtype=np.intp)
        coupling = ns.graph.degrees[rows, None] * X[rows] - ns.graph.adjacency[rows] @ X
        H = ns.G[rows] + ns.Phi[rows] + 0.5 * hp.mu_z * coupling
        lead = np.flatnonzero(rows == hp.leader)
    if len(lead):
        H[lead] = H[lead] + hp.mu_theta * (X[hp.leader] - ns.theta) + ns.lam
    return H


def dual_updates(ns: NetworkState, active=None) -> None:
    """Dual ascent along every edge with a participating endpoint.

    The consensus duals live on edges; an edge whose source or destination
    participated moves by half the penalty times the disagreement, entering
    both endpoints' rows of Phi with opposite signs (so the aggregate dual
    stays in the range of the signed incidence even under partial
    participation).  The participating leader then applies the proximal
    map and its multiplier step.  ``active`` is a boolean mask over agents;
    None means every agent, whose update is the Laplacian term at ``X``,
    kept in ``ns.lap`` for the next step's coupling.
    """
    hp = ns.hp
    if active is None:
        ns.Phi += 0.5 * hp.mu_z * laplacian_term(ns)
    else:
        touched = ns.graph.adjacency * (active[:, None] | active[None, :])
        ns.Phi += 0.5 * hp.mu_z * (touched.sum(axis=1)[:, None] * ns.X - touched @ ns.X)
    if active is None or active[hp.leader]:
        x_lead = ns.X[hp.leader]
        theta_new = prox(ns.problem.regularizer, hp.mu_theta, x_lead + ns.lam / hp.mu_theta)
        ns.lam = ns.lam + hp.mu_theta * (x_lead - theta_new)
        ns.theta = theta_new


def _require_finite(ns: NetworkState, *phases) -> None:
    """Raise ``DivergenceError`` for the first of ``phases``, each (name, rows,
    values) in step order, whose values hold a non-finite number, naming the
    agent of its first such row."""
    for phase, rows, values in phases:
        if not np.isfinite(values).all():
            bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
            agent = int(rows[np.flatnonzero(bad)[0]])
            t = ns.t + 1
            raise DivergenceError(f"non-finite {phase} update at t={t}, agent {agent}",
                                  t, agent, phase)


def apply_step(ns: NetworkState, active: np.ndarray) -> NetworkState:
    """Advance the network one iteration; ``active`` is a boolean mask over agents.

    Raises ``DivergenceError`` naming the agent and the phase ("primal",
    "dual", "prox", "gradient" or "model") that first wrote a non-finite
    value; the state is then left mid-step.  A mask that is not a boolean
    (m,) array is refused with a ``ConfigurationError`` before anything is written.
    """
    active = np.asarray(active)
    if active.dtype.kind != "b" or active.shape != (ns.graph.m,):
        raise ConfigurationError(f"active must be a boolean mask of shape ({ns.graph.m},), "
                                 f"got a {active.dtype} array of shape {active.shape}")
    rows = np.flatnonzero(active)
    # every agent active: whole arrays are replaced instead of gathered and
    # scattered, and the dual update's Laplacian term is the next coupling
    full = len(rows) == ns.graph.m
    curvature = ns.kernel.build(ns, rows)
    H = local_gradient(ns, None if full else rows)
    x_old, g_old = (ns.X, ns.G) if full else (ns.X[rows], ns.G[rows])
    x_new = x_old - cv.solve_direction(ns.kernel, curvature, H)
    if full:
        ns.X = x_new
    else:
        ns.X[rows] = x_new
        ns.lap = None
    ns.comm_scalars += int(ns.graph.degrees[rows].sum()) * ns.problem.d

    dual_updates(ns, None if full else active)
    g_new = ns.problem.gradients(ns.X, rows)
    if full:
        ns.G = g_new
    else:
        ns.G[rows] = g_new
    # checked before the model refresh, which rejects non-finite pairs; the
    # prox never enlarges its argument, so a non-finite theta shows in lam too
    _require_finite(ns, ("primal", rows, x_new), ("dual", range(ns.graph.m), ns.Phi),
                    ("prox", [ns.hp.leader], ns.lam[None]), ("gradient", rows, g_new))
    models = ns.kernel.refresh(ns, rows, curvature, x_old, x_new, g_old, g_new)
    if models is not None:
        _require_finite(ns, ("model", rows, models))
    ns.t += 1
    return ns


def sync_step(ns: NetworkState) -> NetworkState:
    """One synchronous iteration: every agent participates."""
    return apply_step(ns, np.ones(ns.graph.m, dtype=bool))
