"""Simulated multi-agent network and the primal-dual iteration.

The network state is stacked: row i of ``X`` and ``Phi`` holds agent i's
primal variable and aggregate consensus dual, and the leader agent
additionally holds the pair (theta, lambda) coupling the shared variable
to the regularizer.  One iteration runs on the rows of the participating
agents, in this order: curvature and primal step from the start-of-step
iterates, dual ascent on every edge with a participating endpoint, the
leader's proximal step, then the local gradients and the scheme's model
(``curvature.kernel``).  Each agent reads its neighbors' current iterates,
since every update is sent to the neighbors as it happens.  Synchronous and
asynchronous iterations are the same step with a full or a partial
activation mask, so full participation is exactly the synchronous algorithm.
The rows every phase wrote are checked before the step returns, so a
diverging run stops on the step that first produces a non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import ConfigurationError, DivergenceError
from .problems import STACKED, Regularizer, prox
from .topology import Graph


@dataclass
class ConsensusProblem:
    """One local objective per agent plus the shared regularizer.

    All objectives have one kind and one dimension.  Construction stacks
    the data a step reads (``problems.STACKED``): the Gram matrices
    (m, d, d) and ``A^T b`` vectors (m, d) for least squares; the features
    (k, n, d) and labels (k, n) for logistic, one stack per group of the k
    agents that hold n data points each (grouped, not zero-padded, so that
    the batched products equal the per-objective ones bit for bit).  Each
    objective's arrays become views into the stacks, so the data is held
    once; change it in place, not by rebinding the arrays.  ``gradients``
    and ``hessians`` evaluate the listed agents with one batched product
    per group, while the reference solver, the smoothness constants and
    the analysis oracles call the objectives.
    """

    objectives: list
    regularizer: Regularizer = Regularizer()
    kind: str = field(init=False)
    _groups: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.objectives:
            raise ConfigurationError("need at least one local objective")
        dims = {obj.d for obj in self.objectives}
        if len(dims) != 1:
            raise ConfigurationError(f"objective dimensions differ: {sorted(dims)}")
        kinds = {obj.kind for obj in self.objectives}
        if len(kinds) != 1:
            raise ConfigurationError(f"objective kinds differ: {sorted(kinds)}")
        self.kind = kinds.pop()
        form = STACKED[self.kind]
        members = {}
        for i, obj in enumerate(self.objectives):
            members.setdefault(form.group(obj), []).append(i)
        self._groups = []  # (agents in increasing order, their stacks)
        for agents in members.values():
            stacks = []
            for name in form.fields:
                # one objective's array at a time: each is freed once its view replaces it
                shape = getattr(self.objectives[agents[0]], name).shape
                stack = np.empty((len(agents),) + shape)
                for slot, i in enumerate(agents):
                    stack[slot] = getattr(self.objectives[i], name)
                    setattr(self.objectives[i], name, stack[slot])
                stacks.append(stack)
            self._groups.append((np.array(agents, dtype=np.intp), tuple(stacks)))

    @property
    def m(self) -> int:
        return len(self.objectives)

    @property
    def d(self) -> int:
        return self.objectives[0].d

    @property
    def constant_hessian(self) -> bool:
        """Whether every local Hessian is the same at every point."""
        return self.objectives[0].constant_hessian

    def total_value(self, x: np.ndarray) -> float:
        """Centralized composite cost at a single shared point."""
        return sum(obj.value(x) for obj in self.objectives) + self.regularizer.value(x)

    def gradients(self, X: np.ndarray, rows) -> np.ndarray:
        """Local-objective gradients at the listed rows of X (distinct agents in
        increasing order), (len(rows), d) even for no rows."""
        return self._batched(STACKED[self.kind].gradients, X, rows, (self.d,))

    def hessians(self, X: np.ndarray, rows) -> np.ndarray:
        """Local Hessians at the listed rows of X, as ``gradients``; (len(rows), d, d)."""
        return self._batched(STACKED[self.kind].hessians, X, rows, (self.d, self.d))

    def _batched(self, evaluate, X, rows, shape):
        rows = np.asarray(rows, dtype=np.intp)
        full = len(rows) == self.m  # every agent: read the stacks in place
        if len(self._groups) == 1:
            stacks = self._groups[0][1]
            return evaluate(*stacks, X) if full else evaluate(*(s[rows] for s in stacks), X[rows])
        out = np.empty((len(rows),) + shape)
        for agents, stacks in self._groups:
            if full:
                at, slots = agents, slice(None)
            else:
                at = np.flatnonzero(np.isin(rows, agents))
                slots = np.searchsorted(agents, rows[at])
            out[at] = evaluate(*(s[slots] for s in stacks), X[rows[at]])
        return out


@dataclass
class NetworkState:
    """Stacked state of the whole network.

    ``X``/``Phi`` are (m, d); ``theta``/``lam`` are the leader's (d,)
    regularizer copy and multiplier; ``shift`` (m,) is the constant
    diagonal of every agent's curvature block; ``G`` (m, d) the local
    gradients at ``X`` (refresh it when writing ``X`` by hand); ``B``
    (m, d, d) the inverse models of the curvature blocks: the BFGS
    estimates, or under Newton with constant local Hessians the exact
    inverses computed once at init; None otherwise.
    """

    graph: Graph
    problem: ConsensusProblem
    X: np.ndarray
    Phi: np.ndarray
    theta: np.ndarray
    lam: np.ndarray
    shift: np.ndarray
    G: np.ndarray
    B: np.ndarray = None
    leader: int = 0
    t: int = 0
    comm_scalars: int = 0


def init_network(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> NetworkState:
    """Zero-initialized network with the local gradients at zero and the
    initial curvature model of the scheme's kernel."""
    if problem.m != graph.m:
        raise ConfigurationError(
            f"{problem.m} objectives for {graph.m} agents"
        )
    if not (0 <= hp.leader < graph.m):
        raise ConfigurationError(f"leader {hp.leader} out of range for m={graph.m}")
    m, d = graph.m, problem.d
    shift = np.array([cv.block_diag_value(hp, graph.degree(i), i == hp.leader) for i in range(m)])
    X = np.zeros((m, d))
    return NetworkState(
        graph=graph, problem=problem, X=X, Phi=np.zeros((m, d)),
        theta=np.zeros(d), lam=np.zeros(d), shift=shift, G=problem.gradients(X, range(m)),
        B=cv.kernel(hp, problem).init(problem, shift), leader=hp.leader,
    )


def local_gradient(ns: NetworkState, hp: Hyperparams, rows) -> np.ndarray:
    """Augmented-Lagrangian gradient at the listed rows of X; the local part is the cached ``G``."""
    rows = np.asarray(rows, dtype=np.intp)
    X = ns.X
    coupling = ns.graph.degrees[rows, None] * X[rows] - ns.graph.adjacency[rows] @ X
    H = ns.G[rows] + ns.Phi[rows] + 0.5 * hp.mu_z * coupling
    lead = np.flatnonzero(rows == ns.leader)
    if lead.size:
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


def _require_finite(ns: NetworkState, *phases) -> None:
    """Raise ``DivergenceError`` for the first of ``phases``, each (name, rows,
    values) in step order, whose values hold a non-finite number, naming the
    agent of its first such row; one ``isfinite`` pass when all are finite."""
    if np.isfinite(np.concatenate([values.ravel() for _, _, values in phases])).all():
        return
    for phase, rows, values in phases:
        bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
        if bad.any():
            agent = int(rows[np.flatnonzero(bad)[0]])
            t = ns.t + 1
            raise DivergenceError(f"non-finite {phase} update at t={t}, agent {agent}",
                                  t, agent, phase)


def apply_step(ns: NetworkState, hp: Hyperparams, active: np.ndarray) -> NetworkState:
    """Advance the network one iteration; ``active`` is a boolean mask over agents.

    Raises ``DivergenceError`` naming the agent and the phase ("primal",
    "dual", "prox", "gradient" or "model") that first wrote a non-finite
    value; the state is then left mid-step.
    """
    active = np.asarray(active, dtype=bool)
    rows = np.flatnonzero(active)
    kernel = cv.kernel(hp, ns.problem)
    curvature = kernel.build(ns, hp, rows)
    H = local_gradient(ns, hp, rows)
    x_old, g_old = ns.X[rows], ns.G[rows]
    ns.X[rows] = x_new = x_old - cv.solve_direction(kernel, curvature, H)
    ns.comm_scalars += int(ns.graph.degrees[rows].sum()) * ns.problem.d

    dual_updates(ns, hp, active)
    ns.G[rows] = g_new = ns.problem.gradients(ns.X, rows)
    # checked before the model refresh, which rejects non-finite pairs; the
    # prox never enlarges its argument, so a non-finite theta shows in lam too
    _require_finite(ns, ("primal", rows, x_new), ("dual", range(ns.graph.m), ns.Phi),
                    ("prox", [ns.leader], ns.lam[None]), ("gradient", rows, g_new))
    models = kernel.refresh(ns, hp, rows, x_old, g_old)
    if models is not None:
        _require_finite(ns, ("model", rows, models))
    ns.t += 1
    return ns


def sync_step(ns: NetworkState, hp: Hyperparams) -> NetworkState:
    """One synchronous iteration: every agent participates."""
    return apply_step(ns, hp, np.ones(ns.graph.m, dtype=bool))
