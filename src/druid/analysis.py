"""Verification oracles and convergence diagnostics.

These are independent routes to check the reduced network iteration:

* stationarity, consensus and regularizer residuals;
* a literal three-block ADMM recursion on the network's own shapes: (m, d)
  iterates x, (n, d) edge variables z and edge duals alpha, beta, and the
  leader's theta, lambda.  Its state owns its inputs, curvature shifts and
  BFGS models, and its edge terms gather and scatter over the graph's
  endpoints;
* recovery of the unique dual pair in the column space of the stacked
  constraint matrix;
* the edge duals the network iteration does not store, and the weighted
  Lyapunov distance of a network state to an optimum;
* the inexactness of a network step, with its per-scheme bound.

Each diagnostic reads the problem, graph and hyperparameters from its state.
The gradients and Hessians come from the problem's stacked evaluations; the
curvature updates are this module's own, so the oracles do not share the
run path's kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import DiagnosticError, InconsistentReferenceError
from .network import NetworkState
from .problems import ConsensusProblem, prox, subgradient_membership
from .rates import THEORY
from .topology import Graph, constraint_gram, edge_differences, edge_scatter, edge_sums

STATIONARITY_TOL = 1e-9           # project_dual's stationarity residual
MEMBERSHIP_TOL = 1e-8             # project_dual's subgradient inclusion
BFGS_RECONSTRUCTION_MAX_D = 64    # error_term inverts the BFGS models up to this d
ERROR_BOUND_SLACK = 1e-9          # absolute slack of error_term's bound check


def kkt_residuals(ns: NetworkState):
    """Norms of the three optimality violations of the current state.

    Returns (r_opt, r_cons, r_reg): stationarity of the smooth part
    against the held duals, consensus disagreement across edges, and the
    gap between the leader's iterate and the regularizer variable.  The
    local gradients are the network's cached ``G``.
    """
    X = ns.X
    stat = ns.G + ns.Phi
    leader = ns.hp.leader
    stat[leader] += ns.lam
    r_opt = float(np.linalg.norm(stat))
    r_cons = float(np.linalg.norm(edge_differences(ns.graph, X)))
    r_reg = float(np.linalg.norm(X[leader] - ns.theta))
    return r_opt, r_cons, r_reg


# --- literal three-block ADMM recursion -----------------------------------


@dataclass
class FullAdmmState:
    """State of the unreduced recursion on the network's own shapes: the
    problem, graph and hyperparameters ``full_admm_init`` was given, the
    shifts it builds once, and the three blocks (x; z; alpha, beta) with the
    leader's (theta, lambda)."""

    problem: ConsensusProblem
    graph: Graph
    hp: Hyperparams
    x: np.ndarray      # (m, d)
    z: np.ndarray      # (n, d)
    alpha: np.ndarray  # (n, d), dual of the source side x_src = z
    beta: np.ndarray   # (n, d), dual of the destination side x_dst = z
    theta: np.ndarray  # (d,)
    lam: np.ndarray    # (d,)
    shift: np.ndarray  # (m,), constant diagonal of each curvature block
    models: np.ndarray = None  # (m, d, d) BFGS inverse estimates


def full_admm_init(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> FullAdmmState:
    """Zero initialization matching the reduced algorithm's."""
    m, n, d = graph.m, graph.n, problem.d
    shift = cv.block_diag_value(hp, graph.degrees, np.arange(m) == hp.leader)
    return FullAdmmState(
        problem=problem, graph=graph, hp=hp, x=np.zeros((m, d)), z=np.zeros((n, d)),
        alpha=np.zeros((n, d)), beta=np.zeros((n, d)), theta=np.zeros(d), lam=np.zeros(d),
        shift=shift,
        models=np.eye(d) / shift[:, None, None] if hp.scheme == cv.BFGS else None,
    )


def full_admm_oracle_step(st: FullAdmmState) -> FullAdmmState:
    """One round of the unreduced recursion, same curvature scheme.

    The primal minimization is replaced by the identical one-step
    curvature update as the network iteration: one stacked operation per
    scheme on the (m, d) arrays, around the problem's stacked gradients and
    Hessians of every agent.  The edge variable solve is closed-form;
    both edge duals and the leader's multiplier ascend explicitly.  Each
    BFGS pair spans the step, from the iterate and gradient it starts at.
    """
    problem, graph, hp = st.problem, st.graph, st.hp
    shift, leader, x, agents = st.shift, hp.leader, st.x, range(problem.m)
    grad_f = problem.gradients(x, agents)
    grad_l = grad_f + edge_scatter(graph, st.alpha + hp.mu_z * (x[graph.src] - st.z),
                                   st.beta + hp.mu_z * (x[graph.dst] - st.z))
    grad_l[leader] += st.lam + hp.mu_theta * (x[leader] - st.theta)
    if hp.scheme == cv.GRADIENT:
        u = grad_l / shift[:, None]
    elif hp.scheme == cv.NEWTON:
        blocks = problem.hessians(x, agents)
        diag = np.arange(problem.d)
        blocks[:, diag, diag] += shift[:, None]
        u = np.linalg.solve(blocks, grad_l[..., None])[..., 0]
    else:
        u = (st.models @ grad_l[..., None])[..., 0]
    x_new = x - u
    theta_new = prox(problem.regularizer, hp.mu_theta, x_new[leader] + st.lam / hp.mu_theta)
    src, dst = x_new[graph.src], x_new[graph.dst]
    z_new = (st.alpha + st.beta) / (2.0 * hp.mu_z) + 0.5 * (src + dst)
    alpha_new = st.alpha + hp.mu_z * (src - z_new)
    beta_new = st.beta + hp.mu_z * (dst - z_new)
    lam_new = st.lam + hp.mu_theta * (x_new[leader] - theta_new)
    models = None
    if hp.scheme == cv.BFGS:
        s = x_new - x
        q = problem.gradients(x_new, agents) - grad_f + shift[:, None] * s
        models = cv.bfgs_inverse_update(
            st.models, s, q, psi=hp.psi if hp.bfgs_bounding else None
        )
    return replace(st, x=x_new, z=z_new, alpha=alpha_new, beta=beta_new, theta=theta_new,
                   lam=lam_new, models=models)


# --- dual recovery at a known optimum --------------------------------------


def project_dual(x_hat_star: np.ndarray, problem: ConsensusProblem, graph: Graph, leader: int):
    """Unique dual pair supported on the constraint matrix's column space.

    Solves ``constraint_gram(graph, leader)`` r = -grad F at the replicated
    optimum and maps r through the stacked constraint matrix.  Verifies
    stationarity to ``STATIONARITY_TOL`` and the subgradient inclusion of the
    returned multiplier to ``MEMBERSHIP_TOL``; a failure signals a bad
    reference point.  The leader is checked before any gradient is taken.
    """
    gram = constraint_gram(graph, leader)
    grads = problem.gradients(np.broadcast_to(x_hat_star, (problem.m, problem.d)), range(problem.m))
    r = np.linalg.solve(gram, -grads)
    alpha = edge_differences(graph, r)
    lam = r[leader].copy()
    stat = grads + edge_scatter(graph, alpha, -alpha)
    stat[leader] += lam
    residual = float(np.linalg.norm(stat))
    if residual > STATIONARITY_TOL:
        raise InconsistentReferenceError(
            f"stationarity residual {residual:.3e} exceeds {STATIONARITY_TOL:.3e}; "
            "reference point is off"
        )
    if not subgradient_membership(problem.regularizer, x_hat_star, lam, MEMBERSHIP_TOL):
        raise InconsistentReferenceError(
            "recovered multiplier is not a regularizer subgradient at the reference point"
        )
    return alpha, lam


# --- edge duals and the weighted Lyapunov distance --------------------------


def advance_edge_duals(ns: NetworkState, alpha: np.ndarray) -> np.ndarray:
    """The (n, d) edge duals after the synchronous step that produced ``ns.X``,
    from ``alpha`` before it.  The network iteration never stores them; a
    diagnostic starts from zeros of shape (n, d) and advances them each step.
    """
    return alpha + 0.5 * ns.hp.mu_z * edge_differences(ns.graph, ns.X)


def lyapunov_distance(ns: NetworkState, alpha: np.ndarray, x_star: np.ndarray,
                      alpha_star: np.ndarray, lam_star: np.ndarray) -> float:
    """Squared block-weighted distance of a network state to the fixed point
    built from an optimum and its duals.

    The stacked variables are (x, z, alpha, theta, lambda), with z the edge
    midpoint 1/2 E_u x on both sides and ``alpha`` the tracked edge duals;
    the fixed point has every agent and theta at ``x_star``.  The weights
    are (epsilon, 2 mu_z, 2/mu_z, mu_theta, 1/mu_theta).  Under the
    gradient scheme they are also the descent argument's weighting.
    """
    hp, graph = ns.hp, ns.graph
    X_star = np.tile(x_star, (graph.m, 1))
    dz = 0.5 * edge_sums(graph, ns.X) - 0.5 * edge_sums(graph, X_star)
    return float(
        hp.epsilon * np.sum((ns.X - X_star) ** 2)
        + 2.0 * hp.mu_z * np.sum(dz ** 2)
        + 2.0 / hp.mu_z * np.sum((alpha - alpha_star) ** 2)
        + hp.mu_theta * np.sum((ns.theta - x_star) ** 2)
        + 1.0 / hp.mu_theta * np.sum((ns.lam - lam_star) ** 2)
    )


# --- primal inexactness -----------------------------------------------------


@dataclass(frozen=True)
class ErrorReport:
    e_t: np.ndarray
    norm_e: float
    tau_t: float
    bound_satisfied: bool


def error_term(ns: NetworkState, x_prev: np.ndarray, bfgs_prev=None) -> ErrorReport:
    """Gradient-linearization error of the step from ``x_prev`` to ``ns.X``
    and its bound.

    e = grad F(x_prev) - grad F(X) + J (X - x_prev), with J zero for the
    gradient scheme, the local Hessians for Newton, and the modeled block
    minus its constant diagonal ``ns.shift`` for BFGS (reconstructed from
    the (m, d, d) inverse estimates ``bfgs_prev`` and ``ns.B``).
    """
    problem, hp = ns.problem, ns.hp
    d, agents = problem.d, range(problem.m)
    sm = problem.smoothness
    dx = ns.X - x_prev
    e = problem.gradients(x_prev, agents) - problem.gradients(ns.X, agents)
    norm_dx = float(np.linalg.norm(dx))
    if hp.scheme == cv.GRADIENT:
        tau = THEORY[hp.scheme].tau(hp, sm)
    elif hp.scheme == cv.NEWTON:
        e += (problem.hessians(x_prev, agents) @ dx[..., None])[..., 0]
        tau = min(THEORY[hp.scheme].tau(hp, sm), 0.5 * sm.L_f * norm_dx)
    else:
        if bfgs_prev is None:
            raise DiagnosticError("BFGS error term needs the inverse estimates before the step")
        if d > BFGS_RECONSTRUCTION_MAX_D:
            raise DiagnosticError(
                f"BFGS block reconstruction capped at d={BFGS_RECONSTRUCTION_MAX_D}, got d={d}"
            )
        H_prev = np.linalg.inv(bfgs_prev)
        H_next = np.linalg.inv(ns.B)
        e += ((H_prev - ns.shift[:, None, None] * np.eye(d)) @ dx[:, :, None])[:, :, 0]
        tau = float(np.linalg.norm(H_prev - H_next, 2, axis=(1, 2)).max())
    norm_e = float(np.linalg.norm(e))
    return ErrorReport(
        e_t=e, norm_e=norm_e, tau_t=tau,
        bound_satisfied=bool(norm_e <= tau * norm_dx + ERROR_BOUND_SLACK),
    )
