"""Verification oracles and convergence diagnostics.

This module provides independent routes to check the reduced network
iteration: stationarity/consensus residuals, a literal three-block ADMM
recursion over the stacked variables (x, z, y = [alpha; beta], theta,
lambda) whose state carries its dense block matrices, its curvature shifts
and one stacked array of BFGS models, least-squares recovery of the
unique dual pair in the column space of the stacked constraint matrix,
the weighted Lyapunov distance of a network state to an optimum, and the
primal inexactness term with its per-scheme bound.
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
from .topology import Graph, build_matrices, edge_differences, edge_sums

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
    """Stacked-variable state of the unreduced recursion, with the dense
    operators at full (Kronecker) dimension and the shifts that
    ``full_admm_init`` builds once."""

    x: np.ndarray      # (m*d,)
    z: np.ndarray      # (n*d,)
    y: np.ndarray      # (2*n*d,), stacked [alpha; beta]
    theta: np.ndarray  # (d,)
    lam: np.ndarray    # (d,)
    A: np.ndarray      # (2*n*d, m*d), stacked [A_s; A_d] (x) I
    B: np.ndarray      # (2*n*d, n*d), stacked [I; I]
    S: np.ndarray      # (m*d, d), selects the leader's block
    shift: np.ndarray  # (m,), constant diagonal of each curvature block
    models: np.ndarray = None  # (m, d, d) BFGS inverse estimates

    @property
    def alpha(self) -> np.ndarray:
        return self.y[: self.y.size // 2]

    @property
    def beta(self) -> np.ndarray:
        return self.y[self.y.size // 2:]


def full_admm_init(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> FullAdmmState:
    """Zero initialization matching the reduced algorithm's."""
    m, n, d = graph.m, graph.n, problem.d
    tm = build_matrices(graph)
    eye = np.eye(d)
    S = np.zeros((m * d, d))
    S[hp.leader * d:(hp.leader + 1) * d] = eye
    shift = cv.block_diag_value(hp, graph.degrees, np.arange(m) == hp.leader)
    return FullAdmmState(
        x=np.zeros(m * d), z=np.zeros(n * d), y=np.zeros(2 * n * d),
        theta=np.zeros(d), lam=np.zeros(d),
        A=np.vstack([np.kron(tm.A_s, eye), np.kron(tm.A_d, eye)]),
        B=np.vstack([np.eye(n * d), np.eye(n * d)]), S=S, shift=shift,
        models=eye / shift[:, None, None] if hp.scheme == cv.BFGS else None,
    )


def full_admm_oracle_step(st: FullAdmmState, problem: ConsensusProblem,
                          graph: Graph, hp: Hyperparams) -> FullAdmmState:
    """One round of the unreduced recursion, same curvature scheme.

    The primal minimization is replaced by the identical one-step
    curvature update as the network iteration; the edge variable solve is
    closed-form; both dual vectors ascend explicitly.  Each BFGS pair spans
    the step, from the iterate and gradient it starts at.
    """
    m, d = graph.m, problem.d
    A, B, S, shift = st.A, st.B, st.S, st.shift
    X = st.x.reshape(m, d)
    grad_f = np.concatenate([problem.objectives[i].gradient(X[i]) for i in range(m)])
    grad_l = (
        grad_f + A.T @ st.y + S @ st.lam
        + hp.mu_z * (A.T @ (A @ st.x - B @ st.z))
        + hp.mu_theta * (S @ (S.T @ st.x - st.theta))
    )
    u = np.empty_like(st.x)
    for i in range(m):
        sl = slice(i * d, (i + 1) * d)
        if hp.scheme == cv.GRADIENT:
            u[sl] = grad_l[sl] / shift[i]
        elif hp.scheme == cv.NEWTON:
            block = problem.objectives[i].hessian(X[i])
            block[np.diag_indices_from(block)] += shift[i]
            u[sl] = np.linalg.solve(block, grad_l[sl])
        else:
            u[sl] = st.models[i] @ grad_l[sl]
    x_new = st.x - u
    theta_new = prox(problem.regularizer, hp.mu_theta, S.T @ x_new + st.lam / hp.mu_theta)
    z_new = (B.T @ st.y) / (2.0 * hp.mu_z) + 0.5 * (B.T @ (A @ x_new))
    y_new = st.y + hp.mu_z * (A @ x_new - B @ z_new)
    lam_new = st.lam + hp.mu_theta * (S.T @ x_new - theta_new)
    models = None
    if hp.scheme == cv.BFGS:
        X_new = x_new.reshape(m, d)
        grad_new = np.stack([problem.objectives[i].gradient(X_new[i]) for i in range(m)])
        s = X_new - X
        q = grad_new - grad_f.reshape(m, d) + shift[:, None] * s
        models = cv.bfgs_inverse_update(
            st.models, s, q, psi=hp.psi if hp.bfgs_bounding else None
        )
    return replace(st, x=x_new, z=z_new, y=y_new, theta=theta_new, lam=lam_new, models=models)


# --- dual recovery at a known optimum --------------------------------------


def project_dual(x_hat_star: np.ndarray, problem: ConsensusProblem, graph: Graph,
                 leader: int, tol: float = 1e-9):
    """Unique dual pair supported on the constraint matrix's column space.

    Solves (L_s + e_l e_l^T) r = -grad F at the replicated optimum and
    maps r through the stacked constraint matrix.  Verifies stationarity
    to ``tol`` and the subgradient inclusion of the returned multiplier to
    ``MEMBERSHIP_TOL``; failure of either signals a bad reference point.
    """
    tm = build_matrices(graph)
    grads = np.stack([obj.gradient(x_hat_star) for obj in problem.objectives])
    gram = tm.L_s.copy()
    gram[leader, leader] += 1.0
    r = np.linalg.solve(gram, -grads)
    alpha = tm.E_s @ r
    lam = r[leader].copy()
    stat = grads + tm.E_s.T @ alpha
    stat[leader] += lam
    residual = float(np.linalg.norm(stat))
    if residual > tol:
        raise InconsistentReferenceError(
            f"stationarity residual {residual:.3e} exceeds {tol:.3e}; reference point is off"
        )
    if not subgradient_membership(problem.regularizer, x_hat_star, lam, MEMBERSHIP_TOL):
        raise InconsistentReferenceError(
            "recovered multiplier is not a regularizer subgradient at the reference point"
        )
    return alpha, lam


# --- weighted Lyapunov distance --------------------------------------------


class AlphaTracker:
    """Explicit edge-dual recursion run alongside a synchronous trajectory.

    The network iteration never stores alpha; diagnostics that need it
    advance this tracker with each new stacked iterate.
    """

    def __init__(self, graph: Graph, mu_z: float, d: int):
        self.graph = graph
        self.mu_z = mu_z
        self.alpha = np.zeros((graph.n, d))

    def update(self, x_new: np.ndarray) -> np.ndarray:
        self.alpha = self.alpha + 0.5 * self.mu_z * edge_differences(self.graph, x_new)
        return self.alpha


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


def error_term(problem: ConsensusProblem, graph: Graph, hp: Hyperparams,
               x_t: np.ndarray, x_t1: np.ndarray,
               bfgs_prev=None, bfgs_next=None) -> ErrorReport:
    """Gradient-linearization error of one primal step and its bound.

    e = grad F(x_t) - grad F(x_t1) + J_t (x_t1 - x_t), with J_t zero for
    the gradient scheme, the local Hessians for Newton, and the modeled
    block minus its constant diagonal for BFGS (reconstructed from the
    tracked (m, d, d) inverse estimates at both ends of the step).
    """
    m, d = graph.m, problem.d
    sm = problem.smoothness
    dx = x_t1 - x_t
    grads_t = np.stack([problem.objectives[i].gradient(x_t[i]) for i in range(m)])
    grads_t1 = np.stack([problem.objectives[i].gradient(x_t1[i]) for i in range(m)])
    e = grads_t - grads_t1
    norm_dx = float(np.linalg.norm(dx))
    if hp.scheme == cv.GRADIENT:
        tau = THEORY[hp.scheme].tau(hp, sm)
    elif hp.scheme == cv.NEWTON:
        for i in range(m):
            e[i] += problem.objectives[i].hessian(x_t[i]) @ dx[i]
        tau = min(THEORY[hp.scheme].tau(hp, sm), 0.5 * sm.L_f * norm_dx)
    else:
        if bfgs_prev is None or bfgs_next is None:
            raise DiagnosticError("BFGS error term needs inverse estimates at both iterates")
        if d > BFGS_RECONSTRUCTION_MAX_D:
            raise DiagnosticError(
                f"BFGS block reconstruction capped at d={BFGS_RECONSTRUCTION_MAX_D}, got d={d}"
            )
        shift = cv.block_diag_value(hp, graph.degrees, np.arange(m) == hp.leader)
        H_prev = np.linalg.inv(bfgs_prev)
        H_next = np.linalg.inv(bfgs_next)
        e += ((H_prev - shift[:, None, None] * np.eye(d)) @ dx[:, :, None])[:, :, 0]
        tau = float(np.linalg.norm(H_prev - H_next, 2, axis=(1, 2)).max())
    norm_e = float(np.linalg.norm(e))
    return ErrorReport(
        e_t=e, norm_e=norm_e, tau_t=tau,
        bound_satisfied=bool(norm_e <= tau * norm_dx + ERROR_BOUND_SLACK),
    )
