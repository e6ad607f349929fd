"""Verification oracles and convergence diagnostics.

This module provides independent routes to check the reduced network
iteration: stationarity/consensus residuals, a literal three-block ADMM
recursion over the stacked variables (x, z, y = [alpha; beta], theta,
lambda) built from dense block matrices, least-squares recovery of the
unique dual pair in the column space of the stacked constraint matrix,
weighted Lyapunov distances, and the primal inexactness term with its
per-scheme bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import DiagnosticError, InconsistentReferenceError
from .network import NetworkState
from .problems import ConsensusProblem, prox, subgradient_membership
from .rates import THEORY
from .topology import Graph, build_matrices, edge_differences, edge_sums


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
    """Stacked-variable state of the unreduced recursion."""

    x: np.ndarray      # (m*d,)
    z: np.ndarray      # (n*d,)
    y: np.ndarray      # (2*n*d,), stacked [alpha; beta]
    theta: np.ndarray  # (d,)
    lam: np.ndarray    # (d,)
    bfgs: list = None  # per-agent (inverse estimate, x_prev, grad_prev)

    @property
    def alpha(self) -> np.ndarray:
        return self.y[: self.y.size // 2]

    @property
    def beta(self) -> np.ndarray:
        return self.y[self.y.size // 2:]


def _block_operators(graph: Graph, d: int, leader: int):
    """Dense constraint matrices at full (Kronecker) dimension."""
    tm = build_matrices(graph)
    eye = np.eye(d)
    A = np.vstack([np.kron(tm.A_s, eye), np.kron(tm.A_d, eye)])
    B = np.vstack([np.eye(graph.n * d), np.eye(graph.n * d)])
    S = np.zeros((graph.m * d, d))
    S[leader * d:(leader + 1) * d] = eye
    return A, B, S


def full_admm_init(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> FullAdmmState:
    """Zero initialization matching the reduced algorithm's."""
    m, n, d = graph.m, graph.n, problem.d
    bfgs = None
    if hp.scheme == cv.BFGS:
        bfgs = []
        for i in range(m):
            shift = cv.block_diag_value(hp, graph.degree(i), i == hp.leader)
            bfgs.append(
                [np.eye(d) / shift, np.zeros(d), problem.objectives[i].gradient(np.zeros(d))]
            )
    return FullAdmmState(
        x=np.zeros(m * d), z=np.zeros(n * d), y=np.zeros(2 * n * d),
        theta=np.zeros(d), lam=np.zeros(d), bfgs=bfgs,
    )


def full_admm_oracle_step(st: FullAdmmState, problem: ConsensusProblem,
                          graph: Graph, hp: Hyperparams) -> FullAdmmState:
    """One round of the unreduced recursion, same curvature scheme.

    The primal minimization is replaced by the identical one-step
    curvature update as the network iteration; the edge variable solve is
    closed-form; both dual vectors ascend explicitly.
    """
    m, d = graph.m, problem.d
    A, B, S = _block_operators(graph, d, hp.leader)
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
        shift = cv.block_diag_value(hp, graph.degree(i), i == hp.leader)
        if hp.scheme == cv.GRADIENT:
            u[sl] = grad_l[sl] / shift
        elif hp.scheme == cv.NEWTON:
            block = problem.objectives[i].hessian(X[i])
            block[np.diag_indices_from(block)] += shift
            u[sl] = np.linalg.solve(block, grad_l[sl])
        else:
            u[sl] = st.bfgs[i][0] @ grad_l[sl]
    x_new = st.x - u
    theta_new = prox(problem.regularizer, hp.mu_theta, S.T @ x_new + st.lam / hp.mu_theta)
    z_new = (B.T @ st.y) / (2.0 * hp.mu_z) + 0.5 * (B.T @ (A @ x_new))
    y_new = st.y + hp.mu_z * (A @ x_new - B @ z_new)
    lam_new = st.lam + hp.mu_theta * (S.T @ x_new - theta_new)
    bfgs_new = None
    if hp.scheme == cv.BFGS:
        bfgs_new = []
        Xn = x_new.reshape(m, d)
        for i in range(m):
            inv_est, x_prev, grad_prev = st.bfgs[i]
            shift = cv.block_diag_value(hp, graph.degree(i), i == hp.leader)
            grad_new = problem.objectives[i].gradient(Xn[i])
            s = Xn[i] - x_prev
            q = grad_new - grad_prev + shift * s
            inv_new = cv.bfgs_inverse_update(
                inv_est, s, q, psi=hp.psi if hp.bfgs_bounding else None
            )
            bfgs_new.append([inv_new, Xn[i].copy(), grad_new])
    return FullAdmmState(x=x_new, z=z_new, y=y_new, theta=theta_new, lam=lam_new, bfgs=bfgs_new)


# --- dual recovery at a known optimum --------------------------------------


def project_dual(x_hat_star: np.ndarray, problem: ConsensusProblem, graph: Graph,
                 leader: int, tol: float = 1e-9, membership_tol: float = 1e-8):
    """Unique dual pair supported on the constraint matrix's column space.

    Solves (L_s + e_l e_l^T) r = -grad F at the replicated optimum and
    maps r through the stacked constraint matrix.  Verifies stationarity
    to ``tol`` and the subgradient inclusion of the returned multiplier;
    failure of either signals a bad reference point.
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
    if not subgradient_membership(problem.regularizer, x_hat_star, lam, membership_tol):
        raise InconsistentReferenceError(
            "recovered multiplier is not a regularizer subgradient at the reference point"
        )
    return alpha, lam


# --- weighted Lyapunov distances -------------------------------------------


@dataclass(frozen=True)
class VAlpha:
    """Snapshot of the stacked analysis variables (x, z, alpha, theta, lambda)."""

    x: np.ndarray      # (m, d)
    z: np.ndarray      # (n, d)
    alpha: np.ndarray  # (n, d)
    theta: np.ndarray  # (d,)
    lam: np.ndarray    # (d,)


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


def v_alpha_state(ns: NetworkState, alpha: np.ndarray) -> VAlpha:
    """Analysis snapshot of a network state; requires tracked edge duals."""
    if alpha is None:
        raise DiagnosticError("edge duals were not tracked alongside this run")
    X = ns.X.copy()
    return VAlpha(
        x=X, z=0.5 * edge_sums(ns.graph, X), alpha=np.asarray(alpha, dtype=float),
        theta=ns.theta.copy(), lam=ns.lam.copy(),
    )


def v_alpha_reference(graph: Graph, x_hat_star: np.ndarray,
                      alpha_star: np.ndarray, lambda_star: np.ndarray) -> VAlpha:
    """Stacked fixed point built from a centralized optimum and its duals."""
    X = np.tile(x_hat_star, (graph.m, 1))
    return VAlpha(
        x=X, z=0.5 * edge_sums(graph, X), alpha=alpha_star,
        theta=np.asarray(x_hat_star, dtype=float).copy(), lam=lambda_star,
    )


def lyapunov_distance(va: VAlpha, vb: VAlpha, hp: Hyperparams,
                      g_weighted: bool = False, weights=None) -> float:
    """Squared block-weighted distance between two stacked snapshots.

    Default weights are (epsilon, 2 mu_z, 2/mu_z, mu_theta, 1/mu_theta) on
    the (x, z, alpha, theta, lambda) blocks.  ``g_weighted`` asks for the
    time-varying weighting used by the descent argument; it is constant
    (and equal to the default on the x block) only for the gradient
    scheme, so other schemes are rejected.
    """
    if g_weighted and hp.scheme != cv.GRADIENT:
        raise DiagnosticError(
            "the descent weighting varies across iterations unless the scheme is gradient"
        )
    if weights is None:
        weights = (hp.epsilon, 2.0 * hp.mu_z, 2.0 / hp.mu_z, hp.mu_theta, 1.0 / hp.mu_theta)
    w_x, w_z, w_a, w_t, w_l = weights
    return float(
        w_x * np.sum((va.x - vb.x) ** 2)
        + w_z * np.sum((va.z - vb.z) ** 2)
        + w_a * np.sum((va.alpha - vb.alpha) ** 2)
        + w_t * np.sum((va.theta - vb.theta) ** 2)
        + w_l * np.sum((va.lam - vb.lam) ** 2)
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
               bfgs_prev=None, bfgs_next=None, d_cap: int = 64,
               slack: float = 1e-9) -> ErrorReport:
    """Gradient-linearization error of one primal step and its bound.

    e = grad F(x_t) - grad F(x_t1) + J_t (x_t1 - x_t), with J_t zero for
    the gradient scheme, the local Hessians for Newton, and the modeled
    block minus its constant diagonal for BFGS (reconstructed from the
    tracked inverse estimates at both ends of the step).
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
        if d > d_cap:
            raise DiagnosticError(f"BFGS block reconstruction capped at d={d_cap}, got d={d}")
        tau = 0.0
        for i in range(m):
            shift = cv.block_diag_value(hp, graph.degree(i), i == hp.leader)
            H_prev = np.linalg.inv(bfgs_prev[i])
            H_next = np.linalg.inv(bfgs_next[i])
            e[i] += (H_prev - shift * np.eye(d)) @ dx[i]
            tau = max(tau, float(np.linalg.norm(H_prev - H_next, 2)))
    norm_e = float(np.linalg.norm(e))
    return ErrorReport(
        e_t=e, norm_e=norm_e, tau_t=tau,
        bound_satisfied=bool(norm_e <= tau * norm_dx + slack),
    )
