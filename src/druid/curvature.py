"""Per-agent curvature models for the primal update.

The approximated Hessian of the augmented Lagrangian is block diagonal;
agent i's block is J_ii plus the constant shift
(mu_z * |N_i| + mu_theta * [i == leader] + epsilon) * I with

* J_ii = 0 for the gradient scheme (the block is a scalar),
* J_ii = local Hessian for the Newton scheme,
* the BFGS scheme tracks the block's inverse directly from
  iterate/gradient difference pairs, so no linear system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .problems import LocalObjective

GRADIENT = "gradient"
NEWTON = "newton"
BFGS = "bfgs"

SCHEMES = (GRADIENT, NEWTON, BFGS)

#: Curvature pairs with q^T s at or below this (relative) level are skipped.
BFGS_SKIP_TOL = 1e-12


@dataclass
class Hyperparams:
    """Algorithm parameters shared by every agent.

    ``psi`` is the BFGS curvature bound; the additive 1/psi regularization
    it controls is applied only when ``bfgs_bounding`` is on, but rate
    formulas use psi whenever the scheme is BFGS.
    """

    mu_z: float
    mu_theta: float
    epsilon: float
    scheme: str = GRADIENT
    leader: int = 0
    psi: float = 1.0
    bfgs_bounding: bool = False

    def __post_init__(self):
        for name in ("mu_z", "mu_theta", "epsilon", "psi"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.leader < 0:
            raise ValueError("leader index must be nonnegative")


def block_diag_value(hp: Hyperparams, degree: int, is_leader: bool) -> float:
    """Constant diagonal of agent i's curvature block (the whole block
    under the gradient scheme); independent of the iterate."""
    return hp.mu_z * degree + (hp.mu_theta if is_leader else 0.0) + hp.epsilon


def newton_block(obj: LocalObjective, x: np.ndarray, hp: Hyperparams,
                 degree: int, is_leader: bool) -> np.ndarray:
    """Local Hessian plus the constant shift; positive definite by construction."""
    block = obj.hessian(x)
    block[np.diag_indices_from(block)] += block_diag_value(hp, degree, is_leader)
    return block


def bfgs_pair(x_prev: np.ndarray, x_new: np.ndarray, grad_prev: np.ndarray,
              grad_new: np.ndarray, shift):
    """Iterate/gradient difference pair between two updates of an agent.

    The gradient difference is shifted by the constant diagonal so that
    the pair models the full curvature block, not just the local Hessian.
    Applies row-wise to stacked (k, d) arrays with ``shift`` of shape
    (k, 1).
    """
    s = x_new - x_prev
    q = grad_new - grad_prev + shift * s
    return s, q


def bfgs_inverse_update(B: np.ndarray, s: np.ndarray, q: np.ndarray,
                        skip_tol: float = BFGS_SKIP_TOL, psi: float = None) -> np.ndarray:
    """Rank-two secant update of the inverse estimate.

    Returns B unchanged when the pair's curvature q^T s is not safely
    positive (skip rule).  With ``psi`` given, adds I/psi afterwards to
    keep the modeled curvature below psi.
    """
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(q)) and np.all(np.isfinite(B))):
        raise FloatingPointError("non-finite input to curvature update")
    qs = float(q @ s)
    if qs <= skip_tol * np.linalg.norm(q) * np.linalg.norm(s) or not np.any(s):
        return B
    rho = 1.0 / qs
    V = np.eye(len(s)) - rho * np.outer(s, q)
    out = V @ B @ V.T + rho * np.outer(s, s)
    out = 0.5 * (out + out.T)
    if psi is not None:
        out[np.diag_indices_from(out)] += 1.0 / psi
    return out


def solve_direction(scheme: str, curvature: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Update directions U with curvature_block_k @ U[k] = H[k] for each row k.

    ``curvature`` holds one entry per row of H: the constant shift (k,)
    for the gradient scheme (a scalar division), the Newton block
    (k, d, d) (a Cholesky solve), or the BFGS inverse model (k, d, d)
    (a plain matrix-vector product).
    """
    if scheme == GRADIENT:
        return H / curvature[:, None]
    if scheme == NEWTON:
        U = np.empty_like(H)
        for k, block in enumerate(curvature):
            c, low = scipy.linalg.cho_factor(block)
            U[k] = scipy.linalg.cho_solve((c, low), H[k])
        return U
    return np.einsum("kij,kj->ki", curvature, H)
