"""Per-agent curvature models for the primal update.

The approximated Hessian of the augmented Lagrangian is block diagonal;
agent i's block is J_ii plus the constant shift
(mu_z * |N_i| + mu_theta * [i == leader] + epsilon) * I with

* J_ii = 0 for the gradient scheme (the block is a scalar),
* J_ii = local Hessian for the Newton scheme,
* the BFGS scheme tracks the block's inverse directly from
  iterate/gradient difference pairs, so no linear system is solved.

``KERNELS`` is the one place that maps a scheme to its behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .problems import LocalObjective

GRADIENT = "gradient"
NEWTON = "newton"
BFGS = "bfgs"

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
                        psi: float = None) -> np.ndarray:
    """Rank-two secant update of the inverse estimate.

    Returns B itself when the pair's curvature q^T s is not safely
    positive (skip rule, relative level ``BFGS_SKIP_TOL``).  With ``psi``
    given, adds I/psi afterwards to keep the modeled curvature below psi.
    """
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(q)) and np.all(np.isfinite(B))):
        raise FloatingPointError("non-finite input to curvature update")
    qs = float(q @ s)
    if qs <= BFGS_SKIP_TOL * np.linalg.norm(q) * np.linalg.norm(s) or not np.any(s):
        return B
    rho = 1.0 / qs
    V = np.eye(len(s)) - rho * np.outer(s, q)
    out = V @ B @ V.T + rho * np.outer(s, s)
    out = 0.5 * (out + out.T)
    if psi is not None:
        out[np.diag_indices_from(out)] += 1.0 / psi
    return out


# --- per-scheme kernels: ``ns`` is a network.NetworkState, ``rows`` the active agents

def _newton_rows(ns, hp, rows):
    blocks = [
        newton_block(ns.problem.objectives[i], ns.X[i], hp, ns.graph.degree(i), i == ns.leader)
        for i in rows
    ]
    d = ns.problem.d
    return np.array(blocks, dtype=float).reshape(len(rows), d, d)


def _cholesky(curvature, H):
    U = np.empty_like(H)
    for k, block in enumerate(curvature):
        c, low = scipy.linalg.cho_factor(block)
        U[k] = scipy.linalg.cho_solve((c, low), H[k])
    return U


def _secant_refresh(ns, hp, rows, x_old, g_old):
    s, q = bfgs_pair(x_old, ns.X[rows], g_old, ns.G[rows], ns.shift[rows, None])
    psi = hp.psi if hp.bfgs_bounding else None
    for k, i in enumerate(rows):
        ns.B[i] = bfgs_inverse_update(ns.B[i], s[k], q[k], psi=psi)


@dataclass(frozen=True)
class Kernel:
    """What the network step does differently under one scheme: ``build``
    the active rows' curvature, ``solve`` for their directions, ``init`` the
    model ``NetworkState.B``, and ``refresh`` it once the rows have moved from
    ``x_old`` (local gradients ``g_old``) and their ``G`` is current."""

    build: Callable
    solve: Callable
    init: Callable = lambda shift, d: None
    refresh: Callable = lambda ns, hp, rows, x_old, g_old: None


KERNELS = {
    GRADIENT: Kernel(
        build=lambda ns, hp, rows: ns.shift[rows],
        solve=lambda curvature, H: H / curvature[:, None],
    ),
    NEWTON: Kernel(build=_newton_rows, solve=_cholesky),
    # the inverse models start at I/shift, the exact inverse of the block
    # when the local Hessian vanishes
    BFGS: Kernel(
        build=lambda ns, hp, rows: ns.B[rows],
        solve=lambda curvature, H: np.einsum("kij,kj->ki", curvature, H),
        init=lambda shift, d: np.eye(d) / shift[:, None, None],
        refresh=_secant_refresh,
    ),
}

SCHEMES = tuple(KERNELS)


def solve_direction(scheme: str, curvature: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Update directions U with curvature_block_k @ U[k] = H[k] for each row k.

    ``curvature`` is what the scheme's kernel builds: shifts (k,), Newton
    blocks (k, d, d) or BFGS inverse models (k, d, d).
    """
    return KERNELS[scheme].solve(curvature, H)
