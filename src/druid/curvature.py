"""Per-agent curvature models for the primal update.

The approximated Hessian of the augmented Lagrangian is block diagonal;
agent i's block is J_ii plus the constant shift
(mu_z * |N_i| + mu_theta * [i == leader] + epsilon) * I with

* J_ii = 0 for the gradient scheme (the block is a scalar),
* J_ii = local Hessian for the Newton scheme; when every local Hessian is
  constant the block's inverse is computed once and no system is solved,
* the BFGS scheme tracks the block's inverse directly from
  iterate/gradient difference pairs, so no linear system is solved.

``KERNELS`` is the one place that maps a scheme to its behaviour, and
``kernel`` picks the entry a network runs; ``network.init_network`` calls it
once and keeps the entry in the network state.  Every kernel works on the
stacked rows of the active agents at once.  The constant-Newton and BFGS
kernels apply their inverse models as one batched matmul whose row k is
agent k's own product ``B[k] @ H[k]``, so a row's direction does not
depend on which other agents are active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_rules, rule

GRADIENT = "gradient"
NEWTON = "newton"
BFGS = "bfgs"

#: Curvature pairs with q^T s at or below this (relative) level are skipped.
BFGS_SKIP_TOL = 1e-12


def block_diag_value(hp: Hyperparams, degree, is_leader):
    """Constant diagonal of agent i's curvature block (the whole block
    under the gradient scheme); independent of the iterate.  Takes one
    agent's degree and leader flag, or arrays of them for every agent."""
    return hp.mu_z * degree + hp.mu_theta * is_leader + hp.epsilon


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
    """Rank-two secant update of symmetric inverse estimates, O(d^2) per model.

    Takes a stack ``B`` (k, d, d) of models with their pairs ``s``, ``q``
    (k, d); a single model is a one-row stack.  A row whose curvature q^T s
    is not safely positive (skip rule, relative level ``BFGS_SKIP_TOL``) or
    whose step is zero keeps its model bit for bit; when every row is
    skipped, B itself is returned.  With ``psi`` given, updated models get
    I/psi added to keep the modeled curvature below psi.
    """
    if not (np.isfinite(s).all() and np.isfinite(q).all() and np.isfinite(B).all()):
        raise FloatingPointError("non-finite input to curvature update")
    qs = np.einsum("ki,ki->k", q, s)
    # the row norms by np.linalg.norm(., axis=1)'s own formula, bit for bit
    q_norm, s_norm = np.sqrt(np.add.reduce(q * q, axis=1)), np.sqrt(np.add.reduce(s * s, axis=1))
    accept = (qs > BFGS_SKIP_TOL * q_norm * s_norm) & s.any(axis=1)
    if not accept.any():
        return B
    every = accept.all()
    models, s, q, qs = (B, s, q, qs) if every else \
        (B[accept], s[accept], q[accept], qs[accept])
    rho = 1.0 / qs
    Bq = (models @ q[:, :, None])[:, :, 0]
    # B - rho (s Bq^T + Bq s^T) + (rho^2 q^T B q + rho) s s^T written as
    # B + (s v^T + v s^T): both products of an entry and its mirror are the
    # same floats, so a symmetric model stays exactly symmetric
    v = (0.5 * (rho * rho * np.einsum("ki,ki->k", q, Bq) + rho))[:, None] * s \
        - rho[:, None] * Bq
    outer = np.einsum("ki,kj->kij", s, v)
    new = models + (outer + outer.transpose(0, 2, 1))
    if psi is not None:
        diag = np.arange(B.shape[-1])
        new[:, diag, diag] += 1.0 / psi
    if every:
        return new
    out = B.copy()
    out[accept] = new
    return out


# --- per-scheme kernels: ``ns`` is a network.NetworkState, ``rows`` the active agents

def _shifted(blocks, shift):
    """Newton blocks from a new (k, d, d) stack of local Hessians: each row's
    shift is added to its diagonal, in place."""
    diag = np.arange(blocks.shape[-1])
    blocks[:, diag, diag] += shift[:, None]
    return blocks


def _newton_rows(ns, rows):
    return _shifted(ns.problem.hessians(ns.X, rows), ns.shift[rows])


def _model_rows(ns, rows):
    # every row active: read the stack in place instead of gathering a copy
    return ns.B if len(rows) == len(ns.B) else ns.B[rows]


def _apply_model(curvature, H):
    """Each row's model times its vector, as one batched BLAS matmul: row k
    is agent k's own ``curvature[k] @ H[k]``, bit for bit, whichever rows
    are stacked with it."""
    return (curvature @ H[:, :, None])[:, :, 0]


def _inverse_newton_blocks(problem, shift):
    zero = np.zeros((problem.m, problem.d))
    return np.linalg.inv(_shifted(problem.hessians(zero, range(problem.m)), shift))


def _secant_refresh(ns, rows, models, x_old, x_new, g_old, g_new):
    s, q = bfgs_pair(x_old, x_new, g_old, g_new, ns.shift[rows, None])
    psi = ns.hp.psi if ns.hp.bfgs_bounding else None
    new = bfgs_inverse_update(models, s, q, psi=psi)
    if new is models:  # every pair skipped
        return None
    ns.B[rows] = new
    return new


@dataclass(frozen=True)
class Kernel:
    """What the network step does differently under one scheme: ``build``
    the active rows' curvature, ``solve`` for their directions, and
    ``refresh`` the model ``NetworkState.B`` once the rows have moved.
    ``refresh(ns, rows, curvature, x_old, x_new, g_old, g_new)`` takes what
    the step already holds: the ``curvature`` that ``build`` gave for
    ``rows``, and the rows' iterates and local gradients before and after
    the move, as written to ``X`` and ``G``.  It returns the refreshed rows
    (None when nothing changed).
    ``init(problem, shift)`` gives the initial ``NetworkState.B``: an
    (m, d, d) stack of inverse models, or None when the scheme keeps none."""

    build: Callable
    solve: Callable
    init: Callable = lambda problem, shift: None
    refresh: Callable = lambda ns, rows, curvature, x_old, x_new, g_old, g_new: None


KERNELS = {
    GRADIENT: Kernel(
        build=lambda ns, rows: ns.shift[rows],
        solve=lambda curvature, H: H / curvature[:, None],
    ),
    NEWTON: Kernel(
        build=_newton_rows,
        solve=lambda curvature, H: np.linalg.solve(curvature, H[..., None])[..., 0],
    ),
    # the inverse models start at I/shift, the exact inverse of the block
    # when the local Hessian vanishes
    BFGS: Kernel(
        build=_model_rows,
        solve=_apply_model,
        init=lambda problem, shift: np.eye(problem.d) / shift[:, None, None],
        refresh=_secant_refresh,
    ),
}

#: Newton when every local Hessian is constant: the block never changes, so
#: its inverse is computed once and applied like a BFGS model.  The block's
#: condition number is at most 1 + M_f / epsilon, so the explicit inverse is
#: accurate.
CONSTANT_NEWTON = Kernel(build=_model_rows, solve=_apply_model, init=_inverse_newton_blocks)


def kernel(hp: Hyperparams, problem) -> Kernel:
    """The table entry a network with ``problem`` runs under ``hp``."""
    if hp.scheme == NEWTON and problem.constant_hessian:
        return CONSTANT_NEWTON
    return KERNELS[hp.scheme]


SCHEMES = tuple(KERNELS)


@dataclass(frozen=True)
class Hyperparams:
    """Algorithm parameters shared by every agent.

    ``psi`` is the BFGS curvature bound; the additive 1/psi regularization
    it controls is applied only when ``bfgs_bounding`` is on, but rate
    formulas use psi whenever the scheme is BFGS.  Frozen: a network bakes
    them into its state at init, so derive variants with
    ``dataclasses.replace``.
    """

    mu_z: float = rule(above=0)
    mu_theta: float = rule(above=0)
    epsilon: float = rule(above=0)
    scheme: str = rule(GRADIENT, choices=KERNELS)   # the table as it is when checked
    leader: int = rule(0, at_least=0)
    psi: float = rule(1.0, above=0)
    bfgs_bounding: bool = rule(False)
    __post_init__ = check_rules


def solve_direction(kern: Kernel, curvature: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Update directions U with curvature_block_k @ U[k] = H[k] for each row k.

    ``curvature`` is what the kernel builds: shifts (k,), Newton blocks
    (k, d, d) or inverse models (k, d, d).
    """
    return kern.solve(curvature, H)
