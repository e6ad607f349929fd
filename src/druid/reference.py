"""Centralized reference solution for error metrics.

Solves min_x sum_i f_i(x) + g(x) by proximal gradient descent with the
fixed step 1/L, L being an upper curvature bound of the smooth part, with
Nesterov acceleration and gradient-based restarts.  Convergence is
declared on the prox-gradient fixed-point residual ||x - T(x)||, with
T(v) = prox_{g/L}(v - grad f(v)/L), which vanishes exactly at minimizers.
Each iteration takes one gradient, at the extrapolated point y, for
x = T(y).  T is nonexpansive (so are the prox and, for convex f with an
L-Lipschitz gradient, I - grad f/L), hence residual(T(y)) <= ||y - T(y)||:
the step's length bounds the new iterate's residual for free, and the
exact residual, a second gradient, is taken only where that bound is
within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, rule, ruled
from .problems import ConsensusProblem, prox, sum_over_agents


@dataclass(frozen=True, eq=False)  # eq would compare the x_star array by truth value
class ReferenceSolution:
    x_star: np.ndarray
    cost_star: float
    residual: float
    iterations: int


def total_curvature_bound(problem: ConsensusProblem) -> float:
    """Largest eigenvalue of an upper bound on the summed Hessians."""
    return float(np.linalg.eigvalsh(sum_over_agents(problem.hessian_bounds()))[-1])


def _total_gradient(problem: ConsensusProblem, x: np.ndarray) -> np.ndarray:
    """Gradient of the summed local costs at one shared point."""
    X = np.broadcast_to(x, (problem.m, problem.d))
    return sum_over_agents(problem.gradients(X, range(problem.m)))


def fixed_point_residual(problem: ConsensusProblem, x: np.ndarray, lip: float) -> float:
    """Distance from x to one prox-gradient step of itself."""
    step = prox(problem.regularizer, lip, x - _total_gradient(problem, x) / lip)
    return float(np.linalg.norm(x - step))


@ruled(tol=rule(above=0), max_iter=rule(at_least=1))
def centralized_reference(problem: ConsensusProblem, tol: float = 1e-12,
                          max_iter: int = 2_000_000) -> ReferenceSolution:
    """Minimize the composite cost to the given fixed-point residual.

    Stops at the first iterate x = T(y) whose residual is at most ``tol``,
    tested only where the free bound residual(x) <= ||y - x|| is; the
    returned ``residual`` is the exact fixed-point residual of ``x_star``.
    """
    lip = total_curvature_bound(problem)
    if lip <= 0:
        raise ConvergenceError("smooth part has no curvature bound")
    g = problem.regularizer
    x = np.zeros(problem.d)
    y = x.copy()
    t_momentum = 1.0
    for k in range(1, max_iter + 1):
        x_new = prox(g, lip, y - _total_gradient(problem, y) / lip)
        gap = float(np.linalg.norm(y - x_new))  # bounds the residual of x_new
        if float((y - x_new) @ (x_new - x)) > 0.0:
            # momentum points against the step: drop it and restart
            t_momentum = 1.0
            y = x_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            y = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            t_momentum = t_next
        x = x_new
        if gap <= tol:
            residual = fixed_point_residual(problem, x, lip)
            if residual <= tol:
                return ReferenceSolution(
                    x_star=x, cost_star=problem.total_value(x), residual=residual, iterations=k
                )
    raise ConvergenceError(
        f"reference solver did not reach {tol} in {max_iter} iterations",
        residual=fixed_point_residual(problem, x, lip),
    )
