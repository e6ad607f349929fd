"""Theoretical convergence-rate constants and their parameter conditions.

Evaluates, for a concrete problem/graph/hyperparameter triple: the uniform
curvature-block bound of each scheme, the free constant of the sublinear
running-average bound, and the linear contraction rate (both the
inexact-update rate and its exact-minimization limit), from the problem's
smoothness constants and the graph's ``topology.spectral_constants``.
``THEORY`` is the one place that maps a scheme to its worst-case
constants, keyed like ``curvature.KERNELS``; the run path never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import curvature as cv
from .curvature import Hyperparams
from .errors import InapplicableTheoremError
from .problems import ConsensusProblem
from .topology import Graph, SpectralConstants, spectral_constants


@dataclass(frozen=True)
class RateConstants:
    M_bar: float
    rho: float
    tau_bound: float
    c_max: float
    zeta: float
    eta: float
    eta_exact: float
    spectra: SpectralConstants
    cond_epsilon_sublinear: bool   # epsilon > M_f / 2
    cond_epsilon_linear: bool      # epsilon > c_max^2 (m_f + M_f) / (2 m_f M_f)
    cond_mu_ratio: bool            # mu_z = 2 mu_theta
    cond_muz_eps_psi: bool = None  # mu_z epsilon < psi^2, where THEORY applies it (BFGS)


@dataclass(frozen=True)
class SchemeTheory:
    """Worst-case constants of one scheme, from the hyperparameters ``hp``
    and the network-wide ``SmoothnessConstants`` ``sm``."""

    m_bar: Callable              # (hp, sm, largest block shift) -> bound on the blocks
    tau: Callable                # (hp, sm) -> per-step inexactness coefficient
    c_max: Callable              # (hp, sm) -> constant of the linear-rate epsilon condition
    psi_condition: bool = False  # whether mu_z epsilon < psi^2 applies


THEORY = {
    cv.GRADIENT: SchemeTheory(
        m_bar=lambda hp, sm, shift: shift,
        tau=lambda hp, sm: sm.M_f,
        c_max=lambda hp, sm: 2.0 * sm.M_f,
    ),
    # no inexactness when the local Hessians are constant (L_f = 0)
    cv.NEWTON: SchemeTheory(
        m_bar=lambda hp, sm, shift: sm.M_f + shift,
        tau=lambda hp, sm: 0.0 if sm.L_f == 0.0 else 2.0 * sm.M_f,
        c_max=lambda hp, sm: 2.0 * sm.M_f,
    ),
    cv.BFGS: SchemeTheory(
        m_bar=lambda hp, sm, shift: hp.psi,
        tau=lambda hp, sm: 2.0 * hp.psi,
        c_max=lambda hp, sm: 2.0 * max(sm.M_f, hp.psi),
        psi_condition=True,
    ),
}


def linear_rate(m_f: float, M_f: float, mu_theta: float, epsilon: float,
                tau: float, zeta: float, spectra: SpectralConstants) -> float:
    """Contraction margin eta of the strongly convex regime.

    Terms that degenerate (zeta infinite with tau = 0, or a zero/zero
    fourth term) drop out of the minimum, which recovers the
    exact-minimization rate as tau and epsilon vanish.
    """
    harmonic = 2.0 * m_f * M_f / (m_f + M_f)
    sp = spectra.sigma_min_plus_CCt
    lu = spectra.sigma_max_Lu
    inv_zeta = 0.0 if np.isinf(zeta) else 1.0 / zeta
    terms = [
        (harmonic - inv_zeta) / (epsilon + mu_theta * (lu + 2.0)),
        0.5,
        0.4 * mu_theta * sp / (m_f + M_f),
        sp / (5.0 * max(1.0, lu)),
    ]
    zeta_tau2 = 0.0 if tau == 0.0 else zeta * tau**2
    denom = 5.0 * (tau**2 + epsilon**2)
    if denom > 0.0:
        terms.append(mu_theta * sp * (epsilon - zeta_tau2) / denom)
    return float(min(terms))


def rate_constants(problem: ConsensusProblem, graph: Graph, hp: Hyperparams) -> RateConstants:
    """Rate constants and parameter-condition report for one configuration.

    ``zeta`` is the midpoint of its admissible interval
    ((m_f + M_f) / (2 m_f M_f), epsilon / tau^2), infinite when tau = 0.
    Raises when the objectives are not strongly convex or the scheme has
    no ``THEORY`` entry.
    """
    sm = problem.smoothness
    if sm.m_f <= 0.0:
        raise InapplicableTheoremError(
            "linear-rate constants need strongly convex local objectives (m_f > 0)"
        )
    if hp.scheme not in THEORY:
        raise InapplicableTheoremError(f"no rate theory for scheme {hp.scheme!r}")
    theory = THEORY[hp.scheme]
    spectra = spectral_constants(graph, hp.leader)
    M_bar = theory.m_bar(hp, sm, hp.mu_z * spectra.d_max + hp.epsilon + hp.mu_theta)
    rho = max(2.0 * hp.epsilon * hp.mu_theta / M_bar**2, spectra.sigma_max_Ls) + 2.0
    tau = theory.tau(hp, sm)
    zeta_lo = (sm.m_f + sm.M_f) / (2.0 * sm.m_f * sm.M_f)
    zeta = 0.5 * (zeta_lo + hp.epsilon / tau**2) if tau > 0.0 else np.inf
    c_max = theory.c_max(hp, sm)
    eta = linear_rate(sm.m_f, sm.M_f, hp.mu_theta, hp.epsilon, tau, zeta, spectra)
    eta_exact = linear_rate(sm.m_f, sm.M_f, hp.mu_theta, 0.0, 0.0, np.inf, spectra)
    return RateConstants(
        M_bar=M_bar, rho=rho, tau_bound=tau, c_max=c_max, zeta=zeta,
        eta=eta, eta_exact=eta_exact, spectra=spectra,
        cond_epsilon_sublinear=bool(hp.epsilon > sm.M_f / 2.0),
        cond_epsilon_linear=bool(
            hp.epsilon > c_max**2 * (sm.m_f + sm.M_f) / (2.0 * sm.m_f * sm.M_f)
        ),
        cond_mu_ratio=bool(hp.mu_z == 2.0 * hp.mu_theta),
        cond_muz_eps_psi=(
            bool(hp.mu_z * hp.epsilon < hp.psi**2) if theory.psi_condition else None
        ),
    )
