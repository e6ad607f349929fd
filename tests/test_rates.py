import dataclasses

import numpy as np
import pytest

from conftest import certified_hp, make_rank_deficient_instance, make_ridge_instance
from druid import curvature as cv
from druid.curvature import BFGS, GRADIENT, NEWTON, Hyperparams
from druid.errors import InapplicableTheoremError
from druid.network import init_network, sync_step
from druid.problems import SmoothnessConstants
from druid.rates import THEORY, linear_rate, rate_constants
from druid.topology import spectral_constants


def test_theory_table_covers_every_scheme():
    assert tuple(THEORY) == cv.SCHEMES


def test_m_bar_newton_exceeds_gradient_by_M_f():
    graph, problem = make_ridge_instance()
    sm = problem.smoothness
    hp_g = certified_hp(problem, GRADIENT)
    hp_n = certified_hp(problem, NEWTON)
    m_g = rate_constants(problem, graph, hp_g).M_bar
    m_n = rate_constants(problem, graph, hp_n).M_bar
    assert m_n - m_g == pytest.approx(sm.M_f)
    shift_max = hp_g.mu_z * int(graph.degrees.max()) + hp_g.epsilon + hp_g.mu_theta
    assert m_g == THEORY[GRADIENT].m_bar(hp_g, sm, shift_max) == shift_max


def test_m_bar_bfgs_is_psi():
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.0, scheme=BFGS, psi=7.5)
    sm = SmoothnessConstants(m_f=1.0, M_f=99.0, L_f=1.0)
    assert THEORY[BFGS].m_bar(hp, sm, 6.5) == 7.5


def test_tau_bounds_per_scheme():
    hp = lambda s: Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.0, scheme=s, psi=3.0)
    sm = lambda L_f: SmoothnessConstants(m_f=1.0, M_f=2.0, L_f=L_f)
    assert THEORY[GRADIENT].tau(hp(GRADIENT), sm(1.0)) == 2.0
    assert THEORY[NEWTON].tau(hp(NEWTON), sm(1.0)) == 4.0
    assert THEORY[NEWTON].tau(hp(NEWTON), sm(0.0)) == 0.0  # constant Hessians
    assert THEORY[BFGS].tau(hp(BFGS), sm(1.0)) == 6.0


def test_fourth_scheme_needs_a_theory_entry(monkeypatch):
    """A scheme added to the kernel table runs; its rate constants come
    from its own theory entry, and without one rate_constants raises
    instead of borrowing another scheme's constants."""
    name = "gradient_copy"
    monkeypatch.setitem(cv.KERNELS, name, dataclasses.replace(cv.KERNELS[GRADIENT]))
    monkeypatch.setattr(cv, "SCHEMES", cv.SCHEMES + (name,))
    graph, problem = make_ridge_instance()
    hp = dataclasses.replace(certified_hp(problem, GRADIENT), scheme=name)
    ns = init_network(problem, graph, hp)
    for _ in range(3):
        sync_step(ns)
    assert np.isfinite(ns.X).all()
    with pytest.raises(InapplicableTheoremError, match=name):
        rate_constants(problem, graph, hp)
    monkeypatch.setitem(THEORY, name, THEORY[GRADIENT])
    got = rate_constants(problem, graph, hp)
    want = rate_constants(problem, graph, certified_hp(problem, GRADIENT))
    assert got == want


def test_exact_rate_recovered_in_degenerate_limit():
    graph, problem = make_ridge_instance()
    sm = problem.smoothness
    spectra = spectral_constants(graph, 0)
    exact = linear_rate(sm.m_f, sm.M_f, 1.0, 0.0, 0.0, np.inf, spectra)
    harmonic = 2.0 * sm.m_f * sm.M_f / (sm.m_f + sm.M_f)
    expected = min(
        harmonic / (spectra.sigma_max_Lu + 2.0),
        0.5,
        0.4 * spectra.sigma_min_plus_CCt / (sm.m_f + sm.M_f),
        spectra.sigma_min_plus_CCt / (5.0 * max(1.0, spectra.sigma_max_Lu)),
    )
    assert exact == pytest.approx(expected)


def test_rate_constants_report_conditions():
    graph, problem = make_ridge_instance()
    for scheme in (GRADIENT, NEWTON, BFGS):
        rc = rate_constants(problem, graph, certified_hp(problem, scheme))
        assert rc.eta > 0
        assert 0 < rc.eta <= rc.eta_exact
        assert rc.cond_epsilon_sublinear and rc.cond_epsilon_linear and rc.cond_mu_ratio
        if scheme == BFGS:
            assert rc.cond_muz_eps_psi is not None
        else:
            assert rc.cond_muz_eps_psi is None


def test_rate_constants_zeta_midpoint_is_admissible():
    graph, problem = make_ridge_instance()
    hp = certified_hp(problem, GRADIENT)
    rc = rate_constants(problem, graph, hp)
    sm = problem.smoothness
    zeta_lo = (sm.m_f + sm.M_f) / (2.0 * sm.m_f * sm.M_f)
    assert zeta_lo < rc.zeta < hp.epsilon / rc.tau_bound**2


def test_rate_constants_need_strong_convexity():
    graph, problem = make_rank_deficient_instance()
    hp = Hyperparams(mu_z=2.0, mu_theta=1.0, epsilon=5.0, scheme=GRADIENT)
    with pytest.raises(InapplicableTheoremError):
        rate_constants(problem, graph, hp)


def test_rho_exceeds_its_constraint():
    graph, problem = make_ridge_instance()
    hp = certified_hp(problem, GRADIENT)
    rc = rate_constants(problem, graph, hp)
    bound = max(2.0 * hp.epsilon * hp.mu_theta / rc.M_bar**2, rc.spectra.sigma_max_Ls) + 1.0
    assert rc.rho > bound
