"""Shared synthetic instances and per-agent oracle helpers for the test suite.

Instances are deterministic in their seeds.  The ridge builder fixes every
agent's data spectrum to {0.5, 2, 8}, so the network-wide strong-convexity
and smoothness constants are exactly 0.5 and 8.  ``problem_of`` and
``objectives_of`` convert between a ``ConsensusProblem`` and one
``LocalObjective`` per agent, the per-agent reference the stacked
evaluations are checked against.
"""

import dataclasses

import numpy as np
import pytest

from druid import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    SQUARED_L2,
    ConsensusProblem,
    Regularizer,
    random_connected_graph,
)
from druid.curvature import Hyperparams, block_diag_value
from druid.network import set_state
from druid.problems import LocalObjective


def rules_of(owner):
    """The fields of dataclass ``owner``, or the argument rules of ``ruled`` function ``owner``."""
    return getattr(owner, "rules", None) or dataclasses.fields(owner)


def certified_hp(problem, scheme):
    """Parameters satisfying the linear-rate conditions of the analysis: epsilon
    1.02 times its bound, with c_max = 2 M_f."""
    sm = problem.smoothness
    c_max = 2.0 * sm.M_f
    eps = 1.02 * c_max**2 * (sm.m_f + sm.M_f) / (2.0 * sm.m_f * sm.M_f)
    return Hyperparams(mu_z=2.0, mu_theta=1.0, epsilon=eps, scheme=scheme, psi=sm.M_f)


def practical_hp(scheme, problem, **kw):
    """The run's default parameters (epsilon 0.55 M_f, safely above M_f / 2) and
    psi = M_f; ``kw`` overrides any field."""
    M_f = problem.smoothness.M_f
    args = dict(mu_z=1.0, mu_theta=0.5, epsilon=0.55 * M_f, scheme=scheme, psi=M_f)
    return Hyperparams(**{**args, **kw})


def problem_of(objectives, regularizer=Regularizer()):
    """The problem of one ``LocalObjective`` per agent, in agent order; the
    objectives share one kind."""
    (kind,) = {obj.kind for obj in objectives}
    return ConsensusProblem(kind, np.concatenate([obj.features for obj in objectives]),
                            np.concatenate([obj.targets for obj in objectives]),
                            [len(obj.targets) for obj in objectives], regularizer)


def objectives_of(problem):
    """One ``LocalObjective`` per agent, over the agent's own rows of the
    problem's data."""
    cuts = np.cumsum(problem.counts)[:-1]
    return [LocalObjective(problem.kind, features, targets) for features, targets in
            zip(np.split(problem.features, cuts), np.split(problem.targets, cuts))]


def make_lasso_instance(m=5, d=3, rows=4, gamma=0.1, seed=23, edge_prob=0.7, graph_seed=3):
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(m):
        A = rng.normal(size=(rows, d)) / np.sqrt(rows)
        b = rng.normal(size=rows)
        objectives.append(LocalObjective(LEAST_SQUARES, A, b))
    return graph, problem_of(objectives, Regularizer(L1, gamma))


def make_ridge_instance(m=10, d=3, gamma=0.02, seed=42, edge_prob=0.5, graph_seed=11):
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    eigs = np.array([0.5, 2.0, 8.0])
    objectives = []
    for _ in range(m):
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        A = (Q * np.sqrt(eigs)) @ np.linalg.qr(rng.normal(size=(d, d)))[0].T
        b = rng.normal(size=d)
        objectives.append(LocalObjective(LEAST_SQUARES, A, b))
    return graph, problem_of(objectives, Regularizer(SQUARED_L2, gamma))


def make_logistic_instance(m=5, d=3, rows=12, gamma=0.01, seed=7, edge_prob=0.7, graph_seed=5):
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=d)
    objectives = []
    for _ in range(m):
        W = rng.normal(size=(rows, d))
        y = (W @ truth + 0.3 * rng.normal(size=rows) > 0).astype(float)
        objectives.append(LocalObjective(LOGISTIC, W, y))
    return graph, problem_of(objectives, Regularizer(L1, gamma))


def make_rank_deficient_instance(m=5, d=3, gamma=0.05, seed=19, edge_prob=0.7, graph_seed=3):
    """Two data points per agent, so every local Gram is singular (m_f = 0)."""
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(m):
        A = rng.normal(size=(2, d))
        b = rng.normal(size=2)
        objectives.append(LocalObjective(LEAST_SQUARES, A, b))
    return graph, problem_of(objectives, Regularizer(L1, gamma))


def incidences(graph):
    """Dense (n, m) source and destination incidences read off the edge
    list: row k has a one at edge k's source, resp. destination.  The
    independent reference of ``topology``'s gathers and scatter."""
    A_s, A_d = np.zeros((graph.n, graph.m)), np.zeros((graph.n, graph.m))
    for k, (i, j) in enumerate(graph.edges):
        A_s[k, i] = A_d[k, j] = 1.0
    return A_s, A_d


def signed_incidence(graph):
    """A_s - A_d of ``incidences``: row k is e_src - e_dst."""
    A_s, A_d = incidences(graph)
    return A_s - A_d


def newton_block(obj, x, hp, degree, is_leader):
    """One agent's Newton curvature block computed from its own objective:
    the local Hessian plus the constant shift."""
    block = obj.hessian(x)
    block[np.diag_indices_from(block)] += block_diag_value(hp, degree, is_leader)
    return block


def install_fixed_point(ns, x_star, lam_star):
    """Put a network at the stacked fixed point built from an optimum and
    its multiplier: consensus iterates with their cached local gradients,
    duals balancing those gradients, and theta at the optimum.  The
    curvature model restarts from the kernel's ``init``."""
    problem = ns.problem
    Phi = -np.stack([obj.gradient(x_star) for obj in objectives_of(problem)])
    Phi[ns.hp.leader] -= lam_star
    set_state(ns, X=np.tile(x_star, (problem.m, 1)), Phi=Phi, theta=x_star, lam=lam_star)


@pytest.fixture(scope="session")
def lasso_instance():
    return make_lasso_instance()


@pytest.fixture(scope="session")
def ridge_instance():
    return make_ridge_instance()


@pytest.fixture(scope="session")
def logistic_instance():
    return make_logistic_instance()
