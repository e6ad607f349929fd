"""Shared synthetic instances and per-agent oracle helpers for the test suite.

Instances are deterministic in their seeds.  The ridge builder fixes every
agent's data spectrum to {0.5, 2, 8}, so the network-wide strong-convexity
and smoothness constants are exactly 0.5 and 8.
"""

import numpy as np
import pytest

from druid import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    SQUARED_L2,
    ConsensusProblem,
    LocalObjective,
    Regularizer,
    random_connected_graph,
)
from druid.curvature import block_diag_value


def make_lasso_instance(m=5, d=3, rows=4, gamma=0.1, seed=23, edge_prob=0.7, graph_seed=3):
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(m):
        A = rng.normal(size=(rows, d)) / np.sqrt(rows)
        b = rng.normal(size=rows)
        objectives.append(LocalObjective(LEAST_SQUARES, A, b))
    return graph, ConsensusProblem.from_objectives(objectives, Regularizer(L1, gamma))


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
    return graph, ConsensusProblem.from_objectives(objectives, Regularizer(SQUARED_L2, gamma))


def make_logistic_instance(m=5, d=3, rows=12, gamma=0.01, seed=7, edge_prob=0.7, graph_seed=5):
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=d)
    objectives = []
    for _ in range(m):
        W = rng.normal(size=(rows, d))
        y = (W @ truth + 0.3 * rng.normal(size=rows) > 0).astype(float)
        objectives.append(LocalObjective(LOGISTIC, W, y))
    return graph, ConsensusProblem.from_objectives(objectives, Regularizer(L1, gamma))


def make_rank_deficient_instance(m=5, d=3, gamma=0.05, seed=19, edge_prob=0.7, graph_seed=3):
    """Two data points per agent, so every local Gram is singular (m_f = 0)."""
    graph = random_connected_graph(m, edge_prob, graph_seed)
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(m):
        A = rng.normal(size=(2, d))
        b = rng.normal(size=2)
        objectives.append(LocalObjective(LEAST_SQUARES, A, b))
    return graph, ConsensusProblem.from_objectives(objectives, Regularizer(L1, gamma))


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
    grads = np.stack([obj.gradient(x_star) for obj in problem.objectives])
    ns.X = np.tile(x_star, (problem.m, 1))
    ns.Phi = -grads
    ns.Phi[ns.hp.leader] -= lam_star
    ns.theta = x_star.copy()
    ns.lam = lam_star.copy()
    ns.G = grads.copy()
    ns.B = ns.kernel.init(problem, ns.shift)


@pytest.fixture(scope="session")
def lasso_instance():
    return make_lasso_instance()


@pytest.fixture(scope="session")
def ridge_instance():
    return make_ridge_instance()


@pytest.fixture(scope="session")
def logistic_instance():
    return make_logistic_instance()
