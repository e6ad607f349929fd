"""Independent reference for the benchmark's correctness check.

A stacked-array re-implementation of what one ``druid run`` computes for a
workload: the seeded partition, graph and activation draws, the
centralized optimum, and the reduced primal-dual iteration for the
gradient, Newton and BFGS schemes.  It imports nothing from ``druid``, so
a change to the library that alters the computed trajectory shows up as a
mismatch in the final ``dist_err`` and ``r_opt``.  It follows the
algorithm, not the library's arithmetic order, so the comparison uses a
tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.sparse.csgraph import connected_components

# ExperimentConfig defaults, which every workload keeps; epsilon is derived
# the same way, as 0.55 times the largest local smoothness constant.
MU_Z = 1.0
MU_THETA = 0.5
LEADER = 0
BFGS_SKIP_TOL = 1e-12


def _partition(n: int, m: int, seed: int):
    order = np.random.default_rng(seed).permutation(n)
    sizes = [n // m + (1 if i < n % m else 0) for i in range(m)]
    bounds = np.cumsum([0] + sizes)
    return [np.sort(order[bounds[i]:bounds[i + 1]]) for i in range(m)]


def _graph(m: int, p: float, seed: int):
    pairs = np.array(list(itertools.combinations(range(m), 2)))
    rng = np.random.default_rng(seed)
    while True:
        edges = pairs[rng.random(len(pairs)) < p]
        adj = np.zeros((m, m))
        adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1.0
        if connected_components(adj, directed=False)[0] == 1:
            return edges, adj


def _active(mode: str, m: int, seed: int, t: int, p: float, k: int) -> np.ndarray:
    mask = np.zeros(m, dtype=bool)
    if mode == "sync":
        mask[:] = True
        return mask
    rng = np.random.default_rng((seed, t))
    if p is not None:
        mask[rng.random(m) < p] = True
    else:
        mask[rng.choice(m, size=k, replace=False)] = True
    return mask


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


class _Objectives:
    """Per-agent smooth losses: least squares or logistic with {0,1} labels."""

    def __init__(self, logistic: bool, parts):
        self.logistic = logistic
        self.parts = parts   # list of (features, targets)

    def gradient(self, i: int, x):
        A, b = self.parts[i]
        if self.logistic:
            return A.T @ (_sigmoid(A @ x) - b)
        return A.T @ (A @ x - b)

    def hessian(self, i: int, x):
        A, _ = self.parts[i]
        if self.logistic:
            s = _sigmoid(A @ x)
            return A.T @ (A * (s * (1.0 - s))[:, None])
        return A.T @ A

    def smoothness(self, i: int) -> float:
        A, _ = self.parts[i]
        top = np.linalg.eigvalsh(A.T @ A)[-1]
        return 0.25 * top if self.logistic else top


def _prox(problem: str, gamma: float, mu: float, v):
    if problem == "ridge":
        return v * (mu / (mu + 2.0 * gamma))
    return np.sign(v) * np.maximum(np.abs(v) - gamma / mu, 0.0)


def _optimum(problem: str, gamma: float, A, b, tol: float = 1e-12):
    """Centralized minimizer: closed form for ridge, FISTA with restarts else."""
    if problem == "ridge":
        return np.linalg.solve(A.T @ A + 2.0 * gamma * np.eye(A.shape[1]), A.T @ b)
    logistic = problem == "logistic_l1"
    lip = np.linalg.eigvalsh(A.T @ A)[-1] * (0.25 if logistic else 1.0)

    def grad(x):
        r = _sigmoid(A @ x) - b if logistic else A @ x - b
        return A.T @ r

    x = y = np.zeros(A.shape[1])
    t = 1.0
    for _ in range(1_000_000):
        x_new = _prox(problem, gamma, lip, y - grad(y) / lip)
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t, y = 1.0, x_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x = x_new
        if np.linalg.norm(x - _prox(problem, gamma, lip, x - grad(x) / lip)) <= tol:
            return x
    raise RuntimeError("oracle optimum did not converge")


def final_metrics(workload, seed: int, features, labels) -> dict:
    """Final ``dist_err`` and ``r_opt`` of the workload's run for this seed."""
    w = workload
    cfg = w.config(seed, dataset="", output="")
    m, d = w.agents, w.d
    logistic = w.problem == "logistic_l1"
    targets = (labels > 0.5 * (labels.min() + labels.max())).astype(float) if logistic else labels
    parts = [(features[rows], targets[rows])
             for rows in _partition(len(labels), m, cfg["partition_seed"])]
    obj = _Objectives(logistic, parts)
    stacked = np.vstack([A for A, _ in parts]), np.concatenate([b for _, b in parts])
    x_star = _optimum(w.problem, w.gamma, *stacked)
    edges, adj = _graph(m, w.edge_prob, cfg["graph_seed"])
    deg = adj.sum(axis=1)
    epsilon = 0.55 * max(obj.smoothness(i) for i in range(m))
    shift = MU_Z * deg + epsilon
    shift[LEADER] += MU_THETA

    X = np.zeros((m, d))
    Phi = np.zeros((m, d))
    theta = np.zeros(d)
    lam = np.zeros(d)
    if w.scheme == "bfgs":
        B = np.stack([np.eye(d) / s for s in shift])
        X_prev = np.zeros((m, d))
        G_prev = np.stack([obj.gradient(i, np.zeros(d)) for i in range(m)])
    p = w.activation_p if w.activation == "bernoulli" else None
    for t in range(w.iterations):
        act = _active(w.mode, m, cfg["activation_seed"], t, p, w.activation_count)
        lap = deg[:, None] * X - adj @ X
        X_new = X.copy()
        for i in np.flatnonzero(act):
            grad = G_prev[i] if w.scheme == "bfgs" else obj.gradient(i, X[i])
            h = grad + Phi[i] + 0.5 * MU_Z * lap[i]
            if i == LEADER:
                h += MU_THETA * (X[i] - theta) + lam
            if w.scheme == "gradient":
                step = h / shift[i]
            elif w.scheme == "newton":
                step = np.linalg.solve(obj.hessian(i, X[i]) + shift[i] * np.eye(d), h)
            else:
                step = B[i] @ h
            X_new[i] = X[i] - step
        X = X_new
        moving = act[edges[:, 0]] | act[edges[:, 1]]
        src, dst = edges[moving, 0], edges[moving, 1]
        delta = 0.5 * MU_Z * (X[src] - X[dst])
        np.add.at(Phi, src, delta)
        np.subtract.at(Phi, dst, delta)
        if act[LEADER]:
            theta = _prox(w.problem, w.gamma, MU_THETA, X[LEADER] + lam / MU_THETA)
            lam = lam + MU_THETA * (X[LEADER] - theta)
        if w.scheme == "bfgs":
            for i in np.flatnonzero(act):
                g_new = obj.gradient(i, X[i])
                s = X[i] - X_prev[i]
                q = g_new - G_prev[i] + shift[i] * s
                qs = float(q @ s)
                if qs > BFGS_SKIP_TOL * np.linalg.norm(q) * np.linalg.norm(s) and np.any(s):
                    rho = 1.0 / qs
                    Bq = B[i] @ q
                    upd = (B[i] - rho * (np.outer(s, Bq) + np.outer(Bq, s))
                           + (rho * rho * float(q @ Bq) + rho) * np.outer(s, s))
                    B[i] = 0.5 * (upd + upd.T)
                X_prev[i] = X[i]
                G_prev[i] = g_new

    stat = np.stack([obj.gradient(i, X[i]) for i in range(m)]) + Phi
    stat[LEADER] += lam
    return {
        "dist_err": float(np.linalg.norm(X - x_star) / (np.sqrt(m) * np.linalg.norm(x_star))),
        "r_opt": float(np.linalg.norm(stat)),
    }
