"""Experiment configuration, run loop, and trace emission.

A run builds the graph and the stacked consensus problem from a sparse text
dataset, computes the centralized reference, iterates the network for the
configured number of rounds, and writes a CSV trace with header
``t,cost_err,dist_err,r_opt,r_cons,r_reg,comm_scalars``.  Everything is
seeded, so identical configurations produce byte-identical traces.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .activation import ActivationSampler, async_step, sample_activation
from .analysis import kkt_residuals
from .curvature import SCHEMES, Hyperparams
from .datasets import Dataset, binarize_labels, parse_libsvm, partition
from .errors import ConfigurationError, DivergenceError
from .network import NetworkState, init_network, sync_step
from .problems import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    SQUARED_L2,
    ConsensusProblem,
    Regularizer,
)
from .reference import centralized_reference
from .topology import random_connected_graph

#: problem name -> (local objective kind, regularizer kind)
PROBLEMS = {
    "lasso": (LEAST_SQUARES, L1),
    "logistic_l1": (LOGISTIC, L1),
    "ridge": (LEAST_SQUARES, SQUARED_L2),
}
PROBLEM_KINDS = tuple(PROBLEMS)

logger = logging.getLogger("druid")


@dataclass
class ExperimentConfig:
    problem: str
    dataset: str
    gamma: float = 0.0
    agents: int = 10
    edge_prob: float = 0.5
    graph_seed: int = 0
    partition_seed: int = 1
    scheme: str = "gradient"
    mu_z: float = 1.0
    mu_theta: float = 0.5
    epsilon: float = None   # default: 0.55 * measured M_f, safely above M_f / 2
    leader: int = 0
    psi: float = 1.0
    bfgs_bounding: bool = False
    mode: str = "sync"
    activation: str = "bernoulli"
    activation_p: float = 0.5
    activation_count: int = 1
    activation_seed: int = 2
    iterations: int = 1000
    cadence: int = 1
    output: str = "trace.csv"
    ref_tol: float = 1e-12
    ref_max_iter: int = 2_000_000
    cost_iterate: str = "average"   # or "leader": which iterate the cost error reports

    def __post_init__(self):
        # field types, read from the annotations (strings under
        # ``from __future__ import annotations``); bool is no number here
        for f in fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigurationError(f"{f.name} must be true or false, got {value!r}")
            if f.type == "int" and not (number and isinstance(value, numbers.Integral)):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (number or (f.name == "epsilon" and value is None)):
                raise ConfigurationError(f"{f.name} must be a number, got {value!r}")
            if f.name.endswith("_seed") and value < 0:
                raise ConfigurationError(f"{f.name} must be nonnegative, got {value}")
        if self.problem not in PROBLEM_KINDS:
            raise ConfigurationError(f"unknown problem kind {self.problem!r}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.mode not in ("sync", "async"):
            raise ConfigurationError(f"mode must be sync or async, got {self.mode!r}")
        if self.activation not in ("bernoulli", "fixed_count"):
            raise ConfigurationError(f"unknown activation mode {self.activation!r}")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        if self.cadence < 1:
            raise ConfigurationError("cadence must be at least 1")
        if self.cost_iterate not in ("average", "leader"):
            raise ConfigurationError(f"unknown cost iterate {self.cost_iterate!r}")
        # the rules of Hyperparams, Regularizer, random_connected_graph,
        # ActivationSampler, init_network and the reference solver, checked
        # before any data is read
        positive = ["mu_z", "mu_theta", "psi", "ref_tol"]
        if self.epsilon is not None:
            positive.append("epsilon")
        for name in positive:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigurationError(f"gamma must be nonnegative and finite, got {self.gamma}")
        for name in ("edge_prob", "activation_p"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if self.agents < 2:
            raise ConfigurationError(f"agents must be at least 2, got {self.agents}")
        if not (0 <= self.leader < self.agents):
            raise ConfigurationError(f"leader {self.leader} out of range for agents={self.agents}")
        if self.activation == "fixed_count" and not (1 <= self.activation_count <= self.agents):
            raise ConfigurationError(
                f"activation_count must lie in [1, {self.agents}], got {self.activation_count}")
        if self.ref_max_iter < 1:
            raise ConfigurationError(f"ref_max_iter must be at least 1, got {self.ref_max_iter}")

    def hyperparams(self, measured_M_f: float = None) -> Hyperparams:
        epsilon = self.epsilon
        if epsilon is None:
            if measured_M_f is None:
                raise ConfigurationError("epsilon not set and no measured smoothness given")
            epsilon = 0.55 * measured_M_f
        return Hyperparams(
            mu_z=self.mu_z, mu_theta=self.mu_theta, epsilon=epsilon,
            scheme=self.scheme, leader=self.leader, psi=self.psi,
            bfgs_bounding=self.bfgs_bounding,
        )


def load_config(path, overrides: dict = None) -> ExperimentConfig:
    """Read a JSON key-value config file and apply overrides on top."""
    with open(path) as fh:
        data = json.load(fh)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)


def build_problem(cfg: ExperimentConfig, ds: Dataset) -> ConsensusProblem:
    """The problem of a seeded even partition of the dataset: the rows are
    gathered once, in agent order, and become the problem's stacks."""
    parts = partition(ds, cfg.agents, cfg.partition_seed)
    if ds.d < 1:
        raise ConfigurationError("dataset has no features, feature dimension undefined")
    kind, regularizer = PROBLEMS[cfg.problem]
    order = np.concatenate(parts)
    y = ds.labels[order]
    if kind == LOGISTIC:
        y = binarize_labels(y)
    return ConsensusProblem(kind, ds.rows[order], y, [len(rows) for rows in parts],
                            Regularizer(regularizer, cfg.gamma))


@dataclass(frozen=True)
class TraceRecord:
    t: int
    cost_err: float
    dist_err: float
    r_opt: float
    r_cons: float
    r_reg: float
    comm_scalars: int


def _metrics(ns: NetworkState, cfg: ExperimentConfig, ref, cost0: float,
             dist0: float) -> TraceRecord:
    X = ns.X
    point = X[cfg.leader] if cfg.cost_iterate == "leader" else X.mean(axis=0)
    cost = ns.problem.total_value(point)
    dist = float(np.linalg.norm(X - ref.x_star[None, :]))
    r_opt, r_cons, r_reg = kkt_residuals(ns)
    rec = TraceRecord(
        t=ns.t,
        cost_err=(cost - ref.cost_star) / cost0,
        dist_err=dist / dist0,
        r_opt=r_opt, r_cons=r_cons, r_reg=r_reg,
        comm_scalars=ns.comm_scalars,
    )
    for value in (rec.cost_err, rec.dist_err, rec.r_opt, rec.r_cons, rec.r_reg):
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite trace metric at t={ns.t}", ns.t)
    return rec


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute one configured run and write its trace; returns the path."""
    out = Path(cfg.output)
    if not out.parent.is_dir():
        raise ConfigurationError(f"output {cfg.output!r}: directory {str(out.parent)!r} does not exist")
    with open(cfg.dataset) as fh:
        ds = parse_libsvm(fh)
    graph = random_connected_graph(cfg.agents, cfg.edge_prob, cfg.graph_seed)
    problem = build_problem(cfg, ds)
    ref = centralized_reference(problem, tol=cfg.ref_tol, max_iter=cfg.ref_max_iter)
    zero = np.zeros(problem.d)
    cost0 = problem.total_value(zero) - ref.cost_star
    dist0 = float(np.linalg.norm(np.tile(ref.x_star, (cfg.agents, 1))))
    if cost0 <= 0 or dist0 == 0:
        raise ConfigurationError("zero initial suboptimality; nothing to normalize by")
    M_f = problem.smoothness.M_f
    if cfg.epsilon is not None and cfg.epsilon <= M_f / 2:
        logger.warning("epsilon=%r is at or below M_f/2=%r: the rate condition "
                       "epsilon > M_f/2 does not hold", cfg.epsilon, M_f / 2)
    ns = init_network(problem, graph, cfg.hyperparams(M_f))
    sampler = None
    if cfg.mode == "async":
        if cfg.activation == "bernoulli":
            sampler = ActivationSampler.bernoulli(cfg.activation_p, cfg.agents, cfg.activation_seed)
        else:
            sampler = ActivationSampler.fixed_count(cfg.activation_count, cfg.agents, cfg.activation_seed)
    records = [_metrics(ns, cfg, ref, cost0, dist0)]
    try:
        for _ in range(cfg.iterations):
            if sampler is None:
                sync_step(ns)
            else:
                async_step(ns, sample_activation(sampler, ns.t))
            if ns.t % cfg.cadence == 0 or ns.t == cfg.iterations:
                records.append(_metrics(ns, cfg, ref, cost0, dist0))
    except DivergenceError:
        raise
    except Exception as exc:
        raise RuntimeError(
            f"{cfg.problem} run aborted at iteration {ns.t}: {exc}"
        ) from exc
    with open(out, "w") as fh:
        fh.write("t,cost_err,dist_err,r_opt,r_cons,r_reg,comm_scalars\n")
        for rec in records:
            fh.write(
                f"{rec.t},{rec.cost_err!r},{rec.dist_err!r},{rec.r_opt!r},"
                f"{rec.r_cons!r},{rec.r_reg!r},{rec.comm_scalars}\n"
            )
    return out
