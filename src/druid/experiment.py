"""Experiment configuration, run loop, and trace emission.

A run builds the stacked consensus problem from a sparse text dataset,
draws the graph, computes the centralized reference, iterates the network
for the configured number of rounds, and writes a CSV trace whose header is
``COLUMNS``.  Everything is seeded, so identical configurations produce
byte-identical traces.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .activation import (BERNOULLI, FIXED_COUNT, ActivationSampler, async_step,
                         sample_activation)
from .analysis import kkt_residuals
from .curvature import Hyperparams
from .datasets import Dataset, binarize_labels, parse_libsvm, partition
from .errors import ConfigurationError, DivergenceError, check_rules, rule, rule_of
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

logger = logging.getLogger("druid")

#: the trace's columns, in the order of the rows ``_metrics`` returns
COLUMNS = ("t", "cost_err", "dist_err", "r_opt", "r_cons", "r_reg", "comm_scalars")

@dataclass
class ExperimentConfig:
    """A run's settings.  A field that feeds a library field or function
    argument takes its rule with ``rule_of``, and its default too unless the
    run's differs."""

    problem: str = rule(choices=PROBLEMS)
    dataset: str = rule()
    gamma: float = rule_of(Regularizer, "gamma")
    agents: int = rule_of(random_connected_graph, "m", 10)
    edge_prob: float = rule_of(random_connected_graph, "p", 0.5)
    graph_seed: int = rule_of(random_connected_graph, "seed", 0)
    partition_seed: int = rule_of(partition, "seed", 1)
    scheme: str = rule_of(Hyperparams, "scheme")
    mu_z: float = rule_of(Hyperparams, "mu_z", 1.0)
    mu_theta: float = rule_of(Hyperparams, "mu_theta", 0.5)
    # None: 0.55 * measured M_f, safely above M_f / 2
    epsilon: float = rule_of(Hyperparams, "epsilon", None)
    leader: int = rule_of(Hyperparams, "leader")
    psi: float = rule_of(Hyperparams, "psi")
    bfgs_bounding: bool = rule_of(Hyperparams, "bfgs_bounding")
    mode: str = rule("sync", choices=("sync", "async"))
    activation: str = rule_of(ActivationSampler, "mode", BERNOULLI)
    activation_p: float = rule_of(ActivationSampler, "p", 0.5)
    activation_count: int = rule_of(ActivationSampler, "count", 1)
    activation_seed: int = rule_of(ActivationSampler, "seed", 2)
    iterations: int = rule(1000, at_least=1)
    cadence: int = rule(1, at_least=1)
    output: str = rule("trace.csv")
    ref_tol: float = rule_of(centralized_reference, "tol")
    ref_max_iter: int = rule_of(centralized_reference, "max_iter")

    def __post_init__(self):
        # the rules of Hyperparams, Regularizer, ActivationSampler, random_connected_graph,
        # partition and centralized_reference, checked before any data is read
        check_rules(self)
        if self.leader >= self.agents:
            raise ConfigurationError(f"leader {self.leader} out of range for agents={self.agents}")
        if self.activation == FIXED_COUNT and self.activation_count > self.agents:
            raise ConfigurationError(
                f"activation_count must lie in [1, {self.agents}], got {self.activation_count}")

    def hyperparams(self, measured_M_f: float) -> Hyperparams:
        """The run's hyperparameters, read off the config's fields of their names;
        an unset epsilon is 0.55 * ``measured_M_f``."""
        given = {f.name: getattr(self, f.name) for f in fields(Hyperparams)}
        if self.epsilon is None:
            given["epsilon"] = 0.55 * measured_M_f
        return Hyperparams(**given)


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config of a key-value mapping: every key must name a field, and
    the fields without a default (``problem``, ``dataset``) must be set."""
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields(ExperimentConfig)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigurationError(f"missing required config keys: {missing}")
    return ExperimentConfig(**data)


def _unreadable(what: str, path, exc: OSError | UnicodeDecodeError) -> ConfigurationError:
    """The error for a ``what`` file at ``path`` that cannot be opened (it is
    missing or a directory, say) or does not decode as UTF-8."""
    reason = f"cannot be read: {exc.strerror}" if isinstance(exc, OSError) else \
        f"is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
    return ConfigurationError(f"{what} file {str(path)!r} {reason}")


def load_config(path, overrides: dict = None) -> ExperimentConfig:
    """Read a JSON object config file and apply overrides on top."""
    def unique_keys(pairs):
        repeated = [key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i])]
        if repeated:
            raise ConfigurationError(f"config file {str(path)!r} repeats the key {repeated[0]!r}")
        return dict(pairs)

    if "\0" in str(path):
        raise ConfigurationError(f"config file {str(path)!r} cannot be read: its path holds a NUL byte")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {str(path)!r} does not parse: {exc.msg} "
                                 f"at line {exc.lineno}, column {exc.colno}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("config", path, exc) from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"config file {str(path)!r} must hold a JSON object, got {type(data).__name__}")
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return config_from_dict(data)


def output_path(output: str) -> Path:
    """``output`` as the path of a file to write, or a ``ConfigurationError``
    naming ``--output`` and the path if it holds a NUL byte, its directory
    does not exist or it is a directory.  Checked before any work is done."""
    if "\0" in output:
        raise ConfigurationError(f"--output {output!r} holds a NUL byte")
    out = Path(output)
    if not out.parent.is_dir():
        raise ConfigurationError(f"--output {output!r}: directory {str(out.parent)!r} does not exist")
    if out.is_dir():
        raise ConfigurationError(f"--output {output!r} is a directory, not a file")
    return out


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


def _metrics(ns: NetworkState, ref, cost0: float, dist0: float) -> tuple:
    """The trace row of the network's current state, in ``COLUMNS`` order;
    the cost error is taken at the agents' average."""
    X = ns.X
    cost = ns.problem.total_value(X.mean(axis=0))
    dist = float(np.linalg.norm(X - ref.x_star[None, :]))
    row = (ns.t, (cost - ref.cost_star) / cost0, dist / dist0, *kkt_residuals(ns),
           ns.comm_scalars)
    if not all(map(math.isfinite, row[1:-1])):
        name = next(name for name, value in zip(COLUMNS, row) if not math.isfinite(value))
        raise DivergenceError(f"non-finite trace metric {name} at t={ns.t}", ns.t)
    return row


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Execute one configured run and write its trace; returns the path."""
    out = output_path(cfg.output)
    try:
        with open(cfg.dataset, encoding="utf-8") as fh:
            ds = parse_libsvm(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable("dataset", cfg.dataset, exc) from None
    problem = build_problem(cfg, ds)   # first: it checks that the rows cover the agents
    graph = random_connected_graph(cfg.agents, cfg.edge_prob, cfg.graph_seed)
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
    sampler = None if cfg.mode == "sync" else ActivationSampler(
        cfg.activation, cfg.agents, cfg.activation_seed, cfg.activation_p, cfg.activation_count)
    records = [_metrics(ns, ref, cost0, dist0)]
    try:
        # an overflow, a division by zero or an invalid operation only yields a
        # value that the step's and the metrics' finiteness checks turn into a
        # DivergenceError, so numpy's warnings, which a filter may make errors, stay off
        with np.errstate(all="ignore"):
            for _ in range(cfg.iterations):
                if sampler is None:
                    sync_step(ns)
                else:
                    async_step(ns, sample_activation(sampler, ns.t))
                if ns.t % cfg.cadence == 0 or ns.t == cfg.iterations:
                    records.append(_metrics(ns, ref, cost0, dist0))
    except DivergenceError:
        raise
    except Exception as exc:
        raise RuntimeError(
            f"{cfg.problem} run aborted at iteration {ns.t}: {exc}"
        ) from exc
    with open(out, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in records)
    return out
