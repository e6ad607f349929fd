"""Benchmark workloads: seeded synthetic datasets and the run configuration.

Each workload is one ``druid run``: a sparse text dataset generated from
the benchmark seed, plus the keyword arguments of ``ExperimentConfig``.
The partition and activation seeds are derived from the same seed, so one
seed fixes every input.  The graph is part of the workload's shape: its
seed is fixed, so the edge count, which sets the per-step communication
cost, does not change from seed to seed.  Feature values are rounded to
six decimals so the text is realistic in size and parses back to exactly
the arrays the independent oracle uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    scheme: str
    agents: int
    d: int
    rows_per_agent: int
    edge_prob: float
    gamma: float
    iterations: int
    cadence: int
    mode: str = "sync"
    activation: str = "bernoulli"
    activation_p: float = 0.5
    activation_count: int = 1
    density: float = 1.0          # share of nonzero features per row
    graph_seed: int = 0

    def config(self, seed: int, dataset: str, output: str) -> dict:
        """Keyword arguments of ``druid.experiment.ExperimentConfig``."""
        return dict(
            problem=self.problem, dataset=dataset, gamma=self.gamma,
            agents=self.agents, edge_prob=self.edge_prob,
            graph_seed=self.graph_seed, partition_seed=seed + 1, activation_seed=seed + 2,
            scheme=self.scheme, mode=self.mode, activation=self.activation,
            activation_p=self.activation_p, activation_count=self.activation_count,
            iterations=self.iterations, cadence=self.cadence, output=output,
        )

    def generate(self, seed: int):
        """Features (rows, d) and labels for this seed.  Sparse rows keep at
        least one feature and one row keeps all, so the parsed dimension is ``d``."""
        rng = np.random.default_rng([seed, 0xDA7A])
        n = self.agents * self.rows_per_agent
        features = rng.standard_normal((n, self.d))
        if self.density < 1.0:
            mask = rng.random((n, self.d)) < self.density
            mask[np.arange(n), rng.integers(0, self.d, n)] = True
            mask[rng.integers(0, n), :] = True
            features *= mask
        features = np.round(features, 6)
        truth = np.zeros(self.d)
        support = rng.choice(self.d, size=max(1, self.d // 5), replace=False)
        truth[support] = rng.standard_normal(len(support))
        signal = features @ truth + 0.5 * rng.standard_normal(n)
        if self.problem == "logistic_l1":
            labels = np.where(signal > 0, 1.0, -1.0)
        else:
            labels = np.round(signal, 6)
        return features, labels


def write_dataset(path, features: np.ndarray, labels: np.ndarray) -> None:
    """Sparse text rows ``<label> <idx>:<val> ...`` with 1-based indices."""
    with open(path, "w") as fh:
        for label, row in zip(labels.tolist(), features):
            idx = np.flatnonzero(row)
            vals = row[idx].tolist()
            fh.write(repr(label) + " " + " ".join(
                f"{i + 1}:{v!r}" for i, v in zip(idx.tolist(), vals)) + "\n")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="newton-lasso-sync", problem="lasso", scheme="newton",
            agents=100, d=50, rows_per_agent=60, edge_prob=0.2, gamma=50.0,
            iterations=100, cadence=10,
        ),
        Workload(
            name="gradient-ridge-async", problem="ridge", scheme="gradient",
            agents=10, d=3, rows_per_agent=10, edge_prob=0.5, gamma=0.05,
            iterations=300, cadence=1, mode="async", activation="bernoulli",
            activation_p=0.5,
        ),
        Workload(
            name="bfgs-logistic-sparse", problem="logistic_l1", scheme="bfgs",
            agents=40, d=40, rows_per_agent=50, edge_prob=0.2, gamma=5.0,
            iterations=1000, cadence=20, mode="async", activation="fixed_count",
            activation_count=8, density=0.25,
        ),
    )
}
