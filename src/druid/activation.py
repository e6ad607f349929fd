"""Randomized agent activation for asynchronous execution.

An activation record masks the agents that participate in one iteration;
everyone else keeps their variables, and only the duals of edges with an
active endpoint move.  Sampling is deterministic given
the sampler seed and the iteration index, so traces are reproducible
regardless of how many iterations were drawn before.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .network import NetworkState, apply_step

BERNOULLI = "bernoulli"
FIXED_COUNT = "fixed_count"


@dataclass(frozen=True, eq=False)  # eq would compare the mask arrays by truth value
class ActivationRecord:
    t: int
    mask: np.ndarray  # (m,) bool, True for the agents that participate

    @property
    def active(self) -> tuple:
        """The active agents' indices, increasing."""
        return tuple(int(i) for i in np.flatnonzero(self.mask))


@dataclass
class ActivationSampler:
    """Per-iteration activation draw.

    Bernoulli mode includes each agent i independently with probability
    p_i (possibly empty, a no-op iteration); fixed-count mode draws a
    uniform k-subset.
    """

    mode: str
    m: int
    seed: int
    probabilities: np.ndarray = None
    count: int = None

    def __post_init__(self):
        if self.mode == BERNOULLI:
            p = np.broadcast_to(np.asarray(self.probabilities, dtype=float), (self.m,)).copy()
            if not np.all((p > 0.0) & (p <= 1.0)):
                raise ValueError(f"activation probabilities must lie in (0, 1], got {p}")
            self.probabilities = p
        elif self.mode == FIXED_COUNT:
            if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral) \
                    or not 1 <= self.count <= self.m:
                raise ValueError(f"count must be an integer in [1, {self.m}], got {self.count!r}")
            self.count = int(self.count)
        else:
            raise ValueError(f"unknown activation mode {self.mode!r}")

    @classmethod
    def bernoulli(cls, p, m: int, seed: int) -> "ActivationSampler":
        return cls(mode=BERNOULLI, m=m, seed=seed, probabilities=p)

    @classmethod
    def fixed_count(cls, k: int, m: int, seed: int) -> "ActivationSampler":
        return cls(mode=FIXED_COUNT, m=m, seed=seed, count=k)


def sample_activation(sampler: ActivationSampler, t: int) -> ActivationRecord:
    """Draw the active set for iteration t; deterministic in (seed, t)."""
    rng = np.random.default_rng((sampler.seed, t))
    if sampler.mode == BERNOULLI:
        return ActivationRecord(t=t, mask=rng.random(sampler.m) < sampler.probabilities)
    mask = np.zeros(sampler.m, dtype=bool)
    mask[rng.choice(sampler.m, size=sampler.count, replace=False)] = True
    return ActivationRecord(t=t, mask=mask)


def async_step(ns: NetworkState, record: ActivationRecord) -> NetworkState:
    """One asynchronous iteration: only the recorded agents update.

    Theta and lambda move only when the leader is active; an empty record
    only advances the iteration counter.  Full activation reproduces the
    synchronous step exactly.
    """
    return apply_step(ns, record.mask)
