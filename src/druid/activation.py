"""Randomized agent activation for asynchronous execution.

An activation record masks the agents that participate in one iteration;
everyone else keeps their variables, and only the duals of edges with an
active endpoint move.  Sampling is deterministic given
the sampler seed and the iteration index, so traces are reproducible
regardless of how many iterations were drawn before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_rules, rule
from .network import NetworkState, apply_step

BERNOULLI = "bernoulli"
FIXED_COUNT = "fixed_count"
ACTIVATION_MODES = (BERNOULLI, FIXED_COUNT)


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
    uniform k-subset.  A sampler keeps only its mode's parameter,
    ``probabilities`` (one for every agent, or one for all) or ``count``,
    so a caller may pass both.
    """

    mode: str = rule(choices=ACTIVATION_MODES)
    m: int = rule(at_least=1)
    seed: int = rule(at_least=0)
    probabilities: np.ndarray = None
    count: int = rule(None, at_least=1)

    def __post_init__(self):
        check_rules(self)   # the mode's own parameter is checked against m below
        if self.mode == BERNOULLI:
            p = np.asarray(self.probabilities)
            if p.dtype.kind not in "fiu" or p.shape not in ((), (self.m,)) \
                    or not np.all((p > 0.0) & (p <= 1.0)):
                raise ConfigurationError(f"activation probabilities must be one number or {self.m} "
                                         f"numbers in (0, 1], got {self.probabilities!r}")
            self.probabilities, self.count = np.broadcast_to(p, (self.m,)).astype(float), None
        else:
            if self.count is None or self.count > self.m:
                raise ConfigurationError(
                    f"count must be an integer in [1, {self.m}], got {self.count!r}")
            self.probabilities, self.count = None, int(self.count)

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
