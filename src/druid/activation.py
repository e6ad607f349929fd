"""Randomized agent activation for asynchronous execution.

An activation record masks the agents that participate in one iteration;
everyone else keeps their variables, and only the duals of edges with an
active endpoint move.  Sampling is deterministic given the sampler seed and
the iteration index, so traces are reproducible regardless of how many
iterations were drawn before: the draw for iteration t is the one a fresh
``np.random.default_rng((seed, t))`` makes, for every (seed, t).

A sampler keeps one PCG64 generator for its whole run and re-seeds it before
each draw with the state ``default_rng((seed, t))`` starts from.  Those
states are derived for a chunk of consecutive t at once: one vectorized pass
of numpy's ``SeedSequence`` algorithm gives each t's four 64-bit seed words,
and PCG64's seeding turns them into its 128-bit state with Python integers,
so no generator is built per draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, check_rules, rule
from .network import NetworkState, apply_step

BERNOULLI = "bernoulli"
FIXED_COUNT = "fixed_count"
ACTIVATION_MODES = (BERNOULLI, FIXED_COUNT)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# 128-bit PCG64 multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: iterations whose generator states are derived at once; a power of two, so
#: every t of a chunk has as many 32-bit words as the chunk's first
STATE_CHUNK = 1024


def _words(n: int) -> list:
    """The 32-bit words of a non-negative int, low word first, as numpy's
    entropy coercion splits it (0 is one word)."""
    words = [n & _MASK32]
    while (n := n >> 32) > 0:
        words.append(n & _MASK32)
    return words


def _hashmix(const: int, mult: int):
    """numpy's ``hashmix`` over uint32 arrays; every call advances the
    running hash constant, as the scalar algorithm does for every word."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """numpy's ``mix`` of two uint32 arrays."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


@lru_cache(maxsize=2)   # one chunk per sampler in use; two samplers may interleave
def _chunk_states(seed: int, first: int) -> tuple:
    """The PCG64 ``(state, inc)`` of ``default_rng((seed, t))``, as Python
    integers, for each of the ``STATE_CHUNK`` iterations t from ``first`` on,
    in order; a tuple, since the cache hands it to every caller."""
    n, t_words = STATE_CHUNK, _words(first)
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed) + t_words]
    entropy[len(entropy) - len(t_words)] += np.arange(n, dtype=np.uint32)   # t's low word
    # SeedSequence.mix_entropy of the words of (seed, t) into the 4-word pool
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words from the cycled pool, paired little-endian
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    words = [(out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist() for j in range(4)]
    # PCG64 seeding, initstate = v0:v1 and initseq = v2:v3 (high half first):
    # inc = 2 initseq + 1, state = (initstate + inc) MULT + inc, mod 2^128
    states = []
    for v0, v1, v2, v3 in zip(*words):
        inc = (v2 << 65 | v3 << 1 | 1) & _MASK128
        states.append(((((v0 << 64 | v1) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return tuple(states)


def pcg64_state(seed: int, t: int) -> dict:
    """``np.random.default_rng((seed, t)).bit_generator.state``, for
    non-negative integers ``seed`` and ``t``, read from the chunk of t."""
    k = t % STATE_CHUNK
    state, inc = _chunk_states(int(seed), int(t - k))[k]
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@dataclass(frozen=True, eq=False)  # eq would compare the mask arrays by truth value
class ActivationRecord:
    mask: np.ndarray  # (m,) bool, True for the agents that participate

    @property
    def active(self) -> tuple:
        """The active agents' indices, increasing."""
        return tuple(int(i) for i in np.flatnonzero(self.mask))


@dataclass(eq=False)  # a sampler owns its generator: compare by identity
class ActivationSampler:
    """Per-iteration activation draw.

    Bernoulli mode includes each agent independently with probability ``p``
    (possibly none, a no-op iteration); fixed-count mode draws a uniform
    ``count``-subset, and keeps ``count`` only in that mode, so a caller may
    pass both.  Its one generator is re-seeded before every draw, so its own
    seed never shows.
    """

    mode: str = rule(choices=ACTIVATION_MODES)
    m: int = rule(at_least=1)
    seed: int = rule(at_least=0)
    p: float = rule(1.0, above=0, at_most=1)
    count: int = rule(None, at_least=1)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        check_rules(self)   # a fixed count is checked against m below
        self._rng = np.random.Generator(np.random.PCG64())
        if self.mode == BERNOULLI:
            self.count = None
        elif self.count is None or self.count > self.m:
            raise ConfigurationError(f"count must be an integer in [1, {self.m}], got {self.count!r}")
        else:
            self.count = int(self.count)


def sample_activation(sampler: ActivationSampler, t: int) -> ActivationRecord:
    """Draw the active set for iteration t, a non-negative integer: the draw a
    fresh ``np.random.default_rng((seed, t))`` makes, by the sampler's generator."""
    if isinstance(t, bool) or not isinstance(t, numbers.Integral) or t < 0:
        raise ConfigurationError(f"t must be a non-negative integer, got {t!r}")
    rng = sampler._rng
    rng.bit_generator.state = pcg64_state(sampler.seed, t)
    if sampler.mode == BERNOULLI:
        return ActivationRecord(rng.random(sampler.m) < sampler.p)
    mask = np.zeros(sampler.m, dtype=bool)
    mask[rng.choice(sampler.m, size=sampler.count, replace=False)] = True
    return ActivationRecord(mask)


def async_step(ns: NetworkState, record: ActivationRecord) -> NetworkState:
    """One asynchronous iteration: only the recorded agents update.

    Theta and lambda move only when the leader is active; an empty record
    only advances the iteration counter.  Full activation reproduces the
    synchronous step exactly.
    """
    return apply_step(ns, record.mask)
