"""Local objective functions and composite regularizers.

Two smooth local objectives are supported:

* least squares, f(x) = 1/2 * sum_j (a_j^T x - b_j)^2
* logistic loss, f(x) = sum_j [ln(1 + exp(-w_j^T x)) + (1 - y_j) w_j^T x]
  with labels y_j in {0, 1}

and two regularizers, gamma * ||x||_1 and gamma * ||x||^2; the default,
squared l2 at gamma = 0, is no regularizer.
A ``ConsensusProblem`` holds every agent's data as stacked rows and the shared
regularizer; ``STACKED`` says how it evaluates the objectives of one kind
together.  A ``LocalObjective`` is one agent's cost, evaluated on its own: the
per-agent reference that the stacked forms are tested against.  The library
itself builds none.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, check_rules, rule, ruled

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Logistic function from exp(-|u|) <= 1, so it never overflows:
    1 / (1 + exp(-u)) where u >= 0 and exp(u) / (1 + exp(u)) elsewhere."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Batched forms of the ``LocalObjective`` methods for the objectives of one
# kind and row count: ``at`` picks the objectives (``slice(None)`` for all of
# them, an index array otherwise) from the stacks of the group, passed by name,
# and X (k, d) holds their points.  Each form gathers only the stacks it reads.
# Each product and row sum runs slice by slice, so row k is the per-objective
# result bit for bit; zero-padding unequal data would not be.

def _least_squares_derive(features, targets):
    return {"gram": features.transpose(0, 2, 1) @ features,
            "atb": (features.transpose(0, 2, 1) @ targets[:, :, None])[:, :, 0]}


def _least_squares_values(at, X, features, targets, **_):
    r = (features[at] @ X[:, :, None])[:, :, 0] - targets[at]
    return 0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _least_squares_gradients(at, X, gram, atb, **_):
    return (gram[at] @ X[:, :, None])[:, :, 0] - atb[at]


def _least_squares_hessians(at, X, gram, **_):
    return gram[at].copy()  # a slice is a view: copy it


def _logistic_values(at, X, features, targets, **_):
    u = (features[at] @ X[:, :, None])[:, :, 0]
    return np.sum(np.logaddexp(0.0, -u) + (1.0 - targets[at]) * u, axis=1)


def _logistic_gradients(at, X, features, targets, **_):
    features = features[at]
    r = _sigmoid((features @ X[:, :, None])[:, :, 0]) - targets[at]
    return (r[:, None, :] @ features)[:, 0, :]


def _logistic_hessians(at, X, features, **_):
    features = features[at]
    s = _sigmoid((features @ X[:, :, None])[:, :, 0])
    return (features * (s * (1.0 - s))[:, :, None]).transpose(0, 2, 1) @ features


def _logistic_bounds(at, X, features, **_):
    features = features[at]
    bounds = features.transpose(0, 2, 1) @ features
    bounds *= 0.25
    return bounds


@dataclass(frozen=True)
class StackedForm:
    """How objectives of one kind are evaluated together.  ``derive`` maps
    the (k, n, d) features and (k, n) targets of objectives with equal row
    counts to the further stacks the forms read, by name.  ``values`` (k,),
    ``gradients`` (k, d), ``hessians`` (k, d, d) and ``bounds`` (the
    ``hessian_bound`` of each, (k, d, d), independent of X) take ``at``, X
    (k, d) and the stacks by name, and return a new array.
    ``constant_hessian`` says whether the Hessian is the same at every point."""

    derive: Callable
    values: Callable
    gradients: Callable
    hessians: Callable
    bounds: Callable
    constant_hessian: bool = False


STACKED = {
    LEAST_SQUARES: StackedForm(_least_squares_derive, _least_squares_values,
                               _least_squares_gradients, _least_squares_hessians,
                               _least_squares_hessians, constant_hessian=True),
    LOGISTIC: StackedForm(lambda features, targets: {}, _logistic_values, _logistic_gradients,
                          _logistic_hessians, _logistic_bounds),
}


@dataclass
class LocalObjective:
    """Smooth local cost of a single agent over its data points.

    Parameters
    ----------
    kind : str
        "least_squares" or "logistic".
    features : ndarray, shape (n_points, d)
        Row j holds a_j (least squares) or w_j (logistic).
    targets : ndarray, shape (n_points,)
        b_j values, or labels in {0, 1} for logistic.
    """

    kind: str = rule(choices=STACKED)
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        check_rules(self)
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if self.features.shape[0] != self.targets.shape[0]:
            raise ConfigurationError(f"targets {self.targets.shape} and features "
                                     f"{self.features.shape} differ in row count")
        if self.kind == LOGISTIC and not np.all(np.isin(self.targets, (0.0, 1.0))):
            raise ConfigurationError("logistic targets must be 0 or 1")

    # The least-squares Gram matrix and A^T b are computed on first use, from
    # this objective's own arrays.
    @cached_property
    def _gram(self) -> np.ndarray:
        return self.features.T @ self.features

    @cached_property
    def _atb(self) -> np.ndarray:
        return self.features.T @ self.targets

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def value(self, x: np.ndarray) -> float:
        if self.kind == LEAST_SQUARES:
            r = self.features @ x - self.targets
            return 0.5 * float(r @ r)
        u = self.features @ x
        # ln(1 + e^{-u}) computed as logaddexp(0, -u) to avoid overflow
        return float(np.sum(np.logaddexp(0.0, -u) + (1.0 - self.targets) * u))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.kind == LEAST_SQUARES:
            return self._gram @ x - self._atb
        u = self.features @ x
        return self.features.T @ (_sigmoid(u) - self.targets)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        if self.kind == LEAST_SQUARES:
            return self._gram.copy()
        s = _sigmoid(self.features @ x)
        return (self.features * (s * (1.0 - s))[:, None]).T @ self.features

    def hessian_bound(self) -> np.ndarray:
        """A matrix above the Hessian at every point: the Gram matrix (not a
        copy) for least squares, a quarter of the feature Gram for logistic."""
        if self.kind == LEAST_SQUARES:
            return self._gram
        return 0.25 * (self.features.T @ self.features)


def sum_over_agents(stack: np.ndarray) -> np.ndarray:
    """Sum along the leading (agent) axis, adding the rows in agent order as
    Python's ``sum`` does (``ndarray.sum`` adds a contiguous axis pairwise).
    The running sums overwrite ``stack``: pass a freshly computed one."""
    np.cumsum(stack, axis=0, out=stack)
    return stack[-1] + 0.0  # sum() starts at 0: a column of -0.0 sums to 0.0


@dataclass(frozen=True)
class SmoothnessConstants:
    """Curvature bounds: m_f I <= Hessian <= M_f I, Hessian L_f-Lipschitz."""

    m_f: float
    M_f: float
    L_f: float


L1 = "l1"
SQUARED_L2 = "squared_l2"


@dataclass(frozen=True)
class Regularizer:
    """Convex regularizer with closed-form proximal map; gamma = 0 is none."""

    kind: str = rule(SQUARED_L2, choices=(L1, SQUARED_L2))
    gamma: float = rule(0.0, at_least=0)
    __post_init__ = check_rules

    def value(self, x: np.ndarray) -> float:
        if self.kind == L1:
            return self.gamma * float(np.sum(np.abs(x)))
        return self.gamma * float(x @ x)


def prox(g: Regularizer, mu: float, v: np.ndarray) -> np.ndarray:
    """Proximal map argmin_theta { g(theta) + mu/2 ||theta - v||^2 }.

    Soft threshold at gamma/mu for the l1 norm, shrinkage by
    mu/(mu + 2 gamma) for the squared l2 norm (the identity at gamma = 0).
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"prox weight must be positive and finite, got {mu}")
    v = np.asarray(v, dtype=float)
    if g.kind == L1:
        return np.sign(v) * np.maximum(np.abs(v) - g.gamma / mu, 0.0)
    return v * (mu / (mu + 2.0 * g.gamma))


@ruled(tol=rule(at_least=0))
def subgradient_membership(g: Regularizer, theta: np.ndarray, lam: np.ndarray, tol: float) -> bool:
    """Whether lam lies in the subdifferential of g at theta, within tol."""
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if g.kind == L1:
        active = theta != 0.0
        if np.any(np.abs(lam[active] - g.gamma * np.sign(theta[active])) > tol):
            return False
        return bool(np.all(np.abs(lam[~active]) <= g.gamma + tol))
    return bool(np.linalg.norm(lam - 2.0 * g.gamma * theta) <= tol)


@dataclass(eq=False)
class ConsensusProblem:
    """The agents' local objectives as stacked data, plus the shared regularizer.

    Agent i owns the next ``counts[i]`` (at least one) rows of ``features``
    (N, d) and ``targets`` (N,).  Each run of consecutive agents with equal
    counts is a group whose (k, n, d) and (k, n) stacks are views of its rows;
    every other per-agent array (the least-squares Gram matrices and A^T b,
    the smoothness constants) is derived from them in batched calls.  Do not
    change the data after construction.  ``gradients``, ``hessians``,
    ``hessian_bounds`` and ``total_value`` take one batched call per group.
    """

    kind: str = rule(choices=STACKED)
    features: np.ndarray
    targets: np.ndarray
    counts: np.ndarray
    regularizer: Regularizer = Regularizer()
    _groups: list = field(init=False, repr=False)

    def __post_init__(self):
        check_rules(self)
        if not isinstance(self.regularizer, Regularizer):
            raise ConfigurationError(f"regularizer must be a Regularizer, got {self.regularizer!r}")
        try:
            counts = np.asarray(self.counts)
        except ValueError:   # numpy refuses a ragged nesting
            counts = None
        if counts is None or counts.ndim != 1:
            raise ConfigurationError(f"counts must be one integer per agent, got {self.counts!r}")
        if not len(counts):
            raise ConfigurationError("need at least one agent")
        # the counts as given: numpy makes an integer array of [True, 2]
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
                   for c in self.counts):
            raise ConfigurationError(f"counts must be integers, got {self.counts!r}")
        self.counts = counts = counts.astype(np.intp)
        self.features = features = np.ascontiguousarray(self.features, dtype=float)
        self.targets = targets = np.ascontiguousarray(self.targets, dtype=float)
        if features.ndim != 2 or targets.shape != features.shape[:1] or counts.sum() != len(targets):
            raise ConfigurationError(
                f"features {features.shape}, targets {targets.shape} and counts "
                f"(summing to {counts.sum()}) disagree")
        if (counts < 1).any():
            raise ConfigurationError(f"objective of agent {np.argmax(counts < 1)} has no data points")
        ends = np.concatenate(([0], np.cumsum(counts)))
        # an agent's sum of squared features (targets) is finite if they are and no
        # entry of its Gram matrix or logistic Hessian bound (its least-squares cost
        # at 0), which the sum bounds, overflows
        for name, data in (("features", features), ("targets", targets[:, None])):
            with np.errstate(over="ignore"):
                squares = np.add.reduceat(np.einsum("ij,ij->i", data, data), ends[:-1])
            if not np.isfinite(squares).all():
                agent = np.argmin(np.isfinite(squares))
                finite = np.isfinite(data[ends[agent]:ends[agent + 1]]).all()
                raise ConfigurationError(f"{name} of agent {agent} " + (
                    "are too large: their sum of squares overflows" if finite else
                    "hold a NaN or infinite value"))
        if self.kind == LOGISTIC and not np.isin(targets, (0.0, 1.0)).all():
            raise ConfigurationError("logistic targets must be 0 or 1")
        runs = np.concatenate(([0], np.flatnonzero(np.diff(counts)) + 1, [len(counts)]))
        self._groups = []  # (first agent, one past the last, the run's stacks by name)
        for lo, hi in zip(runs[:-1].tolist(), runs[1:].tolist()):
            at = slice(ends[lo], ends[hi])
            stacks = {"features": features[at].reshape(hi - lo, counts[lo], self.d),
                      "targets": targets[at].reshape(hi - lo, counts[lo])}
            stacks.update(STACKED[self.kind].derive(**stacks))
            self._groups.append((lo, hi, stacks))

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @cached_property
    def smoothness(self) -> SmoothnessConstants:
        """Network-wide bounds, the tightest constants valid for every agent,
        computed on first use.  M_f is the largest eigenvalue of any agent's
        ``hessian_bound``.  Least squares: m_f is the smallest one, L_f = 0.
        Logistic: m_f = 0, and the Hessian's Lipschitz constant is the peak
        of the sigmoid's second derivative (1 / (6 sqrt 3)) times an agent's
        summed cubed feature norms, inf if those overflow."""
        eig = np.linalg.eigvalsh(self.hessian_bounds())
        M_f = float(eig[:, -1].max())
        if self.kind == LEAST_SQUARES:
            return SmoothnessConstants(m_f=max(float(eig[:, 0].min()), 0.0), M_f=M_f, L_f=0.0)
        with np.errstate(over="ignore"):   # cubes of huge norms: L_f is inf, still a bound
            cubes = max(float((np.linalg.norm(stacks["features"], axis=2) ** 3).sum(axis=1).max())
                        for *_, stacks in self._groups)
        return SmoothnessConstants(m_f=0.0, M_f=M_f, L_f=cubes / (6.0 * np.sqrt(3.0)))

    @property
    def constant_hessian(self) -> bool:
        """Whether every local Hessian is the same at every point."""
        return STACKED[self.kind].constant_hessian

    def total_value(self, x: np.ndarray) -> float:
        """Centralized composite cost at a single shared point: the local
        costs added in agent order, then the regularizer."""
        X = np.broadcast_to(x, (self.m, self.d))
        values = self._batched(STACKED[self.kind].values, X, range(self.m), ())
        return float(sum_over_agents(values)) + self.regularizer.value(x)

    def gradients(self, X: np.ndarray, rows) -> np.ndarray:
        """Local-objective gradients at the listed rows of X (distinct agents in
        increasing order), (len(rows), d) even for no rows."""
        return self._batched(STACKED[self.kind].gradients, X, rows, (self.d,))

    def hessians(self, X: np.ndarray, rows) -> np.ndarray:
        """Local Hessians at the listed rows of X, as ``gradients``; (len(rows), d, d)."""
        return self._batched(STACKED[self.kind].hessians, X, rows, (self.d, self.d))

    def hessian_bounds(self) -> np.ndarray:
        """Every agent's ``hessian_bound``, (m, d, d)."""
        zero = np.zeros((self.m, self.d))
        return self._batched(STACKED[self.kind].bounds, zero, range(self.m), (self.d, self.d))

    def _batched(self, evaluate, X, rows, shape):
        rows = np.asarray(rows, dtype=np.intp)
        full = len(rows) == self.m  # every agent: read the stacks in place
        if len(self._groups) == 1:
            stacks = self._groups[0][2]
            return evaluate(slice(None), X, **stacks) if full else evaluate(rows, X[rows], **stacks)
        out = np.empty((len(rows),) + shape)
        for lo, hi, stacks in self._groups:
            if full:
                out[lo:hi] = evaluate(slice(None), X[lo:hi], **stacks)
            else:
                a, b = np.searchsorted(rows, (lo, hi))
                out[a:b] = evaluate(rows[a:b] - lo, X[rows[a:b]], **stacks)
        return out
