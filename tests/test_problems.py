import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import problem_of
from druid.errors import ConfigurationError
from druid.problems import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    SQUARED_L2,
    ConsensusProblem,
    LocalObjective,
    Regularizer,
    _sigmoid,
    prox,
    subgradient_membership,
    sum_over_agents,
)
from druid.reference import _total_gradient, total_curvature_bound


def random_objective(kind, seed, rows=6, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, d))
    if kind == LOGISTIC:
        y = (rng.random(rows) < 0.5).astype(float)
    else:
        y = rng.normal(size=rows)
    return LocalObjective(kind, X, y)


def finite_difference_gradient(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        grad[k] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def test_least_squares_hand_example():
    obj = LocalObjective(LEAST_SQUARES, [[1.0, 0.0]], [2.0])
    x = np.zeros(2)
    value, grad, hess = obj.value(x), obj.gradient(x), obj.hessian(x)
    assert value == pytest.approx(2.0)
    assert grad == pytest.approx([-2.0, 0.0])
    assert np.allclose(hess, [[1.0, 0.0], [0.0, 0.0]])


def test_logistic_hand_example():
    obj = LocalObjective(LOGISTIC, [[1.0]], [1.0])
    x = np.zeros(1)
    value, grad, hess = obj.value(x), obj.gradient(x), obj.hessian(x)
    assert value == pytest.approx(np.log(2.0))
    assert grad == pytest.approx([-0.5])
    assert np.allclose(hess, [[0.25]])


@pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
def test_gradient_and_hessian_match_finite_differences(kind):
    obj = random_objective(kind, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=obj.d)
        grad = obj.gradient(x)
        fd = finite_difference_gradient(obj.value, x)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))
    for _ in range(10):
        x = rng.normal(size=obj.d)
        hess = obj.hessian(x)
        fd_hess = np.stack(
            [finite_difference_gradient(lambda z, k=k: obj.gradient(z)[k], x) for k in range(obj.d)]
        )
        assert np.linalg.norm(hess - fd_hess) <= 1e-5 * max(1.0, np.linalg.norm(hess))


def test_logistic_is_overflow_safe():
    obj = LocalObjective(LOGISTIC, [[1.0], [-1.0]], [1.0, 0.0])
    for x in (np.array([1e3]), np.array([-1e3])):
        value, grad, hess = obj.value(x), obj.gradient(x), obj.hessian(x)
        assert np.isfinite(value) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))


def two_branch_sigmoid(v):
    """One element of the logistic function by its two overflow-free
    branches.  The exponential is numpy's: libm's ``math.exp`` differs
    from it in the last bit on a few percent of inputs."""
    if v >= 0:
        return 1.0 / (1.0 + np.exp(-v))
    e = np.exp(v)
    return e / (1.0 + e)


def test_sigmoid_equals_the_two_branch_formula_bitwise():
    special = [np.inf, -np.inf, 0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.nan]
    u = np.concatenate([special, 40.0 * np.random.default_rng(5).normal(size=1000)])
    out = _sigmoid(u)
    expected = np.array([two_branch_sigmoid(v) for v in u])
    assert np.array_equal(out, expected, equal_nan=True)
    # every number bit for bit, -0.0 included; a NaN's sign bit means nothing
    number = ~np.isnan(expected)
    assert np.array_equal(out[number].view(np.uint64), expected[number].view(np.uint64))
    assert out[:4].tolist() == [1.0, 0.0, 0.5, 0.5] and np.isnan(out[8])


def test_least_squares_hessian_constant():
    obj = random_objective(LEAST_SQUARES, seed=3)
    rng = np.random.default_rng(4)
    assert np.array_equal(obj.hessian(rng.normal(size=obj.d)), obj.hessian(rng.normal(size=obj.d)))


def test_smoothness_least_squares_diagonal_gram():
    obj = LocalObjective(LEAST_SQUARES, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    sm = problem_of([obj]).smoothness
    assert sm.m_f == pytest.approx(1.0)
    assert sm.M_f == pytest.approx(4.0)
    assert sm.L_f == 0.0


def test_smoothness_logistic_single_feature():
    sm = problem_of([LocalObjective(LOGISTIC, [[2.0]], [1.0])]).smoothness
    assert sm.m_f == 0.0
    assert sm.M_f == pytest.approx(1.0)
    assert sm.L_f == pytest.approx(8.0 / (6.0 * np.sqrt(3.0)))


@pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
def test_smoothness_bounds_gradient_differences(kind):
    obj = random_objective(kind, seed=5)
    sm = problem_of([obj]).smoothness
    rng = np.random.default_rng(6)
    for _ in range(100):
        x, y = rng.normal(size=obj.d), rng.normal(size=obj.d)
        lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
        assert lhs <= sm.M_f * np.linalg.norm(x - y) * (1 + 1e-12)


@pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
def test_hessian_bound_is_above_the_hessian_and_sets_M_f(kind):
    objs = [random_objective(kind, seed=s) for s in range(6)]
    gram = [obj.features.T @ obj.features for obj in objs]
    scale = 1.0 if kind == LEAST_SQUARES else 0.25
    rng = np.random.default_rng(8)
    for obj, g in zip(objs, gram):
        bound = obj.hessian_bound()
        assert np.array_equal(bound, scale * g)
        assert np.linalg.eigvalsh(bound - obj.hessian(rng.normal(size=obj.d)))[0] >= -1e-12
        # scaling by a power of two is exact, so M_f is the former per-kind value bit for bit
        assert problem_of([obj]).smoothness.M_f == scale * float(np.linalg.eigvalsh(g)[-1])
    total = np.zeros_like(gram[0])
    for g in gram:
        total += scale * g
    problem = problem_of(objs)
    assert total_curvature_bound(problem) == float(np.linalg.eigvalsh(total)[-1])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sum_over_agents_adds_rows_as_python_sum_does():
    rng = np.random.default_rng(10)
    for shape in ((12, 1), (1, 3), (9, 4), (11, 2, 2), (13,)):
        stack = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        assert same_bits(sum_over_agents(stack.copy()), sum(stack))
    # a column of negative zeros: sum() starts at 0 and returns +0.0
    assert same_bits(sum_over_agents(np.full((3, 2), -0.0)), np.zeros(2))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from([LEAST_SQUARES, LOGISTIC]), m=st.integers(1, 12),
       d=st.integers(1, 5), unequal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(kind=LEAST_SQUARES, m=12, d=1, unequal=True, seed=0)
@example(kind=LOGISTIC, m=12, d=1, unequal=False, seed=1)
def test_stacked_totals_equal_the_per_objective_sums_bitwise(kind, m, d, unequal, seed):
    # sparse data and a sparse point, so exact zeros (and their signs) occur
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=m) if unequal else np.full(m, int(rng.integers(1, 6)))
    objs = []
    for n in counts:
        F = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.6)
        y = (rng.random(n) < 0.5) * 1.0 if kind == LOGISTIC else rng.normal(size=n) * (rng.random(n) < 0.7)
        objs.append(LocalObjective(kind, F, y))
    reg = [Regularizer(), Regularizer(L1, 0.3), Regularizer(SQUARED_L2, 0.2)][seed % 3]
    problem = problem_of(objs, reg)
    x = rng.normal(size=d) * (rng.random(d) < 0.7)
    # the oracle: one objective at a time, added with Python's sum in agent order
    assert same_bits(problem.total_value(x), sum(obj.value(x) for obj in objs) + reg.value(x))
    assert same_bits(_total_gradient(problem, x), sum(obj.gradient(x) for obj in objs))
    bounds = problem.hessian_bounds()
    assert all(same_bits(b, obj.hessian_bound()) for b, obj in zip(bounds, objs))
    summed = sum(obj.hessian_bound() for obj in objs)
    assert same_bits(total_curvature_bound(problem), np.linalg.eigvalsh(summed)[-1])
    # the per-objective smoothness constants, reduced over the agents
    ends = [np.linalg.eigvalsh(obj.hessian_bound())[[0, -1]] for obj in objs]
    m_f = max(min(float(e[0]) for e in ends), 0.0) if kind == LEAST_SQUARES else 0.0
    L_f = 0.0 if kind == LEAST_SQUARES else max(
        float(np.sum(np.linalg.norm(obj.features, axis=1) ** 3)) / (6.0 * np.sqrt(3.0)) for obj in objs)
    sm = problem.smoothness
    assert same_bits([sm.m_f, sm.M_f, sm.L_f], [m_f, max(float(e[1]) for e in ends), L_f])
    if kind == LEAST_SQUARES:
        by_agent = {lo + k: (s["gram"][k], s["atb"][k])
                    for lo, hi, s in problem._groups for k in range(hi - lo)}
        for i, obj in enumerate(objs):
            assert same_bits(by_agent[i][0], obj.features.T @ obj.features)
            assert same_bits(by_agent[i][1], obj.features.T @ obj.targets)
    # each agent's gradient and Hessian at its own point, for every agent and
    # for a random increasing subset (each group's rows then map to its stacks)
    X = rng.normal(size=(m, d)) * (rng.random((m, d)) < 0.7)
    for rows in (range(m), np.flatnonzero(rng.random(m) < 0.5)):
        grads, hessians = problem.gradients(X, rows), problem.hessians(X, rows)
        assert grads.shape == (len(rows), d) and hessians.shape == (len(rows), d, d)
        for i, grad, hessian in zip(rows, grads, hessians):
            assert same_bits(grad, objs[i].gradient(X[i]))
            assert same_bits(hessian, objs[i].hessian(X[i]))


def test_aggregate_smoothness_extremes():
    objs = [
        LocalObjective(LEAST_SQUARES, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0]),
        LocalObjective(LEAST_SQUARES, [[3.0, 0.0]], [0.0]),
    ]
    sm = problem_of(objs).smoothness
    assert sm.m_f == pytest.approx(0.0)   # second Gram is singular
    assert sm.M_f == pytest.approx(9.0)


def test_prox_hand_examples():
    assert prox(Regularizer(L1, 1.0), 2.0, np.array([1.0, -0.25, 0.0])) == pytest.approx([0.5, 0.0, 0.0])
    v = np.array([3.0, -1.0])
    assert prox(Regularizer(), 5.0, v) == pytest.approx(v)
    assert prox(Regularizer(SQUARED_L2, 1.0), 2.0, np.array([4.0])) == pytest.approx([2.0])


def test_prox_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        prox(Regularizer(L1, 1.0), 0.0, np.zeros(2))


@pytest.mark.parametrize("reg, mu", [(Regularizer(L1, 0.1), np.nan),
                                     (Regularizer(SQUARED_L2, 0.1), np.inf)],
                         ids=["l1-nan", "squared_l2-inf"])
def test_prox_rejects_a_non_finite_weight(reg, mu):
    # both slipped past mu <= 0 and returned NaN
    with pytest.raises(ValueError, match="prox weight"):
        prox(reg, mu, np.ones(2))


@pytest.mark.parametrize("reg", [Regularizer(), Regularizer(L1, 0.7), Regularizer(SQUARED_L2, 0.3)])
def test_prox_is_nonexpansive(reg):
    rng = np.random.default_rng(8)
    for _ in range(50):
        u, v = rng.normal(size=4), rng.normal(size=4)
        lhs = np.linalg.norm(prox(reg, 1.5, u) - prox(reg, 1.5, v))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


def test_subgradient_membership_hand_examples():
    g = Regularizer(L1, 1.0)
    assert subgradient_membership(g, np.array([2.0, 0.0]), np.array([1.0, 0.3]), 1e-9)
    assert not subgradient_membership(g, np.array([2.0]), np.array([0.5]), 1e-9)
    assert subgradient_membership(Regularizer(), np.zeros(2), np.zeros(2), 0.0)
    g2 = Regularizer(SQUARED_L2, 0.5)
    assert subgradient_membership(g2, np.array([1.0, -2.0]), np.array([1.0, -2.0]), 1e-9)


def test_subgradient_membership_rejects_a_non_finite_tol():
    # at tol=nan this l1 non-member was reported as a member
    g, theta, lam = Regularizer(L1, 0.1), np.ones(2), np.full(2, 5.0)
    assert not subgradient_membership(g, theta, lam, 0.0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            subgradient_membership(g, theta, lam, tol)


@pytest.mark.parametrize("reg", [Regularizer(), Regularizer(L1, 0.8), Regularizer(SQUARED_L2, 0.4)])
def test_prox_optimality_inclusion(reg):
    # theta = prox(v) implies mu (v - theta) is a subgradient at theta
    rng = np.random.default_rng(9)
    mu = 2.3
    for _ in range(100):
        v = rng.normal(size=5)
        theta = prox(reg, mu, v)
        assert subgradient_membership(reg, theta, mu * (v - theta), 1e-10)


def test_regularizer_values():
    x = np.array([1.0, -2.0])
    assert Regularizer() == Regularizer(SQUARED_L2, 0.0)   # no regularizer
    assert Regularizer().value(x) == 0.0
    assert Regularizer(L1, 2.0).value(x) == pytest.approx(6.0)
    assert Regularizer(SQUARED_L2, 2.0).value(x) == pytest.approx(10.0)


def test_problem_validation_names_what_is_wrong():
    F, y = np.ones((3, 2)), np.array([0.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError, match="^kind must be one of least_squares, logistic, "
                                                 "got 'huber'$"):
        ConsensusProblem("huber", F, y, [3])
    with pytest.raises(ConfigurationError, match="at least one agent"):
        ConsensusProblem(LEAST_SQUARES, np.zeros((0, 2)), np.zeros(0), [])
    for features, targets, counts in [(F, y[:2], [3]), (F, y, [2, 2]), (F[:, 0], y, [3])]:
        with pytest.raises(ConfigurationError, match=r"features .*, targets .* and counts .* disagree"):
            ConsensusProblem(LEAST_SQUARES, features, targets, counts)
    with pytest.raises(ConfigurationError, match="objective of agent 1 has no data points"):
        ConsensusProblem(LEAST_SQUARES, F, y, [3, 0])
    with pytest.raises(ConfigurationError, match="logistic targets must be 0 or 1"):
        ConsensusProblem(LOGISTIC, F, [0.0, 0.5, 1.0], [2, 1])
    assert ConsensusProblem(LOGISTIC, F, y, [2, 1]).m == 2


@pytest.mark.parametrize("counts", [[1.5, 1.5], [1.0, 2.0], [True, 2], np.array([1.0, 2.0])],
                         ids=["fraction", "float", "bool", "float-array"])
def test_problem_rejects_counts_that_are_not_integers(counts):
    # cast to integers before: [1.5, 1.5] became [1, 1], and True counted as 1
    with pytest.raises(ConfigurationError, match=r"^counts must be integers, got "):
        ConsensusProblem(LEAST_SQUARES, np.ones((3, 2)), np.ones(3), counts)
    assert ConsensusProblem(LEAST_SQUARES, np.ones((3, 2)), np.ones(3), np.array([1, 2])).m == 2


def test_problem_rejects_a_regularizer_that_is_not_one():
    # accepted before; the first cost evaluation raised an AttributeError
    with pytest.raises(ConfigurationError, match=r"^regularizer must be a Regularizer, got 'l1'"):
        ConsensusProblem(LEAST_SQUARES, np.ones((3, 2)), np.ones(3), [1, 2], regularizer="l1")


@pytest.mark.parametrize("counts", [[[1], [1, 1]], [[1], [2]], 3], ids=["ragged", "nested", "scalar"])
def test_problem_rejects_counts_that_are_not_one_per_agent(counts):
    # a ragged nesting raised numpy's bare "inhomogeneous shape" ValueError
    with pytest.raises(ConfigurationError, match=r"^counts must be one integer per agent, got "):
        ConsensusProblem(LEAST_SQUARES, np.ones((3, 2)), np.ones(3), counts)


def test_problem_rejects_an_unhashable_kind():
    # the table lookup raised "TypeError: unhashable type: 'list'"
    with pytest.raises(ConfigurationError, match=r"^kind must be one of .*, got \['x'\]$"):
        ConsensusProblem(["x"], np.ones((3, 2)), np.ones(3), [3])


@pytest.mark.parametrize("array, row, agent", [("features", 0, 0), ("features", 3, 2),
                                               ("targets", 2, 1), ("targets", 4, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_data_naming_the_agent(array, row, agent, bad):
    # accepted before, with a NaN smoothness
    data = {"features": np.ones((5, 2)), "targets": np.ones(5)}
    data[array][row] = bad
    with pytest.raises(ConfigurationError, match=f"{array} of agent {agent} hold a NaN or infinite"):
        ConsensusProblem(LEAST_SQUARES, data["features"], data["targets"], [2, 1, 2])


def test_groups_are_runs_of_equal_counts_viewing_the_rows():
    rng = np.random.default_rng(4)
    counts = [2, 2, 1, 1, 1, 2]
    F, y = rng.normal(size=(sum(counts), 3)), rng.normal(size=sum(counts))
    problem = ConsensusProblem(LEAST_SQUARES, F, y, counts)
    assert [(lo, hi) for lo, hi, _ in problem._groups] == [(0, 2), (2, 5), (5, 6)]
    for lo, hi, stacks in problem._groups:
        assert stacks["features"].shape == (hi - lo, counts[lo], 3)
        assert stacks["features"].base is not None and np.shares_memory(stacks["features"], F)
        assert np.shares_memory(stacks["targets"], y)
    rows = np.split(np.arange(len(y)), np.cumsum(counts)[:-1])
    for lo, hi, stacks in problem._groups:
        for k, own in enumerate(rows[lo:hi]):
            assert np.array_equal(stacks["features"][k], F[own])
            assert np.array_equal(stacks["targets"][k], y[own])
    # a partial evaluation writes each run's rows, as the agents' own objectives do
    X, active = rng.normal(size=(6, 3)), [1, 2, 4, 5]
    assert np.array_equal(problem.gradients(X, active),
                          [LocalObjective(LEAST_SQUARES, F[rows[i]], y[rows[i]]).gradient(X[i])
                           for i in active])


def test_objective_validation():
    with pytest.raises(ConfigurationError, match="^kind must be one of .*, got 'huber'$"):
        LocalObjective("huber", [[1.0]], [0.0])
    # the errors ConsensusProblem raises for the same data
    with pytest.raises(ConfigurationError, match="^logistic targets must be 0 or 1$"):
        LocalObjective(LOGISTIC, [[1.0]], [0.5])
    with pytest.raises(ConfigurationError,
                       match=r"^targets \(1,\) and features \(2, 1\) differ in row count$"):
        LocalObjective(LEAST_SQUARES, [[1.0], [2.0]], [0.0])
    with pytest.raises(ValueError):
        Regularizer(L1, -0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            Regularizer(L1, bad)
