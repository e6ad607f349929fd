import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (install_fixed_point, make_lasso_instance, make_logistic_instance,
                      objectives_of, problem_of)
from druid.activation import (ACTIVATION_MODES, STATE_CHUNK, ActivationRecord, ActivationSampler,
                              async_step, pcg64_state, sample_activation)
from druid.analysis import project_dual
from druid.curvature import SCHEMES, Hyperparams
from druid.errors import ConfigurationError
from druid.network import apply_step, init_network, local_gradient, set_state, sync_step
from druid.problems import (
    L1,
    LEAST_SQUARES,
    LocalObjective,
    Regularizer,
)
from druid.reference import centralized_reference
from druid.topology import Graph


def hp_for(scheme, problem, leader=0):
    M_f = problem.smoothness.M_f
    return Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=0.55 * M_f,
                       scheme=scheme, leader=leader, psi=M_f)


#: numbers on both sides of the word boundaries of numpy's entropy coercion
WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 + 5)


def fresh_mask(sampler, t):
    """The mask a fresh ``np.random.default_rng((seed, t))`` draws for the sampler."""
    rng = np.random.default_rng((sampler.seed, t))
    if sampler.mode == "bernoulli":
        return rng.random(sampler.m) < sampler.p
    mask = np.zeros(sampler.m, dtype=bool)
    mask[rng.choice(sampler.m, size=sampler.count, replace=False)] = True
    return mask


def test_derived_states_equal_those_of_fresh_generators():
    for seed in WORD_EDGES:
        for t in WORD_EDGES:
            assert pcg64_state(seed, t) == np.random.default_rng((seed, t)).bit_generator.state


def iterations():
    """Iteration indices: near the edges of the state chunks, anywhere in the
    first few chunks, or across the word boundaries."""
    near_edge = st.builds(lambda k, d: max(0, k * STATE_CHUNK + d), st.integers(0, 4),
                          st.integers(-2, 1))
    return st.one_of(near_edge, st.integers(0, 5 * STATE_CHUNK), st.sampled_from(WORD_EDGES))


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(ACTIVATION_MODES), m=st.integers(1, 12),
       seed=st.sampled_from(WORD_EDGES) | st.integers(0, 2**40), data=st.data())
def test_draws_equal_those_of_fresh_generators_in_any_order(mode, m, seed, data):
    if mode == "bernoulli":
        sampler = ActivationSampler.bernoulli(data.draw(st.floats(0.05, 1.0)), m, seed=seed)
    else:
        sampler = ActivationSampler.fixed_count(data.draw(st.integers(1, m)), m, seed=seed)
    ts = data.draw(st.lists(iterations(), min_size=1, max_size=12))
    for t in data.draw(st.permutations(ts + ts[: len(ts) // 2])):   # with repeats
        record = sample_activation(sampler, t)
        assert record.t == t and np.array_equal(record.mask, fresh_mask(sampler, t))


@pytest.mark.parametrize("t", [-1, 1.5, True], ids=["negative", "fraction", "bool"])
def test_sample_refuses_an_iteration_that_is_not_a_non_negative_integer(t):
    sampler = ActivationSampler.bernoulli(0.5, 4, seed=1)
    with pytest.raises(ConfigurationError, match=rf"^t must be a non-negative integer, got {t!r}$"):
        sample_activation(sampler, t)


def test_samplers_compare_by_identity_without_raising():
    a, b = ActivationSampler.bernoulli(0.5, 4, seed=1), ActivationSampler.bernoulli(0.5, 4, seed=1)
    assert a == a and a != b
    assert repr(a) == "ActivationSampler(mode='bernoulli', m=4, seed=1, p=0.5, count=None)"


def test_full_probability_activates_everyone():
    sampler = ActivationSampler.bernoulli(1.0, 6, seed=0)
    for t in range(20):
        assert sample_activation(sampler, t).active == tuple(range(6))


def test_fixed_count_full_set():
    sampler = ActivationSampler.fixed_count(5, 5, seed=0)
    assert sample_activation(sampler, 3).active == tuple(range(5))


def test_fixed_count_size_and_range():
    sampler = ActivationSampler.fixed_count(3, 8, seed=4)
    for t in range(50):
        active = sample_activation(sampler, t).active
        assert len(active) == 3 and len(set(active)) == 3
        assert all(0 <= i < 8 for i in active)
        assert list(active) == sorted(active)


def test_bernoulli_empirical_frequency():
    sampler = ActivationSampler.bernoulli(0.5, 4, seed=9)
    counts = np.zeros(4)
    draws = 10_000
    for t in range(draws):
        for i in sample_activation(sampler, t).active:
            counts[i] += 1
    assert np.all(np.abs(counts / draws - 0.5) <= 0.02)


@pytest.mark.parametrize("sampler", [ActivationSampler.bernoulli(0.3, 7, seed=5),
                                     ActivationSampler.fixed_count(3, 7, seed=5)],
                         ids=["bernoulli", "fixed_count"])
def test_record_mask_and_active_agree(sampler):
    for t in range(40):
        record = sample_activation(sampler, t)
        drawn = np.flatnonzero(fresh_mask(sampler, t))
        assert record.t == t
        assert record.mask.dtype == bool and record.mask.shape == (sampler.m,)
        assert record.active == tuple(drawn.tolist())
        assert np.array_equal(np.flatnonzero(record.mask), drawn)


def test_empty_draw_has_all_false_mask():
    sampler = ActivationSampler.bernoulli(0.05, 3, seed=1)
    records = (sample_activation(sampler, t) for t in range(100))
    record = next(r for r in records if not r.mask.any())
    assert record.active == ()
    assert np.array_equal(record.mask, np.zeros(3, dtype=bool))


def test_sampling_deterministic_in_seed_and_iteration():
    a = ActivationSampler.bernoulli(0.4, 10, seed=3)
    b = ActivationSampler.bernoulli(0.4, 10, seed=3)
    assert [sample_activation(a, t).active for t in range(30)] == \
           [sample_activation(b, t).active for t in range(30)]
    # order of queries does not matter
    assert sample_activation(a, 17).active == sample_activation(b, 17).active


def test_sampler_validation():
    with pytest.raises(ValueError):
        ActivationSampler.bernoulli(0.0, 4, seed=0)
    with pytest.raises(ValueError):
        ActivationSampler.bernoulli(1.2, 4, seed=0)
    with pytest.raises(ValueError):
        ActivationSampler.fixed_count(0, 4, seed=0)
    with pytest.raises(ValueError):
        ActivationSampler.fixed_count(5, 4, seed=0)
    with pytest.raises(ValueError):
        ActivationSampler(mode="poisson", m=4, seed=0)
    for bad in (2.7, True):
        with pytest.raises(ValueError, match="count"):
            ActivationSampler.fixed_count(bad, 4, seed=0)
    assert ActivationSampler.fixed_count(np.int64(2), 4, seed=0).count == 2
    # one probability for every agent: a list of them is refused like any non-number
    for bad in (np.nan, np.inf, [0.5, 0.5, 0.5, 0.5]):
        with pytest.raises(ConfigurationError, match="^p must be a finite number > 0 and <= 1, got "):
            ActivationSampler.bernoulli(bad, 4, seed=0)


@pytest.mark.parametrize("p", ["0.5", [0.5, 0.5], [0.5] * 5, [[0.5] * 4], True, None],
                         ids=["string", "too-short", "too-long", "nested", "bool", "none"])
def test_sampler_rejects_probabilities_of_the_wrong_type_or_shape(p):
    # a string was once converted, and a list of another length once raised
    # numpy's bare broadcast error; p is one number, so every one is refused
    with pytest.raises(ConfigurationError, match=r"^p must be a finite number > 0 and <= 1, got "):
        ActivationSampler.bernoulli(p, 4, seed=0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_empty_activation_is_noop(scheme):
    graph, problem = make_lasso_instance()
    hp = hp_for(scheme, problem)
    ns = init_network(problem, graph, hp)
    for _ in range(3):
        sync_step(ns)
    frozen = copy.deepcopy(ns)
    async_step(ns, ActivationRecord(t=ns.t, mask=np.zeros(graph.m, dtype=bool)))
    assert ns.t == frozen.t + 1
    assert ns.comm_scalars == frozen.comm_scalars
    for name in ("X", "Phi", "theta", "lam", "B", "G"):
        assert np.array_equal(getattr(ns, name), getattr(frozen, name))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_activation_reproduces_sync_bitwise(scheme):
    graph, problem = make_lasso_instance()
    hp = hp_for(scheme, problem)
    ns_sync = init_network(problem, graph, hp)
    ns_async = init_network(problem, graph, hp)
    sampler = ActivationSampler.bernoulli(1.0, graph.m, seed=2)
    for _ in range(60):
        sync_step(ns_sync)
        async_step(ns_async, sample_activation(sampler, ns_async.t))
    assert ns_sync.comm_scalars == ns_async.comm_scalars
    assert np.array_equal(ns_sync.X, ns_async.X)
    assert np.array_equal(ns_sync.Phi, ns_async.Phi)
    assert np.array_equal(ns_sync.theta, ns_async.theta)
    assert np.array_equal(ns_sync.lam, ns_async.lam)


@pytest.mark.parametrize("make", [make_lasso_instance, make_logistic_instance],
                         ids=["lasso", "logistic"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_cached_laplacian_term_equals_the_recomputed_one_bitwise(scheme, make):
    # the twin drops the cached term before every step, so it forms the
    # coupling afresh; None marks a replacement of X through set_state
    graph, problem = make()
    hp = hp_for(scheme, problem)
    cached, fresh = init_network(problem, graph, hp), init_network(problem, graph, hp)
    full = np.ones(graph.m, dtype=bool)
    partial = sample_activation(ActivationSampler.bernoulli(0.5, graph.m, seed=4), 0).mask
    assert 0 < partial.sum() < graph.m
    rng = np.random.default_rng(9)
    for mask in [full, full, full, partial, full, full, None, full, full]:
        if mask is None:
            X = rng.normal(size=cached.X.shape)
            for ns in (cached, fresh):
                set_state(ns, X=X, B=ns.B)
            continue
        fresh.lap = None
        apply_step(cached, mask)
        apply_step(fresh, mask)
        assert cached.comm_scalars == fresh.comm_scalars
        for name in ("X", "Phi", "G", "theta", "lam", "B"):
            assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name
        # the whole-network coupling equals the row-gathered product of a partial step
        assert np.array_equal(local_gradient(cached), local_gradient(fresh, range(graph.m)))


def test_single_active_agent_masks_everything_else():
    graph, problem = make_lasso_instance()
    hp = hp_for("gradient", problem, leader=0)
    ns = init_network(problem, graph, hp)
    for _ in range(4):
        sync_step(ns)
    active_agent = 2
    assert active_agent != hp.leader
    frozen = copy.deepcopy(ns)
    async_step(ns, ActivationRecord(t=ns.t, mask=np.arange(graph.m) == active_agent))
    assert np.array_equal(ns.theta, frozen.theta)
    assert np.array_equal(ns.lam, frozen.lam)
    for i in range(graph.m):
        if i != active_agent:
            assert np.array_equal(ns.X[i], frozen.X[i])
    # the active agent moved its own x, and its neighbors read the new value
    assert not np.array_equal(ns.X[active_agent], frozen.X[active_agent])
    coupling = graph.adjacency @ ns.X
    for j in np.flatnonzero(graph.adjacency[active_agent]):
        others = sum(ns.X[k] for k in np.flatnonzero(graph.adjacency[j]) if k != active_agent)
        assert np.abs(coupling[j] - others - ns.X[active_agent]).max() <= 1e-12
    # dual contributions move only on edges touching the active agent
    for i in range(graph.m):
        if i != active_agent and not graph.adjacency[i, active_agent]:
            assert np.array_equal(ns.Phi[i], frozen.Phi[i])
    assert ns.comm_scalars == frozen.comm_scalars + graph.degrees[active_agent] * problem.d


def test_partial_activation_keeps_dual_sum_zero():
    graph, problem = make_lasso_instance()
    hp = hp_for("gradient", problem)
    ns = init_network(problem, graph, hp)
    sampler = ActivationSampler.bernoulli(0.4, graph.m, seed=6)
    for _ in range(80):
        async_step(ns, sample_activation(sampler, ns.t))
        assert np.linalg.norm(ns.Phi.sum(axis=0)) <= 1e-12


@st.composite
def networks_and_masks(draw):
    """A connected graph (random spanning tree plus extra edges), a small
    lasso instance on it, and an activation sequence that contains an
    empty and a full mask."""
    m = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, m)}
    extra = [(i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in edges]
    edges |= {e for e in extra if draw(st.booleans())}
    graph = Graph(m, sorted(edges))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objectives = [
        LocalObjective(LEAST_SQUARES, rng.normal(size=(3, 2)) / np.sqrt(3), rng.normal(size=3))
        for _ in range(m)
    ]
    problem = problem_of(objectives, Regularizer(L1, 0.05))
    mask = st.lists(st.booleans(), min_size=m, max_size=m).map(np.array)
    masks = draw(st.lists(mask, max_size=4)) + [np.zeros(m, bool), np.ones(m, bool)]
    return graph, problem, draw(st.permutations(masks))


def assert_gradients_cached(ns, problem):
    """The cached local gradients are exactly those recomputed at X."""
    for i, obj in enumerate(objectives_of(problem)):
        assert np.array_equal(ns.G[i], obj.gradient(ns.X[i]))


@settings(max_examples=30, deadline=None)
@given(networks_and_masks())
def test_invariants_on_random_graphs_and_activations(case):
    graph, problem, masks = case
    m = graph.m
    ref = centralized_reference(problem, tol=1e-13)
    _, lam = project_dual(ref.x_star, problem, graph, leader=0)
    for scheme in SCHEMES:
        hp = hp_for(scheme, problem)
        ns = init_network(problem, graph, hp)
        assert_gradients_cached(ns, problem)
        for active in masks:
            apply_step(ns, active)
            assert np.linalg.norm(ns.Phi.sum(axis=0)) <= 1e-12
            assert_gradients_cached(ns, problem)
        # full activation reproduces the synchronous step bit for bit
        ns_async = copy.deepcopy(ns)
        sync_step(ns)
        async_step(ns_async, ActivationRecord(t=ns_async.t, mask=np.ones(m, dtype=bool)))
        for name in ("X", "Phi", "theta", "lam", "B", "G", "t", "comm_scalars"):
            assert np.array_equal(getattr(ns, name), getattr(ns_async, name))
        assert_gradients_cached(ns, problem)
        # the constructed fixed point is invariant under any activation
        ns = init_network(problem, graph, hp)
        install_fixed_point(ns, ref.x_star, lam)
        start = (ns.X.copy(), ns.Phi.copy(), ns.theta.copy(), ns.lam.copy())
        for active in masks:
            apply_step(ns, active)
            for before, now in zip(start, (ns.X, ns.Phi, ns.theta, ns.lam)):
                assert np.abs(now - before).max() <= 1e-9
            assert_gradients_cached(ns, problem)
