import dataclasses

import numpy as np
import pytest

from conftest import (
    incidences,
    install_fixed_point,
    make_lasso_instance,
    make_logistic_instance,
    make_ridge_instance,
    newton_block,
    objectives_of,
    problem_of,
)
from druid import curvature as cv
from druid.activation import ActivationSampler, async_step, sample_activation
from druid.analysis import project_dual
from druid.curvature import GRADIENT, NEWTON, SCHEMES, Hyperparams, block_diag_value
from druid.errors import ConfigurationError, DivergenceError
from druid.network import (
    apply_step,
    dual_updates,
    init_network,
    local_gradient,
    set_state,
    sync_step,
)
from druid.problems import (
    L1,
    LEAST_SQUARES,
    LOGISTIC,
    LocalObjective,
    Regularizer,
    subgradient_membership,
)
from druid.reference import centralized_reference
from druid.topology import Graph, random_connected_graph


def scalar_problem(b_values, regularizer=Regularizer()):
    """One-dimensional agents with f_i(x) = (x - b_i)^2 / 2."""
    objs = [LocalObjective(LEAST_SQUARES, [[1.0]], [b]) for b in b_values]
    return problem_of(objs, regularizer)


def default_hp(scheme=GRADIENT, **kw):
    args = dict(mu_z=1.0, mu_theta=0.5, epsilon=1.0, scheme=scheme, leader=0)
    args.update(kw)
    return Hyperparams(**args)


def test_init_network_zero_state():
    graph, problem = make_lasso_instance()
    hp = default_hp()
    ns = init_network(problem, graph, hp)
    assert ns.t == 0 and ns.comm_scalars == 0
    assert ns.X.shape == ns.Phi.shape == (graph.m, problem.d)
    assert not ns.X.any() and not ns.Phi.any()
    assert not ns.theta.any() and not ns.lam.any()
    assert ns.B is None
    assert np.array_equal(ns.G, np.stack([obj.gradient(np.zeros(problem.d))
                                          for obj in objectives_of(problem)]))
    for i in range(graph.m):
        assert ns.shift[i] == block_diag_value(hp, graph.degrees[i], i == hp.leader)


STATE_ARRAYS = ("X", "Phi", "G", "theta", "lam", "B")


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("make", [make_lasso_instance, make_logistic_instance])
def test_a_state_copied_through_set_state_steps_as_the_original(make, scheme):
    graph, problem = make()
    M_f = problem.smoothness.M_f
    hp = default_hp(scheme=scheme, epsilon=0.55 * M_f, psi=M_f)
    full, partial = np.ones(graph.m, dtype=bool), np.arange(graph.m) % 2 == 0
    ns = init_network(problem, graph, hp)
    for mask in (full, partial, full):   # mid-run, with the Laplacian term cached
        apply_step(ns, mask)
    twin = set_state(init_network(problem, graph, hp), X=ns.X, Phi=ns.Phi, theta=ns.theta,
                     lam=ns.lam, B=ns.B)
    assert twin.X is not ns.X and twin.lap is None and ns.lap is not None
    for mask in (None, full, partial, partial, full, full):
        if mask is not None:
            apply_step(ns, mask)
            apply_step(twin, mask)
        for name in STATE_ARRAYS:
            assert np.array_equal(getattr(twin, name), getattr(ns, name)), name


def test_set_state_restarts_the_models_unless_given():
    graph, problem = make_ridge_instance()
    ns = init_network(problem, graph, default_hp(scheme=cv.BFGS))
    sync_step(ns)
    stepped = ns.B
    assert not np.array_equal(stepped, set_state(ns, X=ns.X).B)
    assert np.array_equal(ns.B, ns.kernel.init(problem, ns.shift))
    assert np.array_equal(set_state(ns, B=stepped).B, stepped)


def test_network_state_owns_its_configuration():
    graph, problem = make_lasso_instance()
    for scheme in SCHEMES:
        hp = default_hp(scheme=scheme)
        ns = init_network(problem, graph, hp)
        assert ns.hp is hp
        assert ns.kernel is cv.kernel(hp, problem)
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.epsilon = 2.0


def test_network_states_compare_by_identity_without_raising():
    graph, problem = make_lasso_instance()
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.5, leader=0)
    ns = init_network(problem, graph, hp)
    assert ns == ns
    assert ns != init_network(problem, graph, hp)


def test_init_network_validation():
    graph = random_connected_graph(4, 1.0, seed=0)
    problem = scalar_problem([1.0, 2.0, 3.0])
    with pytest.raises(ConfigurationError):
        init_network(problem, graph, default_hp())
    with pytest.raises(ConfigurationError):
        init_network(scalar_problem([1.0] * 4), graph, default_hp(leader=4))


def test_first_local_gradient_is_plain_gradient():
    graph, problem = make_lasso_instance()
    for scheme in SCHEMES:
        hp = default_hp(scheme=scheme)
        ns = init_network(problem, graph, hp)
        grads = local_gradient(ns, range(graph.m))
        for grad, obj in zip(grads, objectives_of(problem)):
            assert np.allclose(grad, obj.gradient(np.zeros(problem.d)))


def test_local_gradient_scalar_case():
    graph = Graph(2, [(0, 1)])
    problem = scalar_problem([0.0, 2.0])
    hp = default_hp(leader=0)
    ns = init_network(problem, graph, hp)
    assert local_gradient(ns, [1])[0] == pytest.approx([-2.0])


def test_local_gradient_vanishes_at_kkt_point():
    # consensus iterates, duals balancing the gradients, theta at the leader
    graph, problem = make_lasso_instance()
    hp = default_hp()
    ns = init_network(problem, graph, hp)
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, hp.leader)
    install_fixed_point(ns, ref.x_star, lam)
    for h in local_gradient(ns, range(graph.m)):
        assert np.linalg.norm(h) <= 1e-9


def dense_augmented_lagrangian(problem, graph, hp, X, theta, alpha, lam, Z):
    """Independent evaluation from the stacked definition with explicit
    source/destination matrices; the edge variable enters as given."""
    A_s, A_d = incidences(graph)
    value = sum(obj.value(x) for obj, x in zip(objectives_of(problem), X))
    value += problem.regularizer.value(theta)
    y_top = alpha
    y_bot = -alpha
    res_top = A_s @ X - Z
    res_bot = A_d @ X - Z
    value += np.sum(y_top * res_top) + np.sum(y_bot * res_bot)
    value += 0.5 * hp.mu_z * (np.sum(res_top**2) + np.sum(res_bot**2))
    gap = X[hp.leader] - theta
    value += lam @ gap + 0.5 * hp.mu_theta * (gap @ gap)
    return value


def test_local_gradient_matches_finite_differences_of_lagrangian():
    graph, problem = make_lasso_instance()
    hp = default_hp()
    ns = init_network(problem, graph, hp)
    rng = np.random.default_rng(11)
    for _ in range(3):
        sync_step(ns)
    # perturb the state away from anything structured
    alpha = rng.normal(size=(graph.n, problem.d))
    A_s, A_d = incidences(graph)
    set_state(ns, X=rng.normal(size=(graph.m, problem.d)), Phi=(A_s - A_d).T @ alpha,
              theta=rng.normal(size=problem.d), lam=rng.normal(size=problem.d))
    X = ns.X.copy()
    Z = 0.5 * ((A_s + A_d) @ X)
    h = 1e-6
    grads = local_gradient(ns, range(graph.m))
    for i in range(graph.m):
        grad = grads[i]
        for k in range(problem.d):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, k] += h
            Xm[i, k] -= h
            fd = (
                dense_augmented_lagrangian(problem, graph, hp, Xp, ns.theta, alpha, ns.lam, Z)
                - dense_augmented_lagrangian(problem, graph, hp, Xm, ns.theta, alpha, ns.lam, Z)
            ) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_primal_update_hand_case():
    # two agents, f_1(x) = (x - 1)^2 / 2, gradient scheme, leader elsewhere
    graph = Graph(2, [(0, 1)])
    problem = scalar_problem([1.0, 0.0])
    hp = default_hp(leader=1, epsilon=1.0)
    ns = init_network(problem, graph, hp)
    apply_step(ns, np.array([True, False]))
    assert ns.X[0] == pytest.approx([0.5])


def test_primal_update_no_move_on_zero_gradient():
    graph = Graph(2, [(0, 1)])
    problem = scalar_problem([0.0, 0.0])
    hp = default_hp(leader=1)
    ns = init_network(problem, graph, hp)
    for scheme in SCHEMES:
        hp_s = default_hp(scheme=scheme, leader=1)
        ns = init_network(problem, graph, hp_s)
        apply_step(ns, np.array([True, False]))
        assert ns.X[0] == pytest.approx([0.0])


@pytest.mark.parametrize("mask, shape", [
    (np.ones(9, dtype=bool), r"\(9,\)"), (np.ones(11, dtype=bool), r"\(11,\)"),
    (np.ones(10, dtype=int), r"\(10,\)"), (np.ones((1, 10), dtype=bool), r"\(1, 10\)"),
    (np.True_, r"\(\)")], ids=["short", "long", "integer", "two-dimensional", "scalar"])
def test_apply_step_refuses_a_bad_mask_before_it_writes(mask, shape):
    # a short mask wrote rows of X and the count before numpy's bare broadcast
    # error, with t unchanged; a long one raised an IndexError
    graph, problem = make_ridge_instance()
    ns = init_network(problem, graph, default_hp())
    sync_step(ns)
    before = {name: np.copy(getattr(ns, name)) for name in ("X", "Phi", "G", "theta", "lam")}
    lap, comm = ns.lap, ns.comm_scalars
    with pytest.raises(ConfigurationError, match=rf"^active must be a boolean mask of shape "
                                                 rf"\(10,\), got .* of shape {shape}$"):
        apply_step(ns, mask)
    for name, value in before.items():
        assert np.array_equal(getattr(ns, name), value), name
    assert ns.lap is lap and ns.comm_scalars == comm and ns.t == 1


def test_dual_updates_unchanged_at_consensus():
    graph, problem = make_lasso_instance()
    hp = default_hp()
    ns = set_state(init_network(problem, graph, hp), X=np.full((graph.m, problem.d), 0.7))
    phis = ns.Phi.copy()
    dual_updates(ns, np.ones(graph.m, dtype=bool))
    assert np.array_equal(ns.Phi, phis)


def test_dual_sum_conserved_and_inclusion_holds():
    graph, problem = make_lasso_instance()
    hp = default_hp(epsilon=3.0)
    ns = init_network(problem, graph, hp)
    for _ in range(40):
        sync_step(ns)
        assert np.linalg.norm(ns.Phi.sum(axis=0)) <= 1e-12
        assert subgradient_membership(problem.regularizer, ns.theta, ns.lam, 1e-9)


def test_zero_regularizer_lambda_identity():
    graph, problem = make_lasso_instance()
    problem = dataclasses.replace(problem, regularizer=Regularizer())
    hp = default_hp(epsilon=3.0)
    ns = init_network(problem, graph, hp)
    for _ in range(10):
        lam_old = ns.lam.copy()
        sync_step(ns)
        residual = ns.lam + hp.mu_theta * ns.theta - hp.mu_theta * ns.X[hp.leader] - lam_old
        assert np.linalg.norm(residual) <= 1e-12


def test_buffer_consistency_after_sync_step():
    graph, problem = make_lasso_instance()
    hp = default_hp(scheme=NEWTON)
    ns = init_network(problem, graph, hp)
    objectives = objectives_of(problem)
    for _ in range(5):
        sync_step(ns)
        # every agent reads its neighbors' current iterates: the coupling
        # part of its local gradient is sum_j (x_i - x_j) over neighbors
        grads = local_gradient(ns, range(graph.m))
        for i in range(graph.m):
            coupling = sum(ns.X[i] - ns.X[j] for j in np.flatnonzero(graph.adjacency[i]))
            expected = objectives[i].gradient(ns.X[i]) + ns.Phi[i]
            expected = expected + 0.5 * hp.mu_z * coupling
            if i == hp.leader:
                expected = expected + hp.mu_theta * (ns.X[i] - ns.theta) + ns.lam
            assert np.abs(grads[i] - expected).max() <= 1e-12


def test_communication_count_closed_form():
    graph, problem = make_lasso_instance()
    hp = default_hp()
    ns = init_network(problem, graph, hp)
    for _ in range(7):
        sync_step(ns)
    assert ns.comm_scalars == 7 * 2 * graph.n * problem.d
    assert ns.t == 7
    # a partial step counts one iterate per neighbor of each active agent
    active = np.arange(graph.m) % 2 == 1
    apply_step(ns, active)
    sent = sum(graph.degrees[i] for i in np.flatnonzero(active)) * problem.d
    assert ns.comm_scalars == 7 * 2 * graph.n * problem.d + sent


@pytest.mark.parametrize("scheme", SCHEMES)
def test_constructed_fixed_point_is_invariant(scheme):
    graph, problem = make_ridge_instance()
    sm = problem.smoothness
    hp = default_hp(scheme=scheme, epsilon=0.55 * sm.M_f, psi=sm.M_f)
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, hp.leader)
    ns = init_network(problem, graph, hp)
    install_fixed_point(ns, ref.x_star, lam)
    before = (ns.X.copy(), ns.Phi.copy(), ns.theta.copy(), ns.lam.copy())
    sync_step(ns)
    assert np.abs(ns.X - before[0]).max() <= 1e-11
    assert np.abs(ns.Phi - before[1]).max() <= 1e-11
    assert np.abs(ns.theta - before[2]).max() <= 1e-11
    assert np.abs(ns.lam - before[3]).max() <= 1e-11


def test_symmetric_problem_stays_symmetric():
    # identical objectives, no regularizer, complete graph: all agents evolve
    # identically up to the leader's proximal coupling, which perturbs the
    # symmetry at order mu_theta only
    graph = random_connected_graph(4, 1.0, seed=1)
    objs = [LocalObjective(LEAST_SQUARES, [[1.0, 0.0], [0.0, 1.0]], [1.0, -0.5]) for _ in range(4)]
    problem = problem_of(objs, Regularizer())
    hp = default_hp(epsilon=2.0, mu_theta=1e-9)
    ns = init_network(problem, graph, hp)
    for _ in range(20):
        sync_step(ns)
        X = ns.X
        assert np.abs(X - X[0]).max() <= 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_non_finite_primal_update_names_agent_and_phase(scheme):
    graph, problem = make_lasso_instance()
    hp = default_hp(scheme=scheme)
    ns = init_network(problem, graph, hp)
    sync_step(ns)
    ns.Phi[3] = np.inf
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        apply_step(ns, np.arange(graph.m) >= 2)
    assert (err.value.t, err.value.agent, err.value.phase) == (2, 3, "primal")


def unequal_problem(rng, kind, m=7, d=4):
    """Agents holding base or base + 1 points in a shuffled order, as
    ``datasets.partition`` splits a row count that m does not divide."""
    base, extra = int(rng.integers(3, 6)), int(rng.integers(1, m))
    counts = rng.permutation([base + (i < extra) for i in range(m)])
    truth = rng.normal(size=d)
    objectives = []
    for n in counts:
        W = rng.normal(size=(n, d))
        signal = W @ truth + rng.normal(size=n)
        objectives.append(LocalObjective(kind, W, (signal > 0) * 1.0 if kind == LOGISTIC else signal))
    return problem_of(objectives, Regularizer(L1, 0.05))


def check_unequal_rows_bitwise_per_agent(kind, scheme, seed):
    """Steps under random masks on agents of two row counts (two stack
    groups) leave each agent's gradient, and its Newton block or inverse,
    equal bit for bit to what its own objective computes."""
    rng = np.random.default_rng(seed)
    problem = unequal_problem(rng, kind)
    m, d = problem.m, problem.d
    objectives = objectives_of(problem)
    assert len({obj.features.shape[0] for obj in objectives}) == 2
    graph = random_connected_graph(m, 0.5, seed)
    hp = default_hp(scheme=scheme, epsilon=2.0)
    ns = init_network(problem, graph, hp)

    def block(i, x):
        return newton_block(objectives[i], x, hp, graph.degrees[i], i == hp.leader)

    if scheme == NEWTON and problem.constant_hessian:
        for i in range(m):
            assert np.array_equal(ns.B[i], np.linalg.inv(block(i, np.zeros(d))))
    masks = [rng.random(m) < 0.5 for _ in range(6)] + [np.zeros(m, bool), np.ones(m, bool)]
    for k in rng.permutation(len(masks)):
        rows = np.flatnonzero(masks[k])
        if scheme == NEWTON and not problem.constant_hessian:
            for built, i in zip(ns.kernel.build(ns, rows), rows):
                assert np.array_equal(built, block(i, ns.X[i]))
        apply_step(ns, masks[k])
        for i, obj in enumerate(objectives):
            assert np.array_equal(ns.G[i], obj.gradient(ns.X[i]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stacked_logistic_with_unequal_row_counts_is_bitwise_per_agent(scheme, seed):
    check_unequal_rows_bitwise_per_agent(LOGISTIC, scheme, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stacked_least_squares_with_unequal_row_counts_is_bitwise_per_agent(scheme, seed):
    check_unequal_rows_bitwise_per_agent(LEAST_SQUARES, scheme, seed)


@pytest.mark.parametrize("make", [make_lasso_instance, make_logistic_instance])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_steps_evaluate_the_objectives_only_in_batches(scheme, make, monkeypatch):
    graph, problem = make()
    hp = default_hp(scheme=scheme, epsilon=2.0)
    ns = init_network(problem, graph, hp)

    def forbidden(*args, **kwargs):
        raise AssertionError("a step called a per-agent objective method")

    monkeypatch.setattr(LocalObjective, "gradient", forbidden)
    monkeypatch.setattr(LocalObjective, "hessian", forbidden)
    sampler = ActivationSampler("bernoulli", graph.m, 3, p=0.5)
    for _ in range(3):
        sync_step(ns)
        async_step(ns, sample_activation(sampler, ns.t))
    assert ns.t == 6 and np.isfinite(ns.X).all()
