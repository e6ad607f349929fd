import numpy as np
import pytest

from conftest import (
    install_fixed_point,
    make_lasso_instance,
    make_logistic_instance,
    make_ridge_instance,
)
from druid import analysis, problems
from druid.analysis import (
    AlphaTracker,
    error_term,
    full_admm_init,
    full_admm_oracle_step,
    kkt_residuals,
    lyapunov_distance,
    project_dual,
)
from druid.curvature import BFGS, GRADIENT, NEWTON, SCHEMES, Hyperparams
from druid.errors import (
    ConvergenceError,
    DiagnosticError,
    InapplicableTheoremError,
    InconsistentReferenceError,
)
from druid.network import init_network, sync_step
from druid.problems import (
    L1,
    LEAST_SQUARES,
    ZERO,
    ConsensusProblem,
    LocalObjective,
    Regularizer,
)
from druid.rates import rate_constants
from druid.reference import centralized_reference
from druid.topology import Graph, build_matrices


def hp_for(scheme, problem, **kw):
    M_f = problem.smoothness.M_f
    args = dict(mu_z=1.0, mu_theta=0.5, epsilon=0.55 * M_f, scheme=scheme, leader=0, psi=M_f)
    args.update(kw)
    return Hyperparams(**args)


# --- centralized reference ---------------------------------------------------


def test_reference_unconstrained_quadratic():
    problem = ConsensusProblem.from_objectives(
        [LocalObjective(LEAST_SQUARES, [[1.0]], [2.0])], Regularizer(ZERO)
    )
    ref = centralized_reference(problem)
    assert ref.x_star == pytest.approx([2.0], abs=1e-10)


def test_reference_l1_kills_weak_pull():
    problem = ConsensusProblem.from_objectives(
        [LocalObjective(LEAST_SQUARES, [[1.0]], [0.0])], Regularizer(L1, 1.0)
    )
    ref = centralized_reference(problem)
    assert ref.x_star == pytest.approx([0.0], abs=1e-12)


def coordinate_descent_lasso(A, b, gamma, iters=200_000):
    """Cyclic coordinate minimization of 1/2 ||Ax-b||^2 + gamma ||x||_1."""
    d = A.shape[1]
    x = np.zeros(d)
    col_norms = (A**2).sum(axis=0)
    for _ in range(iters):
        for k in range(d):
            r = b - A @ x + A[:, k] * x[k]
            rho = A[:, k] @ r
            x[k] = np.sign(rho) * max(abs(rho) - gamma, 0.0) / col_norms[k]
    return x


def test_reference_matches_coordinate_descent_on_lasso():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 3))
    b = rng.normal(size=5)
    gamma = 0.4
    problem = ConsensusProblem.from_objectives(
        [LocalObjective(LEAST_SQUARES, A, b)], Regularizer(L1, gamma)
    )
    ref = centralized_reference(problem)
    cd = coordinate_descent_lasso(A, b, gamma, iters=20_000)
    assert np.linalg.norm(ref.x_star - cd) <= 1e-8


def test_reference_raises_on_tiny_budget():
    _, problem = make_lasso_instance()
    with pytest.raises(ConvergenceError):
        centralized_reference(problem, tol=1e-14, max_iter=3)


def test_reference_plain_descent_agrees_with_accelerated():
    _, problem = make_lasso_instance()
    fast = centralized_reference(problem, tol=1e-12)
    plain = centralized_reference(problem, tol=1e-12, accelerated=False)
    assert np.linalg.norm(fast.x_star - plain.x_star) <= 1e-10


# --- KKT residuals -----------------------------------------------------------


def test_kkt_residuals_at_zero_init():
    graph, problem = make_lasso_instance()
    hp = hp_for(GRADIENT, problem)
    ns = init_network(problem, graph, hp)
    r_opt, r_cons, r_reg = kkt_residuals(ns)
    grads = np.stack([obj.gradient(np.zeros(problem.d)) for obj in problem.objectives])
    assert r_opt == pytest.approx(np.linalg.norm(grads))
    assert r_cons == 0.0 and r_reg == 0.0


def test_kkt_residuals_vanish_at_fixed_point():
    graph, problem = make_lasso_instance()
    hp = hp_for(GRADIENT, problem)
    ns = init_network(problem, graph, hp)
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, hp.leader)
    install_fixed_point(ns, ref.x_star, lam)
    assert max(kkt_residuals(ns)) <= 1e-10


# --- unreduced recursion -----------------------------------------------------


@pytest.mark.parametrize("scheme, extra", [
    *[pytest.param(scheme, {}, id=scheme) for scheme in SCHEMES],
    # the curvature bound of criterion 7
    pytest.param(BFGS, dict(bfgs_bounding=True, psi=1000.0), id="bfgs-bounded"),
])
def test_oracle_matches_network_on_two_agents(scheme, extra):
    graph = Graph(2, [(0, 1)])
    objs = [
        LocalObjective(LEAST_SQUARES, [[1.0, 0.2], [0.0, 0.5]], [1.0, -1.0]),
        LocalObjective(LEAST_SQUARES, [[0.7, 0.0], [0.1, 0.9]], [0.5, 2.0]),
    ]
    problem = ConsensusProblem.from_objectives(objs, Regularizer(L1, 0.1))
    hp = hp_for(scheme, problem, epsilon=2.0, **extra)
    ns = init_network(problem, graph, hp)
    st = full_admm_init(problem, graph, hp)
    for _ in range(2):
        sync_step(ns)
        st = full_admm_oracle_step(st, problem, graph, hp)
        assert np.abs(st.x.reshape(2, 2) - ns.X).max() <= 1e-12
        phi_from_alpha = build_matrices(graph).E_s.T @ st.alpha.reshape(graph.n, 2)
        assert np.abs(phi_from_alpha - ns.Phi).max() <= 1e-12
        assert np.abs(st.theta - ns.theta).max() <= 1e-12
        assert np.abs(st.lam - ns.lam).max() <= 1e-12


def test_oracle_invariants_over_long_run():
    graph, problem = make_lasso_instance()
    hp = hp_for(GRADIENT, problem)
    st = full_admm_init(problem, graph, hp)
    tm = build_matrices(graph)
    for _ in range(100):
        st = full_admm_oracle_step(st, problem, graph, hp)
        assert np.abs(st.alpha + st.beta).max() <= 1e-12
        z_manifold = 0.5 * (tm.E_u @ st.x.reshape(graph.m, problem.d))
        assert np.abs(st.z.reshape(graph.n, problem.d) - z_manifold).max() <= 1e-12


def test_oracle_builds_its_operators_once(monkeypatch):
    calls = []
    original = analysis.build_matrices
    monkeypatch.setattr(analysis, "build_matrices",
                        lambda graph: calls.append(graph) or original(graph))
    graph, problem = make_lasso_instance()
    hp = hp_for(BFGS, problem)
    st = full_admm_init(problem, graph, hp)
    for _ in range(100):
        st = full_admm_oracle_step(st, problem, graph, hp)
    assert calls == [graph]


# --- dual recovery -----------------------------------------------------------


def test_project_dual_two_agent_hand_system():
    graph = Graph(2, [(0, 1)])
    objs = [LocalObjective(LEAST_SQUARES, [[1.0]], [b]) for b in (0.0, 2.0)]
    problem = ConsensusProblem.from_objectives(objs, Regularizer(ZERO))
    alpha, lam = project_dual(np.array([1.0]), problem, graph, leader=0, tol=1e-12)
    grads = np.array([[1.0], [-1.0]])
    stat = grads + build_matrices(graph).E_s.T @ alpha
    stat[0] += lam
    assert np.abs(stat).max() <= 1e-12
    assert lam == pytest.approx([0.0], abs=1e-12)


def test_project_dual_zero_gradients():
    graph = Graph(2, [(0, 1)])
    objs = [LocalObjective(LEAST_SQUARES, [[1.0]], [1.0]) for _ in range(2)]
    problem = ConsensusProblem.from_objectives(objs, Regularizer(ZERO))
    alpha, lam = project_dual(np.array([1.0]), problem, graph, leader=1)
    assert np.abs(alpha).max() <= 1e-12 and np.abs(lam).max() <= 1e-12


def test_project_dual_lands_in_column_space():
    graph, problem = make_lasso_instance()
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    tm = build_matrices(graph)
    d = problem.d
    C = np.vstack([np.kron(tm.E_s, np.eye(d)), np.kron(np.eye(graph.m)[0][None, :], np.eye(d))])
    xi = np.concatenate([alpha.ravel(), lam])
    projector = C @ np.linalg.solve(C.T @ C, C.T)  # onto col(C); C^T C is nonsingular
    assert np.linalg.norm(xi - projector @ xi) <= 1e-10


def test_project_dual_rejects_bad_reference():
    graph, problem = make_lasso_instance()
    with pytest.raises(InconsistentReferenceError):
        project_dual(np.full(problem.d, 37.0), problem, graph, leader=0, tol=1e-9)


# --- Lyapunov distances ------------------------------------------------------


def test_lyapunov_zero_at_reference():
    graph, problem = make_lasso_instance()
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    ns = init_network(problem, graph, hp_for(GRADIENT, problem))
    install_fixed_point(ns, ref.x_star, lam)
    assert lyapunov_distance(ns, alpha, ref.x_star, alpha, lam) == 0.0


def test_lyapunov_is_weighted_sum_of_block_distances():
    graph, problem = make_lasso_instance()
    hp = hp_for(GRADIENT, problem, mu_z=2.0, mu_theta=0.25)
    ns = init_network(problem, graph, hp)
    tracker = AlphaTracker(graph, hp.mu_z, problem.d)
    sync_step(ns)
    tracker.update(ns.X)
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    got = lyapunov_distance(ns, tracker.alpha, ref.x_star, alpha, lam)
    z_gap = [0.5 * (ns.X[i] + ns.X[j]) - ref.x_star for i, j in graph.edges]
    expected = (
        hp.epsilon * np.sum((ns.X - ref.x_star) ** 2)
        + 2.0 * hp.mu_z * np.sum(np.square(z_gap))
        + 2.0 / hp.mu_z * np.sum((tracker.alpha - alpha) ** 2)
        + hp.mu_theta * np.sum((ns.theta - ref.x_star) ** 2)
        + 1.0 / hp.mu_theta * np.sum((ns.lam - lam) ** 2)
    )
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracked_edge_duals_reproduce_phi(scheme):
    # the per-agent duals are exactly the signed scatter of the edge duals
    graph, problem = make_lasso_instance()
    hp = hp_for(scheme, problem)
    ns = init_network(problem, graph, hp)
    tracker = AlphaTracker(graph, hp.mu_z, problem.d)
    E_s = build_matrices(graph).E_s
    for _ in range(50):
        sync_step(ns)
        tracker.update(ns.X)
        assert np.abs(E_s.T @ tracker.alpha - ns.Phi).max() <= 1e-12


# --- inexactness term --------------------------------------------------------


def test_error_term_zero_for_newton_on_quadratic():
    graph, problem = make_ridge_instance()
    hp = hp_for(NEWTON, problem)
    rng = np.random.default_rng(0)
    x_t = rng.normal(size=(graph.m, problem.d))
    x_t1 = rng.normal(size=(graph.m, problem.d))
    report = error_term(problem, graph, hp, x_t, x_t1)
    assert report.norm_e <= 1e-12
    assert report.tau_t == 0.0
    assert report.bound_satisfied


def test_error_term_gradient_on_quadratic_is_hessian_action():
    graph, problem = make_ridge_instance()
    hp = hp_for(GRADIENT, problem)
    sm = problem.smoothness
    rng = np.random.default_rng(1)
    x_t = rng.normal(size=(graph.m, problem.d))
    x_t1 = rng.normal(size=(graph.m, problem.d))
    report = error_term(problem, graph, hp, x_t, x_t1)
    dx = x_t1 - x_t
    expected = -np.stack(
        [problem.objectives[i].hessian(x_t[i]) @ dx[i] for i in range(graph.m)]
    )
    assert np.abs(report.e_t - expected).max() <= 1e-12
    assert report.norm_e <= sm.M_f * np.linalg.norm(dx) + 1e-12
    assert report.bound_satisfied


def test_error_term_bfgs_needs_snapshots():
    graph, problem = make_ridge_instance()
    hp = hp_for(BFGS, problem)
    x = np.zeros((graph.m, problem.d))
    with pytest.raises(DiagnosticError):
        error_term(problem, graph, hp, x, x)


def test_smoothness_constants_are_computed_once_per_problem(monkeypatch):
    calls = []
    original = problems.ConsensusProblem.hessian_bounds
    monkeypatch.setattr(problems.ConsensusProblem, "hessian_bounds",
                        lambda problem: calls.append(problem) or original(problem))
    graph, problem = make_logistic_instance()
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.0)
    with pytest.raises(InapplicableTheoremError):  # logistic: m_f = 0
        rate_constants(problem, graph, hp)
    x = np.zeros((graph.m, problem.d))
    for _ in range(3):
        error_term(problem, graph, hp, x, x + 0.1)
    assert len(calls) == 1 and calls[0] is problem
