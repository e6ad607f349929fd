import numpy as np
import pytest

from conftest import (
    incidences,
    install_fixed_point,
    make_lasso_instance,
    make_logistic_instance,
    make_rank_deficient_instance,
    make_ridge_instance,
    objectives_of,
    practical_hp,
    problem_of,
    signed_incidence,
)
from druid import problems, reference
from druid.analysis import (
    BFGS_RECONSTRUCTION_MAX_D,
    advance_edge_duals,
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
from druid.network import init_network, set_state, sync_step
from druid.problems import (
    L1,
    LEAST_SQUARES,
    ConsensusProblem,
    LocalObjective,
    Regularizer,
    prox,
)
from druid.rates import rate_constants
from druid.reference import centralized_reference, fixed_point_residual, total_curvature_bound
from druid.topology import Graph


# --- centralized reference ---------------------------------------------------


def test_reference_unconstrained_quadratic():
    problem = problem_of([LocalObjective(LEAST_SQUARES, [[1.0]], [2.0])], Regularizer())
    ref = centralized_reference(problem)
    assert ref.x_star == pytest.approx([2.0], abs=1e-10)


def test_reference_l1_kills_weak_pull():
    problem = problem_of([LocalObjective(LEAST_SQUARES, [[1.0]], [0.0])], Regularizer(L1, 1.0))
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
    problem = problem_of([LocalObjective(LEAST_SQUARES, A, b)], Regularizer(L1, gamma))
    ref = centralized_reference(problem)
    cd = coordinate_descent_lasso(A, b, gamma, iters=20_000)
    assert np.linalg.norm(ref.x_star - cd) <= 1e-8


def test_reference_raises_on_tiny_budget():
    _, problem = make_lasso_instance()
    with pytest.raises(ConvergenceError):
        centralized_reference(problem, tol=1e-14, max_iter=3)


@pytest.mark.parametrize("tol", [0.0, -1e-12, np.nan, np.inf])
def test_reference_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # a NaN tolerance is never reached: without the check the solver would
    # run its whole budget before failing
    _, problem = make_lasso_instance()
    with pytest.raises(ValueError, match=r"^tol must be a finite number > 0, got "):
        centralized_reference(problem, tol=tol, max_iter=3)


REFERENCE_INSTANCES = [make_lasso_instance, make_ridge_instance, make_logistic_instance,
                       make_rank_deficient_instance]


def count_gradients(monkeypatch):
    """Patch the reference's summed gradient to log each call; the list of
    calls is returned."""
    calls, gradient = [], reference._total_gradient

    def counted(problem, x):
        calls.append(x.copy())
        return gradient(problem, x)

    monkeypatch.setattr(reference, "_total_gradient", counted)
    return calls


@pytest.mark.parametrize("max_iter", [2.5, 0, -1, True, None, "5"])
def test_reference_refuses_a_budget_that_is_not_a_positive_integer(monkeypatch, max_iter):
    _, problem = make_lasso_instance()
    calls = count_gradients(monkeypatch)
    with pytest.raises(ValueError, match=r"^max_iter must be an integer >= 1, got "):
        centralized_reference(problem, max_iter=max_iter)
    assert not calls


def test_reference_takes_a_numpy_integer_budget():
    _, problem = make_lasso_instance()
    assert centralized_reference(problem, max_iter=np.int64(10_000)).residual <= 1e-12


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize("make_instance", REFERENCE_INSTANCES)
def test_reference_takes_one_gradient_per_iteration_and_one_to_confirm(
        monkeypatch, make_instance, tol):
    _, problem = make_instance()
    calls = count_gradients(monkeypatch)
    ref = centralized_reference(problem, tol=tol)
    assert len(calls) == ref.iterations + 1
    # the one extra gradient is the confirmation at the returned point
    assert np.array_equal(calls[-1], ref.x_star)


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize("make_instance", REFERENCE_INSTANCES)
def test_reference_residual_is_the_exact_residual_of_its_solution(make_instance, tol):
    _, problem = make_instance()
    ref = centralized_reference(problem, tol=tol)
    exact = fixed_point_residual(problem, ref.x_star, total_curvature_bound(problem))
    assert ref.residual == exact and exact <= tol


def test_reference_matches_the_ridge_closed_form():
    # sum_i 1/2 ||A_i x - b_i||^2 + gamma ||x||^2 is minimized where
    # (sum_i A_i^T A_i + 2 gamma I) x = sum_i A_i^T b_i
    _, problem = make_ridge_instance()
    A, b, gamma = problem.features, problem.targets, problem.regularizer.gamma
    closed = np.linalg.solve(A.T @ A + 2.0 * gamma * np.eye(problem.d), A.T @ b)
    assert np.linalg.norm(centralized_reference(problem).x_star - closed) <= 1e-10


def two_gradient_reference(problem, tol, accelerated):
    """The reference loop that measures every new iterate's residual with a
    second gradient, stopping at the first within ``tol``; without
    ``accelerated``, plain proximal-gradient descent."""
    lip = total_curvature_bound(problem)
    x = np.zeros(problem.d)
    y = x.copy()
    t_momentum = 1.0
    for _ in range(100_000):
        x_new = prox(problem.regularizer, lip, y - reference._total_gradient(problem, y) / lip)
        if not accelerated or float((y - x_new) @ (x_new - x)) > 0.0:
            t_momentum = 1.0
            y = x_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
            y = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            t_momentum = t_next
        x = x_new
        if fixed_point_residual(problem, x, lip) <= tol:
            return x
    raise AssertionError("the two-gradient loop did not converge")


@pytest.mark.parametrize("accelerated", [True, False], ids=["accelerated", "plain"])
@pytest.mark.parametrize("make_instance", REFERENCE_INSTANCES)
def test_reference_agrees_with_the_two_gradient_loop(make_instance, accelerated):
    # the plain loop cross-checks the solver against descent without momentum
    _, problem = make_instance()
    ref = centralized_reference(problem)
    oracle = two_gradient_reference(problem, 1e-12, accelerated)
    assert np.linalg.norm(ref.x_star - oracle) <= 1e-10


def test_reference_refuses_a_problem_without_curvature():
    # all-zero features: every Hessian bound is 0, so there is no step 1/L
    problem = ConsensusProblem(LEAST_SQUARES, np.zeros((4, 2)), np.ones(4), [2, 2])
    with pytest.raises(ConvergenceError, match="^smooth part has no curvature bound$"):
        centralized_reference(problem)


def test_reference_solutions_compare_without_raising():
    _, problem = make_lasso_instance()
    ref = centralized_reference(problem)
    assert ref == ref
    assert ref != centralized_reference(problem)  # identity: two solves are two objects


# --- KKT residuals -----------------------------------------------------------


def test_kkt_residuals_at_zero_init():
    graph, problem = make_lasso_instance()
    hp = practical_hp(GRADIENT, problem)
    ns = init_network(problem, graph, hp)
    r_opt, r_cons, r_reg = kkt_residuals(ns)
    grads = np.stack([obj.gradient(np.zeros(problem.d)) for obj in objectives_of(problem)])
    assert r_opt == pytest.approx(np.linalg.norm(grads))
    assert r_cons == 0.0 and r_reg == 0.0


def test_kkt_residuals_vanish_at_fixed_point():
    graph, problem = make_lasso_instance()
    hp = practical_hp(GRADIENT, problem)
    ns = init_network(problem, graph, hp)
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, hp.leader)
    install_fixed_point(ns, ref.x_star, lam)
    assert max(kkt_residuals(ns)) <= 1e-10


# --- unreduced recursion -----------------------------------------------------


def make_two_agent_instance():
    graph = Graph(2, [(0, 1)])
    objs = [
        LocalObjective(LEAST_SQUARES, [[1.0, 0.2], [0.0, 0.5]], [1.0, -1.0]),
        LocalObjective(LEAST_SQUARES, [[0.7, 0.0], [0.1, 0.9]], [0.5, 2.0]),
    ]
    return graph, problem_of(objs, Regularizer(L1, 0.1))


#: (instance builder, whether the last agent leads, id suffix): least squares
#: on two agents and logistic on five, each led by its first and last agent;
#: logistic Newton is the one run whose curvature is factored every step
ORACLE_CASES = [
    (make_two_agent_instance, False, ""), (make_two_agent_instance, True, "-leader-last"),
    (make_logistic_instance, False, "-logistic"),
    (make_logistic_instance, True, "-logistic-leader-last"),
]


@pytest.mark.parametrize("scheme, extra, make_instance, leader_last", [
    pytest.param(scheme, extra, make_instance, leader_last, id=name + suffix)
    for scheme, extra, name in [
        *[(scheme, {}, scheme) for scheme in SCHEMES],
        # the curvature bound of criterion 7
        (BFGS, dict(bfgs_bounding=True, psi=1000.0), "bfgs-bounded"),
    ]
    for make_instance, leader_last, suffix in ORACLE_CASES
])
def test_oracle_matches_network_on_two_agents(scheme, extra, make_instance, leader_last):
    graph, problem = make_instance()
    leader = graph.m - 1 if leader_last else 0
    hp = practical_hp(scheme, problem, epsilon=2.0, leader=leader, **extra)
    ns = init_network(problem, graph, hp)
    st = full_admm_init(problem, graph, hp)
    E_s = signed_incidence(graph)
    for _ in range(2):
        sync_step(ns)
        st = full_admm_oracle_step(st)
        assert np.abs(st.x - ns.X).max() <= 1e-12
        assert np.abs(E_s.T @ st.alpha - ns.Phi).max() <= 1e-12
        assert np.abs(st.theta - ns.theta).max() <= 1e-12
        assert np.abs(st.lam - ns.lam).max() <= 1e-12


def test_oracle_invariants_over_long_run():
    graph, problem = make_lasso_instance()
    hp = practical_hp(GRADIENT, problem)
    st = full_admm_init(problem, graph, hp)
    A_s, A_d = incidences(graph)
    for _ in range(100):
        st = full_admm_oracle_step(st)
        assert np.abs(st.alpha + st.beta).max() <= 1e-12
        z_manifold = 0.5 * ((A_s + A_d) @ st.x)
        assert np.abs(st.z - z_manifold).max() <= 1e-12


def test_oracle_state_holds_only_network_shapes():
    graph, problem = make_lasso_instance()
    hp = practical_hp(BFGS, problem)
    st = full_admm_init(problem, graph, hp)
    for _ in range(100):
        st = full_admm_oracle_step(st)
    assert st.problem is problem and st.graph is graph and st.hp is hp
    # the iterates, edge variables and BFGS models only: no (n, m) incidence
    # and no Kronecker block of (2nd, md) entries
    m, n, d = graph.m, graph.n, problem.d
    sizes = {name: value.size for name, value in vars(st).items() if isinstance(value, np.ndarray)}
    assert sizes and max(sizes.values()) <= max(m * d * d, n * d), sizes


# --- dual recovery -----------------------------------------------------------


def test_project_dual_two_agent_hand_system():
    graph = Graph(2, [(0, 1)])
    objs = [LocalObjective(LEAST_SQUARES, [[1.0]], [b]) for b in (0.0, 2.0)]
    problem = problem_of(objs, Regularizer())
    alpha, lam = project_dual(np.array([1.0]), problem, graph, leader=0)
    grads = np.array([[1.0], [-1.0]])
    stat = grads + signed_incidence(graph).T @ alpha
    stat[0] += lam
    assert np.abs(stat).max() <= 1e-12
    assert lam == pytest.approx([0.0], abs=1e-12)


def test_project_dual_zero_gradients():
    graph = Graph(2, [(0, 1)])
    objs = [LocalObjective(LEAST_SQUARES, [[1.0]], [1.0]) for _ in range(2)]
    problem = problem_of(objs, Regularizer())
    alpha, lam = project_dual(np.array([1.0]), problem, graph, leader=1)
    assert np.abs(alpha).max() <= 1e-12 and np.abs(lam).max() <= 1e-12


def test_project_dual_lands_in_column_space():
    graph, problem = make_lasso_instance()
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    d = problem.d
    C = np.vstack([np.kron(signed_incidence(graph), np.eye(d)),
                   np.kron(np.eye(graph.m)[0][None, :], np.eye(d))])
    xi = np.concatenate([alpha.ravel(), lam])
    projector = C @ np.linalg.solve(C.T @ C, C.T)  # onto col(C); C^T C is nonsingular
    assert np.linalg.norm(xi - projector @ xi) <= 1e-10


def test_project_dual_rejects_bad_reference():
    graph, problem = make_lasso_instance()
    with pytest.raises(InconsistentReferenceError):
        project_dual(np.full(problem.d, 37.0), problem, graph, leader=0)


def test_project_dual_rejects_a_point_whose_solve_is_not_stationary():
    # far from the optimum the gradients are so large that the solve's
    # rounding alone leaves a stationarity residual above the tolerance
    graph, problem = make_lasso_instance()
    with pytest.raises(InconsistentReferenceError, match="^stationarity residual .* exceeds"):
        project_dual(np.full(problem.d, 1e10), problem, graph, leader=0)


# --- Lyapunov distances ------------------------------------------------------


def test_lyapunov_zero_at_reference():
    graph, problem = make_lasso_instance()
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    ns = init_network(problem, graph, practical_hp(GRADIENT, problem))
    install_fixed_point(ns, ref.x_star, lam)
    assert lyapunov_distance(ns, alpha, ref.x_star, alpha, lam) == 0.0


def test_lyapunov_is_weighted_sum_of_block_distances():
    graph, problem = make_lasso_instance()
    hp = practical_hp(GRADIENT, problem, mu_z=2.0, mu_theta=0.25)
    ns = init_network(problem, graph, hp)
    sync_step(ns)
    edge_duals = advance_edge_duals(ns, np.zeros((graph.n, problem.d)))
    ref = centralized_reference(problem, tol=1e-13)
    alpha, lam = project_dual(ref.x_star, problem, graph, leader=0)
    got = lyapunov_distance(ns, edge_duals, ref.x_star, alpha, lam)
    z_gap = [0.5 * (ns.X[i] + ns.X[j]) - ref.x_star for i, j in graph.edges]
    expected = (
        hp.epsilon * np.sum((ns.X - ref.x_star) ** 2)
        + 2.0 * hp.mu_z * np.sum(np.square(z_gap))
        + 2.0 / hp.mu_z * np.sum((edge_duals - alpha) ** 2)
        + hp.mu_theta * np.sum((ns.theta - ref.x_star) ** 2)
        + 1.0 / hp.mu_theta * np.sum((ns.lam - lam) ** 2)
    )
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tracked_edge_duals_reproduce_phi(scheme):
    # the per-agent duals are exactly the signed scatter of the edge duals
    graph, problem = make_lasso_instance()
    hp = practical_hp(scheme, problem)
    ns = init_network(problem, graph, hp)
    alpha = np.zeros((graph.n, problem.d))
    E_s = signed_incidence(graph)
    for _ in range(50):
        sync_step(ns)
        alpha = advance_edge_duals(ns, alpha)
        assert np.abs(E_s.T @ alpha - ns.Phi).max() <= 1e-12


# --- inexactness term --------------------------------------------------------


def network_at(problem, graph, hp, X):
    """A network state moved by hand to the iterates ``X``."""
    return set_state(init_network(problem, graph, hp), X=X)


def test_error_term_zero_for_newton_on_quadratic():
    graph, problem = make_ridge_instance()
    hp = practical_hp(NEWTON, problem)
    rng = np.random.default_rng(0)
    x_t = rng.normal(size=(graph.m, problem.d))
    x_t1 = rng.normal(size=(graph.m, problem.d))
    report = error_term(network_at(problem, graph, hp, x_t1), x_t)
    assert report.norm_e <= 1e-12
    assert report.tau_t == 0.0
    assert report.bound_satisfied


def test_error_term_gradient_on_quadratic_is_hessian_action():
    graph, problem = make_ridge_instance()
    hp = practical_hp(GRADIENT, problem)
    sm = problem.smoothness
    rng = np.random.default_rng(1)
    x_t = rng.normal(size=(graph.m, problem.d))
    x_t1 = rng.normal(size=(graph.m, problem.d))
    report = error_term(network_at(problem, graph, hp, x_t1), x_t)
    dx = x_t1 - x_t
    expected = -np.stack(
        [obj.hessian(x) @ step for obj, x, step in zip(objectives_of(problem), x_t, dx)]
    )
    assert np.abs(report.e_t - expected).max() <= 1e-12
    assert report.norm_e <= sm.M_f * np.linalg.norm(dx) + 1e-12
    assert report.bound_satisfied


def test_error_term_bfgs_needs_snapshots():
    graph, problem = make_ridge_instance()
    ns = init_network(problem, graph, practical_hp(BFGS, problem))
    with pytest.raises(DiagnosticError, match="inverse estimates before the step"):
        error_term(ns, ns.X.copy())


def test_error_term_bfgs_reconstruction_is_capped():
    d = BFGS_RECONSTRUCTION_MAX_D + 1
    graph = Graph(2, [(0, 1)])
    problem = ConsensusProblem(LEAST_SQUARES, np.eye(2, d), np.ones(2), [1, 1])
    ns = init_network(problem, graph, practical_hp(BFGS, problem))
    with pytest.raises(DiagnosticError, match=f"capped at d={d - 1}, got d={d}$"):
        error_term(ns, ns.X.copy(), bfgs_prev=ns.B.copy())


def test_smoothness_constants_are_computed_once_per_problem(monkeypatch):
    calls = []
    original = problems.ConsensusProblem.hessian_bounds
    monkeypatch.setattr(problems.ConsensusProblem, "hessian_bounds",
                        lambda problem: calls.append(problem) or original(problem))
    graph, problem = make_logistic_instance()
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.0)
    with pytest.raises(InapplicableTheoremError):  # logistic: m_f = 0
        rate_constants(problem, graph, hp)
    ns = network_at(problem, graph, hp, np.full((graph.m, problem.d), 0.1))
    for _ in range(3):
        error_term(ns, np.zeros((graph.m, problem.d)))
    assert len(calls) == 1 and calls[0] is problem
