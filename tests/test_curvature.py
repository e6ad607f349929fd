import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import make_lasso_instance, make_logistic_instance, newton_block, objectives_of, problem_of
from druid.curvature import (
    BFGS,
    CONSTANT_NEWTON,
    GRADIENT,
    KERNELS,
    NEWTON,
    Hyperparams,
    bfgs_inverse_update,
    bfgs_pair,
    block_diag_value,
    solve_direction,
)
from druid.network import apply_step, init_network, local_gradient, sync_step
from druid.problems import LEAST_SQUARES, LOGISTIC, LocalObjective
from druid.topology import Graph


def random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T + d * np.eye(d)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(mu_z=0.0, mu_theta=1.0, epsilon=1.0)
    with pytest.raises(ValueError):
        Hyperparams(mu_z=1.0, mu_theta=1.0, epsilon=1.0, scheme="secant")
    with pytest.raises(ValueError):
        Hyperparams(mu_z=1.0, mu_theta=1.0, epsilon=1.0, psi=-2.0)
    base = dict(mu_z=1.0, mu_theta=1.0, epsilon=1.0, psi=1.0)
    for name in base:
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                Hyperparams(**{**base, name: bad})
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="leader"):
            Hyperparams(**base, leader=bad)
    assert Hyperparams(**base, leader=np.int64(1)).leader == 1


def test_block_diag_value_hand_cases():
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=0.1)
    assert block_diag_value(hp, 2, True) == pytest.approx(2.6)
    assert block_diag_value(hp, 1, False) == pytest.approx(1.1)
    # constant: does not depend on any iterate
    assert block_diag_value(hp, 2, True) == block_diag_value(hp, 2, True)


def test_newton_block_hand_case():
    obj = LocalObjective(LEAST_SQUARES, [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=0.1, scheme=NEWTON)
    block = newton_block(obj, np.zeros(2), hp, degree=2, is_leader=False)
    assert np.allclose(block, np.diag([3.1, 6.1]))


def test_newton_block_zero_objective_is_shift_times_identity():
    obj = LocalObjective(LEAST_SQUARES, np.zeros((1, 3)), [0.0])
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=0.1, scheme=NEWTON)
    block = newton_block(obj, np.ones(3), hp, degree=1, is_leader=True)
    assert np.allclose(block, 1.6 * np.eye(3))


def test_newton_block_equals_gradient_block_plus_hessian():
    rng = np.random.default_rng(0)
    obj = LocalObjective(LOGISTIC, rng.normal(size=(8, 3)), (rng.random(8) < 0.5).astype(float))
    hp = Hyperparams(mu_z=0.8, mu_theta=0.4, epsilon=0.2, scheme=NEWTON)
    x = rng.normal(size=3)
    expected = obj.hessian(x) + block_diag_value(hp, 3, False) * np.eye(3)
    assert np.array_equal(newton_block(obj, x, hp, 3, False), expected)


def test_newton_block_smallest_eigenvalue_at_least_epsilon():
    rng = np.random.default_rng(1)
    hp = Hyperparams(mu_z=0.5, mu_theta=0.25, epsilon=0.3, scheme=NEWTON)
    for _ in range(50):
        obj = LocalObjective(LOGISTIC, rng.normal(size=(5, 3)), (rng.random(5) < 0.5).astype(float))
        block = newton_block(obj, rng.normal(size=3), hp, degree=2, is_leader=False)
        assert np.linalg.eigvalsh(block)[0] >= hp.epsilon - 1e-12


def test_bfgs_pair_zero_step():
    grad0 = np.array([1.0, -1.0])
    s, q = bfgs_pair(np.zeros(2), np.zeros(2), grad0, np.array([1.0, -1.0]), 1.5)
    assert np.array_equal(s, np.zeros(2))
    assert np.array_equal(q, np.zeros(2))


def test_bfgs_pair_scalar_hand_case():
    # f(x) = x^2 / 2, x moving 0 -> 1, shift mu_z * 1 + epsilon = 1.1
    s, q = bfgs_pair(np.zeros(1), np.array([1.0]), np.array([0.0]), np.array([1.0]), 1.1)
    assert s == pytest.approx([1.0])
    assert q == pytest.approx([2.1])


def test_bfgs_pair_curvature_lower_bound():
    rng = np.random.default_rng(2)
    shift = 0.9
    for _ in range(100):
        obj = LocalObjective(LEAST_SQUARES, rng.normal(size=(5, 3)), rng.normal(size=5))
        x0, x1 = rng.normal(size=3), rng.normal(size=3)
        s, q = bfgs_pair(x0, x1, obj.gradient(x0), obj.gradient(x1), shift)
        assert q @ s >= shift * (s @ s) - 1e-10


def test_bfgs_update_scalar_secant():
    out = bfgs_inverse_update(np.array([[[1.0]]]), np.array([[0.5]]), np.array([[2.0]]))
    assert out[0, 0, 0] == pytest.approx(0.25)


def test_bfgs_update_skips_zero_step():
    B = np.eye(2)[None]
    assert bfgs_inverse_update(B, np.zeros((1, 2)), np.ones((1, 2))) is B
    assert bfgs_inverse_update(B, np.ones((1, 2)), -np.ones((1, 2))) is B  # negative curvature


def test_bfgs_update_satisfies_secant_condition():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.integers(2, 6)
        B = random_spd(rng, d)
        s = rng.normal(size=d)
        q = random_spd(rng, d) @ s  # guarantees q^T s > 0
        out = bfgs_inverse_update(B[None], s[None], q[None])[0]
        assert np.linalg.norm(out @ q - s) <= 1e-10 * max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(out - out.T) <= 1e-12


def test_bfgs_update_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        bfgs_inverse_update(np.eye(2)[None], np.array([[np.nan, 0.0]]), np.ones((1, 2)))


def test_bfgs_update_with_bounding_keeps_minimum_eigenvalue():
    rng = np.random.default_rng(4)
    psi = 5.0
    B = np.eye(3)
    x = np.zeros(3)
    H_true = random_spd(rng, 3)
    for _ in range(200):
        x_new = rng.normal(size=3)
        s = x_new - x
        q = H_true @ s
        if q @ s > 0:
            B = bfgs_inverse_update(B[None], s[None], q[None], psi=psi)[0]
            assert np.linalg.eigvalsh(B)[0] >= 1.0 / psi - 1e-12
        x = x_new


def test_bfgs_stays_positive_definite_over_many_updates():
    rng = np.random.default_rng(5)
    H_true = random_spd(rng, 3)
    B = np.eye(3) / 2.0
    x = np.zeros(3)
    for k in range(1000):
        x_new = rng.normal(size=3)
        s = x_new - x
        B = bfgs_inverse_update(B[None], s[None], (H_true @ s)[None])[0]
        x = x_new
        if k % 50 == 0:
            assert np.linalg.eigvalsh(B)[0] > 0
    assert np.linalg.eigvalsh(B)[0] > 0


def test_solve_direction_gradient():
    u = solve_direction(KERNELS[GRADIENT], np.array([2.6]), np.array([[2.6, 0.0]]))
    assert u[0] == pytest.approx([1.0, 0.0])


def test_solve_direction_newton():
    u = solve_direction(KERNELS[NEWTON], np.diag([2.0, 4.0])[None], np.array([[2.0, 4.0]]))
    assert u[0] == pytest.approx([1.0, 1.0])


def test_solve_direction_newton_residual():
    rng = np.random.default_rng(6)
    H = random_spd(rng, 5)
    h = rng.normal(size=5)
    u = solve_direction(KERNELS[NEWTON], H[None], h[None])[0]
    assert np.linalg.norm(H @ u - h) <= 1e-10 * np.linalg.norm(h)


def test_solve_direction_bfgs_matches_newton_with_exact_inverse():
    rng = np.random.default_rng(7)
    H = random_spd(rng, 3)
    h = rng.normal(size=3)
    newton = solve_direction(KERNELS[NEWTON], H[None], h[None])[0]
    bfgs = solve_direction(KERNELS[BFGS], np.linalg.inv(H)[None], h[None])[0]
    assert np.linalg.norm(bfgs - newton) <= 1e-12 * max(1.0, np.linalg.norm(newton))


@pytest.mark.parametrize("kern", [CONSTANT_NEWTON, KERNELS[BFGS]], ids=["constant-newton", "bfgs"])
@pytest.mark.parametrize("k, d", [(100, 50), (8, 40), (10, 3), (7, 1)])
def test_model_rows_are_each_agents_own_product_bitwise(kern, k, d):
    # the einsum before summed in another order than a row's own matrix-vector product
    rng = np.random.default_rng(k * d)
    B = rng.normal(size=(k, d, d))
    B = B + B.transpose(0, 2, 1)
    H = rng.normal(size=(k, d))
    own = np.stack([B[i] @ H[i] for i in range(k)])
    assert np.array_equal(solve_direction(kern, B, H), own)
    rows = rng.permutation(k)[: max(1, k // 3)]   # a gathered subset, as a partial step has
    assert np.array_equal(solve_direction(kern, B[rows], H[rows]), own[rows])


def test_init_curvature_bfgs_matches_constant_inverse():
    # agent 1 of a 3-path: degree 2, not the leader, shift mu_z * 2 + epsilon = 2.0
    objs = [LocalObjective(LEAST_SQUARES, np.eye(3), np.zeros(3)) for _ in range(3)]
    hp = Hyperparams(mu_z=0.5, mu_theta=0.5, epsilon=1.0, scheme=BFGS)
    ns = init_network(problem_of(objs), Graph(3, [(0, 1), (1, 2)]), hp)
    assert ns.shift[1] == 2.0
    assert np.allclose(ns.B[1], np.eye(3) / 2.0)
    assert np.array_equal(ns.X[1], np.zeros(3))
    assert np.array_equal(ns.G[1], np.zeros(3))


def product_form_update(B, s, q, psi=None):
    """Textbook inverse update (I - rho s q^T) B (I - rho q s^T) + rho s s^T, one model."""
    qs = q @ s
    if qs <= 1e-12 * np.linalg.norm(q) * np.linalg.norm(s) or not np.any(s):
        return B
    rho = 1.0 / qs
    V = np.eye(len(s)) - rho * np.outer(s, q)
    out = V @ B @ V.T + rho * np.outer(s, s)
    return out if psi is None else out + np.eye(len(s)) / psi


def mixed_pairs(rng, k=9, d=4):
    """Symmetric positive definite models with accepted pairs, zero steps and
    negative-curvature pairs interleaved."""
    B = np.stack([random_spd(rng, d) / d for _ in range(k)])
    s = rng.normal(size=(k, d))
    q = np.stack([random_spd(rng, d) @ si for si in s])
    s[1::3] = 0.0
    q[2::3] = -s[2::3]
    return B, s, q


@pytest.mark.parametrize("psi", [None, 3.0])
def test_bfgs_update_stacked_equals_per_row(psi):
    rng = np.random.default_rng(11)
    for _ in range(20):
        B, s, q = mixed_pairs(rng)
        before = B.copy()
        out = bfgs_inverse_update(B, s, q, psi=psi)
        assert np.array_equal(B, before)  # the input stack is not written
        for k in range(len(B)):
            expected = product_form_update(B[k], s[k], q[k], psi)
            assert np.abs(out[k] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
            row = slice(k, k + 1)
            assert np.array_equal(out[k], bfgs_inverse_update(B[row], s[row], q[row], psi=psi)[0])
            if k % 3:  # zero step or negative curvature: skipped, bit for bit
                assert np.array_equal(out[k], B[k])
            assert np.array_equal(out[k], out[k].T)


def test_bfgs_update_all_skipped_stack_is_returned_itself():
    rng = np.random.default_rng(12)
    B, s, q = mixed_pairs(rng)
    s[0::3] = 0.0
    assert bfgs_inverse_update(B, s, q) is B
    assert bfgs_inverse_update(B, s, q, psi=2.0) is B


@pytest.mark.parametrize("every", [True, False], ids=["every-row", "some-rows"])
def test_bfgs_refresh_with_every_pair_skipped_changes_nothing(every):
    graph, problem = make_logistic_instance()
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.5, scheme=BFGS, leader=0)
    ns = init_network(problem, graph, hp)
    for _ in range(3):
        sync_step(ns)
    B, before = ns.B, ns.B.copy()
    rows = np.arange(graph.m) if every else np.arange(0, graph.m, 2)
    # no row moved: every step is zero, so every pair is skipped
    models = KERNELS[BFGS].build(ns, rows)
    x, g = ns.X[rows], ns.G[rows]
    assert KERNELS[BFGS].refresh(ns, rows, models, x, x, g, g) is None
    assert ns.B is B and np.array_equal(ns.B, before)


def test_full_bfgs_refresh_keeps_the_fresh_stack_and_leaves_the_old_one():
    graph, problem = make_logistic_instance()
    hp = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.5, scheme=BFGS, leader=0)
    ns = init_network(problem, graph, hp)
    sync_step(ns)
    returned = []

    def spy(*args):
        returned.append(KERNELS[BFGS].refresh(*args))
        return returned[-1]

    ns.kernel = dataclasses.replace(ns.kernel, refresh=spy)
    B, before = ns.B, ns.B.copy()
    sync_step(ns)
    (new,) = returned
    assert new is not None and ns.B is new
    assert np.array_equal(B, before)  # the previous stack is not written


def test_bfgs_update_stacked_rejects_non_finite_in_any_row():
    rng = np.random.default_rng(13)
    for name in ("B", "s", "q"):
        for bad in (np.nan, np.inf):
            B, s, q = mixed_pairs(rng)
            arrays = {"B": B, "s": s, "q": q}
            arrays[name][4].flat[1] = bad
            with pytest.raises(FloatingPointError):
                bfgs_inverse_update(B, s, q)


NEWTON_HP = Hyperparams(mu_z=1.0, mu_theta=0.5, epsilon=1.5, scheme=NEWTON, leader=0)


def test_newton_least_squares_inverts_constant_block_once(monkeypatch):
    graph, problem = make_lasso_instance()
    hp = NEWTON_HP
    ns = init_network(problem, graph, hp)
    d = problem.d
    for i, obj in enumerate(objectives_of(problem)):
        expected = np.linalg.inv(obj.features.T @ obj.features + ns.shift[i] * np.eye(d))
        assert np.abs(ns.B[i] - expected).max() <= 1e-12 * np.abs(expected).max()
    for _ in range(3):
        sync_step(ns)

    def forbidden(*args, **kwargs):
        raise AssertionError("least-squares Newton step evaluated a Hessian or solved a system")

    monkeypatch.setattr(LocalObjective, "hessian", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    B0 = ns.B.copy()
    x_old, H = ns.X.copy(), local_gradient(ns, np.arange(graph.m))
    sync_step(ns)
    x_new = ns.X.copy()
    apply_step(ns, np.arange(graph.m) % 2 == 0)
    assert np.array_equal(ns.B, B0)  # the model never changes
    monkeypatch.undo()
    for i, obj in enumerate(objectives_of(problem)):
        block = newton_block(obj, x_old[i], hp, graph.degrees[i], i == hp.leader)
        step = x_old[i] - scipy.linalg.cho_solve(scipy.linalg.cho_factor(block), H[i])
        assert np.abs(x_new[i] - step).max() <= 1e-12 * max(1.0, np.abs(step).max())


def test_newton_logistic_batched_solve_is_bitwise_the_per_row_loop():
    graph, problem = make_logistic_instance()
    hp = NEWTON_HP
    ns = init_network(problem, graph, hp)
    assert ns.B is None
    rng = np.random.default_rng(14)
    for _ in range(3):
        sync_step(ns)
        blocks = np.stack([
            newton_block(obj, x, hp, graph.degrees[i], i == hp.leader)
            for i, (obj, x) in enumerate(zip(objectives_of(problem), ns.X))
        ])
        H = rng.normal(size=ns.X.shape)
        loop = np.stack([np.linalg.solve(block, h) for block, h in zip(blocks, H)])
        assert np.array_equal(solve_direction(KERNELS[NEWTON], blocks, H), loop)
    empty = solve_direction(KERNELS[NEWTON], np.empty((0, problem.d, problem.d)),
                            np.empty((0, problem.d)))
    assert empty.shape == (0, problem.d)


def test_newton_logistic_empty_and_full_masks():
    graph, problem = make_logistic_instance()
    hp = NEWTON_HP
    ns = init_network(problem, graph, hp)
    for _ in range(3):
        sync_step(ns)
    frozen = copy.deepcopy(ns)
    apply_step(ns, np.zeros(graph.m, dtype=bool))
    for name in ("X", "Phi", "theta", "lam", "G"):
        assert np.array_equal(getattr(ns, name), getattr(frozen, name))
    sync_step(ns)
    apply_step(frozen, np.ones(graph.m, dtype=bool))
    for name in ("X", "Phi", "theta", "lam", "G"):
        assert np.array_equal(getattr(ns, name), getattr(frozen, name))
