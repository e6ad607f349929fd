import numpy as np
import pytest

from druid.curvature import (
    BFGS,
    GRADIENT,
    NEWTON,
    Hyperparams,
    bfgs_inverse_update,
    bfgs_pair,
    block_diag_value,
    newton_block,
    solve_direction,
)
from druid.network import ConsensusProblem, init_network
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
    out = bfgs_inverse_update(np.array([[1.0]]), np.array([0.5]), np.array([2.0]))
    assert out[0, 0] == pytest.approx(0.25)


def test_bfgs_update_skips_zero_step():
    B = np.eye(2)
    assert bfgs_inverse_update(B, np.zeros(2), np.ones(2)) is B
    assert bfgs_inverse_update(B, np.ones(2), -np.ones(2)) is B  # negative curvature


def test_bfgs_update_satisfies_secant_condition():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.integers(2, 6)
        B = random_spd(rng, d)
        s = rng.normal(size=d)
        q = random_spd(rng, d) @ s  # guarantees q^T s > 0
        out = bfgs_inverse_update(B, s, q)
        assert np.linalg.norm(out @ q - s) <= 1e-10 * max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(out - out.T) <= 1e-12


def test_bfgs_update_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        bfgs_inverse_update(np.eye(2), np.array([np.nan, 0.0]), np.ones(2))


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
            B = bfgs_inverse_update(B, s, q, psi=psi)
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
        B = bfgs_inverse_update(B, s, H_true @ s)
        x = x_new
        if k % 50 == 0:
            assert np.linalg.eigvalsh(B)[0] > 0
    assert np.linalg.eigvalsh(B)[0] > 0


def test_solve_direction_gradient():
    u = solve_direction(GRADIENT, np.array([2.6]), np.array([[2.6, 0.0]]))
    assert u[0] == pytest.approx([1.0, 0.0])


def test_solve_direction_newton():
    u = solve_direction(NEWTON, np.diag([2.0, 4.0])[None], np.array([[2.0, 4.0]]))
    assert u[0] == pytest.approx([1.0, 1.0])


def test_solve_direction_newton_residual():
    rng = np.random.default_rng(6)
    H = random_spd(rng, 5)
    h = rng.normal(size=5)
    u = solve_direction(NEWTON, H[None], h[None])[0]
    assert np.linalg.norm(H @ u - h) <= 1e-10 * np.linalg.norm(h)


def test_solve_direction_bfgs_matches_newton_with_exact_inverse():
    rng = np.random.default_rng(7)
    H = random_spd(rng, 3)
    h = rng.normal(size=3)
    newton = solve_direction(NEWTON, H[None], h[None])[0]
    bfgs = solve_direction(BFGS, np.linalg.inv(H)[None], h[None])[0]
    assert np.linalg.norm(bfgs - newton) <= 1e-12 * max(1.0, np.linalg.norm(newton))


def test_init_curvature_bfgs_matches_constant_inverse():
    # agent 1 of a 3-path: degree 2, not the leader, shift mu_z * 2 + epsilon = 2.0
    objs = [LocalObjective(LEAST_SQUARES, np.eye(3), np.zeros(3)) for _ in range(3)]
    hp = Hyperparams(mu_z=0.5, mu_theta=0.5, epsilon=1.0, scheme=BFGS)
    ns = init_network(ConsensusProblem(objs), Graph(3, [(0, 1), (1, 2)]), hp)
    assert ns.shift[1] == 2.0
    assert np.allclose(ns.B[1], np.eye(3) / 2.0)
    assert np.array_equal(ns.X[1], np.zeros(3))
    assert np.array_equal(ns.G[1], np.zeros(3))
