import math
import warnings

import numpy as np
import pytest

import almlab as al


def random_instance(seed, d=4, p=2):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    Q = 0.5 * (B @ B.T + B.T @ B) / d + 0.1 * np.eye(d)
    f = al.CompositeFunction.single(al.Quadratic(Q, rng.standard_normal(d)))
    A = rng.standard_normal((p, d))
    return al.ProblemInstance(f, A, rng.standard_normal(p), 1.3, name="rand")


def test_aug_lagrangian_example(qp_scalar):
    # 0.5*1^2 + 1*1 + (2/2)*1^2 = 2.5, and 1.5 without the penalty
    pb = qp_scalar(rho=2.0)
    x, lam = np.array([1.0]), np.array([1.0])
    assert al.aug_lagrangian(pb, x, lam) == 2.5
    assert al.lagrangian(pb, x, lam) == 1.5


def test_penalty_vanishes_on_feasible_points():
    pb = random_instance(0)
    rng = np.random.default_rng(1)
    # pick x with A x = b via least squares, then perturb inside the null space
    x_feas, *_ = np.linalg.lstsq(pb.A, pb.b, rcond=None)
    lam = rng.standard_normal(pb.p)
    assert al.aug_lagrangian(pb, x_feas, lam) == pytest.approx(
        pb.f.value(x_feas), abs=1e-9)
    assert al.lagrangian(pb, x_feas, np.zeros(pb.p)) == pytest.approx(
        pb.f.value(x_feas), abs=1e-12)


def test_aug_equals_lagrangian_plus_penalty_bitwise():
    pb = random_instance(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-5, 5, pb.d)
        lam = rng.uniform(-5, 5, pb.p)
        r = pb.A @ x - pb.b
        lhs = al.aug_lagrangian(pb, x, lam)
        rhs = al.lagrangian(pb, x, lam) + 0.5 * pb.rho * float(r @ r)
        assert lhs == rhs  # identical floating evaluation order


def test_aug_lagrangian_infinite_iff_f_infinite():
    f = al.CompositeFunction.single(al.Nonneg(2))
    pb = al.ProblemInstance(f, np.ones((1, 2)), np.zeros(1), 1.0)
    assert al.aug_lagrangian(pb, np.array([-1.0, 3.0]), np.zeros(1)) == math.inf
    assert al.lagrangian(pb, np.array([-1.0, 3.0]), np.zeros(1)) == math.inf
    assert math.isfinite(al.aug_lagrangian(pb, np.array([1.0, 3.0]), np.ones(1)))


@pytest.mark.parametrize("value", [al.lagrangian, al.aug_lagrangian],
                         ids=["lagrangian", "aug_lagrangian"])
def test_overflowing_f_raises_and_is_not_reported_outside_dom_f(value):
    # x is inside the box, and the linear block overflows f(x) to -inf
    f = al.CompositeFunction([(al.Box(np.zeros(1), np.ones(1)), (0, 1)),
                              (al.Linear(np.array([-10.0])), (1, 2))])
    pb = al.ProblemInstance(f, np.array([[1.0, 0.0]]), np.array([0.5]), 1.0)
    with pytest.raises(al.ValidationError, match="overflows"):
        value(pb, np.array([0.5, 1e308]), np.zeros(1))
    assert value(pb, np.array([-1.0, 1e308]), np.zeros(1)) == math.inf


def test_aug_lagrangian_midpoint_convexity_in_x():
    pb = random_instance(4)
    rng = np.random.default_rng(5)
    lam = rng.standard_normal(pb.p)
    for _ in range(100):
        x1 = rng.uniform(-5, 5, pb.d)
        x2 = rng.uniform(-5, 5, pb.d)
        mid = al.aug_lagrangian(pb, 0.5 * (x1 + x2), lam)
        avg = 0.5 * (al.aug_lagrangian(pb, x1, lam) + al.aug_lagrangian(pb, x2, lam))
        assert mid <= avg + 1e-9


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_examples():
    assert al.operator_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-8)
    assert al.operator_norm_sq(np.diag([3.0, 4.0])) == pytest.approx(16.0, rel=1e-8)
    assert al.operator_norm_sq(np.zeros((2, 3))) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(6)
    for shape in [(5, 7), (7, 5), (1, 1), (3, 3), (10, 4)]:
        A = rng.standard_normal(shape)
        want = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
        got = al.operator_norm_sq(A)
        assert got == pytest.approx(want, rel=1e-8)


def test_operator_norm_exact_with_close_singular_values():
    # sigma_2 / sigma_1 = 0.999 stalls a power iteration far from sigma_1^2
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = U @ np.diag([1.0, 0.999, 0.5, 0.3, 0.2, 0.1]) @ V.T
    assert al.operator_norm_sq(A) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_deterministic():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 9))
    assert al.operator_norm_sq(A) == al.operator_norm_sq(A.copy())


def test_problem_operator_norm_matches_svd():
    pb = random_instance(8)
    assert pb.operator_norm_sq() == pb.operator_norm_sq()
    want = float(np.linalg.svd(pb.A, compute_uv=False)[0] ** 2)
    assert pb.operator_norm_sq() == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# construction validation


def test_problem_validation_errors():
    f = al.CompositeFunction.single(al.L1(3))
    A = np.ones((2, 3))
    b = np.zeros(2)
    with pytest.raises(al.ValidationError, match="column"):
        al.ProblemInstance(al.CompositeFunction.single(al.L1(4)), A, b, 1.0)
    with pytest.raises(al.ValidationError, match="b"):
        al.ProblemInstance(f, A, np.zeros(3), 1.0)
    with pytest.raises(al.ValidationError, match="rho"):
        al.ProblemInstance(f, A, b, 0.0)
    with pytest.raises(al.ValidationError, match="rho"):
        al.ProblemInstance(f, A, b, -1.0)
    with pytest.raises(al.ValidationError, match="rho"):
        al.ProblemInstance(f, A, b, np.inf)
    with pytest.raises(al.ValidationError, match="rho"):
        al.ProblemInstance(f, A, b, np.nan)
    with pytest.raises(al.ValidationError, match="lambda_star must be finite"):
        al.ProblemInstance(f, A, b, 1.0, lambda_star=np.array([np.nan, 0.0]))
    with pytest.raises(al.ValidationError, match="phi_star must be finite"):
        al.ProblemInstance(f, A, b, 1.0, phi_star=np.inf)


def test_witness_validation():
    f = al.CompositeFunction.single(al.Nonneg(2))
    A = np.array([[1.0, 1.0]])
    # infeasible witness: A x0 != b
    with pytest.raises(al.ValidationError, match="witness"):
        al.ProblemInstance(f, A, np.array([2.0]), 1.0,
                           witness_x0=np.array([0.5, 0.5]))
    with pytest.raises(al.ValidationError, match="witness_x0 must be finite"):
        al.ProblemInstance(f, A, np.array([2.0]), 1.0,
                           witness_x0=np.array([np.nan, 1.0]))
    # witness outside dom f
    with pytest.raises(al.ValidationError, match="witness"):
        al.ProblemInstance(f, A, np.array([0.0]), 1.0,
                           witness_x0=np.array([-1.0, 1.0]))
    pb = al.ProblemInstance(f, A, np.array([2.0]), 1.0,
                            witness_x0=np.array([1.0, 1.0]))
    assert pb.d == 2 and pb.p == 1


def test_witness_outside_dom_f_is_rejected_despite_an_overflowing_block():
    # x0 = -1 is outside the box; the linear block overflows to -inf there
    f = al.CompositeFunction([(al.Box(np.zeros(1), np.ones(1)), (0, 1)),
                              (al.Linear(np.array([-10.0])), (1, 2))])
    with np.errstate(over="ignore"):
        with pytest.raises(al.ValidationError, match="infinite objective value"):
            al.ProblemInstance(f, np.array([[1.0, 0.0]]), np.array([-1.0]), 1.0,
                               witness_x0=np.array([-1.0, 1e308]))


def test_witness_check_survives_overflowing_norms():
    # ||b|| overflows to inf; a bound of inf would let any witness pass
    f = al.CompositeFunction.single(al.Zero(2))
    b = np.array([1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(al.ValidationError, match="witness_x0 violates"):
            al.ProblemInstance(f, np.eye(2), b, 1.0, witness_x0=np.zeros(2))
        with pytest.raises(al.ValidationError, match="residual overflows"):
            al.ProblemInstance(f, np.array([[1e308, 1e308]]), np.zeros(1), 1.0,
                               witness_x0=np.array([1e10, 1e10]))
        pb = al.ProblemInstance(f, np.eye(2), b, 1.0, witness_x0=b)
    assert np.array_equal(pb.witness_x0, b)


def test_lambda_star_length_checked():
    f = al.CompositeFunction.single(al.L1(3))
    with pytest.raises(al.ValidationError):
        al.ProblemInstance(f, np.ones((2, 3)), np.zeros(2), 1.0,
                           lambda_star=np.zeros(3))
