import math

import numpy as np
import pytest

import almlab as al

EXACT = {"inner_tol0": 1e-10, "inner_factor": 1.0}


def test_dual_value_examples(qp_scalar, p_box):
    pb = qp_scalar(rho=1.0)
    sol = al.solve_subproblem(pb, np.array([2.0]), 1e-10)
    assert sol.obj_value == pytest.approx(-1.0, abs=1e-8)
    pbx = p_box(rho=1.0)
    sol = al.solve_subproblem(pbx, np.zeros(1), 1e-10)
    assert sol.obj_value == pytest.approx(0.0, abs=1e-8)


def test_dual_value_weak_duality():
    # dual values never exceed the primal optimum (KKT sidecar), up to tol slack
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        lam = rng.uniform(-5, 5, pb.p)
        assert al.solve_subproblem(pb, lam, 1e-10).obj_value <= pb.phi_star + 1e-8


def test_dual_gradient_examples(qp_scalar, p_box):
    pb = qp_scalar(rho=1.0)
    g = al.solve_subproblem(pb, np.array([2.0]), 1e-10).constraint_map
    assert g[0] == pytest.approx(-1.0, abs=1e-8)
    pbx = p_box(rho=1.0)
    g = al.solve_subproblem(pbx, np.array([3.0]), 1e-10).constraint_map
    assert g[0] == pytest.approx(-1.0, abs=1e-8)


def test_dual_gradient_vanishes_at_optimum():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 2))
    g = al.solve_subproblem(pb, pb.lambda_star, 1e-10).constraint_map
    assert np.linalg.norm(g) <= 10 * 1e-10


# ---------------------------------------------------------------------------
# schedules and settings


def test_tol_schedule_values():
    c = al.OuterSettings(inner_tol0=1e-6, inner_factor=1.0)
    assert c.inner_tol(0) == c.inner_tol(50) == 1e-6
    g = al.OuterSettings(inner_tol0=1e-4, inner_factor=0.5)
    assert g.inner_tol(0) == 1e-4
    assert g.inner_tol(3) == pytest.approx(1.25e-5)
    assert g.inner_tol(1000) == 1e-12  # floored
    # a constant schedule is floored too
    assert al.OuterSettings(inner_tol0=1e-14, inner_factor=1.0).inner_tol(0) == 1e-12


def test_tol_schedule_validation():
    with pytest.raises(al.ValidationError):
        al.OuterSettings(inner_tol0=0.0)
    with pytest.raises(al.ValidationError):
        al.OuterSettings(inner_factor=1.5)
    with pytest.raises(al.ValidationError):
        al.OuterSettings(inner_factor=0.0)
    with pytest.raises(al.ValidationError):
        al.OuterSettings(max_outer=-1)


# ---------------------------------------------------------------------------
# plain ALM


def test_alm_contracts_multiplier_geometrically(qp_scalar):
    # lam+ = lam + rho * (-lam/(1+rho)) = lam/(1+rho); rho=1 halves each step
    pb = qp_scalar(rho=1.0)
    st = al.OuterSettings(max_outer=20, inner_tol0=1e-12, inner_factor=1.0,
                          grad_stop=1e-300)
    tr = al.alm(pb, np.array([1.0]), st)
    for rec in tr.records:
        assert rec.lam[0] == pytest.approx(2.0 ** (-rec.k), abs=1e-9)


def test_alm_fixed_point_gives_single_record():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 2))
    st = al.OuterSettings(max_outer=100, **EXACT, grad_stop=1e-6)
    tr = al.alm(pb, pb.lambda_star, st)
    assert tr.terminated_reason == "grad_stop"
    assert len(tr.records) == 1
    assert tr.records[0].k == 0


def test_accelerated_fixed_point_stays_put():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 2))
    st = al.OuterSettings(max_outer=100, **EXACT, grad_stop=1e-6)
    tr = al.accelerated_alm(pb, pb.lambda_star, st)
    assert tr.terminated_reason == "grad_stop"
    assert len(tr.records) == 1


def test_trace_replay_is_bit_exact():
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 10, 4, 1.0, 8))
    st = al.OuterSettings(max_outer=15, inner_tol0=1e-4, inner_factor=0.5,
                          grad_stop=1e-300)
    tr = al.alm(pb, None, st)
    assert tr.terminated_reason == "max_outer"
    # independent replay: same warm-start chain, same tolerances
    x_prev = None
    for i, rec in enumerate(tr.records[:-1]):
        sol = al.solve_subproblem(pb, rec.lam, st.inner_tol(rec.k), x0=x_prev,
                                  max_iter=st.inner_max_iter)
        x_prev = sol.x_plus
        nxt = tr.records[i + 1].lam
        assert np.array_equal(nxt, rec.lam + pb.rho * sol.constraint_map)
        assert np.array_equal(nxt, rec.lam + pb.rho * rec.constraint_map)


def test_trace_record_invariants():
    pb = al.generate(al.BenchmarkSpec("qp", 5, 2, 1.0, 1))
    st = al.OuterSettings(max_outer=10, **EXACT, grad_stop=1e-300)
    tr = al.alm(pb, None, st)
    for i, rec in enumerate(tr.records):
        assert rec.k == i
        assert rec.grad_norm == float(np.linalg.norm(rec.constraint_map))
        assert math.isfinite(rec.phi_est)
        assert rec.inner_iters >= 0
    assert tr.settings.max_outer == 10


def test_alm_monotone_dual_values_on_qp():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 4))
    st = al.OuterSettings(max_outer=60, **EXACT, grad_stop=1e-10)
    tr = al.alm(pb, None, st)
    phis = [rec.phi_est for rec in tr.records]
    assert all(phis[i + 1] >= phis[i] - 1e-9 for i in range(len(phis) - 1))


def test_alm_gd_rate_on_qp():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 4))
    lam0 = np.zeros(pb.p)
    dist2 = float(np.sum((lam0 - pb.lambda_star) ** 2))
    st = al.OuterSettings(max_outer=100, **EXACT, grad_stop=1e-300)
    tr = al.alm(pb, lam0, st)
    for rec in tr.records:
        if rec.k == 0:
            continue
        assert pb.phi_star - rec.phi_est <= dist2 / (2 * pb.rho * rec.k) * 1.01


def test_basis_pursuit_converges_within_budget():
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 20, 8, 1.0, 1))
    st = al.OuterSettings(max_outer=500, grad_stop=1e-6)
    tr = al.alm(pb, None, st)
    assert tr.terminated_reason == "grad_stop"
    assert tr.records[-1].grad_norm <= 1e-6


def test_basis_pursuit_final_x_matches_simplex_oracle():
    scipy_opt = pytest.importorskip("scipy.optimize")
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 3, 2, 1.0, 1))
    st = al.OuterSettings(max_outer=2000, **EXACT, grad_stop=1e-9)
    tr = al.alm(pb, None, st)
    sol = al.solve_subproblem(pb, tr.records[-1].lam, 1e-12)
    x = sol.x_plus
    # min ||x||_1 s.t. Ax=b as an LP over the positive/negative split
    d = pb.d
    res = scipy_opt.linprog(
        np.ones(2 * d), A_eq=np.hstack([pb.A, -pb.A]), b_eq=pb.b,
        bounds=[(0, None)] * (2 * d), method="highs")
    assert res.status == 0
    assert np.sum(np.abs(x)) == pytest.approx(res.fun, abs=1e-6)
    assert np.linalg.norm(pb.A @ x - pb.b) <= 1e-8


# ---------------------------------------------------------------------------
# accelerated ALM


def test_accelerated_rate_on_qp():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, 1.0, 4))
    lam0 = np.zeros(pb.p)
    dist2 = float(np.sum((lam0 - pb.lambda_star) ** 2))
    st = al.OuterSettings(max_outer=100, **EXACT, grad_stop=1e-300)
    tr = al.accelerated_alm(pb, lam0, st)
    for rec in tr.records:
        bound = 2 * dist2 / (pb.rho * (rec.k + 1) ** 2) * 1.01
        assert pb.phi_star - rec.phi_est <= bound


def test_accelerated_no_slower_than_plain_on_basis_pursuit():
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 20, 8, 1.0, 1))
    st = al.OuterSettings(max_outer=500, grad_stop=1e-6)
    plain = al.alm(pb, None, st)
    accel = al.accelerated_alm(pb, None, st)
    assert accel.terminated_reason == "grad_stop"
    assert len(accel.records) <= len(plain.records)


# ---------------------------------------------------------------------------
# termination reasons


def test_max_outer_reason():
    pb = al.generate(al.BenchmarkSpec("qp", 5, 2, 1.0, 1))
    st = al.OuterSettings(max_outer=3, **EXACT, grad_stop=1e-300)
    tr = al.alm(pb, None, st)
    assert tr.terminated_reason == "max_outer"
    assert len(tr.records) == 4  # k = 0..3


def test_inner_max_iter_reason():
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 10, 4, 1.0, 2))
    st = al.OuterSettings(max_outer=50, inner_tol0=1e-12, inner_factor=1.0,
                          grad_stop=1e-300, inner_max_iter=3)
    tr = al.alm(pb, None, st)
    assert tr.terminated_reason == "inner_max_iter"


def test_dual_divergence_reason():
    # infeasible instance: x = 0 and x = 1 demanded at once; large rho makes
    # the multiplier blow past the guard quickly
    f = al.CompositeFunction.single(al.Zero(1))
    pb = al.ProblemInstance(f, np.array([[1.0], [1.0]]), np.array([0.0, 1.0]), 1e11)
    st = al.OuterSettings(max_outer=500, inner_tol0=1e-8, inner_factor=1.0,
                          grad_stop=1e-300)
    tr = al.alm(pb, None, st)
    assert tr.terminated_reason == "dual_divergence"


def test_lam0_validation():
    pb = al.generate(al.BenchmarkSpec("qp", 5, 2, 1.0, 1))
    with pytest.raises(al.ValidationError):
        al.alm(pb, np.zeros(3))
