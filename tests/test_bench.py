import json

import numpy as np
import pytest

import almlab as al


def test_spec_validation():
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("frobnicate", 4, 2)
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 2, 4)  # d < p
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 4, 0)
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 4, 2, rho=0.0)
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 4, 2, rho=float("inf"))
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 4, 2, seed=-1)
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("tight_bound_family", 2, 1)
    with pytest.raises(al.ValidationError):
        al.BenchmarkSpec("qp", 4.5, 2)


def test_spec_name_format():
    s = al.BenchmarkSpec("qp", 8, 3, rho=0.5, seed=12)
    assert s.name == "qp_d8_p3_rho0.5_seed12"
    assert al.BenchmarkSpec("tight_bound_family", 1, 1).name == \
        "tight_bound_family_d1_p1_rho1_seed0"


@pytest.mark.parametrize("family", al.FAMILIES)
def test_witness_exactly_feasible(family):
    d, p = (1, 1) if family == "tight_bound_family" else (8, 3)
    pb = al.generate(al.BenchmarkSpec(family, d, p, rho=1.0, seed=0))
    r = pb.A @ pb.witness_x0 - pb.b
    assert np.max(np.abs(r)) == 0.0  # witness must be feasible to the bit
    assert np.isfinite(pb.f.value(pb.witness_x0))


@pytest.mark.parametrize("family", al.FAMILIES)
def test_generation_deterministic(family):
    d, p = (1, 1) if family == "tight_bound_family" else (6, 2)
    spec = al.BenchmarkSpec(family, d, p, rho=2.0, seed=9)
    a = json.dumps(al.problem_to_dict(al.generate(spec)), sort_keys=True)
    b = json.dumps(al.problem_to_dict(al.generate(spec)), sort_keys=True)
    assert a == b


def test_seeds_give_distinct_instances():
    a = al.generate(al.BenchmarkSpec("qp", 6, 2, seed=0))
    b = al.generate(al.BenchmarkSpec("qp", 6, 2, seed=1))
    assert not np.array_equal(a.A, b.A)


def test_qp_sidecar_is_dual_optimum():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 3, rho=1.0, seed=5))
    assert pb.lambda_star is not None and pb.phi_star is not None
    g = al.solve_subproblem(pb, pb.lambda_star, 1e-12).constraint_map
    assert np.linalg.norm(g) <= 1e-7
    val = al.solve_subproblem(pb, pb.lambda_star, 1e-12).obj_value
    assert val == pytest.approx(pb.phi_star, abs=1e-7)


def test_qp_solves_to_certified_value():
    pb = al.generate(al.BenchmarkSpec("qp", 2, 1, rho=1.0, seed=7))
    trace = al.alm(pb, np.zeros(1),
                   al.OuterSettings(grad_stop=1e-10,
                                    inner_tol0=1e-12, inner_factor=1.0))
    assert trace.terminated_reason == "grad_stop"
    assert trace.records[-1].phi_est == pytest.approx(pb.phi_star, abs=1e-6)


def test_basis_pursuit_witness_sparsity():
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 10, 4, seed=3))
    x0 = pb.witness_x0
    nz = np.nonzero(x0)[0]
    assert len(nz) == 2  # max(1, p // 2)
    assert np.all(np.abs(x0[nz]) >= 0.5)
    assert np.all(np.abs(x0[nz]) < 1.5)


def test_nonneg_lp_structure():
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 8, 3, seed=1))
    assert pb.f.smooth_quad is not None
    assert pb.f.smooth_quad.Q is None  # pure linear objective
    assert np.all(pb.f.smooth_quad.q >= 0.0)
    assert np.all(pb.witness_x0 > 0.0)
    assert pb.f.value(-np.ones(8)) == np.inf
    assert pb.f.value(pb.witness_x0) == pytest.approx(
        float(pb.f.smooth_quad.q @ pb.witness_x0))


def test_rank_deficient_rows_repeat():
    pb = al.generate(al.BenchmarkSpec("rank_deficient_box", 8, 4, seed=0))
    assert np.array_equal(pb.A[2], pb.A[0])
    assert np.array_equal(pb.A[3], pb.A[1])
    assert np.linalg.matrix_rank(pb.A) == 2
    assert np.array_equal(pb.A[0], np.ones(8))


def test_rank_deficient_smallest_case_is_exact(p_rank):
    pb = al.generate(al.BenchmarkSpec("rank_deficient_box", 2, 2, rho=1.0, seed=0))
    assert np.array_equal(pb.A, np.ones((2, 2)))
    assert np.array_equal(pb.b, [2.0, 2.0])
    assert pb.f.value(np.ones(2)) == 0.0
    assert pb.f.value(-np.ones(2)) == np.inf
    ref = p_rank(1.0)
    lam = np.array([3.0, 3.0])
    assert al.solve_subproblem(pb, lam, 1e-10).obj_value == pytest.approx(
        al.solve_subproblem(ref, lam, 1e-10).obj_value, abs=1e-9)


def test_tight_bound_family_fields():
    pb = al.generate(al.BenchmarkSpec("tight_bound_family", 1, 1, rho=2.0))
    assert np.array_equal(pb.A, [[1.0]])
    assert np.array_equal(pb.b, [1.0])
    assert pb.rho == 2.0
    assert np.array_equal(pb.witness_x0, [1.0])
    assert np.array_equal(pb.lambda_star, [0.0])
    assert pb.phi_star == 0.0


def test_generate_accepts_dict_and_tuple():
    pb1 = al.generate({"family": "qp", "d": 4, "p": 2, "rho": 1.0, "seed": 2})
    pb2 = al.generate(al.BenchmarkSpec("qp", 4, 2, 1.0, 2))
    assert np.array_equal(pb1.A, pb2.A)
    pb3 = al.generate(("qp", 4, 2, 1.0, 2))
    assert np.array_equal(pb3.b, pb2.b)
