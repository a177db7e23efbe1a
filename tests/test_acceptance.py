"""Acceptance gate: ten criteria, one test each, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one [PASS] line per
criterion. Every numeric threshold below is frozen; loosening one is a
contract change, not a tuning knob.
"""

import math
import time

import numpy as np
import pytest

import almlab as al
from almlab.cli import main as cli_main


def _pass(n, msg):
    print(f"[PASS] C{n}: {msg}")


def _atom_table():
    rng = np.random.default_rng(42)
    B = rng.standard_normal((5, 5))
    Q = B @ B.T / 5.0
    Q = 0.5 * (Q + Q.T)
    return [
        ("zero", al.Zero(3)),
        ("quadratic", al.Quadratic(Q, rng.standard_normal(5), 0.3)),
        ("l1", al.L1(4, weight=0.7)),
        ("box", al.Box(np.array([-1.0, 0.0, -np.inf, -2.0]),
                       np.array([1.0, np.inf, 3.0, -1.0]))),
        ("nonneg", al.Nonneg(3)),
        ("l2ball", al.L2Ball(2.0, np.array([0.5, -0.5, 1.0]))),
        ("linear", al.Linear(np.array([1.0, -2.0, 0.5]))),
    ]


_FAMILY_DIMS = {
    "qp": (24, 10),
    "basis_pursuit": (16, 6),
    "nonneg_lp": (20, 8),
    "rank_deficient_box": (20, 8),
    "tight_bound_family": (1, 1),
}


def test_c01_smoothness_certificate_all_families():
    budget_s = 60.0
    for family, (d, p) in _FAMILY_DIMS.items():
        pb = al.generate(al.BenchmarkSpec(family, d, p, rho=1.0, seed=5))
        t0 = time.perf_counter()
        cert = al.check_smoothness(pb, radius=10.0, n_pairs=200,
                                   tol_inner=1e-10, seed=5)
        elapsed = time.perf_counter() - t0
        assert cert.passed, (family, cert.worst_violation, cert.threshold)
        assert cert.details["max_ratio"] <= 1.0 / pb.rho + 1e-6, family
        assert elapsed < budget_s, (family, elapsed)
    _pass(1, "Lipschitz ratio <= 1/rho + 1e-6 over 200 pairs on all 5 "
             "families, each under 60 s")


def test_c02_smoothness_bound_is_tight():
    for rho in (0.5, 1.0, 2.0):
        pb = al.generate(al.BenchmarkSpec("tight_bound_family", 1, 1, rho, 0))
        cert = al.check_smoothness(pb, n_pairs=300, tol_inner=1e-10, seed=5)
        dev = abs(cert.details["max_ratio"] - 1.0 / rho)
        assert cert.passed, rho
        assert dev <= 1e-3, (rho, cert.details["max_ratio"])
    _pass(2, "measured sup ratio within 1e-3 of 1/rho for rho in "
             "{0.5, 1, 2} (bound attained)")


def test_c03_gradient_formula_finite_differences():
    closed_form = {"qp", "tight_bound_family"}
    dims = {"qp": (8, 3), "basis_pursuit": (8, 3), "nonneg_lp": (8, 3),
            "rank_deficient_box": (8, 3), "tight_bound_family": (1, 1)}
    for family, (d, p) in dims.items():
        pb = al.generate(al.BenchmarkSpec(family, d, p, rho=1.0, seed=0))
        cert = al.check_gradient_fd_sampled(pb, n_samples=50, h=1e-4,
                                            tol_inner=1e-8, seed=7)
        assert cert.passed, (family, cert.worst_violation, cert.threshold)
        if family in closed_form:
            assert cert.worst_violation <= 1e-5, (family, cert.worst_violation)
    _pass(3, "central differences match the residual-map gradient at 50 "
             "multipliers per family (closed-form families to 1e-5)")


def test_c04_moreau_and_conjugate_identities(qp_scalar, p_rank):
    instances = [
        ("scalar_qp", qp_scalar(1.0), {}),
        ("tight", al.generate(al.BenchmarkSpec("tight_bound_family", 1, 1, 1.0, 0)), {}),
        ("rank_2x2", p_rank(1.0), {}),
        ("qp_3x2", al.generate(al.BenchmarkSpec("qp", 3, 2, 1.0, 6)), {}),
        # for lam in {-3, -2, -1} the envelope minimizer sits on the dual
        # domain's edge w = -1.23546; the grid's five refinement rounds leave
        # 3.6e-4 there at 2001 and at 4001 points, and the ALM point w*
        # scores it to rounding
        ("nonneg_lp_2x1", al.generate(al.BenchmarkSpec("nonneg_lp", 2, 1, 1.0, 0)),
         {"grid_points": 4001}),
    ]
    for name, pb, moreau_kw in instances:
        m = al.check_moreau_identity(pb, tol_inner=1e-8, **moreau_kw)
        assert m.passed and m.worst_violation <= 1e-3, (name, m.worst_violation)
        c = al.check_conjugate_identity(pb, tol_inner=1e-8)
        assert c.passed and c.worst_violation <= 1e-3, (name, c.worst_violation)
    _pass(4, "envelope and conjugate forms of the dual agree to 1e-3 on the "
             "integer multiplier grid for 5 small instances")


def test_c05_dual_domain_is_everything():
    pb = al.generate(al.BenchmarkSpec("rank_deficient_box", 12, 6, 1.0, 4))
    rng = np.random.default_rng(11)
    for _ in range(100):
        direction = rng.normal(size=6)
        lam = direction / np.linalg.norm(direction) * 1e3 * rng.uniform() ** (1 / 6)
        sol = al.solve_subproblem(pb, lam, 1e-8)
        assert sol.converged, lam
        assert math.isfinite(sol.obj_value), lam
    _pass(5, "inner solve finite and convergent at 100 multipliers with "
             "norm up to 1e3 on the non-coercive family; zero divergences")


def test_c06_gradient_image_invariance(p_rank):
    for name, pb in [
        ("rank_2x2", p_rank(1.0)),
        ("rank_12x6", al.generate(al.BenchmarkSpec("rank_deficient_box", 12, 6, 1.0, 4))),
    ]:
        cert = al.check_gradient_invariance(pb, lam=np.zeros(pb.p), n_inits=10,
                                            tol_inner=1e-9, seed=3)
        assert cert.passed, (name, cert.worst_violation, cert.threshold)
        assert cert.details["x_spread"] >= 0.1, (name, cert.details["x_spread"])
    _pass(6, "10 inner starts give residual-map spread <= 10 tol while the "
             "minimizers themselves spread >= 0.1")


def test_c07_trace_replays_as_dual_gradient_ascent():
    st = al.OuterSettings(max_outer=30, grad_stop=1e-300,
                          inner_tol0=1e-4, inner_factor=0.5)
    for family, (d, p) in {"qp": (10, 4), "basis_pursuit": (10, 4),
                           "nonneg_lp": (10, 4), "rank_deficient_box": (10, 4),
                           "tight_bound_family": (1, 1)}.items():
        pb = al.generate(al.BenchmarkSpec(family, d, p, rho=1.0, seed=1))
        trace = al.alm(pb, None, st)
        assert len(trace.records) == 31, family
        x_prev = None
        for i, rec in enumerate(trace.records[:-1]):
            sol = al.solve_subproblem(pb, rec.lam, st.inner_tol(rec.k), x0=x_prev)
            x_prev = sol.x_plus
            expected = rec.lam + pb.rho * sol.constraint_map
            assert np.array_equal(trace.records[i + 1].lam, expected), (family, i)
    _pass(7, "every recorded multiplier update replays bitwise as "
             "lam + rho * residual on all 5 families, 30 steps each")


def test_c08_convergence_rates_on_qp():
    budget_s = 30.0
    t0 = time.perf_counter()
    pb = al.generate(al.BenchmarkSpec("qp", 8, 3, 1.0, 2))
    dist2 = float(pb.lambda_star @ pb.lambda_star)  # lam0 = 0
    st = al.OuterSettings(max_outer=200, grad_stop=1e-300,
                          inner_tol0=1e-10, inner_factor=1.0)

    trace = al.alm(pb, None, st)
    for rec in trace.records[1:]:
        bound = dist2 / (2.0 * pb.rho * rec.k) * 1.01
        assert pb.phi_star - rec.phi_est <= bound, ("plain", rec.k)

    trace = al.accelerated_alm(pb, None, st)
    for rec in trace.records:
        bound = 2.0 * dist2 / (pb.rho * (rec.k + 1) ** 2) * 1.01
        assert pb.phi_star - rec.phi_est <= bound, ("accelerated", rec.k)

    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, elapsed
    _pass(8, "dual gap under dist^2/(2 rho k) for plain ascent and "
             "2 dist^2/(rho (k+1)^2) accelerated, 200 iterations each")


def test_c09_atom_suite_properties():
    rng = np.random.default_rng(13)
    for name, atom in _atom_table():
        for _ in range(1000):
            alpha = float(rng.uniform(0.05, 5.0))
            v1 = rng.uniform(-10, 10, atom.dim)
            v2 = rng.uniform(-10, 10, atom.dim)
            lhs = np.linalg.norm(atom.prox(alpha, v1) - atom.prox(alpha, v2))
            dist = np.linalg.norm(v1 - v2)
            assert lhs <= dist + 1e-10 * (1.0 + dist), name

        for _ in range(100):
            alpha = float(rng.uniform(0.1, 4.0))
            v = rng.uniform(-6, 6, atom.dim)
            prox_pt = atom.prox(alpha, v)
            best = atom.value(prox_pt) + np.sum((prox_pt - v) ** 2) / (2 * alpha)
            Y = rng.uniform(-8, 8, (100, atom.dim))
            vals = atom.value_batch(Y) + np.sum((Y - v) ** 2, axis=1) / (2 * alpha)
            finite = vals[np.isfinite(vals)]
            if finite.size:
                assert best <= np.min(finite) + 1e-9, name

        h = 1e-6
        for _ in range(100):
            gamma = float(rng.uniform(0.2, 3.0))
            x = rng.uniform(-5, 5, atom.dim)
            grad = (x - atom.prox(gamma, x)) / gamma
            for i in range(atom.dim):
                e = np.zeros(atom.dim)
                e[i] = h

                def env(pt):
                    q = atom.prox(gamma, pt)
                    return atom.value(q) + float(np.sum((pt - q) ** 2)) / (2 * gamma)

                fd = (env(x + e) - env(x - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-5 * (1.0 + abs(grad[i])), name
    _pass(9, "prox nonexpansiveness (1000 samples), prox optimality against "
             "100 competitors, and envelope gradient vs finite differences "
             "hold for all 7 atoms")


def test_c10_byte_identical_artifacts(tmp_path):
    paths = {}
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        problem = base / "problem.json"
        trace = base / "trace.csv"
        report = base / "report.json"
        assert cli_main(["bench", "--family", "qp", "--d", "6", "--p", "2",
                         "--seed", "9", "--out", str(problem)]) == 0
        assert cli_main(["solve", str(problem), "--trace-out", str(trace)]) == 0
        assert cli_main(["verify", str(problem), "--samples", "40",
                         "--seed", "9", "--report-out", str(report)]) == 0
        paths[run] = (problem, trace, report)
    for a, b in zip(paths["first"], paths["second"]):
        assert a.read_bytes() == b.read_bytes(), a.name
    _pass(10, "benchmark file, solve trace, and certificate report are "
              "byte-identical across two consecutive runs")
