import dataclasses
import math

import numpy as np
import pytest

import almlab as al


def assert_consistent(cert):
    assert cert.passed == (cert.worst_violation <= cert.threshold)
    assert len(cert.witnesses) <= 5
    assert cert.num_samples >= 1


# ---------------------------------------------------------------------------
# grids and brute force


def test_grid_points_validation():
    # at p = d = 3 moreau builds a 3-D w grid and conjugate a 3-D x grid
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 3, 3, 1.0, 0))
    for check in (al.check_moreau_identity, al.check_conjugate_identity):
        with pytest.raises(al.ValidationError, match="at least 3 points"):
            check(pb, grid_points=2)
        with pytest.raises(al.ValidationError, match="1e7 total point guard"):
            check(pb, grid_points=216)  # 216^3 > 1e7


def test_brute_min_parabola(brute_min):
    x, v = brute_min(lambda P: (P[:, 0] - 1.0) ** 2, 2.0, 41)
    assert abs(x[0] - 1.0) <= 0.1  # within grid spacing
    assert v <= 0.01


def test_brute_min_absolute_value(brute_min):
    x, v = brute_min(lambda P: np.abs(P[:, 0]), 3.0, 61)
    assert x[0] == 0.0 and v == 0.0


def test_brute_min_refinement_beats_grid_spacing(brute_min):
    # off-grid minimum; five refinement rounds should land much closer than
    # the coarse spacing of 0.2
    target = 0.123456
    x, _ = brute_min(lambda P: (P[:, 0] - target) ** 2, 2.0, 21)
    assert abs(x[0] - target) <= 0.05


def test_brute_min_two_dim(brute_min):
    x, v = brute_min(
        lambda P: (P[:, 0] - 1.0) ** 2 + 2.0 * (P[:, 1] + 0.5) ** 2, 4.0, 81, ndim=2)
    assert np.allclose(x, [1.0, -0.5], atol=0.05)


def test_brute_min_all_infinite_raises(brute_min):
    with pytest.raises(al.ValidationError):
        brute_min(lambda P: np.full(P.shape[0], np.inf), 1.0, 11)


def test_default_lambda_grid_shape():
    g = al.default_lambda_grid(2)
    assert g.shape == (49, 2)
    assert np.array_equal(g[0], [-3.0, -3.0])
    assert np.array_equal(g[-1], [3.0, 3.0])


# ---------------------------------------------------------------------------
# smoothness


def test_smoothness_qp_has_wide_margin(qp_scalar):
    # true ratio is 1/(1+rho) = 0.5 against the bound 1.0
    cert = al.check_smoothness(qp_scalar(1.0), n_pairs=100, tol_inner=1e-10, seed=0)
    assert_consistent(cert)
    assert cert.passed
    assert cert.details["max_ratio"] == pytest.approx(0.5, abs=1e-3)


def test_smoothness_p_box_attains_bound(p_box):
    cert = al.check_smoothness(p_box(1.0), n_pairs=300, tol_inner=1e-10, seed=1)
    assert_consistent(cert)
    assert cert.passed
    assert cert.details["max_ratio"] >= 1.0 - 1e-3  # bound is tight
    assert cert.details["min_pair_distance"] >= 1e-3 * cert.details["radius"]


def test_smoothness_pair_filter_rejects_degenerate_pairs(p_box):
    cert = al.check_smoothness(p_box(2.0), n_pairs=50, tol_inner=1e-8, seed=2)
    assert cert.details["min_pair_distance"] >= 1e-2  # 1e-3 * radius 10
    assert cert.num_samples == 50


# ---------------------------------------------------------------------------
# gradient via finite differences


def test_gradient_fd_qp_closed_form(qp_scalar):
    cert = al.check_gradient_fd(qp_scalar(1.0), np.array([2.0]), h=1e-4,
                                tol_inner=1e-10)
    assert_consistent(cert)
    assert cert.passed
    assert cert.worst_violation <= 1e-6


def test_gradient_fd_symmetric_point(qp_scalar):
    cert = al.check_gradient_fd(qp_scalar(1.0), np.zeros(1), h=1e-4, tol_inner=1e-10)
    assert cert.passed
    assert cert.worst_violation <= 1e-6


def test_gradient_fd_at_kink(p_box):
    # curvature jumps by 1/rho at lam = rho; central differences see an O(h)
    # error of about h/(4 rho) there, so h must be large enough for the
    # threshold 10(h^2 + tol/h) to absorb it
    pb = p_box(1.0)
    cert = al.check_gradient_fd(pb, np.array([1.0]), h=0.05, tol_inner=1e-10)
    assert_consistent(cert)
    assert cert.passed
    # off the kink the usual tiny step is accurate
    cert2 = al.check_gradient_fd(pb, np.array([0.5]), h=1e-4, tol_inner=1e-10)
    assert cert2.passed and cert2.worst_violation <= 1e-6


def test_gradient_fd_sampled_aggregates(qp_scalar):
    cert = al.check_gradient_fd_sampled(qp_scalar(1.0), n_samples=10, h=1e-4,
                                        tol_inner=1e-8, seed=3)
    assert_consistent(cert)
    assert cert.passed
    assert cert.num_samples == 10


@pytest.mark.parametrize("check", [
    lambda pb: al.check_smoothness(pb, n_pairs=0),
    lambda pb: al.check_gradient_fd_sampled(pb, n_samples=0),
    lambda pb: al.check_concavity(pb, n_pairs=0),
    lambda pb: al.check_gradient_invariance(pb, n_inits=0),
], ids=["smoothness", "gradient_fd_sampled", "concavity", "invariance"])
def test_checks_reject_an_empty_budget(qp_scalar, check):
    with pytest.raises(al.ValidationError, match="needs at least one sample"):
        check(qp_scalar(1.0))


def test_gradient_fd_rejects_bad_step(qp_scalar):
    with pytest.raises(al.ValidationError):
        al.check_gradient_fd(qp_scalar(1.0), np.zeros(1), h=0.0)


# ---------------------------------------------------------------------------
# concavity


def test_concavity_qp(qp_scalar):
    cert = al.check_concavity(qp_scalar(1.0), n_pairs=50, tol_inner=1e-9, seed=4)
    assert_consistent(cert)
    assert cert.passed


def test_concavity_p_box_across_kink(p_box):
    cert = al.check_concavity(p_box(1.0), n_pairs=100, tol_inner=1e-9, seed=5)
    assert cert.passed


def test_concavity_coincident_pairs_only_noise(qp_scalar):
    # radius ~0 makes every pair nearly coincident: the midpoint gap is pure
    # estimation noise, within the documented 3 tol budget
    cert = al.check_concavity(qp_scalar(1.0), radius=1e-9, n_pairs=20,
                              tol_inner=1e-8, seed=6)
    assert cert.passed


# ---------------------------------------------------------------------------
# Moreau and conjugate identities


def test_moreau_identity_qp_closed_form(qp_scalar):
    # phi(w) = -w^2/2, so the envelope at lam equals lam^2/4 = -phi_rho(lam)
    pb = qp_scalar(1.0)
    cert = al.check_moreau_identity(pb, tol_inner=1e-10)
    assert_consistent(cert)
    assert cert.passed
    assert cert.worst_violation <= 1e-6
    assert cert.details["closed_form_dual"] is True
    # spot value: the dual value at 2 should be -1, envelope 1
    sol = al.solve_subproblem(pb, np.array([2.0]), 1e-10)
    assert sol.obj_value == pytest.approx(-1.0, abs=1e-8)


def test_moreau_identity_p_box_grid(p_box):
    cert = al.check_moreau_identity(p_box(1.0), tol_inner=1e-8)
    assert_consistent(cert)
    assert cert.passed
    assert cert.details["closed_form_dual"] is True
    assert cert.worst_violation <= 1e-3


def test_moreau_identity_p_rank(p_rank):
    cert = al.check_moreau_identity(p_rank(1.0), tol_inner=1e-8)
    assert cert.passed
    assert cert.worst_violation <= 1e-3


def test_moreau_skips_unbounded_dual_values(p_box):
    # phi(w) = -inf exactly for w < 0: that half of the 2001-point grid is
    # skipped and counted; the identity must still hold
    cert = al.check_moreau_identity(p_box(1.0), tol_inner=1e-8)
    assert cert.details["skipped_neg_inf"] == 1000
    assert cert.passed


def _dense_quad_over_nonneg(d):
    # f = indicator(x >= 0) + x'Qx/2 with a dense Q: no closed-form conjugate
    Q = 1.7 * np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))
    f = al.CompositeFunction.single(al.Nonneg(d), smooth_quad=al.SmoothQuadratic(d, Q=Q))
    return al.ProblemInstance(f, np.ones((1, d)), np.ones(1), 1.0, name="dense_quad")


def test_moreau_dense_quadratic_term_uses_x_grid():
    # at d = 1 the 2001-point x grid resolves a curved f within the budget
    cert = al.check_moreau_identity(_dense_quad_over_nonneg(1), tol_inner=1e-8)
    assert_consistent(cert)
    assert cert.passed
    assert cert.details["closed_form_dual"] is False


def test_moreau_x_grid_route_rejects_large_d():
    with pytest.raises(al.ValidationError, match="d <= 3"):
        al.check_moreau_identity(_dense_quad_over_nonneg(4))


def _c04_instances(qp_scalar):
    return [qp_scalar(1.0)] + [al.generate(al.BenchmarkSpec(*spec)) for spec in [
        ("tight_bound_family", 1, 1, 1.0, 0), ("rank_deficient_box", 2, 2, 1.0, 0),
        ("qp", 3, 2, 1.0, 6), ("nonneg_lp", 2, 1, 1.0, 0)]]


def test_exact_plain_dual_is_below_x_grid_minimum(qp_scalar):
    # phi(w) is an infimum over all x, so it can only lie below the minimum
    # over any x grid; an 11-point grid keeps the reference scan small
    from almlab.verify import _StandardDualOracle, _cube, _f_on_grid, _grid_points
    for pb in _c04_instances(qp_scalar):
        W = _grid_points(_cube(pb.p))
        exact = _StandardDualOracle(pb).batch(W)
        _, X, fX = _f_on_grid(pb, 11)
        R = X @ pb.A.T - pb.b
        grid = np.concatenate([np.min(fX[None, :] + W[i:i + 1000] @ R.T, axis=1)
                               for i in range(0, W.shape[0], 1000)])
        assert np.any(np.isfinite(exact)), pb.name
        assert np.all(exact <= grid + 1e-12), pb.name


def test_moreau_builds_no_x_grid_on_the_families(monkeypatch, qp_scalar):
    def no_grid(pb, grid_points):
        raise AssertionError("x grid built")

    monkeypatch.setattr("almlab.verify._f_on_grid", no_grid)
    for pb in _c04_instances(qp_scalar)[1:]:
        cert = al.check_moreau_identity(pb, tol_inner=1e-8)
        assert cert.details["closed_form_dual"] is True, pb.name


@pytest.mark.parametrize("family", ["qp", "basis_pursuit", "nonneg_lp", "rank_deficient_box"])
def test_identities_hold_at_defaults_on_the_families(family):
    # on the w grid alone basis_pursuit and nonneg_lp read 0.031 and 0.070
    # here: their dual domains are thin against its spacing.  The ALM point
    # w* is the envelope's minimizer and scores it to rounding.
    pb = al.generate(al.BenchmarkSpec(family, 3, 2, 1.0, 0))
    m = al.check_moreau_identity(pb)
    assert m.passed and m.worst_violation <= 1e-6, m.worst_violation
    assert al.check_conjugate_identity(pb).passed


def test_moreau_rejects_large_p():
    pb = al.generate(al.BenchmarkSpec("qp", 6, 5, 1.0, 0))
    with pytest.raises(al.ValidationError, match="p <= 3"):
        al.check_moreau_identity(pb)


def test_conjugate_identity_qp_scalar(qp_scalar):
    # f_rho*(y) = y^2/(2(1+rho)) makes the identity exact
    cert = al.check_conjugate_identity(qp_scalar(1.0), tol_inner=1e-10)
    assert_consistent(cert)
    assert cert.passed
    assert cert.worst_violation <= 1e-8


def test_conjugate_identity_p_box(p_box):
    cert = al.check_conjugate_identity(p_box(1.0), tol_inner=1e-8)
    assert cert.passed
    assert cert.worst_violation <= 1e-3


def test_conjugate_identity_p_rank(p_rank):
    cert = al.check_conjugate_identity(p_rank(1.0), tol_inner=1e-8)
    assert cert.passed
    assert cert.worst_violation <= 1e-3


def test_conjugate_sign_convention_at_zero(qp_scalar):
    # phi_rho(0) = -f_rho*(0): dual value at 0 is 0 for this instance
    pb = qp_scalar(1.0)
    assert al.solve_subproblem(pb, np.zeros(1), 1e-10).obj_value == pytest.approx(0.0, abs=1e-8)


def test_conjugate_rejects_large_d_without_closed_form():
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 6, 3, 1.0, 0))
    with pytest.raises(al.ValidationError, match="d <= 3"):
        al.check_conjugate_identity(pb)


def test_moreau_and_conjugate_agree_on_qp_matrix():
    # closed-form route on a d=4, p=2 quadratic: both identities at once
    pb = al.generate(al.BenchmarkSpec("qp", 4, 2, 2.0, 6))
    m = al.check_moreau_identity(pb, tol_inner=1e-10)
    c = al.check_conjugate_identity(pb, tol_inner=1e-10)
    assert m.passed and c.passed
    assert m.worst_violation <= 1e-4
    assert c.worst_violation <= 1e-6


# ---------------------------------------------------------------------------
# gradient-image invariance


def test_invariance_p_rank_at_zero(p_rank):
    cert = al.check_gradient_invariance(p_rank(1.0), lam=np.zeros(2),
                                        n_inits=10, tol_inner=1e-9, seed=7)
    assert_consistent(cert)
    assert cert.passed
    assert cert.details["x_spread"] >= 0.1  # genuinely different minimizers


def test_invariance_p_rank_clamped(p_rank):
    pb = p_rank(1.0)
    cert = al.check_gradient_invariance(pb, lam=np.array([3.0, 3.0]),
                                        n_inits=10, tol_inner=1e-9, seed=8)
    assert cert.passed
    g = al.solve_subproblem(pb, np.array([3.0, 3.0]), 1e-10).constraint_map
    assert np.allclose(g, [-2.0, -2.0], atol=1e-8)


def test_invariance_trivial_when_minimizer_unique(qp_scalar):
    cert = al.check_gradient_invariance(qp_scalar(1.0), n_inits=6,
                                        tol_inner=1e-10, seed=9)
    assert cert.passed
    assert cert.details["x_spread"] <= 1e-6


# ---------------------------------------------------------------------------
# reproducibility


def test_certificates_reproducible_bit_for_bit(p_rank):
    pb = p_rank(1.0)
    a = al.check_smoothness(pb, n_pairs=30, tol_inner=1e-9, seed=11)
    b = al.check_smoothness(pb, n_pairs=30, tol_inner=1e-9, seed=11)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    c = al.check_gradient_invariance(pb, n_inits=5, tol_inner=1e-9, seed=11)
    d = al.check_gradient_invariance(pb, n_inits=5, tol_inner=1e-9, seed=11)
    assert dataclasses.asdict(c) == dataclasses.asdict(d)


def test_different_seeds_change_samples(p_rank):
    a = al.check_smoothness(p_rank(1.0), n_pairs=30, tol_inner=1e-9, seed=1)
    b = al.check_smoothness(p_rank(1.0), n_pairs=30, tol_inner=1e-9, seed=2)
    assert a.witnesses != b.witnesses


# ---------------------------------------------------------------------------
# inner solves per check


@pytest.mark.parametrize("run, solves, chain", [
    (lambda pb: al.check_smoothness(pb, n_pairs=3, seed=1), 6, 6),
    (lambda pb: al.check_gradient_fd_sampled(pb, n_samples=2, seed=1), 10, 5),
    (lambda pb: al.check_concavity(pb, n_pairs=3, seed=1), 9, 9),
    (lambda pb: al.check_gradient_invariance(pb, n_inits=4, seed=1), 4, None),
    (lambda pb: al.check_moreau_identity(pb), 49, 49),
    (lambda pb: al.check_conjugate_identity(pb), 49, 49),
], ids=["smoothness", "gradient_fd_sampled", "concavity", "invariance", "moreau",
        "conjugate"])
def test_solve_count_and_warm_start_chain(monkeypatch, run, solves, chain):
    # p = 2: 2 n_pairs, (1 + 2p) n_samples, 3 n_pairs, n_inits and 7^p solves,
    # the counts perfbench derives from each check's budget.  Inside a chain
    # of `chain` solves the first starts cold and each later one at the
    # previous x_plus; invariance uses its own random starts.
    pb = al.generate(al.BenchmarkSpec("qp", 4, 2, 2.0, 6))
    calls = []

    def counting(pb, lam, tol, x0=None, max_iter=100_000):
        sol = al.solve_subproblem(pb, lam, tol, x0, max_iter)
        calls.append((x0, sol.x_plus))
        return sol

    monkeypatch.setattr("almlab.verify.solve_subproblem", counting)
    run(pb)
    assert len(calls) == solves
    for k, (x0, _) in enumerate(calls):
        if chain is None:
            assert x0 is not None
        elif k % chain == 0:
            assert x0 is None
        else:
            assert x0 is calls[k - 1][1]
