import math

import numpy as np
import pytest

import almlab as al


def _smooth_grad(pb, x, lam):
    """Gradient of the smooth part, H x + (A'lam + q), as the solver forms it."""
    plan = pb.subproblem_plan()
    return plan.H @ x + (pb.A.T @ lam + plan.q)


def test_smooth_gradient_examples(qp_scalar):
    # A=[1], b=0, rho=1, lam=2, x=3: A'lam + rho A'(Ax-b) + Qx = 2 + 3 + 3
    pb = qp_scalar(rho=1.0)
    g = _smooth_grad(pb, np.array([3.0]), np.array([2.0]))
    assert g[0] == pytest.approx(8.0, abs=1e-12)
    # without a quadratic atom the same point gives 2 + 3 = 5
    f = al.CompositeFunction.single(al.Zero(1))
    pb0 = al.ProblemInstance(f, np.array([[1.0]]), np.zeros(1), 1.0)
    g0 = _smooth_grad(pb0, np.array([3.0]), np.array([2.0]))
    assert g0[0] == pytest.approx(5.0, abs=1e-12)
    # feasible x and lam = 0 give a zero gradient
    assert _smooth_grad(pb0, np.zeros(1), np.zeros(1))[0] == 0.0


def test_smooth_gradient_matches_finite_difference():
    pb = al.generate(al.BenchmarkSpec("qp", 5, 2, 1.7, 3))
    rng = np.random.default_rng(4)
    lam = rng.standard_normal(pb.p)

    def smooth(x):
        r = pb.A @ x - pb.b
        val = float(lam @ r) + 0.5 * pb.rho * float(r @ r)
        atom = pb.f.blocks[0][0]
        return val + atom.value(x)

    x = rng.standard_normal(pb.d)
    g = _smooth_grad(pb, x, lam)
    h = 1e-6
    for i in range(pb.d):
        e = np.zeros(pb.d)
        e[i] = h
        fd = (smooth(x + e) - smooth(x - e)) / (2 * h)
        assert abs(fd - g[i]) <= 1e-6 * (1.0 + abs(g[i]))


def test_inner_qp_closed_form(qp_scalar):
    # stationarity (1+rho) x + lam = 0
    pb = qp_scalar(rho=1.0)
    sol = al.solve_subproblem(pb, np.array([2.0]), 1e-10)
    assert sol.x_plus[0] == pytest.approx(-1.0, abs=1e-8)
    assert sol.converged


def test_inner_box_clamp(p_box):
    pb = p_box(rho=1.0)
    lo = al.solve_subproblem(pb, np.array([-3.0]), 1e-10)
    assert lo.x_plus[0] == pytest.approx(4.0, abs=1e-8)  # 1 - lam/rho = 4 >= 0
    hi = al.solve_subproblem(pb, np.array([3.0]), 1e-10)
    assert hi.x_plus[0] == pytest.approx(0.0, abs=1e-8)  # clamp of 1 - 3
    assert hi.constraint_map[0] == pytest.approx(-1.0, abs=1e-8)


def test_obj_value_is_exact_aug_lagrangian():
    for fam, d, p in [("qp", 5, 2), ("basis_pursuit", 6, 3), ("nonneg_lp", 6, 3)]:
        pb = al.generate(al.BenchmarkSpec(fam, d, p, 1.0, 5))
        lam = np.linspace(-1, 1, p)
        sol = al.solve_subproblem(pb, lam, 1e-8)
        assert sol.obj_value == al.aug_lagrangian(pb, sol.x_plus, lam)
        assert np.array_equal(sol.constraint_map, pb.A @ sol.x_plus - pb.b)


def test_residual_definition_and_tolerance(prox_residual):
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 8, 4, 2.0, 1))
    lam = np.full(pb.p, 0.3)
    sol = al.solve_subproblem(pb, lam, 1e-9)
    assert sol.converged and sol.residual <= 1e-9
    g = _smooth_grad(pb, sol.x_plus, lam)
    recomputed = prox_residual(pb.subproblem_plan().nonsmooth, sol.x_plus, g, sol.step)
    assert recomputed == sol.residual


def test_descent_consistency():
    rng = np.random.default_rng(6)
    for fam, d, p in [("qp", 5, 2), ("basis_pursuit", 6, 3),
                      ("rank_deficient_box", 6, 3)]:
        pb = al.generate(al.BenchmarkSpec(fam, d, p, 1.0, 7))
        for _ in range(10):
            x0 = np.abs(rng.uniform(-3, 3, pb.d))  # inside dom f for all three
            lam = rng.uniform(-2, 2, pb.p)
            sol = al.solve_subproblem(pb, lam, 1e-8, x0=x0)
            assert sol.obj_value <= al.aug_lagrangian(pb, x0, lam) + 1e-12


def test_objective_monotone_in_iteration_budget():
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 10, 4, 0.5, 2))
    lam = np.full(pb.p, 1.5)
    prev = math.inf
    for budget in (1, 2, 5, 10, 30, 100, 1000):
        sol = al.solve_subproblem(pb, lam, 1e-12, max_iter=budget)
        assert sol.obj_value <= prev + 1e-12
        prev = sol.obj_value


def test_max_iter_returns_tagged_failure():
    pb = al.generate(al.BenchmarkSpec("qp", 8, 3, 1.0, 9))
    sol = al.solve_subproblem(pb, np.ones(3), 1e-14, max_iter=2)
    assert not sol.converged
    assert sol.residual > 1e-14
    assert sol.iterations == 2
    assert math.isfinite(sol.obj_value)


def test_warm_start_at_solution_returns_immediately(qp_scalar):
    pb = qp_scalar(rho=1.0)
    sol = al.solve_subproblem(pb, np.array([2.0]), 1e-8, x0=np.array([-1.0]))
    assert sol.iterations == 0
    assert sol.x_plus[0] == -1.0


def test_polish_runs_on_the_last_permitted_iteration():
    # this solve converges by a polish at iteration 348: a budget of 348
    # must still polish there, and one of 347 must stop short of it
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 16, 6, 1.0, 5))
    lam = np.random.default_rng(1).uniform(-5, 5, pb.p)
    full = al.solve_subproblem(pb, lam, 1e-10)
    assert full.iterations == 348 and full.polished
    last = al.solve_subproblem(pb, lam, 1e-10, max_iter=348)
    assert last.polished and last.converged
    assert np.array_equal(last.x_plus, full.x_plus)
    short = al.solve_subproblem(pb, lam, 1e-10, max_iter=347)
    assert not short.polished and not short.converged


def test_infeasible_start_never_returns_infinite_objective():
    # x0 violates the orthant by a hair; the residual there is tiny but the
    # solver must keep going until the objective is finite
    f = al.CompositeFunction.single(al.Nonneg(1))
    pb = al.ProblemInstance(f, np.array([[1.0]]), np.zeros(1), 1.0)
    sol = al.solve_subproblem(pb, np.zeros(1), 1e-6, x0=np.array([-1e-18]))
    assert math.isfinite(sol.obj_value)
    assert sol.x_plus[0] >= 0.0


def test_divergence_detected_on_unbounded_subproblem():
    # linear objective with a descent direction in the null space of A
    f = al.CompositeFunction.single(al.Linear(np.array([1e6, -2e6])))
    pb = al.ProblemInstance(f, np.array([[1.0, 1.0]]), np.zeros(1), 1.0)
    with pytest.raises(al.DivergenceDetected):
        al.solve_subproblem(pb, np.zeros(1), 1e-8)


def test_inner_settings_validation(qp_scalar):
    pb = qp_scalar(rho=1.0)
    with pytest.raises(al.ValidationError, match="inner tolerance must be positive"):
        al.solve_subproblem(pb, np.zeros(1), 0.0)
    with pytest.raises(al.ValidationError, match="inner max_iter must be at least 1"):
        al.solve_subproblem(pb, np.zeros(1), 1e-8, max_iter=0)


def test_brute_min_cross_checks_inner_solver(p_box):
    # the grid oracle and the solver agree on the P_box subproblem at lam=3
    pb = p_box(rho=1.0)
    lam = np.array([3.0])

    def objective(pts):
        vals = pb.f.value_batch(pts)
        r = pts @ pb.A.T - pb.b
        return vals + (r @ lam) + 0.5 * pb.rho * np.sum(r * r, axis=1)

    grid = al.GridSpec(np.array([-10.0]), np.array([10.0]), 2001)
    x_star, val = al.brute_min(objective, grid)
    sol = al.solve_subproblem(pb, lam, 1e-10)
    assert abs(val - sol.obj_value) <= 1e-3
    assert abs(x_star[0] - sol.x_plus[0]) <= 1e-2


# ---------------------------------------------------------------------------
# the cached subproblem plan against the definitions


_PLAN_CASES = ("zero", "quadratic", "l1", "box", "nonneg", "l2ball", "linear",
               "multi_block", "smooth_quad_Q", "smooth_quad_q_only")


def _plan_case(name):
    """One instance per atom kind, a multi-block composite with a quadratic
    block, and the quadratic term with and without Q."""
    rng = np.random.default_rng(12)
    d = 6
    M = rng.standard_normal((d, d))
    Q = M @ M.T / d
    q = rng.standard_normal(d)
    atoms = {
        "zero": al.Zero(d),
        "quadratic": al.Quadratic(Q, q, 0.7),
        "l1": al.L1(d, 0.8),
        "box": al.Box(-np.ones(d), 2.0 * np.ones(d)),
        "nonneg": al.Nonneg(d),
        "l2ball": al.L2Ball(1.5, 0.1 * np.ones(d)),
        "linear": al.Linear(rng.standard_normal(d)),
    }
    cases = {k: al.CompositeFunction.single(a) for k, a in atoms.items()}
    cases["multi_block"] = al.CompositeFunction([
        (al.Quadratic(Q[:2, :2], q[:2], -0.3), (0, 2)),
        (al.L1(2, 0.5), (2, 4)),
        (al.Linear(np.array([0.4])), (4, 5)),
        (al.Box(-np.ones(1), np.ones(1)), (5, 6)),
    ])
    cases["smooth_quad_Q"] = al.CompositeFunction.single(
        al.Zero(d), smooth_quad=al.SmoothQuadratic(d, Q, q, 1.2))
    cases["smooth_quad_q_only"] = al.CompositeFunction.single(
        al.L1(d, 0.3), smooth_quad=al.SmoothQuadratic(d, None, q, -0.4))
    # A has full column rank, so every subproblem has a unique minimizer
    A = rng.standard_normal((8, d))
    b = rng.standard_normal(8)
    return al.ProblemInstance(cases[name], A, b, 1.3, name=name)


def _quadratic_gradient(f, x):
    """Gradient of the quadratic and linear atoms and the quadratic term,
    block by block."""
    g = np.zeros(f.dim)
    for atom, (start, stop) in f.blocks:
        if isinstance(atom, al.Quadratic):
            g[start:stop] = atom.Q @ x[start:stop] + atom.q
        elif isinstance(atom, al.Linear):
            g[start:stop] = atom.c
    if f.smooth_quad is not None:
        g += f.smooth_quad.q
        if f.smooth_quad.Q is not None:
            g += f.smooth_quad.Q @ x
    return g


@pytest.mark.parametrize("name", _PLAN_CASES)
def test_plan_gradient_and_increase_match_definitions(name):
    pb = _plan_case(name)
    plan = pb.subproblem_plan()
    rng = np.random.default_rng(3)
    lam = rng.standard_normal(pb.p)
    c = pb.A.T @ lam + plan.q
    # the increase is defined between prox outputs of the nonsmooth part
    x1, x2 = (plan.nonsmooth.prox(plan.step, 2.0 * rng.standard_normal(pb.d))
              for _ in range(2))
    for x in (x1, x2):
        want = pb.A.T @ lam + pb.rho * (pb.A.T @ (pb.A @ x - pb.b)) \
            + _quadratic_gradient(pb.f, x)
        got = _smooth_grad(pb, x, lam)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    want = al.aug_lagrangian(pb, x2, lam) - al.aug_lagrangian(pb, x1, lam)
    got = plan.increase(x1, x2, plan.H @ x1, plan.H @ x2, c)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(al.aug_lagrangian(pb, x2, lam)))
    sol = al.solve_subproblem(pb, lam, 1e-10)
    assert sol.converged
    assert sol.obj_value == al.aug_lagrangian(pb, sol.x_plus, lam)


def test_plan_splits_quadratic_pieces_from_the_prox_atoms():
    rng = np.random.default_rng(21)
    M, N = rng.standard_normal((2, 2)), rng.standard_normal((5, 5))
    Qa, Qs = M @ M.T, N @ N.T / 5
    quad, l1 = al.Quadratic(Qa, rng.standard_normal(2)), al.L1(3, 0.6)
    f = al.CompositeFunction([(quad, (0, 2)), (l1, (2, 5))],
                             smooth_quad=al.SmoothQuadratic(5, Qs, rng.standard_normal(5)))
    pb = al.ProblemInstance(f, rng.standard_normal((3, 5)), rng.standard_normal(3), 1.7)
    plan = pb.subproblem_plan()
    curv = np.linalg.eigvalsh(Qa)[-1] + np.linalg.eigvalsh(Qs)[-1]
    assert plan.step == 0.99 / (pb.rho * pb.operator_norm_sq() + float(curv))
    (zero, zrng), (same, srng) = plan.nonsmooth.blocks
    assert type(zero) is al.Zero and zrng == (0, 2)
    assert same is l1 and srng == (2, 5)
    assert plan.nonsmooth.smooth_quad is None


def test_plan_arrays_are_read_only():
    pb = _plan_case("multi_block")
    plan = pb.subproblem_plan()
    assert pb.subproblem_plan() is plan
    for arr in (plan.H, plan.q, plan.l1_weight):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_operator_norm_runs_once_per_instance(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A)
        return al.operator_norm_sq(A)

    monkeypatch.setattr("almlab.problem.operator_norm_sq", counting)
    pb = al.generate(al.BenchmarkSpec("nonneg_lp", 6, 3, 1.0, 4))
    for lam in (np.zeros(3), np.ones(3), -np.ones(3)):
        al.solve_subproblem(pb, lam, 1e-8)
    assert len(calls) == 1


def test_warm_start_outside_box_matches_cold_start():
    # A has full column rank, so the minimizer is unique
    rng = np.random.default_rng(8)
    f = al.CompositeFunction.single(al.Box(-np.ones(3), np.ones(3)))
    pb = al.ProblemInstance(f, rng.standard_normal((5, 3)), rng.standard_normal(5), 1.0)
    lam = rng.standard_normal(5)
    cold = al.solve_subproblem(pb, lam, 1e-10)
    warm = al.solve_subproblem(pb, lam, 1e-10, x0=np.array([5.0, -5.0, 5.0]))
    assert cold.converged and warm.converged
    assert math.isfinite(warm.obj_value)
    assert np.linalg.norm(warm.x_plus - cold.x_plus) <= 1e-8


def test_restart_fires_on_an_ill_conditioned_quadratic():
    # f = (x1^2 + 0.01 x2^2) / 2 with A = 0: the step is set by x1, so on x2
    # the momentum carries the iterate past 0, after which |x2| and the
    # objective grow until a restart resets the momentum.  The quadratic is
    # a dense term over a ball whose radius never binds, so the prox is the
    # identity along the path and the non-polyhedral ball keeps polish off
    sq = al.SmoothQuadratic(2, np.diag([1.0, 0.01]))
    f = al.CompositeFunction.single(al.L2Ball(10.0, np.zeros(2)), smooth_quad=sq)
    pb = al.ProblemInstance(f, np.zeros((1, 2)), np.zeros(1), 1.0)
    sol = al.solve_subproblem(pb, np.zeros(1), 1e-10, x0=np.array([0.0, 1.0]))
    assert sol.converged
    assert 0 < sol.restarts <= sol.iterations
    assert not sol.polished


@pytest.mark.parametrize("family, d, p", [("nonneg_lp", 20, 8), ("basis_pursuit", 16, 6),
                                          ("qp", 24, 10)])
def test_restarts_are_not_rounding_noise(family, d, p):
    # at tol 1e-10 the decrease per iteration ends far below 1e-16 |L_rho|;
    # a restart test that subtracts two objective values restarts on 25-37%
    # of these iterations, one formed from the step on 2-4%
    pb = al.generate(al.BenchmarkSpec(family, d, p, 1.0, 5))
    rng = np.random.default_rng(1)
    sols = [al.solve_subproblem(pb, rng.uniform(-5, 5, pb.p), 1e-10) for _ in range(5)]
    assert all(s.converged for s in sols)
    assert sum(s.restarts for s in sols) <= 0.1 * sum(s.iterations for s in sols)


# ---------------------------------------------------------------------------
# face-identification polish


def _assert_polished(pb, lam, tol=1e-10):
    sol = al.solve_subproblem(pb, lam, tol)
    assert sol.polished and sol.converged
    assert sol.residual <= tol
    assert math.isfinite(sol.obj_value)
    assert sol.obj_value == al.aug_lagrangian(pb, sol.x_plus, lam)
    return sol


@pytest.mark.parametrize("family, d, p", [("qp", 24, 10), ("basis_pursuit", 16, 6),
                                          ("nonneg_lp", 20, 8), ("rank_deficient_box", 20, 8),
                                          ("tight_bound_family", 1, 1)])
def test_polish_on_every_family(family, d, p):
    pb = al.generate(al.BenchmarkSpec(family, d, p, 1.0, 5))
    assert pb.subproblem_plan().polishable
    rng = np.random.default_rng(1)
    # lam < 1 keeps tight_bound_family's minimizer off the cold start x = 0,
    # which would be returned before any iteration
    for _ in range(3):
        _assert_polished(pb, rng.uniform(-5.0, 0.5, pb.p))


@pytest.mark.parametrize("name", [n for n in _PLAN_CASES if n != "l2ball"])
def test_polish_on_every_polyhedral_atom_kind(name):
    pb = _plan_case(name)
    assert pb.subproblem_plan().polishable
    for seed in range(3):
        _assert_polished(pb, np.random.default_rng(seed).standard_normal(pb.p))


def test_l2ball_turns_polish_off():
    pb = _plan_case("l2ball")
    assert not pb.subproblem_plan().polishable
    sol = al.solve_subproblem(pb, np.ones(pb.p), 1e-10)
    assert sol.converged and not sol.polished


def test_plan_records_the_box_bounds():
    plan = _plan_case("multi_block").subproblem_plan()
    assert np.array_equal(plan.lo, [-np.inf] * 5 + [-1.0])
    assert np.array_equal(plan.hi, [np.inf] * 5 + [1.0])
    for arr in (plan.lo, plan.hi):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _qp_kkt_minimizer(pb, lam):
    """Q x + q + A'lam + rho A'(A x - b) = 0, solved directly."""
    atom = pb.f.blocks[0][0]
    K = atom.Q + pb.rho * (pb.A.T @ pb.A)
    return np.linalg.solve(K, -(atom.q + pb.A.T @ lam - pb.rho * (pb.A.T @ pb.b)))


def test_polished_qp_matches_the_kkt_minimizer():
    pb = al.generate(al.BenchmarkSpec("qp", 24, 10, 1.7, 3))
    lam = np.random.default_rng(2).uniform(-5.0, 5.0, pb.p)
    x_star = _qp_kkt_minimizer(pb, lam)
    sol = _assert_polished(pb, lam)
    assert np.linalg.norm(sol.x_plus - x_star) <= 1e-12 * (1.0 + np.linalg.norm(x_star))


def _counting_lstsq(monkeypatch, wrong_first=False):
    """Count lstsq calls; with wrong_first, the first call returns a zero step."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(M, rhs, rcond=None):
        calls.append(M.shape[0])
        if wrong_first and len(calls) == 1:
            return (np.zeros(M.shape[1]),)
        return lstsq(M, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def test_rejected_face_falls_back_to_fista(monkeypatch):
    # basis_pursuit settles on faces that are not yet the optimal one: the
    # first candidates fail the residual test, and FISTA carries on to the
    # face whose candidate passes
    calls = _counting_lstsq(monkeypatch)
    pb = al.generate(al.BenchmarkSpec("basis_pursuit", 16, 6, 1.0, 5))
    _assert_polished(pb, np.random.default_rng(1).uniform(-5.0, 5.0, pb.p))
    assert len(calls) >= 2


def test_wrong_polish_step_leaves_fista_to_converge(monkeypatch):
    # the qp subproblem has one face, all coordinates free; a wrong step on
    # it is rejected and the face is not tried again, so FISTA alone reaches
    # the tolerance
    calls = _counting_lstsq(monkeypatch, wrong_first=True)
    pb = al.generate(al.BenchmarkSpec("qp", 24, 10, 1.7, 3))
    lam = np.random.default_rng(2).uniform(-5.0, 5.0, pb.p)
    sol = al.solve_subproblem(pb, lam, 1e-10)
    assert len(calls) == 1
    assert sol.converged and not sol.polished
    assert sol.residual <= 1e-10
    assert sol.iterations > 3
    x_star = _qp_kkt_minimizer(pb, lam)
    assert np.linalg.norm(sol.x_plus - x_star) <= 1e-8 * (1.0 + np.linalg.norm(x_star))


def test_polish_candidate_outside_the_box_is_rejected():
    # the upper bound of x1 sits exactly on the unconstrained minimizer, so
    # the iterates settle on a face with x1 free and the candidate lands on
    # the bound or a rounding error beyond it, where its residual still
    # meets tol; only the domain test keeps it out
    for seed in range(8):
        rng = np.random.default_rng(seed)
        A, x_star = rng.standard_normal((4, 3)), rng.uniform(0.1, 0.9, 3)
        hi = np.array([x_star[0], 5.0, 5.0])
        f = al.CompositeFunction.single(al.Box(np.zeros(3), hi))
        pb = al.ProblemInstance(f, A, A @ x_star, 1.0)
        sol = al.solve_subproblem(pb, np.zeros(4), 1e-10)
        assert sol.converged and sol.residual <= 1e-10
        assert math.isfinite(sol.obj_value)
        assert np.all(sol.x_plus >= 0.0) and np.all(sol.x_plus <= hi)
