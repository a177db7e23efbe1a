import math
import tracemalloc

import numpy as np
import pytest

import almlab as al


def scalar_prox_oracle(atom, alpha, v, lo=-20.0, hi=20.0, n=2_000_001):
    """Brute grid minimization of f(y) + (y-v)^2/(2 alpha) for 1-d atoms."""
    ys = np.linspace(lo, hi, n)
    vals = atom.value_batch(ys[:, None]) + (ys - v) ** 2 / (2.0 * alpha)
    return float(ys[np.argmin(vals)])


def sample_atoms():
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


def test_every_atom_kind_round_trips_through_problem_dict():
    blocks, start = [], 0
    for _, atom in sample_atoms():
        blocks.append((atom, (start, start + atom.dim)))
        start += atom.dim
    pb = al.ProblemInstance(al.CompositeFunction(blocks), np.ones((1, start)),
                            np.zeros(1), 1.0)
    doc = al.problem_to_dict(pb)
    kinds = [kind for kind, _ in sample_atoms()]
    assert [rec["kind"] for rec in doc["atoms"]] == kinds
    back = al.problem_from_dict(doc)
    assert [type(atom) for atom, _ in back.f.blocks] == [type(a) for _, a in sample_atoms()]


# ---------------------------------------------------------------------------
# values


def test_l1_value_example():
    f = al.CompositeFunction.single(al.L1(2))
    assert f.value(np.array([1.0, -2.0])) == 3.0


def test_box_value_examples():
    box = al.Box(np.zeros(1), np.ones(1))
    f = al.CompositeFunction.single(box)
    assert f.value(np.array([0.5])) == 0.0
    assert f.value(np.array([2.0])) == math.inf


def test_quadratic_value_example():
    f = al.CompositeFunction.single(al.Quadratic(np.eye(2)))
    assert f.value(np.array([1.0, 1.0])) == 1.0


def test_values_never_negative_infinity():
    rng = np.random.default_rng(0)
    for _, atom in sample_atoms():
        for _ in range(50):
            v = atom.value(rng.uniform(-5, 5, atom.dim))
            assert v > -math.inf


def _scalar_value(atom, x):
    """f(x) by each atom's formula at one point, independent of value_batch."""
    if isinstance(atom, al.Quadratic):
        return float(0.5 * (x @ atom.Q @ x) + atom.q @ x + atom.c)
    if isinstance(atom, al.L1):
        return float(atom.weight * np.sum(np.abs(x)))
    if isinstance(atom, al.Box):  # nonneg too
        inside = np.all(x >= atom.lo) and np.all(x <= atom.hi)
        return 0.0 if inside else math.inf
    if isinstance(atom, al.L2Ball):
        dist = float(np.linalg.norm(x - atom.center))
        return 0.0 if dist <= atom.radius * (1.0 + 1e-12) else math.inf  # ball slack
    if isinstance(atom, al.Linear):
        return float(atom.c @ x)
    assert isinstance(atom, al.Zero)
    return 0.0


def test_value_batch_matches_value_loop():
    rng = np.random.default_rng(1)
    for name, atom in sample_atoms():
        X = rng.uniform(-4, 4, (40, atom.dim))
        batch = atom.value_batch(X)
        for i in range(40):
            single = _scalar_value(atom, X[i])
            if math.isinf(single):
                assert math.isinf(batch[i]), name
            else:
                assert batch[i] == pytest.approx(single, abs=1e-12), name


def test_infinite_block_wins_over_an_overflowing_block():
    # at x the box block is +inf and the linear block overflows to -inf
    f = al.CompositeFunction([(al.Box(np.zeros(1), np.ones(1)), (0, 1)),
                              (al.Linear(np.array([-10.0])), (1, 2))])
    x = np.array([-1.0, 1e308])
    with np.errstate(over="ignore"):
        assert f.value_batch(x[None])[0] == math.inf
        assert f.value(x) == math.inf


# ---------------------------------------------------------------------------
# prox: frozen examples, grid oracles, analytic cross-routes


def test_l1_prox_example():
    # grid minimization of |y| + (y-2)^2 gives 1.5 at alpha = 0.5
    f = al.CompositeFunction.single(al.L1(1))
    p = f.prox(0.5, np.array([2.0]))
    assert p[0] == pytest.approx(1.5, abs=1e-12)
    oracle = scalar_prox_oracle(al.L1(1), 0.5, 2.0)
    assert p[0] == pytest.approx(oracle, abs=2e-5)


def test_nonneg_prox_example():
    f = al.CompositeFunction.single(al.Nonneg(2))
    p = f.prox(3.7, np.array([-3.0, 2.0]))
    assert np.array_equal(p, np.array([0.0, 2.0]))


def test_quadratic_prox_example():
    # (I + alpha Q) y = v with Q = I, alpha = 1, v = 4 -> y = 2
    f = al.CompositeFunction.single(al.Quadratic(np.eye(1)))
    p = f.prox(1.0, np.array([4.0]))
    assert p[0] == pytest.approx(2.0, abs=1e-12)


def test_scalar_prox_against_grid_oracle():
    rng = np.random.default_rng(7)
    cases = [
        al.L1(1, weight=0.7),
        al.Box(np.array([-1.0]), np.array([2.0])),
        al.Nonneg(1),
        al.Quadratic(np.array([[2.0]]), np.array([0.3])),
        al.Linear(np.array([-1.2])),
        al.L2Ball(1.5, np.array([0.25])),
    ]
    for atom in cases:
        for _ in range(5):
            alpha = float(rng.uniform(0.1, 3.0))
            v = float(rng.uniform(-8, 8))
            got = atom.prox(alpha, np.array([v]))[0]
            want = scalar_prox_oracle(atom, alpha, v)
            assert got == pytest.approx(want, abs=4e-5), type(atom).__name__


def test_quadratic_prox_matches_fresh_solve():
    # the prox is the ridge system (I + alpha Q) y = v - alpha q
    rng = np.random.default_rng(11)
    B = rng.standard_normal((6, 6))
    Q = B @ B.T / 6.0
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(6)
    atom = al.Quadratic(Q, q)
    for alpha in (0.5, 0.5, 2.0):  # a repeated step must agree too
        v = rng.standard_normal(6)
        got = atom.prox(alpha, v)
        want = np.linalg.solve(np.eye(6) + alpha * Q, v - alpha * q)
        assert np.linalg.norm(got - want) <= 1e-10


def test_quadratic_prox_retains_no_memory_per_step():
    # one retained d x d matrix per distinct step would hold 4 MB here
    rng = np.random.default_rng(12)
    B = rng.standard_normal((50, 50))
    Q = B @ B.T / 50.0
    atom = al.Quadratic(0.5 * (Q + Q.T))
    v = rng.standard_normal(50)
    atom.prox(1.0, v)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for alpha in rng.uniform(0.1, 10.0, 200):
            atom.prox(float(alpha), v)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 100_000


def test_l2ball_prox_is_projection():
    center = np.array([1.0, -1.0, 0.0])
    atom = al.L2Ball(2.0, center)
    v = np.array([5.0, -1.0, 0.0])
    got = atom.prox(0.3, v)
    want = center + 2.0 * (v - center) / np.linalg.norm(v - center)
    assert np.linalg.norm(got - want) <= 1e-12
    # interior points are fixed
    assert np.array_equal(atom.prox(1.0, center), center)


def test_prox_output_stays_in_domain():
    rng = np.random.default_rng(3)
    for name, atom in sample_atoms():
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 5.0))
            p = atom.prox(alpha, rng.uniform(-10, 10, atom.dim))
            assert math.isfinite(atom.value(p)), name


def test_prox_residual_examples(prox_residual):
    z = al.CompositeFunction.single(al.Zero(2))
    assert prox_residual(z, np.array([1.0, -2.0]), np.zeros(2), 1.0) == 0.0
    nn = al.CompositeFunction.single(al.Nonneg(1))
    assert prox_residual(nn, np.zeros(1), np.array([5.0]), 1.0) == 0.0
    l1 = al.CompositeFunction.single(al.L1(1))
    # soft-threshold of 0.5 by t*weight = 1 is 0, so the defect is 0.5
    r = prox_residual(l1, np.array([0.5]), np.zeros(1), 1.0)
    assert r == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# prox properties: nonexpansiveness, optimality, Moreau envelope


def test_prox_nonexpansiveness():
    rng = np.random.default_rng(5)
    for name, atom in sample_atoms():
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 5.0))
            v1 = rng.uniform(-10, 10, atom.dim)
            v2 = rng.uniform(-10, 10, atom.dim)
            lhs = np.linalg.norm(atom.prox(alpha, v1) - atom.prox(alpha, v2))
            dist = np.linalg.norm(v1 - v2)
            assert lhs <= dist + 1e-10 * (1.0 + dist), name


def test_prox_optimality():
    rng = np.random.default_rng(6)
    for name, atom in sample_atoms():
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 4.0))
            v = rng.uniform(-6, 6, atom.dim)
            p = atom.prox(alpha, v)
            best = atom.value(p) + np.sum((p - v) ** 2) / (2 * alpha)
            for _ in range(100):
                y = rng.uniform(-8, 8, atom.dim)
                fy = atom.value(y)
                if math.isinf(fy):
                    continue
                assert best <= fy + np.sum((y - v) ** 2) / (2 * alpha) + 1e-9, name


def _envelope(atom, gamma, x):
    p = atom.prox(gamma, x)
    return atom.value(p) + float(np.sum((x - p) ** 2)) / (2 * gamma)


def test_moreau_envelope_gradient_matches_fd():
    rng = np.random.default_rng(8)
    h = 1e-6
    for name, atom in sample_atoms():
        for _ in range(25):
            gamma = float(rng.uniform(0.2, 3.0))
            x = rng.uniform(-5, 5, atom.dim)
            grad = (x - atom.prox(gamma, x)) / gamma
            for i in range(atom.dim):
                e = np.zeros(atom.dim)
                e[i] = h
                fd = (_envelope(atom, gamma, x + e) - _envelope(atom, gamma, x - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-5 * (1.0 + abs(grad[i])), name


def test_moreau_envelope_gradient_is_lipschitz():
    rng = np.random.default_rng(9)
    for name, atom in sample_atoms():
        for _ in range(200):
            gamma = float(rng.uniform(0.2, 3.0))
            x1 = rng.uniform(-6, 6, atom.dim)
            x2 = rng.uniform(-6, 6, atom.dim)
            g1 = (x1 - atom.prox(gamma, x1)) / gamma
            g2 = (x2 - atom.prox(gamma, x2)) / gamma
            assert (np.linalg.norm(g1 - g2)
                    <= np.linalg.norm(x1 - x2) / gamma * (1.0 + 1e-9)), name


# ---------------------------------------------------------------------------
# conjugates


def conjugate_cases():
    """Every atom kind with a closed-form conjugate, each as a composite, plus
    a composite whose quadratic term has q and c only."""
    rng = np.random.default_rng(21)
    B = rng.standard_normal((4, 4))
    Q = B @ B.T / 4.0 + 0.5 * np.eye(4)
    Q = 0.5 * (Q + Q.T)
    single = al.CompositeFunction.single
    return [
        ("quadratic", single(al.Quadratic(Q, rng.standard_normal(4), 0.3))),
        ("l1", single(al.L1(4, weight=0.7))),
        ("box", single(al.Box(np.array([-1.0, 0.0, -np.inf, -2.0]),
                              np.array([1.0, np.inf, 3.0, -1.0])))),
        ("nonneg", single(al.Nonneg(3))),
        ("l2ball", single(al.L2Ball(2.0, np.array([0.5, -0.5, 1.0])))),
        ("linear_term", al.CompositeFunction(
            [(al.L1(2, weight=0.5), (0, 2)), (al.Box(-np.ones(2), 2.0 * np.ones(2)), (2, 4))],
            smooth_quad=al.SmoothQuadratic(4, q=np.array([0.8, -0.3, 1.5, -2.0]), c=-1.2))),
    ]


def test_conjugate_availability():
    for name, f in conjugate_cases():
        assert f.has_conjugate(), name
    # conjugates whose domain is a point or a subspace are left out
    for atom in [al.Zero(2), al.Linear(np.ones(2)), al.L1(2, weight=0.0),
                 al.Quadratic(np.diag([1.0, 0.0]))]:
        assert not atom.has_conjugate(), atom
    dense = al.SmoothQuadratic(2, Q=np.eye(2))
    assert not al.CompositeFunction.single(al.Nonneg(2), smooth_quad=dense).has_conjugate()


def test_fenchel_young_equality_at_prox_outputs():
    # x = prox_{alpha f}(v) and y = (v - x)/alpha satisfy y in df(x), where
    # f(x) + f*(y) = x'y holds with equality
    rng = np.random.default_rng(22)
    for name, f in conjugate_cases():
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 5.0))
            v = rng.uniform(-10, 10, f.dim)
            x = f.prox(alpha, v)
            y = (v - x) / alpha
            xy = float(x @ y)
            fstar = float(f.conjugate_batch(y[None, :])[0])
            assert abs(f.value(x) + fstar - xy) <= 1e-9 * (1.0 + abs(xy)), name


def test_fenchel_young_inequality_at_sampled_points():
    rng = np.random.default_rng(23)
    for name, f in conjugate_cases():
        # prox outputs of uniform points: interior and boundary points of dom f
        X = np.array([f.prox(1.0, v) for v in rng.uniform(-4, 4, (50, f.dim))])
        fX = f.value_batch(X)
        Y = rng.uniform(-3, 3, (200, f.dim))
        fstar = f.conjugate_batch(Y)
        assert np.all(fstar > -np.inf) and not np.any(np.isnan(fstar)), name
        YX = Y @ X.T
        assert np.all(fstar[:, None] >= YX - fX[None, :] - 1e-9 * (1.0 + np.abs(YX))), name


def test_box_conjugate_at_zero_with_infinite_bounds():
    box = al.Box(np.array([-np.inf, 0.0, -np.inf]), np.array([np.inf, np.inf, 1.0]))
    Y = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])
    with np.errstate(all="raise"):
        got = box.conjugate_batch(Y)
    assert np.array_equal(got, [0.0, 0.0, np.inf, 2.0, np.inf])


# ---------------------------------------------------------------------------
# composites


def test_composite_value_and_prox_blockwise():
    rng = np.random.default_rng(10)
    l1 = al.L1(2, weight=0.5)
    box = al.Box(np.zeros(2), np.ones(2))
    f = al.CompositeFunction([(l1, (0, 2)), (box, (2, 4))])
    for _ in range(20):
        v = rng.uniform(-3, 3, 4)
        alpha = float(rng.uniform(0.1, 2.0))
        p = f.prox(alpha, v)
        assert np.array_equal(p[:2], l1.prox(alpha, v[:2]))
        assert np.array_equal(p[2:], box.prox(alpha, v[2:]))
        x = rng.uniform(0, 1, 4)
        assert f.value(x) == pytest.approx(l1.value(x[:2]) + box.value(x[2:]), abs=1e-12)


def test_composite_with_linear_smooth_part_prox():
    # prox of [l1 + q'x] is the l1 prox of the tilted point v - alpha q
    q = np.array([0.8, -0.3])
    f = al.CompositeFunction([(al.L1(2), (0, 2))],
                             smooth_quad=al.SmoothQuadratic(2, q=q))
    rng = np.random.default_rng(12)
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 2.0))
        v = rng.uniform(-4, 4, 2)
        got = f.prox(alpha, v)
        # scalar oracle on each coordinate of |y| + q y + (y-v)^2/(2a)
        for i in range(2):
            ys = np.linspace(-10, 10, 1_000_001)
            vals = np.abs(ys) + q[i] * ys + (ys - v[i]) ** 2 / (2 * alpha)
            want = ys[np.argmin(vals)]
            assert got[i] == pytest.approx(want, abs=4e-5)


def test_composite_prox_with_dense_quadratic_and_atom_raises():
    rng = np.random.default_rng(13)
    B = rng.standard_normal((2, 2))
    sq = al.SmoothQuadratic(2, Q=0.5 * (B @ B.T + B.T @ B))
    for atom in (al.L1(2), al.Zero(2)):
        f = al.CompositeFunction([(atom, (0, 2))], smooth_quad=sq)
        with pytest.raises(al.ValidationError, match="prox unavailable"):
            f.prox(1.0, np.zeros(2))


def test_composite_partition_validation():
    with pytest.raises(al.ValidationError, match="partition"):
        al.CompositeFunction([(al.L1(2), (0, 2)), (al.Nonneg(1), (3, 4))])
    with pytest.raises(al.ValidationError, match="partition"):
        al.CompositeFunction([(al.L1(2), (0, 2)), (al.Nonneg(2), (1, 3))])
    with pytest.raises(al.ValidationError):
        al.CompositeFunction([])
    with pytest.raises(al.ValidationError, match="dimension"):
        al.CompositeFunction([(al.L1(3), (0, 2))])


def test_nonsmooth_part_strips_quadratics():
    # the subproblem plan takes the quadratic pieces by gradient, not by prox
    Q = np.diag([2.0, 1.0])
    f = al.CompositeFunction([(al.Quadratic(Q), (0, 2)), (al.Nonneg(1), (2, 3))],
                             smooth_quad=al.SmoothQuadratic(3, q=np.ones(3)))
    plan = al.ProblemInstance(f, np.zeros((1, 3)), np.zeros(1), 1.0).subproblem_plan()
    g = plan.nonsmooth
    x = np.array([2.0, -1.0, 1.0])
    assert g.value(x) == 0.0  # quadratic block replaced by zero, tilt dropped
    assert g.smooth_quad is None
    assert plan.step == 0.99 / 2.0  # A = 0: the curvature is that of Q alone


# ---------------------------------------------------------------------------
# construction validation


def test_atom_validation_errors():
    with pytest.raises(al.ValidationError, match="symmetric"):
        al.Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(al.ValidationError):
        al.Quadratic(-np.eye(2))  # negative definite fails the PSD bound
    with pytest.raises(al.ValidationError, match="weight"):
        al.L1(2, weight=-0.1)
    with pytest.raises(al.ValidationError):
        al.Box(np.array([1.0]), np.array([0.0]))  # lo > hi
    with pytest.raises(al.ValidationError, match="radius"):
        al.L2Ball(0.0, np.zeros(2))
    with pytest.raises(al.ValidationError, match="length"):
        al.Zero(3).value(np.zeros(2))
    with pytest.raises(al.ValidationError, match="alpha"):
        al.CompositeFunction.single(al.L1(2)).prox(0.0, np.zeros(2))
    # parameters must be finite; only box bounds may be infinite
    with pytest.raises(al.ValidationError, match="weight"):
        al.L1(2, weight=np.inf)
    with pytest.raises(al.ValidationError, match="NaN"):
        al.Box(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(al.ValidationError, match="radius"):
        al.L2Ball(np.inf, np.zeros(2))
    with pytest.raises(al.ValidationError, match="center must be finite"):
        al.L2Ball(1.0, np.array([np.nan, 0.0]))
    with pytest.raises(al.ValidationError, match="linear c must be finite"):
        al.Linear(np.array([np.nan]))
    with pytest.raises(al.ValidationError, match="quadratic matrix must be finite"):
        al.Quadratic(np.array([[np.nan]]))
    with pytest.raises(al.ValidationError, match="quadratic q must be finite"):
        al.Quadratic(np.eye(1), q=np.array([np.inf]))
    with pytest.raises(al.ValidationError, match="quadratic term q must be finite"):
        al.SmoothQuadratic(1, q=np.array([np.nan]))
    assert np.isinf(al.Box(np.array([-np.inf]), np.array([np.inf])).lo[0])


def test_psd_tolerance_accepts_rounding():
    # eigenvalue -1e-12 * norm is inside the documented guard band
    Q = np.diag([1.0, -1e-12])
    atom = al.Quadratic(Q)
    assert atom.curvature() == pytest.approx(1.0)
