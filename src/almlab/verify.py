"""Numerical certificates for structural properties of the augmented dual.

Each check samples or grids a claim that holds exactly in theory (gradient
Lipschitz bound 1/rho, concavity, the Moreau-envelope and conjugate forms of
the dual, invariance of A x+ across inner minimizers) and reports a
:class:`Certificate` with the worst measured violation against an explicit
threshold.  Thresholds combine the mathematically exact part with an inner
accuracy budget; the budget terms are engineering estimates (inexact inner
solves do not admit tight universal error bounds) and are recorded in the
certificate so a reader can judge them.

Every check draws (or builds) all of its multipliers, solves at them, then
scores the solutions and builds the certificate with :func:`_certificate`.
The solves go through :func:`_solve_chain`, the one place that warm-starts a
solve at the previous solution and where a batched inner kernel would take
over; only the invariance check solves from its own random starts.

Brute-force oracles here are deliberately independent of the solver path:
they evaluate objectives on explicit grids and never call the inner solver,
so a certificate failure points at a real defect (or an inadequate grid, for
the grid-based identities).  The closed-form conjugates of the atoms, which
the moreau check uses for the plain dual, are solver-independent oracles in
the same sense: exact formulas that share no code with the inner solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import Quadratic, ValidationError, _vector
from .inner import solve_subproblem

__all__ = [
    "Certificate",
    "GridSpec",
    "brute_min",
    "default_lambda_grid",
    "check_smoothness",
    "check_gradient_fd",
    "check_gradient_fd_sampled",
    "check_concavity",
    "check_moreau_identity",
    "check_conjugate_identity",
    "check_gradient_invariance",
]

_MAX_GRID_TOTAL = 10_000_000
_MAX_BRUTE_DIM = 4
_REFINE_ROUNDS = 5
_INNER_MAX_ITER = 200_000
_MIN_DIST_FRAC = 1e-3
# resolution the default identity grids meet on boxes of half-width 10
_GRID_BUDGET = 1e-3
_INIT_BOX = 5.0

# default points per axis for the identity grids (w and x), keyed by dimension
_GRID_POINTS = {1: 2001, 2: 151, 3: 41}


@dataclass(frozen=True)
class Certificate:
    """Outcome of one sampled check on one instance.

    passed is exactly (worst_violation <= threshold).  witnesses holds up to
    five short descriptions of the worst samples; details carries per-check
    diagnostics (threshold components, skip counts, spreads).
    """

    check_name: str
    instance_name: str
    num_samples: int
    worst_violation: float
    threshold: float
    passed: bool
    witnesses: list
    rng_seed: int
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Axis-aligned evaluation grid: points_per_axis points per coordinate,
    at most 1e7 points in total."""

    lo: np.ndarray
    hi: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        lo = _vector(self.lo, None, "lo")
        hi = _vector(self.hi, lo.shape[0], "hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if np.any(lo >= hi):
            raise ValidationError("grid requires lo < hi componentwise")
        if self.points_per_axis < 3:
            raise ValidationError("grid needs at least 3 points per axis")
        if float(self.points_per_axis) ** lo.shape[0] > _MAX_GRID_TOTAL:
            raise ValidationError("grid exceeds the 1e7 total point guard")

    @property
    def ndim(self) -> int:
        return self.lo.shape[0]

    @property
    def total(self) -> int:
        return self.points_per_axis ** self.ndim

    def axes(self):
        return [np.linspace(self.lo[j], self.hi[j], self.points_per_axis)
                for j in range(self.ndim)]

    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (self.points_per_axis - 1)

    @staticmethod
    def cube(ndim, half_width=10.0, points_per_axis=None):
        if points_per_axis is None:
            points_per_axis = _GRID_POINTS.get(ndim, 21)
        return GridSpec(-half_width * np.ones(ndim), half_width * np.ones(ndim),
                        points_per_axis)


def _grid_chunk(axes, start, stop):
    shape = tuple(len(a) for a in axes)
    coords = np.unravel_index(np.arange(start, stop), shape)
    return np.stack([axes[j][coords[j]] for j in range(len(axes))], axis=1)


def _grid_points(grid):
    return _grid_chunk(grid.axes(), 0, grid.total)


def brute_min(objective, grid):
    """Exhaustive grid minimization with local refinement.

    objective must accept an (N, n) batch of points and return N values
    (+inf allowed).  The full scan is followed by :func:`_refine`.
    Supports n <= 4.

    Returns (argmin, min value).
    """
    n = grid.ndim
    if n > _MAX_BRUTE_DIM:
        raise ValidationError("brute_min supports at most 4 dimensions")
    axes = grid.axes()
    best_val = math.inf
    best_x = None
    chunk = 200_000
    for start in range(0, grid.total, chunk):
        pts = _grid_chunk(axes, start, min(start + chunk, grid.total))
        vals = np.asarray(objective(pts), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = pts[i].copy()
    if best_x is None or not math.isfinite(best_val):
        raise ValidationError("objective is +inf on the entire grid")
    return _refine(objective, grid, best_x, best_val)


def _refine(objective, grid, best_x, best_val):
    """Local refinement of a grid incumbent (best_x, best_val = objective there).

    Each of five rounds re-grids a 5-point-per-axis neighborhood of the
    incumbent at the current spacing, clipped to the grid box, then halves
    the spacing.  Returns the improved (argmin, min value).
    """
    n = grid.ndim
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    spacing = grid.spacing()
    for _ in range(_REFINE_ROUNDS):
        local_axes = [
            np.clip(best_x[j] + spacing[j] * offsets, grid.lo[j], grid.hi[j])
            for j in range(n)
        ]
        pts = _grid_chunk(local_axes, 0, 5 ** n)
        vals = np.asarray(objective(pts), dtype=float)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = pts[i].copy()
        spacing *= 0.5
    return best_x, best_val


def default_lambda_grid(p, lo=-3, hi=3) -> np.ndarray:
    """Integer lattice {lo..hi}^p, lexicographic order."""
    vals = np.arange(lo, hi + 1, dtype=float)
    mesh = np.meshgrid(*([vals] * p), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _ball_point(rng, p, radius):
    g = rng.standard_normal(p)
    n = float(np.linalg.norm(g))
    if n == 0.0:
        g = np.ones(p)
        n = math.sqrt(p)
    u = rng.random() ** (1.0 / p)
    return (radius * u / n) * g


def _solve(pb, lam, tol, x0):
    sol = solve_subproblem(pb, lam, tol, x0, _INNER_MAX_ITER)
    if not sol.converged:
        raise RuntimeError(
            f"inner solve did not reach tolerance {tol:g} within {_INNER_MAX_ITER} iterations"
        )
    return sol


def _solve_chain(pb, lams, tol):
    """Inner solutions at lams, in order.  Each solve is warm-started at the
    previous solution's x_plus; the first starts at zeros."""
    sols = []
    x_warm = None
    for lam in lams:
        sols.append(_solve(pb, lam, tol, x_warm))
        x_warm = sols[-1].x_plus
    return sols


def _certificate(check_name, pb, num_samples, entries, threshold, rng_seed, details,
                 offset=0.0):
    """Certificate from (score, witness) entries: worst_violation is the top
    score minus offset (0.0 without entries), and the witnesses are those of
    the five top scores, worst first."""
    if num_samples < 1:
        raise ValidationError(f"{check_name} check needs at least one sample")
    ranked = sorted(entries, key=lambda entry: entry[0], reverse=True)
    worst = float(ranked[0][0] - offset) if ranked else 0.0
    return Certificate(check_name, pb.name, num_samples, worst, float(threshold),
                       worst <= threshold, [w for _, w in ranked[:5]], rng_seed, details)


def check_smoothness(pb, radius=10.0, n_pairs=200, tol_inner=1e-8,
                     seed=0) -> Certificate:
    """Sampled gradient-Lipschitz check: the dual gradient must be 1/rho-Lipschitz.

    Pairs closer than 1e-3 * radius are rejected and redrawn, so a
    degenerate pair never enters the ratio.  The threshold allows each of the
    two gradients an inner-accuracy budget of 2 * tol_inner, divided by the
    smallest accepted pair distance.
    """
    if n_pairs < 1:
        raise ValidationError("smoothness check needs at least one sample")
    rng = np.random.default_rng(seed)
    min_dist = _MIN_DIST_FRAC * radius
    pairs = []
    for _ in range(n_pairs):
        for _ in range(1000):
            l1 = _ball_point(rng, pb.p, radius)
            l2 = _ball_point(rng, pb.p, radius)
            dist = float(np.linalg.norm(l1 - l2))
            if dist >= min_dist:
                break
        else:
            raise ValidationError("could not sample a pair above the distance floor")
        pairs.append((l1, l2, dist))
    sols = _solve_chain(pb, [lam for l1, l2, _ in pairs for lam in (l1, l2)], tol_inner)
    entries = []
    for i, (_, _, dist) in enumerate(pairs):
        s1, s2 = sols[2 * i], sols[2 * i + 1]
        ratio = float(np.linalg.norm(s1.constraint_map - s2.constraint_map)) / dist
        entries.append((ratio, f"pair {i}: ratio={ratio:.9g} dist={dist:.9g}"))
    bound = 1.0 / pb.rho
    max_ratio = max(ratio for ratio, _ in entries)
    realized_min = min(dist for _, _, dist in pairs)
    return _certificate(
        "smoothness", pb, n_pairs, entries, 4.0 * tol_inner / realized_min + 1e-9, seed,
        {
            "max_ratio": float(max_ratio),
            "smoothness_bound": bound,
            "min_pair_distance": float(realized_min),
            "tol_inner": tol_inner,
            "radius": radius,
        },
        offset=bound,
    )


def _fd_threshold(h, tol_inner):
    """Threshold of both finite-difference checks; rejects a step h <= 0."""
    if not (h > 0.0):
        raise ValidationError("finite-difference step h must be positive")
    return 10.0 * (h * h + tol_inner / h)


def _fd_errors(pb, lam, h, tol):
    """Central differences fd of the dual value at lam against the gradient
    estimate grad = A x+ - b, solved as the chain [lam, lam + h e0,
    lam - h e0, ...].  Returns (|fd - grad|, fd, grad)."""
    lams = [lam]
    for e in h * np.eye(pb.p):
        lams += [lam + e, lam - e]
    sols = _solve_chain(pb, lams, tol)
    fd = np.array([(sp.obj_value - sm.obj_value) / (2.0 * h)
                   for sp, sm in zip(sols[1::2], sols[2::2])])
    grad = sols[0].constraint_map
    return np.abs(fd - grad), fd, grad


def check_gradient_fd(pb, lam, h=1e-4, tol_inner=1e-8) -> Certificate:
    """Central finite differences of the dual value against the dual gradient.

    The threshold 10 * (h^2 + tol_inner / h) covers the second-order
    truncation term plus the inner-accuracy noise amplified by 1/h.  Near a
    curvature jump of size J the truncation error grows to about J*h/4, so
    only h >= J/40 makes the h^2 term dominate there; random sample points
    sit away from such jumps almost surely.
    """
    threshold = _fd_threshold(h, tol_inner)
    lam = _vector(lam, pb.p, "lam")
    err, fd, grad = _fd_errors(pb, lam, h, tol_inner)
    i = int(np.argmax(err))
    return _certificate(
        "gradient_fd", pb, 1, [(err[i], f"coordinate {i}: fd={fd[i]:.9g} grad={grad[i]:.9g}")],
        threshold, 0, {"h": h, "tol_inner": tol_inner, "worst_coordinate": i},
    )


def check_gradient_fd_sampled(pb, n_samples=50, radius=10.0, h=1e-4,
                              tol_inner=1e-8, seed=0) -> Certificate:
    """check_gradient_fd aggregated over multipliers sampled from a ball."""
    threshold = _fd_threshold(h, tol_inner)
    rng = np.random.default_rng(seed)
    lams = [_ball_point(rng, pb.p, radius) for _ in range(n_samples)]
    entries = []
    for i, lam in enumerate(lams):
        err = float(np.max(_fd_errors(pb, lam, h, tol_inner)[0]))
        entries.append((err, f"sample {i}: err={err:.9g} "
                             f"at lam={np.array2string(lam, precision=4)}"))
    return _certificate("gradient_fd", pb, n_samples, entries, threshold, seed,
                        {"h": h, "tol_inner": tol_inner, "radius": radius})


def check_concavity(pb, radius=10.0, n_pairs=50, tol_inner=1e-8,
                    seed=0) -> Certificate:
    """Midpoint concavity: (phi(l1) + phi(l2))/2 - phi((l1+l2)/2) <= 0 up to
    three dual-value estimation budgets."""
    rng = np.random.default_rng(seed)
    lams = []
    for _ in range(n_pairs):
        l1 = _ball_point(rng, pb.p, radius)
        l2 = _ball_point(rng, pb.p, radius)
        lams += [l1, l2, 0.5 * (l1 + l2)]
    sols = _solve_chain(pb, lams, tol_inner)
    entries = []
    for i in range(n_pairs):
        s1, s2, sm = sols[3 * i:3 * i + 3]
        gap = 0.5 * (s1.obj_value + s2.obj_value) - sm.obj_value
        entries.append((gap, f"pair {i}: midpoint gap={gap:.9g}"))
    return _certificate("concavity", pb, n_pairs, entries, 3.0 * tol_inner + 1e-9, seed,
                        {"tol_inner": tol_inner, "radius": radius})


# ---------------------------------------------------------------------------
# grid oracles for the identity checks


def _pd_quadratic(pb):
    """The single positive-definite quadratic atom of f, if that is all f is."""
    f = pb.f
    if f.smooth_quad is not None or len(f.blocks) != 1:
        return None
    atom = f.blocks[0][0]
    if isinstance(atom, Quadratic) and atom.is_positive_definite():
        return atom
    return None


def _f_on_grid(pb, x_grid):
    """The x grid (default: the cube for pb.d), its points X and f(X)."""
    if x_grid is None:
        x_grid = GridSpec.cube(pb.d)
    X = _grid_points(x_grid)
    fX = pb.f.value_batch(X)
    if not np.any(np.isfinite(fX)):
        raise ValidationError("f is +inf on the entire x grid")
    return x_grid, X, fX


class _StandardDualOracle:
    """phi(w) = inf_x [f(x) + w'(Ax - b)] = -f*(-A'w) - w'b.

    Exact, with true -inf, when f has a closed-form conjugate
    (``f.has_conjugate()``).  Otherwise phi is the minimum over an x grid
    (d <= 3), which truncates unbounded directions at the box edge, so a w
    with phi(w) = -inf comes back merely very negative.  A curved f at
    d >= 2 needs an x_grid passed in: the default one is too coarse for it.
    """

    def __init__(self, pb, x_grid=None):
        self.pb = pb
        self.exact = pb.f.has_conjugate()
        if self.exact:
            return
        if pb.d > 3:
            raise ValidationError(
                "grid dual oracle needs d <= 3 unless f has a closed-form conjugate"
            )
        quads = [atom for atom, _ in pb.f.blocks if isinstance(atom, Quadratic)]
        quads += [] if pb.f.smooth_quad is None else [pb.f.smooth_quad]
        if x_grid is None and pb.d >= 2 and any(qd.curvature() > 0.0 for qd in quads):
            raise ValidationError(
                "the default x grid is too coarse for a curved f at d >= 2; "
                "pass a finer x_grid (--grid-points)"
            )
        _, X, self.fX = _f_on_grid(pb, x_grid)
        self.R = X @ pb.A.T - pb.b

    def batch(self, W) -> np.ndarray:
        if self.exact:
            return -self.pb.f.conjugate_batch(-(W @ self.pb.A)) - W @ self.pb.b
        out = np.empty(W.shape[0])
        rows = max(1, int(5_000_000 // max(self.R.shape[0], 1)))
        for start in range(0, W.shape[0], rows):
            chunk = W[start:start + rows]
            vals = self.fX[None, :] + chunk @ self.R.T
            out[start:start + chunk.shape[0]] = np.min(vals, axis=1)
        return out


def _lattice_certificate(check_name, pb, tol_inner, residual, label, details):
    """Certificate of |residual(lam, solution at lam)| over the lattice
    {-3..3}^p, solved as one chain; the threshold and the details' first two
    entries are the grid budget and the inner term."""
    lams = default_lambda_grid(pb.p)
    entries = []
    for lam, sol in zip(lams, _solve_chain(pb, lams, tol_inner)):
        violation = abs(residual(lam, sol))
        entries.append((violation, f"lam={np.array2string(lam, precision=4)}: "
                                   f"|{label}|={violation:.9g}"))
    return _certificate(check_name, pb, lams.shape[0], entries, _GRID_BUDGET + 3.0 * tol_inner,
                        0, {"grid_budget": _GRID_BUDGET, "inner_term": 3.0 * tol_inner, **details})


def check_moreau_identity(pb, w_grid=None, x_grid=None, tol_inner=1e-8) -> Certificate:
    """Moreau-envelope form of the augmented dual.

    With phi the plain dual, the envelope  min_w [-phi(w) + ||w-lam||^2/(2 rho)]
    must equal minus the augmented dual value at each lam of the integer
    lattice {-3..3}^p.  The envelope is taken by brute force over w_grid
    (p <= 3), refined around the incumbent by :func:`_refine`.  phi is exact,
    -f*(-A'w) - w'b with true -inf, whenever f has a closed-form conjugate:
    box, nonneg, l1 with positive weight, l2ball and positive-definite
    quadratic atoms, plus a quadratic term with q and c only.  A dense
    quadratic term, or a zero, linear, weight-0 l1 or singular quadratic
    atom, falls back to the minimum over x_grid, which needs d <= 3; x_grid
    is unused otherwise.  Grid points with phi(w) = -inf are skipped and
    counted.

    The threshold is 1e-3 + 3 * tol_inner; 1e-3 is the resolution budget the
    default grids meet on boxes of half-width 10, not a per-instance error
    bound, so a coarser w_grid or x_grid may fail honestly.  The default x
    grid meets it only for polyhedral f or d = 1, since its spacing leaves
    an O(h^2 ||Q||) error in a curved phi (2.85e-3 on a curved f at d = 2),
    so a curved f at d >= 2 raises ValidationError unless x_grid is passed.
    A dual domain thin against the w-grid spacing can fail on resolution
    alone.
    """
    if pb.p > 3:
        raise ValidationError("moreau check needs p <= 3")
    oracle = _StandardDualOracle(pb, x_grid)
    if w_grid is None:
        w_grid = GridSpec.cube(pb.p)

    W = _grid_points(w_grid)
    negphi = -oracle.batch(W)
    skipped = int(np.sum(np.isposinf(negphi)))
    if not np.any(np.isfinite(negphi)):
        raise ValidationError("plain dual is -inf on the entire w grid")

    inv_two_rho = 1.0 / (2.0 * pb.rho)

    def envelope_plus_dual(lam, sol):
        def envelope(P, negphi_P):
            return negphi_P + np.sum((P - lam) ** 2, axis=1) * inv_two_rho

        vals = envelope(W, negphi)
        i = int(np.argmin(vals))
        _, best_val = _refine(lambda P: envelope(P, -oracle.batch(P)), w_grid,
                              W[i], float(vals[i]))
        return best_val + sol.obj_value

    details = {"skipped_neg_inf": skipped, "w_points_per_axis": w_grid.points_per_axis,
               "closed_form_dual": oracle.exact}
    return _lattice_certificate("moreau", pb, tol_inner, envelope_plus_dual,
                                "envelope + dual", details)


def check_conjugate_identity(pb, x_grid=None, tol_inner=1e-8) -> Certificate:
    """Conjugate form of the augmented dual.

    With f_rho = f + (rho/2)||A . - b||^2, the augmented dual value must equal
    -f_rho*(-A'lam) - lam'b at each lam of the integer lattice {-3..3}^p.
    The conjugate is closed form when f is a positive-definite quadratic;
    otherwise f_rho*(y) = -min_x [f_rho(x) - x'y], minimized over x_grid
    (d <= 3) and refined by :func:`_refine`.  Threshold as in
    check_moreau_identity.
    """
    atom = _pd_quadratic(pb)
    if atom is None and pb.d > 3:
        raise ValidationError(
            "conjugate check needs d <= 3 unless f is a positive-definite quadratic"
        )

    if atom is not None:
        f_rho = Quadratic(atom.Q + pb.rho * (pb.A.T @ pb.A), atom.q - pb.rho * (pb.A.T @ pb.b),
                          atom.c + 0.5 * pb.rho * float(pb.b @ pb.b))

        def f_rho_star(y):
            return float(f_rho.conjugate_batch(y[None, :])[0])

        x_points = None
    else:
        x_grid, X, fX = _f_on_grid(pb, x_grid)

        def penalty(P):
            return 0.5 * pb.rho * np.sum((P @ pb.A.T - pb.b) ** 2, axis=1)

        frhoX = fX + penalty(X)

        def f_rho_star(y):
            vals = frhoX - X @ y
            i = int(np.argmin(vals))
            _, best = _refine(lambda P: pb.f.value_batch(P) + penalty(P) - P @ y,
                              x_grid, X[i], float(vals[i]))
            return -best

        x_points = x_grid.points_per_axis

    def dual_plus_conjugate(lam, sol):
        return sol.obj_value + f_rho_star(-(pb.A.T @ lam)) + float(lam @ pb.b)

    details = {"closed_form_conjugate": atom is not None, "x_points_per_axis": x_points}
    return _lattice_certificate("conjugate", pb, tol_inner, dual_plus_conjugate,
                                "dual + conjugate", details)


def check_gradient_invariance(pb, lam=None, n_inits=10, tol_inner=1e-8,
                              seed=0) -> Certificate:
    """A x+ - b must not depend on which inner minimizer the solver lands on.

    Runs the inner solve from n_inits random starts (no warm starting) and
    measures the largest pairwise spread of the constraint maps; the x spread
    is reported as evidence of genuine non-uniqueness on degenerate
    instances.
    """
    if lam is None:
        lam = np.zeros(pb.p)
    lam = _vector(lam, pb.p, "lam")
    rng = np.random.default_rng(seed)
    sols = [_solve(pb, lam, tol_inner, rng.uniform(-_INIT_BOX, _INIT_BOX, pb.d))
            for _ in range(n_inits)]
    entries = []
    x_spread = 0.0
    for i in range(n_inits):
        for j in range(i + 1, n_inits):
            g_gap = float(np.linalg.norm(sols[i].constraint_map - sols[j].constraint_map))
            x_gap = float(np.linalg.norm(sols[i].x_plus - sols[j].x_plus))
            x_spread = max(x_spread, x_gap)
            entries.append((g_gap, f"starts ({i},{j}): grad gap={g_gap:.9g} x gap={x_gap:.9g}"))
    return _certificate("invariance", pb, n_inits, entries, 10.0 * tol_inner, seed,
                        {"x_spread": x_spread, "tol_inner": tol_inner, "init_box": _INIT_BOX})
