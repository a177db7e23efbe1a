"""Numerical certificates for structural properties of the augmented dual.

Each check samples or grids a claim that holds exactly in theory (gradient
Lipschitz bound 1/rho, concavity, the Moreau-envelope and conjugate forms of
the dual, invariance of A x+ across inner minimizers) and reports a
:class:`Certificate` with the worst measured violation against an explicit
threshold.  Thresholds combine the mathematically exact part with an inner
accuracy budget; the budget terms are engineering estimates (inexact inner
solves do not admit tight universal error bounds) and are recorded in the
certificate so a reader can judge them.

Brute-force oracles here are deliberately independent of the solver path:
they evaluate objectives on explicit grids and never call the inner solver,
so a certificate failure points at a real defect (or an inadequate grid, for
the grid-based identities).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .atoms import Quadratic, ValidationError, _vector
from .inner import InnerSettings, solve_subproblem

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
_REFINE_ROUNDS = 3
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

    Each of three rounds re-grids a 5-point-per-axis neighborhood of the
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
    sol = solve_subproblem(pb, lam, InnerSettings(tol=tol, max_iter=_INNER_MAX_ITER, x0=x0))
    if not sol.converged:
        raise RuntimeError(
            f"inner solve did not reach tolerance {tol:g} within {_INNER_MAX_ITER} iterations"
        )
    return sol


def _top_witnesses(entries, fmt, count=5):
    """entries: list of (score, data); returns descriptions of the worst five."""
    order = sorted(range(len(entries)), key=lambda i: entries[i][0], reverse=True)
    return [fmt(entries[i][1]) for i in order[:count]]


def check_smoothness(pb, radius=10.0, n_pairs=200, tol_inner=1e-8,
                     seed=0) -> Certificate:
    """Sampled gradient-Lipschitz check: the dual gradient must be 1/rho-Lipschitz.

    Pairs closer than 1e-3 * radius are rejected and redrawn, so a
    degenerate pair never enters the ratio.  The threshold allows each of the
    two gradients an inner-accuracy budget of 2 * tol_inner, divided by the
    smallest accepted pair distance.
    """
    rng = np.random.default_rng(seed)
    min_dist = _MIN_DIST_FRAC * radius
    x_warm = None
    entries = []
    realized_min = math.inf
    for i in range(n_pairs):
        for _ in range(1000):
            l1 = _ball_point(rng, pb.p, radius)
            l2 = _ball_point(rng, pb.p, radius)
            dist = float(np.linalg.norm(l1 - l2))
            if dist >= min_dist:
                break
        else:
            raise ValidationError("could not sample a pair above the distance floor")
        s1 = _solve(pb, l1, tol_inner, x_warm)
        x_warm = s1.x_plus
        s2 = _solve(pb, l2, tol_inner, x_warm)
        x_warm = s2.x_plus
        ratio = float(np.linalg.norm(s1.constraint_map - s2.constraint_map)) / dist
        realized_min = min(realized_min, dist)
        entries.append((ratio, (i, ratio, dist)))
    bound = 1.0 / pb.rho
    max_ratio = max(score for score, _ in entries)
    worst = max_ratio - bound
    threshold = 4.0 * tol_inner / realized_min + 1e-9
    witnesses = _top_witnesses(
        entries, lambda w: f"pair {w[0]}: ratio={w[1]:.9g} dist={w[2]:.9g}"
    )
    return Certificate(
        "smoothness", pb.name, n_pairs, float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={
            "max_ratio": float(max_ratio),
            "smoothness_bound": bound,
            "min_pair_distance": float(realized_min),
            "tol_inner": tol_inner,
            "radius": radius,
        },
    )


def check_gradient_fd(pb, lam, h=1e-4, tol_inner=1e-8) -> Certificate:
    """Central finite differences of the dual value against the dual gradient.

    The threshold 10 * (h^2 + tol_inner / h) covers the second-order
    truncation term plus the inner-accuracy noise amplified by 1/h.  Near a
    curvature jump of size J the truncation error grows to about J*h/4, so
    only h >= J/40 makes the h^2 term dominate there; random sample points
    sit away from such jumps almost surely.
    """
    if not (h > 0.0):
        raise ValidationError("finite-difference step h must be positive")
    lam = _vector(lam, pb.p, "lam")
    base = _solve(pb, lam, tol_inner, None)
    x_warm = base.x_plus
    grad = base.constraint_map
    fd = np.empty(pb.p)
    for i in range(pb.p):
        e = np.zeros(pb.p)
        e[i] = h
        sp = _solve(pb, lam + e, tol_inner, x_warm)
        x_warm = sp.x_plus
        sm = _solve(pb, lam - e, tol_inner, x_warm)
        x_warm = sm.x_plus
        fd[i] = (sp.obj_value - sm.obj_value) / (2.0 * h)
    err = np.abs(fd - grad)
    worst_i = int(np.argmax(err))
    worst = float(err[worst_i])
    threshold = 10.0 * (h * h + tol_inner / h)
    witnesses = [f"coordinate {worst_i}: fd={fd[worst_i]:.9g} grad={grad[worst_i]:.9g}"]
    return Certificate(
        "gradient_fd", pb.name, 1, worst, float(threshold), worst <= threshold,
        witnesses, 0,
        details={"h": h, "tol_inner": tol_inner, "worst_coordinate": worst_i},
    )


def check_gradient_fd_sampled(pb, n_samples=50, radius=10.0, h=1e-4,
                              tol_inner=1e-8, seed=0) -> Certificate:
    """check_gradient_fd aggregated over multipliers sampled from a ball."""
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_samples):
        lam = _ball_point(rng, pb.p, radius)
        cert = check_gradient_fd(pb, lam, h=h, tol_inner=tol_inner)
        entries.append((cert.worst_violation, (i, cert.worst_violation, lam)))
    worst = max(score for score, _ in entries)
    threshold = 10.0 * (h * h + tol_inner / h)
    witnesses = _top_witnesses(
        entries,
        lambda w: f"sample {w[0]}: err={w[1]:.9g} at lam={np.array2string(w[2], precision=4)}",
    )
    return Certificate(
        "gradient_fd", pb.name, n_samples, float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={"h": h, "tol_inner": tol_inner, "radius": radius},
    )


def check_concavity(pb, radius=10.0, n_pairs=50, tol_inner=1e-8,
                    seed=0) -> Certificate:
    """Midpoint concavity: (phi(l1) + phi(l2))/2 - phi((l1+l2)/2) <= 0 up to
    three dual-value estimation budgets."""
    rng = np.random.default_rng(seed)
    x_warm = None
    entries = []
    for i in range(n_pairs):
        l1 = _ball_point(rng, pb.p, radius)
        l2 = _ball_point(rng, pb.p, radius)
        s1 = _solve(pb, l1, tol_inner, x_warm)
        x_warm = s1.x_plus
        s2 = _solve(pb, l2, tol_inner, x_warm)
        x_warm = s2.x_plus
        sm = _solve(pb, 0.5 * (l1 + l2), tol_inner, x_warm)
        x_warm = sm.x_plus
        gap = 0.5 * (s1.obj_value + s2.obj_value) - sm.obj_value
        entries.append((gap, (i, gap)))
    worst = max(score for score, _ in entries)
    threshold = 3.0 * tol_inner + 1e-9
    witnesses = _top_witnesses(entries, lambda w: f"pair {w[0]}: midpoint gap={w[1]:.9g}")
    return Certificate(
        "concavity", pb.name, n_pairs, float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={"tol_inner": tol_inner, "radius": radius},
    )


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
    """phi(w) = inf_x [f(x) + w'(Ax - b)], by closed form for a positive-
    definite quadratic f, otherwise by scanning an x grid (d <= 3).

    The grid route truncates unbounded directions at the box edge, so a w
    with phi(w) = -inf comes back merely very negative; values below
    ``floor`` are treated as -inf by the callers.  The box must extend well
    past the witness so escaping directions show up steeply.
    """

    def __init__(self, pb, x_grid=None):
        self.pb = pb
        self.atom = _pd_quadratic(pb)
        if self.atom is not None:
            return
        if pb.d > 3:
            raise ValidationError(
                "grid dual oracle needs d <= 3 unless f is a positive-definite quadratic"
            )
        _, X, self.fX = _f_on_grid(pb, x_grid)
        self.R = X @ pb.A.T - pb.b

    def batch(self, W) -> np.ndarray:
        if self.atom is not None:
            Y = -(W @ self.pb.A)  # rows: -A'w
            Z = np.linalg.solve(self.atom.Q, (Y - self.atom.q).T).T
            fstar = 0.5 * np.einsum("ni,ni->n", Y - self.atom.q, Z) - self.atom.c
            return -fstar - W @ self.pb.b
        out = np.empty(W.shape[0])
        rows = max(1, int(5_000_000 // max(self.R.shape[0], 1)))
        for start in range(0, W.shape[0], rows):
            chunk = W[start:start + rows]
            vals = self.fX[None, :] + chunk @ self.R.T
            out[start:start + chunk.shape[0]] = np.min(vals, axis=1)
        return out


def check_moreau_identity(pb, w_grid=None, x_grid=None, tol_inner=1e-8,
                          neg_inf_floor=-1e9, seed=0) -> Certificate:
    """Moreau-envelope form of the augmented dual.

    With phi the plain dual, the envelope  min_w [-phi(w) + ||w-lam||^2/(2 rho)]
    must equal minus the augmented dual value at each lam of the integer
    lattice {-3..3}^p.  The envelope is taken by brute force over w_grid
    (p <= 3), refined around the incumbent by :func:`_refine`; phi comes from
    an independent closed-form or x-grid oracle.  Grid points with
    phi(w) = -inf (detected as values below neg_inf_floor) are skipped and
    counted.

    The threshold is 1e-3 + 3 * tol_inner; 1e-3 is the resolution budget the
    default grids meet on boxes of half-width 10, not a per-instance error
    bound, so a coarser w_grid or x_grid may fail honestly.
    """
    if pb.p > 3:
        raise ValidationError("moreau check needs p <= 3")
    oracle = _StandardDualOracle(pb, x_grid)
    lam_samples = default_lambda_grid(pb.p)
    if w_grid is None:
        w_grid = GridSpec.cube(pb.p)

    def neg_phi(P):
        phi = oracle.batch(P)
        return np.where(phi < neg_inf_floor, np.inf, -phi)

    W = _grid_points(w_grid)
    negphi = neg_phi(W)
    skipped = int(np.sum(np.isposinf(negphi)))
    if not np.any(np.isfinite(negphi)):
        raise ValidationError("plain dual is -inf on the entire w grid")

    inv_two_rho = 1.0 / (2.0 * pb.rho)
    x_warm = None
    entries = []
    for idx, lam in enumerate(lam_samples):
        def envelope(P, negphi_P):
            return negphi_P + np.sum((P - lam) ** 2, axis=1) * inv_two_rho

        vals = envelope(W, negphi)
        i = int(np.argmin(vals))
        _, best_val = _refine(lambda P: envelope(P, neg_phi(P)), w_grid,
                              W[i], float(vals[i]))
        sol = _solve(pb, lam, tol_inner, x_warm)
        x_warm = sol.x_plus
        violation = abs(best_val + sol.obj_value)
        entries.append((violation, (idx, violation, lam)))

    worst = max(score for score, _ in entries)
    threshold = _GRID_BUDGET + 3.0 * tol_inner
    witnesses = _top_witnesses(
        entries,
        lambda w: f"lam={np.array2string(w[2], precision=4)}: |envelope + dual|={w[1]:.9g}",
    )
    return Certificate(
        "moreau", pb.name, lam_samples.shape[0], float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={
            "grid_budget": _GRID_BUDGET,
            "inner_term": 3.0 * tol_inner,
            "skipped_neg_inf": skipped,
            "w_points_per_axis": w_grid.points_per_axis,
            "closed_form_dual": oracle.atom is not None,
        },
    )


def check_conjugate_identity(pb, x_grid=None, tol_inner=1e-8, seed=0) -> Certificate:
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
    lam_samples = default_lambda_grid(pb.p)

    if atom is not None:
        P = atom.Q + pb.rho * (pb.A.T @ pb.A)
        r = atom.q - pb.rho * (pb.A.T @ pb.b)
        s = atom.c + 0.5 * pb.rho * float(pb.b @ pb.b)

        def f_rho_star(y):
            z = np.linalg.solve(P, y - r)
            return 0.5 * float((y - r) @ z) - s

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

    x_warm = None
    entries = []
    for idx, lam in enumerate(lam_samples):
        sol = _solve(pb, lam, tol_inner, x_warm)
        x_warm = sol.x_plus
        conj = f_rho_star(-(pb.A.T @ lam))
        violation = abs(sol.obj_value + conj + float(lam @ pb.b))
        entries.append((violation, (idx, violation, lam)))

    worst = max(score for score, _ in entries)
    threshold = _GRID_BUDGET + 3.0 * tol_inner
    witnesses = _top_witnesses(
        entries,
        lambda w: f"lam={np.array2string(w[2], precision=4)}: |dual + conjugate|={w[1]:.9g}",
    )
    return Certificate(
        "conjugate", pb.name, lam_samples.shape[0], float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={
            "grid_budget": _GRID_BUDGET,
            "inner_term": 3.0 * tol_inner,
            "closed_form_conjugate": atom is not None,
            "x_points_per_axis": x_points,
        },
    )


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
    sols = []
    for _ in range(n_inits):
        x0 = rng.uniform(-_INIT_BOX, _INIT_BOX, pb.d)
        sols.append(_solve(pb, lam, tol_inner, x0))
    entries = []
    x_spread = 0.0
    for i in range(n_inits):
        for j in range(i + 1, n_inits):
            g_gap = float(np.linalg.norm(sols[i].constraint_map - sols[j].constraint_map))
            x_gap = float(np.linalg.norm(sols[i].x_plus - sols[j].x_plus))
            x_spread = max(x_spread, x_gap)
            entries.append((g_gap, (i, j, g_gap, x_gap)))
    worst = max(score for score, _ in entries) if entries else 0.0
    threshold = 10.0 * tol_inner
    witnesses = _top_witnesses(
        entries,
        lambda w: f"starts ({w[0]},{w[1]}): grad gap={w[2]:.9g} x gap={w[3]:.9g}",
    )
    return Certificate(
        "invariance", pb.name, n_inits, float(worst), float(threshold),
        worst <= threshold, witnesses, seed,
        details={"x_spread": x_spread, "tol_inner": tol_inner, "init_box": _INIT_BOX},
    )
