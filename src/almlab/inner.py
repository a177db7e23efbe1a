"""Inner subproblem solver: x+ = argmin_x L_rho(x, lam) for fixed lam.

The subproblem is split as (smooth) + (nonsmooth):

    smooth(x)    = lam'(Ax - b) + (rho/2)||Ax - b||^2 + quadratic pieces of f
    nonsmooth(x) = the remaining atoms of f

and solved by proximal gradient with Nesterov momentum (FISTA) and a
function-value restart: whenever the accelerated candidate increases the
objective, the step falls back to the plain proximal-gradient point from the
previous iterate, which makes the objective sequence nonincreasing.

The step is fixed at 0.99 / L with L = rho * sigma_max(A)^2 plus the
curvature of the quadratic pieces; no backtracking, so runs are deterministic.
Convergence is declared on the prox-gradient residual at the returned iterate
(see CompositeFunction.prox_residual); the tolerance is therefore tied to the
actual step t, which solvers report back in the solution.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atoms import ValidationError, _vector
from .problem import aug_lagrangian

__all__ = [
    "InnerSolution",
    "DivergenceDetected",
    "solve_subproblem",
]

_DIVERGE_FACTOR = 1e12
_STEP_SAFETY = 0.99


class DivergenceDetected(RuntimeError):
    """Iterate norm blew past 1e12 * (1 + ||x0||); the subproblem is unbounded
    below or the instance is misspecified."""


@dataclass(frozen=True, eq=False)
class InnerSolution:
    """Result of a subproblem solve.

    obj_value is aug_lagrangian(pb, x_plus, lam) exactly; constraint_map is
    A x_plus - b, i.e. the dual gradient estimate at lam.  converged=False
    means the residual target was not reached within max_iter and x_plus is
    the best (lowest-objective) iterate seen.
    """

    x_plus: np.ndarray
    residual: float
    iterations: int
    obj_value: float
    constraint_map: np.ndarray
    converged: bool
    step: float


def _smooth_gradient(pb, x, aT_lam):
    """Gradient of the smooth part: A'lam + rho A'(Ax - b) + quadratic pieces."""
    return aT_lam + pb.rho * (pb.A.T @ (pb.A @ x - pb.b)) + pb.f.quadratic_gradient(x)


def solve_subproblem(pb, lam, tol, x0=None, max_iter=100_000) -> InnerSolution:
    """Minimize the augmented Lagrangian over x at fixed lam.

    tol is the prox-gradient residual target (positive), x0 the warm start
    (zeros when None) and max_iter the iteration budget (at least 1).

    Always solvable: the smooth part has full domain and f is closed proper
    convex, so a minimizer exists for every lam.  Raises DivergenceDetected
    when iterates blow up (unbounded instance); returns converged=False when
    max_iter runs out first.
    """
    if not (tol > 0.0):
        raise ValidationError("inner tolerance must be positive")
    if max_iter < 1:
        raise ValidationError("inner max_iter must be at least 1")
    lam = _vector(lam, pb.p, "lam")
    f_ns = pb.f.nonsmooth_part()
    curv = pb.rho * pb.operator_norm_sq() + pb.f.quadratic_curvature()
    t = _STEP_SAFETY / curv if curv > 0.0 else _STEP_SAFETY

    if x0 is not None:
        x = _vector(x0, pb.d, "x0").copy()
    else:
        x = np.zeros(pb.d)
    diverge_bound = _DIVERGE_FACTOR * (1.0 + float(np.linalg.norm(x)))
    aT_lam = pb.A.T @ lam

    obj = aug_lagrangian(pb, x, lam)
    g = _smooth_gradient(pb, x, aT_lam)
    z = f_ns.prox(t, x - t * g)
    res = float(np.linalg.norm(x - z) / t)
    if res <= tol and math.isfinite(obj):
        return InnerSolution(x, res, 0, obj, pb.A @ x - pb.b, True, t)

    y = x
    g_y = g  # gradient at y is known whenever y coincides with x
    y_is_x = True
    theta = 1.0
    iterations = 0
    converged = False
    for k in range(1, max_iter + 1):
        if not y_is_x:
            g_y = _smooth_gradient(pb, y, aT_lam)
        x_new = f_ns.prox(t, y - t * g_y)
        obj_new = aug_lagrangian(pb, x_new, lam)
        if obj_new > obj:
            # restart: take the plain prox-gradient point from x instead,
            # which cannot increase the objective for t <= 1/L
            x_new = z
            obj_new = aug_lagrangian(pb, z, lam)
            theta = 1.0
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_new
        y = x_new + beta * (x_new - x)
        y_is_x = beta == 0.0
        x, obj, theta = x_new, obj_new, theta_new
        if float(np.linalg.norm(x)) > diverge_bound:
            raise DivergenceDetected(
                f"iterate norm {float(np.linalg.norm(x)):.3e} exceeded "
                f"{diverge_bound:.3e} after {k} iterations"
            )
        g = _smooth_gradient(pb, x, aT_lam)
        z = f_ns.prox(t, x - t * g)
        res = float(np.linalg.norm(x - z) / t)
        if y_is_x:
            g_y = g
        iterations = k
        if res <= tol:
            converged = True
            break

    return InnerSolution(x, res, iterations, obj, pb.A @ x - pb.b, converged, t)
