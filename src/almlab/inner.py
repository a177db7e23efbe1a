"""Inner subproblem solver: x+ = argmin_x L_rho(x, lam) for fixed lam.

The subproblem is split as (smooth) + (nonsmooth):

    smooth(x)    = 0.5 x'Hx + c'x + (terms free of x),  c = A'lam + q
    nonsmooth(x) = the remaining atoms of f

where H and q come from the instance's cached SubproblemPlan, built once
per instance: H is rho A'A plus the quadratic pieces of f, q takes their
linear pieces and the linear atoms, and c is formed once per solve.  It is
solved by proximal gradient with Nesterov momentum (FISTA) and a
function-value restart: whenever the accelerated candidate increases the
objective, the step falls back to the plain proximal-gradient point from
the previous iterate, which makes the objective sequence nonincreasing.

Each iteration multiplies H by the extrapolated point, for its gradient, and
by the candidate.  The candidate's product gives both its gradient H x + c,
once it is accepted, and with the previous iterate's product the objective
change that the restart test reads (SubproblemPlan.increase).  That change
is formed from the step itself rather than as a difference of two objective
values, whose rounding would fire spurious restarts once the decrease per
iteration falls below about 1e-16 |L_rho|.  A start outside dom f is worth
+inf, so its first candidate is always kept.

The step is fixed at 0.99 / L with L = rho * sigma_max(A)^2 plus the
curvature of the quadratic pieces; no backtracking, so runs are deterministic.
Convergence is declared on the prox-gradient residual

    (1/t) ||x - prox_{t nonsmooth}(x - t (H x + c))|| <= tol

at an iterate x in dom f, the start point being iteration 0; the tolerance
is tied to the actual step t, which solvers report back in the solution.
obj_value is aug_lagrangian at the returned iterate, computed once per solve.

When every prox block is polyhedral (SubproblemPlan.polishable: zero, box,
nonneg and l1 atoms), FISTA's long tail is cut by a polish step.
The face of an iterate is which coordinates sit at a bound or at an l1 kink
(fixed) together with the signs of the other l1 coordinates.  Once one face
has held for 3 consecutive iterates, and only the first time that face
holds, the nonsmooth part is smooth on it, and its stationarity system on
the free coordinates F is linear:

    H_FF delta = -(H x + c + w sign(x))_F

The candidate is x plus a solution delta, taken from x rather than from 0
so that it stays near the feasible iterate.  It is returned only if its
prox-gradient residual, formed as for an iterate, is at most tol and the
nonsmooth part is finite there; otherwise FISTA goes on unchanged, so a
wrong face costs one face solve and never the result.  H_FF is often
singular (rho A'A has rank at most p), yet any solution serves: every
minimizer of L_rho(., lam) has the same A x, so the dual value and gradient
read from the candidate do not depend on which one is picked.  The face
solve is gated by a Cholesky factor L of H_FF: when it exists and its
smallest pivot is not negligible, min(diag L)^2 > 1e-12 max(diag L)^2, H_FF
is positive definite and a plain solve gives the unique delta; otherwise
lstsq, an SVD, takes the min-norm one.  Without the pivot test Cholesky
also accepts numerically singular faces, whose solve returns a useless step
and loses the polish.  The gate decides only the cost, never which point
the acceptance test lets through.
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
_POLISH_WINDOW = 3  # consecutive iterates on one face before it is polished
_PIVOT_RATIO = 1e-12  # squared Cholesky pivots below this share of the largest: singular


class DivergenceDetected(RuntimeError):
    """Iterate norm blew past 1e12 * (1 + ||x0||); the subproblem is unbounded
    below or the instance is misspecified."""


@dataclass(frozen=True, eq=False)
class InnerSolution:
    """Result of a subproblem solve.

    obj_value is aug_lagrangian(pb, x_plus, lam) exactly; constraint_map is
    A x_plus - b, i.e. the dual gradient estimate at lam.  converged=False
    means the residual target was not reached within max_iter and x_plus is
    the best (lowest-objective) iterate seen.  restarts counts the
    iterations whose accelerated candidate raised the objective.
    """

    x_plus: np.ndarray
    residual: float
    iterations: int
    obj_value: float
    constraint_map: np.ndarray
    converged: bool
    step: float
    restarts: int
    polished: bool


# iterates that blow up overflow before the divergence test reports them
@np.errstate(over="ignore")
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
    plan = pb.subproblem_plan()
    H, t, prox, increase = plan.H, plan.step, plan.nonsmooth.prox, plan.increase
    c = pb.A.T @ lam + plan.q

    x = np.zeros(pb.d) if x0 is None else _vector(x0, pb.d, "x0").copy()
    diverge_bound = _DIVERGE_FACTOR * (1.0 + math.sqrt(x @ x))
    in_domain = math.isfinite(plan.nonsmooth.value(x))

    def residual(x, Hx):
        """g = H x + c, z = prox(t, x - t g) and the residual ||x - z|| / t."""
        g = Hx + c
        z = prox(t, x - t * g)
        d = x - z
        return g, z, math.sqrt(d @ d) / t

    Hx, y, theta = H @ x, x, 1.0
    k = restarts = 0
    converged = polished = False
    face, stable, tried = None, 0, set()
    while True:
        g, z, res = residual(x, Hx)
        if res <= tol and in_domain:
            converged = True
            break
        if k >= 1 and plan.polishable:
            key = _face(plan, x)
            stable = stable + 1 if key == face else 1
            face = key
            if stable == _POLISH_WINDOW and key not in tried:
                tried.add(key)
                x_hat = _polish(plan, x, g)
                if x_hat is not None:
                    res_hat = residual(x_hat, H @ x_hat)[2]
                    if res_hat <= tol and math.isfinite(plan.nonsmooth.value(x_hat)):
                        x, res = x_hat, res_hat
                        converged = polished = True
                        break
        if k == max_iter:
            break
        k += 1
        x_new = prox(t, y - t * (H @ y + c))
        Hx_new = H @ x_new
        if in_domain and increase(x, x_new, Hx, Hx_new, c) > 0.0:
            # restart: take the plain prox-gradient point from x instead,
            # which cannot increase the objective for t <= 1/L
            x_new = z
            Hx_new = H @ z
            theta = 1.0
            restarts += 1
        in_domain = True
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_new
        y = x_new + beta * (x_new - x)
        x, Hx, theta = x_new, Hx_new, theta_new
        norm_x = math.sqrt(x @ x)
        if norm_x > diverge_bound:
            raise DivergenceDetected(
                f"iterate norm {norm_x:.3e} exceeded "
                f"{diverge_bound:.3e} after {k} iterations"
            )

    return InnerSolution(x, res, k, aug_lagrangian(pb, x, lam), pb.A @ x - pb.b,
                         converged, t, restarts, polished)


def _face(plan, x) -> bytes:
    """The face of a prox output x of a polishable plan: which coordinates
    sit at a lower or upper bound, and the sign of each l1 coordinate, 0 at
    its kink."""
    key = (x <= plan.lo).tobytes() + (x >= plan.hi).tobytes()
    if plan.l1_weight is not None:
        key += (np.sign(x) * plan.l1_weight).tobytes()
    return key


def _polish(plan, x, g):
    """x plus a solution of the stationarity system on the face of x, given
    g = H x + c; None when the face has no free coordinate.

    A coordinate is fixed at a bound or at the kink of a positive l1 weight;
    the others are free, and on them the nonsmooth part is the smooth term
    w sign(x), so stationarity reads H_FF delta = -(g + w sign(x))_F, solved
    by _face_step: the unique delta when H_FF passes the Cholesky gate, the
    min-norm one from lstsq on a singular face.
    """
    fixed = (x <= plan.lo) | (x >= plan.hi)
    grad = g
    if plan.l1_weight is not None:
        fixed |= (x == 0.0) & (plan.l1_weight > 0.0)
        grad = grad + plan.l1_weight * np.sign(x)
    free = np.flatnonzero(~fixed)
    if free.size == 0:
        return None
    x_hat = x.copy()
    x_hat[free] += _face_step(plan.H[free[:, None], free], -grad[free])
    return x_hat


def _face_step(H_FF, rhs):
    """A solution of H_FF delta = rhs for a symmetric positive semidefinite
    H_FF: the unique one by an LU solve when a Cholesky factor L exists and
    min(diag L)^2 > 1e-12 max(diag L)^2, else lstsq's min-norm one."""
    try:
        pivots = np.diag(np.linalg.cholesky(H_FF)) ** 2
    except np.linalg.LinAlgError:
        pass
    else:
        if pivots.min() > _PIVOT_RATIO * pivots.max():
            return np.linalg.solve(H_FF, rhs)
    return np.linalg.lstsq(H_FF, rhs, rcond=None)[0]
