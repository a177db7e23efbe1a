"""Outer dual methods on the augmented-Lagrangian dual.

With x+(lam) = argmin_x L_rho(x, lam), the dual function

    phi(lam) = L_rho(x+(lam), lam)

is concave with full domain and a (1/rho)-Lipschitz gradient A x+(lam) - b,
so the classic multiplier update

    lam_{k+1} = lam_k + rho (A x+ - b)

is exactly gradient ascent on phi with step rho.  ``alm`` runs that update
verbatim; ``accelerated_alm`` is one faithful Nesterov-style instantiation
for smooth concave maximization: the ascent step is taken at an extrapolated
point, with extrapolation weights theta_{k+1} = (1 + sqrt(1+4 theta_k^2))/2
and a restart to plain ascent whenever the recorded dual value decreases.

Each trace record k holds lam_k together with the inner solution computed at
lam_k (dual value estimate, gradient norm, primal objective, inner iteration
count).  For ``alm`` that same inner solution produces lam_{k+1}, so traces
replay bit for bit; the accelerated method performs a second inner solve at
the extrapolated point for its step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atoms import ValidationError, _vector
from .inner import solve_subproblem

__all__ = [
    "OuterSettings",
    "TraceRecord",
    "SolveTrace",
    "alm",
    "accelerated_alm",
]

_DUAL_DIVERGE_FACTOR = 1e12
_TOL_FLOOR = 1e-12


@dataclass(frozen=True)
class OuterSettings:
    """Outer loop controls; max_outer counts dual updates, so a trace holds
    at most max_outer + 1 records.

    The inner tolerance of outer iteration k is inner_tol0 * inner_factor^k,
    floored at 1e-12; inner_factor = 1 keeps it constant.
    """

    max_outer: int = 500
    inner_tol0: float = 1e-4
    inner_factor: float = 0.5
    grad_stop: float = 1e-6
    inner_max_iter: int = 100_000

    def __post_init__(self):
        if self.max_outer < 0:
            raise ValidationError("max_outer must be nonnegative")
        if not (self.inner_tol0 > 0.0):
            raise ValidationError("inner_tol0 must be positive")
        if not (0.0 < self.inner_factor <= 1.0):
            raise ValidationError("inner_factor must lie in (0, 1]")
        if not (self.grad_stop > 0.0):
            raise ValidationError("grad_stop must be positive")
        if self.inner_max_iter < 1:
            raise ValidationError("inner_max_iter must be at least 1")

    def inner_tol(self, k: int) -> float:
        return max(_TOL_FLOOR, self.inner_tol0 * self.inner_factor ** k)


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One outer iteration: the multiplier and its inner solution summary.

    constraint_map is kept in memory for replay checks; only the scalar
    columns go to disk.
    """

    k: int
    lam: np.ndarray
    phi_est: float
    grad_norm: float
    primal_obj: float
    inner_iters: int
    constraint_map: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveTrace:
    records: tuple
    settings: OuterSettings
    terminated_reason: str


# the norm of a huge multiplier overflows to inf, which the divergence tests
# here and in the inner solve read
@np.errstate(over="ignore")
def _run_outer(pb, lam0, settings, accelerated):
    if settings is None:
        settings = OuterSettings()
    if lam0 is None:
        lam = np.zeros(pb.p)
    else:
        lam = _vector(lam0, pb.p, "lam0").copy()

    diverge_bound = _DUAL_DIVERGE_FACTOR * (1.0 + float(np.linalg.norm(lam)))
    records = []
    reason = "max_outer"
    x_warm = None
    y = lam
    theta = 1.0
    phi_prev = None

    for k in range(settings.max_outer + 1):
        tol_k = settings.inner_tol(k)
        sol = solve_subproblem(pb, lam, tol_k, x_warm, settings.inner_max_iter)
        x_warm = sol.x_plus
        rec = TraceRecord(
            k=k,
            lam=lam.copy(),
            phi_est=sol.obj_value,
            grad_norm=float(np.linalg.norm(sol.constraint_map)),
            primal_obj=pb.f.value(sol.x_plus),
            inner_iters=sol.iterations,
            constraint_map=sol.constraint_map.copy(),
        )
        records.append(rec)

        if not sol.converged:
            reason = "inner_max_iter"
            break
        if rec.grad_norm <= settings.grad_stop:
            reason = "grad_stop"
            break
        if k == settings.max_outer:
            reason = "max_outer"
            break
        if float(np.linalg.norm(lam)) > diverge_bound:
            reason = "dual_divergence"
            break

        if not accelerated:
            lam = lam + pb.rho * sol.constraint_map
        else:
            if phi_prev is not None and rec.phi_est < phi_prev:
                theta = 1.0
                y = lam
            if y is lam or np.array_equal(y, lam):
                sol_step = sol
            else:
                sol_step = solve_subproblem(pb, y, tol_k, x_warm, settings.inner_max_iter)
                x_warm = sol_step.x_plus
            lam_new = y + pb.rho * sol_step.constraint_map
            theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            y = lam_new + ((theta - 1.0) / theta_new) * (lam_new - lam)
            lam = lam_new
            theta = theta_new
        phi_prev = rec.phi_est

    return SolveTrace(tuple(records), settings, reason)


def alm(pb, lam0=None, settings=None) -> SolveTrace:
    """Multiplier method: lam_{k+1} = lam_k + rho (A x+ - b), warm-starting
    each inner solve at the previous x+.  Stops when the gradient norm falls
    to grad_stop or after max_outer updates."""
    return _run_outer(pb, lam0, settings, accelerated=False)


def accelerated_alm(pb, lam0=None, settings=None) -> SolveTrace:
    """Nesterov-accelerated variant; see the module docstring for the scheme."""
    return _run_outer(pb, lam0, settings, accelerated=True)
