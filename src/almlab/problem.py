"""Linearly constrained convex programs  min f(x)  s.t.  Ax = b.

The augmented Lagrangian with penalty rho > 0 is

    L_rho(x, lam) = f(x) + lam'(Ax - b) + (rho/2) ||Ax - b||^2

and the plain Lagrangian drops the penalty term.  Both are evaluated as the
exact sum of their terms so that the identity

    aug_lagrangian == lagrangian + (rho/2) ||Ax - b||^2

holds in floating point, not just in exact arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .atoms import (
    L1, Box, CompositeFunction, Linear, Quadratic, ValidationError, Zero, _require_finite,
    _vector,
)

__all__ = [
    "ProblemInstance",
    "SubproblemPlan",
    "lagrangian",
    "aug_lagrangian",
    "operator_norm_sq",
]


class ProblemInstance:
    """Immutable problem data (f, A, b, rho) plus optional benchmark metadata.

    Parameters
    ----------
    f : CompositeFunction
        Closed proper convex objective.
    A : (p, d) array
        Dense constraint matrix.
    b : (p,) array
        Constraint right-hand side.
    rho : float
        Penalty parameter, must be positive.
    name : str
        Identifier used in traces and certificates.
    witness_x0 : (d,) array, optional
        A point with A x0 = b and f(x0) < inf; benchmark generators attach one.
    lambda_star, phi_star : optional
        Closed-form dual optimum and optimal value when the family admits them.
    """

    def __init__(self, f, A, b, rho, name="problem",
                 witness_x0=None, lambda_star=None, phi_star=None):
        if not isinstance(f, CompositeFunction):
            raise ValidationError("f must be a CompositeFunction")
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise ValidationError("A must be a two-dimensional matrix")
        if A.shape[1] != f.dim:
            raise ValidationError(
                f"A has {A.shape[1]} columns but f lives on {f.dim} coordinates"
            )
        b = _vector(b, A.shape[0], "b")
        if not np.all(np.isfinite(A)):
            raise ValidationError("A must have finite entries")
        if not np.all(np.isfinite(b)):
            raise ValidationError("b must have finite entries")
        if not (0.0 < float(rho) < math.inf):
            raise ValidationError("rho must be positive and finite")
        self.f = f
        self.A = A
        self.b = b
        self.rho = float(rho)
        self.name = str(name)
        self.A.setflags(write=False)
        self.b.setflags(write=False)

        if witness_x0 is not None:
            witness_x0 = _vector(witness_x0, f.dim, "witness_x0")
            _require_finite(witness_x0, "witness_x0")
            if math.isinf(f.value(witness_x0)):
                raise ValidationError("witness_x0 has infinite objective value")
            with np.errstate(over="ignore", invalid="ignore"):
                r = A @ witness_x0 - b
            if not np.all(np.isfinite(r)):
                raise ValidationError("witness_x0 violates A x = b (residual overflows)")
            # the norms of huge finite data overflow, so compare them scaled
            # by the largest entry; below 1 the scale is 1 and changes nothing
            scale = max(1.0, float(np.max(np.abs(r), initial=0.0)),
                        float(np.max(np.abs(b), initial=0.0)))
            gap = float(np.linalg.norm(r / scale))
            if gap > 1e-9 * (1.0 / scale + float(np.linalg.norm(b / scale))):
                raise ValidationError(
                    f"witness_x0 violates A x = b (residual {scale * gap:g})")
            witness_x0.setflags(write=False)
        self.witness_x0 = witness_x0
        if lambda_star is not None:
            lambda_star = _vector(lambda_star, A.shape[0], "lambda_star")
            _require_finite(lambda_star, "lambda_star")
            lambda_star.setflags(write=False)
        self.lambda_star = lambda_star
        if phi_star is not None:
            phi_star = float(phi_star)
            _require_finite(phi_star, "phi_star")
        self.phi_star = phi_star
        self._op_norm_sq = None
        self._plan = None

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.A.shape[0]

    def operator_norm_sq(self) -> float:
        """Cached largest squared singular value of A."""
        if self._op_norm_sq is None:
            self._op_norm_sq = operator_norm_sq(self.A)
        return self._op_norm_sq

    def subproblem_plan(self) -> "SubproblemPlan":
        """Cached :class:`SubproblemPlan`; the instance is immutable, so it
        never goes stale."""
        if self._plan is None:
            self._plan = SubproblemPlan.build(self)
        return self._plan

    def __repr__(self):
        return f"ProblemInstance({self.name!r}, d={self.d}, p={self.p}, rho={self.rho:g})"


_STEP_SAFETY = 0.99


@dataclass(frozen=True, eq=False)
class SubproblemPlan:
    """The inner subproblem of an instance in Gram form.

    For every multiplier lam, with c = A'lam + q,

        L_rho(x, lam) = 0.5 x'Hx + c'x + nonsmooth(x) + (terms free of x)

    where H = rho A'A plus the quadratic atoms' and the quadratic term's Q,
    q = -rho A'b plus their q and the linear atoms' c, and nonsmooth is f
    with each quadratic and linear atom replaced by Zero and the quadratic
    term dropped: build alone decides which pieces of f go by gradient and
    which by prox.  The gradient of the smooth part is H x + c.

    l1_weight holds the l1 weights per coordinate, 0 off their blocks, and
    is None where it is 0 everywhere.  lo and hi hold the box and nonneg
    bounds per coordinate, -inf and +inf off their blocks.  polishable says
    that every block of nonsmooth is polyhedral (zero, box, nonneg or l1),
    so that it is fixed by lo, hi and l1_weight alone.  step is the fixed
    prox-gradient step 0.99 / L, with L = rho ||A||^2 plus the curvature of
    the quadratic pieces.  Arrays are read-only.
    """

    H: np.ndarray
    q: np.ndarray
    step: float
    nonsmooth: CompositeFunction
    l1_weight: np.ndarray | None
    lo: np.ndarray
    hi: np.ndarray
    polishable: bool

    @classmethod
    def build(cls, pb):
        f, A, b, rho = pb.f, pb.A, pb.b, pb.rho
        H = rho * (A.T @ A)
        q = -rho * (A.T @ b)
        l1_weight = np.zeros(pb.d)
        lo = np.full(pb.d, -np.inf)
        hi = np.full(pb.d, np.inf)
        curv = 0.0
        blocks = []
        polishable = True
        for atom, (start, stop) in f.blocks:
            if isinstance(atom, Quadratic):
                H[start:stop, start:stop] += atom.Q
                q[start:stop] += atom.q
                curv = max(curv, atom.curvature())
                atom = Zero(stop - start)
            elif isinstance(atom, Linear):
                q[start:stop] += atom.c
                atom = Zero(stop - start)
            elif isinstance(atom, L1):
                l1_weight[start:stop] = atom.weight
            elif isinstance(atom, Box):
                lo[start:stop] = atom.lo
                hi[start:stop] = atom.hi
            elif not isinstance(atom, Zero):
                polishable = False
            blocks.append((atom, (start, stop)))
        sq = f.smooth_quad
        if sq is not None:
            if sq.Q is not None:
                H += sq.Q
            q += sq.q
            curv += sq.curvature()
        l1_weight = l1_weight if l1_weight.any() else None
        for arr in (H, q, l1_weight, lo, hi):
            if arr is not None:
                arr.setflags(write=False)
        curv = rho * pb.operator_norm_sq() + curv
        step = _STEP_SAFETY / curv if curv > 0.0 else _STEP_SAFETY
        return cls(H, q, step, CompositeFunction(blocks), l1_weight, lo, hi, polishable)

    def increase(self, x, x_new, Hx, Hx_new, c) -> float:
        """L_rho(x_new, lam) - L_rho(x, lam) for x, x_new prox outputs of
        nonsmooth, given Hx = H @ x, Hx_new = H @ x_new and c = A'lam + q.

        Every indicator atom is exactly 0 at a prox output, so only the l1
        atoms are valued.  The quadratic term uses the symmetry of H.  Each
        term is formed from x_new - x or |x_new| - |x|: a difference of the
        two values of L_rho would lose to rounding every change below about
        1e-16 |L_rho|.
        """
        dx = x_new - x
        inc = float(dx @ (0.5 * (Hx + Hx_new) + c))
        if self.l1_weight is not None:
            inc += float(self.l1_weight @ (np.abs(x_new) - np.abs(x)))
        return inc


def _lagrangian_and_residual(pb, x, lam):
    """(lagrangian(pb, x, lam), Ax - b); the residual is None when f(x) is +inf."""
    x = _vector(x, pb.d)
    lam = _vector(lam, pb.p, "lam")
    val = pb.f.value(x)
    if math.isinf(val):
        return math.inf, None
    r = pb.A @ x - pb.b
    return float(val + lam @ r), r


def lagrangian(pb, x, lam) -> float:
    """f(x) + lam'(Ax - b); +inf exactly when f(x) is +inf."""
    return _lagrangian_and_residual(pb, x, lam)[0]


def aug_lagrangian(pb, x, lam) -> float:
    """Augmented Lagrangian; equals lagrangian(pb, x, lam) plus the penalty term."""
    base, r = _lagrangian_and_residual(pb, x, lam)
    if r is None:
        return math.inf
    return float(base + 0.5 * pb.rho * float(r @ r))


def operator_norm_sq(A) -> float:
    """Largest squared singular value of A, from numpy's SVD-based matrix
    2-norm; a zero matrix returns 0.0 exactly."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValidationError("operator_norm_sq expects a matrix")
    return float(np.linalg.norm(A, 2) ** 2)
