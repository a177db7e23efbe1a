"""Linearly constrained convex programs  min f(x)  s.t.  Ax = b.

The augmented Lagrangian with penalty rho > 0 is

    L_rho(x, lam) = f(x) + lam'(Ax - b) + (rho/2) ||Ax - b||^2

and the plain Lagrangian drops the penalty term.  Both are evaluated as the
exact sum of their terms so that the identity

    aug_lagrangian == lagrangian + (rho/2) ||Ax - b||^2

holds in floating point, not just in exact arithmetic.
"""

import math

import numpy as np

from .atoms import CompositeFunction, ValidationError, _require_finite, _vector

__all__ = [
    "ProblemInstance",
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
            gap = float(np.linalg.norm(A @ witness_x0 - b))
            if gap > 1e-9 * (1.0 + float(np.linalg.norm(b))):
                raise ValidationError(f"witness_x0 violates A x = b (residual {gap:g})")
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

    def __repr__(self):
        return f"ProblemInstance({self.name!r}, d={self.d}, p={self.p}, rho={self.rho:g})"


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
