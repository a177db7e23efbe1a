"""Catalog of closed proper convex functions with exact value and prox oracles.

Atoms whose conjugate has a closed form on a domain with nonempty interior
(box, nonneg, l1 with positive weight, l2ball, positive-definite quadratic)
also evaluate it exactly, with +inf off its domain.

Atoms are immutable after construction and safe to share across threads.
Their parameters must be finite; only box bounds may be infinite.
Extended-real values are represented directly by ``math.inf``; an atom value
may be ``+inf``, and is ``-inf`` only where a huge finite x overflows it.
Every prox is a closed form but the quadratic atom's, a ridge solve.

Each function's value has one definition, ``value_batch`` over the rows of
a matrix; the scalar ``value`` is its one row.  A composite row is ``+inf``
exactly where some block is ``+inf``, even where another block overflowed
to ``-inf``.

A :class:`CompositeFunction` is a separable sum of atoms over a partition of
the coordinates, plus an optional quadratic term that is meant to be handled
by gradient rather than by prox (see :class:`SmoothQuadratic`).
"""

import math

import numpy as np

__all__ = [
    "ValidationError",
    "Atom",
    "Zero",
    "Quadratic",
    "L1",
    "Box",
    "Nonneg",
    "L2Ball",
    "Linear",
    "SmoothQuadratic",
    "CompositeFunction",
]

# relative slack for ball membership; absorbs the rounding of a projection
_BALL_SLACK = 1e-12


class ValidationError(ValueError):
    """A structural invariant on user input is violated."""


def _vector(x, dim=None, name="x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional vector")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"{name} has length {arr.shape[0]}, expected {dim}")
    return arr


def _require_finite(value, name):
    """Reject NaN and infinite entries of a number or array from outside."""
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{name} must be finite")


def _check_symmetric_psd(Q, name):
    """Validate finiteness, symmetry (within 1e-12) and PSD (min eig >= -1e-10 * ||Q||)."""
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"{name} must be a square matrix")
    _require_finite(Q, name)
    if Q.shape[0] > 0 and np.max(np.abs(Q - Q.T)) > 1e-12:
        raise ValidationError(f"{name} is not symmetric within 1e-12")
    eigs = np.linalg.eigvalsh(Q)
    spectral = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    if float(eigs[0]) < -1e-10 * spectral:
        raise ValidationError(
            f"{name} is not positive semidefinite (min eigenvalue {float(eigs[0]):g})"
        )
    return float(eigs[0]), float(eigs[-1])


class Atom:
    """A closed proper convex function on R^dim with exact value and prox."""

    def __init__(self, dim):
        if int(dim) != dim or dim < 1:
            raise ValidationError("atom dimension must be a positive integer")
        self.dim = int(dim)

    def value(self, x) -> float:
        """f(x): the one row of :meth:`value_batch`, with x checked to have
        length dim."""
        return float(self.value_batch(_vector(x, self.dim)[None, :])[0])

    def value_batch(self, X) -> np.ndarray:
        """Values at the rows of X, in (-inf, +inf]: the one definition of f."""
        raise NotImplementedError

    def prox(self, alpha, v) -> np.ndarray:
        """argmin_y  f(y) + ||y - v||^2 / (2*alpha)  for alpha > 0."""
        raise NotImplementedError

    def has_conjugate(self) -> bool:
        """Whether :meth:`conjugate_batch` is available: the conjugate has a
        closed form whose domain has nonempty interior."""
        return False

    def conjugate_batch(self, Y) -> np.ndarray:
        """Convex conjugate f*(y) = sup_x [y'x - f(x)] at the rows of Y, in
        (-inf, +inf]; only where :meth:`has_conjugate` holds."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Zero(Atom):
    """f(x) = 0."""

    def value_batch(self, X):
        return np.zeros(X.shape[0])

    def prox(self, alpha, v):
        return _vector(v, self.dim, "v").copy()


class Quadratic(Atom):
    """f(x) = 0.5 x'Qx + q'x + c with symmetric positive semidefinite Q."""

    def __init__(self, Q, q=None, c=0.0):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2:
            raise ValidationError("quadratic matrix must be two-dimensional")
        super().__init__(Q.shape[0])
        self._eig_min, self._eig_max = _check_symmetric_psd(Q, "quadratic matrix")
        self.Q = Q
        self.q = _vector(q, self.dim, "q") if q is not None else np.zeros(self.dim)
        self.c = float(c)
        _require_finite(self.q, "quadratic q")
        _require_finite(self.c, "quadratic c")
        self.Q.setflags(write=False)
        self.q.setflags(write=False)

    def value_batch(self, X):
        return 0.5 * np.vecdot(X @ self.Q, X) + X @ self.q + self.c

    def curvature(self):
        """Largest eigenvalue of Q."""
        return self._eig_max

    def is_positive_definite(self):
        return self._eig_min > 0.0

    def has_conjugate(self):
        return self.is_positive_definite()

    def conjugate_batch(self, Y):
        # 0.5 (y - q)' Q^-1 (y - q) - c
        S = Y - self.q
        return 0.5 * np.vecdot(S, np.linalg.solve(self.Q, S.T).T) - self.c

    def prox(self, alpha, v):
        v = _vector(v, self.dim, "v")
        return np.linalg.solve(np.eye(self.dim) + alpha * self.Q, v - alpha * self.q)


class L1(Atom):
    """f(x) = weight * sum_i |x_i| with weight >= 0."""

    def __init__(self, dim, weight=1.0):
        super().__init__(dim)
        if not (0.0 <= float(weight) < math.inf):
            raise ValidationError("l1 weight must be nonnegative and finite")
        self.weight = float(weight)

    def value_batch(self, X):
        return self.weight * np.sum(np.abs(X), axis=1)

    def has_conjugate(self):
        return self.weight > 0.0

    def conjugate_batch(self, Y):
        # indicator of the weight-ball in the max-norm, with the ball slack
        inside = np.max(np.abs(Y), axis=1) <= self.weight * (1.0 + _BALL_SLACK)
        return np.where(inside, 0.0, np.inf)

    def prox(self, alpha, v):
        v = _vector(v, self.dim, "v")
        thresh = alpha * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


class Box(Atom):
    """Indicator of {lo <= x <= hi}; entries of lo/hi may be -inf/+inf."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.ndim == 0:
            lo = lo.reshape(1)
        if hi.ndim == 0:
            hi = hi.reshape(1)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box bounds must be vectors of equal length")
        super().__init__(lo.shape[0])
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValidationError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValidationError("box requires lo <= hi componentwise")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValidationError("box domain is empty on some coordinate")
        self.lo = lo
        self.hi = hi
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    def value_batch(self, X):
        inside = np.all((X >= self.lo) & (X <= self.hi), axis=1)
        return np.where(inside, 0.0, np.inf)

    def prox(self, alpha, v):
        v = _vector(v, self.dim, "v")
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def has_conjugate(self):
        return True

    def conjugate_batch(self, Y):
        # support function sum_i max(y_i lo_i, y_i hi_i); y_i = 0 takes the
        # bound 0, so an infinite bound never meets a zero
        bound = np.where(Y > 0.0, self.hi, np.where(Y < 0.0, self.lo, 0.0))
        return np.sum(bound * Y, axis=1)


class Nonneg(Box):
    """Indicator of the nonnegative orthant: Box(0, +inf), serialized as nonneg."""

    def __init__(self, dim):
        Atom.__init__(self, dim)  # reject a bad dim before numpy sees it
        super().__init__(np.zeros(self.dim), np.full(self.dim, np.inf))


class L2Ball(Atom):
    """Indicator of the Euclidean ball {||x - center|| <= radius}, radius > 0."""

    def __init__(self, radius, center):
        center = _vector(center, None, "center")
        super().__init__(center.shape[0])
        if not (0.0 < float(radius) < math.inf):
            raise ValidationError("ball radius must be positive and finite")
        _require_finite(center, "ball center")
        self.radius = float(radius)
        self.center = center
        self.center.setflags(write=False)

    def value_batch(self, X):
        dist = np.linalg.norm(X - self.center, axis=1)
        return np.where(dist <= self.radius * (1.0 + _BALL_SLACK), 0.0, np.inf)

    def prox(self, alpha, v):
        v = _vector(v, self.dim, "v")
        diff = v - self.center
        n = float(np.linalg.norm(diff))
        if n <= self.radius:
            return v.copy()
        return self.center + diff * (self.radius / n)

    def has_conjugate(self):
        return True

    def conjugate_batch(self, Y):
        return Y @ self.center + self.radius * np.linalg.norm(Y, axis=1)


class Linear(Atom):
    """f(x) = c'x."""

    def __init__(self, c):
        c = _vector(c, None, "c")
        super().__init__(c.shape[0])
        _require_finite(c, "linear c")
        self.c = c
        self.c.setflags(write=False)

    def value_batch(self, X):
        return X @ self.c

    def prox(self, alpha, v):
        v = _vector(v, self.dim, "v")
        return v - alpha * self.c


class SmoothQuadratic:
    """Optional quadratic term 0.5 x'Qx + q'x + c on all coordinates.

    Unlike a :class:`Quadratic` atom, this term may overlap nonsmooth atoms;
    solvers handle it through its gradient, never through a prox.
    """

    def __init__(self, dim, Q=None, q=None, c=0.0):
        if int(dim) != dim or dim < 1:
            raise ValidationError("quadratic term dimension must be a positive integer")
        self.dim = int(dim)
        if Q is not None:
            Q = np.asarray(Q, dtype=float)
            if Q.shape != (self.dim, self.dim):
                raise ValidationError("quadratic term matrix has wrong shape")
            self._eig_min, self._eig_max = _check_symmetric_psd(Q, "quadratic term matrix")
            Q.setflags(write=False)
        else:
            self._eig_min, self._eig_max = 0.0, 0.0
        self.Q = Q
        self.q = _vector(q, self.dim, "q") if q is not None else np.zeros(self.dim)
        self.q.setflags(write=False)
        self.c = float(c)
        _require_finite(self.q, "quadratic term q")
        _require_finite(self.c, "quadratic term c")

    def value_batch(self, X):
        out = X @ self.q + self.c
        if self.Q is not None:
            out = out + 0.5 * np.vecdot(X @ self.Q, X)
        return out

    def curvature(self):
        """Largest eigenvalue of Q; 0.0 without Q."""
        return self._eig_max


class CompositeFunction:
    """Separable sum of atoms over a coordinate partition, plus an optional
    quadratic term.

    Parameters
    ----------
    blocks : sequence of (Atom, (start, stop))
        Half-open index ranges; they must jointly partition range(dim) and
        each range length must equal the atom dimension.
    dim : int, optional
        Total dimension; inferred from the blocks when omitted.
    smooth_quad : SmoothQuadratic, optional
        Quadratic term on all coordinates, handled by gradient.
    """

    def __init__(self, blocks, dim=None, smooth_quad=None):
        norm_blocks = []
        for entry in blocks:
            try:
                atom, rng = entry
                start, stop = int(rng[0]), int(rng[1])
            except (TypeError, ValueError, IndexError):
                raise ValidationError("each block must be (atom, (start, stop))") from None
            if not isinstance(atom, Atom):
                raise ValidationError("block does not hold an atom")
            if stop - start != atom.dim:
                raise ValidationError(
                    f"block range [{start},{stop}) does not match atom dimension {atom.dim}"
                )
            norm_blocks.append((atom, (start, stop)))
        norm_blocks.sort(key=lambda blk: blk[1][0])
        if not norm_blocks:
            raise ValidationError("composite function needs at least one block")
        cursor = 0
        for _, (start, stop) in norm_blocks:
            if start != cursor:
                raise ValidationError("atom ranges must partition the coordinate range")
            cursor = stop
        inferred = cursor
        if dim is not None and int(dim) != inferred:
            raise ValidationError(f"blocks cover {inferred} coordinates, expected {dim}")
        self.dim = inferred
        self.blocks = tuple(norm_blocks)
        if smooth_quad is not None and smooth_quad.dim != self.dim:
            raise ValidationError("quadratic term dimension does not match the blocks")
        self.smooth_quad = smooth_quad

    @classmethod
    def single(cls, atom, smooth_quad=None):
        return cls([(atom, (0, atom.dim))], smooth_quad=smooth_quad)

    def value(self, x) -> float:
        """f(x): the one row of :meth:`value_batch`."""
        return float(self.value_batch(_vector(x, self.dim)[None, :])[0])

    def value_batch(self, X) -> np.ndarray:
        """f at the rows of X: +inf exactly where some block is +inf, even
        where another block or the quadratic term overflowed to -inf; an
        overflow raises no warning, and the Lagrangians reject its -inf."""
        X = np.asarray(X, dtype=float)
        total, outside = 0.0, False
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: set below
            for atom, (start, stop) in self.blocks:
                val = atom.value_batch(X[:, start:stop])
                outside = outside | (val == np.inf)
                total = total + val
            if self.smooth_quad is not None:
                total = total + self.smooth_quad.value_batch(X)
        total[outside] = np.inf
        return total

    def has_conjugate(self) -> bool:
        """Whether :meth:`conjugate_batch` is available: every atom has one
        and the quadratic term, if any, is linear (q and c only)."""
        return ((self.smooth_quad is None or self.smooth_quad.Q is None)
                and all(atom.has_conjugate() for atom, _ in self.blocks))

    def conjugate_batch(self, Y) -> np.ndarray:
        """Convex conjugate f*(y) at the rows of Y, in (-inf, +inf]: the sum
        of the block conjugates, shifted by a linear quadratic term as
        f*(y) = g*(y - q) - c.  Only where :meth:`has_conjugate` holds."""
        Y = np.asarray(Y, dtype=float)
        sq = self.smooth_quad
        if sq is not None:
            Y = Y - sq.q
        total = np.zeros(Y.shape[0])
        for atom, (start, stop) in self.blocks:
            total = total + atom.conjugate_batch(Y[:, start:stop])
        if sq is not None:
            total = total - sq.c
        return total

    def prox(self, alpha, v) -> np.ndarray:
        """Blockwise prox; a quadratic term must be linear (q and c only)."""
        if not (float(alpha) > 0.0):
            raise ValidationError("prox step alpha must be positive")
        v = _vector(v, self.dim, "v")
        sq = self.smooth_quad
        if sq is not None:
            if sq.Q is not None:
                raise ValidationError("prox unavailable: dense quadratic term")
            v = v - alpha * sq.q  # a linear tilt shifts the prox argument exactly
        out = np.empty(self.dim)
        for atom, (start, stop) in self.blocks:
            out[start:stop] = atom.prox(alpha, v[start:stop])
        return out

    def __repr__(self):
        parts = ", ".join(f"{atom!r}@[{a},{b})" for atom, (a, b) in self.blocks)
        return f"CompositeFunction({parts})"

