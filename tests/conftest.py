import numpy as np
import pytest

import almlab as al


@pytest.fixture
def prox_residual():
    """The inner solver's convergence test as an oracle: the prox-gradient
    residual (1/t) ||x - prox_{t f}(x - t g)|| of a composite f at x, with g
    the gradient of the smooth part.  Zero exactly when x minimizes f plus
    that smooth part; the value depends on the step t."""
    def residual(f, x, g, t):
        return float(np.linalg.norm(x - f.prox(t, x - t * g)) / t)
    return residual


@pytest.fixture
def qp_scalar():
    """f = x^2/2, A = [1], b = 0.

    Closed forms used as oracles throughout: the inner minimizer is
    x+ = -lam/(1+rho), the dual value -lam^2/(2(1+rho)), the dual gradient
    -lam/(1+rho), and plain dual ascent contracts lam by 1/(1+rho) per step.
    """
    def make(rho=1.0):
        f = al.CompositeFunction.single(al.Quadratic(np.eye(1)))
        return al.ProblemInstance(f, np.array([[1.0]]), np.zeros(1), rho,
                                  name="qp_scalar")
    return make


@pytest.fixture
def p_box():
    """Scalar f = indicator(x >= 0), A = [1], b = 1.

    x+ = max(1 - lam/rho, 0), dual gradient -min(lam/rho, 1), dual value
    -lam^2/(2 rho) for lam <= rho and -lam + rho/2 beyond; the gradient's
    Lipschitz modulus equals 1/rho on lam <= rho.
    """
    def make(rho=1.0):
        return al.generate(al.BenchmarkSpec("tight_bound_family", 1, 1, rho, 0))
    return make


@pytest.fixture
def p_rank():
    """A = [[1,1],[1,1]], b = (2,2), f = indicator(x >= 0).

    Everything reduces to s = x1 + x2: the inner objective is
    (lam1+lam2)(s-2) + rho (s-2)^2 over s >= 0, so the minimizer set is
    {x >= 0 : x1 + x2 = s+} with s+ = max(2 - (lam1+lam2)/(2 rho), 0).
    At lam = (3,3), rho = 1 the clamp gives s+ = 0 and the constraint map
    (-2,-2) for every minimizer.
    """
    def make(rho=1.0):
        return al.generate(al.BenchmarkSpec("rank_deficient_box", 2, 2, rho, 0))
    return make
