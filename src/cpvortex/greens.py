"""Closed-form Green's functions and the CP^n volume-density ODE oracle.

The CP^n Green's function is radial in the geodesic distance r:

    G_n(r) = C_n f_n(r),   C_n = -1/(2n vol(CP^n)),
    f_n(r) = log(sin r) - sum_{j=1}^{n-1} 1/(2j sin^{2j} r)

with vol(CP^n) = pi^n/n! and diameter pi/2; the vortex dynamics takes C_n,
f_n and the slope of f_n from here.  The derivative solves

    phi'(r) = -1/(r^{n-1} V(r) vol) * integral_r^{pi/2} t^{n-1} V(t) dt

for the volume density V(r) = 2^{2n-1} sin^{2n-1}(r) cos(r) / r^{n-1}; the
inner integral collapses to (1 - sin^{2n} r)/(2n) after substitution.  The
quadrature oracle integrates phi' numerically and is the independent check
of the closed form: only *differences* of G are compared, so the free
integration constant never enters.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OracleError, SingularityError

__all__ = [
    "CrossSpaceSpec",
    "greens_constant",
    "greens_cpn",
    "greens_cpn_derivative",
    "greens_ode_oracle",
    "greens_plane",
    "greens_radial_part",
    "greens_radial_slope",
    "greens_sphere",
    "volume_density_cpn",
]

DIAMETER = math.pi / 2.0


def cpn_volume(n: int) -> float:
    """Riemannian volume of CP^n, pi^n / n!."""
    return math.pi**n / math.factorial(n)


@functools.cache
def greens_constant(n: int) -> float:
    """Normalization C_n = -1/(2n vol(CP^n)) of the CP^n Green's function."""
    return -1.0 / (2.0 * n * cpn_volume(n))


@dataclass(frozen=True)
class CrossSpaceSpec:
    """Geometric constants of CP^n as a compact rank-one symmetric space."""

    n: int
    volume: float = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "volume", cpn_volume(self.n))
        object.__setattr__(self, "diameter", DIAMETER)


def _check_n(n: int):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")


def volume_density_cpn(n: int, r: float) -> float:
    """Volume density of geodesic polar coordinates on CP^n.

    V(r) = 2^{2n-1} sin^{2n-1}(r) cos(r) / r^{n-1}, strictly positive on
    the open interval (0, pi/2).
    """
    _check_n(n)
    if not 0.0 < r < DIAMETER:
        raise DomainError(f"r must lie in (0, pi/2), got {r}")
    return 2.0 ** (2 * n - 1) * math.sin(r) ** (2 * n - 1) * math.cos(r) / r ** (n - 1)


def greens_radial_part(n: int, r):
    """Radial profile log(sin r) - sum_{j=1}^{n-1} 1/(2j sin^{2j} r), elementwise in r."""
    s2 = np.sin(r) ** 2
    out = 0.5 * np.log(s2)
    for j in range(1, n):
        out -= 1.0 / (2 * j * s2**j)
    return out


def greens_radial_slope(n: int, s2):
    """Slope df/d(cos^2 r) of the radial profile f, elementwise in s2 = sin^2 r: the geometric
    sum -(1/s2 + ... + 1/s2^n)/2 = -(1 - s2^n)/(2 (1 - s2) s2^n), free of the cancellation
    in 1 - s2 = cos^2 r and regular at s2 = 1, where it is -n/2."""
    u = 1.0 / s2
    total = u
    for _ in range(n - 1):
        total = u * (total + 1.0)
    return -0.5 * total


def greens_cpn(n: int, r: float) -> float:
    """Green's function of the Laplace-Beltrami operator on CP^n at distance r."""
    _check_n(n)
    if r <= 0.0:
        raise SingularityError(f"Green's function diverges as r -> 0+, got r = {r}")
    if r > DIAMETER:
        raise DomainError(f"r must lie in (0, pi/2], got {r}")
    return greens_constant(n) * greens_radial_part(n, r)


def greens_cpn_derivative(n: int, r: float) -> float:
    """Radial derivative phi'(r) = -2 sin r cos r C_n slope(sin^2 r) of the CP^n Green's function."""
    _check_n(n)
    if r <= 0.0:
        raise SingularityError(f"phi' diverges as r -> 0+, got r = {r}")
    if r > DIAMETER:
        raise DomainError(f"r must lie in (0, pi/2], got {r}")
    s = math.sin(r)
    return -2.0 * s * math.cos(r) * greens_constant(n) * greens_radial_slope(n, s * s)


_ODE_ORACLE_TARGET = 1e-10  # absolute error target of the quadrature oracle


def greens_ode_oracle(n: int, r_a: float, r_b: float) -> float:
    """Integrate phi' over [r_a, r_b] by adaptive quadrature.

    Independent cross-check of the closed form: the result must equal
    greens_cpn(n, r_b) - greens_cpn(n, r_a).  The inner integral of the
    defining ODE is used in its collapsed form (1 - sin^{2n} s)/(2n).
    SciPy is imported here, on first use, so that the dynamics never loads it.
    """
    from scipy.integrate import IntegrationWarning, quad

    _check_n(n)
    if r_a == r_b:
        return 0.0
    if not (0.0 < r_a < r_b < DIAMETER):
        raise DomainError(f"need 0 < r_a < r_b < pi/2, got ({r_a}, {r_b})")
    with warnings.catch_warnings():
        # near r = 0 the profile is large and a pure-absolute target sits at
        # the roundoff floor; the explicit error-estimate check below gates it
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(
            lambda s: greens_cpn_derivative(n, s), r_a, r_b, epsabs=_ODE_ORACLE_TARGET, epsrel=0.0, limit=200
        )
    if err > 100.0 * _ODE_ORACLE_TARGET:
        raise OracleError(f"quadrature error estimate {err:.2e} above target {_ODE_ORACLE_TARGET:.2e}", achieved=err)
    return value


def greens_plane(x, y) -> float:
    """Green's function of the Euclidean plane, -log|x - y| / (2 pi)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise DomainError("plane points must be length-2 real vectors")
    d = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if d == 0.0:
        raise SingularityError("coincident points")
    return -math.log(d) / (2.0 * math.pi)


def greens_sphere(theta: float) -> float:
    """Green's function of the unit 2-sphere at central angle theta.

    G = log(1 - cos theta) / (2 pi) for theta in (0, pi].  The sign and
    normalization follow the sphere formula as such; no relation to
    greens_cpn(1, .) is implied.
    """
    if theta <= 0.0:
        raise SingularityError(f"G diverges as theta -> 0+, got {theta}")
    if theta > math.pi:
        raise DomainError(f"theta must lie in (0, pi], got {theta}")
    return math.log(1.0 - math.cos(theta)) / (2.0 * math.pi)
