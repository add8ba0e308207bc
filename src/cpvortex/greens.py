"""Closed-form Green's functions and the CP^n volume-density ODE oracle.

The CP^n Green's function is radial in the geodesic distance r:

    G_n(r) = C_n f_n(r),   C_n = -1/(2n vol(CP^n)),
    f_n(r) = log(sin r) - sum_{j=1}^{n-1} 1/(2j sin^{2j} r)

with vol(CP^n) = pi^n/n! and diameter pi/2; the vortex dynamics takes C_n,
f_n and the slope of f_n from here.  The derivative solves

    phi'(r) = -1/(r^{n-1} V(r) vol) * integral_r^{pi/2} t^{n-1} V(t) dt

for the volume density V(r) = 2^{2n-1} sin^{2n-1}(r) cos(r) / r^{n-1}.
r^{n-1} V is 2^{2n-1} (n-1)!/(2 pi^n) times the area of the geodesic sphere
of radius r, so the inner integral collapses to 2^{2n-1} (1 - sin^{2n} r)/(2n)
after substitution, and the factor 2^{2n-1} cancels in the ODE.  The
quadrature oracle integrates phi' numerically and is the independent check
of the closed form: only *differences* of G are compared, so the free
integration constant never enters.

The Green's function, its derivative and its profile are elementwise in
r (a scalar r gives a float; `volume_density_cpn` takes a scalar only), and
the oracle integrates a whole array of intervals at once, so the module
needs NumPy only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OracleError, SingularityError

__all__ = [
    "greens_constant",
    "greens_cpn",
    "greens_cpn_derivative",
    "greens_ode_oracle",
    "greens_plane",
    "greens_radial_part",
    "greens_radial_slope",
    "volume_density_cpn",
]

DIAMETER = math.pi / 2.0

# -1/(2 pi): the planar Green's function is PLANE_CONSTANT log|x - y|, and the
# planar vortex energy takes its constant from here
PLANE_CONSTANT = -1.0 / (2.0 * math.pi)


# The largest n whose C_n the formula below gives as a finite double: 171! exceeds the double range.
MAX_N = 170


def cpn_volume(n: int) -> float:
    """Riemannian volume of CP^n, pi^n / n!."""
    return math.pi**n / math.factorial(n)


def _check_n(n: int):
    """The one rule of a projective dimension: an integer in 1..MAX_N, never a bool; DomainError otherwise."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    if n > MAX_N:
        raise DomainError(f"n must be at most {MAX_N}: above it, n! in vol(CP^n) = pi^n/n! overflows a double; got {n}")


def greens_constant(n: int) -> float:
    """Normalization C_n = -1/(2n vol(CP^n)) of the CP^n Green's function."""
    _check_n(n)
    return -1.0 / (2.0 * n * cpn_volume(n))


def volume_density_cpn(n: int, r: float) -> float:
    """Volume density of geodesic polar coordinates on CP^n.

    V(r) = 2^{2n-1} sin^{2n-1}(r) cos(r) / r^{n-1}, strictly positive on
    the open interval (0, pi/2).
    """
    _check_n(n)
    if not 0.0 < r < DIAMETER:
        raise DomainError(f"r must lie in (0, pi/2), got {r}")
    return 2.0 ** (2 * n - 1) * math.sin(r) ** (2 * n - 1) * math.cos(r) / r ** (n - 1)


def _distances(n: int, r, what: str) -> np.ndarray:
    """r as a float array, after checking n and that every element lies in (0, pi/2].

    One fused range check; only when it fails is the error chosen: r <= 0
    first (SingularityError), then r > pi/2 or NaN (DomainError).
    """
    _check_n(n)
    r = np.asarray(r, dtype=float)
    if not ((r > 0.0) & (r <= DIAMETER)).all():
        if (r <= 0.0).any():
            raise SingularityError(f"{what} diverges as r -> 0+, got r = {r[r <= 0.0].min()}")
        raise DomainError(f"r must lie in (0, pi/2], got {r[~(r <= DIAMETER)].max()}")
    return r


def greens_radial_part(n: int, r):
    """Radial profile log(sin r) - sum_{j=1}^{n-1} 1/(2j sin^{2j} r), elementwise in r."""
    s2 = np.sin(r) ** 2
    out = 0.5 * np.log(s2)
    for j in range(1, n):
        out -= 1.0 / (2 * j * s2**j)
    return out


def _inverse_power_sum(n: int, s2, w):
    """w (1/s2 + ... + 1/s2^n), broadcast over s2 and w, as w / s2 and then n - 1 times (c + w) / s2;
    the CP^n lift field takes it with its vortex weights w, greens_radial_slope with w = -1/2."""
    c = w / s2
    for _ in range(n - 1):
        c = (c + w) / s2
    return c


def greens_radial_slope(n: int, s2):
    """Slope df/d(cos^2 r) of the radial profile f, elementwise in s2 = sin^2 r: the geometric sum
    -(1/s2 + ... + 1/s2^n)/2 = -(1 - s2^n)/(2 (1 - s2) s2^n) of _inverse_power_sum, free of the
    cancellation in 1 - s2 = cos^2 r and regular at s2 = 1, where it is -n/2."""
    return _inverse_power_sum(n, s2, -0.5)


def greens_cpn(n: int, r):
    """Green's function of the Laplace-Beltrami operator on CP^n at distance r, elementwise in r."""
    r = _distances(n, r, "Green's function")
    return (greens_constant(n) * greens_radial_part(n, r))[()]


def greens_cpn_derivative(n: int, r):
    """Radial derivative phi'(r) = -2 sin r cos r C_n slope(sin^2 r) of the CP^n Green's function, elementwise in r."""
    r = _distances(n, r, "phi'")
    s = np.sin(r)
    return (-2.0 * s * np.cos(r) * greens_constant(n) * greens_radial_slope(n, s * s))[()]


_ODE_ORACLE_TARGET = 1e-10  # absolute error target of the quadrature oracle, per integral
_ODE_ORACLE_LIMIT = 200  # subintervals per integral
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps  # relative error below which a subinterval cannot improve

# Gauss-Legendre rules on [-1, 1]; each subinterval is evaluated at both
# node sets in one call, and the 10-point value checks the 20-point one
_GL10 = np.polynomial.legendre.leggauss(10)
_GL20 = np.polynomial.legendre.leggauss(20)
_NODES = np.concatenate([_GL10[0], _GL20[0]])


def greens_ode_oracle(n: int, r_a, r_b):
    """Integrate phi' over [r_a, r_b] by adaptive quadrature, elementwise in the intervals.

    Independent cross-check of the closed form: the result must equal
    greens_cpn(n, r_b) - greens_cpn(n, r_a).  The inner integral of the
    defining ODE is used in its collapsed form 2^{2n-1} (1 - sin^{2n} s)/(2n),
    whose factor 2^{2n-1} cancels against the one of r^{n-1} V(r).

    r_a and r_b broadcast against each other.  Each round evaluates phi'
    on every open subinterval of every integral in one call, at the nodes
    of the 10- and 20-point Gauss-Legendre rules.  |G20 - G10| bounds the
    error of G20; a subinterval is accepted when that bound is within its
    share target * length / (r_b - r_a) of the target, or at the roundoff
    floor of its value, and is bisected otherwise.  OracleError is raised
    when an integral needs more than _ODE_ORACLE_LIMIT subintervals or its
    summed error bound exceeds 100 times the target.  Empty intervals
    (r_a == r_b) give 0.
    """
    _check_n(n)
    r_a, r_b = np.broadcast_arrays(np.asarray(r_a, dtype=float), np.asarray(r_b, dtype=float))
    a, b = r_a.ravel(), r_b.ravel()
    empty = a == b
    bad = np.flatnonzero(~empty & ~((0.0 < a) & (a < b) & (b < DIAMETER)))
    if bad.size:
        bad = bad[0]
        raise DomainError(f"need 0 < r_a < r_b < pi/2, got ({a[bad]}, {b[bad]})")
    value = np.zeros(a.size)
    err = np.zeros(a.size)
    pieces = np.ones(a.size, dtype=int)
    share = _ODE_ORACLE_TARGET / np.where(empty, 1.0, b - a)
    owner = np.flatnonzero(~empty)  # the integral each open subinterval belongs to
    lo, hi = a[owner], b[owner]
    while owner.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f = greens_cpn_derivative(n, mid[:, None] + half[:, None] * _NODES)
        g10 = half * (f[:, :10] @ _GL10[1])
        g20 = half * (f[:, 10:] @ _GL20[1])
        bound = np.abs(g20 - g10)
        done = (bound <= share[owner] * (hi - lo)) | (bound <= _ROUNDOFF_FLOOR * np.abs(g20))
        np.add.at(value, owner[done], g20[done])
        np.add.at(err, owner[done], bound[done])
        owner, lo, mid, hi, bound = owner[~done], lo[~done], mid[~done], hi[~done], bound[~done]
        np.add.at(pieces, owner, 1)
        over = np.flatnonzero(pieces > _ODE_ORACLE_LIMIT)
        if over.size:
            i = over[0]
            raise OracleError(
                f"quadrature needs more than {_ODE_ORACLE_LIMIT} subintervals on [{a[i]}, {b[i]}]",
                achieved=float(err[i] + bound[owner == i].sum()),
            )
        owner = np.concatenate([owner, owner])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    if np.any(err > 100.0 * _ODE_ORACLE_TARGET):
        worst = float(np.max(err))
        raise OracleError(f"quadrature error estimate {worst:.2e} above target {_ODE_ORACLE_TARGET:.2e}", achieved=worst)
    return value.reshape(r_a.shape)[()]


def greens_plane(x, y) -> float:
    """Green's function of the Euclidean plane, -log|x - y| / (2 pi)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (2,) or y.shape != (2,):
        raise DomainError("plane points must be length-2 real vectors")
    d = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if d == 0.0:
        raise SingularityError("coincident points")
    return PLANE_CONSTANT * math.log(d)
