"""Complex projective linear algebra.

Points of CP^n are stored as unit-norm homogeneous coordinate vectors,
defined up to a global phase.  Affine charts, the Fubini-Study metric and
the geodesic distance

    r(u, v) = arccos sqrt( <u,v><v,u> / (<u,u><v,v>) )   in [0, pi/2]

are provided on top of that representation.  The chart map works on arrays
of lifts, one chart index per lift; to_chart and from_chart are its
single-point cases.  Likewise the one normalizer of homogeneous coordinates
and the samplers of lifts and of Haar unitaries work on batches;
ProjectivePoint, random_point and random_unitary are their single cases.
The CP^n moment-map kernel _momentum_sum lives here, so dynamics and
momentum share it without importing each other.  All values are immutable
and all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDegenerateError, ConfigurationError, DimensionMismatchError

__all__ = [
    "AffineChart",
    "ProjectivePoint",
    "from_chart",
    "fubini_study_metric",
    "fubini_study_potential",
    "geodesic_distance_cpn",
    "hermitian_inner",
    "pivot_threshold",
    "random_point",
    "random_unitary",
    "to_chart",
]


def hermitian_inner(u, v) -> complex:
    """Hermitian inner product sum_j u_j * conj(v_j).

    Conjugate-linear in the second argument, so
    ``hermitian_inner(u, v) == conj(hermitian_inner(v, u))``.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1 or u.size < 1:
        raise DimensionMismatchError(
            f"need two complex vectors of equal length >= 1, got shapes {u.shape} and {v.shape}"
        )
    return complex(np.dot(u, v.conj()))


def _unit_lifts(v: np.ndarray) -> np.ndarray:
    """Unit lifts (..., n+1) of complex vectors v (..., n+1); ValueError unless every vector is finite and nonzero.

    Each vector is first scaled by the power of two that brings its largest
    real or imaginary part into [0.5, 1), so its squared norm neither
    overflows nor underflows.  The scaling is exact: wherever |v|^2 stays
    in range the lifts equal v / np.linalg.norm(v) bit for bit.
    """
    if not (np.isfinite(v).all() and v.any(axis=-1).all()):
        raise ValueError("homogeneous coordinates must be finite and nonzero")
    _, e = np.frexp(np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=-1, keepdims=True))
    w = np.empty(v.shape, dtype=complex)
    w.real, w.imag = np.ldexp(v.real, -e), np.ldexp(v.imag, -e)
    # the strided views sum in the order np.linalg.norm uses; contiguous copies would not
    re, im = w.real, w.imag
    return w / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]


def _squared_norm(a: np.ndarray, axes: int) -> np.ndarray:
    """Sum of |a|^2 over the last ``axes`` axes: the squared Frobenius (or Euclidean) norm; |a|^2 itself for axes = 0."""
    if axes != 1:  # one axis needs no reshape, which would add about a third to the integrator's retraction
        a = a.reshape(a.shape[: a.ndim - axes] + (math.prod(a.shape[a.ndim - axes :]),))
    return np.vecdot(a, a).real


def _momentum_sum(lifts: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """sum_a Gamma_a (v_a v_a* - (|v_a|^2/(n+1)) I) of lifts (N, n+1) and strengths (N,), or of stacks of either.

    Traceless for every lift, so also for the lifts within 1e-10 of unit norm that _off_unit accepts; on unit lifts
    it is sum_a Gamma_a (v_a v_a* - I/(n+1)).
    """
    size = lifts.shape[-1]
    total = (lifts.swapaxes(-1, -2) * strengths[..., None, :]) @ lifts.conj()
    diag = np.arange(size)
    total[..., diag, diag] -= (np.trace(total, axis1=-2, axis2=-1).real / size)[..., None]
    return total


def _off_unit(v: np.ndarray) -> bool:
    """Whether some vector along the last axis has a norm that differs from 1 by more than 1e-10."""
    squared = _squared_norm(v, 1)
    return bool(np.any((squared < (1.0 - 1e-10) ** 2) | (squared > (1.0 + 1e-10) ** 2)))


def _off_unitary(u: np.ndarray, squared_bound: float) -> bool:
    """Whether some matrix of the stack u (..., k, k) has ||u u* - I||_F^2 above squared_bound."""
    return bool(np.any(_squared_norm(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1]), 2) > squared_bound))


def _check_chart_values(values: np.ndarray) -> None:
    """ValueError unless every chart value is finite."""
    if not np.all(np.isfinite(values)):
        raise ValueError("chart values must be finite")


def _check_same_cpn(p: "ProjectivePoint", q: "ProjectivePoint") -> None:
    """DimensionMismatchError unless the points p and q lie on one CP^n."""
    if p.n != q.n:
        raise DimensionMismatchError("points live in different CP^n")


def _set_fields(instance, **fields) -> None:
    """Set fields on a frozen dataclass instance, each NumPy array among them made read-only first."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(instance, name, value)


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of CP^n: a unit homogeneous coordinate vector modulo phase."""

    coords: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        if coords.ndim != 1 or coords.size < 2:
            raise DimensionMismatchError("homogeneous coordinates need length n+1 >= 2")
        _set_fields(self, coords=_unit_lifts(coords), n=coords.size - 1)

    def same_point(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        """Projective equality: |<u,v>| = 1 up to ``tol`` for unit vectors."""
        _check_same_cpn(self, other)
        return abs(abs(hermitian_inner(self.coords, other.coords)) - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class AffineChart:
    """Affine chart values of a projective point, or of a batch of points in one chart.

    ``chart_index`` is the pivot coordinate that was scaled to 1, an integer
    in [0, n] (else ConfigurationError); ``values`` are the remaining n
    coordinates in ascending index order along the last axis (shape (n,)
    for one point, (..., n) for a batch).
    """

    chart_index: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)  # a copy: the caller's array stays writeable
        if values.ndim < 1 or values.shape[-1] < 1:
            raise DimensionMismatchError("chart values need length n >= 1")
        _check_chart_values(values)
        _off_pivot(self.chart_index, (values.shape[-1] + 1,))
        _set_fields(self, chart_index=int(self.chart_index), values=values)

    @property
    def n(self) -> int:
        return self.values.shape[-1]


def pivot_threshold(n: int) -> float:
    """Pivot magnitude below which a chart counts as degenerating.

    Some coordinate of a unit vector always has magnitude >= 1/sqrt(n+1),
    so with the threshold 1/sqrt(2(n+1)) every point admits a
    well-conditioned chart; chart management switches charts once the
    active pivot drops under this value.
    """
    return 1.0 / np.sqrt(2.0 * (n + 1))


# floor below which dividing by the pivot is numerically meaningless
MIN_PIVOT = 1e-8


def _off_pivot(charts, shape: tuple) -> np.ndarray:
    """Boolean mask of the given lift shape (..., n+1), False at the pivot charts[...] of each lift.

    Raises ConfigurationError unless charts holds one integer in [0, n] per lift.
    """
    charts, size = np.asarray(charts), shape[-1]
    if charts.shape != shape[:-1] or charts.dtype.kind not in "iu" or np.any((charts < 0) | (charts >= size)):
        raise ConfigurationError(
            f"need an integer chart index in [0, {size - 1}] per point, got {charts.dtype} charts {charts.shape} for {shape[:-1]}"
        )
    return np.arange(size) != charts[..., None]


def _chart_values(lifts: np.ndarray, charts) -> np.ndarray:
    """Affine chart values (..., n) of lifts (..., n+1): each lift without its pivot
    coordinate charts[...], divided by the pivot.  Raises ConfigurationError unless
    charts holds one integer in [0, n] per lift, and ChartDegenerateError when a
    pivot is numerically unusable (|pivot| <= MIN_PIVOT)."""
    rest = _off_pivot(charts, lifts.shape)
    pivots = lifts[~rest].reshape(lifts.shape[:-1] + (1,))
    if np.any(np.abs(pivots) <= MIN_PIVOT):
        raise ChartDegenerateError(
            f"pivot magnitude {np.abs(pivots).min():.3e} below {MIN_PIVOT}; pick another chart"
        )
    return lifts[rest].reshape(lifts.shape[:-1] + (-1,)) / pivots


def _chart_lifts(values: np.ndarray, charts) -> np.ndarray:
    """Chart lifts (..., n+1) of chart values (..., n): 1 at the pivot charts[...] and
    the values elsewhere, not normalized; _chart_values inverts it."""
    lifts = np.ones(values.shape[:-1] + (values.shape[-1] + 1,), dtype=complex)
    lifts[_off_pivot(charts, lifts.shape)] = values.ravel()
    return lifts


def _default_charts(lifts: np.ndarray) -> np.ndarray:
    """Per lift, the index of its largest-magnitude coordinate: a pivot of magnitude >= 1/sqrt(n+1) times the norm."""
    return np.abs(lifts).argmax(axis=-1)


def to_chart(p: ProjectivePoint, chart_index: int) -> AffineChart:
    """Divide out the pivot coordinate.

    Fails with ConfigurationError unless chart_index is an integer in
    [0, n], and with ChartDegenerateError once the pivot is numerically
    unusable (|pivot| <= MIN_PIVOT); the caller must pick another chart.
    Callers that need a guaranteed well-conditioned chart should test the
    pivot against pivot_threshold(n) instead.
    """
    return AffineChart(chart_index, _chart_values(p.coords, chart_index))


def from_chart(chart: AffineChart) -> ProjectivePoint:
    """Insert 1 at the pivot slot and renormalize; the chart holds one point."""
    if chart.values.ndim != 1:
        raise DimensionMismatchError(f"from_chart takes the chart of one point, got values of shape {chart.values.shape}")
    return ProjectivePoint(_chart_lifts(chart.values, chart.chart_index))


def geodesic_distance_cpn(xi: ProjectivePoint, eta: ProjectivePoint) -> float:
    """Fubini-Study geodesic distance on CP^n, in [0, pi/2].

    For unit representatives u, v this is arccos|<u, v>|; it is evaluated
    as atan2 of the orthogonal residual against |<u, v>|, which keeps full
    precision at both tiny and near-maximal separations (plain arccos
    flattens out near coincident points).
    """
    _check_same_cpn(xi, eta)
    return float(_lift_distance(xi.coords, eta.coords))


def _lift_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """geodesic_distance_cpn of unit lifts along the last axis, broadcast over leading axes."""
    overlap = (v * u.conj()).sum(axis=-1)
    residual = v - overlap[..., None] * u
    return np.arctan2(np.sqrt(_squared_norm(residual, 1)), np.abs(overlap))


def fubini_study_potential(values: np.ndarray):
    """Kahler potential log(1 + |z|^2) in an affine chart, of chart values (n,) or (..., n)."""
    return np.log1p(_squared_norm(np.asarray(values, dtype=complex), 1))


def fubini_study_metric(values: np.ndarray) -> np.ndarray:
    """Fubini-Study Hermitian metric h_ij in an affine chart, shape (..., n, n) for chart values (n,) or (..., n).

    h_ij = ((1 + |z|^2) delta_ij - conj(z_i) z_j) / (1 + |z|^2)^2,
    Hermitian positive definite with det h = (1 + |z|^2)^-(n+1).  It depends
    only on the chart values, not on which coordinate is the pivot.  Raises
    ValueError on non-finite values.
    """
    z = np.asarray(values, dtype=complex)
    _check_chart_values(z)
    s = (1.0 + _squared_norm(z, 1))[..., None, None]
    return (s * np.eye(z.shape[-1]) - z.conj()[..., :, None] * z[..., None, :]) / s**2


def _symplectic_matrix(h: np.ndarray) -> np.ndarray:
    """The real matrices W = [[Im h, -Re h], [Re h, Im h]] (..., 2n, 2n) of the Kahler forms of Hermitian metrics h
    (..., n, n), in the real coordinates (x_1..x_n, y_1..y_n): iota_X omega = W @ X, and omega(X, Y) = Y^T W X."""
    return np.block([[h.imag, -h.real], [h.real, h.imag]])


def _random_lifts(n: int, shape: tuple, rng: np.random.Generator, normalize=_unit_lifts):
    """Unit lifts shape + (n+1,) of uniform random points of CP^n: complex Gaussians, each drawing its n+1 real parts
    and then its n+1 imaginary parts (so a batch reproduces the stream of as many single draws), then normalize()d."""
    g = rng.standard_normal((*shape, 2, n + 1))
    return normalize(g[..., 0, :] + 1j * g[..., 1, :])


def random_point(n: int, rng: np.random.Generator) -> ProjectivePoint:
    """Uniform random point of CP^n: the single draw of _random_lifts, normalized by ProjectivePoint."""
    return _random_lifts(n, (), rng, ProjectivePoint)


def _random_unitaries(m: int, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitaries of the given batch shape (QR of complex Gaussians): shape + (m, m)."""
    a = rng.standard_normal((*shape, m, m)) + 1j * rng.standard_normal((*shape, m, m))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary (QR of a complex Gaussian)."""
    return _random_unitaries(m, (), rng)
