"""Complex projective linear algebra.

Points of CP^n are stored as unit-norm homogeneous coordinate vectors,
defined up to a global phase.  Affine charts, the Fubini-Study metric and
the geodesic distance

    r(u, v) = arccos sqrt( <u,v><v,u> / (<u,u><v,v>) )   in [0, pi/2]

are provided on top of that representation.  All values are immutable and
all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChartDegenerateError, DimensionMismatchError

__all__ = [
    "AffineChart",
    "ProjectivePoint",
    "best_chart_index",
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


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of CP^n: a unit homogeneous coordinate vector modulo phase."""

    coords: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=complex)
        if coords.ndim != 1 or coords.size < 2:
            raise DimensionMismatchError("homogeneous coordinates need length n+1 >= 2")
        norm = np.linalg.norm(coords)
        if norm == 0.0 or not np.all(np.isfinite(coords)):
            raise ValueError("homogeneous coordinates must be finite and nonzero")
        coords = coords / norm
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "n", coords.size - 1)

    def same_point(self, other: "ProjectivePoint", tol: float = 1e-12) -> bool:
        """Projective equality: |<u,v>| = 1 up to ``tol`` for unit vectors."""
        if self.n != other.n:
            raise DimensionMismatchError("points live in different CP^n")
        return abs(abs(hermitian_inner(self.coords, other.coords)) - 1.0) <= tol


@dataclass(frozen=True)
class AffineChart:
    """Affine chart values of a projective point, or of a batch of points in one chart.

    ``chart_index`` is the pivot coordinate that was scaled to 1; ``values``
    are the remaining n coordinates in ascending index order along the last
    axis (shape (n,) for one point, (..., n) for a batch).
    """

    chart_index: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim < 1 or values.shape[-1] < 1:
            raise DimensionMismatchError("chart values need length n >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("chart values must be finite")
        if not 0 <= self.chart_index <= values.shape[-1]:
            raise ValueError(f"chart_index {self.chart_index} out of range [0, {values.shape[-1]}]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

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


def to_chart(p: ProjectivePoint, chart_index: int) -> AffineChart:
    """Divide out the pivot coordinate.

    Fails with ChartDegenerateError once the pivot is numerically unusable
    (|pivot| <= MIN_PIVOT); the caller must pick another chart.  Callers
    that need a guaranteed well-conditioned chart should test the pivot
    against pivot_threshold(n) instead.
    """
    if not 0 <= chart_index <= p.n:
        raise ValueError(f"chart_index {chart_index} out of range [0, {p.n}]")
    pivot = p.coords[chart_index]
    if abs(pivot) <= MIN_PIVOT:
        raise ChartDegenerateError(
            f"pivot |coords[{chart_index}]| = {abs(pivot):.3e} below {MIN_PIVOT}; pick another chart"
        )
    rest = np.delete(p.coords, chart_index)
    return AffineChart(chart_index, rest / pivot)


def from_chart(chart: AffineChart) -> ProjectivePoint:
    """Insert 1 at the pivot slot and renormalize; the chart holds one point."""
    if chart.values.ndim != 1:
        raise DimensionMismatchError(f"from_chart takes the chart of one point, got values of shape {chart.values.shape}")
    coords = np.insert(chart.values, chart.chart_index, 1.0 + 0.0j)
    return ProjectivePoint(coords)


def best_chart_index(p: ProjectivePoint) -> int:
    """Index of the largest-magnitude homogeneous coordinate."""
    return int(np.argmax(np.abs(p.coords)))


def geodesic_distance_cpn(xi: ProjectivePoint, eta: ProjectivePoint) -> float:
    """Fubini-Study geodesic distance on CP^n, in [0, pi/2].

    For unit representatives u, v this is arccos|<u, v>|; it is evaluated
    as atan2 of the orthogonal residual against |<u, v>|, which keeps full
    precision at both tiny and near-maximal separations (plain arccos
    flattens out near coincident points).
    """
    if xi.n != eta.n:
        raise DimensionMismatchError("points live in different CP^n")
    return float(_lift_distance(xi.coords, eta.coords))


def _lift_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """geodesic_distance_cpn of unit lifts along the last axis, broadcast over leading axes."""
    overlap = (v * u.conj()).sum(axis=-1)
    residual = v - overlap[..., None] * u
    return np.arctan2(np.sqrt((np.abs(residual) ** 2).sum(axis=-1)), np.abs(overlap))


def fubini_study_potential(values: np.ndarray):
    """Kahler potential log(1 + |z|^2) in an affine chart, of chart values (n,) or (..., n)."""
    z = np.asarray(values, dtype=complex)
    return np.log1p(np.sum(np.abs(z) ** 2, axis=-1))


def fubini_study_metric(chart: AffineChart) -> np.ndarray:
    """Fubini-Study Hermitian metric h_ij in an affine chart, shape (..., n, n) for values (..., n).

    h_ij = ((1 + |z|^2) delta_ij - conj(z_i) z_j) / (1 + |z|^2)^2,
    Hermitian positive definite with det h = (1 + |z|^2)^-(n+1).
    """
    z = chart.values
    s = (1.0 + np.sum(np.abs(z) ** 2, axis=-1))[..., None, None]
    return (s * np.eye(z.shape[-1]) - z.conj()[..., :, None] * z[..., None, :]) / s**2


def random_point(n: int, rng: np.random.Generator) -> ProjectivePoint:
    """Uniform random point of CP^n (normalized complex Gaussian)."""
    v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return ProjectivePoint(v)


def random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed m x m unitary (QR of a complex Gaussian)."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
