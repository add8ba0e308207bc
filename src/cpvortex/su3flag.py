"""SU(3) and the full flag manifold of C^3.

The flag manifold is realized on its dense big cell: unit lower-triangular
matrices

    Z = [[1, 0, 0], [z1, 1, 0], [z2, z3, 1]]

obtained from a generic invertible matrix by unpivoted LU factorization
(right multiplication by upper-triangular matrices).  On the big cell the
Kahler potential is log(K1 * K2) with

    K1 = 1 + |z1|^2 + |z2|^2,    K2 = 1 + |z3|^2 + |z1 z3 - z2|^2,

and everything else here (metric, symplectic form, Laplacian coefficients,
infinitesimal generator fields) is derived from that potential and the
Gell-Mann basis of su(3), written once as the table _TILDE: exp_su3 reads
its subgroups from it, and the transcribed generator fields check it.

Every closed form takes a batch of points: a FlagCoords whose coordinates
are arrays of one shape S returns its values with S as leading axes
(matrices of shape S + (3, 3), vectors S + (3,)).  A single point is the
case S = ().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OutsideBigCellError
from .geom import _set_fields, _symplectic_matrix

__all__ = [
    "FlagCoords",
    "bruhat_normalize",
    "exp_su3",
    "flag_laplacian_coeffs",
    "flag_laplacian_reference",
    "flag_metric",
    "flag_metric_inverse",
    "flag_metric_inverse_tabulated",
    "flag_symplectic_matrix",
    "gell_mann",
    "gell_mann_tilde",
    "infinitesimal_vf",
    "kahler_potential_flag",
]

_SQRT3 = math.sqrt(3.0)

# The eight traceless Hermitian basis matrices; lambda_k = (i/2) * tilde_k
# spans su(3) with trace(lambda_a lambda_b) = -delta_ab / 2.
_TILDE = np.zeros((8, 3, 3), dtype=complex)
_TILDE[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
_TILDE[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
_TILDE[2] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
_TILDE[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
_TILDE[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
_TILDE[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
_TILDE[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
_TILDE[7] = np.diag([1.0, 1.0, -2.0]) / _SQRT3
_TILDE.flags.writeable = False

_LAMBDA = 0.5j * _TILDE
_LAMBDA.flags.writeable = False


def _matrix(rows) -> np.ndarray:
    """Square matrices from a nested list of entries that broadcast together: shape S + (m, m)."""
    out = _vector(*(e for row in rows for e in row))
    return out.reshape(out.shape[:-1] + (len(rows), len(rows)))


def _vector(*entries) -> np.ndarray:
    """Vectors from entries that broadcast together: shape S + (len(entries),)."""
    shape = np.broadcast(*entries).shape
    out = np.empty(shape + (len(entries),), np.result_type(*entries))
    for i, e in enumerate(entries):
        out[..., i] = e
    return out


_GENERATOR_INDICES = frozenset(range(1, 9))


def _generator_row(k) -> np.ndarray:
    """The rows k - 1 of _TILDE and _LAMBDA for a generator index k in 1..8, or an array of them."""
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or not _GENERATOR_INDICES.issuperset(k.flat):
        raise IndexError(f"k must be an integer in 1..8, got {k.tolist()!r}")
    return k[()] - 1


def gell_mann_tilde(k: int) -> np.ndarray:
    """The k-th traceless Hermitian basis matrix (k in 1..8)."""
    return _TILDE[_generator_row(k)]


def gell_mann(k: int) -> np.ndarray:
    """The k-th su(3) basis element lambda_k = (i/2) * gell_mann_tilde(k)."""
    return _LAMBDA[_generator_row(k)]


def exp_su3(k, t) -> np.ndarray:
    """One-parameter subgroups exp(t lambda_k) = exp((i t/2) T) of T = gell_mann_tilde(k).

    ``k`` is a generator index or an array of them and ``t`` a time or an array of times; the matrices have shape
    broadcast(shape(k), shape(t)) + (3, 3).  Each row of _TILDE picks its closed form: the entrywise exponential
    of the diagonal where the row is diagonal (k = 3, 8), else I + i sin(t/2) T + (cos(t/2) - 1) T^2, since the
    eigenvalues 1, 0, -1 of the other six T give T^3 = T."""
    T = _TILDE[_generator_row(k)]
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError(f"t must be finite, got {t}")
    eye = np.eye(3, dtype=bool)
    diagonal = ~T[..., ~eye].any(axis=-1)[..., None, None]
    exp_diagonal = np.where(eye, np.exp(0.5j * T.diagonal(axis1=-2, axis2=-1) * t[..., None])[..., None], 0.0)
    half = 0.5 * t[..., None, None]
    rotation = np.eye(3) + 1j * np.sin(half) * T + (np.cos(half) - 1.0) * (T @ T)
    return np.where(diagonal, exp_diagonal, rotation)


@dataclass(frozen=True, eq=False)
class FlagCoords:
    """Big-cell coordinates (z1, z2, z3) of the flag manifold, at one point or a batch.

    The coordinates are broadcast to one shape S; a batch has S != () and
    holds read-only complex arrays, a single point has S = () and holds
    NumPy complex scalars.  K1 and K2 have the same shape and are read-only
    too.  Validation covers the whole batch: one non-finite coordinate, or
    one point whose K1 or K2 overflows, rejects it.
    """

    z1: complex
    z2: complex
    z3: complex
    K1: float = field(init=False)
    K2: float = field(init=False)

    def __post_init__(self):
        coords = [np.array(v, dtype=complex) for v in (self.z1, self.z2, self.z3)]
        if not coords[0].shape == coords[1].shape == coords[2].shape:
            try:
                coords = [z.copy() for z in np.broadcast_arrays(*coords)]
            except ValueError as exc:
                raise DomainError(f"flag coordinates must broadcast to one shape: {exc}") from None
        for name, z in zip(("z1", "z2", "z3"), coords):
            if not np.isfinite(z).all():
                raise DomainError(f"{name} must be finite, got {z[~np.isfinite(z)][0]}")
        z1, z2, z3 = (z if z.ndim else z[()] for z in coords)  # arrays, not views of writeable ones
        with np.errstate(over="ignore", invalid="ignore"):
            K1 = 1.0 + abs(z1) ** 2 + abs(z2) ** 2
            K2 = 1.0 + abs(z3) ** 2 + abs(z1 * z3 - z2) ** 2
        if not (np.isfinite(K1) & np.isfinite(K2)).all():
            raise DomainError("flag coordinates too large: K1 or K2 overflows")
        _set_fields(self, z1=z1, z2=z2, z3=z3, K1=K1, K2=K2)

    @property
    def shape(self) -> tuple:
        """The batch shape S; () for a single point."""
        return np.shape(self.z1)

    def as_vector(self) -> np.ndarray:
        """(z1, z2, z3) along the last axis: shape S + (3,)."""
        return _vector(self.z1, self.z2, self.z3)

    def real_coords(self) -> np.ndarray:
        """(x1, x2, x3, y1, y2, y3) with z_k = x_k + i y_k along the last axis: shape S + (6,)."""
        v = self.as_vector()
        return np.concatenate([v.real, v.imag], axis=-1)

    def matrix(self) -> np.ndarray:
        """The unit lower-triangular big-cell representatives, shape S + (3, 3)."""
        return _matrix([[1, 0, 0], [self.z1, 1, 0], [self.z2, self.z3, 1]])


# Minimum magnitude of the two leading principal minors of an invertible
# matrix for it to count as lying in the big cell.
BIG_CELL_MINOR_THRESHOLD = 1e-10


def bruhat_normalize(m) -> FlagCoords:
    """Big-cell coordinates of an invertible matrix, or of a stack (..., 3, 3), via unpivoted LU.

    Writes M = L U with L unit lower triangular and returns
    (L21, L31, L32).  Fails with OutsideBigCellError when a leading
    principal minor of any matrix vanishes: such flags lie in a lower
    Bruhat cell.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (3, 3):
        raise DomainError(f"expected a 3x3 matrix, got shape {a.shape}")
    minor1 = a[..., 0, 0]
    minor2 = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    outside = (np.abs(minor1) <= BIG_CELL_MINOR_THRESHOLD) | (np.abs(minor2) <= BIG_CELL_MINOR_THRESHOLD)
    if outside.any():
        first = np.flatnonzero(outside)[0]
        raise OutsideBigCellError(
            f"leading minors ({np.abs(minor1).flat[first]:.3e}, {np.abs(minor2).flat[first]:.3e}) below threshold; "
            "flag lies outside the big cell"
        )
    l21 = a[..., 1, 0] / minor1
    l31 = a[..., 2, 0] / minor1
    u22 = a[..., 1, 1] - l21 * a[..., 0, 1]
    l32 = (a[..., 2, 1] - l31 * a[..., 0, 1]) / u22
    return FlagCoords(l21, l31, l32)


def infinitesimal_vf(k, z: FlagCoords) -> np.ndarray:
    """Generator fields of exp(t lambda_k) in big-cell coordinates, shape shape(k) + S + (3,).

    ``k`` is a generator index or an array of them.  Returns the coefficients
    (a1, a2, a3) of (d/dz1, d/dz2, d/dz3) along the last axis, i.e. the
    t-derivative at 0 of the normalized left translate of Z, read from one
    stacked table of the eight fields.  Transcribed, not derived from _TILDE:
    exp_su3 and its spectral oracle both read the table, so the LU
    finite-difference gate of these fields against exp_su3 is what pins it.
    """
    row = _generator_row(k)
    z1, z2, z3 = z.z1, z.z2, z.z3
    fields = np.stack(
        [
            0.5j * _vector(1 - z1**2, -z1 * z2, z1 * z3 - z2),
            0.5 * _vector(-1 - z1**2, -z1 * z2, z1 * z3 - z2),
            0.5j * _vector(-2 * z1, -z2, z3),
            0.5j * _vector(-z1 * z2, 1 - z2**2, -z3 * (z2 - z1 * z3)),
            0.5 * _vector(-z1 * z2, -1 - z2**2, -z3 * (z2 - z1 * z3)),
            0.5j * _vector(z2, z1, 1 - z3**2),
            # third coefficient -(1 + z3^2): pinned by the finite-difference flow
            # of exp(t lambda_7), matching the k=2, k=5 pattern
            0.5 * _vector(z2, -z1, -(1 + z3**2)),
            -0.5j * _SQRT3 * _vector(0, z2, z3),
        ]
    )
    return fields[row]


def kahler_potential_flag(z: FlagCoords):
    """Kahler potential log(K1 K2) of the flag manifold, >= 0; shape S."""
    return np.log(z.K1) + np.log(z.K2)


def flag_metric(z: FlagCoords) -> np.ndarray:
    """Hermitian metric h_ij = d_{z_i} d_{zbar_j} log(K1 K2), shape S + (3, 3).

    Positive definite with det h = 2 / (K1^2 K2^2).  K1 and K2 divide twice, never squared, so no term overflows.
    """
    z1, z2, z3 = z.z1, z.z2, z.z3
    c1, c2 = z1.conjugate(), z2.conjugate()
    K1, K2 = z.K1, z.K2
    a3 = abs(z3) ** 2
    h11 = (1 + abs(z2) ** 2) / K1 / K1 + (a3 / K2) * ((1 + a3) / K2)
    h12 = -c1 * z2 / K1 / K1 - z3 * ((1 + a3) / K2) / K2
    h13 = z3 * ((c1 + c2 * z3) / K2) / K2
    h22 = (1 + abs(z1) ** 2) / K1 / K1 + (1 + a3) / K2 / K2
    h23 = -(c1 + c2 * z3) / K2 / K2
    h33 = K1 / K2 / K2
    return _matrix(
        [
            [h11, h12, h13],
            [h12.conjugate(), h22, h23],
            [h13.conjugate(), h23.conjugate(), h33],
        ]
    )


def flag_metric_inverse(z: FlagCoords) -> np.ndarray:
    """Numerical inverse of flag_metric(z) (always exists)."""
    return np.linalg.inv(flag_metric(z))


def flag_metric_inverse_tabulated(z: FlagCoords) -> np.ndarray:
    """Verbatim closed-form inverse-metric table, for diagnostics only.

    Empirically this evaluates to about 2 * flag_metric_inverse(z) (exactly
    2x at z = 0); the proportionality factor is reported by the metric
    verification suite rather than asserted.
    """
    z1, z2, z3 = z.z1, z.z2, z.z3
    c1, c2, c3 = z1.conjugate(), z2.conjugate(), z3.conjugate()
    K1, K2 = z.K1, z.K2
    q = K1 / K2
    return _matrix(
        [
            [
                K1 * (1 + abs(z1) ** 2 + q),
                K1 * (c1 * z2 + q * z3),
                (c1 + z3 * c2) * (c1 * z2 - z3 - z3 * abs(z1) ** 2),
            ],
            [
                K1 * (z1 * c2 + q * c3),
                K1 * ((1 + abs(z2) ** 2) + q * abs(z3) ** 2),
                (c1 + c2 * z3) * ((1 + abs(z2) ** 2) - z1 * c2 * z3),
            ],
            [
                (z1 + c3 * z2) * (z1 * c2 - c3 - z3 * abs(z1) ** 2),
                (z1 + z2 * c3) * ((1 + abs(z2) ** 2) - c1 * z2 * c3),
                K1 * (1 + abs(z3) ** 2) + K2**2 / K1,
            ],
        ]
    )


def flag_symplectic_matrix(z: FlagCoords) -> np.ndarray:
    """The 6x6 real matrix of the symplectic form in (x1..x3, y1..y3), shape S + (6, 6).

    Built from h = flag_metric(z) by geom._symplectic_matrix, which states
    the block layout and the contraction convention (covector W @ X); it is
    antisymmetric and nondegenerate.
    """
    return _symplectic_matrix(flag_metric(z))


def flag_laplacian_coeffs(z: FlagCoords) -> np.ndarray:
    """Coefficient matrix c[i, j] of d_{z_i} d_{zbar_j} in the flag Laplacian, shape S + (3, 3).

    Assembled as the CP^2 part plus the fiber correction term; the (3,1)
    and (3,2) coefficients are the Hermitian conjugates of (1,3), (2,3)
    (the Laplacian is a real operator).  Compare against
    flag_laplacian_reference for the diagnostic mismatch report.
    """
    z1, z2, z3 = z.z1, z.z2, z.z3
    c1, c2, c3 = z1.conjugate(), z2.conjugate(), z3.conjugate()
    K1, K2 = z.K1, z.K2
    # CP^2 block (1 + delta_jk z_k zbar_j) plus the correction term r (1, z3; zbar3, |z3|^2)
    r = K1**2 / K2
    c13 = (c1 + z3 * c2) * (c1 * z2 - z3 - z3 * abs(z1) ** 2)
    c23 = (c1 + c2 * z3) * ((1 + abs(z2) ** 2) - z1 * c2 * z3)
    return _matrix(
        [
            [1 + z1 * c1 + r, 1 + z3 * r, c13],
            [1 + c3 * r, 1 + z2 * c2 + abs(z3) ** 2 * r, c23],
            [c13.conjugate(), c23.conjugate(), K1 * (1 + abs(z3) ** 2) + K2**2 / K1],
        ]
    )


def flag_laplacian_reference(z: FlagCoords) -> np.ndarray:
    """Reference coefficients 2 h^{ji} of a Kahler Laplacian, shape S + (3, 3).

    The tabulated flag_laplacian_coeffs do not reproduce these (the CP^2
    block differs in form); the gap is measured and reported by the
    verification suite, never asserted.
    """
    return 2.0 * flag_metric_inverse(z).swapaxes(-1, -2)
