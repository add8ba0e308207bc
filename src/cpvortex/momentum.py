"""Momentum maps of the SU(3) (and SU(n+1)) actions.

Two conventions coexist:

* ``hermitian_cp2`` -- the projective-space map mu = v v* - I/(n+1),
  Hermitian and traceless, with constant spectrum {-1/3, -1/3, 2/3} on CP^2.
* ``antihermitian_flag`` -- the big-cell flag map, anti-Hermitian and
  traceless, normalized so that mu(0) = diag(i/2, 0, -i/2).

The flag map implemented here satisfies the defining relation
d<mu, lambda_k> = iota_{X_k} omega for every generator (this is what
``defining_equation_defect`` measures) and coincides with
U diag(i/2, 0, -i/2) U* for the Gram-Schmidt unitary factor U of the
big-cell representative, which makes it exactly equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geom import ProjectivePoint, _momentum_sum, _off_adjoint, _off_unit, _off_unitary, _set_fields, _squared_norm
from .su3flag import _LAMBDA, FlagCoords, _generator_row, _matrix, flag_symplectic_matrix, infinitesimal_vf

__all__ = [
    "MomentumValue",
    "defining_equation_defect",
    "momentum_cp2",
    "momentum_cp2_equivariance_check",
    "momentum_cpn",
    "momentum_flag",
    "momentum_flag_pairing",
    "momentum_flag_tabulated",
    "weighted_momentum",
]

_DEFECT_STEP = 1e-5  # central-difference step of the gradient in defining_equation_defect


@dataclass(frozen=True, eq=False)
class MomentumValue:
    """A momentum-map value: traceless matrix plus its symmetry convention.

    ``matrix`` is one square matrix or a stack (..., m, m) of them, one per
    point of a batch; every matrix of a stack is validated, so one bad
    value rejects the batch.
    """

    matrix: np.ndarray
    convention: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DomainError(f"momentum matrix must be square, got shape {m.shape}")
        # each rule compares a squared defect with its tolerance squared
        if np.any(_squared_norm(np.trace(m, axis1=-2, axis2=-1), 0) > 1e-24 * np.maximum(1.0, _squared_norm(m, 2))):
            raise DomainError("momentum matrix must be traceless")
        if self.convention == "hermitian_cp2":
            if _off_adjoint(m, 1, 1e-24):
                raise DomainError("hermitian_cp2 value must be Hermitian within 1e-12")
        elif self.convention == "antihermitian_flag":
            if _off_adjoint(m, -1, 1e-20):
                raise DomainError("antihermitian_flag value must be anti-Hermitian within 1e-10")
        else:
            raise DomainError(f"unknown convention {self.convention!r}")
        _set_fields(self, matrix=m)


def _unit_vector(p) -> np.ndarray:
    """The unit lift of a ProjectivePoint, or unit vectors (..., n+1) as given."""
    v = np.asarray(p.coords if isinstance(p, ProjectivePoint) else p, dtype=complex)
    if v.ndim < 1 or v.shape[-1] < 2:
        raise DomainError("expected homogeneous coordinates of length n+1 >= 2")
    if _off_unit(v):
        raise DomainError("homogeneous coordinates must be normalized to unit norm")
    return v


def _mu(v: np.ndarray) -> np.ndarray:
    """v v* - (|v|^2/(n+1)) I of unit vectors (..., n+1): the weighted momentum kernel of one vortex of strength 1."""
    return _momentum_sum(v[..., None, :], np.ones(v.shape[:-1] + (1,)))


def momentum_cpn(p) -> MomentumValue:
    """Hermitian momentum value v v* - I/(n+1) of a unit vector v, or of each of a stack (..., n+1)."""
    return MomentumValue(_mu(_unit_vector(p)), "hermitian_cp2")


def momentum_cp2(p) -> MomentumValue:
    """The CP^2 momentum map; eigenvalues are always {-1/3, -1/3, 2/3}."""
    v = _unit_vector(p)
    if v.shape[-1] != 3:
        raise DomainError(f"momentum_cp2 needs a point of CP^2 (3 coordinates), got {v.shape[-1]}")
    return MomentumValue(_mu(v), "hermitian_cp2")


def momentum_cp2_equivariance_check(p, u):
    """Frobenius defect || mu(U p) - U mu(p) U* || of left-action equivariance.

    ``p`` and ``u`` may be stacks (..., n+1) and (..., n+1, n+1) of pairs;
    the defect then has their common leading shape.
    """
    v = _unit_vector(p)
    u = np.asarray(u, dtype=complex)
    if _off_unitary(u, 1e-20):
        raise DomainError("expected a unitary matrix")
    if np.any(np.abs(np.linalg.det(u) - 1.0) > 1e-10):
        raise DomainError("expected determinant 1")
    left = _mu((u @ v[..., None])[..., 0])
    right = u @ _mu(v) @ u.conj().swapaxes(-1, -2)
    return np.sqrt(_squared_norm(left - right, 2))[()]


def _antihermitian(mu11, mu22, mu33, mu21, mu31, mu32) -> np.ndarray:
    """The 3x3 matrices with the given diagonal and lower triangle, the upper triangle completed as -conj of the lower."""
    return _matrix([[mu11, -mu21.conjugate(), -mu31.conjugate()], [mu21, mu22, -mu32.conjugate()], [mu31, mu32, mu33]])


def momentum_flag(z: FlagCoords) -> MomentumValue:
    """Anti-Hermitian momentum value of a big-cell flag point, or of each point of a batch.

    Entries (lower triangle; upper filled by anti-Hermiticity), with
    w = z1 z3 - z2:

        mu11 = (i/2) ( -(|z1|^2 + |z2|^2)/K1 + (|z3|^2 + 1)/K2 )
        mu22 = (i/2) (   |z1|^2 /K1          -  |z3|^2 /K2 )
        mu33 = (i/2) (   |z2|^2 /K1          -  1 /K2 )
        mu21 = (i/2) (   z1 /K1 + conj(z3) w /K2 )
        mu31 = (i/2) (   z2 /K1 - w /K2 )
        mu32 = (i/2) (   conj(z1) z2 /K1 + z3 /K2 )

    These are the integrated solutions of d<mu, lambda_k> = iota_{X_k} omega
    with constants fixed by mu(0) = diag(i/2, 0, -i/2); equivalently
    mu = U diag(i/2, 0, -i/2) U* for the Gram-Schmidt unitary factor U of
    the big-cell matrix, so the value is equivariant by construction.
    The matrices have shape z.shape + (3, 3).
    """
    z1, z2, z3 = z.z1, z.z2, z.z3
    K1, K2 = z.K1, z.K2
    w = z1 * z3 - z2
    i2 = 0.5j
    mu11 = i2 * (-(abs(z1) ** 2 + abs(z2) ** 2) / K1 + (abs(z3) ** 2 + 1.0) / K2)
    mu22 = i2 * (abs(z1) ** 2 / K1 - abs(z3) ** 2 / K2)
    mu33 = i2 * (abs(z2) ** 2 / K1 - 1.0 / K2)
    mu21 = i2 * (z1 / K1 + z3.conjugate() * w / K2)
    mu31 = i2 * (z2 / K1 - w / K2)
    mu32 = i2 * (z1.conjugate() * z2 / K1 + z3 / K2)
    return MomentumValue(_antihermitian(mu11, mu22, mu33, mu21, mu31, mu32), "antihermitian_flag")


def momentum_flag_tabulated(z: FlagCoords, variant: str) -> np.ndarray:
    """Alternative tabulated entry lists for the flag momentum map (diagnostic).

    ``variant`` is "antihermitian" (a lower-triangle assembly carrying the
    i-factors, anti-Hermitian by construction) or "real_diagonal" (an
    entry list with a real diagonal that repeats the (1,2) formula for
    (1,3)).  Both deviate from momentum_flag on some entries - they fail
    the defining equation for part of the generators - so the verification
    suite reports the deviations instead of asserting them away.  The
    matrices have shape z.shape + (3, 3).
    """
    z1, z2, z3 = z.z1, z.z2, z.z3
    K1, K2 = z.K1, z.K2
    if variant == "antihermitian":
        mu21 = -0.5j * (-z1 / K1 + (z2 - z1 * z3) / K2)
        mu31 = -0.5j * (-z2 / K1 - (z2 - z1 * z3) / K2)
        mu32 = -0.5j * (-z1.conjugate() * z2 / K1 + z3.conjugate() / K2)
        mu11 = (-1j / 6.0) * ((abs(z2) ** 2 - 1.0) / K1 - (abs(z3) ** 2 + 2.0) / K2)
        mu22 = (-1j / 6.0) * ((2.0 * abs(z2) ** 2 + 1.0) / K1 + (abs(z3) ** 2 - 1.0) / K2)
        mu33 = -(mu11 + mu22)
        return _antihermitian(mu11, mu22, mu33, mu21, mu31, mu32)
    if variant == "real_diagonal":
        x1, x2, x3 = z1.real, z2.real, z3.real
        y1, y2, y3 = z1.imag, z2.imag, z3.imag
        mu11 = ((x3**2 + y3**2 + 2.0) / K2 - (x2**2 + y2**2 - 1.0) / K1) / 3.0
        mu22 = (-(2.0 * x2**2 + 2.0 * y2**2 + 1.0) / K1 - (x3**2 + y3**2 - 1.0) / K2) / 3.0
        mu33 = -(mu11 + mu22)
        mu12 = ((1j * y1 - x1) * (x3 - 1j * y3) - 1j * y2 + x2) / K2 - (x1 - 1j * y1) / K1
        mu13 = mu12  # the table lists identical formulas for mu12 and mu13
        mu23 = (1j * y3 + x3) / K2 - (x1 + 1j * y1) * (x2 - 1j * y2) / K1
        # the table lists the upper triangle; the lower one follows by anti-Hermiticity
        return _antihermitian(mu11, mu22, mu33, -mu12.conjugate(), -mu13.conjugate(), -mu23.conjugate())
    raise DomainError(f"variant must be 'antihermitian' or 'real_diagonal', got {variant!r}")


def momentum_flag_pairing(k, z: FlagCoords):
    """Dual pairing <mu(z), lambda_k> = trace(mu(z) lambda_k), a real number per point.

    ``k`` is a generator index 1..8 or an array of them; the pairings have
    shape np.shape(k) + z.shape, all from one evaluation of momentum_flag.
    """
    lam = _LAMBDA[_generator_row(k)]
    t = np.einsum("...ij,kji->k...", momentum_flag(z).matrix, lam.reshape(-1, 3, 3))
    return t.real.reshape(lam.shape[:-2] + z.shape)[()]


def defining_equation_defect(k, z: FlagCoords):
    """|| grad <mu, lambda_k> - omega X_k || at z, gradient by central differences.

    The gradient is taken in the real coordinates (x1..x3, y1..y3) and the
    contraction follows the flag_symplectic_matrix convention (covector =
    W @ X).  Small defects (<= 1e-6 for |z_i| <= 1.5) certify that
    momentum_flag, infinitesimal_vf and flag_metric are mutually consistent.
    ``k`` is a generator index or an array of them and ``z`` a point or a
    batch; the defects have shape np.shape(k) + z.shape, and all of them
    come from one momentum_flag evaluation at the 12 shifted copies of z.
    """
    steps = _DEFECT_STEP * np.concatenate([np.eye(3), 1j * np.eye(3)])  # along x1..x3, then y1..y3
    v = z.as_vector()[..., None, :]
    moved = FlagCoords(*np.moveaxis(np.concatenate([v + steps, v - steps], axis=-2), -1, 0))  # z.shape + (12,)
    pairing = momentum_flag_pairing(k, moved)
    grad = (pairing[..., :6] - pairing[..., 6:]) / (2.0 * _DEFECT_STEP)
    a = infinitesimal_vf(k, z)
    contraction = (flag_symplectic_matrix(z) @ np.concatenate([a.real, a.imag], axis=-1)[..., None])[..., 0]
    return np.sqrt(_squared_norm(grad - contraction, 1))[()]


def weighted_momentum(system) -> MomentumValue:
    """Strength-weighted total momentum sum_k Gamma_k mu(p_k) of a vortex system."""
    system.require("cpn", "weighted_momentum")
    return MomentumValue(_momentum_sum(system.positions, system.strengths), "hermitian_cp2")
