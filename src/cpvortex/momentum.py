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

from .errors import ConfigurationError, DomainError
from .geom import ProjectivePoint
from .su3flag import FlagCoords, flag_symplectic_matrix, gell_mann, infinitesimal_vf

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


@dataclass(frozen=True)
class MomentumValue:
    """A momentum-map value: traceless matrix plus its symmetry convention."""

    matrix: np.ndarray
    convention: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"momentum matrix must be square, got shape {m.shape}")
        if abs(np.trace(m)) > 1e-12 * max(1.0, np.linalg.norm(m)):
            raise DomainError("momentum matrix must be traceless")
        if self.convention == "hermitian_cp2":
            if np.linalg.norm(m - m.conj().T) > 1e-12:
                raise DomainError("hermitian_cp2 value must be Hermitian within 1e-12")
        elif self.convention == "antihermitian_flag":
            if np.linalg.norm(m + m.conj().T) > 1e-10:
                raise DomainError("antihermitian_flag value must be anti-Hermitian within 1e-10")
        else:
            raise DomainError(f"unknown convention {self.convention!r}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _unit_vector(p) -> np.ndarray:
    if isinstance(p, ProjectivePoint):
        return p.coords
    v = np.asarray(p, dtype=complex)
    if v.ndim != 1 or v.size < 2:
        raise DomainError("expected homogeneous coordinates of length n+1 >= 2")
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise DomainError("homogeneous coordinates must be normalized to unit norm")
    return v


def momentum_cpn(p) -> MomentumValue:
    """Hermitian momentum value v v* - I/(n+1) of a unit vector v."""
    v = _unit_vector(p)
    m = np.outer(v, v.conj()) - np.eye(v.size) / v.size
    return MomentumValue(m, "hermitian_cp2")


def momentum_cp2(p) -> MomentumValue:
    """The CP^2 momentum map; eigenvalues are always {-1/3, -1/3, 2/3}."""
    v = _unit_vector(p)
    if v.size != 3:
        raise DomainError(f"momentum_cp2 needs a point of CP^2 (3 coordinates), got {v.size}")
    return momentum_cpn(v)


def momentum_cp2_equivariance_check(p, u) -> float:
    """Frobenius defect || mu(U p) - U mu(p) U* || of left-action equivariance."""
    v = _unit_vector(p)
    u = u.entries if hasattr(u, "entries") else np.asarray(u, dtype=complex)
    if np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) > 1e-10:
        raise DomainError("expected a unitary matrix")
    if abs(np.linalg.det(u) - 1.0) > 1e-10:
        raise DomainError("expected determinant 1")
    left = momentum_cpn(u @ v).matrix
    right = u @ momentum_cpn(v).matrix @ u.conj().T
    return float(np.linalg.norm(left - right))


def momentum_flag(z: FlagCoords) -> MomentumValue:
    """Anti-Hermitian momentum value of a big-cell flag point.

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
    m = np.array(
        [
            [mu11, -mu21.conjugate(), -mu31.conjugate()],
            [mu21, mu22, -mu32.conjugate()],
            [mu31, mu32, mu33],
        ]
    )
    return MomentumValue(m, "antihermitian_flag")


def momentum_flag_tabulated(z: FlagCoords, variant: str) -> np.ndarray:
    """Alternative tabulated entry lists for the flag momentum map (diagnostic).

    ``variant`` is "antihermitian" (a lower-triangle assembly carrying the
    i-factors, anti-Hermitian by construction) or "real_diagonal" (an
    entry list with a real diagonal that repeats the (1,2) formula for
    (1,3)).  Both deviate from momentum_flag on some entries - they fail
    the defining equation for part of the generators - so the verification
    suite reports the deviations instead of asserting them away.
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
        return np.array(
            [
                [mu11, -mu21.conjugate(), -mu31.conjugate()],
                [mu21, mu22, -mu32.conjugate()],
                [mu31, mu32, mu33],
            ]
        )
    if variant == "real_diagonal":
        x1, x2, x3 = z1.real, z2.real, z3.real
        y1, y2, y3 = z1.imag, z2.imag, z3.imag
        mu11 = ((x3**2 + y3**2 + 2.0) / K2 - (x2**2 + y2**2 - 1.0) / K1) / 3.0
        mu22 = (-(2.0 * x2**2 + 2.0 * y2**2 + 1.0) / K1 - (x3**2 + y3**2 - 1.0) / K2) / 3.0
        mu33 = -(mu11 + mu22)
        mu12 = ((1j * y1 - x1) * (x3 - 1j * y3) - 1j * y2 + x2) / K2 - (x1 - 1j * y1) / K1
        mu13 = mu12  # the table lists identical formulas for mu12 and mu13
        mu23 = (1j * y3 + x3) / K2 - (x1 + 1j * y1) * (x2 - 1j * y2) / K1
        return np.array(
            [
                [mu11, mu12, mu13],
                [-mu12.conjugate(), mu22, mu23],
                [-mu13.conjugate(), -mu23.conjugate(), mu33],
            ]
        )
    raise DomainError(f"variant must be 'antihermitian' or 'real_diagonal', got {variant!r}")


def momentum_flag_pairing(k: int, z: FlagCoords) -> float:
    """Dual pairing <mu(z), lambda_k> = trace(mu(z) lambda_k), a real number."""
    t = complex(np.trace(momentum_flag(z).matrix @ gell_mann(k).entries))
    if abs(t.imag) > 1e-9:
        raise DomainError(f"pairing picked up an imaginary residue {t.imag:.3e}")
    return t.real


def _vf_real(k: int, z: FlagCoords) -> np.ndarray:
    a = infinitesimal_vf(k, z)
    return np.concatenate([a.real, a.imag])


def defining_equation_defect(k: int, z: FlagCoords, h: float = 1e-5) -> float:
    """|| grad <mu, lambda_k> - omega X_k || at z, gradient by central differences.

    The gradient is taken in the real coordinates (x1..x3, y1..y3) and the
    contraction follows the flag_symplectic_matrix convention (covector =
    W @ X).  Small defects (<= 1e-6 for |z_i| <= 1.5) certify that
    momentum_flag, infinitesimal_vf and flag_metric are mutually consistent.
    """
    xy = z.real_coords()

    def pairing_at(vec):
        return momentum_flag_pairing(k, FlagCoords(vec[0] + 1j * vec[3], vec[1] + 1j * vec[4], vec[2] + 1j * vec[5]))

    grad = np.zeros(6)
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        grad[i] = (pairing_at(xy + e) - pairing_at(xy - e)) / (2.0 * h)
    contraction = flag_symplectic_matrix(z) @ _vf_real(k, z)
    return float(np.linalg.norm(grad - contraction))


def _momentum_sum(lifts: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """sum_a Gamma_a (v_a v_a* - I/(n+1)) of unit lifts (N, n+1), or of a stack of them."""
    size = lifts.shape[-1]
    total = (lifts.swapaxes(-1, -2) * strengths) @ lifts.conj()
    diag = np.arange(size)
    total[..., diag, diag] -= strengths.sum() / size
    return total


def weighted_momentum(system) -> MomentumValue:
    """Strength-weighted total momentum sum_k Gamma_k mu(p_k) of a vortex system."""
    if system.manifold != "cpn":
        raise ConfigurationError(
            f"weighted momentum needs a projective-space system, got manifold {system.manifold!r}"
        )
    lifts = np.array([p.coords for p in system.positions])
    return MomentumValue(_momentum_sum(lifts, np.asarray(system.strengths)), "hermitian_cp2")
