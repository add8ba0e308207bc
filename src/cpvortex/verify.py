"""Seeded verification suites: every closed form against an independent oracle.

Each suite returns a list of CheckResult; a check passes when its defect is
within tolerance.  A result without a tolerance is a report: it prints
INFO and never fails a suite.  The reports quantify the two known normalization
question marks (the inverse-metric table factor and the Laplacian
coefficient table) and the deviation of the alternative momentum entry
tables from the defining-equation solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, geom, greens, momentum, su3flag
from .errors import ConfigurationError
from .su3flag import FlagCoords

__all__ = ["CheckResult", "SUITES", "run_suite"]

# finite-difference steps of the Hessian, gradient and generator-field oracles
_HESSIAN_STEP = 1e-4
_GRADIENT_STEP = 1e-5
_VF_STEP = 1e-5

_GENERATORS = np.arange(1, 9)  # the generator indices k, along the first axis of each k = 1..8 check
_MAX_SYSTEM_DRAWS = 10_000  # tries of a random vortex system before its sampler gives up


@dataclass
class CheckResult:
    name: str
    defect: float
    tolerance: float | None = None  # None makes the result a report
    note: str = ""
    worst_at: str = ""  # where the max defect occurred; printed on failure

    @property
    def gating(self) -> bool:
        return self.tolerance is not None

    @property
    def passed(self) -> bool:
        """A report always passes; a gating check when its defect is within tolerance (a NaN defect fails)."""
        return not self.gating or bool(self.defect <= self.tolerance)

    def line(self) -> str:
        status = ("PASS" if self.passed else "FAIL") if self.gating else "INFO"
        out = f"{status}  {self.name}: defect {self.defect:.3e}"
        if self.gating:
            out += f" (tolerance {self.tolerance:.1e})"
        if status == "FAIL" and self.worst_at:
            out += f"  at {self.worst_at}"
        if self.note:
            out += f"  [{self.note}]"
        return out


def _disk(rng: np.random.Generator, radius: float = 1.5, shape: tuple = ()):
    """Uniform points of the disk |z| <= radius, of the given shape.

    Each point takes two uniform draws, its radius and then its angle, so
    a batch reproduces the stream of as many single draws.
    """
    u = rng.uniform(size=(*shape, 2))
    r = radius * np.sqrt(u[..., 0])
    t = 2.0 * math.pi * u[..., 1]
    return (r * np.cos(t) + 1j * (r * np.sin(t)))[()]


def _random_flag(rng: np.random.Generator, radius: float = 1.5, shape: tuple = ()) -> FlagCoords:
    """Big-cell points with each coordinate uniform in the disk of the given radius; a batch of the given shape."""
    z = _disk(rng, radius, (*shape, 3))
    return FlagCoords(z[..., 0], z[..., 1], z[..., 2])


def _random_special_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar unitaries (count, 3, 3), each divided by a cube root of its determinant: elements of SU(3)."""
    u = geom._random_unitaries(3, (count,), rng)
    return u / (np.linalg.det(u) ** (1.0 / 3.0))[:, None, None]


def _worst(defects: np.ndarray, where) -> tuple:
    """The largest defect of an array and where(index) of its first occurrence, in C order."""
    i = np.unravel_index(int(np.argmax(defects)), defects.shape)
    return float(defects[i]), where(*i)


def _flag_label(z: FlagCoords, i: int) -> str:
    return f"z=({z.z1[i]:.4f}, {z.z2[i]:.4f}, {z.z3[i]:.4f})"


def wirtinger_hessian(f, z: np.ndarray) -> np.ndarray:
    """Mixed second derivatives d_{z_i} d_{zbar_j} f by nested central differences.

    ``z`` is one point (m,) or a batch (..., m), and the Hessians have shape
    (..., m, m).  ``f`` maps points (..., m) to values (...) and must
    broadcast over leading axes: it is called once, on the 16 m^2 shifted
    copies (z + a) + b stacked on two new leading axes of 4m shifts each.
    """
    m = z.shape[-1]
    h = _HESSIAN_STEP
    ex = h * np.eye(m, dtype=complex)
    ey = 1j * ex
    shifts = np.stack([ex, -ex, ey, -ey]).reshape((4 * m,) + (1,) * (z.ndim - 1) + (m,))
    values = f((z + shifts[:, None]) + shifts).reshape((4, m, 4, m) + z.shape[:-1])
    # values[s, i, t, j]: outer shift s along z_i, inner shift t along z_j, s and t in (+x, -x, +y, -y)
    d = 2.0 * h
    dbar = 0.5 * ((values[:, :, 0] - values[:, :, 1]) / d + 1j * ((values[:, :, 2] - values[:, :, 3]) / d))
    out = 0.5 * ((dbar[0] - dbar[1]) / d - 1j * ((dbar[2] - dbar[3]) / d))
    return np.moveaxis(out, (0, 1), (-2, -1))


def vf_finite_difference(k, z: FlagCoords) -> np.ndarray:
    """Group-action oracle for the generator fields: LU-normalize exp(+-h lambda_k) Z.

    ``k`` is a generator index 1..8 or an array of them; the fields have
    shape np.shape(k) + z.shape + (3,), from one z.matrix() and one
    bruhat_normalize call.
    """
    shape = np.shape(k)
    steps = su3flag.exp_su3(k, np.reshape([_VF_STEP, -_VF_STEP], (2,) + (1,) * len(shape)))
    steps = steps.reshape((2,) + shape + (1,) * len(z.shape) + (3, 3))
    plus, minus = su3flag.bruhat_normalize(steps @ z.matrix()).as_vector()
    return (plus - minus) / (2.0 * _VF_STEP)


def spectral_exponential(k, t) -> np.ndarray:
    """Oracle for exp(t lambda_k) = exp((i t/2) tilde_k), taking k and t as exp_su3 does.

    The matrices have shape broadcast(shape(k), shape(t)) + (3, 3).  They
    are computed from the eigendecomposition of the Hermitian tilde_k, so
    only the Gell-Mann entries enter, never the closed form.  A repeated
    eigenvalue does no harm: the functional calculus does not depend on
    the choice of eigenbasis.
    """
    w, q = np.linalg.eigh(su3flag.gell_mann_tilde(k))
    t = np.asarray(t, dtype=float)
    return (q * np.exp(0.5j * t[..., None, None] * w[..., None, :])) @ q.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Green's function suite


def verify_greens(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    ns = (1, 2, 3, 4)

    lo, hi = 0.05, math.pi / 2.0 - 0.05
    ends = np.sort(rng.uniform(lo, hi, size=(len(ns), 100, 2)), axis=-1)
    a, b = ends[..., 0], ends[..., 1]
    b = np.where(b - a < 1e-6, np.minimum(hi, a + 1e-3), b)
    worst = 0.0
    for n, a_n, b_n in zip(ns, a, b):
        closed = greens.greens_cpn(n, b_n) - greens.greens_cpn(n, a_n)
        worst = max(worst, float(np.max(np.abs(greens.greens_ode_oracle(n, a_n, b_n) - closed))))
    checks.append(CheckResult("greens quadrature oracle vs closed form (n=1..4)", worst, 1e-8))

    worst = 0.0
    h = 1e-6
    for n, r in zip(ns, rng.uniform(lo, hi, size=(len(ns), 100))):
        fd = (greens.greens_radial_part(n, r + h) - greens.greens_radial_part(n, r - h)) / (2.0 * h)
        s, c = np.sin(r), np.cos(r)
        integrand = (1.0 - s ** (2 * n)) / (s ** (2 * n - 1) * c)
        worst = max(worst, float(np.max(np.abs(fd - integrand) / np.abs(integrand))))
    checks.append(CheckResult("radial antiderivative vs integrand (relative)", worst, 1e-6))

    grid = np.linspace(0.01, math.pi / 2.0, 400)
    worst = max(float(np.max(np.diff(greens.greens_cpn(n, grid)))) for n in ns)
    checks.append(CheckResult("monotonicity: max increment of G along r (must be < 0)", worst, 0.0))

    # Gauss's law pins C_n, which the quadrature oracle shares: the flux of grad G through the geodesic sphere of
    # radius r, of area 2 pi^n sin^{2n-1} r cos r / (n-1)!, is -1 plus the ball's volume pi^n sin^{2n} r / n! / vol
    worst = 0.0
    for n, r in zip(ns, rng.uniform(lo, hi, (len(ns), 100))):
        s = np.sin(r)
        area = 2.0 * math.pi**n * s ** (2 * n - 1) * np.cos(r) / math.factorial(n - 1)
        worst = max(worst, float(np.max(np.abs(area * greens.greens_cpn_derivative(n, r) + (1.0 - s ** (2 * n))))))
    checks.append(CheckResult("Gauss's law: flux of grad G through geodesic spheres (n=1..4)", worst, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# momentum suite


def verify_momentum(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    target = np.array([-1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])
    ev = np.linalg.eigvalsh(momentum.momentum_cp2(geom._random_lifts(2, (1000,), rng)))
    worst = float(np.max(np.abs(np.sort(ev, axis=-1) - target)))
    checks.append(CheckResult("cp2 momentum spectrum {-1/3,-1/3,2/3} (1000 points)", worst, 1e-10))

    lifts = geom._random_lifts(2, (100,), rng)
    worst = float(np.max(momentum.momentum_cp2_equivariance_check(lifts, _random_special_unitaries(rng, 100))))
    checks.append(CheckResult("cp2 momentum equivariance (100 pairs)", worst, 1e-10))

    z = _random_flag(rng, shape=(100,))
    defects = momentum.defining_equation_defect(_GENERATORS, z)  # (8, 100)
    worst, worst_at = _worst(defects.T, lambda i, k: f"k={k + 1}, {_flag_label(z, i)}")
    checks.append(CheckResult("flag momentum defining equation, k=1..8 (100 points)", worst, 1e-6, worst_at=worst_at))

    lifts = geom._random_lifts(2, (20, 3), rng)
    gam, c = rng.uniform(0.5, 2.0, (20, 3)), rng.uniform(0.5, 2.0, 20)
    lhs = dynamics._momentum_sum(lifts, c[:, None] * gam)
    rhs = c[:, None, None] * dynamics._momentum_sum(lifts, gam)
    worst = float(np.max(np.linalg.norm(lhs - rhs, axis=(-2, -1))))
    checks.append(CheckResult("weighted momentum linearity in strengths", worst, 1e-14))

    z = _random_flag(rng, shape=(50,))
    m = momentum.momentum_flag(z)
    worst_ah = float(np.max(np.linalg.norm(m - momentum.momentum_flag_tabulated(z, "antihermitian"), axis=(-2, -1))))
    worst_rd = float(np.max(np.linalg.norm(m - momentum.momentum_flag_tabulated(z, "real_diagonal"), axis=(-2, -1))))

    # mu(g z) = g mu(z) g* for g = exp(t lambda_k): the defining equation fixes mu only up to a
    # constant, and the only Ad-invariant element of su(3) is 0, so this pins the constant.
    # Row 0 of the stack is z itself, so one normalization and one mu evaluation serve all.
    z = _random_flag(rng, shape=(50,))
    u = su3flag.exp_su3(_GENERATORS[:, None], rng.uniform(-2.0, 2.0, (8, 50)))
    zm = z.matrix()
    mu = momentum.momentum_flag(su3flag.bruhat_normalize(np.concatenate([zm[None], u @ zm])))
    defects = np.linalg.norm(mu[1:] - u @ mu[0] @ u.conj().swapaxes(-1, -2), axis=(-2, -1))  # (8, 50)
    worst, worst_at = _worst(defects.T, lambda i, k: f"k={k + 1}, {_flag_label(z, i)}")
    checks.append(CheckResult("flag momentum equivariance, k=1..8 (50 points)", worst, 1e-10, worst_at=worst_at))

    # twistor fibration: with u1, u3 the first and last columns of the unitary QR factor of the flag
    # matrix, mu_flag = (i/2)(mu_cpn(u1) - mu_cpn(u3)); drawn last, so the samples above do not move
    z = _random_flag(rng, shape=(100,))
    q = np.linalg.qr(z.matrix()).Q
    twistor = 0.5j * (momentum.momentum_cpn(q[..., 0]) - momentum.momentum_cpn(q[..., 2]))
    defects = np.linalg.norm(momentum.momentum_flag(z) - twistor, axis=(-2, -1))
    worst, worst_at = _worst(defects, lambda i: _flag_label(z, i))
    name = "flag momentum vs (i/2)(mu_cpn(u1) - mu_cpn(u3)), u from QR (100 points)"
    checks.append(CheckResult(name, worst, 1e-12, worst_at=worst_at))

    checks.append(
        CheckResult(
            "anti-Hermitian entry table vs defining-equation solution",
            worst_ah,
            note="report only: the table carries transcription slips; the defining equation is authoritative",
        )
    )
    checks.append(
        CheckResult(
            "real-diagonal entry table vs defining-equation solution",
            worst_rd,
            note="report only: the table repeats mu12 for mu13 and drops the i-factors",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# vector-field suite


def verify_vectorfields(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    z = _random_flag(rng, shape=(100,))
    defects = np.max(np.abs(su3flag.infinitesimal_vf(_GENERATORS, z) - vf_finite_difference(_GENERATORS, z)), axis=-1)
    worst, worst_at = _worst(defects.T, lambda i, k: f"k={k + 1}, {_flag_label(z, i)}")
    checks.append(CheckResult("generator fields vs LU finite differences, k=1..8", worst, 1e-6, worst_at=worst_at))

    s, t = np.moveaxis(rng.uniform(-3.0, 3.0, size=(8, 10, 2)), -1, 0)
    e = su3flag.exp_su3(_GENERATORS[:, None, None], np.stack([s, t, s + t], axis=1))
    worst = float(np.max(np.linalg.norm(e[:, 0] @ e[:, 1] - e[:, 2], axis=(-2, -1))))
    checks.append(CheckResult("one-parameter subgroup law exp(s)exp(t)=exp(s+t)", worst, 1e-12))

    times = rng.uniform(-3.0, 3.0, size=(8, 10))
    diffs = su3flag.exp_su3(_GENERATORS[:, None], times) - spectral_exponential(_GENERATORS[:, None], times)
    worst = float(np.max(np.linalg.norm(diffs, axis=(-2, -1))))
    checks.append(CheckResult("closed-form exponentials vs spectral exponential", worst, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# metric suite

def _tabulated_symplectic_blocks(z: FlagCoords):
    """Verbatim real-coordinate entry formulas of Im(h) and Re(h) (oracle), shape z.shape + (3, 3) each."""
    x1, x2, x3 = z.z1.real, z.z2.real, z.z3.real
    y1, y2, y3 = z.z1.imag, z.z2.imag, z.z3.imag
    K1sq, K2sq = z.K1**2, z.K2**2
    im = su3flag._matrix(
        [
            [
                0.0,
                (x2 * y1 - x1 * y2) / K1sq - y3 * (x3**2 + y3**2 + 1) / K2sq,
                (-(x3 * (y1 - 2 * x2 * y3)) - x3**2 * y2 + y3 * (x1 + y2 * y3)) / K2sq,
            ],
            [
                (x1 * y2 - x2 * y1) / K1sq + y3 * (x3**2 + y3**2 + 1) / K2sq,
                0.0,
                (x3 * y2 - x2 * y3 + y1) / K2sq,
            ],
            [
                (x3**2 * y2 + x3 * (y1 - 2 * x2 * y3) - y3 * (x1 + y2 * y3)) / K2sq,
                -(x3 * y2 - x2 * y3 + y1) / K2sq,
                0.0,
            ],
        ]
    )
    re = su3flag._matrix(
        [
            [
                (x2**2 + y2**2 + 1) / K1sq + (x3**2 * (2 * y3**2 + 1) + x3**4 + y3**4 + y3**2) / K2sq,
                -(x1 * x2 + y1 * y2) / K1sq - x3 * (x3**2 + y3**2 + 1) / K2sq,
                (y3 * (2 * x3 * y2 + y1) + x2 * (x3**2 - y3**2) + x1 * x3) / K2sq,
            ],
            [
                -(x1 * x2 + y1 * y2) / K1sq - x3 * (x3**2 + y3**2 + 1) / K2sq,
                (x1**2 + y1**2 + 1) / K1sq + (x3**2 + y3**2 + 1) / K2sq,
                -(x1 + x2 * x3 + y2 * y3) / K2sq,
            ],
            [
                (y3 * (2 * x3 * y2 + y1) + x2 * (x3**2 - y3**2) + x1 * x3) / K2sq,
                -(x1 + x2 * x3 + y2 * y3) / K2sq,
                z.K1 / K2sq,
            ],
        ]
    )
    return im, re


def verify_metric(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    z = _random_flag(rng, shape=(1000,))
    det = np.linalg.det(su3flag.flag_metric(z)).real
    expected = 2.0 / (z.K1**2 * z.K2**2)
    worst, worst_at = _worst(np.abs(det - expected) / expected, lambda i: _flag_label(z, i))
    checks.append(
        CheckResult("flag metric determinant 2/(K1^2 K2^2) (relative, 1000 points)", worst, 1e-10, worst_at=worst_at)
    )

    worst = 0.0
    for n in (1, 2, 3, 4):
        vals = _disk(rng, 2.0, (250, n))
        det = np.linalg.det(geom.fubini_study_metric(vals)).real
        expected = (1.0 + np.sum(np.abs(vals) ** 2, axis=-1)) ** -(n + 1)
        worst = max(worst, float(np.max(np.abs(det - expected) / expected)))
    checks.append(CheckResult("projective metric determinant (1+|z|^2)^-(n+1) (relative, 1000 points)", worst, 1e-10))

    z = _random_flag(rng, shape=(100,))
    fd = wirtinger_hessian(
        lambda v: su3flag.kahler_potential_flag(FlagCoords(v[..., 0], v[..., 1], v[..., 2])), z.as_vector()
    )
    worst = float(np.max(np.abs(fd - su3flag.flag_metric(z))))
    checks.append(CheckResult("flag metric vs potential Hessian (finite differences)", worst, 1e-5))

    worst = 0.0
    for n, count in ((1, 34), (2, 33), (3, 33)):
        vals = _disk(rng, 2.0 / math.sqrt(n), (count, n))
        fd = wirtinger_hessian(geom.fubini_study_potential, vals)
        worst = max(worst, float(np.max(np.abs(fd - geom.fubini_study_metric(vals)))))
    checks.append(CheckResult("projective metric vs potential Hessian (finite differences)", worst, 1e-5))

    z = _random_flag(rng, radius=3.0, shape=(1000,))
    smallest = float(np.min(np.linalg.eigvalsh(su3flag.flag_metric(z))))
    checks.append(
        CheckResult("flag metric positive definiteness (defect = -min eigenvalue)", -smallest, 0.0)
    )

    z = _random_flag(rng, shape=(200,))
    w = su3flag.flag_symplectic_matrix(z)
    worst_sym = float(np.max(np.linalg.norm(w + w.swapaxes(-1, -2), axis=(-2, -1))))
    im, re = _tabulated_symplectic_blocks(z)
    worst_blocks = float(np.max(np.abs(w - np.block([[im, -re], [re, im]]))))
    checks.append(CheckResult("symplectic matrix antisymmetry", worst_sym, 1e-12))
    checks.append(CheckResult("symplectic blocks vs entrywise real-coordinate formulas", worst_blocks, 1e-10))

    z = _random_flag(rng, shape=(100,))
    printed = su3flag.flag_metric_inverse_tabulated(z)
    inv = su3flag.flag_metric_inverse(z)
    mask = np.abs(inv) > 1e-6
    ratios = printed[mask] / inv[mask]
    med = float(np.median(ratios.real))
    spread = float(np.max(np.abs(ratios - 2.0)))
    checks.append(
        CheckResult(
            f"inverse-metric table proportionality factor (median {med:.6f})",
            spread,
            note="report only: 7 of 9 entries are exactly 2x the numeric inverse; "
            "the (3,1) and (3,3) entries carry their own slips (spread above)",
        )
    )

    z = _random_flag(rng, shape=(100,))
    worst = float(np.max(np.abs(su3flag.flag_laplacian_coeffs(z) - su3flag.flag_laplacian_reference(z))))
    checks.append(
        CheckResult(
            "Laplacian coefficient table vs 2 h^{ji}",
            worst,
            note="report only: the tabulated projective-plane block differs in form from the inverse metric",
        )
    )

    # twistor fibration: h = J1^T h_FS(f1) conj(J1) + J2^T h_FS(f2) conj(J2) for the line f1 = (z1, z2), whose J1
    # projects onto (z1, z2), and the plane f2 = (z1 z3 - z2, -z3); drawn last, so the samples above do not move
    z = _random_flag(rng, shape=(100,))
    pullback = np.zeros(z.shape + (3, 3), dtype=complex)
    pullback[..., :2, :2] = geom.fubini_study_metric(np.stack([z.z1, z.z2], axis=-1))
    j2 = np.zeros(z.shape + (2, 3), dtype=complex)
    j2[..., 0, 0], j2[..., 0, 1], j2[..., 0, 2], j2[..., 1, 2] = z.z3, -1.0, z.z1, -1.0
    pullback += j2.swapaxes(-1, -2) @ geom.fubini_study_metric(np.stack([z.z1 * z.z3 - z.z2, -z.z3], axis=-1)) @ j2.conj()
    h = su3flag.flag_metric(z)
    defects = np.linalg.norm(h - pullback, axis=(-2, -1)) / np.linalg.norm(h, axis=(-2, -1))
    worst, worst_at = _worst(defects, lambda i: _flag_label(z, i))
    name = "flag metric vs twistor pullback of h_FS(z1, z2) and h_FS(z1 z3 - z2, -z3) (relative, 100 points)"
    checks.append(CheckResult(name, worst, 1e-12, worst_at=worst_at))
    return checks


# ---------------------------------------------------------------------------
# dynamics suite


def _random_system(rng, make, draw, n, N, min_sep, gamma_range):
    """Redraw positions, each try in one draw(), and signed strengths until no pair is closer than min_sep."""
    pairs = dynamics._pairs(N)
    for _ in range(_MAX_SYSTEM_DRAWS):
        x = draw()
        gam = rng.uniform(*gamma_range, N) * rng.choice([-1.0, 1.0], N)
        # the constructor's collision check, made first: a try it would reject is redrawn here
        if np.all(dynamics._separations(x, n, *pairs) >= max(min_sep, dynamics.COLLISION_THRESHOLD)):
            return make(x, gam)
    raise ConfigurationError(f"no system with n = {n}, N = {N} and all separations >= {min_sep} in {_MAX_SYSTEM_DRAWS} tries")


def _random_cpn_system(rng, n, N, min_sep=0.3):
    return _random_system(rng, dynamics.VortexSystem.cpn, lambda: geom._random_lifts(n, (N,), rng), n, N, min_sep, (0.5, 2.0))


def _random_planar_system(rng, N, min_sep=0.3):
    draw = lambda: rng.uniform(-1, 1, (N, 2)).view(complex)[:, 0]  # each row (x, y) read as x + iy
    return _random_system(rng, dynamics.VortexSystem.plane, draw, 0, N, min_sep, (0.5, 1.5))


def _relative_gradient_error(system):
    """Largest relative defect, over the vortices, of grad_hamiltonian against central differences of H.

    All 4 N n perturbed states (N, 2, 2n, N, n+1) are stacked: vortex alpha moved
    by +-h along one real coordinate of its chart, the others at their exact lifts,
    and H takes one evaluation of the energy kernel over the stack.
    """
    h, n, N = _GRADIENT_STEP, system.n, system.size
    charts, grads = dynamics.grad_hamiltonian(system)
    w0 = geom._chart_values(system.positions, charts)
    e = h * np.concatenate([np.eye(n), 1j * np.eye(n)])  # (2n, n)
    w = w0[:, None, None, :] + np.stack([e, -e])  # (N, 2, 2n, n)
    moved = geom._unit_lifts(geom._chart_lifts(w, np.broadcast_to(charts[:, None, None], w.shape[:-1])))
    states = np.broadcast_to(system.positions, (N, 2, 2 * n, N, n + 1)).copy()
    alpha = np.arange(N)
    states[alpha, :, :, alpha] = moved
    i, j = dynamics._pairs(N)
    energy = dynamics._pair_energy(n, system.strengths, i, j, dynamics._separations(states, n, i, j))
    fd = (energy[:, 0] - energy[:, 1]) / (2.0 * h)
    scale = np.maximum(np.linalg.norm(grads, axis=1), 1e-8)
    return float((np.linalg.norm(fd - grads, axis=1) / scale).max())


def _field_error(system):
    """Largest defect of integrate's field (h = 1) against hamiltonian_vector_field, relative to its largest velocity;
    each lift velocity dv is pushed through its chart map as dw = (dv_rest v_c - v_rest dv_c) / v_c^2."""
    rhs, weights = dynamics._field(system)
    v, n = system.positions, system.n
    charts, vels = dynamics.hamiltonian_vector_field(system)
    rest, dv = geom._off_pivot(charts, v.shape), rhs(v, weights)
    pivot, dpivot = v[~rest][:, None], dv[~rest][:, None]
    dw = (dv[rest].reshape(-1, n) * pivot - v[rest].reshape(-1, n) * dpivot) / pivot**2
    defects = np.linalg.norm(dw - (vels[:, :n] + 1j * vels[:, n:]), axis=1)
    return float(defects.max() / np.linalg.norm(vels, axis=1).max())


def _planar_period_error():
    """Two equal vortices at distance d rotate rigidly; compare the period."""
    d, gamma = 1.0, 1.0
    period = 2.0 * math.pi**2 * d**2 / gamma
    steps = 10_000
    sys0 = dynamics.VortexSystem.plane([0.5 * d, -0.5 * d], [gamma, gamma])
    traj = dynamics.integrate(sys0, period / steps, steps, method="rk4")
    return abs(dynamics.planar_pair_period(traj) - period) / period


def verify_dynamics(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(2, 5))
        worst = max(worst, _relative_gradient_error(_random_cpn_system(rng, n, N)))
    checks.append(CheckResult("analytic gradient vs finite differences (relative, 50 configs)", worst, 1e-6))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        worst = max(worst, dynamics.omega_identity_defect(_random_cpn_system(rng, n, 3), rng))
    checks.append(CheckResult("symplectic identity Omega(X_H, Y) = dH(Y)", worst, 1e-6))

    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(50):
            sys = _random_cpn_system(rng, n, 3)
            u = geom.random_unitary(n + 1, rng)
            moved = dynamics.VortexSystem.cpn(sys.positions @ u.T, sys.strengths)
            worst = max(worst, abs(dynamics.hamiltonian_cpn(moved) - dynamics.hamiltonian_cpn(sys)))
    checks.append(CheckResult("Hamiltonian invariance under common unitaries (n=1,2,3)", worst, 1e-10))

    checks.append(
        CheckResult("planar two-vortex period vs 2 pi^2 d^2 / Gamma (relative)", _planar_period_error(), 1e-3)
    )

    steps, dt = 10_000, 1e-3
    for n in (1, 2):
        sys = _random_cpn_system(rng, n, 3)
        traj = dynamics.integrate(sys, dt, steps, method="rk4")
        h0 = traj.monitors[0, 0]
        drift = float(np.max(np.abs(traj.monitors[:, 0] - h0))) / max(abs(h0), 1e-3)
        checks.append(CheckResult(f"energy drift on CP^{n} (relative, {steps} rk4 steps)", drift, 1e-8))
        if n == 2:
            mu = dynamics._momentum_sum(traj.positions, sys.strengths)
            mdrift = float(np.max(np.linalg.norm(mu - mu[0], axis=(-2, -1))))
            checks.append(CheckResult("weighted momentum drift on CP^2 (Frobenius)", mdrift, 1e-7))

    plan = _random_planar_system(rng, 3)
    traj = dynamics.integrate(plan, dt, steps, method="rk4")
    inv = np.array(dynamics._planar_impulses(traj.positions, plan.strengths))  # (3, steps + 1)
    drift = float(np.max(np.abs(inv - inv[:, :1])))
    checks.append(CheckResult("planar invariants p_x, p_y, m drift", drift, 1e-9))

    sep_sys = _random_cpn_system(rng, 1, 2, min_sep=0.5)
    traj = dynamics.integrate(sep_sys, dt, steps, method="rk4")
    sep0 = traj.monitors[0, 2]
    sep_drift = float(np.max(np.abs(traj.monitors[:, 2] - sep0)))
    checks.append(CheckResult("CP^1 two-vortex separation constancy", sep_drift, 1e-8))

    # the drift checks above cannot see a constant factor in the integrated field; this one can
    systems = (_random_cpn_system(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6))) for _ in range(20))
    worst = max(map(_field_error, systems))
    checks.append(CheckResult("integrator field vs chart-side vector field (relative, 20 systems)", worst, 1e-12))
    return checks


SUITES = {
    "greens": verify_greens,
    "momentum": verify_momentum,
    "vectorfields": verify_vectorfields,
    "metric": verify_metric,
    "dynamics": verify_dynamics,
}


def run_suite(name: str, seed: int = 0) -> list:
    """Run one named suite (or 'all'); returns the collected CheckResults."""
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key, seed=seed))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed)
