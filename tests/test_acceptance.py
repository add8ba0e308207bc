"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` for the defect
values).  Each test prints: CRITERION <id> <summary>: defect vs tolerance.
"""

import math
import time

import numpy as np
import pytest

from cpvortex import dynamics, geom, greens, momentum, su3flag, verify
from cpvortex.su3flag import FlagCoords


def report(cid, desc, defect, tol, elapsed=None):
    status = "PASS" if defect <= tol else "FAIL"
    extra = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"CRITERION {cid:>2} {desc}: defect {defect:.3e} vs tolerance {tol:.1e} -> {status}{extra}")
    assert defect <= tol, f"criterion {cid}: {defect:.3e} > {tol:.1e}"


def test_criterion_01_greens_oracle_equivalence():
    rng = np.random.default_rng(0)
    lo, hi = 0.05, math.pi / 2 - 0.05
    start = time.perf_counter()
    a, b = np.moveaxis(np.sort(rng.uniform(lo, hi, (4, 100, 2)), axis=-1), -1, 0)  # one row of 100 per n
    b = np.where(b - a < 1e-6, np.minimum(hi, a + 1e-3), b)
    worst = 0.0
    for n, a_n, b_n in zip((1, 2, 3, 4), a, b):
        closed = greens.greens_cpn(n, b_n) - greens.greens_cpn(n, a_n)
        worst = max(worst, float(np.max(np.abs(greens.greens_ode_oracle(n, a_n, b_n) - closed))))
    elapsed = time.perf_counter() - start
    report(1, "quadrature of the density ODE vs closed-form differences", worst, 1e-8, elapsed)
    assert elapsed <= 10.0


def test_criterion_02_antiderivative():
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(100):
            r = rng.uniform(0.05, math.pi / 2 - 0.05)
            fd = (greens.greens_radial_part(n, r + h) - greens.greens_radial_part(n, r - h)) / (2 * h)
            s, c = math.sin(r), math.cos(r)
            integrand = (1 - s ** (2 * n)) / (s ** (2 * n - 1) * c)
            worst = max(worst, abs(fd - integrand) / abs(integrand))
    report(2, "radial profile derivative vs integrand (relative)", worst, 1e-6)


def test_criterion_03_cp2_momentum_spectrum():
    rng = np.random.default_rng(0)
    target = np.array([-1 / 3, -1 / 3, 2 / 3])
    start = time.perf_counter()
    ev = np.linalg.eigvalsh(momentum.momentum_cp2(geom._random_lifts(2, (1000,), rng)).matrix)  # (1000, 3)
    worst = float(np.max(np.abs(np.sort(ev, axis=-1) - target)))
    elapsed = time.perf_counter() - start
    report(3, "momentum spectrum {-1/3,-1/3,2/3} at 1000 points", worst, 1e-10, elapsed)
    assert elapsed <= 2.0


def test_criterion_04_flag_defining_equation():
    rng = np.random.default_rng(0)
    z = verify._random_flag(rng, 1.5, (100,))
    worst = float(np.max(momentum.defining_equation_defect(range(1, 9), z)))  # (8, 100)
    report(4, "flag momentum defining equation, all 8 generators x 100 points", worst, 1e-6)


def test_criterion_05_vector_field_oracle():
    rng = np.random.default_rng(0)
    z = verify._random_flag(rng, 1.5, (100,))
    worst = 0.0
    for k in range(1, 9):
        fd = verify.vf_finite_difference(k, z)
        worst = max(worst, float(np.max(np.abs(fd - su3flag.infinitesimal_vf(k, z)))))
    report(5, "generator fields vs LU group-action finite differences", worst, 1e-6)


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(0)
    z = verify._random_flag(rng, 1.5, (1000,))
    det = np.linalg.det(su3flag.flag_metric(z)).real
    expected = 2.0 / (z.K1**2 * z.K2**2)
    worst_flag_det = float(np.max(np.abs(det - expected) / expected))
    report(6, "flag metric determinant 2/(K1^2 K2^2), relative", worst_flag_det, 1e-10)

    worst_proj_det = 0.0
    for n in (1, 2, 3, 4):
        vals = verify._disk(rng, 2.0, (250, n))
        det = np.linalg.det(geom.fubini_study_metric(vals)).real
        expected = (1.0 + np.sum(np.abs(vals) ** 2, axis=-1)) ** -(n + 1)
        worst_proj_det = max(worst_proj_det, float(np.max(np.abs(det - expected) / expected)))
    report(6, "projective metric determinant (1+|z|^2)^-(n+1), relative", worst_proj_det, 1e-10)

    z = verify._random_flag(rng, 1.5, (100,))
    fd = verify.wirtinger_hessian(
        lambda v: su3flag.kahler_potential_flag(FlagCoords(v[..., 0], v[..., 1], v[..., 2])), z.as_vector()
    )
    worst_flag_fd = float(np.max(np.abs(fd - su3flag.flag_metric(z))))
    report(6, "flag metric vs potential Hessian (finite differences)", worst_flag_fd, 1e-5)

    worst_proj_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        vals = np.array([verify._disk(rng, 2.0 / math.sqrt(n)) for _ in range(n)])
        fd = verify.wirtinger_hessian(geom.fubini_study_potential, vals)
        h = geom.fubini_study_metric(vals)
        worst_proj_fd = max(worst_proj_fd, float(np.max(np.abs(fd - h))))
    report(6, "projective metric vs potential Hessian (finite differences)", worst_proj_fd, 1e-5)


def test_criterion_07_planar_relative_equilibrium():
    report(7, "two-vortex period vs 2 pi^2 d^2 / Gamma (relative)", verify._planar_period_error(), 1e-3)


def test_criterion_08_conservation_under_flow():
    rng = np.random.default_rng(0)
    steps, dt = 10_000, 1e-3
    start = time.perf_counter()

    sys1 = verify._random_cpn_system(rng, 1, 3, min_sep=0.3)
    traj1 = dynamics.integrate(sys1, dt, steps, method="rk4")
    h = traj1.monitors[:, 0]
    drift1 = float(np.max(np.abs(h - h[0]))) / max(abs(h[0]), 1e-3)

    sys2 = verify._random_cpn_system(rng, 2, 3, min_sep=0.3)
    traj2 = dynamics.integrate(sys2, dt, steps, method="rk4")
    h = traj2.monitors[:, 0]
    drift2 = float(np.max(np.abs(h - h[0]))) / max(abs(h[0]), 1e-3)
    mu = dynamics._momentum_sum(traj2.positions, np.asarray(sys2.strengths))  # (steps + 1, 3, 3)
    mdrift = float(np.max(np.linalg.norm(mu - mu[0], axis=(-2, -1))))

    plan = verify._random_planar_system(rng, 3, min_sep=0.3)
    traj3 = dynamics.integrate(plan, dt, steps, method="rk4")
    inv = np.array(dynamics._planar_impulses(traj3.positions, np.asarray(plan.strengths)))  # (3, steps + 1)
    pdrift = float(np.max(np.abs(inv - inv[:, :1])))
    elapsed = time.perf_counter() - start

    report(8, "relative energy drift on CP^1 (1e4 rk4 steps)", drift1, 1e-8, elapsed)
    report(8, "relative energy drift on CP^2 (1e4 rk4 steps)", drift2, 1e-8)
    report(8, "weighted momentum Frobenius drift on CP^2", mdrift, 1e-7)
    report(8, "planar p_x, p_y, m drift", pdrift, 1e-9)
    assert elapsed <= 60.0


def test_criterion_09_hamiltonian_invariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(50):
            sys = verify._random_cpn_system(rng, n, 3, min_sep=0.3)
            u = geom.random_unitary(n + 1, rng)
            moved = dynamics.VortexSystem.cpn(
                [geom.ProjectivePoint(u @ p) for p in sys.positions], sys.strengths
            )
            worst = max(worst, abs(dynamics.hamiltonian_cpn(moved) - dynamics.hamiltonian_cpn(sys)))
    report(9, "Hamiltonian invariance under common unitaries, n=1,2,3", worst, 1e-10)


def test_criterion_10_gradient_and_sharp():
    rng = np.random.default_rng(0)
    worst_grad = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        N = int(rng.integers(2, 5))
        sys = verify._random_cpn_system(rng, n, N, min_sep=0.3)
        worst_grad = max(worst_grad, verify._relative_gradient_error(sys))
    report(10, "analytic gradient vs central differences (relative, 50 configs)", worst_grad, 1e-6)

    worst_omega = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 3))
        sys = verify._random_cpn_system(rng, n, 3, min_sep=0.3)
        worst_omega = max(worst_omega, dynamics.omega_identity_defect(sys, rng))
    report(10, "symplectic identity for the Hamiltonian vector field", worst_omega, 1e-6)


def test_criterion_11_discrepancy_reports_nongating(capsys):
    results = verify.run_suite("metric", seed=0)
    reports = [r for r in results if not r.gating]
    names = " | ".join(r.name for r in reports)
    assert len(reports) == 2
    assert "inverse-metric table proportionality factor" in names
    assert "Laplacian coefficient table" in names
    for r in reports:
        assert r.passed  # informational: never gates
        assert np.isfinite(r.defect)
        print(f"CRITERION 11 (report) {r.line()}")
    gating = [r for r in results if r.gating]
    assert all(r.passed for r in gating)
