import io
import math
from fractions import Fraction

import numpy as np
import pytest

from cpvortex import dynamics, geom
from cpvortex.dynamics import (
    COLLISION_THRESHOLD,
    _cpn_rhs,
    VortexSystem,
    grad_hamiltonian,
    hamiltonian_cpn,
    hamiltonian_vector_field,
    integrate,
    min_pairwise_distance,
    omega_identity_defect,
    planar_conserved,
    planar_hamiltonian,
    planar_pair_period,
    planar_rhs,
    write_monitor_csv,
    write_trajectory_csv,
)
from cpvortex.errors import ChartDegenerateError, CollisionError, ConfigurationError, NumericError
from cpvortex.geom import (ProjectivePoint, from_chart, AffineChart, _lift_distance, pivot_threshold, random_point,
                           random_unitary, to_chart)
from cpvortex.greens import greens_constant, greens_cpn_derivative
from cpvortex.momentum import weighted_momentum
from cpvortex.verify import _random_cpn_system, _random_planar_system, _relative_gradient_error


def cp1_pair(r):
    """Two CP^1 points at geodesic distance r, equal unit strengths."""
    p = ProjectivePoint([1.0, 0.0])
    q = ProjectivePoint([math.cos(r), math.sin(r)])
    return VortexSystem.cpn([p, q], [1.0, 1.0])


class TestVortexSystem:
    def test_zero_strength_rejected(self):
        with pytest.raises(ConfigurationError):
            VortexSystem.plane([0.0, 1.0], [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            VortexSystem.plane([], [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            VortexSystem.cpn([ProjectivePoint([1, 0]), ProjectivePoint([1, 0, 0])], [1.0, 1.0])

    @pytest.mark.parametrize(
        "points",
        [[[1, 0], [1, 0, 0]], [[1, 0, 0], ProjectivePoint([1, 0])], [np.array([1, 0]), 1.0]],
        ids=["raw-lifts", "mixed", "lift-and-scalar"],
    )
    def test_ragged_lifts_rejected(self, points):
        # raw lifts of two lengths used to reach NumPy's bare ValueError ("inhomogeneous shape")
        with pytest.raises(ConfigurationError, match=r"^all positions must lie on one CP\^n, got coordinate shapes "):
            VortexSystem.cpn(points, [1.0, 1.0])

    @pytest.mark.parametrize(
        "build",
        [lambda: VortexSystem.cpn([], []), lambda: VortexSystem("cpn", np.empty((0, 2)), [], n=1)],
        ids=["cpn", "constructor"],
    )
    def test_no_vortices_rejected(self, build):
        # cpn([], []) used to read the empty list as CP^-1 and report the dimension rule instead
        with pytest.raises(ConfigurationError, match="^need N >= 1 positions with matching strengths$"):
            build()

    def test_wrong_position_type_rejected(self):
        with pytest.raises(ConfigurationError):
            VortexSystem("cpn", (1.0 + 0j,), (1.0,), n=1)

    @pytest.mark.parametrize(
        "manifold, positions, n, message",
        [
            ("torus", [0.0, 1.0], 0, "manifold must be 'plane' or 'cpn', got 'torus'"),
            ("plane", [0.0, 1.0], 1, "planar systems have no projective dimension"),
            ("plane", [[0.0, 1.0], [1.0, 0.0]], 0, r"planar positions must be complex numbers \(N,\), got shape \(2, 2\)"),
            ("plane", [0.0, complex(np.nan, 1.0)], 0, "positions must be finite"),
        ],
        ids=["manifold", "planar-n", "planar-shape", "planar-non-finite"],
    )
    def test_malformed_system_rejected(self, manifold, positions, n, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            VortexSystem(manifold, positions, [1.0, 1.0], n=n)

    def test_collision_at_construction(self):
        p = ProjectivePoint([1.0, 0.0])
        q = ProjectivePoint([1.0, 1e-5])
        with pytest.raises(CollisionError, match="vortices 0 and 1 at separation 1.000e-05"):
            VortexSystem.cpn([p, q], [1.0, 1.0])

    def test_array_and_points_build_the_same_state(self):
        rng = np.random.default_rng(5)
        pts = [random_point(2, rng) for _ in range(3)]
        gam = [0.7, -1.2, 2.0]
        from_points = VortexSystem.cpn(pts, gam)
        from_array = VortexSystem.cpn(np.array([p.coords for p in pts]), np.array(gam))
        assert from_points.n == from_array.n == 2
        for a, b in ((from_points.positions, from_array.positions), (from_points.strengths, from_array.strengths)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable and not b.flags.writeable

    def test_input_array_is_copied(self):
        lifts = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        sys = VortexSystem.cpn(lifts, [1.0, 1.0])
        lifts[0] = [0.0, 1.0]
        assert sys.positions[0, 0] == 1.0

    def test_non_unit_lift_rejected(self):
        lifts = np.array([[1.0, 0.0], [0.6, 0.8 + 1e-9]])
        with pytest.raises(ConfigurationError):
            VortexSystem.cpn(lifts, [1.0, 1.0])

    def test_min_distance_single_vortex(self):
        sys = VortexSystem.plane([1.0 + 1.0j], [2.0])
        assert min_pairwise_distance(sys) == math.inf

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    def test_single_vortex_run_reports_infinite_min_distance(self, method):
        for sys in (VortexSystem.plane([1.0 + 1.0j], [2.0]), VortexSystem.cpn([ProjectivePoint([1, 1j, 0])], [2.0])):
            assert min_pairwise_distance(sys) == math.inf
            monitors = integrate(sys, 0.01, 5, method=method).monitors
            assert len(monitors) >= 2 and np.all(monitors[:, 2] == math.inf)


class TestPlanarModel:
    def test_single_vortex_is_still(self):
        sys = VortexSystem.plane([0.3 + 0.4j], [1.0])
        assert np.allclose(planar_rhs(sys), 0.0)

    def test_corotating_pair_frequency(self):
        # equal strengths at +-d/2 rotate rigidly at omega = Gamma/(pi d^2)
        gamma, d = 1.3, 0.8
        sys = VortexSystem.plane([d / 2, -d / 2], [gamma, gamma])
        omega = gamma / (math.pi * d**2)
        vel = planar_rhs(sys)
        assert vel[0] == pytest.approx(1j * omega * (d / 2), rel=1e-14)
        assert vel[1] == pytest.approx(1j * omega * (-d / 2), rel=1e-14)

    def test_counter_rotating_pair_translates(self):
        sys = VortexSystem.plane([0.5j, -0.5j], [1.0, -1.0])
        vel = planar_rhs(sys)
        assert vel[0] == pytest.approx(vel[1], rel=1e-14)

    def test_translating_pair_has_no_period(self):
        # the pair angle stays put, so there is no rotation to time
        traj = integrate(VortexSystem.plane([0.5j, -0.5j], [1.0, -1.0]), 1e-3, 20)
        assert planar_pair_period(traj) is None

    def test_conserved_single_vortex(self):
        sys = VortexSystem.plane([1.0 + 1.0j], [1.0])
        px, py, m = planar_conserved(sys)
        assert (px, py) == (1.0, 1.0)
        assert m == pytest.approx(1.0)

    def test_conserved_mirror_pair(self):
        sys = VortexSystem.plane([1.0 + 0.0j, -1.0 + 0.0j], [1.0, -1.0])
        px, py, m = planar_conserved(sys)
        assert px == pytest.approx(2.0)
        assert py == 0.0
        assert m == pytest.approx(0.0)

    def test_conserved_origin(self):
        sys = VortexSystem.plane([0.0 + 0.0j], [1.0])
        assert planar_conserved(sys) == (0.0, 0.0, 0.0)

    def test_conserved_rejects_cpn_system(self):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0])], [1.0])
        with pytest.raises(ConfigurationError, match="planar_conserved needs a planar system"):
            planar_conserved(sys)

    def test_hamiltonian_unit_distance(self):
        sys = VortexSystem.plane([0.0, 1.0], [1.0, 1.0])
        assert planar_hamiltonian(sys) == 0.0

    def test_hamiltonian_distance_e(self):
        sys = VortexSystem.plane([0.0, math.e + 0.0j], [1.0, 1.0])
        assert planar_hamiltonian(sys) == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-14)

    def test_hamiltonian_equilateral_triangle(self):
        zs = [np.exp(2j * math.pi * k / 3) for k in range(3)]
        side = abs(zs[0] - zs[1])
        zs = [z / side for z in zs]  # rescale to unit side length
        sys = VortexSystem.plane(zs, [1.0, 1.0, 1.0])
        assert planar_hamiltonian(sys) == pytest.approx(0.0, abs=1e-14)


class TestHamiltonianCpn:
    def test_single_vortex(self):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0, 0])], [1.0])
        assert hamiltonian_cpn(sys) == 0.0

    def test_orthogonal_pair_cp2(self):
        pts = [ProjectivePoint([1, 0, 0]), ProjectivePoint([0, 1, 0])]
        sys = VortexSystem.cpn(pts, [1.0, 1.0])
        assert hamiltonian_cpn(sys) == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-14)

    def test_cp1_quarter_pi(self):
        sys = cp1_pair(math.pi / 4)
        assert hamiltonian_cpn(sys) == pytest.approx(math.log(2.0) / (4.0 * math.pi), rel=1e-12)

    def test_prefactor_matches_pairwise_green_for_low_n(self):
        from cpvortex.greens import cpn_volume

        for n in (1, 2, 3, 4, 5, 6):
            assert greens_constant(n) == pytest.approx(-1.0 / (2.0 * n * cpn_volume(n)), rel=1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            sys = _random_cpn_system(rng, n, 3)
            u = random_unitary(n + 1, rng)
            moved = VortexSystem.cpn([ProjectivePoint(u @ p) for p in sys.positions], sys.strengths)
            assert hamiltonian_cpn(moved) == pytest.approx(hamiltonian_cpn(sys), abs=1e-10)


class TestGradient:
    def test_single_vortex_zero(self):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0, 0])], [1.0])
        _, grads = grad_hamiltonian(sys)
        assert grads.shape == (1, 4) and np.allclose(grads, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(1, 3))
            sys = _random_cpn_system(rng, n, 3)
            assert _relative_gradient_error(sys) < 1e-6

    def test_zero_pivot_rejected(self):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0]), ProjectivePoint([0.6, 0.8])], [1.0, 1.0])
        with pytest.raises(ChartDegenerateError):
            grad_hamiltonian(sys, charts=[1, 0])

    @pytest.mark.parametrize("charts", [[0], [0, 5]])
    def test_bad_charts_rejected(self, charts):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0]), ProjectivePoint([0.6, 0.8])], [1.0, 1.0])
        with pytest.raises(ConfigurationError, match="chart index"):
            grad_hamiltonian(sys, charts=charts)

    def test_orthogonal_pair_zero(self):
        # rho = 0 is a critical point of the pair energy: d(rho) vanishes in every direction
        sys = VortexSystem.cpn([ProjectivePoint([1, 0]), ProjectivePoint([0, 1])], [1.0, -2.0])
        charts, grads = grad_hamiltonian(sys)
        assert charts.tolist() == [0, 1]
        assert np.isfinite(grads).all() and (grads == 0.0).all()

    def test_symmetric_pair_gradients_opposite(self):
        a = 0.37
        p = from_chart(AffineChart(0, np.array([a + 0.0j])))
        q = from_chart(AffineChart(0, np.array([-a + 0.0j])))
        sys = VortexSystem.cpn([p, q], [1.0, 1.0])
        charts, (g1, g2) = grad_hamiltonian(sys, charts=[0, 0])
        assert charts.tolist() == [0, 0]
        assert np.allclose(g1, -g2, atol=1e-13)


class TestVectorField:
    def test_single_vortex_zero_velocity(self):
        sys = VortexSystem.cpn([ProjectivePoint([0, 1])], [2.0])
        _, vels = hamiltonian_vector_field(sys)
        assert vels.shape == (1, 2) and np.allclose(vels, 0.0)

    def test_velocity_orthogonal_to_gradient(self):
        sys = cp1_pair(0.9)
        _, grads = grad_hamiltonian(sys, charts=[0, 0])
        _, vels = hamiltonian_vector_field(sys, charts=[0, 0])
        for g, v in zip(grads, vels):
            assert abs(np.dot(g, v)) < 1e-14 * max(1.0, np.linalg.norm(g) * np.linalg.norm(v))

    def test_equal_speed_for_equal_strength_pair(self):
        sys = cp1_pair(0.7)
        _, (v1, v2) = hamiltonian_vector_field(sys, charts=[0, 0])
        # in homogeneous terms both points move at the same geodesic speed;
        # compare chart speeds through the chart metric
        from cpvortex.geom import fubini_study_metric, to_chart

        speeds = []
        for p, v in zip(sys.positions, hamiltonian_vector_field(sys, charts=[0, 0])[1]):
            h = fubini_study_metric(to_chart(ProjectivePoint(p), 0).values).real[0, 0]
            speeds.append(h * (v[0] ** 2 + v[1] ** 2))
        assert speeds[0] == pytest.approx(speeds[1], rel=1e-10)

    def test_strength_rescaling(self):
        rng = np.random.default_rng(2)
        sys = _random_cpn_system(rng, 2, 3)
        c = 2.5
        scaled = VortexSystem.cpn(sys.positions, c * sys.strengths)
        ch1, v1 = hamiltonian_vector_field(sys)
        ch2, v2 = hamiltonian_vector_field(scaled)
        assert np.array_equal(ch1, ch2)
        for a, b in zip(v1, v2):
            assert np.allclose(b, c * a, rtol=1e-12)

    def test_orthogonal_pair_zero_velocity(self):
        sys = VortexSystem.cpn([ProjectivePoint([1, 0]), ProjectivePoint([0, 1])], [1.0, -2.0])
        _, vels = hamiltonian_vector_field(sys)
        assert np.isfinite(vels).all() and (vels == 0.0).all()

    def test_omega_identity(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            sys = _random_cpn_system(rng, n, 3)
            assert omega_identity_defect(sys, rng) < 1e-6

    def test_omega_identity_sees_a_miswired_symplectic_matrix(self, monkeypatch):
        # the velocities solve with W of conj(h); omega is still taken from h, so the identity fails
        block = dynamics._symplectic_matrix
        monkeypatch.setattr(dynamics, "_symplectic_matrix", lambda h: block(h.conj()))
        rng = np.random.default_rng(3)
        assert omega_identity_defect(_random_cpn_system(rng, 2, 3), rng) > 1e-6

    def test_omega_identity_rejects_planar_system(self):
        sys = VortexSystem.plane([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError, match="omega_identity_defect needs a cpn system"):
            omega_identity_defect(sys)


class TestOracleArrays:
    """The chart-side oracle returns one chart index and one real chart vector per vortex, as arrays."""

    @pytest.mark.parametrize("oracle", [grad_hamiltonian, hamiltonian_vector_field])
    @pytest.mark.parametrize("n, N", [(1, 1), (2, 4), (3, 3)])
    def test_shapes_and_default_charts(self, oracle, n, N):
        sys = _random_cpn_system(np.random.default_rng(10 * n + N), n, N)
        charts, vectors = oracle(sys)
        assert charts.shape == (N,) and charts.dtype.kind == "i" and vectors.shape == (N, 2 * n)
        assert np.array_equal(charts, np.abs(sys.positions).argmax(axis=1))

    @pytest.mark.parametrize("oracle", [grad_hamiltonian, hamiltonian_vector_field])
    def test_given_charts_are_returned(self, oracle):
        charts, vectors = oracle(cp1_pair(0.9), charts=[0, 1])
        assert charts.tolist() == [0, 1] and vectors.shape == (2, 2)


class TestHomogeneousField:
    """The integrator's field on unit lifts against the chart-side oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_matches_chart_vector_field(self, n, N):
        rng = np.random.default_rng(100 * n + N)
        sys = _random_cpn_system(rng, n, N)
        lifts = sys.positions
        dlifts = _cpn_rhs(lifts, greens_constant(n) * sys.strengths, n)
        errors, scale = [], 0.0
        for v, dv, c, vel in zip(lifts, dlifts, *hamiltonian_vector_field(sys)):
            # push dv through the chart map w = v_rest / v_c
            rest, drest = np.delete(v, c), np.delete(dv, c)
            dw = (drest * v[c] - rest * dv[c]) / v[c] ** 2
            expected = vel[:n] + 1j * vel[n:]
            errors.append(np.linalg.norm(dw - expected))
            scale = max(scale, np.linalg.norm(expected))
        assert max(errors) <= 1e-12 * scale


def expanded_cpn_rhs(v, w, n):
    """The lift field with its geometric sum written inline."""
    gram = v @ v.conj().T
    rho = np.abs(gram) ** 2
    rho.ravel()[:: len(v) + 1] = 0.0
    s2 = 1.0 - rho
    c = w / s2
    for _ in range(n - 1):
        c = (c + w) / s2
    m = c * gram
    m.ravel()[:: len(v) + 1] = -np.vecdot(c, rho)
    return 1j * (m @ v)


def test_stepper_kernels_match_their_expanded_forms():
    # the field and the retraction take their sum and their norm from greens and geom, bit for bit
    rng = np.random.default_rng(24)
    for _ in range(200):
        n, N = int(rng.integers(1, 5)), int(rng.integers(1, 31))
        v = geom._random_lifts(n, (N,), rng)
        w = greens_constant(n) * rng.uniform(1e-4, 1e-2, N) * rng.choice([-1.0, 1.0], N)
        np.testing.assert_array_equal(_cpn_rhs(v, w, n), expanded_cpn_rhs(v, w, n))
        x = v + rng.uniform(-1e-3, 1e-3, v.shape)
        np.testing.assert_array_equal(dynamics._retract(x, n), x / np.sqrt(np.vecdot(x, x).real)[:, None])


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # sigma_x, sigma_y, sigma_z


def hopf(u):
    """X = u* sigma u of line coordinates u (..., 2), sigma the Pauli vector: a unit vector of R^3 for a unit u."""
    w = u[..., 0].conj() * u[..., 1]
    return np.stack([2.0 * w.real, 2.0 * w.imag, np.abs(u[..., 0]) ** 2 - np.abs(u[..., 1]) ** 2], axis=-1)


class TestSphereFlow:
    """Vortices on a projective line of CP^n move as vortices on a sphere, whatever N and the strengths.

    The line is the fixed set of an isometry, so the field stays tangent to it, and the Hopf image
    X_a = u_a* sigma u_a of the line coordinates u_a moves by dX_a/dt = sum_{b != a} Gamma_b k(r_ab) X_a x X_b
    with k(r) = 2 phi'(r) / sin 2r and cos 2r_ab = X_a . X_b.  Under this Hopf convention the cross product is
    X_a x X_b; the other order misses by 2 relative.  The sphere side shares only greens_cpn_derivative with the
    lift field, whose constant and slope sum the chart-side oracle shares.
    """

    @staticmethod
    def draw_line_system(rng, n, N=5):
        while True:  # line points at separations of at least 0.3, so 2r >= 0.6 on the sphere
            u = geom._random_lifts(1, (N,), rng)
            X = hopf(u)
            cos2r = (X @ X.T)[np.triu_indices(N, 1)]
            if np.all(cos2r <= math.cos(0.6)):
                break
        gam = rng.uniform(0.5, 1.5, N) * rng.choice([-1.0, 1.0], N)
        q = random_unitary(n + 1, rng)[:, :2]  # the line: the span of two orthonormal columns
        return u, q, VortexSystem.cpn(u @ q.T, gam)

    @pytest.mark.parametrize("draw", range(8))
    def test_lift_field_is_the_sphere_field(self, draw):
        rng = np.random.default_rng(2800 + draw)
        n = draw % 4 + 1
        u, q, sys = self.draw_line_system(rng, n)
        rhs, weights = dynamics._field(sys)
        dv = rhs(sys.positions, weights)  # the velocity of a step h = 1
        du = dv @ q.conj()
        off_line = dv - du @ q.T
        assert np.abs(off_line).max() <= 1e-12 * np.abs(dv).max()
        X = hopf(u)
        dX = 2.0 * np.einsum("ai,kij,aj->ak", u.conj(), PAULI, du).real
        cross = np.cross(X[:, None, :], X[None, :, :])  # X_a x X_b
        sin2r = np.linalg.norm(cross, axis=-1)
        np.fill_diagonal(sin2r, 1.0)  # the self term, whose cross product is 0
        r = 0.5 * np.arctan2(sin2r, X @ X.T)
        k = 2.0 * greens_cpn_derivative(n, r) / sin2r
        expected = np.einsum("b,ab,abk->ak", sys.strengths, k, cross)
        assert np.abs(dX - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("method, dt, steps", [("rk4", 1e-3, 250), ("rk45_adaptive", 0.025, 10)],
                             ids=["rk4", "rk45_adaptive"])
    @pytest.mark.parametrize("draw", range(8))
    def test_integrate_keeps_the_line(self, draw, method, dt, steps):
        # to T = 0.25: draw 3 (n = 4) has a close encounter that rk4 does not resolve, on a line that is
        # transversally unstable there, and leaves it by 1.9e-10; every other run stays within 2.3e-15
        rng = np.random.default_rng(2800 + draw)
        u, q, sys = self.draw_line_system(rng, draw % 4 + 1)
        x = integrate(sys, dt, steps, method=method).positions
        assert np.abs(x - (x @ q.conj()) @ q.T).max() <= 1e-9


class TestPlanarLimit:
    """Near [1 : 0], CP^1 is the plane with chart coordinate z = v_1 / v_0.

    A cluster [1 : eps z_j] run for eps^2 T and read back as z_j / eps follows the planar system run for T, up to
    O(eps^2): halving eps divides the deviation by 4.  A factor 1 + c in the CP^1 strengths leaves an O(c)
    deviation that does not shrink with eps, so the ratio pins the sign, scale and time unit of the lift field
    against PLANE_CONSTANT, with no code shared.
    """

    T, STEPS, EPS = 0.5, 400, (0.02, 0.01, 0.005)

    @classmethod
    def ratios(cls, draw, scale):
        """dev(0.02) / dev(0.01) and dev(0.01) / dev(0.005) of draw's cluster, its CP^1 strengths times scale."""
        rng = np.random.default_rng(2900 + draw)
        while True:  # N = 4 in [-1, 1]^2 at separations of at least 0.3
            z = rng.uniform(-1.0, 1.0, 4) + 1j * rng.uniform(-1.0, 1.0, 4)
            if np.abs(z[:, None] - z)[np.triu_indices(4, 1)].min() >= 0.3:
                break
        gam = rng.uniform(0.5, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
        zT = integrate(VortexSystem.plane(z, gam), cls.T / cls.STEPS, cls.STEPS).positions[-1]
        dev = []
        for eps in cls.EPS:
            lifts = geom._unit_lifts(np.stack([np.ones(4, dtype=complex), eps * z], axis=-1))
            v = integrate(VortexSystem.cpn(lifts, scale * gam), eps**2 * cls.T / cls.STEPS, cls.STEPS).positions[-1]
            dev.append(np.abs(v[:, 1] / v[:, 0] / eps - zT).max() / np.abs(zT).max())
        return dev[0] / dev[1], dev[1] / dev[2]

    @pytest.mark.parametrize("draw", range(3))
    def test_deviation_shrinks_as_eps_squared(self, draw):
        assert all(3.9 <= ratio <= 4.1 for ratio in self.ratios(draw, 1.0))

    @pytest.mark.parametrize("scale", [1.0 + 1e-4, -1.0])
    @pytest.mark.parametrize("draw", range(3))
    def test_a_wrong_scale_or_sign_leaves_the_band(self, draw, scale):
        assert not any(3.9 <= ratio <= 4.1 for ratio in self.ratios(draw, scale))


class TestIntegrate:
    def test_zero_steps(self):
        sys = cp1_pair(0.8)
        traj = integrate(sys, 0.01, 0)
        assert traj.times.size == 1
        assert np.array_equal(traj.positions[0], sys.positions)

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    def test_first_row_is_the_system(self, method):
        rng = np.random.default_rng(6)
        sys = _random_cpn_system(rng, 2, 3)
        traj = integrate(sys, 1e-3, 5, method=method)
        assert traj.positions[0].tobytes() == sys.positions.tobytes()

    def test_planar_period(self):
        gamma, d = 1.0, 1.0
        period = 2.0 * math.pi**2 * d**2 / gamma
        steps = 4000
        sys = VortexSystem.plane([d / 2, -d / 2], [gamma, gamma])
        traj = integrate(sys, period / steps, steps)
        # after one period the vortices return to their start
        assert abs(traj.positions[-1, 0] - d / 2) < 1e-3 * d

    def test_cp1_pair_separation_constant(self):
        sys = cp1_pair(0.6)
        traj = integrate(sys, 1e-3, 1000)
        assert np.max(np.abs(traj.monitors[:, 2] - traj.monitors[0, 2])) < 1e-8

    def test_energy_conserved_cp2(self):
        rng = np.random.default_rng(4)
        sys = _random_cpn_system(rng, 2, 3)
        traj = integrate(sys, 1e-3, 500)
        h = traj.monitors[:, 0]
        assert np.max(np.abs(h - h[0])) / max(abs(h[0]), 1e-3) < 1e-10

    def test_rk45_matches_rk4(self):
        sys = cp1_pair(0.8)
        t_end = 0.5
        fine = integrate(sys, 1e-4, 5000, method="rk4")
        adaptive = integrate(sys, 0.01, 50, method="rk45_adaptive")
        assert adaptive.times[-1] == pytest.approx(t_end, rel=1e-12)
        p_fine = ProjectivePoint(fine.positions[-1, 0])
        p_adap = ProjectivePoint(adaptive.positions[-1, 0])
        from cpvortex.geom import geodesic_distance_cpn

        assert geodesic_distance_cpn(p_fine, p_adap) < 1e-7

    @pytest.mark.parametrize("dt", [1e-17, 1e-9, 10.0])
    def test_rk45_reaches_any_horizon(self, dt):
        # the loop and underflow guards scale with t_end: a horizon below
        # 1e-15 used to record no step at all
        traj = integrate(cp1_pair(0.8), dt, 3, method="rk45_adaptive")
        assert len(traj.times) >= 2
        assert traj.times[-1] == pytest.approx(dt * 3, rel=1e-12)

    def test_collision_detection(self):
        # a tight counter-rotating dipole sweeps past a weak vortex closer
        # than the collision threshold
        d = 1.8e-4
        sys = VortexSystem.plane(
            [-0.005 + 0.5j * d, -0.005 - 0.5j * d, 0.0 + 0.0j],
            [1.0, -1.0, 1e-6],
        )
        with pytest.raises(CollisionError) as err:
            integrate(sys, 2e-8, 600)
        assert err.value.step_index is not None
        assert err.value.step_index > 0
        # the reported step is the first failing one
        integrate(sys, 2e-8, err.value.step_index - 1)
        with pytest.raises(CollisionError):
            integrate(sys, 2e-8, err.value.step_index)

    def test_chart_switch_preserves_invariants(self):
        # this pair's rigid rotation carries the first vortex across the
        # chart-switch latitude (pivot 1/2 on CP^1); conservation must hold
        # through the coordinate change
        p = from_chart(AffineChart(0, np.array([math.tan(0.785) + 0.0j])))
        q = from_chart(AffineChart(0, np.array([math.tan(1.40) + 0.0j])))
        sys = VortexSystem.cpn([p, q], [1.0, 1.0])
        traj = integrate(sys, 2e-3, 2500)
        assert len({tuple(r) for r in traj.charts.tolist()}) > 1  # a switch happened
        h = traj.monitors[:, 0]
        assert np.max(np.abs(h - h[0])) < 1e-12
        assert np.max(np.abs(traj.monitors[:, 2] - traj.monitors[0, 2])) < 1e-12

    def test_single_vortex_is_stationary(self):
        sys = VortexSystem.cpn([ProjectivePoint([0.6, 0.8j])], [1.0])
        traj = integrate(sys, 0.01, 20)
        assert ProjectivePoint(traj.positions[-1, 0]).same_point(ProjectivePoint(sys.positions[0]), tol=1e-12)

    def test_invalid_method(self):
        with pytest.raises(ConfigurationError):
            integrate(cp1_pair(0.5), 0.01, 10, method="euler")

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    @pytest.mark.parametrize("steps", [2.5, 3.0, "3", True, None])
    def test_steps_must_be_an_integer(self, method, steps):
        # 2.5 failed inside the RK4 stepper and ran rk45_adaptive to t = 0.25; "3" failed in a comparison
        with pytest.raises(ConfigurationError, match=r"^steps must be an integer, got "):
            integrate(cp1_pair(0.5), 0.1, steps, method=method)

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    def test_dt_must_be_a_real_number(self, method):
        # "0.1", 0.1 + 0j and None raised a bare TypeError, and True ran steps of size 1
        for dt in ("0.1", 0.1 + 0j, None, True):
            with pytest.raises(ConfigurationError, match=r"^dt must be a real number, got "):
                integrate(cp1_pair(0.5), dt, 3, method=method)
        assert integrate(cp1_pair(0.5), np.float32(0.1), 3, method=method).times[-1] == pytest.approx(0.3)

    def test_adaptive_step_size_underflow(self, monkeypatch):
        # every trial step is rejected, so the step shrinks by 5 per trial until it drops below 1e-14 t_end
        monkeypatch.setattr(dynamics, "_dp_step", lambda rhs, y, w: (y, np.full(y.shape, 1.0)))
        with pytest.raises(NumericError, match=r"^adaptive step size underflow at t = 0\.0$"):
            integrate(cp1_pair(0.5), 0.1, 3, method="rk45_adaptive")

    @pytest.mark.parametrize("method", ["rk4", "rk45_adaptive"])
    def test_numpy_integer_steps(self, method):
        assert integrate(cp1_pair(0.5), 0.1, np.int64(3), method=method).times[-1] == pytest.approx(0.3)

    def test_trajectories_compare_by_identity(self):
        # array fields: a field-wise == would raise on the ambiguous truth value
        a, b = (integrate(cp1_pair(0.5), 1e-3, 2) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_times_strictly_increasing(self):
        traj = integrate(cp1_pair(0.5), 1e-3, 50)
        assert np.all(np.diff(traj.times) > 0)


class TestPairRotationPeriod:
    """A CP^n vortex pair turns rigidly on its projective line in a closed-form period.

    The line is a round sphere of radius 1/2 on which the separation r is
    the angle 2r; the pair turns about its centre of vorticity
    M = G1 x1 + G2 x2 with period T = pi sin 2r / (|phi'(r)| |M|),
    |M|^2 = G1^2 + G2^2 + 2 G1 G2 cos 2r, and a vortex at the angle alpha
    from M is at the distance d(t) from its start with
    cos 2d = cos^2 alpha + sin^2 alpha cos(2 pi t / T).  Energy, momentum
    and separation are blind to a constant factor in the field; this
    motion is not.  phi' is pinned by the flux and quadrature oracles of
    the Green's function.  The sign of the field, which d(t) cannot see,
    is pinned by TestHomogeneousField.

    Tolerance, fixed by RK4's order: its error after one period in M steps
    is 2^-4 of the error in M/2 steps, so the return distance in M steps
    may be at most twice that, e(M/2) / 8.  A field off by a factor c near 1
    misses the start by about 2 pi |c - 1| times the orbit radius at both
    step counts, so it fails the ratio.  For the distance curve,
    |delta cos 2d| <= 2 sin(alpha) |delta d| bounds the deviation by twice
    the same tolerance; the curve also sees an integer c, after which the
    pair is back at its start.  With these steps and separations the
    errors lie between about 1e-10 and 2e-5, far above round-off.
    """

    STEPS = 400

    @pytest.mark.parametrize(
        "n, r, g1, g2",
        [
            (1, 0.4, 1.3, -0.7),
            (1, 1.1, 1.0, 0.6),
            (2, 0.4, 0.8, -0.8),
            (2, 1.1, 1.3, -0.7),
            (3, 0.4, 1.0, 0.6),
            (3, 1.1, 0.8, -0.8),
            (4, 0.4, 1.3, -0.7),
            (4, 1.1, 0.8, -0.8),
        ],
    )
    def test_pair_turns_in_the_closed_form_period(self, n, r, g1, g2):
        rng = np.random.default_rng(10 * n + round(10 * r))
        lifts = np.zeros((2, n + 1), dtype=complex)
        lifts[0, 0], lifts[1, 0], lifts[1, 1] = 1.0, math.cos(r), math.sin(r)
        sys = VortexSystem.cpn(lifts @ random_unitary(n + 1, rng).T, [g1, g2])
        m = math.sqrt(g1 * g1 + g2 * g2 + 2.0 * g1 * g2 * math.cos(2.0 * r))
        period = math.pi * math.sin(2.0 * r) / (abs(greens_cpn_derivative(n, r)) * m)
        cos_alpha = np.array([g1 + g2 * math.cos(2.0 * r), g2 + g1 * math.cos(2.0 * r)]) / m

        returns = []
        for steps in (self.STEPS // 2, self.STEPS):
            traj = integrate(sys, period / steps, steps)
            d = _lift_distance(traj.positions, traj.positions[0])
            returns.append(d[-1].max())
        tol = returns[0] / 2**4 * 2.0
        assert returns[1] <= tol

        expected = cos_alpha**2 + (1.0 - cos_alpha**2) * np.cos(2.0 * math.pi * traj.times / period)[:, None]
        assert np.abs(np.cos(2.0 * d) - expected).max() <= 2.0 * tol


def per_step_charts(positions: np.ndarray, n: int) -> np.ndarray:
    """The chart hysteresis one recorded state at a time: a chart is kept until its pivot drops to the threshold."""
    mags = np.abs(positions)
    rows = np.arange(mags.shape[1])
    charts = [mags[0].argmax(axis=1)]
    for mag in mags[1:]:
        charts.append(np.where(mag[rows, charts[-1]] <= pivot_threshold(n), mag.argmax(axis=1), charts[-1]))
    return np.array(charts)


# the Dormand-Prince 5(4) tableau as exact fractions: stage rows, and the weights of orders 5 and 4
DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176), Fraction(-5103, 18656)],
    [Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784), Fraction(11, 84)],
]
DP_B5 = DP_A[-1] + [0]
DP_B4 = [Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640), Fraction(-92097, 339200),
         Fraction(187, 2100), Fraction(1, 40)]


class TestDormandPrinceStep:
    """On y' = lambda y every stage is a polynomial in z = h lambda, so the exact step follows from the tableau."""

    @staticmethod
    def exact(z: Fraction):
        """The fifth-order state and the error (R5 - R4)(z) of one step from y = 1, in exact arithmetic."""
        k = []
        for row in DP_A:
            k.append(z * (1 + sum(a * kj for a, kj in zip(row, k))))
        return 1 + sum(b * kj for b, kj in zip(DP_B5, k)), sum((b5 - b4) * kj for b5, b4, kj in zip(DP_B5, DP_B4, k))

    @pytest.mark.parametrize("z", [1e-2, -1e-2, 0.3])
    def test_error_estimate_of_a_linear_field(self, z):
        y5, err = dynamics._dp_step(lambda y, w: w * y, np.ones(1), z)
        exact_y5, exact_err = self.exact(Fraction(z))
        assert abs(Fraction(float(y5[0])) - exact_y5) <= 1e-15 * abs(exact_y5)
        # the difference y5 - y4 of two unit-size states would be off by 1.6e-3 relative at z = 1e-2
        assert abs(Fraction(float(err[0])) - exact_err) <= 1e-4 * abs(exact_err)


class TestBatchedChecks:
    """integrate checks charts, finiteness and monitors once per batch of states; the outcome is the per-step one."""

    @pytest.mark.parametrize("monitor_pairs", [1, 7, 256])
    def test_charts_match_the_per_step_hysteresis(self, monkeypatch, monitor_pairs):
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        # the CP^1 pair turns about an equatorial axis, so each vortex crosses both pivot thresholds
        a = math.pi / 4 - 0.5
        pair = VortexSystem.cpn([[math.cos(a), math.sin(a)], [math.cos(a + 1.0), math.sin(a + 1.0)]], [1.0, 1.0])
        trio = _random_cpn_system(np.random.default_rng(2), 2, 3)
        for sys, dt in [(pair, 5e-2), (trio, 2e-2)]:
            traj = integrate(sys, dt, 500)
            expected = per_step_charts(traj.positions, sys.n)
            assert np.count_nonzero(np.any(expected[1:] != expected[:-1], axis=1)) >= 2  # chart switches happen
            assert np.array_equal(traj.charts, expected)

    @pytest.mark.parametrize(
        "sys",
        [
            # strengths whose products stay finite, so the monitors of the initial state are finite
            VortexSystem.plane([0.5, -0.5], [1e150, -1e150]),
            VortexSystem.cpn([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]], [1e150, 1e150]),
        ],
    )
    def test_overflowing_run_reports_the_first_non_finite_state(self, monkeypatch, sys):
        dt = 1e160
        assert np.isfinite(integrate(sys, dt, 0).monitors).all()
        messages = []
        for monitor_pairs in (1, 256):  # with 1, every state is checked as it is recorded
            monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
            with pytest.raises(NumericError) as err:
                integrate(sys, dt, 10)
            messages.append(str(err.value))
        assert messages == [f"non-finite state at step 1 (t = {dt})"] * 2

    @pytest.mark.parametrize("monitor_pairs", [1, 256])
    @pytest.mark.parametrize(
        "collided, non_finite, state",
        [
            (3, 5, [0.0, np.nan, 2.0j]),
            (4, 2, [0.0, np.nan, 2.0j]),
            # a finite state whose impulse sum Gamma |z|^2 / 2 overflows; with 256 the later collision came first
            (5, 3, [1e160, 0.0, 2.0j]),
        ],
        ids=["3-5", "4-2", "5-3-overflowing-momentum"],
    )
    def test_first_failure_by_step_index(self, monkeypatch, monitor_pairs, collided, non_finite, state):
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        start = np.array([0.0, 1.0, 2.0j])
        states = [start + 0.01 * k for k in range(1, 8)]
        states[collided - 1] = np.array([0.0, 0.5 * COLLISION_THRESHOLD, 2.0j])
        states[non_finite - 1] = np.array(state)
        steps = iter(states)
        monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: np.array(next(steps)))  # each RK4 step returns the next state
        sys = VortexSystem.plane(start, [1.0, 1.0, 1.0])
        if collided < non_finite:
            with pytest.raises(CollisionError) as err:
                integrate(sys, 0.1, 7)
            assert err.value.step_index == collided
        else:
            with pytest.raises(NumericError) as err:
                integrate(sys, 0.1, 7)
            if np.isfinite(state).all():
                assert str(err.value) == f"non-finite energy or momentum norm at step {non_finite}"
            else:
                assert str(err.value) == f"non-finite state at step {non_finite} (t = {non_finite * 0.1})"

    @pytest.mark.parametrize("monitor_pairs", [1, 256])
    def test_adaptive_failure_right_after_a_batch(self, monkeypatch, monitor_pairs):
        # with every queued state already checked, the stop used to fail with an IndexError
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        sys = cp1_pair(0.8)
        accepted, non_finite = np.zeros_like(sys.positions), np.full(sys.positions.shape, np.nan)
        steps = iter([(sys.positions.copy(), accepted), (sys.positions.copy(), non_finite)])
        monkeypatch.setattr(dynamics, "_dp_step", lambda *args: next(steps))
        with pytest.raises(NumericError, match="non-finite error estimate at step 2 "):
            integrate(sys, 0.1, 5, method="rk45_adaptive")

    @pytest.mark.parametrize("monitor_pairs", [1, 256])
    def test_queued_failure_precedes_the_stepper_error(self, monkeypatch, monitor_pairs):
        # step 1 collides and is still queued when the stepper raises at step 2: the collision is reported
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        sys = cp1_pair(0.8)
        collided = np.array([sys.positions[0], sys.positions[0]])
        steps = iter([(collided, np.zeros_like(collided)), (collided, np.full(collided.shape, np.nan))])
        monkeypatch.setattr(dynamics, "_dp_step", lambda *args: next(steps))
        with pytest.raises(CollisionError) as err:
            integrate(sys, 0.1, 5, method="rk45_adaptive")
        assert err.value.step_index == 1


class TestMonitorsOfARecordedState:
    """The monitors of a recorded state are a function of that state alone, bit for bit: not of the states
    it is checked with, which the batch size and the run's length set."""

    SYSTEMS = {
        "cp1-n3": (lambda: _random_cpn_system(np.random.default_rng(281), 1, 3), 1e-3),
        "cp2-n30": (lambda: _random_cpn_system(np.random.default_rng(282), 2, 30, min_sep=0.1), 1e-5),
        "plane-n3": (lambda: _random_planar_system(np.random.default_rng(283), 3), 1e-3),
    }
    MONITOR_PAIRS = (1, 7, 256, 3072)

    @pytest.mark.parametrize("label", SYSTEMS)
    def test_batch_size_moves_no_bit(self, monkeypatch, label):
        make, dt = self.SYSTEMS[label]
        sys, runs = make(), []
        for monitor_pairs in self.MONITOR_PAIRS:
            monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
            traj = integrate(sys, dt, 60)
            traj_csv, mon_csv = io.StringIO(), io.StringIO()
            write_trajectory_csv(traj, traj_csv)
            write_monitor_csv(traj, mon_csv)
            runs.append((traj.monitors.tobytes(), traj_csv.getvalue(), mon_csv.getvalue()))
        assert runs[1:] == runs[:1] * (len(runs) - 1)

    @pytest.mark.parametrize("monitor_pairs", MONITOR_PAIRS)
    @pytest.mark.parametrize("label", SYSTEMS)
    def test_first_row_is_the_public_monitors(self, monkeypatch, label, monitor_pairs):
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        make, dt = self.SYSTEMS[label]
        sys = make()
        if sys.n:
            energy = hamiltonian_cpn(sys)
            momentum = float(np.sqrt(geom._squared_norm(weighted_momentum(sys).matrix, 2)))
        else:
            energy = planar_hamiltonian(sys)
            momentum = math.sqrt(sum(p**2 for p in planar_conserved(sys)))
        row = integrate(sys, dt, 60).monitors[0]
        assert row.tolist() == [energy, momentum, min_pairwise_distance(sys)]

    @pytest.mark.parametrize("monitor_pairs", MONITOR_PAIRS)
    @pytest.mark.parametrize("label", SYSTEMS)
    def test_shorter_run_is_a_prefix(self, monkeypatch, label, monitor_pairs):
        monkeypatch.setattr(dynamics, "_MONITOR_PAIRS", monitor_pairs)
        make, dt = self.SYSTEMS[label]
        sys = make()
        short, long = integrate(sys, dt, 10), integrate(sys, dt, 60)
        assert short.monitors.tobytes() == long.monitors[:11].tobytes()


class TestChartsFromTheTrajectory:
    """A trajectory picks its charts once, from its recorded lifts, and only when they are read."""

    def test_charts_are_picked_once_on_first_read(self, monkeypatch):
        calls, pick = [], dynamics._pick_charts
        monkeypatch.setattr(dynamics, "_pick_charts", lambda *args: calls.append(1) or pick(*args))
        traj = integrate(cp1_pair(0.8), 1e-2, 300)
        write_monitor_csv(traj, io.StringIO())
        assert calls == []  # a run whose charts are never read picks none
        assert traj.charts is traj.charts
        assert calls == [1]
        write_trajectory_csv(traj, io.StringIO())
        assert calls == [1]

    @pytest.mark.parametrize("n, N", [(1, 2), (2, 5), (3, 4)])
    def test_random_walks_match_the_per_step_hysteresis(self, n, N):
        # independent random lifts at every step: many switches, often of several vortices at once
        rng = np.random.default_rng(n)
        lifts = rng.standard_normal((400, N, n + 1)) + 1j * rng.standard_normal((400, N, n + 1))
        lifts /= np.linalg.norm(lifts, axis=-1, keepdims=True)
        expected = per_step_charts(lifts, n)
        assert np.count_nonzero(expected[1:] != expected[:-1]) >= 100
        assert np.array_equal(dynamics._pick_charts(np.abs(lifts)), expected)

    def test_planar_charts_are_zeros(self):
        traj = integrate(VortexSystem.plane([0.5, -0.5], [1.0, 1.0]), 1e-3, 4)
        assert traj.charts.shape == (5, 2) and not traj.charts.any()


class TestRecordedStepCap:
    def test_rk4_steps_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 10)
        assert integrate(cp1_pair(0.5), 1e-3, 10).times.size == 11
        with pytest.raises(ConfigurationError, match="exceed the cap of 10"):
            integrate(cp1_pair(0.5), 1e-3, 11)

    def test_adaptive_run_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_RECORDED_STEPS", 30)
        with pytest.raises(NumericError, match="reached the cap of 30 recorded steps"):
            integrate(cp1_pair(0.8), 1e10, 1, method="rk45_adaptive")
        traj = integrate(cp1_pair(0.8), 1e-3, 3, method="rk45_adaptive")
        assert 2 <= traj.times.size <= 31


class TestTrajectoryStates:
    def test_states_round_trip_csv_rows(self):
        traj = integrate(cp1_pair(0.8), 1e-2, 30)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        for k, row in enumerate(rows):
            assert float(row[0]) == traj.times[k]
            for a, lift in enumerate(traj.positions[k]):
                chart = int(row[1 + 3 * a])
                w = complex(float(row[2 + 3 * a]), float(row[3 + 3 * a]))
                np.testing.assert_allclose(to_chart(ProjectivePoint(lift), chart).values, [w], rtol=1e-14)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        traj = integrate(cp1_pair(0.5), 1e-3, 5)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,chart0,x0_0,y0_0,chart1,x1_0,y1_0,H,momentum_norm,min_dist"
        assert len(lines) == 7

    def test_deterministic_bytes(self):
        out = []
        for _ in range(2):
            traj = integrate(cp1_pair(0.5), 1e-3, 20)
            buf = io.StringIO()
            write_trajectory_csv(traj, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_planar_columns(self):
        sys = VortexSystem.plane([0.5, -0.5], [1.0, 1.0])
        traj = integrate(sys, 1e-3, 2)
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        assert buf.getvalue().splitlines()[0] == "t,chart0,x0,y0,chart1,x1,y1,H,momentum_norm,min_dist"
