import math
import re

import numpy as np
import pytest

from cpvortex import greens
from cpvortex.dynamics import VortexSystem, hamiltonian_cpn
from cpvortex.errors import DomainError, OracleError, SingularityError
from cpvortex.geom import AffineChart, ProjectivePoint, from_chart, fubini_study_metric, geodesic_distance_cpn
from cpvortex.greens import (
    DIAMETER,
    cpn_volume,
    greens_cpn,
    greens_cpn_derivative,
    greens_ode_oracle,
    greens_plane,
    greens_radial_part,
    volume_density_cpn,
)


class TestVolumeDensity:
    def test_n1_quarter_pi(self):
        # 2 sin(pi/4) cos(pi/4) = sin(pi/2) = 1
        assert volume_density_cpn(1, math.pi / 4) == pytest.approx(1.0, rel=1e-14)

    def test_vanishes_at_diameter(self):
        assert volume_density_cpn(1, math.pi / 2 - 1e-8) < 1e-7

    def test_n2_quarter_pi(self):
        assert volume_density_cpn(2, math.pi / 4) == pytest.approx(8.0 / math.pi, rel=1e-14)

    def test_positive_on_open_interval(self):
        for n in (1, 2, 3):
            for r in np.linspace(0.01, math.pi / 2 - 0.01, 50):
                assert volume_density_cpn(n, r) > 0

    @pytest.mark.parametrize("r", [0.0, -0.1, math.pi / 2, 2.0])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            volume_density_cpn(2, r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_defining_ode_gives_the_derivative(self, n):
        # phi'(r) = -1/(r^{n-1} V(r) vol) * integral_r^{pi/2} t^{n-1} V(t) dt, the inner
        # integral by a 60-point Gauss-Legendre rule on V alone: no closed form of it enters
        nodes, weights = np.polynomial.legendre.leggauss(60)
        for r in (0.05, 0.3, 0.8, 1.3, 1.5):
            half = 0.5 * (math.pi / 2 - r)
            ts = r + half * (nodes + 1.0)
            inner = half * sum(w * t ** (n - 1) * volume_density_cpn(n, t) for t, w in zip(ts, weights))
            phi = -inner / (r ** (n - 1) * volume_density_cpn(n, r) * cpn_volume(n))
            assert phi == pytest.approx(greens_cpn_derivative(n, r), rel=1e-12)


class TestGreensCpn:
    def test_volume_and_diameter(self):
        assert cpn_volume(2) == pytest.approx(math.pi**2 / 2)
        assert DIAMETER == math.pi / 2

    def test_bad_n(self):
        with pytest.raises(DomainError):
            greens_cpn(0, 1.0)

    def test_largest_n(self):
        # MAX_N is the last n whose normalization is a double; above it, DomainError instead of OverflowError
        assert math.isfinite(greens.greens_constant(greens.MAX_N))
        with pytest.raises(OverflowError):
            cpn_volume(greens.MAX_N + 1)
        for f in (greens_cpn, greens_cpn_derivative):
            with pytest.raises(DomainError, match=f"n must be at most {greens.MAX_N}"):
                f(greens.MAX_N + 1, 1.0)

    def test_n1_at_diameter(self):
        assert greens_cpn(1, math.pi / 2) == 0.0

    def test_n2_at_diameter(self):
        assert greens_cpn(2, math.pi / 2) == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-14)

    def test_n1_quarter_pi(self):
        assert greens_cpn(1, math.pi / 4) == pytest.approx(math.log(2.0) / (4.0 * math.pi), rel=1e-14)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            greens_cpn(2, 0.0)

    def test_beyond_diameter(self):
        with pytest.raises(DomainError):
            greens_cpn(2, 1.6)

    @pytest.mark.parametrize("f", [greens_cpn, greens_cpn_derivative])
    @pytest.mark.parametrize("r", [math.nan, [0.5, math.nan, 1.0]])
    def test_nan_distance_is_a_domain_error(self, f, r):
        # NaN fails both r > 0 and r <= pi/2; it used to pass both one-sided checks and return NaN
        with pytest.raises(DomainError, match="nan"):
            f(2, r)

    def test_singularity_is_reported_before_the_domain(self):
        with pytest.raises(SingularityError):
            greens_cpn(2, [1.6, math.nan, 0.0])

    def test_blows_up_towards_zero(self):
        for n in (1, 2, 3, 4):
            assert greens_cpn(n, 1e-6) > greens_cpn(n, 1e-3) > greens_cpn(n, 0.1)

    def test_strictly_decreasing(self):
        for n in (1, 2, 3, 4):
            vals = [greens_cpn(n, r) for r in np.linspace(0.02, math.pi / 2, 300)]
            assert np.all(np.diff(vals) < 0)


class TestDimensionRule:
    """greens._check_n is the one rule of n: an integer in 1..MAX_N, never a bool, else DomainError."""

    @staticmethod
    def basis_lifts(n):
        # two orthogonal unit lifts of CP^n, at the diameter pi/2 from each other
        return np.eye(2, n + 1, dtype=complex)

    def test_largest_n_is_served(self):
        n = greens.MAX_N
        assert math.isfinite(greens.greens_constant(n))
        assert math.isfinite(greens_cpn(n, DIAMETER)) and math.isfinite(greens_cpn_derivative(n, DIAMETER))
        system = VortexSystem.cpn(self.basis_lifts(n), [1.0, -1.0])
        assert system.n == n and math.isfinite(hamiltonian_cpn(system))

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: greens.greens_constant(n),
            lambda n: greens_cpn(n, DIAMETER),
            lambda n: greens_cpn_derivative(n, DIAMETER),
            lambda n: VortexSystem.cpn(TestDimensionRule.basis_lifts(n), [1.0, -1.0]),
        ],
        ids=["greens_constant", "greens_cpn", "greens_cpn_derivative", "VortexSystem.cpn"],
    )
    def test_above_the_bound_is_rejected(self, call):
        with pytest.raises(DomainError, match=f"^n must be at most {greens.MAX_N}: .*; got {greens.MAX_N + 1}$"):
            call(greens.MAX_N + 1)

    @pytest.mark.parametrize("n", [0, -1, True, False, 1.5, 2.0, "2", None])
    def test_greens_constant_needs_a_positive_integer(self, n):
        # 0 divided by zero, -1 raised a bare ValueError and True returned C_1
        with pytest.raises(DomainError, match=f"^n must be an integer >= 1, got {re.escape(repr(n))}$"):
            greens.greens_constant(n)

    @pytest.mark.parametrize("n", [True, 0, -1, 1.0])
    def test_vortex_system_asks_the_rule(self, n):
        with pytest.raises(DomainError, match="^n must be an integer >= 1"):
            VortexSystem("cpn", self.basis_lifts(1), [1.0, -1.0], n=n)

    def test_numpy_integers_are_integers(self):
        assert greens.greens_constant(np.int64(2)) == greens.greens_constant(2)
        assert VortexSystem("cpn", self.basis_lifts(2), [1.0, -1.0], n=np.int64(2)).n == 2


class TestOdeOracle:
    def test_degenerate_interval(self):
        assert greens_ode_oracle(3, 0.7, 0.7) == 0.0

    def test_n1_quarter_to_half_pi(self):
        val = greens_ode_oracle(1, math.pi / 4, math.pi / 2 - 1e-12)
        assert val == pytest.approx(-math.log(2.0) / (4.0 * math.pi), abs=1e-9)

    def test_matches_closed_form_differences(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                a, b = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, 2))
                if b - a < 1e-4:
                    continue
                closed = greens_cpn(n, b) - greens_cpn(n, a)
                assert greens_ode_oracle(n, a, b) == pytest.approx(closed, abs=1e-8)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            greens_ode_oracle(2, 0.9, 0.2)


class TestDerivative:
    def test_antiderivative_relation(self):
        # numeric derivative of the radial profile matches its integrand
        h = 1e-6
        for n in (1, 2, 3, 4):
            for r in np.linspace(0.1, 1.4, 20):
                fd = (greens_radial_part(n, r + h) - greens_radial_part(n, r - h)) / (2 * h)
                s, c = math.sin(r), math.cos(r)
                integrand = (1 - s ** (2 * n)) / (s ** (2 * n - 1) * c)
                assert fd == pytest.approx(integrand, rel=1e-6)

    def test_negative_everywhere(self):
        for n in (1, 2, 3):
            for r in np.linspace(0.05, math.pi / 2 - 0.05, 40):
                assert greens_cpn_derivative(n, r) < 0

    def test_zero_limit_at_diameter(self):
        assert abs(greens_cpn_derivative(2, math.pi / 2)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flux_through_geodesic_sphere(self, n):
        # Gauss's law: the flux of grad G through the geodesic sphere of radius r is
        # -1 from the point source plus the background 1/vol(CP^n) times the ball's
        # volume pi^n sin^{2n} r / n!, whose r-derivative is the sphere's area
        for r in (1e-3, 0.3, 0.8, 1.3):
            s = math.sin(r)
            area = 2.0 * math.pi**n * s ** (2 * n - 1) * math.cos(r) / math.factorial(n - 1)
            assert area * greens_cpn_derivative(n, r) == pytest.approx(-(1.0 - s ** (2 * n)), abs=1e-12)


class TestLaplaceBeltrami:
    """Normalization oracle: vol(CP^n) Delta F = 1 away from the pole.

    Delta F = (1/sqrt g) d_a (sqrt g g^{ab} d_b F) by nested central
    differences in the real coordinates (x_1..x_n, y_1..y_n) of chart 0,
    with g the real part of the Fubini-Study Hermitian form.  It takes only
    values of F, so no closed-form derivative enters.
    """

    STEP = 1e-4

    @staticmethod
    def metric(basis, w):
        # g_ab = Re(e_a^T h conj(e_b)) for the complex directions e_a of the real coordinates
        return (basis @ fubini_study_metric(w) @ basis.conj().T).real

    def laplacian(self, f, w0):
        h = self.STEP
        basis = np.concatenate([np.eye(w0.size), 1j * np.eye(w0.size)])

        def flux(w, a):
            g = self.metric(basis, w)
            grad = np.array([(f(w + h * e) - f(w - h * e)) / (2.0 * h) for e in basis])
            return math.sqrt(np.linalg.det(g)) * np.linalg.solve(g, grad)[a]

        div = sum((flux(w0 + h * e, a) - flux(w0 - h * e, a)) / (2.0 * h) for a, e in enumerate(basis))
        return div / math.sqrt(np.linalg.det(self.metric(basis, w0)))

    @staticmethod
    def pole_and_point(n, r, rng):
        """A pole p near the chart-0 origin and chart-0 coordinates of a point at distance r from it."""
        a = np.concatenate([[1.0], 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))])
        a /= np.linalg.norm(a)
        t = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        t -= np.vdot(a, t) * a
        b = math.cos(r) * a + math.sin(r) * t / np.linalg.norm(t)
        return ProjectivePoint(a), b[1:] / b[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_green_and_pair_hamiltonian(self, n):
        rng = np.random.default_rng(n)
        for r in (0.3, 0.8, 1.3):
            p, w0 = self.pole_and_point(n, r, rng)
            assert geodesic_distance_cpn(p, from_chart(AffineChart(0, w0))) == pytest.approx(r, rel=1e-12)

            def green(w):
                return greens_cpn(n, geodesic_distance_cpn(p, from_chart(AffineChart(0, w))))

            def pair_energy(w):
                return hamiltonian_cpn(VortexSystem.cpn([p, from_chart(AffineChart(0, w))], [1.0, 1.0]))

            assert cpn_volume(n) * self.laplacian(green, w0) == pytest.approx(1.0, rel=1e-2)
            assert cpn_volume(n) * self.laplacian(pair_energy, w0) == pytest.approx(1.0, rel=1e-2)


class TestPlane:
    def test_unit_distance(self):
        assert greens_plane([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_distance_e(self):
        assert greens_plane([0.0, 0.0], [math.e, 0.0]) == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert greens_plane(x, y) == greens_plane(y, x)

    def test_coincident(self):
        with pytest.raises(SingularityError):
            greens_plane([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("x, y", [([0.0, 0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [[1.0, 0.0]]), (0.0, [1.0, 0.0])])
    def test_points_must_be_length_two_vectors(self, x, y):
        with pytest.raises(DomainError, match="plane points must be length-2 real vectors"):
            greens_plane(x, y)


class TestBatches:
    """The closed forms are elementwise in r and the oracle in its intervals; a batch equals its scalar calls."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_matches_scalar_calls(self, n):
        rng = np.random.default_rng(n)
        a, b = np.sort(rng.uniform(0.05, math.pi / 2 - 0.05, (2, 50)), axis=0)
        b[:5] = a[:5]  # empty intervals give 0 inside a batch too
        batch = greens_ode_oracle(n, a, b)
        assert batch.shape == (50,)
        scalar = np.array([greens_ode_oracle(n, x, y) for x, y in zip(a, b)])
        assert np.all(batch[:5] == 0.0)
        np.testing.assert_allclose(batch, scalar, rtol=1e-15, atol=0.0)

    def test_oracle_broadcasts(self):
        a = np.array([[0.1], [0.2]])
        b = np.array([0.5, 0.9, 1.3])
        out = greens_ode_oracle(2, a, b)
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(greens_ode_oracle(2, 0.2, 1.3), rel=1e-15)

    def test_oracle_unreachable_target(self, monkeypatch):
        monkeypatch.setattr(greens, "_ODE_ORACLE_TARGET", 1e-20)
        with pytest.raises(OracleError) as info:
            greens_ode_oracle(3, np.array([0.3, 0.05]), np.array([0.9, 1.2]))
        assert info.value.achieved > 1e-18

    def test_oracle_subinterval_limit(self, monkeypatch):
        monkeypatch.setattr(greens, "_ODE_ORACLE_LIMIT", 2)
        with pytest.raises(OracleError, match="more than 2 subintervals"):
            greens_ode_oracle(4, np.array([0.5, 0.05]), np.array([0.6, 1.2]))

    def test_oracle_rejects_any_bad_interval(self):
        a = np.array([0.1, 0.2, 0.9])
        b = np.array([0.5, 0.6, 0.2])
        with pytest.raises(DomainError):
            greens_ode_oracle(2, a, b)

    @pytest.mark.parametrize("f", [greens_cpn, greens_cpn_derivative])
    def test_closed_forms_match_scalar_calls(self, f):
        r = np.linspace(0.01, math.pi / 2, 200)
        for n in (1, 2, 3, 4):
            batch = f(n, r)
            assert batch.shape == r.shape
            scalar = np.array([f(n, x) for x in r])
            np.testing.assert_allclose(batch, scalar, rtol=1e-15, atol=0.0)
            assert isinstance(f(n, 0.7), float)

    @pytest.mark.parametrize("f", [greens_cpn, greens_cpn_derivative])
    @pytest.mark.parametrize("bad, error", [(0.0, SingularityError), (-0.2, SingularityError), (1.6, DomainError)])
    def test_closed_forms_reject_any_bad_element(self, f, bad, error):
        r = np.linspace(0.1, 1.5, 9)
        r[4] = bad
        with pytest.raises(error):
            f(2, r)
