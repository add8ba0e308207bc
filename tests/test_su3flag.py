import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cpvortex.errors import DomainError, OutsideBigCellError
from cpvortex.momentum import momentum_flag_pairing
from cpvortex.su3flag import (
    FlagCoords,
    bruhat_normalize,
    exp_su3,
    flag_laplacian_coeffs,
    flag_laplacian_reference,
    flag_metric,
    flag_metric_inverse,
    flag_metric_inverse_tabulated,
    flag_symplectic_matrix,
    gell_mann,
    gell_mann_tilde,
    infinitesimal_vf,
    kahler_potential_flag,
)
from cpvortex.verify import _random_flag, spectral_exponential, vf_finite_difference, wirtinger_hessian


class TestGellMann:
    def test_lambda3(self):
        assert np.allclose(gell_mann(3), 0.5j * np.diag([1, -1, 0]))

    def test_lambda8(self):
        assert np.allclose(gell_mann(8), (0.5j / math.sqrt(3)) * np.diag([1, 1, -2]))

    def test_trace_normalization(self):
        for a in range(1, 9):
            for b in range(1, 9):
                t = np.trace(gell_mann(a) @ gell_mann(b))
                expected = -0.5 if a == b else 0.0
                assert abs(t - expected) < 1e-14

    def test_lambda1_lambda2_trace(self):
        assert abs(np.trace(gell_mann(1) @ gell_mann(2))) < 1e-14

    def test_cartan_pair_commutes(self):
        l3, l8 = gell_mann(3), gell_mann(8)
        assert np.allclose(l3 @ l8 - l8 @ l3, 0)

    def test_only_cartan_pair_commutes_with_both(self):
        l3, l8 = gell_mann(3), gell_mann(8)
        for k in (1, 2, 4, 5, 6, 7):
            lk = gell_mann(k)
            comm3 = np.linalg.norm(lk @ l3 - l3 @ lk)
            comm8 = np.linalg.norm(lk @ l8 - l8 @ lk)
            assert max(comm3, comm8) > 1e-3

    def test_role_invariants(self):
        # each lambda_k lies in su(3): anti-Hermitian and traceless, alone and as a stack
        stack = gell_mann(np.arange(1, 9))
        assert np.array_equal(stack, np.stack([gell_mann(k) for k in range(1, 9)]))
        for m in stack:
            assert np.linalg.norm(m + m.conj().T) <= 1e-12
            assert abs(np.trace(m)) <= 1e-12

    def test_index_error(self):
        origin = FlagCoords(0, 0, 0)
        calls = [
            lambda: gell_mann(9),
            lambda: gell_mann_tilde(0),
            lambda: exp_su3(9, 0.1),
            lambda: exp_su3(1.5, 0.1),  # a float index used to select the k = 8 subgroup
            lambda: exp_su3([1, 9], 0.1),
            lambda: infinitesimal_vf(0, origin),
            lambda: infinitesimal_vf([0, 2], origin),
            lambda: momentum_flag_pairing([1, 9, 2], origin),
        ]
        for call in calls:
            with pytest.raises(IndexError, match=r"k must be an integer in 1\.\.8, got "):
                call()

    def test_tilde_hermitian(self):
        for k in range(1, 9):
            t = gell_mann_tilde(k)
            assert np.allclose(t, t.conj().T)


class TestExp:
    def test_k3_diagonal(self):
        t = 0.83
        assert np.allclose(
            exp_su3(3, t), np.diag([np.exp(0.5j * t), np.exp(-0.5j * t), 1.0])
        )

    def test_k1_at_pi(self):
        expected = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 1]])
        assert np.allclose(exp_su3(1, math.pi), expected, atol=1e-15)

    @pytest.mark.parametrize("k, t", [(1, math.nan), (3, math.inf), ([2, 8], [0.1, -math.inf])])
    def test_non_finite_time_rejected(self, k, t):
        with pytest.raises(DomainError, match="t must be finite"):
            exp_su3(k, t)

    def test_identity_at_zero(self):
        for k in range(1, 9):
            assert np.allclose(exp_su3(k, 0.0), np.eye(3))

    def test_special_unitary(self):
        rng = np.random.default_rng(0)
        for k in range(1, 9):
            t = rng.uniform(-5, 5)
            u = exp_su3(k, t)
            assert np.linalg.norm(u @ u.conj().T - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_unitary_on_a_stack_of_times(self):
        t = np.concatenate([np.random.default_rng(5).uniform(-10.0, 10.0, 40), [0.0, 1e-6, 1e6, -1e6]])
        u = exp_su3(np.arange(1, 9)[:, None], t)
        assert u.shape == (8, t.size, 3, 3)
        assert np.max(np.linalg.norm(u @ u.conj().swapaxes(-1, -2) - np.eye(3), axis=(-2, -1))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_group_law(self, k, s, t):
        assert np.linalg.norm(
            exp_su3(k, s) @ exp_su3(k, t) - exp_su3(k, s + t)
        ) < 1e-12

    def test_matches_expm(self):
        rng = np.random.default_rng(2)
        for k in range(1, 9):
            t = rng.uniform(-4, 4)
            assert np.linalg.norm(exp_su3(k, t) - expm(t * gell_mann(k))) < 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_spectral_oracle_matches_expm(self, k):
        # the verify suite's exponential oracle, against SciPy's Pade scaling and squaring
        t = np.random.default_rng(k).uniform(-4, 4, 10)
        spectral = spectral_exponential(k, t)
        assert spectral.shape == (10, 3, 3)
        for tt, u in zip(t, spectral):
            assert np.linalg.norm(u - expm(tt * gell_mann(k))) < 1e-14


class TestGeneratorArrays:
    """An array of generator indices k gives the single-k results stacked along its axes, bit for bit."""

    K = np.arange(1, 9)

    def test_exp_su3(self):
        t = np.random.default_rng(23).uniform(-3.0, 3.0, 20)
        stacked = exp_su3(self.K[:, None], t)
        assert stacked.shape == (8, 20, 3, 3)
        assert np.array_equal(stacked, np.stack([exp_su3(k, t) for k in self.K]))
        assert exp_su3([[1], [3]], [0.1, 0.2, 0.3]).shape == (2, 3, 3, 3)

    def test_infinitesimal_vf(self):
        z = _random_flag(np.random.default_rng(24), shape=(100,))
        stacked = infinitesimal_vf(self.K, z)
        assert stacked.shape == (8, 100, 3)
        assert np.array_equal(stacked, np.stack([infinitesimal_vf(k, z) for k in self.K]))

    def test_spectral_exponential(self):
        t = np.random.default_rng(25).uniform(-3.0, 3.0, 20)
        stacked = spectral_exponential(self.K[:, None], t)
        assert stacked.shape == (8, 20, 3, 3)
        assert np.array_equal(stacked, np.stack([spectral_exponential(k, t) for k in self.K]))


class TestBruhat:
    def test_unitriangular_fixed_point(self):
        z = FlagCoords(1.5 - 0.5j, 2j, -0.25)
        out = bruhat_normalize(z.matrix())
        assert np.allclose(out.as_vector(), z.as_vector())

    def test_torus_action(self):
        # left translation by exp(t lambda_3) rotates the coordinates with
        # weights (-1, -1/2, 1/2); LU factorization is the oracle
        z = FlagCoords(0.3 + 0.1j, -0.2j, 0.7)
        t = 0.41
        out = bruhat_normalize(exp_su3(3, t) @ z.matrix())
        expected = np.array(
            [z.z1 * np.exp(-1j * t), z.z2 * np.exp(-0.5j * t), z.z3 * np.exp(0.5j * t)]
        )
        assert np.allclose(out.as_vector(), expected, atol=1e-14)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (3, 2)], ids=["4x2x2", "3x2"])
    def test_shape_rule(self, shape):
        with pytest.raises(DomainError) as err:
            bruhat_normalize(np.ones(shape))
        assert str(err.value) == f"expected a 3x3 matrix, got shape {shape}"

    def test_representatives_are_unit_lower_triangular(self):
        z = _random_flag(np.random.default_rng(6), shape=(4, 25))
        m = z.matrix()
        assert m.shape == (4, 25, 3, 3) and m.dtype == complex
        assert np.array_equal(m[..., [0, 0, 1], [1, 2, 2]], np.zeros((4, 25, 3)))
        assert np.array_equal(np.diagonal(m, axis1=-2, axis2=-1), np.ones((4, 25, 3)))
        assert np.array_equal(m[..., [1, 2, 2], [0, 0, 1]], z.as_vector())

    def test_zero_pivot(self):
        m = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        with pytest.raises(OutsideBigCellError):
            bruhat_normalize(m)

    def test_second_minor_failure(self):
        m = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=complex)
        with pytest.raises(OutsideBigCellError):
            bruhat_normalize(m)


def _beta(k, t, z):
    """Tabulated right-normalizers beta_k (test oracle transcription)."""
    z1, z2, z3 = z
    s, c = math.sin(t / 2), math.cos(t / 2)
    if k == 1:
        return np.array([[1 / (c + 1j * z1 * s), -1j * s, 0], [0, c + 1j * z1 * s, 0], [0, 0, 1]])
    if k == 2:
        return np.array([[1 / (z1 * s + c), -s, 0], [0, z1 * s + c, 0], [0, 0, 1]])
    if k == 3:
        return np.diag([np.exp(0.5j * t), np.exp(-0.5j * t), 1.0])
    if k == 4:
        d = -z2 * s + z1 * z3 * s + 1j * c
        return np.array(
            [
                [1 / (c + 1j * z2 * s), z3 * s / d, -1j * s],
                [0, 1 - z1 * z3 * s / d, 1j * z1 * s],
                [0, 0, c + 1j * (z2 - z1 * z3) * s],
            ]
        )
    if k == 5:
        d = z2 * s - z1 * z3 * s + c
        return np.array(
            [
                [1 / (z2 * s + c), -z3 * s / d, -s],
                [0, (z2 * s + c) / d, z1 * s],
                [0, 0, d],
            ]
        )
    if k == 6:
        cot = c / s
        return np.array(
            [[1, 0, 0], [0, 1 / (c + 1j * z3 * s), -1j / (s + c * cot)], [0, 0, c + 1j * z3 * s]]
        )
    if k == 7:
        cot = c / s
        return np.array(
            [[1, 0, 0], [0, 1 / (z3 * s + c), -1 / (s + c * cot)], [0, 0, z3 * s + c]]
        )
    w = 0.5j * t / math.sqrt(3)
    return np.diag([np.exp(-w), np.exp(-w), np.exp(2 * w)])


# k=3 is skip-listed: its tabulated beta_3 has sign-flipped exponents;
# LU normalization (test_torus_action above) gives z1 -> z1 exp(-it), which
# requires the inverse diagonal.
@pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 7, 8])
def test_beta_normalizer_triangularizes(k):
    rng = np.random.default_rng(10 + k)
    for _ in range(5):
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        t = rng.uniform(0.05, 0.3)
        zmat = FlagCoords(*z).matrix()
        e = exp_su3(k, t) @ zmat @ _beta(k, t, z)
        assert np.max(np.abs(np.triu(e, 1))) < 1e-12
        assert np.max(np.abs(np.diag(e) - 1.0)) < 1e-12


class TestInfinitesimalVF:
    def test_k3_formula(self):
        z = FlagCoords(0.2 + 0.3j, -0.4, 1.1j)
        expected = 0.5j * np.array([-2 * z.z1, -z.z2, z.z3])
        assert np.allclose(infinitesimal_vf(3, z), expected)

    def test_k1_at_origin(self):
        assert np.allclose(infinitesimal_vf(1, FlagCoords(0, 0, 0)), [0.5j, 0, 0])

    def test_k8_at_origin(self):
        assert np.allclose(infinitesimal_vf(8, FlagCoords(0, 0, 0)), [0, 0, 0])

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        z = _random_flag(rng, 1.5, (100,))
        worst = 0.0
        for k in range(1, 9):
            fd = vf_finite_difference(k, z)
            worst = max(worst, float(np.max(np.abs(fd - infinitesimal_vf(k, z)))))
        assert worst < 1e-6


class TestPotentialAndMetric:
    def test_potential_at_origin(self):
        assert kahler_potential_flag(FlagCoords(0, 0, 0)) == 0.0

    def test_potential_e1(self):
        # K1 = 2, K2 = 1 + |1*0 - 0|^2 = 1
        assert kahler_potential_flag(FlagCoords(1, 0, 0)) == pytest.approx(math.log(2.0))

    def test_potential_e3(self):
        assert kahler_potential_flag(FlagCoords(0, 0, 1)) == pytest.approx(math.log(2.0))

    def test_potential_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            assert kahler_potential_flag(_random_flag(rng, 3.0)) >= 0.0

    def test_k_factors_at_least_one(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            z = _random_flag(rng, 3.0)
            assert z.K1 >= 1.0 and z.K2 >= 1.0

    def test_metric_at_origin(self):
        assert np.allclose(flag_metric(FlagCoords(0, 0, 0)), np.diag([1.0, 2.0, 1.0]))

    def test_determinant_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = _random_flag(rng)
            det = np.linalg.det(flag_metric(z)).real
            assert det == pytest.approx(2.0 / (z.K1**2 * z.K2**2), rel=1e-10)

    def test_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            z = _random_flag(rng, 3.0)
            assert np.min(np.linalg.eigvalsh(flag_metric(z))) > 0.0

    def test_metric_is_potential_hessian(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = _random_flag(rng)
            fd = wirtinger_hessian(
                lambda v: kahler_potential_flag(FlagCoords(v[..., 0], v[..., 1], v[..., 2])), z.as_vector()
            )
            assert np.max(np.abs(fd - flag_metric(z))) < 1e-5


def squared_k_metric(z):
    """The reference formula of flag_metric over K1^2 and K2^2, which overflow once a coordinate nears 1e77."""
    z1, z2, z3 = z.z1, z.z2, z.z3
    c1, c2 = z1.conjugate(), z2.conjugate()
    K1sq, K2sq = z.K1**2, z.K2**2
    a3 = abs(z3) ** 2
    h11 = (1 + abs(z2) ** 2) / K1sq + a3 * (1 + a3) / K2sq
    h12 = -c1 * z2 / K1sq - z3 * (1 + a3) / K2sq
    h13 = z3 * (c1 + c2 * z3) / K2sq
    h22 = (1 + abs(z1) ** 2) / K1sq + (1 + a3) / K2sq
    h23 = -(c1 + c2 * z3) / K2sq
    h33 = z.K1 / K2sq
    return np.moveaxis(np.array([[h11, h12, h13], [np.conj(h12), h22, h23], [np.conj(h13), np.conj(h23), h33]]), (0, 1), (-2, -1))


class TestMetricWithoutSquaredK:
    """flag_metric divides by K1 and K2 twice instead of by K1^2 and K2^2."""

    def test_agrees_with_the_squared_k_formula(self):
        z = _random_flag(np.random.default_rng(24), shape=(1000,))
        h, ref = flag_metric(z), squared_k_metric(z)
        assert np.all(np.linalg.norm(h - ref, axis=(-2, -1)) <= 1e-15 * np.linalg.norm(ref, axis=(-2, -1)))

    def test_h12_of_a_large_point(self):
        # K1^2 = 1e400 is no double, but h12 = -conj(z1) z2 / K1^2 = -1e-300 is
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = flag_metric(FlagCoords(1e100, 1, 0))
        assert h[0, 1] == pytest.approx(-1e-300, rel=1e-15, abs=0)

    def test_coordinates_up_to_1e150(self):
        rng = np.random.default_rng(25)
        # magnitudes 10^a, 10^b, 10^c with a + c <= 150 keep K1 and K2 finite
        a, b = rng.uniform(0.0, 150.0, (2, 200))
        c = rng.uniform(0.0, 1.0, 200) * (150.0 - a)
        phases = np.exp(2j * np.pi * rng.uniform(size=(3, 200)))
        z = FlagCoords(*(phases * 10.0 ** np.array([a, b, c])))
        points = [FlagCoords(1e150, 1, 0), FlagCoords(1e150, 1e150, 0), FlagCoords(0, 1e150, 1e150)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch, singles = flag_metric(z), [flag_metric(p) for p in points + single_points(z)]
        assert np.isfinite(batch).all() and all(np.isfinite(h).all() for h in singles)
        # K2 of a batch and of its points differ by up to 5e-16 relative at these magnitudes, and h divides by it twice
        assert_matches_points(batch, singles[len(points):], rel=1e-14)
        # at (1e150, 1, 0): K1 = 1e300 and K2 = 2
        assert singles[0][2, 2] == pytest.approx(2.5e299, rel=1e-15) and singles[0][1, 2] == pytest.approx(-2.5e149, rel=1e-15)


class TestInverse:
    def test_at_origin(self):
        assert np.allclose(flag_metric_inverse(FlagCoords(0, 0, 0)), np.diag([1.0, 0.5, 1.0]))

    def test_defining_property(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = _random_flag(rng)
            prod = flag_metric(z) @ flag_metric_inverse(z)
            assert np.max(np.abs(prod - np.eye(3))) < 1e-10

    def test_tabulated_inverse_is_twice_inverse_at_origin(self):
        z = FlagCoords(0, 0, 0)
        assert np.allclose(flag_metric_inverse_tabulated(z), 2.0 * flag_metric_inverse(z))
        assert np.allclose(flag_metric_inverse_tabulated(z), np.diag([2.0, 1.0, 2.0]))

    def test_tabulated_inverse_factor_two_where_consistent(self):
        # all entries except (3,1) and (3,3) are exactly twice the numeric
        # inverse; those two carry their own slips and stay report-only
        clean = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)]
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = _random_flag(rng)
            printed = flag_metric_inverse_tabulated(z)
            inv = flag_metric_inverse(z)
            for i, j in clean:
                if abs(inv[i, j]) > 1e-9:
                    assert printed[i, j] / inv[i, j] == pytest.approx(2.0, abs=1e-8)


class TestSymplecticMatrix:
    def test_at_origin(self):
        w = flag_symplectic_matrix(FlagCoords(0, 0, 0))
        d = np.diag([1.0, 2.0, 1.0])
        expected = np.block([[np.zeros((3, 3)), -d], [d, np.zeros((3, 3))]])
        assert np.allclose(w, expected)

    def test_antisymmetric(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = flag_symplectic_matrix(_random_flag(rng))
            assert np.linalg.norm(w + w.T) < 1e-12

    def test_nondegenerate(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            assert abs(np.linalg.det(flag_symplectic_matrix(_random_flag(rng)))) > 0.0

    def test_det_at_origin(self):
        w = flag_symplectic_matrix(FlagCoords(0, 0, 0))
        assert np.linalg.det(w) == pytest.approx(4.0, rel=1e-12)


class TestLaplacian:
    def test_z3z3_coefficient_at_origin(self):
        c = flag_laplacian_coeffs(FlagCoords(0, 0, 0))
        assert c[2, 2] == pytest.approx(2.0)

    def test_fiber_cross_terms_vanish_at_origin(self):
        c = flag_laplacian_coeffs(FlagCoords(0, 0, 0))
        assert abs(c[0, 2]) == 0.0
        assert abs(c[1, 2]) == 0.0
        assert abs(c[2, 0]) == 0.0
        assert abs(c[2, 1]) == 0.0

    def test_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            c = flag_laplacian_coeffs(_random_flag(rng))
            assert np.max(np.abs(c - c.conj().T)) < 1e-12

    def test_reference_gap_is_reported_not_asserted(self):
        # the coefficient table and 2 h^{ji} genuinely differ; just make sure
        # both evaluate and the gap is finite
        rng = np.random.default_rng(13)
        z = _random_flag(rng)
        gap = np.max(np.abs(flag_laplacian_coeffs(z) - flag_laplacian_reference(z)))
        assert np.isfinite(gap)


def assert_matches_points(batch, per_point, rel=1e-15):
    """A batch result (M, ...) equals the stacked per-point results, normwise per point."""
    single = np.array(per_point).reshape(len(per_point), -1)
    gap = np.max(np.abs(np.reshape(batch, single.shape) - single), axis=1)
    assert np.all(gap <= rel * np.max(np.abs(single), axis=1))


def single_points(z):
    return [FlagCoords(a, b, c) for a, b, c in zip(z.z1, z.z2, z.z3)]


class TestBatches:
    """Every closed form takes a batch of points; a single point is the shape-() case."""

    @pytest.fixture
    def batch(self):
        return _random_flag(np.random.default_rng(20), shape=(200,))

    def test_single_point_is_shape_empty(self):
        z = FlagCoords(0.3, -0.2j, 1.0)
        assert z.shape == () and isinstance(z.z1, complex) and isinstance(z.K1, float)
        assert flag_metric(z).shape == (3, 3) and z.real_coords().shape == (6,)

    def test_coordinates_and_factors(self, batch):
        assert batch.shape == (200,)
        assert batch.as_vector().shape == (200, 3) and batch.real_coords().shape == (200, 6)
        points = single_points(batch)
        assert_matches_points(np.stack([batch.K1, batch.K2], axis=-1), [(p.K1, p.K2) for p in points])

    @pytest.mark.parametrize("form", [flag_metric, flag_symplectic_matrix, kahler_potential_flag])
    def test_closed_form_matches_per_point(self, batch, form):
        assert_matches_points(form(batch), [form(p) for p in single_points(batch)])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_generator_field_matches_per_point(self, batch, k):
        assert_matches_points(infinitesimal_vf(k, batch), [infinitesimal_vf(k, p) for p in single_points(batch)])

    def test_bruhat_normalize_matches_per_point(self, batch):
        g = exp_su3(5, 0.7) @ exp_su3(1, -0.4)
        moved = g @ batch.matrix()
        assert_matches_points(
            bruhat_normalize(moved).as_vector(), [bruhat_normalize(m).as_vector() for m in moved]
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_exp_su3_matches_per_time(self, k):
        t = np.random.default_rng(22).uniform(-3.0, 3.0, 50)
        assert_matches_points(exp_su3(k, t), [exp_su3(k, s) for s in t])

    def test_coordinates_broadcast_to_one_shape(self):
        z = FlagCoords(np.array([0.1, 0.2, 0.3]), 0.5j, np.ones((2, 1)))
        assert z.shape == (2, 3) and z.K1.shape == z.K2.shape == (2, 3)
        for coord, expected in zip((z.z1, z.z2, z.z3), ([[0.1, 0.2, 0.3]] * 2, np.full((2, 3), 0.5j), np.ones((2, 3)))):
            assert np.array_equal(coord, expected) and not coord.flags.writeable
        with pytest.raises(DomainError, match="flag coordinates must broadcast to one shape"):
            FlagCoords(np.zeros(3), np.zeros(2), 0.0)

    def test_non_finite_point_rejects_batch(self, batch):
        z2 = np.array(batch.z2)
        z2[117] = complex(np.nan, 0.0)
        with pytest.raises(DomainError):
            FlagCoords(batch.z1, z2, batch.z3)

    @pytest.mark.parametrize("point", [(1e308, 0, 0), (0, 1e155, 0), (1e200, 0, 1e200)])
    def test_overflowing_K_rejects_point_and_batch(self, batch, point):
        # K1 or K2 overflows although every coordinate is finite; no NumPy warning escapes
        with pytest.raises(DomainError, match="flag coordinates too large"):
            FlagCoords(*point)
        coords = [np.array(z) for z in (batch.z1, batch.z2, batch.z3)]
        for z, value in zip(coords, point):
            z[57] = value
        with pytest.raises(DomainError, match="flag coordinates too large"):
            FlagCoords(*coords)

    def test_point_outside_big_cell_rejects_batch(self, batch):
        m = np.array(batch.matrix())
        m[42] = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        with pytest.raises(OutsideBigCellError):
            bruhat_normalize(m)

