import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpvortex.errors import ChartDegenerateError, ConfigurationError, DimensionMismatchError
from cpvortex.geom import (
    ProjectivePoint,
    _chart_lifts,
    _chart_values,
    _default_charts,
    _random_lifts,
    _random_unitaries,
    _unit_lifts,
    from_chart,
    fubini_study_metric,
    fubini_study_potential,
    geodesic_distance_cpn,
    hermitian_inner,
    pivot_threshold,
    random_point,
    random_unitary,
    to_chart,
)
from cpvortex.verify import wirtinger_hessian


class TestHermitianInner:
    def test_unit_self_pairing(self):
        assert hermitian_inner([1, 0], [1, 0]) == 1

    def test_orthogonal_basis(self):
        assert hermitian_inner([1, 0], [0, 1]) == 0

    def test_hand_expansion(self):
        assert hermitian_inner([1, 1j], [1, 1]) == pytest.approx(1 + 1j)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert hermitian_inner(u, v) == pytest.approx(np.conj(hermitian_inner(v, u)))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_inner([1, 0], [1, 0, 0])


class TestProjectivePoint:
    def test_normalized_on_construction(self):
        p = ProjectivePoint([3.0, 4.0])
        assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-12

    def test_phase_equivalence(self):
        p = ProjectivePoint([1, 2j, -1])
        q = ProjectivePoint(np.exp(0.7j) * np.array([1, 2j, -1]))
        assert p.same_point(q)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint([0, 0, 0])

    def test_overflowing_norm_rejected(self):
        # |v|^2 overflows (or underflows) in floating point, but the normalizer scales it first,
        # so such coordinates are no longer rejected: they give their exact unit lifts
        assert np.array_equal(ProjectivePoint([1e200, 1]).coords, [1.0, 1e-200])
        assert np.array_equal(from_chart([1e200], 0).coords, [1e-200, 1.0])
        for tiny in (1e-160, 1e-200, 5e-324):
            # within rounding of (1, 1) / sqrt 2; the squared norm 2e-320 used to lose most of its digits
            assert np.max(np.abs(ProjectivePoint([tiny, tiny]).coords - 1.0 / np.sqrt(2.0))) <= 2e-16
        assert np.max(np.abs(ProjectivePoint([1e-320, 0]).coords - [1.0, 0.0])) <= 2e-16

    @pytest.mark.parametrize("coords", [[np.inf, 1], [1, np.nan], [1j * np.inf, 0], [0.0, 0.0]])
    def test_non_finite_or_zero_rejected(self, coords):
        with pytest.raises(ValueError, match="finite and nonzero"):
            ProjectivePoint(coords)

    @pytest.mark.parametrize("coords", [[1.0], 1.0, [[1.0, 0.0], [0.0, 1.0]]], ids=["length-1", "scalar", "batch"])
    def test_not_one_vector_of_length_two_or_more(self, coords):
        with pytest.raises(DimensionMismatchError, match="homogeneous coordinates need length n"):
            ProjectivePoint(coords)

    def test_same_point_across_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError, match="points live in different CP"):
            ProjectivePoint([1, 0]).same_point(ProjectivePoint([1, 0, 0]))


class TestUnitLifts:
    """geom._unit_lifts is the one normalizer of homogeneous coordinates."""

    def test_bit_identical_to_dividing_by_the_norm(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            m = int(rng.integers(2, 7))
            v = 10.0 ** rng.uniform(-100, 100) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            assert np.array_equal(_unit_lifts(v), v / np.linalg.norm(v))

    def test_a_batch_equals_its_rows(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal((40, 3, 5)) + 1j * rng.standard_normal((40, 3, 5))
        lifts = _unit_lifts(v)
        assert lifts.shape == v.shape
        assert np.array_equal(lifts.reshape(-1, 5), np.array([_unit_lifts(row) for row in v.reshape(-1, 5)]))
        assert np.array_equal(lifts[3, 1], ProjectivePoint(v[3, 1]).coords)

    def test_one_bad_vector_rejects_the_batch(self):
        v = np.ones((4, 3), dtype=complex)
        for bad in (np.nan, np.inf, 0.0):
            v[2] = [bad, 0.0, 0.0]
            with pytest.raises(ValueError, match="finite and nonzero"):
                _unit_lifts(v)

    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-170, 1e170, 1e308])
    def test_unit_and_finite_at_the_ends_of_the_range(self, scale):
        v = scale * np.array([[1.0, 1.0j, -1.0], [1.0, 0.0, 0.0], [1.0 + 1.0j, 1.0 - 1.0j, 1.0]])
        lifts = _unit_lifts(v)
        assert np.all(np.isfinite(lifts))
        assert np.max(np.abs(np.linalg.norm(lifts, axis=-1) - 1.0)) < 1e-15


class TestDistance:
    def test_points_across_dimensions_rejected(self):
        # the words of same_point, which states the same rule
        with pytest.raises(DimensionMismatchError, match=r"^points live in different CP\^n$"):
            geodesic_distance_cpn(ProjectivePoint([1, 0]), ProjectivePoint([1, 0, 0]))

    def test_identical_points(self):
        p = ProjectivePoint([1, 1j, 0.5])
        assert geodesic_distance_cpn(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_lines(self):
        p = ProjectivePoint([1, 0, 0])
        q = ProjectivePoint([0, 1, 0])
        assert geodesic_distance_cpn(p, q) == pytest.approx(np.pi / 2)

    def test_pi_over_four(self):
        # arccos(sqrt(1/2)) for the pair [1:0], [1:1]/sqrt(2)
        p = ProjectivePoint([1, 0])
        q = ProjectivePoint([1, 1])
        assert geodesic_distance_cpn(p, q) == pytest.approx(np.pi / 4, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            geodesic_distance_cpn(ProjectivePoint([1, 0]), ProjectivePoint([1, 0, 0]))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-np.pi, max_value=np.pi), st.integers(min_value=0, max_value=2**32 - 1))
    def test_phase_invariance(self, phase, seed):
        rng = np.random.default_rng(seed)
        p = random_point(2, rng)
        q = random_point(2, rng)
        d = geodesic_distance_cpn(p, q)
        q_phase = ProjectivePoint(np.exp(1j * phase) * q.coords)
        p_phase = ProjectivePoint(np.exp(-1j * phase) * p.coords)
        assert geodesic_distance_cpn(p, q_phase) == pytest.approx(d, abs=1e-12)
        assert geodesic_distance_cpn(p_phase, q) == pytest.approx(d, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            for _ in range(30):
                p, q = random_point(n, rng), random_point(n, rng)
                u = random_unitary(n + 1, rng)
                up = ProjectivePoint(u @ p.coords)
                uq = ProjectivePoint(u @ q.coords)
                assert geodesic_distance_cpn(up, uq) == pytest.approx(
                    geodesic_distance_cpn(p, q), abs=1e-10
                )

    def test_diameter_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = geodesic_distance_cpn(random_point(3, rng), random_point(3, rng))
            assert 0.0 <= d <= np.pi / 2


class TestCharts:
    def test_standard_chart(self):
        assert np.allclose(to_chart(ProjectivePoint([1, 0, 0]), 0), [0, 0])

    def test_division(self):
        assert np.allclose(to_chart(ProjectivePoint([1, 2, 3]), 0), [2, 3])

    def test_degenerate_pivot(self):
        with pytest.raises(ChartDegenerateError):
            to_chart(ProjectivePoint([0, 1, 0]), 0)

    def test_from_chart_origin(self):
        p = from_chart(np.zeros(2), 0)
        assert p.same_point(ProjectivePoint([1, 0, 0]))

    def test_from_chart_normalization(self):
        p = from_chart(np.array([2.0, 3.0]), 0)
        assert p.same_point(ProjectivePoint(np.array([1, 2, 3]) / np.sqrt(14)))

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([], DimensionMismatchError, "chart values need length n >= 1"),
            (0.5, DimensionMismatchError, "chart values need length n >= 1"),
            ([0.5, np.nan], ValueError, "chart values must be finite"),
            ([[0.5], [1j * np.inf]], ValueError, "chart values must be finite"),
        ],
        ids=["empty", "scalar", "nan", "batch-inf"],
    )
    def test_malformed_chart_values_rejected(self, values, error, message):
        with pytest.raises(error, match=message):
            from_chart(values, 0)

    @pytest.mark.parametrize("values, n", [([0.5], 1), ([0.5, 1j, 2.0], 3)])
    def test_dimension_is_the_number_of_chart_values(self, values, n):
        assert from_chart(values, 0).n == n

    def test_from_chart_takes_one_point(self):
        with pytest.raises(DimensionMismatchError, match=r"chart of one point, got values of shape \(2, 1\)"):
            from_chart([[0.5], [2.0]], 0)

    @pytest.mark.parametrize(
        "values, index, error",
        [([], -1, DimensionMismatchError), ([[np.nan]], True, ValueError), ([[0.5], [2.0]], 2, ConfigurationError)],
        ids=["length-before-finite", "finite-before-index", "index-before-one-point"],
    )
    def test_from_chart_rules_apply_in_order(self, values, index, error):
        with pytest.raises(error):
            from_chart(values, index)

    def test_from_chart_pivot_insertion(self):
        p = from_chart(np.array([5.0, 0.0]), 1)
        assert p.same_point(ProjectivePoint(np.array([5, 1, 0]) / np.sqrt(26)))

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        lifts = np.array([random_point(3, rng).coords for _ in range(50)])
        charts = _default_charts(lifts)
        a = _chart_lifts(_chart_values(lifts, charts), charts)
        overlap = np.abs(np.sum(a * lifts.conj(), axis=-1)) / np.linalg.norm(a, axis=-1)
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)
        for p, c in zip(lifts, charts):
            assert ProjectivePoint(p).same_point(from_chart(to_chart(ProjectivePoint(p), c), c), tol=1e-12)

    def test_every_point_has_a_chart(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            lifts = np.array([random_point(n, rng).coords for _ in range(200)])
            pivots = np.take_along_axis(lifts, _default_charts(lifts)[:, None], axis=1)
            assert np.all(np.abs(pivots) > pivot_threshold(n))


class TestOneChartMap:
    """to_chart and from_chart are the single-point cases of the array chart map."""

    def test_hand_values(self):
        p = ProjectivePoint([1, 2, 3])
        np.testing.assert_allclose(to_chart(p, 1), [1 / 2, 3 / 2], rtol=1e-15)
        np.testing.assert_allclose(to_chart(p, 2), [1 / 3, 2 / 3], rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_point_and_batch_agree_for_every_pivot(self, n):
        rng = np.random.default_rng(n)
        points = [random_point(n, rng) for _ in range(12)]
        lifts = np.array([p.coords for p in points]).reshape(3, 4, n + 1)
        for c in range(n + 1):
            charts = np.full((3, 4), c)
            values = _chart_values(lifts, charts)
            np.testing.assert_array_equal(_chart_lifts(values, charts)[..., c], 1.0)
            for p, w in zip(points, values.reshape(12, n)):
                np.testing.assert_array_equal(to_chart(p, c), w)
                np.testing.assert_array_equal(from_chart(w, c).coords, ProjectivePoint(_chart_lifts(w, c)).coords)
                assert from_chart(w, c).same_point(p, tol=1e-12)

    def test_batch_round_trip(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
        charts = rng.integers(0, 4, (6, 5))
        np.testing.assert_allclose(_chart_values(_chart_lifts(values, charts), charts), values, rtol=1e-15)

    def test_degenerate_pivot_on_both_paths(self):
        with pytest.raises(ChartDegenerateError):
            to_chart(ProjectivePoint([1, 0, 1]), 1)
        with pytest.raises(ChartDegenerateError):
            _chart_values(np.array([[0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]), [2, 0])

    @pytest.mark.parametrize("index", [-1, 3, True, False, 1.0, None])
    def test_bad_index_is_a_configuration_error_on_both_paths(self, index):
        p = ProjectivePoint([1, 2, 3])
        with pytest.raises(ConfigurationError, match="chart index"):
            to_chart(p, index)
        with pytest.raises(ConfigurationError, match="chart index"):
            _chart_values(np.array([p.coords, p.coords]), [index, index])
        with pytest.raises(ConfigurationError, match="chart index"):
            _chart_lifts(np.ones((2, 2)), [index, index])
        with pytest.raises(ConfigurationError, match="chart index"):
            from_chart([0.5, 1.5], index)


class TestFubiniStudyMetric:
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1j * np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fubini_study_metric(np.array([[0.5, 0.5], [bad, 0.0]]))

    def test_non_finite_values_get_the_charts_message(self):
        # the words of from_chart, which states the same rule
        with pytest.raises(ValueError, match="^chart values must be finite$"):
            fubini_study_metric([0.5, np.nan])

    def test_identity_at_origin(self):
        h = fubini_study_metric(np.zeros(2))
        assert np.allclose(h, np.eye(2))

    def test_det_at_unit_point(self):
        h = fubini_study_metric(np.array([1.0, 0.0]))
        assert np.linalg.det(h).real == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_det_identity_n3(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h = fubini_study_metric(z)
            expected = (1.0 + np.sum(np.abs(z) ** 2)) ** -4
            assert np.linalg.det(h).real == pytest.approx(expected, rel=1e-10)

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            h = fubini_study_metric(z)
            assert np.allclose(h, h.conj().T)
            assert np.min(np.linalg.eigvalsh(h)) > 0

    def test_matches_potential_hessian(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = 0.9 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            h = fubini_study_metric(z)
            fd = wirtinger_hessian(fubini_study_potential, z)
            assert np.max(np.abs(fd - h)) < 1e-5


class TestRandomLifts:
    @pytest.mark.parametrize("n, shape", [(1, (50,)), (2, (5, 4)), (3, (7,))])
    def test_a_batch_reproduces_the_random_point_stream(self, n, shape):
        # the batch, normalized, equals as many random_point calls bit for bit, and both streams stop at the same draw
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        lifts = _random_lifts(n, shape, rng)
        points = np.array([random_point(n, ref).coords for _ in range(int(np.prod(shape)))])
        assert lifts.shape == shape + (n + 1,)
        assert np.array_equal(lifts.reshape(-1, n + 1), points)
        assert rng.random() == ref.random()

    def test_random_point_is_a_normalized_complex_gaussian(self):
        # the draw random_point made before the batch sampler existed: n+1 real parts, then n+1 imaginary parts
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            v = ref.standard_normal(3) + 1j * ref.standard_normal(3)
            assert np.array_equal(random_point(2, rng).coords, ProjectivePoint(v).coords)


class TestRandomUnitaries:
    def test_random_unitary_is_the_haar_qr_of_one_gaussian(self):
        # the QR formula of the one-matrix sampler, for a fixed seed: equal bit for bit
        for m in (2, 3, 4):
            rng, ref = np.random.default_rng(m), np.random.default_rng(m)
            a = ref.standard_normal((m, m)) + 1j * ref.standard_normal((m, m))
            q, r = np.linalg.qr(a)
            assert np.array_equal(random_unitary(m, rng), q * (np.diag(r) / np.abs(np.diag(r))))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("m, shape", [(2, (7,)), (3, (4, 5)), (4, ())])
    def test_stacks_are_unitary(self, m, shape):
        u = _random_unitaries(m, shape, np.random.default_rng(23))
        assert u.shape == shape + (m, m)
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(m))) < 1e-12
