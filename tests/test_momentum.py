import math

import numpy as np
import pytest

from cpvortex import geom, momentum
from cpvortex.dynamics import VortexSystem, _momentum_sum
from cpvortex.errors import ConfigurationError, DomainError
from cpvortex.geom import ProjectivePoint, random_point
from cpvortex.momentum import (
    defining_equation_defect,
    momentum_cp2,
    momentum_cp2_equivariance_check,
    momentum_cpn,
    momentum_flag,
    momentum_flag_pairing,
    momentum_flag_tabulated,
    weighted_momentum,
)
from cpvortex.su3flag import FlagCoords, exp_su3, flag_symplectic_matrix, infinitesimal_vf
from cpvortex.verify import _random_flag


def bound(m):
    """1e-12 max(1, ||m||_F) for every matrix of the stack m (..., k, k)."""
    return 1e-12 * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))


def assert_traceless(m):
    assert np.all(np.abs(np.trace(m, axis1=-2, axis2=-1)) <= bound(m))


def assert_hermitian_traceless(m):
    # relative above norm 1: a weighted sum with strength 1e6 is Hermitian to about 1e-10 absolute
    assert np.all(np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1)) <= bound(m))
    assert_traceless(m)


def assert_antihermitian_traceless(m):
    """m* = -m exactly and the trace bound, for every matrix of the stack m."""
    assert np.array_equal(m.conj().swapaxes(-1, -2), -m)
    assert_traceless(m)


class TestMomentumCp2:
    def test_basis_point(self):
        m = momentum_cp2(ProjectivePoint([1, 0, 0]))
        assert np.allclose(m, np.diag([2 / 3, -1 / 3, -1 / 3]))

    def test_balanced_point(self):
        m = momentum_cp2(ProjectivePoint([1, 1, 1]))
        assert np.allclose(np.diag(m), 0.0, atol=1e-15)
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1 / 3)

    def test_spectrum(self):
        rng = np.random.default_rng(0)
        target = np.array([-1 / 3, -1 / 3, 2 / 3])
        for _ in range(300):
            ev = np.linalg.eigvalsh(momentum_cp2(random_point(2, rng)))
            assert np.max(np.abs(np.sort(ev) - target)) < 1e-10

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(1)
        m = momentum_cp2(random_point(2, rng))
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-14

    def test_cp1_spectrum(self):
        # the generalization v v* - I/(n+1) has spectrum {-1/2, 1/2} on CP^1
        rng = np.random.default_rng(13)
        for _ in range(50):
            ev = np.linalg.eigvalsh(momentum_cpn(random_point(1, rng)))
            assert np.allclose(np.sort(ev), [-0.5, 0.5], atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            momentum_cp2(np.array([1.0, 1.0, 0.0]))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DomainError):
            momentum_cp2(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("v", [np.array([1.0]), np.array(1.0), np.ones((4, 1))], ids=["length-1", "scalar", "stack"])
    def test_momentum_cpn_needs_two_coordinates(self, v):
        with pytest.raises(DomainError, match="expected homogeneous coordinates of length n"):
            momentum_cpn(v)


class TestEquivariance:
    def test_identity(self):
        rng = np.random.default_rng(2)
        assert momentum_cp2_equivariance_check(random_point(2, rng), np.eye(3)) == 0.0

    def test_exponential_factors(self):
        # products of five subgroup factors exp(t lambda_k), k in 1..8 and t uniform in [-2, 2]
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_point(2, rng)
            u = np.eye(3, dtype=complex)
            for _ in range(5):
                u = u @ exp_su3(int(rng.integers(1, 9)), float(rng.uniform(-2.0, 2.0)))
            assert momentum_cp2_equivariance_check(p, u) < 1e-10

    def test_torus_fixes_basis_point(self):
        # diagonal conjugation fixes the diagonal momentum value
        theta = 0.9
        u = np.diag([np.exp(1j * theta), np.exp(-1j * theta), 1.0])
        defect = momentum_cp2_equivariance_check(ProjectivePoint([1, 0, 0]), u)
        assert defect < 1e-15

    def test_nonunitary_rejected(self):
        with pytest.raises(DomainError):
            momentum_cp2_equivariance_check(ProjectivePoint([1, 0, 0]), 2.0 * np.eye(3))

    def test_determinant_other_than_one_rejected(self):
        # unitary, with determinant i: in U(3) but not in SU(3)
        with pytest.raises(DomainError, match="expected determinant 1"):
            momentum_cp2_equivariance_check(ProjectivePoint([1, 0, 0]), np.diag([1j, 1.0, 1.0]))


class TestMomentumFlag:
    def test_at_origin(self):
        m = momentum_flag(FlagCoords(0, 0, 0))
        assert np.allclose(m, np.diag([0.5j, 0.0, -0.5j]))

    def test_offdiagonal_vanishes_at_origin(self):
        m = momentum_flag(FlagCoords(0, 0, 0))
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0

    def test_antihermitian_traceless(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = momentum_flag(_random_flag(rng))
            assert np.linalg.norm(m + m.conj().T) < 1e-14
            assert abs(np.trace(m)) < 1e-14

    def test_equivariance_under_group_action(self):
        # mu(g Z) = g mu(Z) g* with g Z re-normalized into the big cell
        from cpvortex.su3flag import bruhat_normalize

        rng = np.random.default_rng(5)
        for _ in range(50):
            z = _random_flag(rng)
            k = int(rng.integers(1, 9))
            g = exp_su3(k, float(rng.uniform(-1.5, 1.5)))
            moved = bruhat_normalize(g @ z.matrix())
            lhs = momentum_flag(moved)
            rhs = g @ momentum_flag(z) @ g.conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestOneKernel:
    """momentum_cpn is the unit-weight one-vortex case of the weighted kernel, and each map validates its input once."""

    @pytest.mark.parametrize("shape, n", [((), 2), ((1000,), 2), ((4, 5), 3), ((10,), 1)])
    def test_momentum_cpn_is_the_one_vortex_sum(self, shape, n):
        v = np.array([random_point(n, np.random.default_rng(k)).coords for k in range(int(np.prod(shape)))])
        v = v.reshape(shape + (n + 1,))
        expected = _momentum_sum(v[..., None, :], np.ones(shape + (1,)))
        assert np.max(np.abs(momentum_cpn(v) - expected)) <= 1e-15
        outer = v[..., :, None] * v.conj()[..., None, :] - np.eye(n + 1) / (n + 1)
        assert np.max(np.abs(momentum_cpn(v) - outer)) <= 1e-15

    @pytest.mark.parametrize("offset", [5e-11, -5e-11, 0.9e-10, -0.9e-10])
    def test_lifts_the_unit_rule_accepts(self, offset):
        # a lift within 1e-10 of unit norm has the traceless value v v* - (|v|^2/(n+1)) I, and is not rejected
        def mu(v):
            return np.outer(v, v) - (v @ v / v.size) * np.eye(v.size)

        v, w = np.array([1.0 + offset, 0.0, 0.0]), np.array([0.6, 0.8])
        assert np.max(np.abs(momentum_cpn(v[:2]) - mu(v[:2]))) <= 1e-15
        assert np.max(np.abs(momentum_cp2(v) - mu(v))) <= 1e-15
        total = weighted_momentum(VortexSystem.cpn([v[:2], w], [1.0, 2.0]))
        assert np.max(np.abs(total - mu(v[:2]) - 2.0 * mu(w))) <= 1e-15
        for m in (momentum_cpn(v[:2]), momentum_cp2(v), total):
            assert_traceless(m)

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: momentum_cpn(v),
            lambda v: momentum_cp2(v),
            lambda v: momentum_cp2_equivariance_check(v, np.eye(3)),
        ],
        ids=["momentum_cpn", "momentum_cp2", "equivariance"],
    )
    def test_the_unit_norm_rule_runs_once(self, monkeypatch, call):
        calls, rule = [], momentum._off_unit
        monkeypatch.setattr(momentum, "_off_unit", lambda v: calls.append(1) or rule(v))
        call(random_point(2, np.random.default_rng(5)).coords)
        assert len(calls) == 1


# coordinates of every size a unit lift or a big-cell point can hold, from 1e-150 to 1e150
EXTREME_LIFTS = [[1e150, 1.0, 1e-150j], [1.0, -1e150j, 1e150], [1e-150, 0.0, 1.0], [1.0, 1e150, 1e149 + 1e149j]]
EXTREME_FLAGS = [(1e150, 0, 0), (0, 1e150j, 0), (0, 0, -1e150), (1e150, 1e150j, 0), (1e-150, 1e150, -1e150),
                 (1e150, -1e-150, 1e-150j), (1e75, 1e150, 1e75j)]


def weighted_stack(v):
    """weighted_momentum of each system (N, n+1) of the stack v (..., N, n+1), with strengths of both signs
    from 3e-4 to 1e6 in size."""
    count, n = v.shape[-2], v.shape[-1] - 1
    strengths = np.resize([1e6, -2.0, 0.5, -3e-4], count)
    values = [weighted_momentum(VortexSystem("cpn", x, strengths, n=n)) for x in v.reshape((-1, count, n + 1))]
    return np.reshape(values, v.shape[:-2] + (n + 1, n + 1))


HERMITIAN_MAPS = {"momentum_cpn": momentum_cpn, "momentum_cp2": momentum_cp2, "weighted_momentum": weighted_stack}


class TestInvariants:
    """Each map returns a complex array whose convention holds for every matrix: Hermitian or exactly
    anti-Hermitian, and traceless, on batches, at extreme coordinates and at lifts 9e-11 off unit norm."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cpn_values_of_a_batch(self, n):
        v = geom._random_lifts(n, (50, 4), np.random.default_rng(31))
        m = momentum_cpn(v)
        assert m.shape == (50, 4, n + 1, n + 1) and m.dtype == complex
        assert_hermitian_traceless(m)
        assert_hermitian_traceless(weighted_stack(v))

    @pytest.mark.parametrize("name", HERMITIAN_MAPS)
    def test_extreme_lifts(self, name):
        v = np.array([ProjectivePoint(c).coords for c in EXTREME_LIFTS])
        m = HERMITIAN_MAPS[name](v[None])
        assert m.shape[-2:] == (3, 3) and m.dtype == complex
        assert_hermitian_traceless(m)

    @pytest.mark.parametrize("offset", [9e-11, -9e-11])
    @pytest.mark.parametrize("name", HERMITIAN_MAPS)
    def test_lifts_off_unit_norm(self, name, offset):
        v = (1.0 + offset) * geom._random_lifts(2, (10, 10), np.random.default_rng(32))
        assert_hermitian_traceless(HERMITIAN_MAPS[name](v))

    def test_flag_values_of_a_batch(self):
        z = _random_flag(np.random.default_rng(34), radius=50.0, shape=(20, 25))
        m = momentum_flag(z)
        assert m.shape == (20, 25, 3, 3) and m.dtype == complex
        assert_antihermitian_traceless(m)
        assert_antihermitian_traceless(momentum_flag(FlagCoords(0.3, -1j, 2.0)))

    def test_extreme_flags(self):
        m = momentum_flag(FlagCoords(*np.array(EXTREME_FLAGS).T))
        assert m.shape == (len(EXTREME_FLAGS), 3, 3) and m.dtype == complex
        assert_antihermitian_traceless(m)


class TestPairing:
    def test_k3_at_origin(self):
        assert momentum_flag_pairing(3, FlagCoords(0, 0, 0)) == pytest.approx(-0.25)

    def test_k1_at_origin(self):
        assert momentum_flag_pairing(1, FlagCoords(0, 0, 0)) == 0.0

    def test_k8_at_origin(self):
        # trace(diag(i/2, 0, -i/2) lambda_8) = -sqrt(3)/4
        assert momentum_flag_pairing(8, FlagCoords(0, 0, 0)) == pytest.approx(-math.sqrt(3.0) / 4.0)

    def test_real_valued(self):
        rng = np.random.default_rng(6)
        from cpvortex.su3flag import gell_mann

        for _ in range(50):
            z = _random_flag(rng)
            for k in range(1, 9):
                t = complex(np.trace(momentum_flag(z) @ gell_mann(k)))
                assert abs(t.imag) < 1e-12


def real_coordinate_defect(k, z):
    """defining_equation_defect with z split into six real coordinates, each shifted and the point rebuilt."""
    h = momentum._DEFECT_STEP
    xy = z.real_coords()[..., None, :]
    shifted = np.concatenate([xy + h * np.eye(6), xy - h * np.eye(6)], axis=-2)
    moved = FlagCoords(*(shifted[..., j] + 1j * shifted[..., j + 3] for j in range(3)))
    pairing = momentum_flag_pairing(k, moved)
    grad = (pairing[..., :6] - pairing[..., 6:]) / (2.0 * h)
    a = infinitesimal_vf(k, z)
    contraction = (flag_symplectic_matrix(z) @ np.concatenate([a.real, a.imag], axis=-1)[..., None])[..., 0]
    d = grad - contraction
    return np.sqrt(np.vecdot(d, d))[()]


class TestDefiningEquation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complex_shifts_match_the_real_coordinate_form(self, seed):
        # shifting z by +-h along x1..x3 and y1..y3 as complex numbers moves no bit of the defect
        z = _random_flag(np.random.default_rng(seed), shape=(100,))
        k = np.arange(1, 9)
        assert np.array_equal(defining_equation_defect(k, z), real_coordinate_defect(k, z))

    def test_complex_shifts_match_the_real_coordinate_form_at_a_point(self):
        z = FlagCoords(0.6 - 0.2j, -0.3j, 0.4 + 0.2j)
        assert np.array_equal(defining_equation_defect(3, z), real_coordinate_defect(3, z))

    def test_k3_at_origin(self):
        assert defining_equation_defect(3, FlagCoords(0, 0, 0)) < 1e-6

    def test_all_generators_random_points(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            z = _random_flag(rng)
            for k in range(1, 9):
                worst = max(worst, defining_equation_defect(k, z))
        assert worst < 1e-6

    def test_phase_invariance_for_torus_generator(self):
        base = FlagCoords(0.6, -0.3j, 0.4 + 0.2j)
        defects = []
        for phase in np.linspace(0.0, 2.0 * math.pi, 7):
            w = np.exp(1j * phase) * base.as_vector()
            defects.append(defining_equation_defect(3, FlagCoords(w[0], w[1], w[2])))
        assert max(defects) < 1e-6


class TestTabulatedVariants:
    def test_antihermitian_table_matches_at_origin(self):
        z = FlagCoords(0, 0, 0)
        assert np.allclose(momentum_flag_tabulated(z, "antihermitian"), momentum_flag(z))

    def test_antihermitian_table_mu31_matches_everywhere(self):
        # the (3,1) entry of the anti-Hermitian table is slip-free
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = _random_flag(rng)
            assert momentum_flag_tabulated(z, "antihermitian")[2, 0] == pytest.approx(
                momentum_flag(z)[2, 0], abs=1e-14
            )

    def test_real_diagonal_table_diagonal_is_real(self):
        rng = np.random.default_rng(9)
        z = _random_flag(rng)
        diag = np.diag(momentum_flag_tabulated(z, "real_diagonal"))
        assert np.allclose(diag.imag, 0.0)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            momentum_flag_tabulated(FlagCoords(0, 0, 0), "guess")


class TestWeightedMomentum:
    def test_single_vortex(self):
        rng = np.random.default_rng(10)
        p = random_point(2, rng)
        sys = VortexSystem.cpn([p], [1.0])
        assert np.allclose(weighted_momentum(sys), momentum_cp2(p))

    def test_opposite_strengths_cancel_pointwise(self):
        # mu(p) - mu(p) = 0: equal mu-values cancel under opposite strengths
        rng = np.random.default_rng(11)
        p = random_point(2, rng)
        assert np.allclose(momentum_cpn(p) - momentum_cpn(p), 0.0)

    def test_symmetric_basis_configuration_sums_to_zero(self):
        pts = [ProjectivePoint(e) for e in np.eye(3)]
        sys = VortexSystem.cpn(pts, [1.0, 1.0, 1.0])
        assert np.allclose(weighted_momentum(sys), 0.0, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        pts = [random_point(2, rng) for _ in range(3)]
        gam = np.array([0.7, -1.2, 2.0])
        s1 = VortexSystem.cpn(pts, gam)
        s2 = VortexSystem.cpn(pts, 3.0 * gam)
        assert np.allclose(
            weighted_momentum(s2), 3.0 * weighted_momentum(s1), atol=1e-14
        )

    def test_linearity_in_each_strength(self):
        rng = np.random.default_rng(14)
        pts = [random_point(2, rng) for _ in range(3)]
        gam = [0.7, -1.2, 2.0]
        base = weighted_momentum(VortexSystem.cpn(pts, gam))
        for k in range(3):
            bumped = list(gam)
            delta = 0.5
            bumped[k] += delta
            lhs = weighted_momentum(VortexSystem.cpn(pts, bumped))
            rhs = base + delta * momentum_cpn(pts[k])
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    @pytest.mark.parametrize("strength", [1e4, 1e6, 1e12])
    def test_large_strengths(self, strength):
        # the sum is Hermitian to about 1e-16 relative, which an absolute bound of 1e-12 rejected from strength 1e4 on
        v = geom._random_lifts(2, (4,), np.random.default_rng(31))
        gam = np.array([strength, -2.0, 0.5, -3e-4])
        total = weighted_momentum(VortexSystem("cpn", v, gam, n=2))
        assert_hermitian_traceless(total)
        assert np.max(np.abs(total - sum(g * momentum_cpn(x) for g, x in zip(gam, v)))) <= 1e-15 * strength

    def test_plane_rejected(self):
        sys = VortexSystem.plane([0.0, 1.0], [1.0, 1.0])
        # the same guard and wording as every dynamics entry point
        with pytest.raises(ConfigurationError, match="^weighted_momentum needs a cpn system$"):
            weighted_momentum(sys)


def single_points(z):
    return [FlagCoords(a, b, c) for a, b, c in zip(z.z1, z.z2, z.z3)]


class TestBatches:
    """The flag momentum map and its pairings take a batch of points and validate it as a whole."""

    @pytest.fixture
    def batch(self):
        return _random_flag(np.random.default_rng(21), shape=(200,))

    def test_momentum_flag_matches_per_point(self, batch):
        # normwise per point, to 1e-15 relative
        per_point = np.array([momentum_flag(p) for p in single_points(batch)])
        gap = np.max(np.abs(momentum_flag(batch) - per_point), axis=(1, 2))
        assert np.all(gap <= 1e-15 * np.max(np.abs(per_point), axis=(1, 2)))

    def test_pairings_of_all_generators(self, batch):
        pairings = momentum_flag_pairing(range(1, 9), batch)
        assert pairings.shape == (8, 200)
        points = single_points(batch)
        for k in range(1, 9):
            np.testing.assert_allclose(pairings[k - 1], [momentum_flag_pairing(k, p) for p in points], rtol=0, atol=1e-15)

    def test_defining_equation_defects_of_a_batch(self, batch):
        defects = defining_equation_defect(range(1, 9), batch)
        assert defects.shape == (8, 200) and np.max(defects) < 1e-6
        points = single_points(batch)[:20]
        per_point = [[defining_equation_defect(k, p) for p in points] for k in (1, 5, 8)]
        np.testing.assert_allclose(defects[[0, 4, 7], :20], per_point, rtol=0, atol=1e-14)
