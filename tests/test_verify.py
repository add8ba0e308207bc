import numpy as np
import pytest

from cpvortex import dynamics, geom, momentum, su3flag, verify
from cpvortex.errors import CollisionError


def raise_type_error(points, strengths):
    raise TypeError("broken constructor")


class TestOnlyCollisionsAreSkipped:
    """A verify helper may skip a draw only on a collision; every other error reaches the caller."""

    def test_momentum_linearity_gate(self, monkeypatch):
        monkeypatch.setattr(momentum, "_momentum_sum", raise_type_error)
        with pytest.raises(TypeError):
            verify.verify_momentum()

    def test_random_cpn_system(self, monkeypatch):
        calls = []

        def cpn(points, strengths):
            calls.append(1)
            if len(calls) > 1:  # a swallowed error would otherwise loop forever
                pytest.fail("the TypeError of the first draw was swallowed")
            raise_type_error(points, strengths)

        monkeypatch.setattr(dynamics.VortexSystem, "cpn", staticmethod(cpn))
        with pytest.raises(TypeError):
            verify._random_cpn_system(np.random.default_rng(0), 2, 3)

    def test_random_planar_system_redraws_after_a_collision(self, monkeypatch):
        plane, calls = dynamics.VortexSystem.plane, []

        def collide_once(positions, strengths):
            calls.append(1)
            if len(calls) == 1:
                raise CollisionError("minimum pairwise separation below collision threshold")
            return plane(positions, strengths)

        monkeypatch.setattr(dynamics.VortexSystem, "plane", staticmethod(collide_once))
        system = verify._random_planar_system(np.random.default_rng(0), 3)
        assert len(calls) >= 2
        assert dynamics.min_pairwise_distance(system) >= 0.3


class TestStackedOracles:
    """Each finite-difference oracle evaluates its function once per batch."""

    @pytest.mark.parametrize("shape", [(), (5, 4)])
    def test_wirtinger_hessian_of_a_quartic_in_one_call(self, shape):
        # f = |z|^4 has the Hessian d_i dbar_j f = 2 (|z|^2 delta_ij + zbar_i z_j); the nested
        # central differences are off by O(h^2) truncation and O(eps f / h^2) rounding, both ~1e-7
        z = verify._disk(np.random.default_rng(11), 1.0, shape + (3,))
        calls = []

        def f(v):
            calls.append(v.shape)
            return np.sum(np.abs(v) ** 2, axis=-1) ** 2

        fd = verify.wirtinger_hessian(f, z)
        s = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None]
        exact = 2.0 * (s * np.eye(3) + z.conj()[..., :, None] * z[..., None, :])
        assert fd.shape == shape + (3, 3)
        assert np.max(np.abs(fd - exact)) < 1e-6
        assert calls == [(12, 12) + shape + (3,)]

    def test_wirtinger_hessian_equals_the_nested_loop(self):
        # the reference evaluates f once per shift pair, in the same order of additions: equal bit for bit
        h = verify._HESSIAN_STEP
        z = verify._random_flag(np.random.default_rng(13), shape=(6,)).as_vector()

        def f(v):
            return su3flag.kahler_potential_flag(su3flag.FlagCoords(v[..., 0], v[..., 1], v[..., 2]))

        def diff(g, zz, e):
            return (g(zz + e) - g(zz - e)) / (2.0 * h)

        unit = np.eye(3, dtype=complex) * h
        ref = np.zeros((6, 3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):

                def dbar(zz):
                    return 0.5 * (diff(f, zz, unit[j]) + 1j * diff(f, zz, 1j * unit[j]))

                ref[:, i, j] = 0.5 * (diff(dbar, z, unit[i]) - 1j * diff(dbar, z, 1j * unit[i]))
        assert np.array_equal(verify.wirtinger_hessian(f, z), ref)

    def test_unitary_products_equal_the_factor_loop(self):
        rng = np.random.default_rng(14)
        factors = np.array([verify._unitary_factors(rng) for _ in range(40)])
        ref = np.broadcast_to(np.eye(3, dtype=complex), (40, 3, 3))
        for f in range(factors.shape[1]):
            ks, ts = factors[:, f, 0].astype(int), factors[:, f, 1]
            step = np.empty((40, 3, 3), dtype=complex)
            for k in np.unique(ks):
                step[ks == k] = su3flag.exp_su3(int(k), ts[ks == k]).entries
            ref = ref @ step
        assert np.array_equal(verify._unitary_products(factors), ref)

    def test_vf_finite_difference_stacks_the_generators(self, monkeypatch):
        z = verify._random_flag(np.random.default_rng(12), shape=(7,))
        normalize, calls = su3flag.bruhat_normalize, []
        monkeypatch.setattr(su3flag, "bruhat_normalize", lambda m: calls.append(1) or normalize(m))
        fd = verify.vf_finite_difference(np.arange(1, 9), z)
        assert fd.shape == (8, 7, 3) and len(calls) == 1
        for k in range(1, 9):
            assert np.array_equal(fd[k - 1], verify.vf_finite_difference(k, z))

    def test_equivariance_draws_follow_the_point_stream(self):
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            lifts, factors = verify._equivariance_draws(rng, 100)
            draws = [(geom.random_point(2, ref).coords, verify._unitary_factors(ref)) for _ in range(100)]
            points, ref_factors = zip(*draws)
            assert np.array_equal(lifts, np.array(points))
            assert np.array_equal(factors, np.array(ref_factors))
            assert rng.random() == ref.random()  # both streams stop at the same draw
