import numpy as np
import pytest

from cpvortex import dynamics, momentum, verify
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
