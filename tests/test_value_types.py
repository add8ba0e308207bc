"""The three validated value types: identity equality, read-only array fields and unmoved tolerance boundaries."""

import dataclasses
import math

import numpy as np
import pytest

from cpvortex.dynamics import VortexSystem
from cpvortex.errors import ConfigurationError, DomainError
from cpvortex.geom import ProjectivePoint, _off_unit, from_chart
from cpvortex.momentum import momentum_cp2_equivariance_check
from cpvortex.su3flag import FlagCoords

# two calls of each build equal-valued, distinct instances; the names of their array fields
BUILDERS = {
    "ProjectivePoint": (lambda: ProjectivePoint([1, 1j]), {"coords"}),
    "FlagCoords": (lambda: FlagCoords([0.1, 0.2j], 0.3, [0.0, 1.0]), {"z1", "z2", "z3", "K1", "K2"}),
    "FlagCoords point": (lambda: FlagCoords(0.1, 0.2j, 0.3), set()),  # NumPy scalars
    "VortexSystem": (lambda: VortexSystem.plane([0.0, 1.0], [1.0, 1.0]), {"positions", "strengths"}),
}


@pytest.mark.parametrize("kind", BUILDERS)
def test_equality_is_identity(kind):
    build = BUILDERS[kind][0]
    a, b = build(), build()
    assert a == a and a in [a] and hash(a) == hash(a)
    assert a != b and b not in [a]


@pytest.mark.parametrize("kind", BUILDERS)
def test_array_fields_are_read_only(kind):
    build, names = BUILDERS[kind]
    value = build()
    arrays = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
    assert set(arrays) == names
    assert [name for name, a in arrays.items() if a.flags.writeable] == []


def test_chart_leaves_its_input_writeable():
    # the point does not share the caller's chart values: mutating them afterwards does not move it
    values = np.array([0.5 + 0j, 1j])
    p = from_chart(values, 0)
    values[0] = 2.0
    assert values.flags.writeable and np.array_equal(p.coords, from_chart([0.5, 1j], 0).coords)


def test_flag_batch_holds_read_only_potentials():
    z = FlagCoords([0.1, 0.2j], 0.3, [0.0, 1.0])
    for a in (z.z1, z.z2, z.z3, z.K1, z.K2):
        assert a.shape == (2,) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


# Each check must accept a defect of 0.9 tol and reject one of 1.1 tol.
FACTORS = [(0.9, True), (1.1, False)]


def accepted(build) -> bool:
    try:
        build()
    except (DomainError, ConfigurationError):
        return False
    return True


def off_diagonal(a) -> np.ndarray:
    """a at the entries (0, 1) and (1, 0)."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = a
    return m


@pytest.mark.parametrize("factor, ok", FACTORS)
class TestToleranceBoundaries:
    def test_equivariance_unitarity(self, factor, ok):
        d = factor * 1e-10
        u = np.diag([math.sqrt(1.0 + d), 1.0, 1.0])
        assert accepted(lambda: momentum_cp2_equivariance_check(ProjectivePoint([1, 1j, 0]), u)) is ok

    def test_equivariance_determinant(self, factor, ok):
        # a phase theta moves the determinant by 2 sin(theta / 2)
        theta = 2.0 * math.asin(factor * 1e-10 / 2.0)
        u = np.diag([np.exp(1j * theta), 1.0, 1.0])
        assert accepted(lambda: momentum_cp2_equivariance_check(ProjectivePoint([1, 1j, 0]), u)) is ok

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unit_lifts(self, factor, ok, sign):
        lift = np.array([[1.0 + sign * factor * 1e-10, 0.0]])
        assert accepted(lambda: VortexSystem("cpn", lift, [1.0], n=1)) is ok
        assert _off_unit(lift) is not ok


def second_bad(bad) -> np.ndarray:
    """A stack of two matrices, the identity first and then bad, so the rule must look past the first."""
    return np.stack([np.eye(3, dtype=complex), np.asarray(bad, dtype=complex)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda m: momentum_cp2_equivariance_check(ProjectivePoint([1, 1j, 0]), m), "expected a unitary matrix"),
    ],
    ids=["equivariance"],
)
def test_matrix_rule_messages(build, message):
    # I + off_diagonal(1j) is not unitary
    with pytest.raises(DomainError) as err:
        build(second_bad(np.eye(3) + off_diagonal(1j)))
    assert str(err.value) == message
