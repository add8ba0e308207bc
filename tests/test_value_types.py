"""The five validated value types: identity equality, read-only array fields and unmoved tolerance boundaries."""

import dataclasses
import math

import numpy as np
import pytest

from cpvortex.dynamics import VortexSystem
from cpvortex.errors import ConfigurationError, DomainError
from cpvortex.geom import AffineChart, ProjectivePoint, _off_unit
from cpvortex.momentum import MomentumValue, momentum_cp2_equivariance_check
from cpvortex.su3flag import FlagCoords

# two calls of each build equal-valued, distinct instances; the names of their array fields
BUILDERS = {
    "ProjectivePoint": (lambda: ProjectivePoint([1, 1j]), {"coords"}),
    "AffineChart": (lambda: AffineChart(0, [0.5, 1j]), {"values"}),
    "AffineChart one value": (lambda: AffineChart(1, [0.5]), {"values"}),
    "FlagCoords": (lambda: FlagCoords([0.1, 0.2j], 0.3, [0.0, 1.0]), {"z1", "z2", "z3", "K1", "K2"}),
    "FlagCoords point": (lambda: FlagCoords(0.1, 0.2j, 0.3), set()),  # NumPy scalars
    "MomentumValue": (lambda: MomentumValue(np.diag([1.0, -1.0, 0.0]), "hermitian_cp2"), {"matrix"}),
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
    values = np.array([0.5 + 0j, 1j])
    chart = AffineChart(0, values)
    values[0] = 2.0
    assert chart.values[0] == 0.5 and not chart.values.flags.writeable


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
    def test_hermitian_convention(self, factor, ok):
        m = np.diag([1.0, -1.0, 0.0]) + off_diagonal(1j * factor * 1e-12 / (2.0 * math.sqrt(2.0)))
        assert accepted(lambda: MomentumValue(m, "hermitian_cp2")) is ok

    def test_antihermitian_convention(self, factor, ok):
        m = np.diag([0.5j, 0.0, -0.5j]) + off_diagonal(factor * 1e-10 / (2.0 * math.sqrt(2.0)))
        assert accepted(lambda: MomentumValue(m, "antihermitian_flag")) is ok

    @pytest.mark.parametrize("convention, unit", [("hermitian_cp2", 1.0), ("antihermitian_flag", 1j)])
    def test_trace_rule(self, factor, ok, convention, unit):
        # below norm 1 the trace tolerance is 1e-12; above it, 1e-12 times the Frobenius norm
        small = np.diag([unit * factor * 1e-12, 0.0, 0.0])
        s = 10.0
        large = unit * np.diag([s + factor * 1e-12 * s * math.sqrt(2.0), -s, 0.0])
        for m in (small, large):
            assert accepted(lambda: MomentumValue(m, convention)) is ok

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
        (lambda m: MomentumValue(m - np.eye(3), "hermitian_cp2"), "hermitian_cp2 value must be Hermitian within 1e-12"),
        (lambda m: MomentumValue(1j * (m - np.eye(3)), "antihermitian_flag"),
         "antihermitian_flag value must be anti-Hermitian within 1e-10"),
        (lambda m: momentum_cp2_equivariance_check(ProjectivePoint([1, 1j, 0]), m), "expected a unitary matrix"),
    ],
    ids=["hermitian-convention", "antihermitian-convention", "equivariance"],
)
def test_matrix_rule_messages(build, message):
    # I + off_diagonal(1j) is not unitary; off_diagonal(1j) and 1j times it are traceless, and each is
    # neither Hermitian nor anti-Hermitian
    with pytest.raises(DomainError) as err:
        build(second_bad(np.eye(3) + off_diagonal(1j)))
    assert str(err.value) == message
