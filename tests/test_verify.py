import dataclasses

import numpy as np
import pytest

from cpvortex import dynamics, geom, su3flag, verify
from cpvortex.errors import CollisionError, ConfigurationError


def raise_type_error(points, strengths):
    raise TypeError("broken constructor")


class TestOnlyCollisionsAreSkipped:
    """A verify helper may skip a draw only on a collision; every other error reaches the caller."""

    def test_momentum_linearity_gate(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_momentum_sum", raise_type_error)
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
        # the first position draw puts all three vortices on one point: a collision that the
        # sampler rejects by its separations, so the constructor only sees the accepted redraw
        plane, built = dynamics.VortexSystem.plane, []
        monkeypatch.setattr(dynamics.VortexSystem, "plane", staticmethod(lambda x, g: built.append(x) or plane(x, g)))
        rng = FirstPositionsCoincide(0)
        system = verify._random_planar_system(rng, 3)
        assert rng.position_draws >= 2 and len(built) == 1
        assert dynamics.min_pairwise_distance(system) >= 0.3


class FirstPositionsCoincide:
    """A generator whose first (N, 2) uniform draw, a planar position draw, puts every vortex on its first point."""

    def __init__(self, seed):
        self.rng, self.position_draws = np.random.default_rng(seed), 0

    def uniform(self, low, high, size=None):
        out = self.rng.uniform(low, high, size)
        if np.ndim(out) == 2:
            self.position_draws += 1
            if self.position_draws == 1:
                out[:] = out[0]
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def one_point_at_a_time(rng, make, draw, N, min_sep, gamma_range):
    """The sampler as scalar draws: N single points per try, and a system built before the separation test."""
    tries = 0
    while True:
        tries += 1
        positions = [draw() for _ in range(N)]
        gam = rng.uniform(*gamma_range, N) * rng.choice([-1.0, 1.0], N)
        try:
            system = make(positions, gam)
        except CollisionError:
            continue
        if dynamics.min_pairwise_distance(system) >= min_sep:
            return system, tries


def per_coordinate_energies(system):
    """H (N, 2, 2n) of the gradient oracle's perturbed states, one chart coordinate and one hamiltonian_cpn call at a time."""
    h, n = verify._GRADIENT_STEP, system.n
    charts = geom._default_charts(system.positions)
    out = np.zeros((system.size, 2, 2 * n))
    for alpha, (c, w0) in enumerate(zip(charts.tolist(), geom._chart_values(system.positions, charts))):
        for k in range(2 * n):
            e = np.zeros(n, complex)
            e[k % n] = h if k < n else 1j * h
            for sign, w in enumerate((w0 + e, w0 - e)):
                lifts = system.positions.copy()
                lifts[alpha] = geom.from_chart(geom.AffineChart(c, w)).coords
                out[alpha, sign, k] = dynamics.hamiltonian_cpn(dynamics.VortexSystem.cpn(lifts, system.strengths))
    return out


class TestArrayDynamicsChecks:
    """The dynamics suite draws each try in one call and stacks the gradient oracle's perturbed states."""

    @pytest.mark.parametrize("n, N, min_sep", [(0, 3, 0.3), (0, 5, 0.5), (1, 3, 0.3), (2, 4, 0.5), (3, 1, 0.3)])
    def test_samplers_follow_the_one_point_stream(self, n, N, min_sep):
        redraws = 0
        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if n:
                system = verify._random_cpn_system(rng, n, N, min_sep)
                make, draw, gamma_range = dynamics.VortexSystem.cpn, lambda: geom.random_point(n, ref), (0.5, 2.0)
            else:
                system = verify._random_planar_system(rng, N, min_sep)
                make, gamma_range = dynamics.VortexSystem.plane, (0.5, 1.5)
                draw = lambda: complex(ref.uniform(-1, 1), ref.uniform(-1, 1))
            expected, tries = one_point_at_a_time(ref, make, draw, N, min_sep, gamma_range)
            redraws += tries - 1
            assert np.array_equal(system.positions, expected.positions)
            assert np.array_equal(system.strengths, expected.strengths)
            assert rng.random() == ref.random()  # both streams stop at the same draw
        assert redraws > 0 or N == 1

    def test_gradient_oracle_matches_the_per_coordinate_loop(self, monkeypatch):
        h = verify._GRADIENT_STEP
        pair_energy, stacked = dynamics._pair_energy, []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, N = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            system = verify._random_cpn_system(rng, n, N)
            loop = per_coordinate_energies(system)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_pair_energy", lambda *a: stacked.append(pair_energy(*a)) or stacked[-1])
                defect = verify._relative_gradient_error(system)
            np.testing.assert_allclose(stacked[-1], loop, rtol=1e-12, atol=0)
            # energies within 1e-12 relative move each difference quotient by at most 1e-12 max|H| / h
            fd = (loop[:, 0] - loop[:, 1]) / (2.0 * h)
            _, grads = dynamics.grad_hamiltonian(system)
            scale = np.maximum(np.linalg.norm(grads, axis=1), 1e-8)
            expected = (np.linalg.norm(fd - grads, axis=1) / scale).max()
            bound = np.sqrt(2 * n) * 1e-12 * np.abs(loop).max() / h / scale.min()
            assert abs(defect - expected) <= bound
        assert len(stacked) == 10

    def test_energy_kernel_runs_once_per_config(self, monkeypatch):
        counts = {"_separations": 0, "_pair_energy": 0, "hamiltonian_cpn": 0, "VortexSystem": 0}
        system = verify._random_cpn_system(np.random.default_rng(3), 2, 4)
        for name in counts:
            original = getattr(dynamics, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, counted)
        assert verify._relative_gradient_error(system) < 1e-6
        assert counts == {"_separations": 1, "_pair_energy": 1, "hamiltonian_cpn": 0, "VortexSystem": 0}


class TestFieldScaleGate:
    """The dynamics suite compares the integrated field with the chart-side vector field, scale included."""

    def systems(self, seed):
        rng = np.random.default_rng(seed)
        return [verify._random_cpn_system(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6))) for _ in range(20)]

    def test_integrated_field_passes(self):
        assert max(map(verify._field_error, self.systems(0))) <= 1e-12

    def test_weights_scaled_by_1_001_fail(self, monkeypatch):
        # energy and momentum drift stay flat under a constant factor in the field; this gate does not
        field = dynamics._field
        monkeypatch.setattr(dynamics, "_field", lambda system: (field(system)[0], 1.001 * field(system)[1]))
        defects = [verify._field_error(system) for system in self.systems(1)]
        assert min(defects) > 1e-12
        assert max(defects) == pytest.approx(1e-3, rel=1e-6)


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

    def test_vf_finite_difference_stacks_the_generators(self, monkeypatch):
        z = verify._random_flag(np.random.default_rng(12), shape=(7,))
        normalize, calls = su3flag.bruhat_normalize, []
        monkeypatch.setattr(su3flag, "bruhat_normalize", lambda m: calls.append(1) or normalize(m))
        fd = verify.vf_finite_difference(np.arange(1, 9), z)
        assert fd.shape == (8, 7, 3) and len(calls) == 1
        for k in range(1, 9):
            assert np.array_equal(fd[k - 1], verify.vf_finite_difference(k, z))


class TestSuites:
    def test_dynamics_suite_passes_at_seed_0(self):
        # the ten gating checks of the dynamics suite, the field-scale gate among them
        checks = verify.run_suite("dynamics", seed=0)
        assert len(checks) == 10 and all(c.gating for c in checks)
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    @pytest.mark.parametrize("seed", [0, 3, 199])
    def test_momentum_suite_gates_the_twistor_identity(self, seed):
        # six gating checks and two reports; the QR identity is the last gate, at 1e-12
        checks = verify.run_suite("momentum", seed=seed)
        assert [c.gating for c in checks] == [True] * 6 + [False] * 2
        assert "(i/2)(mu_cpn(u1) - mu_cpn(u3))" in checks[5].name and checks[5].tolerance == 1e-12
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_unknown_suite_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown suite 'dynamic'"):
            verify.run_suite("dynamic")


class TestSamplers:
    def test_random_system_gives_up(self):
        # 17 points of CP^1 pairwise 0.3 apart almost never come out of one joint draw; the sampler stops after its tries
        with pytest.raises(ConfigurationError, match=r"n = 1, N = 17 and all separations >= 0.3 in 10000 tries"):
            verify._random_cpn_system(np.random.default_rng(105), 1, 17, 0.3)

    def test_special_unitaries_have_determinant_one(self):
        u = verify._random_special_unitaries(np.random.default_rng(15), 200)
        assert u.shape == (200, 3, 3)
        assert np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(3))) < 1e-12
        assert np.max(np.abs(np.linalg.det(u) - 1.0)) < 1e-12


class TestCheckResult:
    """A result without a tolerance is a report: INFO, passed, not gating; gating and passed derive from the tolerance."""

    @pytest.mark.parametrize("defect", [0.0, 27.19, 1e300, np.inf, np.nan])
    def test_report_prints_info_and_never_fails(self, defect):
        report = verify.CheckResult("table vs oracle", defect, note="report only", worst_at="k=3")
        assert report.passed and not report.gating and report.tolerance is None
        assert report.line() == f"INFO  table vs oracle: defect {defect:.3e}  [report only]"

    @pytest.mark.parametrize("defect", [2.0, np.inf, np.nan])
    def test_failing_gating_row_names_its_worst_point(self, defect):
        check = verify.CheckResult("generator fields", defect, 1e-6, worst_at="k=5, z=(0, 0, 0)")
        assert check.gating and not check.passed
        assert check.line() == f"FAIL  generator fields: defect {defect:.3e} (tolerance 1.0e-06)  at k=5, z=(0, 0, 0)"

    def test_passing_gating_row(self):
        check = verify.CheckResult("symplectic matrix antisymmetry", 0.0, 0.0, worst_at="k=1")
        assert check.gating and check.passed
        assert check.line() == "PASS  symplectic matrix antisymmetry: defect 0.000e+00 (tolerance 0.0e+00)"

    def test_fields_and_attributes(self):
        # passed and gating are read from the tolerance, never stored or passed in
        assert [f.name for f in dataclasses.fields(verify.CheckResult)] == ["name", "defect", "tolerance", "note", "worst_at"]
        check = verify.CheckResult("c", 1.0, 2.0, "n", "w")
        assert (check.name, check.defect, check.tolerance, check.passed, check.gating, check.note, check.worst_at) == (
            "c", 1.0, 2.0, True, True, "n", "w")

    def test_reports_of_every_suite_print_info(self):
        # the four table reports, and only they, carry no tolerance
        reports = [c for c in verify.run_suite("momentum") + verify.run_suite("metric") if not c.gating]
        assert len(reports) == 4
        assert all(c.line().startswith("INFO  ") and "tolerance" not in c.line() and "report only" in c.note for c in reports)
