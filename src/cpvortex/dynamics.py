"""N-point-vortex Hamiltonian dynamics on the plane and on CP^n.

The planar model evolves by

    dzbar_j/dt = 1/(2 pi i) sum_{k != j} Gamma_k / (z_j - z_k)

with conserved H = -1/(4 pi) sum_{k != j} Gamma_j Gamma_k log|z_j - z_k|
and linear/angular impulses (p_x, p_y, m).

On CP^n the Hamiltonian is the strength-weighted sum of the Green's
function over vortex pairs,

    H = sum_{a<b} Gamma_a Gamma_b G_n(r_ab),   G_n = greens_cpn = C_n f_n,

the (constant) self-interaction term being dropped on the homogeneous
space; the constant C_n, the profile f_n and its slope df_n/drho all come
from cpvortex.greens.  The integrator evolves the unit lifts v_a, the rows
of V: with the Gram matrix G = V V*, rho_ab = |G_ab|^2 = cos^2 r_ab and
c_ab = C_n Gamma_a Gamma_b df_n/drho(rho_ab),

    dv_a/dt = -(2i/Gamma_a) (I - v_a v_a*) sum_{b != a} c_ab G_ab v_b,

the horizontal lift of the Hamiltonian vector field.  integrate evaluates
it with every constant folded into the vortex weights w_b = C_n h Gamma_b
of a step h: df_n/drho = -(1/s2 + ... + 1/s2^n)/2 at s2 = 1 - rho, so

    h dv_a/dt = i (I - v_a v_a*) sum_{b != a} w_b (1/s2_ab + ... + 1/s2_ab^n) G_ab v_b,

the sum that greens._inverse_power_sum builds up.  A run is a stepper
(_rk4_states or _dp45_states), which yields each state retracted to unit
lifts, and one batch checker (_check_states) of finiteness and monitors;
a Trajectory picks its charts from the recorded lifts when they are first
read.  The chart-side field is kept as the independent oracle of that
formula: grad_hamiltonian takes dH from one Gram matrix of the chart lifts
(pivot coordinate 1), and hamiltonian_vector_field solves omega X = dH for
all vortices in one batched solve with the Fubini-Study symplectic matrices
of their affine charts; both return arrays (charts, vectors) of shapes (N,)
and (N, 2n).  Its sign convention is the one that makes Omega(X, Y) = dH(Y)
hold with positive sign (checked by a self-test).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigurationError, NumericError
from .geom import (ProjectivePoint, _chart_lifts, _chart_values, _default_charts, _lift_distance, _momentum_sum,
                   _off_pivot, _off_unit, _set_fields, _squared_norm, _symplectic_matrix, _unit_lifts,
                   fubini_study_metric, pivot_threshold)
from .greens import (PLANE_CONSTANT, _check_n, _inverse_power_sum, greens_constant, greens_radial_part,
                     greens_radial_slope)

__all__ = [
    "COLLISION_THRESHOLD",
    "MAX_RECORDED_STEPS",
    "METHODS",
    "Trajectory",
    "VortexSystem",
    "grad_hamiltonian",
    "hamiltonian_cpn",
    "hamiltonian_vector_field",
    "integrate",
    "min_pairwise_distance",
    "omega_identity_defect",
    "planar_conserved",
    "planar_hamiltonian",
    "planar_pair_period",
    "planar_rhs",
    "write_monitor_csv",
    "write_trajectory_csv",
]

# Geodesic separations below this are numerically meaningless against the
# logarithmic singularity of G at double precision.
COLLISION_THRESHOLD = 1e-4

METHODS = ("rk4", "rk45_adaptive")

# a run records at most this many steps after its initial state, which
# bounds its time and memory whatever dt, steps or t_end ask for
MAX_RECORDED_STEPS = 1_000_000

# integrate checks its states in batches of about this many vortex pairs, for speed only (a state's monitors do not
# depend on its batch); larger calls outgrow the cache. A failure stops the run within a batch
_MONITOR_PAIRS = 3072

# random unit test vectors per vortex in omega_identity_defect
_OMEGA_SAMPLES = 10


@dataclass(frozen=True, eq=False)
class VortexSystem:
    """N point vortices with nonzero strengths on a single manifold, held as arrays.

    ``manifold`` is "plane" (``positions``: complex array (N,)) or "cpn"
    (``positions``: unit lifts (N, n+1) of points of CP^n); ``strengths``
    is a float array (N,).  Both are read-only copies of the input; lifts
    must have unit norm within 1e-10 and are never renormalized.  n obeys
    greens._check_n (DomainError).  Pairwise separations must exceed
    COLLISION_THRESHOLD.
    """

    manifold: str
    positions: np.ndarray
    strengths: np.ndarray
    n: int = 0

    def __post_init__(self):
        x, g = _system_arrays(self.manifold, self.positions, self.strengths, self.n)
        if not (np.isfinite(g).all() and g.all()):
            raise ConfigurationError("all strengths must be finite and nonzero")
        if not np.isfinite(x).all():
            raise ConfigurationError("positions must be finite")
        if self.n and _off_unit(x):
            raise ConfigurationError("cpn positions must be unit lifts (norm 1 within 1e-10)")
        _set_fields(self, positions=x, strengths=g)
        pairs = _pairs(len(x))
        r = _separations(x, self.n, *pairs)
        if np.min(r, initial=np.inf) < COLLISION_THRESHOLD:
            raise _collision(pairs, r)

    @classmethod
    def plane(cls, positions, strengths) -> "VortexSystem":
        return cls("plane", positions, strengths)

    @classmethod
    def cpn(cls, points, strengths) -> "VortexSystem":
        """A CP^n system from ProjectivePoints or unit lifts (n+1,) of one dimension, or from a lift array (N, n+1)."""
        points = [p.coords if isinstance(p, ProjectivePoint) else p for p in points]
        # n is the first position's; an empty list breaks the N >= 1 rule, which is checked before n
        return cls("cpn", points, strengths, n=np.shape(points[:1])[-1] - 1)

    @property
    def size(self) -> int:
        return len(self.positions)

    def require(self, manifold: str, caller: str) -> None:
        """Raise ConfigurationError unless the system lives on the given manifold."""
        if self.manifold != manifold:
            raise ConfigurationError(f"{caller} needs a {'planar' if manifold == 'plane' else manifold} system")


def _check_manifold(manifold) -> None:
    """ConfigurationError unless manifold names one of the two manifolds of a VortexSystem, "plane" or "cpn"."""
    if manifold not in ("plane", "cpn"):
        raise ConfigurationError(f"manifold must be 'plane' or 'cpn', got {manifold!r}")


def _system_arrays(manifold: str, positions, strengths, n: int, normalize: bool = False):
    """Positions and strengths of a VortexSystem as complex and float arrays, checked in order: N >= 1 with matching
    strengths; the manifold and n (0 on the plane, greens._check_n on CP^n); the shape (N,) or (N, n+1), positions of
    several shapes reported by their coordinate shapes.  normalize: a config's CP^n coordinates, then made unit lifts."""
    g = np.array(strengths, dtype=float)
    try:
        x = np.array(positions, dtype=complex)
        N = len(x) if x.ndim else 0
    except ValueError:  # NumPy's error for positions of several shapes, which no array holds
        x, N, shapes = None, len(positions), sorted({np.shape(p) for p in positions})
        if len(shapes) < 2:  # another ValueError, such as a string that reads as no complex number
            raise
    if N < 1 or g.shape != (N,):
        raise ConfigurationError("need N >= 1 positions with matching strengths")
    _check_manifold(manifold)
    if manifold == "cpn":
        _check_n(n)
    elif n:
        raise ConfigurationError("planar systems have no projective dimension")
    if x is None:
        raise ConfigurationError(f"all positions must lie on {'one CP^n' if n else 'the plane'}, got coordinate shapes {shapes}")
    if not n and x.ndim != 1:
        raise ConfigurationError(f"planar positions must be complex numbers (N,), got shape {x.shape}")
    if n and x.shape[1:] != (n + 1,):
        raise ConfigurationError(f"cpn positions must be unit lifts (N, n+1), got shape {x.shape} for n = {n}")
    try:
        return (_unit_lifts(x) if normalize and n else x), g
    except ValueError as exc:  # a config's position that is not finite, or all zero
        raise ConfigurationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# array kernels.  A state is the complex array of planar positions (N,) or
# of unit lifts (N, n+1), n = 0 marking the plane; the monitor kernels also
# take a stack of states along leading axes.


def _pairs(N: int):
    """Index arrays (i, j) of the N (N - 1) / 2 vortex pairs i < j."""
    k = np.arange(N)
    return np.nonzero(k[:, None] < k)


def _collision(pairs, r: np.ndarray, step_index=None) -> CollisionError:
    """CollisionError naming the closest of the pairs (i, j), given their separations r."""
    p = int(np.argmin(r))
    return CollisionError(f"vortices {pairs[0][p]} and {pairs[1][p]} at separation {r[p]:.3e}", step_index=step_index)


def _separations(x: np.ndarray, n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Separations of the pairs (i[p], j[p]): Euclidean on the plane, geodesic on CP^n."""
    if n == 0:
        return np.abs(np.take(x, i, axis=-1) - np.take(x, j, axis=-1))
    return _lift_distance(np.take(x, i, axis=-2), np.take(x, j, axis=-2))


def _planar_impulses(z: np.ndarray, g: np.ndarray):
    return np.vecdot(z.real, g), np.vecdot(z.imag, g), 0.5 * np.vecdot(z.real**2 + z.imag**2, g)


def _pair_energy(n: int, g: np.ndarray, i, j, r: np.ndarray):
    """H from the pair separations r (each unordered pair once)."""
    weights = g[i] * g[j]
    if n == 0:
        return np.vecdot(np.log(r), weights) * PLANE_CONSTANT
    return greens_constant(n) * np.vecdot(greens_radial_part(n, r), weights)


def _planar_rhs(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h dz_j/dt = conj( sum_{k != j} w_k / (z_j - z_k) ) for the weights w = i PLANE_CONSTANT h Gamma."""
    diff = z[:, None] - z[None, :]
    diff.ravel()[:: len(z) + 1] = np.inf  # 1 / inf is exactly 0: no self-interaction
    return ((1.0 / diff) @ w).conj()


def _cpn_rhs(v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """h dv_a/dt = i (I - v_a v_a*) sum_{b != a} c_ab G_ab v_b for unit lifts v and the weights w = C_n h Gamma.

    Here c_ab = w_b (1/s2 + ... + 1/s2^n), s2 = 1 - rho_ab: greens._inverse_power_sum,
    the sum of which greens_radial_slope is the w = -1/2 case, taken with the weights
    so that h and C_n cost no call per evaluation.  The weights are real so that the
    N x N coupling stays real; the one factor i multiplies the (N, n+1) result.
    """
    gram = v @ v.conj().T
    rho = np.abs(gram) ** 2
    rho.ravel()[:: len(v) + 1] = 0.0  # keeps the coupling finite; the diagonal of m is set below
    c = _inverse_power_sum(n, 1.0 - rho, w)
    m = c * gram
    # v_a* sum_b c_ab G_ab v_b = sum_b c_ab rho_ab: the projection only shifts the diagonal
    m.ravel()[:: len(v) + 1] = -np.vecdot(c, rho)
    return 1j * (m @ v)


def _energy(system: VortexSystem) -> float:
    i, j = _pairs(system.size)
    return float(_pair_energy(system.n, system.strengths, i, j, _separations(system.positions, system.n, i, j)))


def min_pairwise_distance(system: VortexSystem) -> float:
    """Smallest pairwise separation (Euclidean or geodesic); inf for N = 1."""
    return float(np.min(_separations(system.positions, system.n, *_pairs(system.size)), initial=np.inf))


# ---------------------------------------------------------------------------
# planar model


def planar_rhs(system: VortexSystem) -> np.ndarray:
    """Velocities dz_j/dt of the planar model (conjugated pair sum)."""
    system.require("plane", "planar_rhs")
    return _planar_rhs(system.positions, _field(system)[1])


def planar_conserved(system: VortexSystem):
    """The three planar invariants (p_x, p_y, m)."""
    system.require("plane", "planar_conserved")
    return tuple(float(p) for p in _planar_impulses(system.positions, system.strengths))


def planar_hamiltonian(system: VortexSystem) -> float:
    """Planar vortex energy -1/(4 pi) sum_{k != j} G_j G_k log r_jk."""
    system.require("plane", "planar_hamiltonian")
    return _energy(system)


# ---------------------------------------------------------------------------
# CP^n model: Hamiltonian, and the chart-side gradient and vector field that
# serve as the independent oracle of _cpn_rhs


def hamiltonian_cpn(system: VortexSystem) -> float:
    """Vortex Hamiltonian on CP^n (pair sum over the radial Green profile)."""
    system.require("cpn", "hamiltonian_cpn")
    return _energy(system)


def _chart_gradients(system: VortexSystem, charts):
    """Charts (N,), chart values (N, n) and real gradients (N, 2n) of H, (dH/dx_1..dx_n, dH/dy_1..dy_n) per vortex.

    charts=None takes the default chart of each vortex.  The chart lifts a_j have the pivot coordinate 1 and the
    chart values elsewhere.  From their Gram matrix G_jk = <a_j, a_k>, rho_jk = |G_jk|^2 / (|a_j|^2 |a_k|^2) and
    c_jk = C_n Gamma_j Gamma_k df_n/drho(rho_jk),

        dH/da_j = sum_k c_jk (conj(G_jk) conj(a_k) / (|a_j|^2 |a_k|^2) - rho_jk conj(a_j) / |a_j|^2),

    which never divides by G_jk: an orthogonal pair contributes nothing.
    """
    n, N = system.n, system.size
    charts = _default_charts(system.positions) if charts is None else np.asarray(charts)
    ws = _chart_values(system.positions, charts)
    a = _chart_lifts(ws, charts)
    gram = a @ a.conj().T
    norms2 = gram.diagonal().real
    inv = 1.0 / np.outer(norms2, norms2)
    rho = np.abs(gram) ** 2 * inv
    rho.ravel()[:: N + 1] = 0.0  # keeps the slope finite; the self-coupling is dropped below
    c = greens_constant(n) * np.outer(system.strengths, system.strengths) * greens_radial_slope(n, 1.0 - rho)
    c.ravel()[:: N + 1] = 0.0
    wirt = ((c * inv * gram) @ a - ((c * rho).sum(axis=1) / norms2)[:, None] * a).conj()
    d = wirt[_off_pivot(charts, wirt.shape)].reshape(N, n)
    return charts, ws, np.concatenate([2.0 * d.real, -2.0 * d.imag], axis=1)


def grad_hamiltonian(system: VortexSystem, charts=None):
    """Analytic chart gradient of hamiltonian_cpn: the arrays (charts, gradients) of shapes (N,) and (N, 2n).

    Row a is the real 2n-vector (dH/dx_1..dx_n, dH/dy_1..dy_n) in the affine chart charts[a] of vortex a (by default
    its largest coordinate).  Matches central finite differences of hamiltonian_cpn to about 1e-6 relative.
    """
    system.require("cpn", "grad_hamiltonian")
    charts, _, grads = _chart_gradients(system, charts)
    return charts, grads


def _sharp(system: VortexSystem, charts):
    """Charts (N,), chart metrics h (N, n, n), gradients and velocities (N, 2n): Gamma W velocity = gradient."""
    charts, ws, grads = _chart_gradients(system, charts)
    h = fubini_study_metric(ws)
    vels = np.linalg.solve(_symplectic_matrix(h), grads[..., None])[..., 0] / system.strengths[:, None]
    return charts, h, grads, vels


def hamiltonian_vector_field(system: VortexSystem, charts=None):
    """Chart velocities of the Hamiltonian flow: the arrays (charts, velocities) of shapes (N,) and (N, 2n).

    Row a solves Gamma_a omega_a(X, .) = d_a H in chart charts[a], as in grad_hamiltonian, with the chart's
    Fubini-Study symplectic matrix, so the weighted form Omega = sum Gamma_a omega_a satisfies Omega(X, Y) = dH(Y).
    """
    system.require("cpn", "hamiltonian_vector_field")
    charts, _, _, vels = _sharp(system, charts)
    return charts, vels


def omega_identity_defect(system: VortexSystem, rng=None) -> float:
    """Max defect |Gamma_a omega_a(X_a, Y) - d_a H(Y)| over random unit test vectors.

    The convention self-test of the sharp operator: omega(X, Y) = Im(eta^T h conj(xi)) comes from the complex
    metric, xi = X_x + i X_y and eta being the chart vectors of X and Y, not from the matrix W the velocities solve
    with, so a W wired to h with a wrong sign or scale shows.  A common factor in h itself does not; the field gate
    of the dynamics suite in verify sees that.
    """
    system.require("cpn", "omega_identity_defect")
    rng = np.random.default_rng(0) if rng is None else rng
    _, h, grads, vels = _sharp(system, None)
    n = system.n
    y = rng.standard_normal((system.size, _OMEGA_SAMPLES, 2 * n))
    y /= np.sqrt(_squared_norm(y, 1))[..., None]
    xi = vels[:, :n] + 1j * vels[:, n:]
    omega = ((y[..., :n] + 1j * y[..., n:]) @ (h @ xi.conj()[..., None])).imag[..., 0]
    return float(np.abs(system.strengths[:, None] * omega - (y @ grads[..., None])[..., 0]).max())


# ---------------------------------------------------------------------------
# time integration


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run as arrays: recorded times, positions and monitors, and the charts read from them.

    ``positions`` holds the planar positions (T, N) or the unit lifts
    (T, N, n+1) of every recorded step; row 0 is ``system.positions``.
    """

    system: VortexSystem
    times: np.ndarray
    positions: np.ndarray
    monitors: np.ndarray  # columns: H, momentum norm, min pairwise distance

    @functools.cached_property
    def charts(self) -> np.ndarray:
        """The active affine chart (T, N) per step and vortex: _pick_charts of the recorded lifts, zeros on the plane."""
        return _pick_charts(np.abs(self.positions)) if self.system.n else np.zeros(self.positions.shape, dtype=int)


def _rk4_step(rhs, y, half, full):
    """One classical RK4 step for a right-hand side linear in its weights, given them pre-scaled by dt/2 and dt.

    With a_1 = f(y; half), a_2 = f(y + a_1; half), a_3 = f(y + a_2; full),
    a_4 = f(y + a_3; half), the stages are a_i = (dt/2) k_i for i = 1, 2, 4
    and a_3 = dt k_3, so y + (dt/6)(k_1 + 2 k_2 + 2 k_3 + k_4) is the return value.
    """
    a1 = rhs(y, half)
    a2 = rhs(y + a1, half)
    a3 = rhs(y + a2, full)
    a4 = rhs(y + a3, half)
    return y + (a1 + 2.0 * a2 + a3 + a4) / 3.0


# Dormand-Prince 5(4) embedded pair (autonomous system, no c-nodes needed): rows 2-7 of the
# stage matrix, the last being the fifth-order weights B5 (first same as last), and E = B5 - B4
_DP_A = [
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]


def _dp_step(rhs, y, w):
    """One Dormand-Prince 5(4) step for a right-hand side linear in its weights, given them pre-scaled by the step h.

    The stages are a_i = f(y + sum_j A_ij a_j; w) = h k_i; the last is taken at the fifth-order state, returned
    with the error estimate sum_i E_i a_i (no difference of two unit-size states)."""
    a = [rhs(y, w)]
    for row in _DP_A:
        x = y + sum(c * k for c, k in zip(row, a))
        a.append(rhs(x, w))
    return x, sum(e * k for e, k in zip(_DP_E, a))


def _pick_charts(mags: np.ndarray) -> np.ndarray:
    """Active charts (T, N) of T consecutive states, from their coordinate magnitudes (T, N, n+1).

    Hysteresis, step by step: a vortex starts in the chart of its largest coordinate in state 0 and keeps a chart
    until its pivot magnitude drops to pivot_threshold(n), then takes its largest coordinate.  A reverse running
    minimum gives, per state and coordinate, the next state where that coordinate is weak: one pass per switch.
    """
    weak = mags <= pivot_threshold(mags.shape[-1] - 1)
    T, rows = len(mags), np.arange(mags.shape[1])
    next_weak = np.minimum.accumulate(np.where(weak, np.arange(T)[:, None, None], T)[::-1])[::-1]
    out = np.empty(mags.shape[:2], dtype=int)
    charts, start = _default_charts(mags[0]), 0
    while start < T:
        stop = int(next_weak[start, rows, charts].min())
        out[start:stop] = charts
        if stop < T:
            charts = np.where(weak[stop, rows, charts], _default_charts(mags[stop]), charts)
            out[stop] = charts
        start = stop + 1
    return out


def _check_run(dt: float, steps: int, method: str) -> None:
    """The run rules of integrate; each broken rule raises ConfigurationError with its own message."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; choose from {list(METHODS)}")
    if isinstance(dt, bool) or not isinstance(dt, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"dt must be a real number, got {dt!r}")
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
        raise ConfigurationError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigurationError(f"steps must be nonnegative, got {steps}")
    if steps > sys.float_info.max:  # dt * steps would raise OverflowError, and the digits make no message
        raise ConfigurationError(f"steps of about 10^{math.log10(steps):.0f} exceed the float range of the horizon dt * steps")
    if method == "rk4" and steps > MAX_RECORDED_STEPS:
        raise ConfigurationError(f"{steps} rk4 steps exceed the cap of {MAX_RECORDED_STEPS} recorded steps")
    if not math.isfinite(dt * steps):
        raise ConfigurationError(f"the horizon dt * steps = {dt} * {steps} is not finite")


def _field(system: VortexSystem):
    """The right-hand side that integrate steps the system with, and its vortex weights."""
    if system.n:
        return functools.partial(_cpn_rhs, n=system.n), greens_constant(system.n) * system.strengths
    return _planar_rhs, (1j * PLANE_CONSTANT) * system.strengths


def _retract(x: np.ndarray, n: int) -> np.ndarray:
    """A new state, on CP^n with its lifts rescaled to unit norm."""
    return x / np.sqrt(_squared_norm(x, 1))[:, None] if n else x


def _rk4_states(system: VortexSystem, dt: float, steps: int):
    """(t, state) after each of ``steps`` fixed RK4 steps."""
    rhs, weights = _field(system)
    half, full = weights * (0.5 * dt), weights * dt
    y = system.positions
    for k in range(steps):
        y = _retract(_rk4_step(rhs, y, half, full), system.n)
        yield (k + 1) * dt, y


def _dp45_states(system: VortexSystem, t_end: float, h: float):
    """(t, state) after each accepted Dormand-Prince step to t_end, from a first trial step h (atol 1e-10, rtol 1e-9);
    raises NumericError on step size underflow, a non-finite error estimate, or MAX_RECORDED_STEPS steps before t_end."""
    rhs, weights = _field(system)
    y, t, accepted = system.positions, 0.0, 0
    # both guards scale with the horizon, so a horizon of any size is integrated
    while t < t_end - 1e-15 * t_end:
        h = min(h, t_end - t)
        if h < 1e-14 * t_end:
            raise NumericError(f"adaptive step size underflow at t = {t}")
        if accepted >= MAX_RECORDED_STEPS:
            raise NumericError(f"adaptive run reached the cap of {MAX_RECORDED_STEPS} recorded steps at t = {t} < t_end = {t_end}")
        y5, err_vec = _dp_step(rhs, y, h * weights)
        scale = 1e-10 + 1e-9 * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))
        if not math.isfinite(err):
            raise NumericError(f"non-finite error estimate at step {accepted + 1} (t = {t})")
        if err <= 1.0:
            t, accepted, y = t + h, accepted + 1, _retract(y5, system.n)
            yield t, y
        h *= min(5.0, max(0.2, 0.9 * (err if err > 0.0 else 1e-10) ** (-0.2)))


def _check_states(system: VortexSystem, pairs, queue: list, times: list):
    """The last T recorded states as an array, and their monitors (T, 3).

    ``times`` holds every time recorded so far.  One mask finds the first failing step, and only then is
    its failure named: a non-finite state (NumericError), then a collision (CollisionError), then a
    non-finite H or momentum norm (NumericError).
    """
    x = np.array(queue)
    first, n, g = len(times) - len(x), system.n, system.strengths
    r = _separations(x, n, *pairs)  # the one sweep over the pairs
    h = _pair_energy(n, g, *pairs, r)
    mom = np.sqrt(_squared_norm(_momentum_sum(x, g), 2) if n else sum(p**2 for p in _planar_impulses(x, g)))
    dmin = np.min(r, axis=1, initial=np.inf)
    # a non-finite state has a non-finite momentum norm (each entry enters it squared, times a nonzero strength)
    bad = np.flatnonzero(~(np.isfinite(h) & np.isfinite(mom)) | (dmin < COLLISION_THRESHOLD))
    if bad.size:
        i = int(bad[0])
        if not np.isfinite(x[i]).all():
            raise NumericError(f"non-finite state at step {first + i} (t = {times[first + i]})")
        if dmin[i] < COLLISION_THRESHOLD:
            raise _collision(pairs, r[i], step_index=first + i)
        raise NumericError(f"non-finite energy or momentum norm at step {first + i}")
    return x, np.column_stack([h, mom, dmin])


def integrate(system: VortexSystem, dt: float, steps: int, method: str = "rk4") -> Trajectory:
    """Advance the system for ``steps`` steps of nominal size ``dt``.

    "rk4" takes fixed steps; "rk45_adaptive" integrates to t_end = dt*steps,
    recording every accepted step.  The run rules (_check_run) ask for a
    method of METHODS, a real number dt > 0, an integer steps >= 0, a finite
    horizon dt*steps and at most MAX_RECORDED_STEPS rk4 steps.  The run
    stops at the first failure by step index: CollisionError, carrying the index of the first step
    that brought two vortices within COLLISION_THRESHOLD, or NumericError
    at a non-finite state, H or momentum norm, or from the adaptive stepper
    (see _dp45_states), after any failure among the states before it.
    """
    _check_run(dt, steps, method)
    pairs = _pairs(system.size)
    batch = max(1, _MONITOR_PAIRS // max(1, len(pairs[0])))
    stepper = _rk4_states(system, dt, steps) if method == "rk4" else _dp45_states(system, dt * steps, dt)
    times, queue, checked, failure = [0.0], [system.positions], [], None
    # overflow surfaces as the non-finite values checked here; NumPy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for t, x in stepper:
                times.append(t)
                queue.append(x)
                if len(queue) >= batch:
                    states, queue = queue, []
                    checked.append(_check_states(system, pairs, states, times))
        except NumericError as exc:
            failure = exc  # raised once the queued states, whose failures come first, are checked
        if queue:
            checked.append(_check_states(system, pairs, queue, times))
    if failure is not None:
        raise failure
    positions, monitors = (np.concatenate(parts) for parts in zip(*checked))
    return Trajectory(system, np.asarray(times), positions, monitors)


def planar_pair_period(traj: Trajectory) -> float | None:
    """Rotation period of a planar two-vortex run from the swept pair angle; None for other runs."""
    if traj.system.manifold != "plane" or traj.system.size != 2 or traj.times.size < 3:
        return None
    rel = traj.positions[:, 0] - traj.positions[:, 1]
    angle = float(np.sum(np.angle(rel[1:] / rel[:-1])))
    if abs(angle) < 1e-12:
        return None
    return float(traj.times[-1] * (2.0 * math.pi / abs(angle)))


def _write_table(fh, header: str, table: np.ndarray, row_format: str) -> None:
    """Header, then one row_format line per row; floats as %.17g round-trip and diff bit-stably."""
    fh.write(header + "\n")
    row_format += "\n"
    for row in table.tolist():
        fh.write(row_format % tuple(row))


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Emit a trajectory as CSV: t, per-vortex chart and chart coordinates,
    then the three monitors."""
    x, charts, n = traj.positions, traj.charts, traj.system.n
    T, N = charts.shape
    dims, suffixes = (n, [f"_{j}" for j in range(n)]) if n else (1, [""])
    values = _chart_values(x, charts) if n else x[:, :, None]
    coord_names = [f"chart{k}," + ",".join(f"x{k}{s},y{k}{s}" for s in suffixes) for k in range(N)]

    cells = np.empty((T, N, 1 + 2 * dims))
    cells[:, :, 0] = charts
    cells[:, :, 1::2] = values.real
    cells[:, :, 2::2] = values.imag
    table = np.column_stack([traj.times, cells.reshape(T, -1), traj.monitors])
    row_format = ",".join(["%.17g"] + ["%d" + ",%.17g" * (2 * dims)] * N + ["%.17g"] * 3)
    _write_table(fh, "t," + ",".join(coord_names) + ",H,momentum_norm,min_dist", table, row_format)


def write_monitor_csv(traj: Trajectory, fh) -> None:
    """Emit the monitors as CSV: t, H, momentum norm, min pairwise distance."""
    table = np.column_stack([traj.times, traj.monitors])
    _write_table(fh, "t,H,momentum_norm,min_dist", table, ",".join(["%.17g"] * 4))
