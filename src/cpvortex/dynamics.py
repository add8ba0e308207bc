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

the geometric sum built up from w in n - 1 steps.  RK4 takes its weights
pre-scaled by dt/2 and dt once per run; per step only the retraction to
unit lifts follows, and charts, finiteness and monitors are checked once
per batch of recorded states.  The chart-side field
is kept as the independent oracle of that formula: grad_hamiltonian takes
dH from one Gram matrix of the chart lifts (pivot coordinate 1), and
hamiltonian_vector_field solves omega X = dH for all vortices in one
batched solve with the Fubini-Study symplectic matrices of their affine
charts.  Its sign convention is the one that makes Omega(X, Y) = dH(Y)
hold with positive sign (checked by a self-test).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigurationError, NumericError
from .geom import (ProjectivePoint, _chart_lifts, _chart_values, _default_charts, _lift_distance, _off_pivot,
                   fubini_study_metric, pivot_threshold)
from .greens import PLANE_CONSTANT, greens_constant, greens_radial_part, greens_radial_slope
from .momentum import _momentum_sum

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
]

# Geodesic separations below this are numerically meaningless against the
# logarithmic singularity of G at double precision.
COLLISION_THRESHOLD = 1e-4

METHODS = ("rk4", "rk45_adaptive")

# a run records at most this many steps after its initial state, which
# bounds its time and memory whatever dt, steps or t_end ask for
MAX_RECORDED_STEPS = 1_000_000

# integrate checks a batch of recorded states at once, the batch holding
# about this many vortex pairs: their monitors come from one pair sweep,
# their finiteness from one pass and their charts from one hysteresis loop,
# which amortizes the per-call cost of all three for small N; a failure
# stops the run within a batch of steps
_MONITOR_PAIRS = 256

# random unit test vectors per vortex in omega_identity_defect
_OMEGA_SAMPLES = 10


@dataclass(frozen=True, eq=False)
class VortexSystem:
    """N point vortices with nonzero strengths on a single manifold, held as arrays.

    ``manifold`` is "plane" (``positions``: complex array (N,)) or "cpn"
    (``positions``: unit lifts (N, n+1) of points of CP^n); ``strengths``
    is a float array (N,).  Both are read-only copies of the input; lifts
    must have unit norm within 1e-10 and are never renormalized.  Pairwise
    separations must exceed COLLISION_THRESHOLD.
    """

    manifold: str
    positions: np.ndarray
    strengths: np.ndarray
    n: int = 0

    def __post_init__(self):
        if self.manifold not in ("plane", "cpn"):
            raise ConfigurationError(f"manifold must be 'plane' or 'cpn', got {self.manifold!r}")
        x = np.array(self.positions, dtype=complex)
        g = np.array(self.strengths, dtype=float)
        if self.manifold == "plane":
            if self.n != 0:
                raise ConfigurationError("planar systems have no projective dimension")
            if x.ndim != 1:
                raise ConfigurationError(f"planar positions must be complex numbers (N,), got shape {x.shape}")
        elif x.ndim != 2 or self.n < 1 or x.shape[1] != self.n + 1:
            raise ConfigurationError(f"cpn positions must be unit lifts (N, n+1), got shape {x.shape} for n = {self.n}")
        if len(x) < 1 or g.shape != x.shape[:1]:
            raise ConfigurationError("need N >= 1 positions with matching strengths")
        if not (np.isfinite(g).all() and g.all()):
            raise ConfigurationError("all strengths must be finite and nonzero")
        if not np.isfinite(x).all():
            raise ConfigurationError("positions must be finite")
        if self.n and np.any(np.abs(np.linalg.norm(x, axis=1) - 1.0) > 1e-10):
            raise ConfigurationError("cpn positions must be unit lifts (norm 1 within 1e-10)")
        x.flags.writeable = g.flags.writeable = False
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "strengths", g)
        pairs = _pairs(len(x))
        r = _separations(x, self.n, *pairs)
        if r.size and r.min() < COLLISION_THRESHOLD:
            raise _collision(pairs, r)

    @classmethod
    def plane(cls, positions, strengths) -> "VortexSystem":
        return cls("plane", positions, strengths)

    @classmethod
    def cpn(cls, points, strengths) -> "VortexSystem":
        """A CP^n system from ProjectivePoints of one dimension, or from unit lifts (N, n+1)."""
        points = list(points)
        if points and all(isinstance(p, ProjectivePoint) for p in points):
            dims = sorted({p.n for p in points})
            if len(dims) != 1:
                raise ConfigurationError(f"all positions must lie on one CP^n, got dimensions {dims}")
            points = [p.coords for p in points]
        lifts = np.asarray(points, dtype=complex)
        return cls("cpn", lifts, strengths, n=lifts.shape[-1] - 1)

    @property
    def size(self) -> int:
        return len(self.positions)

    def require(self, manifold: str, caller: str) -> None:
        """Raise ConfigurationError unless the system lives on the given manifold."""
        if self.manifold != manifold:
            raise ConfigurationError(f"{caller} needs a {'planar' if manifold == 'plane' else manifold} system")


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
        return np.abs(x[..., i] - x[..., j])
    return _lift_distance(x[..., i, :], x[..., j, :])


def _planar_impulses(z: np.ndarray, g: np.ndarray):
    return z.real @ g, z.imag @ g, 0.5 * ((z.real**2 + z.imag**2) @ g)


def _pair_energy(n: int, g: np.ndarray, i, j, r: np.ndarray):
    """H from the pair separations r (each unordered pair once)."""
    weights = g[i] * g[j]
    if n == 0:
        return (np.log(r) @ weights) * PLANE_CONSTANT
    return greens_constant(n) * (greens_radial_part(n, r) @ weights)


def _monitors(x: np.ndarray, g: np.ndarray, n: int, i, j):
    """H, momentum norm and pair separations, from one sweep over the pairs."""
    r = _separations(x, n, i, j)
    if n == 0:
        mom = np.sqrt(sum(p**2 for p in _planar_impulses(x, g)))
    else:
        mom = np.sqrt((np.abs(_momentum_sum(x, g)) ** 2).sum(axis=(-2, -1)))
    return _pair_energy(n, g, i, j, r), mom, r


def _planar_rhs(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h dz_j/dt = conj( sum_{k != j} w_k / (z_j - z_k) ) for the weights w = i PLANE_CONSTANT h Gamma."""
    diff = z[:, None] - z[None, :]
    diff.ravel()[:: len(z) + 1] = 1.0
    inv = 1.0 / diff
    inv.ravel()[:: len(z) + 1] = 0.0
    return (inv @ w).conj()


def _cpn_rhs(v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """h dv_a/dt = i (I - v_a v_a*) sum_{b != a} c_ab G_ab v_b for unit lifts v and the weights w = C_n h Gamma.

    Here c_ab = w_b (1/s2 + ... + 1/s2^n), s2 = 1 - rho_ab: the geometric sum
    of greens_radial_slope times -2 w_b, built up from w so that h and C_n
    cost no call per evaluation.  The weights are real so that the N x N
    coupling stays real; the one factor i multiplies the (N, n+1) result.
    """
    gram = v @ v.conj().T
    rho = np.abs(gram) ** 2
    rho.ravel()[:: len(v) + 1] = 0.0  # keeps the coupling finite; the diagonal of m is set below
    s2 = 1.0 - rho
    c = w / s2
    for _ in range(n - 1):
        c = (c + w) / s2
    m = c * gram
    # v_a* sum_b c_ab G_ab v_b = sum_b c_ab rho_ab: the projection only shifts the diagonal
    m.ravel()[:: len(v) + 1] = -np.vecdot(c, rho)
    return 1j * (m @ v)


def _energy(system: VortexSystem) -> float:
    i, j = _pairs(system.size)
    return float(_pair_energy(system.n, system.strengths, i, j, _separations(system.positions, system.n, i, j)))


def min_pairwise_distance(system: VortexSystem) -> float:
    """Smallest pairwise separation (Euclidean or geodesic); inf for N = 1."""
    r = _separations(system.positions, system.n, *_pairs(system.size))
    return float(r.min()) if r.size else math.inf


# ---------------------------------------------------------------------------
# planar model


def planar_rhs(system: VortexSystem) -> np.ndarray:
    """Velocities dz_j/dt of the planar model (conjugated pair sum)."""
    system.require("plane", "planar_rhs")
    return _planar_rhs(system.positions, (1j * PLANE_CONSTANT) * system.strengths)


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
    """Chart values (N, n) and real gradients (N, 2n) of H, (dH/dx_1..dx_n, dH/dy_1..dy_n) per vortex.

    The chart lifts a_j have the pivot coordinate 1 and the chart values
    elsewhere.  From their Gram matrix G_jk = <a_j, a_k>, rho_jk =
    |G_jk|^2 / (|a_j|^2 |a_k|^2) and c_jk = C_n Gamma_j Gamma_k df_n/drho(rho_jk),

        dH/da_j = sum_k c_jk (conj(G_jk) conj(a_k) / (|a_j|^2 |a_k|^2) - rho_jk conj(a_j) / |a_j|^2),

    which never divides by G_jk: an orthogonal pair contributes nothing.
    """
    n, N = system.n, system.size
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
    return ws, np.concatenate([2.0 * d.real, -2.0 * d.imag], axis=1)


def grad_hamiltonian(system: VortexSystem, charts=None):
    """Analytic chart gradient of hamiltonian_cpn.

    Returns a list of (chart_index, gradient) pairs, one per vortex; the
    gradient is the real 2n-vector (dH/dx_1..dx_n, dH/dy_1..dy_n) in that
    vortex's affine chart.  Matches central finite differences of
    hamiltonian_cpn to about 1e-6 relative.
    """
    system.require("cpn", "grad_hamiltonian")
    charts = _default_charts(system.positions) if charts is None else np.asarray(charts)
    _, grads = _chart_gradients(system, charts)
    return list(zip(charts.tolist(), grads))


def _sharp(system: VortexSystem, charts):
    """Symplectic matrices W (N, 2n, 2n), gradients (N, 2n) and velocities (N, 2n), Gamma W velocity = gradient."""
    ws, grads = _chart_gradients(system, charts)
    h = fubini_study_metric(ws)
    W = np.block([[h.imag, -h.real], [h.real, h.imag]])
    return W, grads, np.linalg.solve(W, grads[..., None])[..., 0] / system.strengths[:, None]


def hamiltonian_vector_field(system: VortexSystem, charts=None):
    """Chart velocities of the Hamiltonian flow, one (chart_index, 2n-vector) per vortex.

    Per vortex the velocity solves Gamma_alpha omega_alpha(X, .) = d_alpha H
    with the chart's Fubini-Study symplectic matrix, so the weighted form
    Omega = sum Gamma_alpha omega_alpha satisfies Omega(X, Y) = dH(Y).
    """
    system.require("cpn", "hamiltonian_vector_field")
    charts = _default_charts(system.positions) if charts is None else np.asarray(charts)
    _, _, vels = _sharp(system, charts)
    return list(zip(charts.tolist(), vels))


def omega_identity_defect(system: VortexSystem, rng=None) -> float:
    """Max defect |Gamma_a omega_a(X_a, Y) - d_a H(Y)| over random unit test vectors.

    This is the convention self-test for the sharp operator: it must come
    out near machine precision, otherwise the symplectic solve is wired
    with the wrong sign or scaling.
    """
    system.require("cpn", "omega_identity_defect")
    rng = np.random.default_rng(0) if rng is None else rng
    W, grads, vels = _sharp(system, _default_charts(system.positions))
    y = rng.standard_normal((system.size, _OMEGA_SAMPLES, 2 * system.n))
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    residual = system.strengths[:, None] * (W @ vels[..., None])[..., 0] - grads
    return float(np.abs(y @ residual[..., None]).max())


# ---------------------------------------------------------------------------
# time integration


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One run as arrays: recorded times, positions, monitors and charts.

    ``positions`` holds the planar positions (T, N) or the unit lifts
    (T, N, n+1) of every recorded step; row 0 is ``system.positions``.
    ``charts`` is the active affine chart per step and vortex, picked from
    the recorded lifts with hysteresis (zeros on the plane).
    """

    system: VortexSystem
    times: np.ndarray
    positions: np.ndarray
    monitors: np.ndarray  # columns: H, momentum norm, min pairwise distance
    charts: np.ndarray


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


# Dormand-Prince 5(4) embedded pair (autonomous system, no c-nodes needed)
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(rhs, y, dt, w):
    ks = [rhs(y, w)]
    for i in range(1, 7):
        acc = sum(a * k for a, k in zip(_DP_A[i], ks))
        ks.append(rhs(y + dt * acc, w))
    y5 = y + dt * sum(b * k for b, k in zip(_DP_B5, ks))
    y4 = y + dt * sum(b * k for b, k in zip(_DP_B4, ks))
    return y5, y5 - y4


def _pick_charts(mags: np.ndarray, charts: np.ndarray, threshold: float) -> np.ndarray:
    """Active charts (T, N) of T consecutive states, from their coordinate magnitudes (T, N, n+1).

    Hysteresis, step by step: a vortex keeps its chart until the pivot
    magnitude drops to ``threshold``, then takes its largest coordinate.
    ``charts`` are those of the state before the first.  Each pass of the
    loop finds the next switch over the rest of the states at once.
    """
    rows = np.arange(mags.shape[1])
    out = np.empty(mags.shape[:2], dtype=int)
    start = 0
    while True:
        weak = mags[start:, rows, charts] <= threshold
        switches = np.flatnonzero(weak.any(axis=1))
        if not switches.size:
            out[start:] = charts
            return out
        k = start + int(switches[0])
        out[start:k] = charts
        charts = np.where(weak[switches[0]], mags[k].argmax(axis=1), charts)
        out[k] = charts
        start = k + 1


def integrate(system: VortexSystem, dt: float, steps: int, method: str = "rk4") -> Trajectory:
    """Advance the system for ``steps`` steps of nominal size ``dt``.

    "rk4" takes fixed steps; "rk45_adaptive" integrates to t_end = dt*steps
    with an embedded Dormand-Prince pair (atol 1e-10, rtol 1e-9, safety
    0.9), recording every accepted step.  The right-hand sides are linear
    in the vortex weights w (C_n Gamma on CP^n, i PLANE_CONSTANT Gamma on
    the plane) and return h times the velocity for the weights h w; RK4
    builds w dt/2 and w dt once per run, so a stage costs no scalar
    multiply, and a step is four right-hand sides and nine array operations.  On
    CP^n the state is the array of unit lifts, renormalized after each
    step; that is all the per-step work besides the stages.  The recorded
    states are checked in batches of about _MONITOR_PAIRS vortex pairs:
    one sweep over the pairs gives their monitors, one pass their
    finiteness, and the chart hysteresis (a chart is switched when its
    pivot weakens) runs once per switch.  The run stops at the first
    failure by step index: CollisionError, carrying the index of the first
    step that brought two vortices within COLLISION_THRESHOLD, or
    NumericError at the first non-finite H or momentum norm, state or
    adaptive error estimate.  A run records at most MAX_RECORDED_STEPS
    steps: more rk4 steps raise ConfigurationError, and an adaptive run
    that reaches the cap before t_end stops with NumericError.
    """
    if dt <= 0.0 or steps < 0 or not np.isfinite(dt * steps):
        raise ConfigurationError(f"need dt > 0 and steps >= 0 with finite horizon, got {dt}, {steps}")
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    if method == "rk4" and steps > MAX_RECORDED_STEPS:
        raise ConfigurationError(f"{steps} rk4 steps exceed the cap of {MAX_RECORDED_STEPS} recorded steps")

    y, g = system.positions, system.strengths
    n = system.n
    pairs = _pairs(system.size)
    batch = max(1, _MONITOR_PAIRS // max(1, len(pairs[0])))
    if n == 0:
        rhs = _planar_rhs
        weights = (1j * PLANE_CONSTANT) * g
    else:
        rhs = functools.partial(_cpn_rhs, n=n)
        weights = greens_constant(n) * g
        charts = _default_charts(y)
        thr = pivot_threshold(n)

    times, positions, chart_rows, monitors = [0.0], [y], [], []
    checked = 0  # recorded states whose monitors are computed

    def flush():
        """Check the states recorded since the last flush; raises at the first failure by step index."""
        nonlocal checked, charts
        x = np.array(positions[checked:])
        h, mom, r = _monitors(x, g, n, *pairs)
        dmin = r.min(axis=1) if r.shape[1] else np.full(len(h), math.inf)
        finite = np.isfinite(x).reshape(len(x), -1).all(axis=1)
        stop = len(x) if finite.all() else int(finite.argmin())  # the states after a non-finite one are not run
        hit = np.flatnonzero(dmin[:stop] < COLLISION_THRESHOLD)
        if hit.size:
            k = int(hit[0])
            raise _collision(pairs, r[k], step_index=checked + k)
        bad = np.flatnonzero(~(np.isfinite(h[:stop]) & np.isfinite(mom[:stop])))  # min_dist is inf for N = 1
        if bad.size:
            raise NumericError(f"non-finite energy or momentum norm at step {checked + int(bad[0])}")
        if stop < len(x):
            raise NumericError(f"non-finite state at step {checked + stop} (t = {times[checked + stop]})")
        if n:
            chart_rows.append(_pick_charts(np.abs(x), charts, thr))
            charts = chart_rows[-1][-1]
        else:
            chart_rows.append(np.zeros(x.shape, dtype=int))
        monitors.append(np.column_stack([h, mom, dmin]))
        checked = len(positions)

    def fail(message):
        if checked < len(positions):
            flush()  # a failure among the queued states comes first
        raise NumericError(message)

    def record(t, x):
        """Retract the new state and queue it for the batched checks; returns it."""
        if n:
            x /= np.sqrt(np.vecdot(x, x).real)[:, None]
        times.append(t)
        positions.append(x)
        if len(positions) - checked >= batch:
            flush()
        return x

    # overflow surfaces as the non-finite values checked here; NumPy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "rk4":
            half, full = weights * (0.5 * dt), weights * dt
            for k in range(steps):
                y = record((k + 1) * dt, _rk4_step(rhs, y, half, full))
        else:
            t_end = dt * steps
            t = 0.0
            h = dt
            # both guards scale with the horizon, so a horizon of any size is integrated
            while t < t_end - 1e-15 * t_end:
                h = min(h, t_end - t)
                if h < 1e-14 * t_end:
                    fail(f"adaptive step size underflow at t = {t}")
                if len(times) > MAX_RECORDED_STEPS:
                    fail(f"adaptive run reached the cap of {MAX_RECORDED_STEPS} recorded steps at t = {t} < t_end = {t_end}")
                y5, err_vec = _dp_step(rhs, y, h, weights)
                scale = 1e-10 + 1e-9 * np.maximum(np.abs(y), np.abs(y5))
                err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))
                if not math.isfinite(err):
                    fail(f"non-finite error estimate at step {len(times)} (t = {t})")
                if err <= 1.0:
                    t += h
                    y = record(t, y5)
                factor = 0.9 * (err if err > 0.0 else 1e-10) ** (-0.2)
                h *= min(5.0, max(0.2, factor))
        if checked < len(positions):
            flush()

    return Trajectory(system, np.asarray(times), np.array(positions), np.concatenate(monitors), np.concatenate(chart_rows))


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
    x, charts = traj.positions, traj.charts
    T, N = charts.shape
    if x.ndim == 2:
        dims, suffixes = 1, [""]
        values = x[:, :, None]
    else:
        dims = x.shape[2] - 1
        suffixes = [f"_{j}" for j in range(dims)]
        values = _chart_values(x, charts)
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
