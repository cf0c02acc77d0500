"""Working substances and their canonical-ensemble state functions.

A substance is a parameterized family of energy levels E_n(L) over one
externally controlled coordinate L (box width, cavity length, inverse
magnetic field).  Every 1D spectrum is E_n = E_0 + Delta g_n with E_0 and
Delta proportional to L^-p, so each equilibrium quantity depends on
(beta, L) only through x = beta Delta, and the separable 2D/3D kinds are d
copies of their 1D axis.  One exact kernel per 1D kind gives
(ln z, <g>, Var g) at x with no truncated sum: closed forms for the linear
and two-level spectra, and for box1d a short direct series above x = 1 and
the Jacobi theta inversion below it.  A state's probability vector is built
only when it is read.

Natural units throughout: hbar = m = k = 1 (mass and the oscillator mode
constant remain as explicit positive parameters).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import DEFAULT_POLICY, NumericsPolicy

# kind -> (dimension d, scaling power p in E_n ~ L^{-p}, kind of one axis)
_KIND_TABLE = {
    "box1d": (1, 2, "box1d"),
    "box2d": (2, 2, "box1d"),
    "box3d": (3, 2, "box1d"),
    "harmonic1d": (1, 1, "harmonic1d"),
    "harmonic2d": (2, 1, "harmonic1d"),
    "harmonic3d": (3, 1, "harmonic1d"),
    "cavity": (1, 1, "cavity"),
    "spin_half": (1, 1, "spin_half"),
}

KINDS = tuple(_KIND_TABLE)
BOX_KINDS = ("box1d", "box2d", "box3d")
OSCILLATOR_KINDS = ("harmonic1d", "harmonic2d", "harmonic3d", "cavity")


@dataclass(frozen=True)
class SpectrumModel:
    """A working substance: energy-level family plus adiabatic exponent.

    mass is used by the box kinds, mode_constant (the single-mode cavity's
    combined hbar*s*pi*c, or the oscillator's hbar*omega*L product) by the
    oscillator kinds; spin_half uses neither.  The adiabatic exponent is
    gamma = 1 + p/d, the exponent of the substance's volume coordinate in
    F V^gamma = const along adiabats.
    """

    kind: str
    mass: float = 1.0
    mode_constant: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_TABLE:
            raise ValueError(f"unknown substance kind {self.kind!r}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.mode_constant <= 0.0:
            raise ValueError(
                f"mode_constant must be positive, got {self.mode_constant}"
            )

    @property
    def dimension(self) -> int:
        return _KIND_TABLE[self.kind][0]

    @property
    def scaling_power(self) -> int:
        """p in E_n(L) = c_n / L^p: 2 for boxes, 1 for linear spectra."""
        return _KIND_TABLE[self.kind][1]

    @property
    def gamma(self) -> float:
        d, p, _ = _KIND_TABLE[self.kind]
        return 1.0 + p / d

    @property
    def finite_levels(self) -> int | None:
        return 2 if self.kind == "spin_half" else None

    @property
    def axis(self) -> SpectrumModel:
        """The one-dimensional kind of which this kind is `dimension` copies.

        box2d/3d are box1d axes of the same mass, harmonic2d/3d harmonic1d
        axes of the same mode constant; the 1D kinds are their own axis.
        """
        kind = _KIND_TABLE[self.kind][2]
        return self if kind == self.kind else replace(self, kind=kind)

    def level_energies(self, L: float, count: int) -> np.ndarray:
        """First `count` level energies, flattened by non-decreasing energy.

        Finite spectra return fewer values once exhausted.  For the
        multi-dimensional kinds this enumerates the multi-index spectrum
        directly, the brute-force route that the per-axis state functions
        are tested against; the state functions sum over model.axis instead.
        """
        if L <= 0.0:
            raise ValueError(f"coordinate must be positive, got L={L}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        kind = self.kind
        if kind == "spin_half":
            gap = 0.5 / L
            return np.array([-gap, gap])[:count]
        if kind in BOX_KINDS:
            unit = math.pi**2 / (2.0 * self.mass * L * L)
            if kind == "box1d":
                n = np.arange(1, count + 1, dtype=float)
                return unit * n * n
            squares = _flattened_sums(
                lambda k: np.arange(1, k + 1, dtype=float) ** 2, self.dimension, count
            )
            return unit * squares
        # oscillator family, including the single cavity mode
        omega = self.mode_constant / L
        if kind in ("harmonic1d", "cavity"):
            return omega * (np.arange(count, dtype=float) + 0.5)
        halves = _flattened_sums(
            lambda k: np.arange(k, dtype=float) + 0.5, self.dimension, count
        )
        return omega * halves

    def ground_energy(self, L: float) -> float:
        return float(self.level_energies(L, 1)[0])


def _flattened_sums(axis_values, dim: int, count: int) -> np.ndarray:
    """The `count` smallest sums v_{n_1} + ... + v_{n_dim} over all multi-indices.

    axis_values(k) returns the first k values of one axis, increasing.  The
    grid of the first k values per axis is enumerated, and only sums
    strictly below the smallest sum any point outside the grid can take are
    kept, which guarantees a complete prefix.  Memory grows as k^dim.
    """
    if count == 0:
        return np.zeros(0)
    k = int(count ** (1.0 / dim)) + 2
    while True:
        v = axis_values(k + 1)
        sums = v[:k]
        for _ in range(dim - 1):
            sums = (sums[:, None] + v[None, :k]).ravel()
        sums = np.sort(sums[sums < v[k] + (dim - 1) * v[0]])
        if sums.size >= count:
            return sums[:count]
        k *= 2


def box(dim: int = 1, mass: float = 1.0) -> SpectrumModel:
    """Single particle in a hard-wall box of side L (dim = 1, 2 or 3)."""
    if dim not in (1, 2, 3):
        raise ValueError(f"box dimension must be 1, 2 or 3, got {dim}")
    return SpectrumModel(kind=f"box{dim}d", mass=mass)


def harmonic(dim: int = 1, mode_constant: float = 1.0) -> SpectrumModel:
    """Isotropic harmonic oscillator with frequency mode_constant / L."""
    if dim not in (1, 2, 3):
        raise ValueError(f"oscillator dimension must be 1, 2 or 3, got {dim}")
    return SpectrumModel(kind=f"harmonic{dim}d", mode_constant=mode_constant)


def cavity_mode(mode_constant: float = 1.0) -> SpectrumModel:
    """Single-mode radiation field in a cavity of length L.

    Spectrally identical to the 1D oscillator: E_n = (n + 1/2) kappa / L.
    """
    return SpectrumModel(kind="cavity", mode_constant=mode_constant)


def spin_half() -> SpectrumModel:
    """Spin-1/2 in a magnetic field B, with coordinate L = 1/B.

    Levels -1/(2L) and +1/(2L).  The equilibrium force conjugate to L is
    negative for all temperatures; this is the mechanical consequence of
    the L = 1/B convention and is reported as-is.
    """
    return SpectrumModel(kind="spin_half")


def energy_level(model: SpectrumModel, n: int, L: float) -> float:
    """Energy of one level.

    Index conventions follow the defining formulas: box1d counts from n = 1,
    the oscillator kinds from n = 0, spin_half has n in {0, 1}.  The
    multi-dimensional kinds use the 0-based index of the multi-index
    enumeration flattened by non-decreasing energy.
    """
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")
    kind = model.kind
    if kind == "box1d":
        if n < 1:
            raise ValueError(f"box1d level index must be >= 1, got {n}")
        return math.pi**2 * n * n / (2.0 * model.mass * L * L)
    if kind == "spin_half":
        if n not in (0, 1):
            raise ValueError(f"spin_half level index must be 0 or 1, got {n}")
        return (-0.5 if n == 0 else 0.5) / L
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    return float(model.level_energies(L, n + 1)[n])


# --------------------------------------------------------------------------
# Canonical-ensemble machinery.  ln Z = d (ln z(x) - beta E_0) with the
# ground-shifted axis sum z = sum_n exp(-x g_n) >= 1, which stays in range
# at any temperature.

_PI2 = math.pi**2
_LN2 = math.log(2.0)


def _axis_scale(axis: SpectrumModel, L: float) -> tuple[float, float]:
    """(E_0, Delta) of a 1D kind at L, with E_n = E_0 + Delta g_n.

    g_n = n^2 - 1 (n >= 1) for box1d, n (n >= 0) for the oscillator and the
    cavity, and 0, 1 for the spin.
    """
    kind = axis.kind
    if kind == "box1d":
        e1 = _PI2 / (2.0 * axis.mass * L * L)
        return e1, e1
    if kind == "spin_half":
        return -0.5 / L, 1.0 / L
    omega = axis.mode_constant / L
    return 0.5 * omega, omega


def _kernel(kind: str, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (ln z, <g>, Var g) of one 1D kind at x = beta Delta, an array of
    any shape (or a float); each moment comes back with x's shape.

    z = sum_n exp(-x g_n) over every level, untruncated.  The linear spectra
    (g = n) and the spin have closed forms; box1d takes the direct series
    where x >= 1 and the theta inversion where x < 1, each on its masked
    slice.  Every output is finite for x >= 1e-30.
    """
    x = np.asarray(x, dtype=float)
    if kind == "box1d":
        warm = x < 1.0
        if warm.all():
            return _box1d_theta(x)
        if not warm.any():
            return _box1d_series(x)
        out = np.empty((3,) + x.shape)
        out[:, warm] = _box1d_theta(x[warm])
        out[:, ~warm] = _box1d_series(x[~warm])
        return out[0], out[1], out[2]
    q = np.exp(-x)
    if kind == "spin_half":
        upper = q / (1.0 + q)
        return np.log1p(q), upper, upper / (1.0 + q)
    one_minus_q = -np.expm1(-x)
    # -log(1 - q) loses digits of q where q is small, -log1p(-q) where q -> 1;
    # the second is taken only where q <= 1/2, and never sees q = 1
    log_z = np.where(
        x < _LN2, -np.log(one_minus_q), -np.log1p(-np.minimum(q, 0.5))
    )
    mean = q / one_minus_q
    return log_z, mean, mean / one_minus_q


# g_n = n^2 - 1 for n = 2..8: at x >= 1 the first omitted term, e^-80x, is
# below 2^-60 of the excited sum, which exceeds e^-3x
_SERIES_GAPS = np.arange(2.0, 9.0) ** 2 - 1.0
_THETA_SQUARES = np.array([1.0, 4.0, 9.0])


def _box1d_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln z, <g>, Var g) for g_n = n^2 - 1 at x >= 1, by the direct series.

    ln z = log1p(sum_{n>=2} w_n) keeps its relative accuracy when the excited
    levels are nearly empty; <g^2> - <g>^2 cancels by at most 5 % here.
    """
    w = np.exp(np.multiply.outer(x, -_SERIES_GAPS))
    gw = w * _SERIES_GAPS
    excited = w.sum(axis=-1)
    z = 1.0 + excited
    mean = gw.sum(axis=-1) / z
    var = (gw * _SERIES_GAPS).sum(axis=-1) / z - mean * mean
    return np.log1p(excited), mean, var


def _box1d_theta(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln z, <g>, Var g) for g_n = n^2 - 1 at x < 1, by the Jacobi theta
    inversion (Whittaker & Watson, ch. 21)

        A = 1 + 2 sum_{n>=1} exp(-x n^2) = sqrt(pi/x) theta,
        theta = 1 + 2 sum_{k>=1} exp(-y_k),  y_k = pi^2 k^2 / x,

    with z = e^x (A - 1)/2.  theta's derivatives are carried as x theta'/theta
    and x^2 theta''/theta, sums of y^j e^-y <= 1, so nothing overflows; three
    terms reach e^-88 at x = 1.
    """
    y = np.multiply.outer(_PI2 / x, _THETA_SQUARES)
    e = np.exp(-y)
    ye = y * e
    theta = 1.0 + 2.0 * e.sum(axis=-1)
    d1 = 2.0 * ye.sum(axis=-1) / theta  # x theta'/theta
    d2 = 2.0 * ((y - 2.0) * ye).sum(axis=-1) / theta  # x^2 theta''/theta
    a = np.sqrt(np.pi / x) * theta
    b = d1 - 0.5  # x A'/A
    f = a / (a - 1.0)  # A/(A - 1): converts moments of A into moments of z
    mean = -1.0 - f * b / x
    var = f * (0.5 + d2 - d1 * d1 - b * b / (a - 1.0)) / (x * x)
    return x + np.log(0.5 * (a - 1.0)), mean, var


def _box1d_tail(c: float, n_levels: int) -> float:
    """Bound on sum_{n > N} exp(-c (n^2 - 1)) via the Gaussian comparison
    integral, evaluated in log space so large c cannot overflow."""
    e = math.erfc(math.sqrt(c) * n_levels)
    if e == 0.0:
        return 0.0
    return 0.5 * math.sqrt(math.pi / c) * math.exp(c + math.log(e))


def _shifted_partition(
    kind: str, x: float, log_z: float, policy: NumericsPolicy
) -> tuple[np.ndarray, float]:
    """Occupation vector of one 1D kind at x, and its relative tail bound.

    The level count N comes from a closed-form bound on the omitted weight
    (the Gaussian comparison integral for box1d, q^N for g = n), measured
    against the exact z = exp(log_z) and driven below policy.series_tol.
    N is checked against policy.level_cap before anything is allocated; the
    Boltzmann factors are then evaluated once and divided by z.
    """
    z = math.exp(log_z)
    if kind == "spin_half":
        return np.array([1.0, math.exp(-x)]) / z, 0.0
    if kind == "box1d":
        count = int(math.sqrt((4.0 - math.log(policy.series_tol)) / x)) + 2

        def tail(n: int) -> float:
            return _box1d_tail(x, n) / z

    else:
        count = max(2, math.ceil((4.0 - math.log(policy.series_tol)) / x))

        def tail(n: int) -> float:
            return math.exp(-x * n)  # sum_{m >= n} q^m = q^n z

    while True:
        if count > policy.level_cap:
            raise ConvergenceError(
                f"{count} levels needed to bound the tail below "
                f"{policy.series_tol:.1e} of z at x = {x:.3e}; "
                f"level cap {policy.level_cap} reached"
            )
        bound = tail(count)
        if bound <= policy.series_tol:
            break
        count *= 2
    n = np.arange(count, dtype=float)
    if kind == "box1d":
        n = n * (n + 2.0)  # g = (n + 1)^2 - 1 for level n + 1
    return np.exp(-x * n) / z, bound


def _check_state_args(beta: float, L: float) -> None:
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")


def partition_function(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> tuple[float, int, float]:
    """Exact partition sum, with the size and tail bound of its level vector.

    Returns (Z, levels_used, tail_bound): Z from the kernel, and the per-axis
    level count and relative omitted weight of the state's probability
    vector, which this builds.  Z itself can under- or overflow at extreme
    beta * E_0; use gibbs_state().log_partition where that matters.
    """
    state = gibbs_state(model, beta, L, policy)
    return state.partition_value, state.levels_used, state.truncation_error_bound


class _Occupations:
    """A state's per-axis (probabilities, relative tail bound), built on the
    first read and kept.  States that an adiabat maps onto each other share
    one instance, so they share one vector."""

    def __init__(self, build) -> None:
        self._build = build
        self._value = None

    def get(self) -> tuple[np.ndarray, float]:
        if self._value is None:
            probabilities, bound = self._build()
            probabilities.flags.writeable = False
            self._value = (probabilities, bound)
            self._build = None
        return self._value


class GibbsState:
    """Thermal state at (beta, L): `axes` identical, independent copies of one
    1D axis (axes = d for the separable 2D/3D kinds, 1 otherwise).

    A state from gibbs_state carries per axis the ground energy `ground`
    (E_0), the gap unit `gap` (Delta), x = beta Delta and the exact kernel
    `moments` = (ln z, <g>, Var g); every state function reads these.
    log_partition = d (ln z - beta E_0) is always finite; partition_value may
    under/overflow at extreme beta * E_0.

    probabilities is the per-axis occupation vector over the levels of
    model.axis, ordered by non-decreasing energy; the flattened multi-index
    state is its d-fold outer product.  It is built only when probabilities,
    levels_used or truncation_error_bound is read, truncated where the
    omitted weight falls below policy.series_tol of z, and then kept.
    truncation_error_bound bounds the omitted weight of the product state
    relative to Z.

    A state built from an explicit `probabilities` vector (any occupation,
    equilibrium or not) has moments None, and the state functions sum over
    its levels instead.
    """

    __slots__ = (
        "beta", "length", "partition_value", "log_partition", "axes",
        "ground", "gap", "x", "moments", "occupations",
    )

    def __init__(
        self,
        beta: float,
        length: float,
        probabilities: np.ndarray | None = None,
        partition_value: float = math.nan,
        log_partition: float = math.nan,
        truncation_error_bound: float = 0.0,
        axes: int = 1,
        *,
        ground: float = math.nan,
        gap: float = math.nan,
        x: float = math.nan,
        moments: tuple[float, float, float] | None = None,
        occupations: _Occupations | None = None,
    ) -> None:
        _check_state_args(beta, length)
        if occupations is None:
            if probabilities is None:
                raise ValueError("a state needs probabilities or occupations")
            if truncation_error_bound < 0.0:
                raise ValueError("truncation_error_bound must be non-negative")
            probabilities.flags.writeable = False
            occupations = _Occupations(lambda: (probabilities, truncation_error_bound))
        values = (
            beta, length, partition_value, log_partition, axes,
            ground, gap, x, moments, occupations,
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"GibbsState is immutable; cannot set {name!r}")

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta

    @property
    def probabilities(self) -> np.ndarray:
        return self.occupations.get()[0]

    @property
    def truncation_error_bound(self) -> float:
        return math.expm1(self.axes * math.log1p(self.occupations.get()[1]))

    @property
    def levels_used(self) -> int:
        return self.probabilities.size


# Per-axis equilibrium quantities at (beta, L), floats or arrays: E_0, Delta,
# x = beta Delta, the kernel's (ln z, <g>, Var g) and U = E_0 + Delta <g>.
AxisStates = namedtuple("AxisStates", "ground gap x log_z mean var energy")


def _axis_energy(kind: str, ground, gap, x, mean):
    """Per-axis U = E_0 + Delta <g>; the spin's as -(Delta/2) tanh(x/2), to
    which those terms cancel as x -> 0."""
    if kind == "spin_half":
        return -0.5 * gap * np.tanh(0.5 * x)
    return ground + gap * mean


def axis_states(model: SpectrumModel, beta, L) -> AxisStates:
    """AxisStates of one axis of model at beta and L, floats or arrays of
    one shape, from one kernel call.  The arguments are not validated."""
    axis = model.axis
    ground, gap = _axis_scale(axis, L)
    x = beta * gap
    log_z, mean, var = _kernel(axis.kind, x)
    energy = _axis_energy(axis.kind, ground, gap, x, mean)
    return AxisStates(ground, gap, x, log_z, mean, var, energy)


def gibbs_state(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> GibbsState:
    """Equilibrium state at (beta, L), from one kernel evaluation.

    The multi-dimensional kinds are d copies of model.axis: ln Z =
    d (ln z - beta E_0).  No level is summed here; policy.series_tol and
    policy.level_cap bind only if the state's probability vector is read.
    """
    _check_state_args(beta, L)
    kind = model.axis.kind
    d = model.dimension
    st = axis_states(model, np.array([beta]), np.array([L]))
    ground, gap, x, *moments = (value.item() for value in st[:6])
    log_z = d * (moments[0] - beta * ground)
    try:
        value = math.exp(log_z)
    except OverflowError:
        value = math.inf
    return GibbsState(
        beta=beta,
        length=L,
        partition_value=value,
        log_partition=log_z,
        axes=d,
        ground=ground,
        gap=gap,
        x=x,
        moments=tuple(moments),
        occupations=_Occupations(
            lambda: _shifted_partition(kind, x, moments[0], policy)
        ),
    )


def state_energies(model: SpectrumModel, state: GibbsState) -> np.ndarray:
    """Level energies matching the state's probability vector: those of
    model.axis, per axis, for the multi-dimensional kinds."""
    return model.axis.level_energies(state.length, state.levels_used)


def force(state: GibbsState, model: SpectrumModel) -> float:
    """Generalized force F = -sum_n P_n dE_n/dL.

    Valid for any probability vector, equilibrium or not.  The level
    derivatives are analytic: dE_n/dL = -p E_n / L with p the kind's
    scaling power, so F = p U / L identically.  A product state's force is
    the sum over its axes.
    """
    return model.scaling_power * internal_energy(state, model) / state.length


def internal_energy(state: GibbsState, model: SpectrumModel) -> float:
    """U = d (E_0 + Delta <g>) by _axis_energy, or sum_n P_n E_n summed over
    axes for a state built from an explicit vector."""
    if state.moments is None:
        energies = state_energies(model, state)
        return state.axes * float((state.probabilities * energies).sum())
    energy = _axis_energy(
        model.axis.kind, state.ground, state.gap, state.x, state.moments[1]
    )
    return state.axes * float(energy)


def entropy(state: GibbsState) -> float:
    """Gibbs-Shannon entropy -sum_n P_n ln P_n (k = 1), summed over axes.

    For an equilibrium state this is d (ln z + x <g>) = ln Z + beta U, from
    the kernel; a state built from an explicit vector sums over its levels.
    """
    if state.moments is None:
        p = state.probabilities
        p = p[p > 0.0]
        return -state.axes * float((p * np.log(p)).sum())
    log_z, mean, _ = state.moments
    return state.axes * (log_z + state.x * mean)


def free_energy(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """F = -(1/beta) ln Z = d (E_0 - ln z / beta), from the kernel."""
    return -gibbs_state(model, beta, L, policy).log_partition / beta


def mean_occupation(model: SpectrumModel, beta: float, L: float) -> float:
    """Bose factor <n> = 1 / (e^{beta omega} - 1) of the cavity mode."""
    if model.kind != "cavity":
        raise ValueError(f"mean_occupation applies to the cavity mode, got {model.kind!r}")
    _check_state_args(beta, L)
    return 1.0 / math.expm1(beta * model.mode_constant / L)


def equilibrium_force(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Force p U / L of the equilibrium state at (beta, L), from the kernel."""
    return force(gibbs_state(model, beta, L, policy), model)


# --------------------------------------------------------------------------
# Closed-form references.  The box forms are classical-limit formulas; they
# hold only for beta * E_1 << 1 and are cross-checked against the summed
# ground truth in that regime.  The cavity/oscillator and spin forms are
# exact at all temperatures.


def force_equilibrium_closed(model: SpectrumModel, beta: float, L: float) -> float:
    """Closed-form equilibrium force.

    box1d: F = 1/(L beta), the classical-limit equation of state F L = kT.
    cavity/harmonic1d: exact radiation force, vacuum term included.
    spin_half: exact -tanh(beta/(2L)) / (2 L^2), negative at all beta.
    """
    _check_state_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 1.0 / (L * beta)
    if kind in ("cavity", "harmonic1d"):
        kappa = model.mode_constant
        omega = kappa / L
        return (omega / math.expm1(beta * omega) + 0.5 * omega) / L
    if kind == "spin_half":
        return -math.tanh(0.5 * beta / L) / (2.0 * L * L)
    raise ValueError(
        f"no closed-form force for kind {model.kind!r}; use the summed force"
    )


def internal_energy_closed(model: SpectrumModel, beta: float, L: float) -> float:
    """Closed-form internal energy: box1d classical 1/(2 beta); cavity and
    harmonic1d exact (<n> + 1/2) omega; spin_half exact."""
    _check_state_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 0.5 / beta
    if kind in ("cavity", "harmonic1d"):
        omega = model.mode_constant / L
        return (1.0 / math.expm1(beta * omega) + 0.5) * omega
    if kind == "spin_half":
        return -0.5 * math.tanh(0.5 * beta / L) / L
    raise ValueError(f"no closed-form internal energy for kind {model.kind!r}")


def entropy_closed(model: SpectrumModel, beta: float, L: float) -> float:
    """Closed-form entropy: box1d classical-limit reference, cavity and
    harmonic1d exact via the mean occupation."""
    _check_state_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 0.5 + math.log(
            0.5 * math.sqrt(2.0 * model.mass * L * L / (math.pi * beta))
        )
    if kind in ("cavity", "harmonic1d"):
        omega = model.mode_constant / L
        n_bar = 1.0 / math.expm1(beta * omega)
        return n_bar * beta * omega + math.log1p(n_bar)
    raise ValueError(f"no closed-form entropy for kind {model.kind!r}")


def regime_parameter(model: SpectrumModel, beta: float, L: float) -> float:
    """Dimensionless quantumness scale.

    For box kinds this is beta * E_ground (the classical-limit parameter,
    small means classical); for the oscillator kinds beta * omega; for the
    spin beta times the level gap.
    """
    _check_state_args(beta, L)
    if model.kind in BOX_KINDS:
        return beta * model.ground_energy(L)
    if model.kind == "spin_half":
        return beta / L
    return beta * model.mode_constant / L


def vacuum_force(model: SpectrumModel, L: float) -> float:
    """Zero-temperature force p E_0 / L, the floor of the equilibrium force
    for positive-spectrum kinds (kappa/(2 L^2) for the cavity)."""
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")
    return model.scaling_power * model.ground_energy(L) / L


def beta_for_force(
    model: SpectrumModel,
    force_target,
    L,
    policy: NumericsPolicy = DEFAULT_POLICY,
):
    """Inverse temperature at which the equilibrium force equals the target.

    force_target and L are floats or arrays that broadcast together, all
    solved at once; beta is a float or an array of the broadcast shape.
    Exact closed inversions for the cavity/harmonic1d (log form) and the
    spin (atanh form).  For box1d, F = 2 E_1 (1 + <g>(x)) / L, so the target
    fixes <g> = F L / (2 E_1) - 1, which _box1d_x_for_mean solves for x;
    beta = x / E_1.  The multi-dimensional kinds solve their axis at the
    target F/d.  A target no positive temperature reaches raises
    DomainError, and every returned beta satisfies
    |F(beta, L) - F0| <= 1e-10 |F0| against the kernel's force, or
    ConvergenceError is raised.
    """
    target = np.asarray(force_target, dtype=float) / model.dimension
    shape = np.broadcast(target, L).shape
    target, L = (np.zeros(shape) + target).ravel(), (np.zeros(shape) + L).ravel()
    if (L <= 0.0).any():
        raise ValueError(f"coordinate must be positive, got L={L.min()}")
    axis = model.axis
    kind = axis.kind
    if kind == "box1d":
        e1 = _axis_scale(axis, L)[0]
        mean = target * L / (2.0 * e1) - 1.0
        unreachable = mean <= 0.0
    elif kind == "spin_half":
        y = -2.0 * target * L * L
        unreachable = (y <= 0.0) | (y >= 1.0)
    else:
        excess = 2.0 * target * L * L - axis.mode_constant
        unreachable = excess <= 0.0
    if unreachable.any():
        i = np.flatnonzero(unreachable)[0]
        span = "in (vacuum force, 0)" if kind == "spin_half" else "above the vacuum force"
        raise DomainError(
            f"no positive temperature: the {kind} equilibrium force lies {span}, "
            f"vacuum force {vacuum_force(axis, L[i])} at L={L[i]}, axis target {target[i]}"
        )
    if kind == "box1d":
        beta = _box1d_x_for_mean(mean, policy) / e1
        realized = axis.scaling_power * axis_states(axis, beta, L).energy / L
        missed = np.abs(realized - target) > 1e-10 * np.abs(target)
        if missed.any():
            i = np.flatnonzero(missed)[0]
            raise ConvergenceError(
                f"isobaric schedule residual exceeds 1e-10 at L={L[i]}, "
                f"axis target force {target[i]}"
            )
    elif kind == "spin_half":
        beta = L * np.log((1.0 + y) / (1.0 - y))  # 2 L atanh(y)
    else:
        kappa = axis.mode_constant
        beta = (L / kappa) * np.log((2.0 * target * L * L + kappa) / excess)
    return beta.item() if shape == () else beta.reshape(shape)


def _box1d_x_for_mean(target: np.ndarray, policy: NumericsPolicy) -> np.ndarray:
    """The x > 0 at which box1d's <g>(x) equals target > 0, per element.

    Safeguarded Newton on phi(s) = ln(<g>/target) in s = ln x, slope
    dphi/ds = -x Var(g)/<g> < 0, on all elements at once, seeded by
    <g> ~ 1/(2x) when warm (target >= 1) and <g> ~ 3 exp(-3x) when cold.
    Every evaluated s narrows its element's bracket, and a step that leaves
    the bracket is replaced by bisection.  Newton converges quadratically,
    so an element whose step falls below 1e-9 takes it and is done.
    policy.root_max_iter caps the kernel evaluations.
    """
    cold = np.log(np.log(3.0 / np.minimum(target, 1.0)) / 3.0)
    s = np.where(target >= 1.0, -np.log(2.0 * target), cold)
    lo, hi = np.full_like(s, -np.inf), np.full_like(s, np.inf)
    result = np.empty_like(s)
    todo = np.arange(s.size)  # the elements still iterating
    for _ in range(policy.root_max_iter):
        x = np.exp(s)
        _, mean, var = _kernel("box1d", x)
        # <g> underflows to 0 only where x is far too large: there phi = -inf
        # and the step is nan, so the bracket moves and the step is refused
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.log(mean / target)
            step = phi * mean / (x * var)
        rising = phi > 0.0
        lo, hi = np.where(rising, s, lo), np.where(rising, hi, s)
        done = np.abs(step) <= 1e-9
        result[todo[done]] = np.exp(s[done] + step[done])
        if done.all():
            return result
        trial = s + step
        inside = (lo < trial) & (trial < hi)
        s = np.where(inside, trial, np.where(rising, s + 1.0, s - 1.0))
        bisect = ~inside & (lo > -np.inf) & (hi < np.inf)
        s[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        going = ~done
        todo, s, lo, hi, target = todo[going], s[going], lo[going], hi[going], target[going]
    raise ConvergenceError(
        f"isobaric schedule: Newton solve for <g> = {target[0]!r} did not "
        f"converge in {policy.root_max_iter} iterations"
    )


def heat_capacity(
    model: SpectrumModel,
    beta: float,
    L: float,
    mode: str = "coordinate",
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Exact heat capacity from the kernel.

    mode='coordinate' gives C_V = dU/dT at fixed L, which is d x^2 Var(g).
    mode='force' gives C_P = (dU + F dL)/dT along the constant-force
    schedule through (beta, L).  With F = p U / L held, dU/U = dL/L, and
    the exact partials of U(T, L) give
    C_P = (p + 1) U C_V / ((p + 1) U - p T C_V).
    """
    if mode not in ("coordinate", "force"):
        raise ValueError(f"mode must be 'coordinate' or 'force', got {mode!r}")
    state = gibbs_state(model, beta, L, policy)
    c_v = state.axes * state.x * state.x * state.moments[2]
    if mode == "coordinate":
        return c_v
    p = model.scaling_power
    u = internal_energy(state, model)
    return (p + 1) * u * c_v / ((p + 1) * u - p * c_v / beta)
