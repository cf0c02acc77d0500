"""Working substances and their canonical-ensemble state functions.

A substance is a parameterized family of energy levels E_n(L) over one
externally controlled coordinate L (box width, cavity length, inverse
magnetic field).  Every level of every supported substance scales as a pure
power of L, E_n(L) = c_n / L^p, which makes the conjugate force, the
adiabats, and the truncation bounds exact and cheap.

Natural units throughout: hbar = m = k = 1 (mass and the oscillator mode
constant remain as explicit positive parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import (
    DEFAULT_POLICY,
    NumericsPolicy,
    find_root_bracketed,
    sum_with_tail_bound,
)

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
# Canonical-ensemble machinery.  All sums are taken relative to the ground
# level so they stay in range at any temperature: the shifted partition sum
# Z~ = sum_n exp(-beta (E_n - E_0)) starts at 1 and ln Z = ln Z~ - beta E_0.


def _box1d_tail(c: float, n_levels: int) -> float:
    """Bound on sum_{n > N} exp(-c (n^2 - 1)) via the Gaussian comparison
    integral, evaluated in log space so large c cannot overflow."""
    e = math.erfc(math.sqrt(c) * n_levels)
    if e == 0.0:
        return 0.0
    return 0.5 * math.sqrt(math.pi / c) * math.exp(c + math.log(e))


def _shifted_system(model: SpectrumModel, beta: float, L: float, policy: NumericsPolicy):
    """Shifted Boltzmann factors and a certified tail bound for one 1D kind.

    Returns (block, tail, e_ground, first_block): block(i0, i1) evaluates
    exp(-beta (E_i - E_0)) for level indices [i0, i1); tail(n, s, t)
    bounds the omitted remainder given n terms summed to s, last term t;
    first_block estimates the level count so the certified loop usually
    finishes in one pass.
    """
    kind = model.kind
    e0 = model.ground_energy(L)

    if kind == "box1d":
        c = beta * e0  # = beta E_1

        def block(i0: int, i1: int) -> np.ndarray:
            n = np.arange(i0 + 1, i1 + 1, dtype=float)
            return np.exp(-c * (n * n - 1.0))

        def tail(n_used: int, _s: float, _t: float) -> float:
            return _box1d_tail(c, n_used)

        hint = int(math.sqrt((4.0 - math.log(policy.series_tol)) / c)) + 2
        return block, tail, e0, min(hint, policy.level_cap)

    if kind in ("harmonic1d", "cavity"):
        x = beta * model.mode_constant / L
        denom = -math.expm1(-x)  # 1 - e^{-x}, exact for small x

        def block(i0: int, i1: int) -> np.ndarray:
            return np.exp(-x * np.arange(i0, i1, dtype=float))

        def tail(_n: int, _s: float, t: float) -> float:
            if denom == 0.0:
                return math.inf
            return t * math.exp(-x) / denom

        if denom > 0.0:
            hint = int(-math.log(policy.series_tol * denom) / x) + 2
        else:
            hint = policy.level_cap
        return block, tail, e0, max(2, min(hint, policy.level_cap))

    if kind == "spin_half":
        weights = np.array([1.0, math.exp(-beta / L)])

        def block(i0: int, i1: int) -> np.ndarray:
            return weights[i0:i1]

        def tail(_n: int, _s: float, _t: float) -> float:
            return 0.0

        return block, tail, e0, 2

    raise ValueError(f"no one-dimensional sum for kind {kind!r}; use model.axis")


def _check_state_args(beta: float, L: float) -> None:
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")


def _shifted_partition(
    model: SpectrumModel, beta: float, L: float, policy: NumericsPolicy
):
    """(z_shifted, levels_used, absolute_tail_bound, block, e_ground)."""
    block, tail, e0, first_block = _shifted_system(model, beta, L, policy)
    z, used, bound = sum_with_tail_bound(block, tail, policy, first_block=first_block)
    _closed_form_crosscheck(model, beta, L, z, bound)
    return z, used, bound, block, e0


def _closed_form_crosscheck(model, beta, L, z_shifted, bound) -> None:
    """The exactly summable spectra double as internal consistency checks."""
    kind = model.kind
    if kind in ("harmonic1d", "cavity"):
        closed = 1.0 / -math.expm1(-beta * model.mode_constant / L)
    elif kind == "spin_half":
        closed = 1.0 + math.exp(-beta / L)
    else:
        return
    if abs(z_shifted - closed) > bound + 1e-11 * closed:
        raise ConvergenceError(
            f"truncated partition sum {z_shifted!r} disagrees with the "
            f"closed form {closed!r} for kind {kind!r}"
        )


def partition_function(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> tuple[float, int, float]:
    """Truncated partition sum with a certified relative tail bound.

    Returns (Z, levels_used, tail_bound) where tail_bound is the omitted
    weight relative to Z, and levels_used counts per-axis levels as
    GibbsState.levels_used does.  Z itself can under- or overflow at
    extreme beta * E_0; use gibbs_state().log_partition where that matters.
    """
    state = gibbs_state(model, beta, L, policy)
    return state.partition_value, state.levels_used, state.truncation_error_bound


@dataclass(frozen=True, eq=False)
class GibbsState:
    """Thermal state: truncated occupation probabilities at (beta, L).

    probabilities are normalized over the included levels, ordered by
    non-decreasing energy; truncation_error_bound bounds the omitted tail
    weight relative to the partition sum.  log_partition is always finite;
    partition_value may under/overflow at extreme beta * E_0.

    The state is the product of `axes` identical, independent copies of
    one probability vector.  For the separable multi-dimensional kinds
    (axes = d = 2 or 3), probabilities is the occupation vector of one axis
    over the levels of model.axis, and levels_used counts those per-axis
    levels; the flattened multi-index state is its d-fold outer product.
    For the 1D kinds axes = 1 and the vector is the state itself.
    """

    beta: float
    length: float
    probabilities: np.ndarray
    partition_value: float
    log_partition: float
    truncation_error_bound: float
    axes: int = 1

    def __post_init__(self) -> None:
        _check_state_args(self.beta, self.length)
        if self.truncation_error_bound < 0.0:
            raise ValueError("truncation_error_bound must be non-negative")
        self.probabilities.flags.writeable = False

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta

    @property
    def levels_used(self) -> int:
        return self.probabilities.size


def gibbs_state(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> GibbsState:
    """Equilibrium state at (beta, L).

    The multi-dimensional kinds are summed as d copies of model.axis:
    ln Z = d ln z_axis, and with r the axis's relative tail bound the
    product omits at most (1 + r)^d - 1 of Z.
    """
    _check_state_args(beta, L)
    d = model.dimension
    z, used, bound, block, e0 = _shifted_partition(model.axis, beta, L, policy)
    log_z = d * (math.log(z) - beta * e0)
    try:
        value = math.exp(log_z)
    except OverflowError:
        value = math.inf
    return GibbsState(
        beta=beta,
        length=L,
        probabilities=np.asarray(block(0, used), dtype=float) / z,
        partition_value=value,
        log_partition=log_z,
        truncation_error_bound=math.expm1(d * math.log1p(bound / z)),
        axes=d,
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
    energies = state_energies(model, state)
    dE_dL = -model.scaling_power * energies / state.length
    return -state.axes * float((state.probabilities * dE_dL).sum())


def internal_energy(state: GibbsState, model: SpectrumModel) -> float:
    """U = sum_n P_n E_n over the truncated level set, summed over axes."""
    energies = state_energies(model, state)
    return state.axes * float((state.probabilities * energies).sum())


def entropy(state: GibbsState) -> float:
    """Gibbs-Shannon entropy -sum_n P_n ln P_n (k = 1), summed over axes.

    This is the exact entropy for any probability vector; for equilibrium
    states it equals ln Z + beta U.
    """
    p = state.probabilities
    p = p[p > 0.0]
    return -state.axes * float((p * np.log(p)).sum())


def gap_moments(model: SpectrumModel, state: GibbsState) -> tuple[float, float, float]:
    """Per-axis (ln z, <E - E_0>, Var E) of a Gibbs state.

    z = sum_n exp(-beta (E_n - E_0)) is the ground-shifted partition sum,
    taken as ln z = log1p(sum_{n>=1} P_n / P_0), and the moments are centred
    moments of the gaps E_n - E_0 over state.probabilities.  Both keep their
    relative accuracy however empty the excited levels are.  With d axes,
    ln Z = d (ln z - beta E_0), U = d (E_0 + <E - E_0>) and
    S = d (ln z + beta <E - E_0>).
    """
    p = state.probabilities
    energies = state_energies(model, state)
    gaps = energies - energies[0]
    mean = float(p @ gaps)
    deviation = gaps - mean
    log_z = math.log1p(float(p[1:].sum()) / float(p[0]))
    return log_z, mean, float(p @ (deviation * deviation))


def free_energy(
    model: SpectrumModel,
    beta: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """F = -(1/beta) ln Z from the truncated sum, evaluated in log space."""
    _check_state_args(beta, L)
    z, _, _, _, e0 = _shifted_partition(model.axis, beta, L, policy)
    return model.dimension * (e0 - math.log(z) / beta)


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
    """Force of the equilibrium state at (beta, L), from the truncated sum."""
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
    force_target: float,
    L: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Inverse temperature at which the equilibrium force equals the target.

    Exact closed inversions for the cavity/harmonic1d (log form) and the
    spin (atanh form); a bracketed root solve of the summed force for
    box1d.  The multi-dimensional kinds solve their axis at the target F/d,
    so the harmonic2d/3d isobars are closed-form too.  The classical box
    inversion beta = 1/(F L) only seeds the bracket: the returned beta
    satisfies |F(beta, L) - F0| <= 1e-10 |F0| against the summed force.
    """
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")
    if model.dimension > 1:
        return beta_for_force(model.axis, force_target / model.dimension, L, policy)
    kind = model.kind

    if kind in ("cavity", "harmonic1d"):
        kappa = model.mode_constant
        excess = 2.0 * force_target * L * L - kappa
        if excess <= 0.0:
            raise DomainError(
                f"no positive temperature: force {force_target} does not "
                f"exceed the vacuum force {0.5 * kappa / (L * L)}"
            )
        return (L / kappa) * math.log((2.0 * force_target * L * L + kappa) / excess)

    if kind == "spin_half":
        y = -2.0 * force_target * L * L
        if not 0.0 < y < 1.0:
            raise DomainError(
                f"spin_half equilibrium force lies in (-1/(2 L^2), 0); "
                f"target {force_target} at L={L} is unreachable"
            )
        return L * math.log((1.0 + y) / (1.0 - y))  # 2 L atanh(y)

    floor = vacuum_force(model, L)
    if force_target <= floor:
        raise DomainError(
            f"no positive temperature: force {force_target} does not exceed "
            f"the zero-temperature force {floor} of kind {kind!r}"
        )

    seed = 1.0 / (force_target * L)  # classical equipartition F L = kT

    def residual(b: float) -> float:
        return equilibrium_force(model, b, L, policy) - force_target

    lo = hi = seed
    f_seed = residual(seed)
    if f_seed == 0.0:
        return seed
    if f_seed > 0.0:  # force too large, need colder (larger beta)
        factor = 2.0
        # near the classical limit the root sits at
        # beta_cl / (1 - sqrt(beta E_1 / pi)); overshoot that slightly
        x = math.sqrt(seed * model.ground_energy(L) / math.pi)
        if x < 0.125:
            factor = 1.0 + 4.0 * x + 1e-9
        for _ in range(200):
            hi *= factor
            if residual(hi) <= 0.0:
                break
            factor = 2.0
        else:
            raise ConvergenceError("could not bracket the isobaric schedule")
    else:
        for _ in range(200):
            lo *= 0.5
            if residual(lo) >= 0.0:
                break
        else:
            raise ConvergenceError("could not bracket the isobaric schedule")
    root = find_root_bracketed(residual, lo, hi, policy)
    if abs(residual(root)) > 1e-10 * abs(force_target):
        raise ConvergenceError(
            f"isobaric schedule residual exceeds 1e-10 at L={L}, "
            f"target force {force_target}"
        )
    return root


def heat_capacity(
    model: SpectrumModel,
    beta: float,
    L: float,
    mode: str = "coordinate",
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Heat capacity by centered finite differences on the summed energies.

    mode='coordinate' gives C_V = dU/dT at fixed L.  mode='force' gives
    C_P = (dU + F dL)/dT along the constant-force schedule through
    (beta, L), differenced in L.
    """
    _check_state_args(beta, L)

    def u_at(b: float, x: float) -> float:
        st = gibbs_state(model, b, x, policy)
        return internal_energy(st, model)

    if mode == "coordinate":
        T = 1.0 / beta
        dT = max(policy.fd_step_rel * T, 1e-9)
        if dT >= T:
            dT = 0.5 * T
        if dT / T < 1e-14:
            raise ConvergenceError("heat-capacity temperature step underflow")
        return (u_at(1.0 / (T + dT), L) - u_at(1.0 / (T - dT), L)) / (2.0 * dT)

    if mode == "force":
        f0 = equilibrium_force(model, beta, L, policy)
        h = policy.fd_step_rel * L
        beta_hi = beta_for_force(model, f0, L + h, policy)
        beta_lo = beta_for_force(model, f0, L - h, policy)
        dT = 1.0 / beta_hi - 1.0 / beta_lo
        if dT == 0.0:
            raise ConvergenceError("heat-capacity coordinate step underflow")
        dU = u_at(beta_hi, L + h) - u_at(beta_lo, L - h)
        return (dU + f0 * 2.0 * h) / dT

    raise ValueError(f"mode must be 'coordinate' or 'force', got {mode!r}")
