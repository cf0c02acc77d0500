"""Working substances and their canonical-ensemble state functions.

A substance is a parameterized family of energy levels E_n(L) over one
externally controlled coordinate L (box width, cavity length, inverse
magnetic field).  Every 1D spectrum is E_n = E_0 + Delta g_n with E_0 and
Delta proportional to L^-p, so each equilibrium quantity depends on
(beta, L) only through x = beta Delta, and the separable 2D/3D kinds are d
copies of their 1D axis.  One exact kernel per 1D kind gives
(ln z, <g>, Var g) at x with no truncated sum: closed forms for the linear
and two-level spectra, and for box1d a short direct series from x = 0.5 up
and the Jacobi theta inversion below it.  A GibbsState is the record of one
kernel evaluation; no level is summed and no occupation vector is built.
The direct level sums that the kernel is tested against live in
qcycle.reference.

Natural units throughout: hbar = m = k = 1 (mass and the oscillator mode
constant remain as explicit positive parameters).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
# kind -> the SpectrumModel parameters it reads: the mass for a box, the mode
# constant for an oscillator or the cavity, none for the spin
KIND_PARAMETERS = {
    **dict.fromkeys(BOX_KINDS, ("mass",)),
    **dict.fromkeys(OSCILLATOR_KINDS, ("mode_constant",)),
    "spin_half": (),
}


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

    @cached_property
    def axis(self) -> SpectrumModel:
        """The one-dimensional kind of which this kind is `dimension` copies.

        box2d/3d are box1d axes of the same mass, harmonic2d/3d harmonic1d
        axes of the same mode constant; the 1D kinds are their own axis.
        Built on the first read and kept.
        """
        kind = _KIND_TABLE[self.kind][2]
        if kind == self.kind:
            return self
        return SpectrumModel(kind, self.mass, self.mode_constant)

    def ground_energy(self, L: float) -> float:
        """Lowest level energy, d E_0 of the axis; no level is enumerated."""
        if L <= 0.0:
            raise ValueError(f"coordinate must be positive, got L={L}")
        return self.dimension * _axis_scale(self.axis, L)[0]


def box(dim: int = 1, mass: float = SpectrumModel.mass) -> SpectrumModel:
    """Single particle in a hard-wall box of side L (dim = 1, 2 or 3)."""
    if dim not in (1, 2, 3):
        raise ValueError(f"box dimension must be 1, 2 or 3, got {dim}")
    return SpectrumModel(kind=f"box{dim}d", mass=mass)


def harmonic(
    dim: int = 1, mode_constant: float = SpectrumModel.mode_constant
) -> SpectrumModel:
    """Isotropic harmonic oscillator with frequency mode_constant / L."""
    if dim not in (1, 2, 3):
        raise ValueError(f"oscillator dimension must be 1, 2 or 3, got {dim}")
    return SpectrumModel(kind=f"harmonic{dim}d", mode_constant=mode_constant)


def cavity_mode(mode_constant: float = SpectrumModel.mode_constant) -> SpectrumModel:
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
    where x >= 0.5 and the theta inversion where x < 0.5, each on its masked
    slice.  Every output is finite for x >= 1e-30.
    """
    x = np.asarray(x, dtype=float)
    if kind == "box1d":
        warm = x < 0.5
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


# g_n = n^2 - 1 for n = 2..10: at x >= 0.5 the first omitted term, e^-120x,
# is below 2^-80 of the excited sum, which exceeds e^-3x
_SERIES_GAPS = np.arange(2.0, 11.0) ** 2 - 1.0


def _box1d_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln z, <g>, Var g) for g_n = n^2 - 1 at x >= 0.5, by the direct series.

    ln z = log1p(sum_{n>=2} w_n) keeps its relative accuracy when the excited
    levels are nearly empty; <g^2> - <g>^2 cancels by at most 17 % here.
    """
    gaps = _SERIES_GAPS.reshape((-1,) + (1,) * np.ndim(x))
    w = np.exp(np.multiply.outer(-_SERIES_GAPS, x))
    gw = w * gaps
    excited = _in_order(w)
    z = 1.0 + excited
    mean = _in_order(gw) / z
    var = _in_order(gw * gaps) / z - mean * mean
    return np.log1p(excited), mean, var


def _in_order(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... + terms[8], added in that order, the largest
    first.  numpy's sum keeps that order for up to seven summands but pairs
    up longer runs where they are its innermost loop, as for a one-element
    x, which would then round differently from a longer x."""
    return terms[:7].sum(axis=0) + terms[7] + terms[8]


def _box1d_theta(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ln z, <g>, Var g) for g_n = n^2 - 1 at x < 0.5, by the Jacobi theta
    inversion (Whittaker & Watson, ch. 21)

        A = 1 + 2 sum_{n>=1} exp(-x n^2) = sqrt(pi/x) theta,
        theta = 1 + 2 sum_{k>=1} exp(-y_k),  y_k = pi^2 k^2 / x,

    with z = e^x (A - 1)/2.  theta's derivatives are carried as x theta'/theta
    and x^2 theta''/theta, sums of y^j e^-y <= 1, so nothing overflows.  Only
    the k = 1 term is kept: at x < 0.5, y_1 > 19.7, and the k >= 2 terms of
    each sum are below 18 e^(-3 y_1) < 4e-25 of its k = 1 term, less than
    half an ulp, so adding them rounds back to the k = 1 term and every
    moment is the one the three-term sums give, bit for bit.
    """
    y = _PI2 / x
    e = np.exp(-y)
    ye = y * e
    theta = 1.0 + 2.0 * e
    d1 = 2.0 * ye / theta  # x theta'/theta
    d2 = 2.0 * ((y - 2.0) * ye) / theta  # x^2 theta''/theta
    a = np.sqrt(np.pi / x) * theta
    excess = a - 1.0  # 2 (z e^-x)
    b = d1 - 0.5  # x A'/A
    f = a / excess  # A/(A - 1): converts moments of A into moments of z
    mean = -1.0 - f * b / x
    var = f * (0.5 + d2 - d1 * d1 - b * b / excess) / (x * x)
    return x + np.log(0.5 * excess), mean, var


def _check_state_args(beta: float, L: float) -> None:
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")


class GibbsState(NamedTuple):
    """Thermal state at (beta, L) as one kernel evaluation: `axes` identical,
    independent copies of one 1D axis (d for the separable 2D/3D kinds, 1
    otherwise).

    Per axis it holds the ground energy `ground` (E_0), the gap unit `gap`
    (Delta), x = beta Delta and the exact kernel `moments` (ln z, <g>,
    Var g), which every state function reads; log_partition = d (ln z -
    beta E_0) is always finite.  No level is summed for a state, so
    levels_used is 0; qcycle.reference sums the levels of a state.
    """

    beta: float
    length: float
    axes: int
    ground: float
    gap: float
    x: float
    moments: tuple[float, float, float]
    log_partition: float

    levels_used = 0


# Per-axis equilibrium quantities at (beta, L), floats or arrays: E_0, Delta,
# x = beta Delta, the kernel's (ln z, <g>, Var g) and U = E_0 + Delta <g>.
AxisStates = namedtuple("AxisStates", "ground gap x log_z mean var energy")


def _axis_energy(kind: str, ground, gap, x, mean):
    """Per-axis U = E_0 + Delta <g>; the spin's as -(Delta/2) tanh(x/2), to
    which those terms cancel as x -> 0."""
    if kind == "spin_half":
        return -0.5 * gap * np.tanh(0.5 * x)
    return ground + gap * mean


def _gibbs_entropy(axes: int, log_z, x, mean):
    """S = d (ln z + x <g>) = ln Z + beta U of d axes, floats or arrays."""
    return axes * (log_z + x * mean)


def axis_states(model: SpectrumModel, beta, L) -> AxisStates:
    """AxisStates of one axis of model at beta and L, floats or arrays of
    one shape, from one kernel call.  The arguments are not validated."""
    axis = model.axis
    ground, gap = _axis_scale(axis, L)
    x = beta * gap
    log_z, mean, var = _kernel(axis.kind, x)
    energy = _axis_energy(axis.kind, ground, gap, x, mean)
    return AxisStates(ground, gap, x, log_z, mean, var, energy)


def isobar_states(model: SpectrumModel, force_held, x) -> AxisStates:
    """AxisStates of one axis of model on the isobar of total force
    force_held at x = beta Delta, floats or arrays of one shape, from one
    kernel call.

    L is explicit in x there: E_0 and Delta are e_0 / L^p and delta / L^p,
    so F = p d U_axis / L reads F L^(p+1) = p d e(x) with e = e_0 + delta <g>
    (the spin's in its tanh form), and beta = x / Delta(L).  No root is
    solved.  The arguments are not validated.
    """
    axis = model.axis
    p = model.scaling_power
    log_z, mean, var = _kernel(axis.kind, x)
    e = _axis_energy(axis.kind, *_axis_scale(axis, 1.0), x, mean)
    L = (p * model.dimension * e / force_held) ** (1.0 / (p + 1))
    ground, gap = _axis_scale(axis, L)
    energy = _axis_energy(axis.kind, ground, gap, x, mean)
    return AxisStates(ground, gap, x, log_z, mean, var, energy)


def gibbs_state(model: SpectrumModel, beta: float, L: float) -> GibbsState:
    """Equilibrium state at (beta, L), from one kernel evaluation.

    The multi-dimensional kinds are d copies of model.axis: ln Z =
    d (ln z - beta E_0).  No level is summed here.
    """
    _check_state_args(beta, L)
    d = model.dimension
    st = axis_states(model, np.array([beta]), np.array([L]))
    ground, gap, x, *moments = (value.item() for value in st[:6])
    log_z = d * (moments[0] - beta * ground)
    return GibbsState(beta, L, d, ground, gap, x, tuple(moments), log_z)


def force(state: GibbsState, model: SpectrumModel) -> float:
    """Generalized force F = -sum_n P_n dE_n/dL.

    The level derivatives are analytic: dE_n/dL = -p E_n / L with p the
    kind's scaling power, so F = p U / L identically.  A product state's
    force is the sum over its axes.
    """
    return model.scaling_power * internal_energy(state, model) / state.length


def internal_energy(state: GibbsState, model: SpectrumModel) -> float:
    """U = d (E_0 + Delta <g>), by _axis_energy."""
    energy = _axis_energy(
        model.axis.kind, state.ground, state.gap, state.x, state.moments[1]
    )
    return state.axes * float(energy)


def entropy(state: GibbsState) -> float:
    """Gibbs-Shannon entropy -sum_n P_n ln P_n (k = 1), summed over axes.

    For a Gibbs state this is d (ln z + x <g>) = ln Z + beta U, from the
    kernel.
    """
    log_z, mean, _ = state.moments
    return _gibbs_entropy(state.axes, log_z, state.x, mean)


def free_energy(model: SpectrumModel, beta: float, L: float) -> float:
    """F = -(1/beta) ln Z = d (E_0 - ln z / beta), from the kernel."""
    return -gibbs_state(model, beta, L).log_partition / beta


def equilibrium_force(model: SpectrumModel, beta: float, L: float) -> float:
    """Force p U / L of the equilibrium state at (beta, L), from the kernel."""
    return force(gibbs_state(model, beta, L), model)


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
    *,
    checked: bool = True,
):
    """Inverse temperature at which the equilibrium force equals the target.

    force_target and L are floats or arrays that broadcast together, all
    solved at once; beta is a float or an array of the broadcast shape.
    Exact closed inversions for the cavity/harmonic1d,
    (L/kappa) log1p(2 kappa / (2 F L^2 - kappa)), and the spin,
    2 L atanh(-2 F L^2): neither takes the log of a rounded ratio near 1,
    which would lose eps/x of beta at x = beta Delta.  For box1d,
    F = 2 E_1 (1 + <g>(x)) / L, so the target
    fixes <g> = F L / (2 E_1) - 1, which _box1d_x_for_mean solves for x;
    beta = x / E_1.  The multi-dimensional kinds solve their axis at the
    target F/d.  A target no positive temperature reaches raises
    DomainError, and every returned beta satisfies
    |F(beta, L) - F0| <= 1e-10 |F0| against the kernel's force, or
    ConvergenceError is raised (_check_schedule, on one more kernel call).  A
    caller that evaluates the states at the returned betas anyway passes
    checked=False and runs _check_schedule on those states itself, which
    makes the same check without that call.
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
        if checked:
            _check_schedule(axis, target, L, axis_states(axis, beta, L).energy)
    elif kind == "spin_half":
        beta = 2.0 * L * np.arctanh(y)
    else:
        kappa = axis.mode_constant
        beta = (L / kappa) * np.log1p(2.0 * kappa / excess)
    return beta.item() if shape == () else beta.reshape(shape)


def _check_schedule(model: SpectrumModel, force_target, L, energy) -> None:
    """The residual check of a box schedule solve: raise ConvergenceError at
    the first element, in row-major order, whose force p U_axis / L misses
    its axis target F/d by more than 1e-10 relative.  energy is the per-axis
    U of the states at the solved betas (AxisStates.energy), and
    force_target, L and energy broadcast together.  The closed inversions of
    the other kinds are not checked, as beta_for_force does not check them.
    """
    if model.axis.kind != "box1d":
        return
    target = force_target / model.dimension
    realized = model.scaling_power * energy / L
    missed = np.abs(realized - target) > 1e-10 * np.abs(target)
    if missed.any():
        i = np.flatnonzero(missed)[0]
        target, L = np.broadcast_arrays(target, L)
        raise ConvergenceError(
            f"isobaric schedule residual exceeds 1e-10 at L={L.flat[i]}, "
            f"axis target force {target.flat[i]}"
        )


# <g> at x = 1, where the Newton seed changes form: it is warm for larger
# targets (x <= 1) and cold for smaller ones
_SEED_SWITCH = _box1d_series(np.array(1.0))[1].item()


def _box1d_x_seed(target: np.ndarray) -> np.ndarray:
    """Starting s = ln x of _box1d_x_for_mean, per element of target > 0.

    Warm (target >= _SEED_SWITCH): theta = 1, dropping its e^(-pi^2/x) terms,
    turns <g> + 1 into u^3 / (2 pi (u - 1)) with u = sqrt(pi/x).  That cubic
    in u is taken at its largest root, in trigonometric form, and x = pi/u^2;
    the seed's relative error in <g> + 1 is about 2 e^(-pi^2/x), below 1e-17
    for x < 0.25.  Cold: the two lowest levels, <g> ~ 3w/(1 + w) with
    w = e^(-3x), so x = ln((3 - <g>)/<g>)/3.  Where the targets lie on both
    sides, each form reads its target clipped to its own side, so neither
    warns on the other's elements; where all lie on one side, only that
    side's form is taken.
    """
    warm = target >= _SEED_SWITCH
    if warm.all():
        return _warm_seed(target)
    if not warm.any():
        return _cold_seed(target)
    return np.where(
        warm,
        _warm_seed(np.maximum(target, _SEED_SWITCH)),
        _cold_seed(np.minimum(target, _SEED_SWITCH)),
    )


def _warm_seed(target: np.ndarray) -> np.ndarray:
    c = 2.0 * np.pi * (target + 1.0)
    u = 2.0 * np.sqrt(c / 3.0) * np.cos(np.arccos(-1.5 * np.sqrt(3.0 / c)) / 3.0)
    return np.log(np.pi / (u * u))


def _cold_seed(target: np.ndarray) -> np.ndarray:
    return np.log((np.log(3.0 - target) - np.log(target)) / 3.0)


def _box1d_x_for_mean(target: np.ndarray, policy: NumericsPolicy) -> np.ndarray:
    """The x > 0 at which box1d's <g>(x) equals target > 0, per element.

    Newton on phi(s) = ln(<g>/target) in s = ln x, slope dphi/ds =
    -x Var(g)/<g> < 0, on all elements at once, seeded by _box1d_x_seed: the
    warm limit of the theta inversion solved in closed form where x <= 1,
    the two lowest levels where x > 1.  The seed lies within 0.6 % of the
    root, so no step needs a bracket.  Newton converges quadratically, so an
    element whose step falls below 1e-9 takes it and is done: one kernel
    evaluation for x < 0.1, at most two below x = 0.5.  The last step is
    taken as x e^step, since e^(s + step) would round x to the spacing of
    ln x, 2e-15 relative at x = 1e-12.  policy.root_max_iter caps the kernel
    evaluations.
    """
    s = _box1d_x_seed(target)
    result = np.empty_like(s)
    todo = np.arange(s.size)  # the elements still iterating
    for _ in range(policy.root_max_iter):
        x = np.exp(s)
        _, mean, var = _kernel("box1d", x)
        step = np.log(mean / target) * mean / (x * var)
        done = np.abs(step) <= 1e-9
        if done.all():
            result[todo] = x * np.exp(step)
            return result
        result[todo[done]] = x[done] * np.exp(step[done])
        going = ~done
        todo, s, target = todo[going], (s + step)[going], target[going]
    raise ConvergenceError(
        f"isobaric schedule: Newton solve for <g> = {target[0]!r} did not "
        f"converge in {policy.root_max_iter} iterations"
    )
