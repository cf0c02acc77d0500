"""Brute-force canonical sums: the independent route to every state function.

The run path reads each equilibrium quantity from an exact kernel in
x = beta Delta (see substances).  This module gets the same quantities the
long way, from explicit level energies and occupation vectors, so that the
tests and `qcycle check` can set the two against each other.  It imports
nothing from qcycle but its errors, and it normalises every vector by its
own sum, so no value here comes from the kernel.

A model is anything with the attributes kind, mass and mode_constant (a
substances.SpectrumModel).  The separable 2D/3D kinds are d copies of their
1D axis: a state holds one axis's vector, and its sums count d times.  The
classical-limit and exact closed forms live here too.  Natural units
hbar = m = k = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

# kind -> (dimension d, scaling power p in E_n ~ L^{-p}, kind of one axis);
# kept apart from substances' table so that the oracle shares no code
_KINDS = {
    "box1d": (1, 2, "box1d"),
    "box2d": (2, 2, "box1d"),
    "box3d": (3, 2, "box1d"),
    "harmonic1d": (1, 1, "harmonic1d"),
    "harmonic2d": (2, 1, "harmonic1d"),
    "harmonic3d": (3, 1, "harmonic1d"),
    "cavity": (1, 1, "cavity"),
    "spin_half": (1, 1, "spin_half"),
}

# A level vector is cut where the omitted weight falls below _VECTOR_CUT of
# its own sum, under double rounding, and may hold at most _LEVEL_CAP levels.
_VECTOR_CUT = 1e-16
_LEVEL_CAP = 10_000_000


def _check_args(beta: float, L: float) -> None:
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")


def _levels(kind: str, mass: float, mode_constant: float, L: float, count: int) -> np.ndarray:
    if L <= 0.0:
        raise ValueError(f"coordinate must be positive, got L={L}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if kind == "spin_half":
        gap = 0.5 / L
        return np.array([-gap, gap])[:count]
    dim = _KINDS[kind][0]
    if kind.startswith("box"):
        unit = math.pi**2 / (2.0 * mass * L * L)
        if dim == 1:
            n = np.arange(1, count + 1, dtype=float)
            return unit * n * n
        squares = _flattened_sums(
            lambda k: np.arange(1, k + 1, dtype=float) ** 2, dim, count
        )
        return unit * squares
    # oscillator family, including the single cavity mode
    omega = mode_constant / L
    if dim == 1:
        return omega * (np.arange(count, dtype=float) + 0.5)
    return omega * _flattened_sums(lambda k: np.arange(k, dtype=float) + 0.5, dim, count)


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


def level_energies(model, L: float, count: int) -> np.ndarray:
    """First `count` level energies of model, flattened by non-decreasing energy.

    The spin returns fewer values once its two levels are exhausted.  The
    multi-dimensional kinds enumerate their multi-index spectrum directly.
    """
    return _levels(model.kind, model.mass, model.mode_constant, L, count)


def energy_level(model, n: int, L: float) -> float:
    """Energy of one level.

    Index conventions follow the defining formulas: box1d counts from n = 1,
    the oscillator kinds from n = 0, spin_half has n in {0, 1}.  The
    multi-dimensional kinds use the 0-based index of the multi-index
    enumeration flattened by non-decreasing energy.
    """
    first = 1 if model.kind == "box1d" else 0
    last = 1 if model.kind == "spin_half" else math.inf
    if not first <= n <= last:
        raise ValueError(f"{model.kind} level index must lie in [{first}, {last}], got {n}")
    return float(level_energies(model, L, n - first + 1)[n - first])


def _axis_levels(model, L: float, count: int) -> np.ndarray:
    return _levels(_KINDS[model.kind][2], model.mass, model.mode_constant, L, count)


def _box1d_tail(c: float, n_levels: int) -> float:
    """Bound on sum_{n > N} exp(-c (n^2 - 1)) via the Gaussian comparison
    integral, evaluated in log space so large c cannot overflow."""
    e = math.erfc(math.sqrt(c) * n_levels)
    if e == 0.0:
        return 0.0
    return 0.5 * math.sqrt(math.pi / c) * math.exp(c + math.log(e))


def _axis_weights(model, beta: float, L: float) -> tuple[np.ndarray, np.ndarray, float]:
    """One axis's level energies, their Boltzmann factors exp(-beta (E_n - E_0)),
    and the omitted weight relative to the factors' sum.

    The level count comes from a closed-form bound on the omitted weight (the
    Gaussian comparison integral for the box, geometric for the linear
    spectra), checked against _LEVEL_CAP before anything is allocated.  The
    partial sum lies below the full one, so the relative bound is honest.
    """
    kind = _KINDS[model.kind][2]
    if kind == "spin_half":
        e = _axis_levels(model, L, 2)
        return e, np.exp(-beta * (e - e[0])), 0.0
    first = _axis_levels(model, L, 2)
    if kind == "box1d":
        x = beta * first[0]  # E_n - E_0 = E_1 (n^2 - 1)
        count = int(math.sqrt((4.0 - math.log(_VECTOR_CUT)) / x)) + 2

        def tail(n: int) -> float:
            return _box1d_tail(x, n)

    else:
        x = beta * (first[1] - first[0])
        count = max(2, math.ceil((4.0 - math.log(_VECTOR_CUT)) / x))

        def tail(n: int) -> float:
            return math.exp(-x * n) / -math.expm1(-x)  # sum_{m >= n} q^m

    while True:
        if count > _LEVEL_CAP:
            raise ConvergenceError(
                f"{count} levels needed to bound the tail below "
                f"{_VECTOR_CUT:.0e} of z at x = {x:.3e}; "
                f"level cap {_LEVEL_CAP} reached"
            )
        e = _axis_levels(model, L, count)
        w = np.exp(-beta * (e - e[0]))
        bound = tail(count) / float(w.sum())
        if bound <= _VECTOR_CUT:
            return e, w, bound
        count *= 2


def internal_energy(model, probabilities: np.ndarray, L: float, axes: int = 1) -> float:
    """U = axes sum_n P_n E_n over one axis's levels, for any occupation vector."""
    return axes * float(probabilities @ _axis_levels(model, L, probabilities.size))


def force(model, probabilities: np.ndarray, L: float, axes: int = 1) -> float:
    """F = -axes sum_n P_n dE_n/dL for any occupation vector, with the analytic
    level derivatives dE_n/dL = -p E_n / L."""
    slopes = -_KINDS[model.kind][1] * _axis_levels(model, L, probabilities.size) / L
    return -axes * float(probabilities @ slopes)


def entropy(probabilities: np.ndarray, axes: int = 1) -> float:
    """Gibbs-Shannon entropy -axes sum_n P_n ln P_n (k = 1)."""
    p = probabilities[probabilities > 0.0]
    return -axes * float(p @ np.log(p))


class LevelSums(NamedTuple):
    """A Gibbs state by direct sums over one axis's levels, `axes` copies.

    log_z is ln sum_n exp(-beta (E_n - E_0)) over one axis, and
    log_partition = axes (log_z - beta E_0).  energy, entropy and force sum
    over `probabilities`, the axis vector normalised by its own sum;
    tail_bound bounds the product state's omitted weight relative to the
    summed Z.
    """

    axes: int
    energies: np.ndarray
    probabilities: np.ndarray
    log_z: float
    log_partition: float
    energy: float
    entropy: float
    force: float
    tail_bound: float


def gibbs_sums(model, beta: float, L: float) -> LevelSums:
    """The equilibrium state at (beta, L) by direct level sums."""
    _check_args(beta, L)
    axes = _KINDS[model.kind][0]
    energies, weights, bound = _axis_weights(model, beta, L)
    z = float(weights.sum())
    p = weights / z
    p.flags.writeable = False
    log_z = math.log(z)
    return LevelSums(
        axes=axes,
        energies=energies,
        probabilities=p,
        log_z=log_z,
        log_partition=axes * (log_z - beta * float(energies[0])),
        energy=internal_energy(model, p, L, axes),
        entropy=entropy(p, axes),
        force=force(model, p, L, axes),
        tail_bound=math.expm1(axes * math.log1p(bound)),
    )


# --------------------------------------------------------------------------
# Closed forms.  The box forms are classical-limit formulas; they hold only
# for beta * E_1 << 1.  The cavity/oscillator and spin forms are exact at all
# temperatures.


def force_equilibrium_closed(model, beta: float, L: float) -> float:
    """Closed-form equilibrium force.

    box1d: F = 1/(L beta), the classical-limit equation of state F L = kT.
    cavity/harmonic1d: exact radiation force, vacuum term included.
    spin_half: exact -tanh(beta/(2L)) / (2 L^2), negative at all beta.
    """
    _check_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 1.0 / (L * beta)
    if kind in ("cavity", "harmonic1d"):
        omega = model.mode_constant / L
        return (omega / math.expm1(beta * omega) + 0.5 * omega) / L
    if kind == "spin_half":
        return -math.tanh(0.5 * beta / L) / (2.0 * L * L)
    raise ValueError(f"no closed-form force for kind {kind!r}; use the summed force")


def internal_energy_closed(model, beta: float, L: float) -> float:
    """Closed-form internal energy: box1d classical 1/(2 beta); cavity and
    harmonic1d exact (<n> + 1/2) omega; spin_half exact."""
    _check_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 0.5 / beta
    if kind in ("cavity", "harmonic1d"):
        omega = model.mode_constant / L
        return (1.0 / math.expm1(beta * omega) + 0.5) * omega
    if kind == "spin_half":
        return -0.5 * math.tanh(0.5 * beta / L) / L
    raise ValueError(f"no closed-form internal energy for kind {kind!r}")


def entropy_closed(model, beta: float, L: float) -> float:
    """Closed-form entropy: box1d classical-limit reference, cavity and
    harmonic1d exact via the mean occupation."""
    _check_args(beta, L)
    kind = model.kind
    if kind == "box1d":
        return 0.5 + math.log(
            0.5 * math.sqrt(2.0 * model.mass * L * L / (math.pi * beta))
        )
    if kind in ("cavity", "harmonic1d"):
        omega = model.mode_constant / L
        n_bar = 1.0 / math.expm1(beta * omega)
        return n_bar * beta * omega + math.log1p(n_bar)
    raise ValueError(f"no closed-form entropy for kind {kind!r}")
