"""An independent 50-digit oracle for the Carnot and Otto cycles.

Every heat of these cycles is a difference of state functions at a
segment's ends: Q = T dS on an isotherm, Q = dU on an isochore and 0 on an
adiabat.  So Q_in, Q_out and W_net follow from the four corners alone, with
no path and no quadrature.  The corners come from the builder's inputs and
the adiabat rule, x = beta Delta(L) held (beta L^-p held), never from a
CycleSpec.  The state functions of one axis are a direct level sum for the
box, the exact Bose forms for the oscillators and the cavity and the
two-level form for the spin; a d-dimensional kind is d axes.  Nothing here
calls qcycle: a model is read only for its kind, mass and mode constant.

mpmath is a test dependency only, so the oracle lives with the tests.
"""

from typing import NamedTuple

import mpmath as mp

DIGITS = 50
# kind -> (dimension d, spectrum of one axis); E_n = E_0 + Delta g_n with
# g_n = n^2 - 1 (n >= 1) for the box, n (n >= 0) for the Bose spectra and
# 0, 1 for the spin
_KINDS = {
    "box1d": (1, "box"),
    "box2d": (2, "box"),
    "box3d": (3, "box"),
    "harmonic1d": (1, "bose"),
    "harmonic2d": (2, "bose"),
    "harmonic3d": (3, "bose"),
    "cavity": (1, "bose"),
    "spin_half": (1, "spin"),
}
# a box sum stops at the first term below this fraction of its first
# excited term, e^(-3x)
_BOX_CUTOFF = mp.mpf("1e-60")


class CycleHeats(NamedTuple):
    Q_in: float
    Q_out: float
    W_net: float
    eta: float


def _power(model) -> int:
    """p of Delta ~ L^-p."""
    return 2 if _KINDS[model.kind][1] == "box" else 1


def gap(model, L):
    """Delta of one axis at L."""
    spectrum = _KINDS[model.kind][1]
    if spectrum == "box":
        return mp.pi**2 / (2 * mp.mpf(model.mass) * L**2)
    if spectrum == "spin":
        return 1 / L
    return mp.mpf(model.mode_constant) / L


def axis_moments(spectrum: str, x):
    """(ln z, <g>) of one axis at x = beta Delta, z = sum_n e^(-x g_n)."""
    if spectrum == "bose":
        # ln z = -ln(1 - e^-x): at 50 digits, 1 - e^-x keeps e^-x only where
        # it is not far below 1e-50, so log1p of -e^-x takes over from ln 2
        q = mp.exp(-x)
        log_z = -mp.log(-mp.expm1(-x)) if x < mp.ln2 else -mp.log1p(-q)
        return log_z, 1 / mp.expm1(x)
    if spectrum == "spin":
        return mp.log1p(mp.exp(-x)), 1 / (mp.exp(x) + 1)
    # box: t_n = e^(-x (n^2 - 1)) from n = 2, each term the last times
    # e^(-x (2n - 1)), whose factor shrinks by e^(-2x) per level
    first = term = mp.exp(-3 * x)
    step, shrink = mp.exp(-5 * x), mp.exp(-2 * x)
    excited = weighted = mp.mpf(0)
    n = 2
    while term >= _BOX_CUTOFF * first:
        excited += term
        weighted += (n * n - 1) * term
        term *= step
        step *= shrink
        n += 1
    return mp.log1p(excited), weighted / (1 + excited)


def _corner(model, beta, L):
    """(thermal energy d Delta <g>, entropy d (ln z + x <g>)) at (beta, L)."""
    d, spectrum = _KINDS[model.kind]
    delta = gap(model, L)
    x = beta * delta
    log_z, mean = axis_moments(spectrum, x)
    return d * delta * mean, d * (log_z + x * mean)


def entropy(model, beta, L) -> float:
    """S at (beta, L), to 50 digits, rounded to a float."""
    with mp.workdps(DIGITS):
        return float(_corner(model, mp.mpf(beta), mp.mpf(L))[1])


def _totals(heats) -> CycleHeats:
    q_in = mp.fsum(q for q in heats if q > 0)
    q_out = -mp.fsum(q for q in heats if q < 0)
    w_net = mp.fsum(heats)
    return CycleHeats(float(q_in), float(q_out), float(w_net), float(w_net / q_in))


def carnot(model, T_H, T_C, L_A, L_B) -> CycleHeats:
    """Isotherms at T_H (A -> B) and T_C (C -> D): Q = T dS on each."""
    with mp.workdps(DIGITS):
        T_H, T_C, L_A, L_B = map(mp.mpf, (T_H, T_C, L_A, L_B))
        stretch = (T_H / T_C) ** (mp.mpf(1) / _power(model))
        L_C, L_D = L_B * stretch, L_A * stretch
        S = [_corner(model, 1 / T, L)[1]
             for T, L in ((T_H, L_A), (T_H, L_B), (T_C, L_C), (T_C, L_D))]
        return _totals([T_H * (S[1] - S[0]), T_C * (S[3] - S[2])])


def otto(model, L0, L1, beta_hot, beta_cold) -> CycleHeats:
    """Isochores at L0 (A -> B) and L1 (C -> D): Q = dU on each, of the
    thermal energy, as E_0 is the same at both ends."""
    with mp.workdps(DIGITS):
        L0, L1, beta_hot, beta_cold = map(mp.mpf, (L0, L1, beta_hot, beta_cold))
        p = _power(model)
        U = [_corner(model, beta, L)[0] for beta, L in (
            (beta_cold * (L0 / L1) ** p, L0),
            (beta_hot, L0),
            (beta_hot * (L1 / L0) ** p, L1),
            (beta_cold, L1),
        )]
        return _totals([U[1] - U[0], U[3] - U[2]])
