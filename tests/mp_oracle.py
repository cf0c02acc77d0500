"""An independent 50-digit oracle for the four cycle kinds.

Every heat of these cycles is a difference of state functions at a
segment's ends: Q = T dS on an isotherm, Q = dU on an isochore,
Q = Delta (U + F L) on an isobar at its held F and 0 on an adiabat.  So
Q_in, Q_out and W_net follow from the four corners alone, with no path and
no quadrature.  The corners come from the builder's inputs, the adiabat
rule, x = beta Delta(L) held (beta L^-p held), and on an isobar a root of
F(beta, L) = F, never from a CycleSpec.  The state functions of one axis
are a direct level sum for the box (its <g> by the theta inversion below
x = 1/2), the exact Bose forms for the oscillators and the cavity and the
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


# --------------------------------------------------------------------------
# Brayton and Diesel: every heat is still a difference of state functions
# at a segment's ends, Q = Delta (U + F L) on an isobar at its held F and
# Q = Delta U on an isochore, but an isobar corner's beta is a root:
# F(beta, L) = F, found here by bracketing in ln beta.  The force is
# F = p U / L with U = d (E_0 + Delta <g>), the identity of a spectrum
# E_n = c_n / L^p.


def _ground_per_gap(spectrum: str):
    """E_0 / Delta of one axis: g_n counts from the ground level n = 1 of
    the box (E_1 = Delta), n = 0 of a Bose mode (Delta / 2) and the spin's
    lower level (-Delta / 2)."""
    return {"box": mp.mpf(1), "bose": mp.mpf(1) / 2, "spin": -mp.mpf(1) / 2}[spectrum]


def _box_mean_inverted(x):
    """<g> of the box at x < 1/2, where the direct sum needs about
    12 / sqrt(x) terms.  By the Jacobi inversion, A = sum_{n in Z} e^(-x n^2)
    = sqrt(pi/x) theta with theta = 1 + 2 sum_{k>=1} e^(-y_k), y_k =
    pi^2 k^2 / x, and <n^2> = -A'/(A - 1), with x A' = sqrt(pi/x)
    (x theta' - theta/2) and x theta' = 2 sum_k y_k e^(-y_k)."""
    root = mp.sqrt(mp.pi / x)
    theta, x_dtheta = mp.mpf(1), mp.mpf(0)
    k = 1
    while True:
        y = mp.pi**2 * k * k / x
        term = mp.exp(-y)
        if term < _BOX_CUTOFF:
            break
        theta += 2 * term
        x_dtheta += 2 * y * term
        k += 1
    return -root * (x_dtheta - theta / 2) / (x * (root * theta - 1)) - 1


def mean(spectrum: str, x):
    """<g> of one axis at x; the box's by the theta inversion below x = 1/2
    and by the direct level sum above it."""
    if spectrum == "box" and x < mp.mpf(1) / 2:
        return _box_mean_inverted(x)
    return axis_moments(spectrum, x)[1]


def _energy(model, beta, L):
    """U = d (E_0 + Delta <g>) at (beta, L)."""
    d, spectrum = _KINDS[model.kind]
    delta = gap(model, L)
    return d * delta * (_ground_per_gap(spectrum) + mean(spectrum, beta * delta))


def _force(model, beta, L):
    """F = p U / L at (beta, L)."""
    return _power(model) * _energy(model, beta, L) / L


def isobar_force(model, x, L) -> float:
    """F of the state at x = beta Delta and L, to 50 digits, as a float."""
    with mp.workdps(DIGITS):
        L = mp.mpf(L)
        return float(_force(model, mp.mpf(x) / gap(model, L), L))


def isobar_length(model, x, F) -> float:
    """The L at which the state at x = beta Delta has force F, as a float.
    E_0 and Delta scale as L^-p, so F L^(p+1) depends on x alone."""
    with mp.workdps(DIGITS):
        p = _power(model)
        F_at_1 = _force(model, mp.mpf(x) / gap(model, mp.mpf(1)), mp.mpf(1))
        return float((F_at_1 / mp.mpf(F)) ** (mp.mpf(1) / (p + 1)))


def isobar_beta(model, F, L):
    """The beta at which the force at L is F: a root in s = ln beta of
    ln(F(beta, L) - F_vac) = ln(F - F_vac), with F_vac = p d E_0 / L the
    vacuum force.  The thermal force F(beta, L) - F_vac = p d Delta <g> / L
    falls with beta about as fast as <g>, so the equation is smooth in s at
    any x, where F(beta, L) = F itself flattens to the vacuum force in the
    cold.  It is bracketed from the classical guess beta = d / ((F - F_vac) L)
    by doubling steps, then refined by the Anderson-Bjorck method.  A target
    at or below the vacuum force has no root and raises ValueError."""
    d, spectrum = _KINDS[model.kind]
    p = _power(model)
    delta = gap(model, L)
    thermal = F - p * d * delta * _ground_per_gap(spectrum) / L
    if thermal <= 0:
        raise ValueError(f"force {F} at L = {L} is at or below the vacuum force")

    def excess(s):
        return mp.log(p * d * delta * mean(spectrum, mp.exp(s) * delta) / (L * thermal))

    guess = mp.log(d / (thermal * L))
    lo, step = guess - 1, mp.mpf(1)
    while excess(lo) <= 0:
        lo, step = lo - step, 2 * step
    hi, step = guess + 1, mp.mpf(1)
    while excess(hi) >= 0:
        hi, step = hi + step, 2 * step
    return mp.exp(mp.findroot(excess, (lo, hi), solver="anderson"))


def brayton(model, F1, F0, L_A, L_B) -> CycleHeats:
    """Isobars at F1 (A -> B) and F0 (C -> D), whose four corners are each
    solved on their isobar; the adiabats fix only L_C = L_B (F1/F0)^(1/(p+1))
    and L_D likewise from L_A."""
    with mp.workdps(DIGITS):
        F1, F0, L_A, L_B = map(mp.mpf, (F1, F0, L_A, L_B))
        stretch = (F1 / F0) ** (mp.mpf(1) / (_power(model) + 1))
        L_C, L_D = L_B * stretch, L_A * stretch
        U = [_energy(model, isobar_beta(model, F, L), L)
             for F, L in ((F1, L_A), (F1, L_B), (F0, L_C), (F0, L_D))]
        return _totals([U[1] - U[0] + F1 * (L_B - L_A), U[3] - U[2] + F0 * (L_D - L_C)])


def diesel(model, F1, L1, r_C, r_E) -> CycleHeats:
    """Isobar at F1 from L_A = r_C L1 (A) to L_B = r_E L1 (B), whose corners
    are solved on it, and the isochore at L1 from C to D, whose corners keep
    x of B and of A (beta L^-p held on the adiabats)."""
    with mp.workdps(DIGITS):
        F1, L1, r_C, r_E = map(mp.mpf, (F1, L1, r_C, r_E))
        p = _power(model)
        L_A, L_B = r_C * L1, r_E * L1
        beta_A, beta_B = (isobar_beta(model, F1, L) for L in (L_A, L_B))
        U_A, U_B = _energy(model, beta_A, L_A), _energy(model, beta_B, L_B)
        U_C = _energy(model, beta_B * (L1 / L_B) ** p, L1)
        U_D = _energy(model, beta_A * (L1 / L_A) ** p, L1)
        return _totals([U_B - U_A + F1 * (L_B - L_A), U_D - U_C])
