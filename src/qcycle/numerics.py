"""Shared numerical kernels with explicit tolerances.

Certified series summation, bracketed root finding, adaptive quadrature and
centered finite differences.  Every routine takes a NumericsPolicy; there is
no module-level configuration, so identical inputs reproduce identical
outputs bit-for-bit.  No randomized schemes are used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

TermBlock = Callable[[int, int], Sequence[float]]
TailBound = Callable[[int, float, float], float]


@dataclass(frozen=True)
class NumericsPolicy:
    """Tolerances and caps shared by all numerical kernels.

    series_tol     relative bound on the omitted tail of a truncated series
    level_cap      hard cap on the number of spectrum levels summed
    quad_tol       relative tolerance of adaptive quadrature
    quad_max_depth maximum interval-halving depth
    root_tol       relative bracket width at root-finder convergence
    root_max_iter  iteration cap of the root finder
    fd_step_rel    relative step of centered finite differences
    """

    series_tol: float = 1e-12
    level_cap: int = 10_000_000
    quad_tol: float = 1e-10
    quad_max_depth: int = 40
    root_tol: float = 1e-12
    root_max_iter: int = 200
    fd_step_rel: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("series_tol", "quad_tol", "root_tol", "fd_step_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        for name in ("level_cap", "quad_max_depth", "root_max_iter"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_POLICY = NumericsPolicy()


def sum_with_tail_bound(
    block_terms: TermBlock,
    tail_bound: TailBound,
    policy: NumericsPolicy = DEFAULT_POLICY,
    *,
    first_block: int = 64,
) -> tuple[float, int, float]:
    """Sum a positive, eventually decaying series with a certified tail.

    ``block_terms(i0, i1)`` returns the terms with indices [i0, i1) as an
    array; returning fewer terms than requested signals a finite spectrum
    that has been exhausted (the tail is then exactly zero).
    ``tail_bound(n, s, t)`` must return an upper bound on the sum of all
    terms with index >= n, given the partial sum s and the last included
    term t.  Summation stops once the bound drops below
    ``policy.series_tol`` times the partial sum.

    Returns ``(total, n_used, bound)``.  Raises ConvergenceError when the
    level cap is reached first.
    """
    total = 0.0
    used = 0
    block = first_block
    while True:
        want = min(block, policy.level_cap - used)
        terms = np.asarray(block_terms(used, used + want), dtype=float)
        total += float(terms.sum())
        used += terms.size
        if terms.size < want:
            return total, used, 0.0
        bound = tail_bound(used, total, float(terms[-1]))
        if bound <= policy.series_tol * total:
            return total, used, bound
        if used >= policy.level_cap:
            raise ConvergenceError(
                f"series tail bound {bound:.3e} still above "
                f"{policy.series_tol:.1e} x partial sum after {used} terms; "
                "level cap reached (beta * E_1 too small for the cap)"
            )
        block *= 2


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Root of a continuous function on a sign-changing bracket [lo, hi].

    Illinois-damped false position: each step replaces one bracket end with
    the secant intersection, and halves the retained end's function value
    when the same side is kept twice in a row.  Deterministic, superlinear,
    and the bracket always contains a root.
    """
    if hi < lo:
        lo, hi = hi, lo
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise ConvergenceError(f"no sign change on bracket [{lo}, {hi}]")
    a, b = lo, hi
    side = 0
    for _ in range(policy.root_max_iter):
        x = (fa * b - fb * a) / (fa - fb)
        if abs(b - a) <= policy.root_tol * max(abs(a), abs(b), 1e-300):
            return x
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side == +1:
                fa *= 0.5
            side = +1
    raise ConvergenceError(
        f"root finder exceeded {policy.root_max_iter} iterations "
        f"on [{lo}, {hi}]"
    )


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
    *,
    scale_hint: float = 0.0,
) -> float:
    """Integral of a vectorised f over [a, b] by adaptive Simpson refinement.

    Panels are refined breadth first: f is called once per level, on the
    array of the quarter points of every open panel.  A panel's halving
    difference delta must meet the level's budget, policy.quad_tol times the
    coarse integral magnitude (or scale_hint, where the integral may cancel)
    halved per level.  A panel open at depth policy.quad_max_depth, or a
    level of more than 2^16 open panels, raises ConvergenceError.
    """
    if a == b:
        return 0.0
    f3 = f(np.array([a, 0.5 * (a + b), b])).reshape(3, 1)
    fa, fm, fb = f3[:, 0]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    rough_abs = abs(b - a) / 6.0 * (abs(fa) + 4.0 * abs(fm) + abs(fb))
    scale = max(abs(whole), rough_abs, abs(scale_hint), 1e-300)
    eps = policy.quad_tol * scale
    # the open panels of a level share their width h; per panel its left
    # end lo, f at its ends and midpoint (rows of f3) and its Simpson value
    h, lo, simpson = b - a, np.array([a]), np.array([whole])
    accepted = []
    for depth in range(policy.quad_max_depth, -1, -1):
        n = lo.size
        quarters = f(np.concatenate((lo + 0.25 * h, lo + 0.75 * h)))
        v = np.empty((5, n))  # f at each panel's five nodes, left to right
        v[0::2], v[1::2] = f3, quarters.reshape(2, n)
        halves = h / 12.0 * (v[0:4:2] + 4.0 * v[1:4:2] + v[2:5:2])  # left, right
        refined = halves[0] + halves[1]
        delta = refined - simpson
        # delta / 15 estimates the error only on a panel that resolves f.
        # Where f changes by more than a factor 2 across the panel (exp(40 t)
        # at width 1/2), the extrapolated value can miss by five times that,
        # so there the whole difference must meet the budget.
        size = np.abs(v)
        resolved = np.maximum.reduce(size) <= 2.0 * np.minimum.reduce(size)
        done = np.abs(delta) <= np.where(resolved, 15.0 * eps, eps)
        accepted.append((refined + delta / 15.0)[done])
        split = ~done
        if not split.any():
            return math.fsum(np.concatenate(accepted).tolist())
        # the cap on open panels bounds the next level's node arrays
        if depth == 0 or np.count_nonzero(split) > 2**16:
            raise ConvergenceError("adaptive quadrature exceeded max depth")
        lo = np.concatenate((lo[split], lo[split] + 0.5 * h))
        f3 = np.concatenate((v[:3, split], v[2:, split]), axis=1)
        simpson = halves[:, split].reshape(-1)
        h, eps = 0.5 * h, 0.5 * eps


# Fixed composite Gauss-Legendre rule.  Used as a second, independently
# discretized route to path integrals when cross-checking the adaptive rule.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def integrate_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    panels: int = 20,
) -> float:
    """Composite 8-point Gauss-Legendre quadrature on a fixed panel grid;
    the vectorised f is called once, on the array of every node."""
    if a == b:
        return 0.0
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    terms = half[:, None] * _GL_WEIGHTS * f(nodes.ravel()).reshape(nodes.shape)
    return math.fsum(terms.ravel().tolist())


def derivative_centered(
    f: Callable[[float], float],
    x: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Centered finite difference with h = fd_step_rel * max(|x|, 1)."""
    h = policy.fd_step_rel * max(abs(x), 1.0)
    hi, lo = f(x + h), f(x - h)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"non-finite evaluation while differencing at x={x}")
    return (hi - lo) / (2.0 * h)
