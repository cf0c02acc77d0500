"""Shared numerical kernels with explicit tolerances.

Adaptive and fixed-panel quadrature of vectorised integrands, and centered
finite differences.  Tolerances come in an explicit NumericsPolicy; there is
no module-level configuration, so identical inputs reproduce identical
outputs bit-for-bit.  No randomized schemes are used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class NumericsPolicy:
    """The tolerances and caps a run reads.

    quad_tol       relative tolerance of adaptive quadrature (the heat-rate
                   cross-check of every segment)
    quad_max_depth maximum interval-halving depth
    root_max_iter  iteration cap of the box isobar's Newton solve
    """

    quad_tol: float = 1e-10
    quad_max_depth: int = 40
    root_max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.quad_tol < 1.0:
            raise ValueError(f"quad_tol must lie in (0, 1), got {self.quad_tol}")
        for name in ("quad_max_depth", "root_max_iter"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_POLICY = NumericsPolicy()


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Integral of a vectorised f over [a, b] by adaptive Simpson refinement.

    Panels are refined breadth first: f is called once per level, on the
    array of the quarter points of every open panel.  A panel's halving
    difference delta must meet the level's budget, policy.quad_tol times the
    coarse integral magnitude, halved per level.  A panel open at depth
    policy.quad_max_depth, or a level of more than 2^16 open panels, raises
    ConvergenceError.
    """
    if a == b:
        return 0.0
    f3 = f(np.array([a, 0.5 * (a + b), b])).reshape(3, 1)
    fa, fm, fb = f3[:, 0]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    rough_abs = abs(b - a) / 6.0 * (abs(fa) + 4.0 * abs(fm) + abs(fb))
    scale = max(abs(whole), rough_abs, 1e-300)
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


_FD_STEP_REL = 1e-6


def derivative_centered(f: Callable[[float], float], x: float) -> float:
    """Centered finite difference with h = 1e-6 * max(|x|, 1)."""
    h = _FD_STEP_REL * max(abs(x), 1.0)
    hi, lo = f(x + h), f(x - h)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError(f"non-finite evaluation while differencing at x={x}")
    return (hi - lo) / (2.0 * h)
