"""Shared numerical kernels with explicit tolerances.

Adaptive Gauss-Kronrod and fixed-panel Gauss-Legendre quadrature of
vectorised integrands, and centered finite differences.  Tolerances come in
an explicit NumericsPolicy; there is no module-level configuration, so
identical inputs reproduce identical outputs bit-for-bit.  No randomized
schemes are used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError


@dataclass(frozen=True)
class NumericsPolicy:
    """The tolerances and caps of the numerical kernels.

    quad_tol       relative tolerance of adaptive quadrature; in a cycle it
                   binds only when a segment's Q_direct cross-check is read,
                   never in the run itself
    quad_max_depth maximum interval-halving depth, likewise
    root_max_iter  cap on the kernel evaluations of the box isobar's Newton
                   solve; its closed-form seed is within about
                   2 e^(-pi^2/x) of the root where x <= 1, so a warm
                   isobar (x < 0.1) takes one evaluation and none more than
                   four
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


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15, Piessens et al. 1983): the
# non-negative Kronrod nodes from 1 down to 0, of which the second, fourth,
# sixth and eighth are Gauss nodes, with the Kronrod and the Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.zeros(8)
_WG[1::2] = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _mirrored(half: np.ndarray) -> np.ndarray:
    """A symmetric rule's 15 weights, left to right, from those at 1 .. 0."""
    return np.r_[half, half[-2::-1]]


# the 15 nodes of the panel [0, 1], left to right, and per node the weights
# on that panel of K15 (column 0) and of K15 - G7 (column 1)
_NODES = 0.5 + 0.5 * np.r_[-_XGK, _XGK[-2::-1]]
_WEIGHTS = 0.5 * np.column_stack((_mirrored(_WGK), _mirrored(_WGK - _WG)))
# the most nodes one level may evaluate, which bounds its arrays (1 MB each)
_MAX_NODES = 2**17


def integrate_adaptive_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    k: int,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> list[float]:
    """Integrals over [0, 1] of k integrands, by adaptive Gauss-Kronrod 7/15.

    f(owner, t) takes two arrays of one shape, the index in range(k) of the
    integrand each node belongs to and the node, and returns the integrand
    values there.  Panels are refined breadth first: f is called once per
    level, on the 15 nodes of every open panel of every integrand.  Each
    integral keeps its own budget, policy.quad_tol times its scale (the
    larger of |K15| and K15 of |f| on [0, 1]), halved per level; a panel is
    accepted, at its K15 value, when |K15 - G7| meets the budget.  The raw
    difference is a pessimistic estimate of the K15 error.  A panel open at
    depth policy.quad_max_depth, or a level of more than 2^17 nodes, raises
    ConvergenceError.  An integral comes out the same whichever integrands
    share its batch.
    """
    owner = np.arange(k)
    lo, h = np.zeros(k), 1.0
    values, owners = [], []
    for depth in range(policy.quad_max_depth + 1):
        if owner.size * _NODES.size > _MAX_NODES:
            raise ConvergenceError("adaptive quadrature exceeded max depth")
        t = lo[:, None] + h * _NODES
        y = f(np.repeat(owner, _NODES.size), t.ravel()).reshape(t.shape)
        # a sum of products rather than a matrix product: no BLAS call, whose
        # first use costs a process about 0.4 MB of resident memory
        rules = h * (y[:, :, None] * _WEIGHTS).sum(axis=1)
        if depth == 0:
            rough = h * (np.abs(y) * _WEIGHTS[:, 0]).sum(axis=1)
            scale = np.maximum(np.maximum(np.abs(rules[:, 0]), rough), 1e-300)
            eps = policy.quad_tol * scale
        done = np.abs(rules[:, 1]) <= eps[owner]
        values.append(rules[done, 0])
        owners.append(owner[done])
        split = ~done
        if not split.any():
            value, owner = np.concatenate(values), np.concatenate(owners)
            return [math.fsum(value[owner == i].tolist()) for i in range(k)]
        lo, owner = lo[split], owner[split]
        h, eps = 0.5 * h, 0.5 * eps
        lo, owner = np.concatenate((lo, lo + h)), np.concatenate((owner, owner))
    raise ConvergenceError("adaptive quadrature exceeded max depth")


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    policy: NumericsPolicy = DEFAULT_POLICY,
) -> float:
    """Integral of a vectorised f over [a, b]: integrate_adaptive_batch with
    one integrand, f taking each level's nodes as one array, and the same
    relative tolerance."""
    if a == b:
        return 0.0
    width = b - a
    (value,) = integrate_adaptive_batch(lambda _owner, t: f(a + width * t), 1, policy)
    return width * value


# Fixed composite Gauss-Legendre rule.  Used as a second, independently
# discretized route to path integrals when cross-checking the adaptive rule.
# The 8-point nodes and weights on [-1, 1], left to right: the values of
# numpy.polynomial.legendre.leggauss(8), written out so that no process
# imports numpy.polynomial for them.
_GL_NODES = np.array([
    -0.9602898564975362,
    -0.7966664774136267,
    -0.525532409916329,
    -0.18343464249564978,
    0.18343464249564978,
    0.525532409916329,
    0.7966664774136267,
    0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706,
    0.22238103445337443,
    0.3137066458778869,
    0.36268378337836166,
    0.36268378337836166,
    0.3137066458778869,
    0.22238103445337443,
    0.10122853629037706,
])


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


_FD_STEP_REL = 1e-3


def derivative_centered(f: Callable[[float], float], x: float) -> float:
    """Richardson-extrapolated centered difference (4 D(h/2) - D(h)) / 3, with
    D(h) = (f(x + h) - f(x - h)) / (2 h) and h = 1e-3 * max(|x|, 1).

    The h^2 error terms cancel, leaving O(h^4) truncation; a constant gives
    exactly 0.  The step does not shrink below 1e-3 for |x| < 1, so f must be
    defined on [x - h, x + h]: near a domain edge (say L -> 0 of a free
    energy) difference by hand with a step that stays inside it.
    """
    h = _FD_STEP_REL * max(abs(x), 1.0)
    values = [f(x + h), f(x - h), f(x + 0.5 * h), f(x - 0.5 * h)]
    if not all(np.isfinite(v) for v in values):
        raise ValueError(f"non-finite evaluation while differencing at x={x}")
    hi, lo, half_hi, half_lo = values
    return (4.0 * (half_hi - half_lo) / h - (hi - lo) / (2.0 * h)) / 3.0
