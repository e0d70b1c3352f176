"""Special functions and adaptive quadrature.

Provides the log-gamma / Beta / Kummer / Tricomi kernels needed by the
normalization constants of the solvable families, plus a Gauss-Kronrod
adaptive integrator that doubles as the package's independent numerical
oracle.  Log-gamma comes from the standard library (``math.lgamma``); the
rest is written here, assembled in log space where overflow is a risk, and
depends on no external special-function library.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadratureResult",
    "ln_gamma",
    "ln_beta",
    "kummer_1f1",
    "tricomi_u",
    "whittaker_w",
    "integrate_adaptive",
]


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach its tolerance."""


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (the standard library's ``math.lgamma``)."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def ln_beta(p: float, q: float) -> float:
    """log B(p, q) for p, q > 0."""
    if p <= 0.0 or q <= 0.0:
        raise ValueError(f"ln_beta requires p, q > 0, got ({p!r}, {q!r})")
    return ln_gamma(p) + ln_gamma(q) - ln_gamma(p + q)


_SERIES_MAX_TERMS = 100_000


def kummer_1f1(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; x).

    Direct term-ratio series for x >= 0.  Negative arguments are routed
    through the transformation 1F1(a; b; x) = e^x 1F1(b - a; b; -x) so the
    summed series has non-negative argument (and, for the b > a > 0 cases
    used here, positive terms and no cancellation).
    """
    a = float(a)
    b = float(b)
    x = float(x)
    if b <= 0.0:
        raise ValueError(f"kummer_1f1 requires b > 0, got b={b!r}")
    if x < 0.0:
        return math.exp(x) * kummer_1f1(b - a, b, -x)
    term = 1.0
    total = 1.0
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise ConvergenceError(
        f"kummer_1f1({a}, {b}, {x}) did not converge in {_SERIES_MAX_TERMS} terms"
    )


def tricomi_u(a: float, b: float, x: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, x), a > 0, x > 0.

    Evaluated from the Laplace integral representation

        U(a, b, x) = (1 / Gamma(a)) * int_0^inf e^{-x t} t^{a-1} (1+t)^{b-a-1} dt

    by endpoint-aware adaptive quadrature.
    """
    a = float(a)
    b = float(b)
    x = float(x)
    if a <= 0.0 or x <= 0.0:
        raise ValueError(f"tricomi_u requires a > 0 and x > 0, got a={a!r}, x={x!r}")
    c = b - a - 1.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            logv = -x * t + (a - 1.0) * np.log(t) + c * np.log1p(t)
        return np.exp(logv)

    res = integrate_adaptive(integrand, 0.0, math.inf, 1e-11, endpoint_power=a - 1.0)
    if not res.converged:
        raise ConvergenceError(
            f"tricomi_u({a}, {b}, {x}): quadrature stalled with error estimate "
            f"{res.abs_error_estimate:.3e}"
        )
    return res.value * math.exp(-ln_gamma(a))


def whittaker_w(kappa: float, mu: float, x: float) -> float:
    """Whittaker function W_{kappa, mu}(x) for x > 0 and mu - kappa + 1/2 > 0.

    Thin wrapper over the Tricomi kernel:
    W_{kappa,mu}(x) = e^{-x/2} x^{mu + 1/2} U(mu - kappa + 1/2, 1 + 2 mu, x).
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"whittaker_w requires x > 0, got {x!r}")
    a = mu - kappa + 0.5
    return math.exp(-0.5 * x + (mu + 0.5) * math.log(x)) * tricomi_u(a, 1.0 + 2.0 * mu, x)


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    ``converged`` is False when the subdivision budget ran out; the value and
    error estimate are then the best available, never silently truncated.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  All nodes are
# interior, so integrable endpoint singularities are never sampled.
_GK_NODES_POS = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_GK_WEIGHTS_POS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_G_WEIGHTS_POS = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_XGK = np.concatenate([-_GK_NODES_POS[:-1], _GK_NODES_POS[::-1]])
_WGK = np.concatenate([_GK_WEIGHTS_POS[:-1], _GK_WEIGHTS_POS[::-1]])
_G_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_G_WEIGHTS_POS[:-1], _G_WEIGHTS_POS[::-1]])

_MAX_PANELS = 4000


def _gk15(g: Callable, *edges: float) -> list[tuple[float, float]]:
    """(Kronrod value, |Kronrod - Gauss|) of each panel between consecutive ``edges``.

    All panels' nodes go to ``g`` in one call; each panel's sums are its own
    1-D dot products, which round as a lone panel's do.
    """
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    nodes = np.concatenate([mid + half * _XGK for mid, half in panels])
    fx = np.asarray(g(nodes), dtype=float)
    if fx.shape != nodes.shape:
        raise ValueError(
            f"integrand must map a length-{nodes.size} array to a length-{nodes.size} array"
        )
    out = []
    for (_, half), f in zip(panels, fx.reshape(-1, 15)):
        kron = half * float(f @ _WGK)
        gauss = half * float(f[_G_IDX] @ _WG)
        out.append((kron, abs(kron - gauss)))
    return out


def _adapt(g: Callable, lo: float, hi: float, rtol: float) -> QuadratureResult:
    """Greedy global subdivision (QUADPACK's QAG rule) of GK15 panels.

    The panel with the largest error estimate is halved, and both halves
    are evaluated in one call of ``g``.
    """
    [(value, err)] = _gk15(g, lo, hi)
    panels = [(-err, lo, hi, value, err)]
    total = value
    total_err = err
    evals = 15
    n_panels = 1
    while total_err > rtol * abs(total) and n_panels < _MAX_PANELS:
        _, a, b, v, e = heapq.heappop(panels)
        m = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _gk15(g, a, m, b)
        evals += 30
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(panels, (-e1, a, m, v1, e1))
        heapq.heappush(panels, (-e2, m, b, v2, e2))
        n_panels += 1
    converged = total_err <= rtol * abs(total)
    return QuadratureResult(total, total_err, evals, converged)


def integrate_adaptive(
    g: Callable,
    lo: float,
    hi: float,
    rtol: float,
    *,
    endpoint_power: float | None = None,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``g`` over [lo, hi].

    ``g`` must accept numpy arrays.  ``hi`` may be +inf, in which case the
    tail is folded onto a finite interval with t = lo + u/(1-u).  When the
    integrand behaves like (z - lo)^p near the lower endpoint with p < 1,
    pass ``endpoint_power=p`` and one layer of the substitution
    u = sqrt(z - lo) is applied to soften it.  Stops once the accumulated
    error estimate drops to ``rtol * |value|``, ``rtol > 0``, or once the
    interval is split into ``_MAX_PANELS`` panels; ``converged`` tells
    which.
    """
    lo = float(lo)
    hi = float(hi)
    if not math.isfinite(lo):
        raise ValueError("lower integration limit must be finite")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol!r}")

    needs_sub = endpoint_power is not None and endpoint_power < 1.0

    if math.isinf(hi):
        if needs_sub:
            split = lo + 1.0
            left = _integrate_sqrt_sub(g, lo, split, rtol)
            right = _integrate_tail(g, split, rtol)
            return _combine(left, right)
        return _integrate_tail(g, lo, rtol)
    if needs_sub:
        return _integrate_sqrt_sub(g, lo, hi, rtol)
    return _adapt(g, lo, hi, rtol)


def _integrate_sqrt_sub(g, lo, hi, rtol) -> QuadratureResult:
    def h(u):
        u = np.asarray(u, dtype=float)
        return 2.0 * u * np.asarray(g(lo + u * u), dtype=float)

    return _adapt(h, 0.0, math.sqrt(hi - lo), rtol)


def _integrate_tail(g, lo, rtol) -> QuadratureResult:
    def h(u):
        u = np.asarray(u, dtype=float)
        s = 1.0 - u
        return np.asarray(g(lo + u / s), dtype=float) / (s * s)

    return _adapt(h, 0.0, 1.0, rtol)


def _combine(r1: QuadratureResult, r2: QuadratureResult) -> QuadratureResult:
    return QuadratureResult(
        r1.value + r2.value,
        r1.abs_error_estimate + r2.abs_error_estimate,
        r1.evaluations + r2.evaluations,
        r1.converged and r2.converged,
    )
