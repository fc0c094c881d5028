"""Vectorized adaptive Gauss-Kronrod panel quadrature.

Workhorse for the noise integrals: a 15-point Kronrod rule with embedded
7-point Gauss error estimate (the classic QUADPACK pair) applied on a set
of panels that is refined globally, worst error first.  All pending panels
are evaluated in one batched call, so numpy-vectorized integrands pay the
python overhead once per refinement round, not once per panel.

The integrand may return several components at once (shape (n, m) for n
abscissae); refinement continues until every component meets its target.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "integrate", "log_edges"]

# QUADPACK dqk15 constants: Kronrod abscissae/weights and the embedded
# Gauss weights on the shared nodes (zeros on Kronrod-only nodes).
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([0.129484966168870, 0.279705391489277,
                     0.381830050505119, 0.417959183673469])

_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # ascending, 15
_WK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


class QuadratureError(RuntimeError):
    """Refinement hit the panel cap; .value/.error carry the best estimate."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def log_edges(lo: float, hi: float, per_decade: int = 4) -> np.ndarray:
    """Geometrically spaced panel edges covering [lo, hi], lo > 0."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n = max(1, round(per_decade * math.log10(hi / lo)))
    return np.geomspace(lo, hi, n + 1)


def _eval_panels(f, a, b):
    """Kronrod value and |K-G| error for each panel [a_i, b_i]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _NODES
    fx = np.asarray(f(x.ravel()))
    m = 1 if fx.ndim == 1 else fx.shape[-1]
    fx = fx.reshape(x.shape + (m,))
    k = (fx * _WK[None, :, None]).sum(axis=1) * h[:, None]
    g = (fx * _WGAUSS[None, :, None]).sum(axis=1) * h[:, None]
    return k, np.abs(k - g)


def integrate(f, a: float, b: float, *, rtol: float = 1e-8, atol: float = 0.0,
              edges=None, max_panels: int = 4096):
    """Adaptive panel integration of f over [a, b].

    f maps a 1-d abscissa array to values of shape (n,) or (n, m); with m
    components each converges to |err_c| <= max(atol, rtol |I_c|).  edges
    optionally seeds interior panel boundaries (they are clipped to (a, b)).

    Returns (value, error, info) with value/error scalars for 1-d f, arrays
    of length m otherwise; info records panel and evaluation counts.
    Raises QuadratureError (carrying the best estimate) at the panel cap.
    Each round that does not stop adds at least one panel, so the cap also
    bounds the number of rounds.
    """
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError("need finite b > a")
    pts = np.array([a, b], dtype=float)
    if edges is not None:
        e = np.asarray(edges, dtype=float)
        pts = np.concatenate((pts, e[(e > a) & (e < b)]))
    pts = np.unique(pts)
    lo, hi = pts[:-1].copy(), pts[1:].copy()
    vals, errs = _eval_panels(f, lo, hi)
    scalar = vals.shape[1] == 1
    n_eval = lo.size * 15

    while True:
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        target = np.maximum(atol, rtol * np.abs(total))
        if np.all(toterr <= target):
            break
        if lo.size >= max_panels:
            raise QuadratureError(
                f"quadrature needs more than {max_panels} panels",
                value=total[0] if scalar else total,
                error=toterr[0] if scalar else toterr)
        # split the worst panels (normalized across components)
        score = (errs / np.maximum(target, 1e-300)).max(axis=1)
        n_split = min(max(4, lo.size // 4), max_panels - lo.size, lo.size)
        idx = np.argpartition(score, -n_split)[-n_split:]
        idx = idx[score[idx] > 0.0]
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        new_lo = np.concatenate([lo[idx], mid])
        new_hi = np.concatenate([mid, hi[idx]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi)
        n_eval += new_lo.size * 15
        keep = np.ones(lo.size, dtype=bool)
        keep[idx] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])

    total = vals.sum(axis=0)
    toterr = errs.sum(axis=0)
    info = {"n_panels": int(lo.size), "n_eval": int(n_eval)}
    if scalar:
        return float(total[0]), float(toterr[0]), info
    return total, toterr, info
