"""Vectorized adaptive Gauss-Kronrod panel quadrature.

Workhorse for the noise integrals: a 15-point Kronrod rule with embedded
7-point Gauss error estimate (the classic QUADPACK pair) applied on a set
of panels that is refined globally, worst error first.  All pending panels
are evaluated in one batched call, so numpy-vectorized integrands pay the
python overhead once per refinement round, not once per panel.

The integrand may return several components at once (shape (n, m) for n
abscissae); refinement continues until every component meets its target.

kronrod_panels builds a round's node grid as one matrix product, the
(n, 2) half-widths and centres times the (2, 15) rows of nodes and ones.
It takes each panel's Kronrod and Gauss sums from one more: the (n, 15)
values, or their (n, m, 15) transpose for m components, times the
(15, 2) weight columns.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "integrate", "kronrod_panels", "log_edges"]

# QUADPACK dqk15 constants, all 33 digits: Kronrod abscissae/weights and
# the embedded Gauss weights on the shared nodes (zeros on Kronrod-only nodes).
_XGK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])          # ascending, 15
_WK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WGAUSS = np.zeros(15)
_WGAUSS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
# [h c] @ _GRID is the node grid c + h x_j; f @ _KG holds the K and G sums
_GRID = np.stack([_NODES, np.ones(15)])
_KG = np.stack([_WK, _WGAUSS], axis=1)


class QuadratureError(RuntimeError):
    """Refinement hit the panel cap; .value/.error carry the best estimate."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def log_edges(lo: float, hi: float) -> np.ndarray:
    """Geometrically spaced panel edges covering [lo, hi], lo > 0, two a decade."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n = max(1, round(2 * math.log10(hi / lo)))
    return np.geomspace(lo, hi, n + 1)


def kronrod_panels(lo, hi, values):
    """15-point Kronrod value and |K - G| error on each panel [lo_i, hi_i].

    values maps the C-contiguous (n, 15) array of nodes to f there, any
    shape that reshapes to (n, 15) or (n, 15, m); both results have shape
    (n, m).
    """
    hc = np.empty((lo.size, 2))
    np.subtract(hi, lo, out=hc[:, 0])
    np.add(lo, hi, out=hc[:, 1])
    hc *= 0.5
    x = hc @ _GRID
    fx = np.asarray(values(x)).reshape(x.shape + (-1,))
    # m = 1 is one (n, 15) product, not a stack of n one-row products
    kg = fx[:, :, 0] @ _KG if fx.shape[2] == 1 else fx.swapaxes(1, 2) @ _KG
    kg = kg.reshape(lo.size, -1, 2)
    kg *= hc[:, :1, None]
    k = kg[:, :, 0]
    return k, np.abs(k - kg[:, :, 1])


def integrate(f, a: float, b: float, *, rtol: float = 1e-8, edges=None,
              max_panels: int = 4096):
    """Adaptive panel integration of f over [a, b].

    f maps a 1-d abscissa array to values of shape (n,) or (n, m); with m
    components each converges to |err_c| <= rtol |I_c|.  edges
    optionally seeds interior panel boundaries (they are clipped to (a, b)).

    Returns (value, error, info) with value/error scalars for 1-d f, arrays
    of length m otherwise; info records panel and evaluation counts.
    Raises QuadratureError (carrying the best estimate) at the panel cap.
    Each round that does not stop adds at least one panel, so the cap also
    bounds the number of rounds.  rtol must be finite and positive: at NaN
    no panel would be picked to split, and at inf every error meets it.
    """
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError("need finite b > a")
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValueError(f"rtol must be finite and positive, got {rtol}")
    pts = np.array([a, b], dtype=float)
    if edges is not None:
        e = np.asarray(edges, dtype=float)
        pts = np.concatenate((pts, e[(e > a) & (e < b)]))
    pts = np.unique(pts)
    lo, hi = pts[:-1].copy(), pts[1:].copy()

    def values(x):
        return f(x.ravel())

    vals, errs = kronrod_panels(lo, hi, values)
    scalar = vals.shape[1] == 1
    n_eval = lo.size * 15

    while True:
        total = vals.sum(axis=0)
        toterr = errs.sum(axis=0)
        target = rtol * np.abs(total)
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
        new_vals, new_errs = kronrod_panels(new_lo, new_hi, values)
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
