"""One-dimensional minimization helpers for the per-unit solvers."""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = ["golden_section", "brent_root", "derivative_search"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = sys.float_info.epsilon


def _with_corners(
    lo: float, f_lo: float, hi: float, f_hi: float, x_in: float, f_in: float
) -> tuple[float, float]:
    """Endpoint polish: ties resolve toward hi, then lo, then the interior."""
    best_x, best_f = x_in, f_in
    if f_lo <= best_f:
        best_x, best_f = lo, f_lo
    if f_hi <= best_f:
        best_x, best_f = hi, f_hi
    return best_x, best_f


def golden_section(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Minimize a unimodal ``f`` on ``[lo, hi]`` to argument tolerance ``tol``.

    Returns ``(x, f(x))``. Both endpoints are evaluated and compared against
    the interior estimate; exact ties prefer the upper endpoint, then the
    lower one. Monotone or flat objectives therefore return a corner exactly,
    which the callers rely on for their tie-break rules.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if hi == lo:
        return lo, f_lo

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    f_c = f(c)
    f_d = f(d)
    # bracket shrinks by 1/phi per step; stop once narrower than tol
    while (b - a) > tol:
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _INV_PHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INV_PHI * (b - a)
            f_d = f(d)

    if f_c <= f_d:
        x_in, f_in = c, f_c
    else:
        x_in, f_in = d, f_d
    return _with_corners(lo, f_lo, hi, f_hi, x_in, f_in)


def brent_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> float:
    """Root of ``f`` in ``[lo, hi]`` to absolute argument tolerance ``tol``.

    Brent's zero-in (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps while they stay
    inside the bracket and shrink it fast enough, bisection otherwise. ``f``
    must not have the same strict sign at both ends. Infinite values of ``f``
    are allowed; they only force bisection steps. A NaN or infinite bracket
    end raises ``ValueError``: the stopping test never holds on it.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] must be finite")
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise ValueError(f"f does not change sign on [{lo}, {hi}]")
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        step_ok = False
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # comparisons are False on NaN, which falls back to bisection
            step_ok = 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * e * q)
        if step_ok:
            e, d = d, p / q
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def derivative_search(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Minimize a convex ``f`` with (sub)derivative ``df`` on ``[lo, hi]``.

    The interior candidate is ``hi`` when ``f`` still falls there, the point
    ``tol`` above ``lo`` when it already rises there, and otherwise the root
    of ``df`` between the two (``brent_root``). ``f`` may jump at ``lo``, so
    the candidate is compared against both endpoints with the same tie rules
    as :func:`golden_section`. Returns ``(x, f(x))``.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    f_lo = f(lo)
    if hi == lo:
        return lo, f_lo
    if df(hi) <= 0.0:
        x_in = hi
    else:
        x_near = lo + min(tol, 0.5 * (hi - lo))
        if df(x_near) >= 0.0:
            x_in = x_near
        else:
            x_in = brent_root(df, x_near, hi, tol)
    return _with_corners(lo, f_lo, hi, f(hi), x_in, f(x_in))
