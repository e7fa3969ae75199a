"""One-dimensional minimization helpers for the per-unit solvers."""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

__all__ = ["golden_section", "brent_root", "derivative_search", "one_plus_w0"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = sys.float_info.epsilon


def _with_corners(lo: float, at_lo, hi: float, at_hi, x_in: float, at_in):
    """Endpoint polish over evaluations whose first entry is the objective:
    ties resolve toward hi, then lo, then the interior. Returns ``(x, at)``."""
    best_x, best = x_in, at_in
    if at_lo[0] <= best[0]:
        best_x, best = lo, at_lo
    if at_hi[0] <= best[0]:
        best_x, best = hi, at_hi
    return best_x, best


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
    x, (fx,) = _with_corners(lo, (f_lo,), hi, (f_hi,), x_in, (f_in,))
    return x, fx


def brent_root(
    fn: Callable[[float], Sequence[float]],
    lo: float,
    hi: float,
    at_lo: Sequence[float],
    at_hi: Sequence[float],
    tol: float = 1e-8,
) -> tuple[float, Sequence[float]]:
    """Root of the slope ``fn(x)[1]`` in ``[lo, hi]`` to absolute argument tolerance ``tol``.

    ``fn`` returns one evaluation per point, ``(f(x), f'(x), ...)``; the
    caller passes its values at the ends, ``at_lo`` and ``at_hi``, and it is
    called once per further point tried. Returns ``(x, fn(x))``.

    Brent's zero-in (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps while they stay
    inside the bracket and shrink it fast enough, bisection otherwise. The
    slope must not have the same strict sign at both ends. Infinite slopes
    are allowed; they only force bisection steps. A NaN or infinite bracket
    end raises ``ValueError``: the stopping test never holds on it.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket [{lo}, {hi}] must be finite")
    a, b, at_a, at_b = lo, hi, at_lo, at_hi
    fa, fb = at_a[1], at_b[1]
    if (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise ValueError(f"the slope does not change sign on [{lo}, {hi}]")
    c, fc, at_c = a, fa, at_a
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            at_a, at_b, at_c = at_b, at_c, at_b
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b, at_b
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
        a, fa, at_a = b, fb, at_b
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        at_b = fn(b)
        fb = at_b[1]
        if (fb > 0.0) == (fc > 0.0):
            c, fc, at_c = a, fa, at_a
            d = e = b - a


def derivative_search(
    fn: Callable[[float], Sequence[float]],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> tuple[float, Sequence[float]]:
    """Minimize a convex ``f`` on ``[lo, hi]`` given ``fn(x) = (f(x), f'(x), ...)``.

    ``f'`` may be a subderivative. The interior candidate is ``hi`` when
    ``f`` still falls there, the point ``tol`` above ``lo`` when it already
    rises there, and otherwise the root of ``f'`` between the two
    (``brent_root``). ``f`` may jump at ``lo``, so the candidate is compared
    against both endpoints with the same tie rules as :func:`golden_section`.
    ``fn`` is called once per point tried, and whatever it returns past the
    slope rides along: the result is ``(x, fn(x))``.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    at_lo = fn(lo)
    if hi == lo:
        return lo, at_lo
    at_hi = fn(hi)
    if at_hi[1] <= 0.0:
        x_in, at_in = hi, at_hi
    else:
        x_near = lo + min(tol, 0.5 * (hi - lo))
        at_near = fn(x_near)
        if at_near[1] >= 0.0:
            x_in, at_in = x_near, at_near
        else:
            x_in, at_in = brent_root(fn, x_near, hi, at_near, at_hi, tol)
    return _with_corners(lo, at_lo, hi, at_hi, x_in, at_in)


def one_plus_w0(gap: float) -> float:
    """``1 + W0(x)`` from ``gap = 1 + e*x >= 0``, W0 the principal branch of the
    Lambert W function; neither sum is formed, as both cancel near x = -1/e.
    Halley steps on ``(u - 1)*e^u + 1 = gap`` (Fritsch, Shafer and Crowley
    1973) start below gap 1/2 from the branch-point series in ``sqrt(2*gap)``
    (Corless et al. 1996), alone exact to 5e-14 below 1e-3, and above it from
    Winitzki's (2003) log1p form.
    """
    if not gap >= 0.0:
        raise ValueError(f"W0 is real only for gap = 1 + e*x >= 0, got {gap}")
    if gap < 0.5:
        p = math.sqrt(2.0 * gap)
        u = p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * (43.0 / 540.0))))
        if p < 1e-3:
            return u
    else:
        ln = math.log1p((gap - 1.0) / math.e)
        u = 1.0 + ln * (1.0 - math.log1p(ln) / (2.0 + ln))
    for _ in range(8):
        r = u + math.expm1(-u) - gap * math.exp(-u)  # the residual over e^u
        step = r / (u - (u + 1.0) * r / (2.0 * u))
        u -= step
        if not abs(step) > 1e-6 * u:  # cubic: the error left is ~1e-18
            break
    return u
