"""Minimal double-double arithmetic for cancellation-prone determinants.

At late times and large correlations the scaled covariance entries exceed the
determinant by up to twelve orders of magnitude, so a naive sxx*spp - sxp^2
loses most of its digits.  Evaluating the entries and the determinant as
(hi, lo) float pairs keeps the algebraic cancellation exact.  The error-free
sum and product are Dekker's (Numer. Math. 18, 224 (1971)).
"""
from __future__ import annotations

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd(a: float) -> tuple[float, float]:
    return (a, 0.0)


# The kernels below are `_two_sum` or `_two_prod` followed by the renormalising
# quick sum (s, e) -> (s + e, e - ((s + e) - s)), which needs |s| >= |e|, written
# out in one function each: the same float operations in the same order, with
# one Python call instead of three or four.

def dd_add(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    a, b = x[0], y[0]
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t) + x[1] + y[1]
    hi = s + e
    return hi, e - (hi - s)


def dd_sub(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """x + (-y), negating y's parts as written, so that NaN signs match `dd_add`'s."""
    a, b = x[0], -y[0]
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t) + x[1] + -y[1]
    hi = s + e
    return hi, e - (hi - s)


def dd_mul(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    a, b = x[0], y[0]
    p = a * b
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLIT * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * y[1] + x[1] * b
    hi = p + e
    return hi, e - (hi - p)


def dd_mul_d(x: tuple[float, float], a: float) -> tuple[float, float]:
    u = x[0]
    p = u * a
    cu = _SPLIT * u
    uh = cu - (cu - u)
    ul = u - uh
    ca = _SPLIT * a
    ah = ca - (ca - a)
    al = a - ah
    e = ((uh * ah - p) + uh * al + ul * ah) + ul * al + x[1] * a
    hi = p + e
    return hi, e - (hi - p)


def dd_sum(terms) -> tuple[float, float]:
    acc = (0.0, 0.0)
    for term in terms:
        acc = dd_add(acc, term)
    return acc


def det2x2(sxx: float, sxp: float, spp: float) -> float:
    """Compensated sxx*spp - sxp^2 of plain floats (Kahan-style)."""
    p, pe = _two_prod(sxx, spp)
    q, qe = _two_prod(sxp, sxp)
    d, de = _two_sum(p, -q)
    return d + (de + pe - qe)
