"""Minimal double-double arithmetic for cancellation-prone determinants.

At late times and large correlations the scaled covariance entries exceed the
determinant by up to twelve orders of magnitude, so a naive sxx*spp - sxp^2
loses most of its digits.  Evaluating the entries and the determinant as
(hi, lo) float pairs keeps the algebraic cancellation exact.  The error-free
sum and product are Dekker's (Numer. Math. 18, 224 (1971)).

`dd_sub`, `dd_mul` and `dd_mul_d` are one operation each.  Where a caller
would chain many operations, a kernel runs the whole chain on float locals
instead, with no call or tuple per operation: `dd_sum` adds a list of pairs,
and `dd_richardson` runs the Richardson tableau of `pmcorr.fisher.qfi_numeric`
for one monomial.  The monomial builders of `pmcorr.model` and the
quadrature oracle's sums are written out the same way, splitting each
operand they share with `split` once.  Each does the float operations of the
chain it replaces in the same order, so it returns the same bits: the same
value and the same sign of zero.  A NaN's sign and payload are outside that
claim, since which operand's NaN CPython's float operations return can
depend on what ran before in the process; a NaN stays a NaN.  Every kernel
works on floats and, elementwise, on numpy arrays.
"""
from __future__ import annotations

import functools

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


def split(a: float) -> tuple[float, float]:
    """Dekker's split of a into a high half of 26 bits and the rest, as `_two_prod` takes it.

    A kernel that multiplies many values by one operand splits that operand
    once, here, and the others inline.
    """
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


# The kernels below are `_two_sum` or `_two_prod` followed by the renormalising
# quick sum (s, e) -> (s + e, e - ((s + e) - s)), which needs |s| >= |e|, written
# out in one function each: the same float operations in the same order, with
# one Python call instead of three or four.

def dd_sub(x: tuple[float, float], y: tuple[float, float]) -> tuple[float, float]:
    """x + (-y), negating y's parts as written, so that NaN signs are those of that sum."""
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
    """The double-double sum of the (hi, lo) terms, added one by one to (0, 0) in two floats.

    Each addition is Dekker's two-sum of the high parts, then both low parts
    added to its error, then the renormalising quick sum.
    """
    hi = lo = 0.0
    for b, bl in terms:
        s = hi + b
        t = s - hi
        e = (hi - (s - t)) + (b - t) + lo + bl
        hi = s + e
        lo = e - (hi - s)
    return hi, lo


@functools.lru_cache(maxsize=None)
def _richardson_constants(levels: int) -> tuple:
    """(4**j, its split halves, 1/(4**j - 1), its split halves) for each level j of a tableau."""
    constants = []
    for j in range(1, levels):
        f = 4.0**j
        c = 1.0 / (f - 1.0)
        constants.append((f, *split(f), c, *split(c)))
    return tuple(constants)


def dd_richardson(plus, minus, inv_widths) -> tuple:
    """(T[L-1][L-1], T[L-2][L-3]) of the Richardson tableau of central differences.

    plus and minus hold a (hi, lo) value at each of the L >= 3 steps, the
    largest first, and inv_widths the reciprocal of each step's full width.
    Column 0 is `dd_mul_d(dd_sub(p, q), 1/width)` and level j combines
    neighbours as `dd_mul_d(dd_sub(dd_mul_d(upper, 4**j), lower), 1/(4**j - 1))`:
    the same float operations in the same order, on float locals, with each
    level's two constants split once per number of levels
    (`_richardson_constants`).  Every part may be a float or a numpy array,
    and the tableau then runs elementwise.
    """
    his, los = [], []
    for (a, al), (b, bl), r in zip(plus, minus, inv_widths):
        b = -b  # dd_sub(p, q) as p + (-q)
        s = a + b
        t = s - a
        e = (a - (s - t)) + (b - t) + al + -bl
        u = s + e
        v = e - (u - s)
        p = u * r  # dd_mul_d((u, v), r)
        cu = _SPLIT * u
        uh = cu - (cu - u)
        ut = u - uh
        cr = _SPLIT * r
        rh = cr - (cr - r)
        rt = r - rh
        e = ((uh * rh - p) + uh * rt + ut * rh) + ut * rt + v * r
        hi = p + e
        his.append(hi)
        los.append(e - (hi - p))
    levels = len(his)
    for j, (f, fh, ft, c, ch, ct) in enumerate(_richardson_constants(levels), 1):
        if j == levels - 2:
            prev = his[1], los[1]
        # entry k of level j, written over entry k of level j - 1, from that
        # (lower) and entry k + 1 (upper), which is the next entry's lower
        lower, lower_lo = his[0], los[0]
        for k in range(levels - j):
            u, w = his[k + 1], los[k + 1]
            p = u * f  # dd_mul_d(upper, f)
            cu = _SPLIT * u
            uh = cu - (cu - u)
            ut = u - uh
            e = ((uh * fh - p) + uh * ft + ut * fh) + ut * ft + w * f
            a = p + e
            al = e - (a - p)
            b = -lower  # dd_sub((a, al), lower)
            s = a + b
            t = s - a
            e = (a - (s - t)) + (b - t) + al + -lower_lo
            lower, lower_lo = u, w
            u = s + e
            v = e - (u - s)
            p = u * c  # dd_mul_d((u, v), c)
            cu = _SPLIT * u
            uh = cu - (cu - u)
            ut = u - uh
            e = ((uh * ch - p) + uh * ct + ut * ch) + ut * ct + v * c
            hi = p + e
            his[k] = hi
            los[k] = e - (hi - p)
    return (his[0], los[0]), prev


def det2x2(sxx: float, sxp: float, spp: float) -> float:
    """Compensated sxx*spp - sxp^2 of plain floats (Kahan-style)."""
    p, pe = _two_prod(sxx, spp)
    q, qe = _two_prod(sxp, sxp)
    d, de = _two_sum(p, -q)
    return d + (de + pe - qe)
