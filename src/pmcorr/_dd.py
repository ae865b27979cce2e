"""Minimal double-double arithmetic for cancellation-prone determinants.

At late times and large correlations the scaled covariance entries exceed the
determinant by up to twelve orders of magnitude, so a naive sxx*spp - sxp^2
loses most of its digits.  Evaluating the entries and the determinant as
(hi, lo) float pairs keeps the algebraic cancellation exact.  The error-free
sum and product are Dekker's (Numer. Math. 18, 224 (1971)).

`dd_sub`, `dd_mul` and `dd_mul_d` are one operation each.  Where a caller
would chain many operations, a kernel runs the whole chain on float locals
instead, with no call or tuple per operation: `dd_sum` adds a list of pairs,
`dd_richardson` runs the Richardson tableaux of `pmcorr.fisher.qfi_numeric`
for every moving monomial in one call, and `dd_adjugate_trace` the sums and
products after them.  The monomial builders of `pmcorr.model` and the
quadrature oracle's sums are written out the same way, splitting each
operand they share with `split` once.  Each does the float operations of the
chain it replaces in the same order, so it returns the same bits: the same
value and the same sign of zero.  The one exception is a product by a power
of two, which Dekker's product gives exactly: it is written as its result,
(u*f + z, w*f + z) with z = _SPLIT*u - _SPLIT*u, +0 where u's split is
finite and NaN where it is not, as the chain gives it for a renormalised
pair.  A NaN's sign and payload are outside that claim, since which
operand's NaN CPython's float operations return can depend on what ran
before in the process; a NaN stays a NaN.  Every kernel works on floats
and, elementwise, on numpy arrays.
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
    """(4**j, 1/(4**j - 1) and its split halves) for each level j of a tableau."""
    constants = []
    for j in range(1, levels):
        c = 1.0 / (4.0**j - 1.0)
        constants.append((4.0**j, c, *split(c)))
    return tuple(constants)


def dd_richardson(rows, inv_widths) -> list:
    """(T[L-1][L-1], T[L-2][L-3]) of the Richardson tableau of central differences, per row.

    Each row holds one function's (hi, lo) values at the L >= 3 steps +h, the
    largest first, then at the same steps -h; inv_widths holds the reciprocal
    of each step's full width.  Column 0 is `dd_mul_d(dd_sub(p, q), 1/width)`
    and level j combines neighbours as
    `dd_mul_d(dd_sub(dd_mul_d(upper, 4**j), lower), 1/(4**j - 1))`: the same
    float operations in the same order, on float locals, with each width
    split once per call and each level's 1/(4**j - 1) once per number of
    levels (`_richardson_constants`).  `dd_mul_d(upper, 4**j)` is exact, and
    written as its result (see above): an upper entry is a quick sum's
    output, which that product leaves unchanged but for its scale and the
    sign of a zero, or makes NaN where its split overflows.  Every part may
    be a float or a numpy array, and the tableau then runs elementwise.
    """
    levels = len(inv_widths)
    widths = [(r, *split(r)) for r in inv_widths]
    constants = _richardson_constants(levels)
    results = []
    for row in rows:
        his, los = [], []
        for (a, al), (b, bl), (r, rh, rt) in zip(row, row[levels:], widths):
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
            e = ((uh * rh - p) + uh * rt + ut * rh) + ut * rt + v * r
            hi = p + e
            his.append(hi)
            los.append(e - (hi - p))
        for j, (f, c, ch, ct) in enumerate(constants, 1):
            if j == levels - 2:
                prev = his[1], los[1]
            # entry k of level j, written over entry k of level j - 1, from that
            # (lower) and entry k + 1 (upper), which is the next entry's lower
            lower, lower_lo = his[0], los[0]
            for k in range(levels - j):
                u, w = his[k + 1], los[k + 1]
                z = _SPLIT * u  # dd_mul_d((u, w), f), exactly
                z = z - z
                a = u * f + z
                b = -lower  # dd_sub((a, w*f + z), lower)
                s = a + b
                t = s - a
                e = (a - (s - t)) + (b - t) + (w * f + z) + -lower_lo
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
        results.append(((his[0], los[0]), prev))
    return results


def dd_adjugate_trace(cov, dcov) -> tuple:
    """Tr[(adj S dS)^2] of a symmetric 2x2 S and dS, and the size of its terms.

    cov and dcov each begin with the twelve (hi, lo) monomials of
    `pmcorr.model._covariance_dd`: sxx's five, sxp's four and spp's three.
    Their sums, the entries m00 = spp dsxx - sxp dsxp, m01 = spp dsxp -
    sxp dspp, m10 = sxx dsxp - sxp dsxx and m11 = sxx dspp - sxp dsxp of
    adj(S) dS, and the trace m00^2 + m11^2 + 2 m01 m10 are the float
    operations of `dd_sum`, `dd_mul`, `dd_sub` and `dd_mul_d` calls in the
    same order, on float locals, with each sum and each m split once.  The
    factor 2 is exact and written as its result, as `dd_richardson` writes
    4**j.  Returns the trace as a pair and |m00^2| + |m11^2| + 2 |m01 m10|
    of the high parts, the size of what the trace cancels.
    """
    parts = []  # (hi, lo, split high, split low) of sxx, sxp, spp, dsxx, dsxp, dspp
    for terms in (cov[:5], cov[5:9], cov[9:12], dcov[:5], dcov[5:9], dcov[9:12]):
        hi = lo = 0.0  # dd_sum(terms)
        for b, bl in terms:
            s = hi + b
            t = s - hi
            e = (hi - (s - t)) + (b - t) + lo + bl
            hi = s + e
            lo = e - (hi - s)
        c = _SPLIT * hi
        h = c - (c - hi)
        parts.append((hi, lo, h, hi - h))
    m = []  # m00, m01, m10, m11, each as dd_sub(dd_mul(...), dd_mul(...)), split
    for x, y, x2, y2 in ((2, 3, 1, 4), (2, 4, 1, 5), (0, 4, 1, 3), (0, 5, 1, 4)):
        a, al, ah, at = parts[x]
        b, bl, bh, bt = parts[y]
        p = a * b
        e = ((ah * bh - p) + ah * bt + at * bh) + at * bt + a * bl + al * b
        a = p + e
        al = e - (a - p)
        u, ul, uh, ut = parts[x2]
        b, bl, bh, bt = parts[y2]
        p = u * b
        e = ((uh * bh - p) + uh * bt + ut * bh) + ut * bt + u * bl + ul * b
        hi = p + e
        b, bl = -hi, e - (hi - p)  # dd_sub as a + (-b)
        s = a + b
        t = s - a
        e = (a - (s - t)) + (b - t) + al + -bl
        hi = s + e
        c = _SPLIT * hi
        h = c - (c - hi)
        m.append((hi, e - (hi - s), h, hi - h))
    products = []  # m00^2, m11^2 and m01 m10 as dd_mul, each with its high parts' product
    for x, y in ((0, 0), (3, 3), (1, 2)):
        a, al, ah, at = m[x]
        b, bl, bh, bt = m[y]
        p = a * b
        e = ((ah * bh - p) + ah * bt + at * bh) + at * bt + a * bl + al * b
        hi = p + e
        products.append((p, (hi, e - (hi - p))))
    (p00, m00), (p11, m11), (p01, (u, w)) = products
    z = _SPLIT * u  # dd_mul_d((u, w), 2.0), exactly
    z = z - z
    hi = lo = 0.0  # dd_sum of the three
    for b, bl in (m00, m11, (u * 2.0 + z, w * 2.0 + z)):
        s = hi + b
        t = s - hi
        e = (hi - (s - t)) + (b - t) + lo + bl
        hi = s + e
        lo = e - (hi - s)
    return (hi, lo), abs(p00) + abs(p11) + 2.0 * abs(p01)


def det2x2(sxx: float, sxp: float, spp: float) -> float:
    """Compensated sxx*spp - sxp^2 of plain floats (Kahan-style)."""
    p, pe = _two_prod(sxx, spp)
    q, qe = _two_prod(sxp, sxp)
    d, de = _two_sum(p, -q)
    return d + (de + pe - qe)
