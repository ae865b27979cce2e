"""The fused double-double kernels against the error-free compositions they replace.

`dd_sub`, `dd_mul` and `dd_mul_d` write out Dekker's two-sum or two-product
and the renormalising quick sum in one function each; `dd_sum` folds the
two-sum addition over a list, `dd_richardson` runs the Richardson tableaux
of `dd_sub` and `dd_mul_d` for many rows, and `dd_adjugate_trace` the sums
and products of an adjugate trace, on float locals.  Each must return what
the composition it replaces returns, bit for bit, so ±0 is compared as raw
bits, on floats and elementwise on numpy arrays.  A NaN matches any NaN: which
operand's NaN CPython's float operations return, and so its sign and payload,
can depend on what ran before in the process.  The monomial builders of
`pmcorr.model` are held to the same identity: one call over a list of
abscissae must give each abscissa's entries of the full lists; and so is
the quadrature oracle's per-node pass, against a list per step and level.
"""
import math
import random
import struct

import numpy as np
import pytest

import pmcorr as pc
from pmcorr import _dd, fisher, model


def _quick_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _add(x, y):
    s, e = _dd._two_sum(x[0], y[0])
    return _quick_sum(s, e + x[1] + y[1])


def _sub(x, y):
    return _add(x, (-y[0], -y[1]))


def _mul(x, y):
    p, e = _dd._two_prod(x[0], y[0])
    return _quick_sum(p, e + x[0] * y[1] + x[1] * y[0])


def _mul_d(x, a):
    p, e = _dd._two_prod(x[0], a)
    return _quick_sum(p, e + x[1] * a)


#: each fused kernel and the composition it replaces; the second operand of
#: dd_mul_d is a float
KERNELS = {
    "dd_sub": (_dd.dd_sub, _sub, True),
    "dd_mul": (_dd.dd_mul, _mul, True),
    "dd_mul_d": (_dd.dd_mul_d, _mul_d, False),
}

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def _double(rng: random.Random) -> float:
    """A seeded double: mostly of decimal exponent -300 to 300, some subnormal or special."""
    u = rng.random()
    if u < 0.08:
        return rng.choice(SPECIAL)
    if u < 0.16:  # subnormal
        return rng.choice((-1.0, 1.0)) * rng.randrange(1, 2**52) * 5e-324
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300)


def _pair(rng: random.Random) -> tuple:
    """A (hi, lo) pair: lo at most an ulp of hi, or a free double, or zero."""
    hi = _double(rng)
    u = rng.random()
    if u < 0.5 and math.isfinite(hi):
        lo = rng.uniform(-0.5, 0.5) * math.ulp(hi)
    elif u < 0.8:
        lo = _double(rng)
    else:
        lo = rng.choice((0.0, -0.0))
    return hi, lo


def _bits(value) -> str:
    """The raw bits of a float, or "nan" for any NaN."""
    return "nan" if value != value else struct.pack("<d", value).hex()


def _array_bits(array) -> list:
    """The dtype and the raw bits of each entry of an array, "nan" for any NaN."""
    return [array.dtype.str] + [
        "nan" if v != v else b for v, b in zip(array.tolist(), array.view(np.uint64).tolist())
    ]


def _cases(seed: int, n: int = 4000) -> list:
    rng = random.Random(seed)
    return [(_pair(rng), _pair(rng)) for _ in range(n)]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_fused_kernel_is_the_composition_on_floats(name, seed):
    fused, composed, pair_operand = KERNELS[name]
    mismatches = []
    for x, y in _cases(seed):
        other = y if pair_operand else y[0]
        got, want = fused(x, other), composed(x, other)
        if [_bits(v) for v in got] != [_bits(v) for v in want]:
            mismatches.append((x, other, got, want))
    assert mismatches == []


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_fused_kernel_is_the_composition_on_arrays(name):
    fused, composed, pair_operand = KERNELS[name]
    cases = _cases(3)
    x = tuple(np.array([c[0][k] for c in cases]) for k in (0, 1))
    y = tuple(np.array([c[1][k] for c in cases]) for k in (0, 1))
    other = y if pair_operand else y[0]
    with np.errstate(all="ignore"):
        got, want = fused(x, other), composed(x, other)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert _array_bits(g) == _array_bits(w)


def test_cases_reach_every_kind_of_double():
    # the seeded operands hold both zeros, both infinities, NaN and subnormals
    def raw(v):
        return struct.pack("<d", v).hex()

    values = [v for x, y in _cases(1) for v in (*x, *y)]
    assert {raw(v) for v in SPECIAL} <= {raw(v) for v in values}
    assert sum(0.0 < abs(v) < 2.2250738585072014e-308 for v in values) > 100


def _sum(terms):
    acc = (0.0, 0.0)
    for term in terms:
        acc = _add(acc, term)
    return acc


def _richardson(plus, minus, inv_widths):
    """The tableau as `dd_sub` and `dd_mul_d` calls, column by column."""
    column = [_dd.dd_mul_d(_dd.dd_sub(p, q), r) for p, q, r in zip(plus, minus, inv_widths)]
    levels = len(column)
    for j in range(1, levels):
        if j == levels - 2:
            prev = column[1]
        fac = 4.0**j
        column = [
            _dd.dd_mul_d(_dd.dd_sub(_dd.dd_mul_d(upper, fac), lower), 1.0 / (fac - 1.0))
            for lower, upper in zip(column[:-1], column[1:])
        ]
    return column[0], prev


def _tableaux(rows, inv_widths) -> list:
    """`_richardson` of each row, its five +h values then its five -h values."""
    return [_richardson(row[:5], row[5:], inv_widths) for row in rows]


def _richardson_cases(seed: int, n: int = 1500) -> list:
    """(rows, inv_widths) of five steps: one to eight rows of free pairs or of stencils."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        if rng.random() < 0.5:
            inv_widths = [_double(rng) for _ in range(5)]
            rows = [[_pair(rng) for _ in range(10)] for _ in range(rng.randint(1, 8))]
        else:  # smooth functions about x0 on one set of steps, as the oracle's stencils are
            steps = [rng.uniform(1e-6, 1e-2) / 2.0**i for i in range(5)]
            inv_widths = [1.0 / (2.0 * s) for s in steps]
            rows = []
            for _ in range(rng.randint(1, 8)):
                x0, c1, c2 = _double(rng), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)

                def value(s):
                    hi = x0 * (1.0 + c1 * s + c2 * s * s)
                    return hi, rng.uniform(-0.5, 0.5) * math.ulp(hi) if math.isfinite(hi) else 0.0

                rows.append([value(s) for s in steps] + [value(-s) for s in steps])
        cases.append((rows, inv_widths))
    return cases


#: the largest |u| whose Dekker split _SPLIT*u is finite
_SPLIT_LIMIT = 1.3393857490036326e300


def _edge_double(rng: random.Random) -> float:
    """A seeded double from the kernels' edges: signed zeros, subnormals, non-finite, huge."""
    u = rng.random()
    if u < 0.15:
        return rng.choice((0.0, -0.0))
    if u < 0.3:  # subnormal
        return rng.choice((-1.0, 1.0)) * rng.randrange(1, 2**52) * 5e-324
    if u < 0.4:
        return rng.choice((math.inf, -math.inf, math.nan))
    if u < 0.6:
        return _double(rng)
    return rng.choice((-1.0, 1.0)) * _SPLIT_LIMIT * rng.uniform(0.25, 4.0)


def _edge_pair(rng: random.Random) -> tuple:
    """A (hi, lo) pair of edge doubles: normalised, unnormalised, or with a subnormal lo."""
    hi = _edge_double(rng)
    u = rng.random()
    if u < 0.4 and math.isfinite(hi):
        lo = rng.uniform(-0.5, 0.5) * math.ulp(hi)
    elif u < 0.6:
        lo = rng.choice((-1.0, 1.0)) * rng.randrange(1, 2**52) * 5e-324
    else:
        lo = _edge_double(rng)
    return hi, lo


def _edge_cases(seed: int, n: int) -> list:
    """(rows, inv_widths) whose tableau entries reach the edges of the exact 4**j scaling.

    Half the cases hold rows of edge pairs.  In the other half each step's
    +h and -h values are +-X/2, for X below the split's limit, and the
    reciprocal widths 1/2 to 8, so the first column, X/width, and the
    extrapolations from it lie on either side of the limit.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        if rng.random() < 0.5:
            inv_widths = [rng.choice((0.5, 1.0, 2.0, 4.0, 8.0)) for _ in range(5)]
            rows = []
            for _ in range(rng.randint(1, 3)):
                plus = []
                for _ in range(5):
                    half = rng.choice((-0.5, 0.5)) * _SPLIT_LIMIT * 2.0 ** rng.uniform(-3.0, -0.01)
                    plus.append((half, rng.choice((0.0, -0.0, rng.uniform(-0.5, 0.5) * math.ulp(half)))))
                minus = [(-hi, rng.choice((0.0, -0.0, -lo))) for hi, lo in plus]
                rows.append(plus + minus)
        else:
            inv_widths = [rng.choice((_edge_double(rng), _double(rng))) for _ in range(5)]
            rows = [[_edge_pair(rng) for _ in range(10)] for _ in range(rng.randint(1, 3))]
        cases.append((rows, inv_widths))
    return cases


def _flat(result) -> list:
    """The raw bits of a float or an array, or of lists and tuples of them, "nan" for any NaN."""
    if isinstance(result, (list, tuple)):
        return [b for part in result for b in _flat(part)]
    if isinstance(result, np.ndarray):
        return _array_bits(result)
    return [_bits(result)]


@pytest.mark.parametrize("seed", [1, 2])
def test_dd_sum_is_the_folded_addition_on_floats(seed):
    rng = random.Random(seed)
    mismatches = []
    for _ in range(4000):
        terms = [_pair(rng) for _ in range(rng.randrange(0, 20))]
        got, want = _dd.dd_sum(terms), _sum(terms)
        if _flat(got) != _flat(want):
            mismatches.append((terms, got, want))
    assert mismatches == []


def test_dd_sum_is_the_folded_addition_on_arrays():
    rng = random.Random(3)
    # a float term beside array ones, as an axis call's monomials mix them
    terms = [tuple(np.array([_pair(rng)[k] for _ in range(4000)]) for k in (0, 1)) for _ in range(12)]
    terms.insert(3, _pair(rng))
    with np.errstate(all="ignore"):
        assert _flat(_dd.dd_sum(terms)) == _flat(_sum(terms))


@pytest.mark.parametrize("seed", [1, 2])
def test_richardson_is_the_composed_tableau_on_floats(seed):
    mismatches = []
    for rows, inv_widths in _richardson_cases(seed):
        got, want = _dd.dd_richardson(rows, inv_widths), _tableaux(rows, inv_widths)
        if _flat(got) != _flat(want):
            mismatches.append((rows, inv_widths, got, want))
    assert mismatches == []


def _stacked(cases) -> tuple:
    """One row of arrays across the cases' first rows, and their widths as arrays."""
    row = [tuple(np.array([rows[0][i][k] for rows, _ in cases]) for k in (0, 1)) for i in range(10)]
    return [row], [np.array([w[i] for _, w in cases]) for i in range(5)]


def test_richardson_is_the_composed_tableau_on_arrays():
    cases = _richardson_cases(3)
    rows, inv_widths = _stacked(cases)
    inv_widths[0] = 0.5  # a float width beside arrays, as where the axis is not the target
    with np.errstate(all="ignore"):
        got, want = _dd.dd_richardson(rows, inv_widths), _tableaux(rows, inv_widths)
    assert _flat(got) == _flat(want)
    (last, prev), = got
    assert all(isinstance(v, np.ndarray) and v.shape == (len(cases),) for v in (*last, *prev))


@pytest.mark.parametrize("seed", [4, 5])
def test_richardson_edges_on_floats(seed):
    # signed zeros, subnormal hi and lo, non-finite and unnormalised pairs, and
    # tableau entries on both sides of _SPLIT*u's overflow, where the exact 4**j
    # scaling gives a product or NaN as the dd_mul_d chain does
    mismatches, column = [], []
    for rows, inv_widths in _edge_cases(seed, 3000):
        got, want = _dd.dd_richardson(rows, inv_widths), _tableaux(rows, inv_widths)
        if _flat(got) != _flat(want):
            mismatches.append((rows, inv_widths, got, want))
        column += [
            abs(_dd.dd_mul_d(_dd.dd_sub(p, q), r)[0])
            for row in rows for p, q, r in zip(row[:5], row[5:], inv_widths)
        ]
    assert mismatches == []
    # the first column, the upper entries of level 1, lies on both sides of the limit
    assert sum(_SPLIT_LIMIT / 4.0 < u <= _SPLIT_LIMIT for u in column) > 1000
    assert sum(_SPLIT_LIMIT < u < 4.0 * _SPLIT_LIMIT for u in column) > 1000


def test_richardson_edges_on_arrays():
    cases = _edge_cases(6, 20000)
    rows, inv_widths = _stacked(cases)
    with np.errstate(all="ignore"):
        assert _flat(_dd.dd_richardson(rows, inv_widths)) == _flat(_tableaux(rows, inv_widths))


def _adjugate_trace(cov, dcov) -> tuple:
    """`dd_adjugate_trace` composed of the error-free sums and products, one call each."""
    sxx, sxp, spp = _sum(cov[:5]), _sum(cov[5:9]), _sum(cov[9:12])
    dsxx, dsxp, dspp = _sum(dcov[:5]), _sum(dcov[5:9]), _sum(dcov[9:12])
    m00 = _sub(_mul(spp, dsxx), _mul(sxp, dsxp))
    m01 = _sub(_mul(spp, dsxp), _mul(sxp, dspp))
    m10 = _sub(_mul(sxx, dsxp), _mul(sxp, dsxx))
    m11 = _sub(_mul(sxx, dspp), _mul(sxp, dsxp))
    trace = _sum([_mul(m00, m00), _mul(m11, m11), _mul_d(_mul(m01, m10), 2.0)])
    return trace, abs(m00[0] * m00[0]) + abs(m11[0] * m11[0]) + 2.0 * abs(m01[0] * m10[0])


def _trace_cases(seed: int, n: int) -> list:
    """(cov, dcov) of twelve pairs each: some (0, 0), as the free monomials' differences are."""
    rng = random.Random(seed)
    draw = _pair if seed % 2 else _edge_pair
    return [
        ([draw(rng) for _ in range(12)],
         [(0.0, 0.0) if rng.random() < 0.4 else draw(rng) for _ in range(12)])
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_adjugate_trace_is_the_composition_on_floats(seed):
    mismatches = []
    for cov, dcov in _trace_cases(seed, 3000):
        got, want = _dd.dd_adjugate_trace(cov, dcov), _adjugate_trace(cov, dcov)
        if _flat(got) != _flat(want):
            mismatches.append((cov, dcov, got, want))
    assert mismatches == []


def test_adjugate_trace_is_the_composition_on_arrays():
    cases = _trace_cases(3, 4000)

    def column(part, i):
        return tuple(np.array([c[part][i][k] for c in cases]) for k in (0, 1))

    # a (0, 0) of floats beside arrays, as the free monomials' differences are
    cov = [column(0, i) for i in range(12)]
    dcov = [(0.0, 0.0) if i in (0, 6, 9) else column(1, i) for i in range(12)]
    with np.errstate(all="ignore"):
        assert _flat(_dd.dd_adjugate_trace(cov, dcov)) == _flat(_adjugate_trace(cov, dcov))


def _envelope_draws(seed: int, n: int) -> list:
    """(probe, env, t) over the envelope, as in test_fisher's test_numeric_across_envelope."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 30.0)
        gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
        t = 10.0 ** rng.uniform(-12.0, 0.0)
        probe = pc.fullerene_probe(gamma=float(gamma), ell0=(5e-8, math.inf)[rng.integers(2)])
        draws.append((probe, pc.EnvironmentSpec(lam=float(lam)), float(t)))
    return draws


@pytest.mark.parametrize("target", ["gamma", "lambda"])
def test_kernels_are_the_compositions_on_real_stencils(target, monkeypatch):
    # every tableau, trace and sum that 200 seeded qfi_numeric calls run
    seen = {"dd_richardson": [], "dd_adjugate_trace": [], "dd_sum": []}
    for name in seen:
        def spy(*args, kernel=getattr(_dd, name), name=name):
            seen[name].append(args)
            return kernel(*args)

        monkeypatch.setattr(_dd, name, spy)
    for probe, env, t in _envelope_draws(7, 200):
        try:
            pc.qfi_numeric(target, probe, env, t)
        except (pc.ConvergenceError, ArithmeticError, ValueError):
            pass
    monkeypatch.undo()
    # one tableau call per qfi_numeric call, a row per moving monomial
    assert len(seen["dd_richardson"]) >= 150
    moving = len(fisher._MOVING[pc.EstimationTarget(target)])
    assert all(len(rows) == moving for rows, _ in seen["dd_richardson"])
    for args in seen["dd_richardson"]:
        assert _flat(_dd.dd_richardson(*args)) == _flat(_tableaux(*args))
    assert len(seen["dd_adjugate_trace"]) >= 150
    for args in seen["dd_adjugate_trace"]:
        assert _flat(_dd.dd_adjugate_trace(*args)) == _flat(_adjugate_trace(*args))
    for (terms,) in seen["dd_sum"]:
        assert _flat(_dd.dd_sum(terms)) == _flat(_sum(terms))


def _stepwise_terms(h, V, dv, v, x) -> list:
    """`fisher._quadrature_terms` as a list per step and per tableau level."""
    levels = []
    expm1, exp, squares, weights = math.expm1, math.exp, *fisher._NODES
    for dvk, vp, vm, width in zip(dv, v[:4], v[4:], (xp - xm for xp, xm in zip(x[:4], x[4:]))):
        rel, ratio = dvk / vm, vm / V
        if not (rel > -1.0 and ratio > 0.0):
            raise FloatingPointError(
                f"quadrature step h={h:g} leaves the domain of the log: dv/V(theta-h)={rel:g}, "
                f"V(theta-h)/V={ratio:g}"
            )
        a, b = (dvk / vp) * (V / vm), 0.5 * math.log1p(rel)
        c, e = (vm - V) / vm, 0.5 * math.log(ratio)
        levels.append([expm1(u2 * a - b) * exp(u2 * c - e) / width for u2 in squares])
    for j in range(1, 4):
        fac = 4.0**j
        den = fac - 1.0
        levels = [
            [(fac * p - q) / den for p, q in zip(upper, lower)]
            for lower, upper in zip(levels[:-1], levels[1:])
        ]
    return [w * r * r for w, r in zip(weights, levels[0])]


def _outcome(function, args) -> tuple:
    """The raw bits of what function returns, or the type and message of what it raises."""
    try:
        return ("value", _flat(function(*args)))
    except ArithmeticError as exc:
        return (type(exc).__name__, str(exc))


def _quadrature_stencils(seed: int) -> list:
    """(h, V, dv, v, x) of real cfi_quadrature calls, and seeded variants that fail.

    A variant scales one step's dv or v, zeroes a width or a V(theta-h), or
    makes a value non-finite, so that a log's domain, a division by zero and
    an overflow of expm1 or exp meet at different steps.
    """
    real = []

    def spy(*args, terms=fisher._quadrature_terms):
        real.append(args)
        return terms(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisher, "_quadrature_terms", spy)
        for probe, env, t in _envelope_draws(seed, 100):
            for target in pc.EstimationTarget:
                try:
                    pc.cfi_quadrature(target, probe, env, t)
                except (pc.ConvergenceError, ArithmeticError, ValueError):
                    pass
    rng = random.Random(seed)
    cases = list(real)
    for h, V, dv, v, x in real:
        for _ in range(8):
            dv2, v2, x2, V2 = list(dv), list(v), list(x), V
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(4)
                change = rng.random()
                if change < 0.2:  # dv/v- below -1, or a huge a
                    dv2[k] *= rng.choice((-1e4, 1e3, 1e6, -1e300))
                elif change < 0.35:
                    v2[4 + k] = rng.choice((0.0, -v2[4 + k], v2[4 + k] * 1e-300))
                elif change < 0.5:
                    v2[k] = rng.choice((0.0, v2[k] * 1e-300))
                elif change < 0.65:  # x0 + h rounds to x0 - h
                    x2[k] = x2[4 + k]
                elif change < 0.8:
                    dv2[k] = rng.choice((math.inf, -math.inf, math.nan))
                else:
                    V2 = V * rng.choice((1e300, 1e-300, 0.0, -1.0))
            cases.append((h, V2, dv2, v2, x2))
    return cases


@pytest.mark.parametrize("seed", [8, 9])
def test_quadrature_terms_are_the_stepwise_lists(seed):
    # the per-node pass returns the lists' values bit for bit, and where those
    # lists raise, it raises the same error first
    cases = _quadrature_stencils(seed)
    outcomes = [_outcome(_stepwise_terms, case) for case in cases]
    got = [_outcome(fisher._quadrature_terms, case) for case in cases]
    assert [i for i, (g, w) in enumerate(zip(got, outcomes)) if g != w] == []
    kinds = {kind for kind, _ in outcomes}
    assert {"value", "FloatingPointError", "ZeroDivisionError", "OverflowError"} <= kinds
    assert sum(kind == "value" for kind, _ in outcomes) > 150


def test_nan_matches_any_nan_and_nothing_else():
    nan, negative_nan = math.nan, -math.nan
    payload = struct.unpack("<d", bytes.fromhex("010000000000f87f"))[0]
    assert _bits(nan) == _bits(negative_nan) == _bits(payload)
    assert _bits(nan) != _bits(math.inf) and _bits(0.0) != _bits(-0.0)
    assert _flat((np.array([nan, 0.0]), 1.0)) == _flat((np.array([negative_nan, 0.0]), 1.0))
    assert _flat(np.array([nan, 0.0])) != _flat(np.array([nan, -0.0]))
    assert _flat(np.array([nan])) != _flat(np.array([1.0]))


#: the stencil components that the two builders return for each moving parameter:
#: `_covariance_dd`'s (those below 12; of sxx, below 5) and `_purity_bracket_dd`'s
_CLASSES = {
    target.value: (
        [k for k in fisher._MOVING[target] if k < 12],
        [k - 12 for k in fisher._MOVING[target] if k >= 12],
    )
    for target in pc.EstimationTarget
}


def _near_one(rng: random.Random) -> float:
    """A seeded double of decimal exponent -3 to 3."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-3, 3)


def _builder_cases(seed: int, n: int = 400) -> list:
    """(covariance factors, bracket factors, gamma, lam, four abscissae) of seeded doubles.

    In half the cases every operand is within six decades of 1, where the
    error terms of a product are of one size and the order of their sum shows.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        double = _double if rng.random() < 0.5 else _near_one

        def pair(rng):
            hi = double(rng)
            return hi, rng.uniform(-0.5, 0.5) * math.ulp(hi) if math.isfinite(hi) else 0.0

        cases.append((
            (pair(rng), pair(rng), pair(rng), double(rng), double(rng)),
            tuple(double(rng) for _ in range(6)),
            double(rng),
            double(rng),
            [double(rng) for _ in range(4)],
        ))
    return cases


def _covariance_composed(f, gamma, lam) -> list:
    """`model._covariance_dd`'s full list as `_dd` kernel calls, one per operation."""
    th, th2, th3, e2, lam_scale = f
    g2 = _dd.dd_mul(_dd.dd(gamma), _dd.dd(gamma))
    lt = _dd.dd_mul_d(_dd.dd(lam), lam_scale)
    return [
        _dd.dd(1.0), _dd.dd_mul_d(th, 2.0 * gamma), _dd.dd_mul_d(th2, e2), _dd.dd_mul(g2, th2),
        _dd.dd_mul_d(_dd.dd_mul(th3, lt), 4.0 / 3.0),
        _dd.dd(gamma), _dd.dd_mul_d(th, e2), _dd.dd_mul(g2, th),
        _dd.dd_mul_d(_dd.dd_mul(th2, lt), 2.0),
        _dd.dd(e2), g2, _dd.dd_mul_d(_dd.dd_mul(th, lt), 4.0),
    ]


def _bracket_composed(f, gamma, lam) -> list:
    """`model._purity_bracket_dd`'s full list as `_dd` kernel calls, one per operation."""
    c0, c1, c2, c3, c4, c5 = f
    g, lm = _dd.dd(gamma), _dd.dd(lam)
    return [
        _dd.dd(c0),
        _dd.dd_mul_d(lm, c1),
        _dd.dd_mul_d(_dd.dd_mul(g, lm), c2),
        _dd.dd_mul_d(_dd.dd_mul(_dd.dd_mul(g, g), lm), c3),
        _dd.dd_mul_d(lm, c4),
        _dd.dd_mul_d(_dd.dd_mul(lm, lm), c5),
    ]


def _check_full_lists(fc, fb, gamma, lam) -> list:
    """The failures of the builders' full lists against their compositions."""
    failures = []
    for built, composed in (
        (model._covariance_dd(fc, gamma, lam), _covariance_composed(fc, gamma, lam)),
        (model._purity_bracket_dd(fb, gamma, lam), _bracket_composed(fb, gamma, lam)),
    ):
        if _flat(built) != _flat(composed):
            failures.append((gamma, lam, built, composed))
    return failures


def _check_stencil(fc, fb, gamma, lam, xs, moving) -> list:
    """The failures of one-call stencils against each abscissa's full lists."""
    cov_class, bracket_class = _CLASSES[moving]

    def at(x):
        return (x, lam) if moving == "gamma" else (gamma, x)

    stencils = (
        model._covariance_dd(fc, *at(xs), moving),
        model._covariance_dd(fc, *at(xs), moving, sxx_only=True),
        model._purity_bracket_dd(fb, *at(xs), moving),
    )
    failures = []
    for i, x in enumerate(xs):
        cov, bracket = model._covariance_dd(fc, *at(x)), model._purity_bracket_dd(fb, *at(x))
        wanted = (
            [cov[k] for k in cov_class],
            [cov[k] for k in cov_class if k < 5],
            [bracket[k] for k in bracket_class],
        )
        for got, want in zip((s[i] for s in stencils), wanted):
            if _flat(got) != _flat(want):
                failures.append((moving, x, got, want))
    if _flat(model._covariance_dd(fc, gamma, lam, sxx_only=True)) != _flat(
        model._covariance_dd(fc, gamma, lam)[:5]
    ):
        failures.append(("sxx", gamma, lam))
    return failures


@pytest.mark.parametrize("moving", ["gamma", "lambda"])
def test_monomial_builders_on_floats(moving):
    # each full list is its `_dd` composition, and one call over a list of abscissae
    # gives each abscissa's entries of the full lists
    failures = []
    for fc, fb, gamma, lam, xs in _builder_cases(4):
        failures += _check_full_lists(fc, fb, gamma, lam)
        failures += _check_stencil(fc, fb, gamma, lam, xs, moving)
    assert failures == []


@pytest.mark.parametrize("moving", ["gamma", "lambda"])
def test_monomial_builders_on_arrays(moving):
    # every operand an array across the cases, as along a sweep axis
    cases = _builder_cases(5)

    def column(values):
        return np.array(list(values))

    fc = tuple(
        (column(c[0][i][0] for c in cases), column(c[0][i][1] for c in cases)) for i in range(3)
    ) + tuple(column(c[0][i] for c in cases) for i in (3, 4))
    fb = tuple(column(c[1][i] for c in cases) for i in range(6))
    gamma, lam = column(c[2] for c in cases), column(c[3] for c in cases)
    xs = [column(c[4][i] for c in cases) for i in range(4)]
    with np.errstate(all="ignore"):
        assert _check_full_lists(fc, fb, gamma, lam) == []
        assert _check_stencil(fc, fb, gamma, lam, xs, moving) == []


def test_builder_cases_reach_the_special_values():
    values = [v for fc, fb, g, lam, xs in _builder_cases(4) for v in (*fb, g, lam, *xs)]
    assert {_bits(v) for v in SPECIAL} <= {_bits(v) for v in values}
