"""The fused double-double kernels against the error-free compositions they replace.

`dd_sub`, `dd_mul` and `dd_mul_d` write out Dekker's two-sum or two-product
and the renormalising quick sum in one function each; `dd_sum` folds the
two-sum addition over a list, and `dd_richardson` runs a whole Richardson
tableau of `dd_sub` and `dd_mul_d`, on float locals.  Each must return what
the composition it replaces returns, bit for bit, so ±0 is compared as raw
bits, on floats and elementwise on numpy arrays.  A NaN matches any NaN: which
operand's NaN CPython's float operations return, and so its sign and payload,
can depend on what ran before in the process.  The monomial builders of
`pmcorr.model` are held to the same identity: one call over a list of
abscissae must give each abscissa's entries of the full lists.
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


def _richardson_cases(seed: int, n: int = 1500) -> list:
    """(plus, minus, inv_widths) of five steps: free pairs, or stencils about a common value."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        if rng.random() < 0.5:
            plus = [_pair(rng) for _ in range(5)]
            minus = [_pair(rng) for _ in range(5)]
            inv_widths = [_double(rng) for _ in range(5)]
        else:  # a smooth function about x0, as the oracle's stencils are
            x0, c1, c2 = _double(rng), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            steps = [rng.uniform(1e-6, 1e-2) / 2.0**i for i in range(5)]

            def value(s):
                hi = x0 * (1.0 + c1 * s + c2 * s * s)
                return hi, rng.uniform(-0.5, 0.5) * math.ulp(hi) if math.isfinite(hi) else 0.0

            plus, minus = [value(s) for s in steps], [value(-s) for s in steps]
            inv_widths = [1.0 / (2.0 * s) for s in steps]
        cases.append((plus, minus, inv_widths))
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
    for plus, minus, inv_widths in _richardson_cases(seed):
        got, want = _dd.dd_richardson(plus, minus, inv_widths), _richardson(plus, minus, inv_widths)
        if _flat(got) != _flat(want):
            mismatches.append((plus, minus, inv_widths, got, want))
    assert mismatches == []


def test_richardson_is_the_composed_tableau_on_arrays():
    cases = _richardson_cases(3)

    def column(part, i, k=None):
        return np.array([c[part][i] if k is None else c[part][i][k] for c in cases])

    plus, minus = ([(column(part, i, 0), column(part, i, 1)) for i in range(5)] for part in (0, 1))
    inv_widths = [column(2, i) for i in range(5)]
    inv_widths[0] = 0.5  # a float width beside arrays, as where the axis is not the target
    with np.errstate(all="ignore"):
        got, want = _dd.dd_richardson(plus, minus, inv_widths), _richardson(plus, minus, inv_widths)
    assert _flat(got) == _flat(want)
    assert all(isinstance(v, np.ndarray) and v.shape == (len(cases),) for pair in got for v in pair)


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
    # every tableau and every sum that 200 seeded qfi_numeric calls run
    seen = {"dd_richardson": [], "dd_sum": []}
    for name, kernel in (("dd_richardson", _dd.dd_richardson), ("dd_sum", _dd.dd_sum)):
        def spy(*args, kernel=kernel, name=name):
            seen[name].append(args)
            return kernel(*args)

        monkeypatch.setattr(_dd, name, spy)
    for probe, env, t in _envelope_draws(7, 200):
        try:
            pc.qfi_numeric(target, probe, env, t)
        except (pc.ConvergenceError, ArithmeticError, ValueError):
            pass
    monkeypatch.undo()
    assert len(seen["dd_richardson"]) >= 150 * len(fisher._MOVING[pc.EstimationTarget(target)])
    for args in seen["dd_richardson"]:
        assert _flat(_dd.dd_richardson(*args)) == _flat(_richardson(*args))
    for (terms,) in seen["dd_sum"]:
        assert _flat(_dd.dd_sum(terms)) == _flat(_sum(terms))


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
