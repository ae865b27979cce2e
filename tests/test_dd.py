"""The fused double-double kernels against the error-free compositions they replace.

`dd_add`, `dd_sub`, `dd_mul` and `dd_mul_d` write out Dekker's two-sum or
two-product and the renormalising quick sum in one function each.  Each must
return what the composition of `_two_sum`/`_two_prod` and the quick sum
returns, bit for bit, so ±0 and the sign and payload of a NaN are compared as
raw bits, on floats and elementwise on numpy arrays.
"""
import math
import random
import struct

import numpy as np
import pytest

from pmcorr import _dd


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
    "dd_add": (_dd.dd_add, _add, True),
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
    return struct.pack("<d", value).hex()


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
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_cases_reach_every_kind_of_double():
    # the seeded operands hold both zeros, both infinities, NaN and subnormals
    values = [v for x, y in _cases(1) for v in (*x, *y)]
    assert {_bits(v) for v in SPECIAL} <= {_bits(v) for v in values}
    assert sum(0.0 < abs(v) < 2.2250738585072014e-308 for v in values) > 100
