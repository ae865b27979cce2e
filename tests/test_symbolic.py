"""Symbolic check that every hand-kept copy of the purity bracket is one polynomial.

`model._covariance_terms_dd` is the single source of the covariance.  On
sympy symbols the double-double helpers reduce to exact products (each
splitting error cancels to zero), so evaluating it with symbols for the
parameters, and `model.HBAR` patched to a symbol, yields the covariance
entries exactly.  Their determinant B = sxx spp - sxp^2 is 1/purity^2, and
each copy of B or of its derivatives kept in `model` must equal it after its
float coefficients are rationalised.  The hand-expanded stationarity
polynomial P = B''B - B'^2 of `thermometry` is checked on symbolic
coefficients of a general quartic.
"""
import pytest
import sympy as sp

from pmcorr import model, thermometry

M, S0, EPS, G, LAM, T, HBAR = sp.symbols("m sigma0 epsilon gamma lambda t hbar", positive=True)
ARGS = (M, S0, EPS, G, LAM, T)


def exact(expr):
    """The float coefficients of expr as the rationals they round (4.0/3.0 -> 4/3)."""
    return sp.nsimplify(expr, rational=True)


def at(copy):
    """A bracket copy of `model` as a function of (mass, sigma0, eps, gamma, lam, t)."""
    coefficients = getattr(model, f"{copy.__name__}_coefficients")
    return lambda *args: copy(coefficients(*args[:-1]), args[-1])


def dd_total(terms):
    return exact(sum(hi + lo for hi, lo in terms))


@pytest.fixture(scope="module")
def bracket():
    """B = det of the symbolic covariance, with model.HBAR a symbol for the whole module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "HBAR", HBAR)
        terms = model._covariance_terms_dd(*ARGS)
        assert all(lo == 0 for _, lo in terms)
        sxx, sxp, spp = dd_total(terms[:5]), dd_total(terms[5:9]), dd_total(terms[9:])
        yield sp.expand(sxx * spp - sxp**2)


def test_bracket_has_the_published_form(bracket):
    # 1/purity^2 is a quartic in t whose lowest term is the initial 1 + 2 eps
    poly = sp.Poly(bracket, T)
    assert poly.degree() == 4
    assert poly.coeff_monomial(1) == 1 + 2 * EPS


@pytest.mark.parametrize(
    "copy",
    [
        at(model._purity_bracket),
        lambda *args: sum(hi + lo for hi, lo in model._purity_bracket_terms_dd(*args)),
    ],
    ids=["_purity_bracket", "_purity_bracket_terms_dd"],
)
def test_bracket_copies(bracket, copy):
    assert sp.expand(exact(copy(*ARGS)) - bracket) == 0


def test_bracket_coefficients(bracket):
    coefficients = model._purity_bracket_coefficients(M, S0, EPS, G, LAM)
    expected = sp.Poly(bracket, T).all_coeffs()[::-1]
    assert [sp.expand(exact(c) - e) for c, e in zip(coefficients, expected)] == [0] * 5


@pytest.mark.parametrize(
    "copy, variable",
    [
        (at(model._purity_bracket_dt), T),
        (at(model._purity_bracket_dgamma), G),
        (at(model._purity_bracket_dlam), LAM),
    ],
    ids=["dt", "dgamma", "dlam"],
)
def test_bracket_derivatives(bracket, copy, variable):
    assert sp.expand(exact(copy(*ARGS)) - sp.diff(bracket, variable)) == 0


def test_stationarity_coefficients():
    # B' and P = B''B - B'^2 of a general quartic B, coefficient by coefficient
    b = sp.symbols("b0:5")
    x = sp.Symbol("x")
    quartic = sum(c * x**k for k, c in enumerate(b))
    d1, p = thermometry._stationarity_coefficients(list(b))
    stationarity = sp.expand(sp.diff(quartic, x, 2) * quartic - sp.diff(quartic, x) ** 2)
    assert [sp.expand(c) for c in d1] == [sp.diff(quartic, x).coeff(x, k) for k in range(4)]
    assert [sp.expand(c) for c in p] == [stationarity.coeff(x, k) for k in range(7)]
