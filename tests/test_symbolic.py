"""Symbolic check that both copies of the purity bracket, and its derivatives, are one polynomial.

`model._covariance_dd` of `model._covariance_factors` is the single source
of the covariance.  On sympy symbols the double-double helpers reduce to
exact products (each splitting error cancels to zero), so evaluating it with
symbols for the parameters, and `model.HBAR` patched to a symbol, yields the
covariance entries exactly.  Their determinant B = sxx spp - sxp^2 is
1/purity^2.  The closed-form builder `model._purity_bracket_coefficients`
and the oracle's monomials `model._purity_bracket_dd` must each equal B
after their float coefficients are rationalised, and the builder's derived
tuples, dB/dgamma and dB/dlam from its parts and dB/dt as k c_k of its own
tuple (`model._derivative`), must equal B's derivatives, whether one call
builds one of them or all three, and `model._purity_bracket` must sum each
from B's powers of t.  The
hand-expanded stationarity polynomial P = B''B - B'^2 of `thermometry` is
checked on symbolic coefficients of a general quartic.

The same covariance S checks the closed forms of `fisher`: the adjugate
trace (dB/dtheta)^2 - 2 B det(dS/dtheta) is Tr[(adj S dS/dtheta)^2] for
theta in {gamma, lambda}, and `cfi_closed` is the Gaussian readout identity
(d sxx/dtheta)^2 / (2 sxx^2).  Both are evaluated through their coefficient
tuples, as the grid evaluates them: 16 phi_theta as
`fisher._phi_from_bracket` of the bracket, its derivative and
`fisher._det_derivative`, the pieces that `fisher._analytic_curve` builds
for the target, and the CFI as `_cfi_closed_at` of `_cfi_coefficients`.

The closed forms take the coherence length ell0, as `model._coefficient_args`
gives it; the covariance's monomials take eps = sigma0^2/ell0^2, as the
oracles pass it.
"""
import pytest
import sympy as sp

from pmcorr import fisher, model, thermometry

M, S0, L0, G, LAM, T, HBAR = sp.symbols("m sigma0 ell0 gamma lambda t hbar", positive=True)
EPS = S0**2 / L0**2
#: the arguments of the closed forms' coefficient builders
ARGS = (M, S0, L0, G, LAM)


def exact(expr):
    """The float coefficients of expr as the rationals they round (4.0/3.0 -> 4/3)."""
    return sp.nsimplify(expr, rational=True)


def dd_total(terms):
    return exact(sum(hi + lo for hi, lo in terms))


@pytest.fixture(scope="module")
def covariance():
    """(sxx, sxp, spp) of the symbolic covariance, with HBAR a symbol for the whole module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "HBAR", HBAR)
        patch.setattr(fisher, "HBAR", HBAR)
        terms = model._covariance_dd(model._covariance_factors(M, S0, EPS, T), G, LAM)
        assert all(lo == 0 for _, lo in terms)
        yield dd_total(terms[:5]), dd_total(terms[5:9]), dd_total(terms[9:])


@pytest.fixture(scope="module")
def bracket(covariance):
    """B = det of the symbolic covariance."""
    sxx, sxp, spp = covariance
    return sp.expand(sxx * spp - sxp**2)


def test_bracket_has_the_published_form(bracket):
    # 1/purity^2 is a quartic in t whose lowest term is the initial 1 + 2 eps
    poly = sp.Poly(bracket, T)
    assert poly.degree() == 4
    assert sp.expand(poly.coeff_monomial(1) - (1 + 2 * EPS)) == 0


@pytest.mark.parametrize(
    "copy",
    [
        lambda: model._purity_bracket(model._purity_bracket_coefficients(*ARGS), T),
        lambda: sum(hi + lo for hi, lo in model._purity_bracket_dd(
            model._purity_bracket_factors(M, S0, EPS, T), G, LAM)),
    ],
    ids=["_purity_bracket", "_purity_bracket_dd"],
)
def test_bracket_copies(bracket, copy):
    assert sp.expand(exact(copy()) - bracket) == 0


def test_bracket_coefficients(bracket):
    coefficients = model._purity_bracket_coefficients(*ARGS)
    expected = sp.Poly(bracket, T).all_coeffs()[::-1]
    assert [sp.expand(exact(c) - e) for c, e in zip(coefficients, expected)] == [0] * 5


DERIVATIVES = [("t", T), ("gamma", G), ("lambda", LAM)]


@pytest.mark.parametrize("wrt, variable", DERIVATIVES, ids=["dt", "dgamma", "dlam"])
def test_bracket_derivatives(bracket, wrt, variable):
    # each derived tuple keeps B's five slots, and is summed after B from B's powers of t
    b, d = model._purity_bracket_coefficients(*ARGS, wrt)
    assert len(d) == 5
    assert b == model._purity_bracket_coefficients(*ARGS)
    assert sp.expand(exact(model._purity_bracket(b, T, d)[1]) - sp.diff(bracket, variable)) == 0


def test_one_call_builds_every_derivative(bracket):
    # one call, one tuple per parameter asked for, in order, each summed from B's powers of t
    b, *tuples = model._purity_bracket_coefficients(*ARGS, *[wrt for wrt, _ in DERIVATIVES])
    value, *sums = model._purity_bracket(b, T, *tuples)
    assert sp.expand(exact(value) - bracket) == 0
    assert [sp.expand(exact(s) - sp.diff(bracket, v)) for s, (_, v) in zip(sums, DERIVATIVES)] == [0] * 3


def test_stationarity_coefficients():
    # B' and P = B''B - B'^2 of a general quartic B, coefficient by coefficient
    b = sp.symbols("b0:5")
    x = sp.Symbol("x")
    quartic = sum(c * x**k for k, c in enumerate(b))
    d1, p = thermometry._stationarity_coefficients(list(b))
    stationarity = sp.expand(sp.diff(quartic, x, 2) * quartic - sp.diff(quartic, x) ** 2)
    # B' keeps B's five slots, its last 0
    assert [sp.expand(c) for c in d1[:4]] == [sp.diff(quartic, x).coeff(x, k) for k in range(4)]
    assert d1[4] == 0.0
    assert [sp.expand(c) for c in p] == [stationarity.coeff(x, k) for k in range(7)]


TARGETS = [(fisher.EstimationTarget.GAMMA, G), (fisher.EstimationTarget.LAMBDA, LAM)]


@pytest.mark.parametrize("target, variable", TARGETS, ids=["gamma", "lambda"])
def test_phi_is_the_adjugate_trace(covariance, target, variable):
    sxx, sxp, spp = covariance
    s = sp.Matrix([[sxx, sxp], [sxp, spp]])
    product = s.adjugate() * s.diff(variable)
    trace = (product * product).trace()
    b, d = model._purity_bracket_coefficients(*ARGS, target.value)
    bracket, dbracket = model._purity_bracket(b, T, d)
    det = fisher._det_derivative(target, ARGS)
    phi = fisher._phi_from_bracket(target, det, bracket, dbracket, T)
    assert sp.cancel(trace - exact(fisher._ADJ_TRACE_RESCALE * phi)) == 0


@pytest.mark.parametrize("target, variable", TARGETS, ids=["gamma", "lambda"])
def test_cfi_closed_is_the_readout_identity(covariance, target, variable):
    # the readout variance is sigma0^2 sxx / 2
    sxx = covariance[0]
    closed = fisher._cfi_closed_at(target, fisher._cfi_coefficients(target, ARGS), T)
    assert sp.cancel(exact(closed) - sp.diff(sxx, variable) ** 2 / (2 * sxx**2)) == 0
