"""Quantum/classical Fisher information: closed forms against numeric oracles."""
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import pmcorr as pc
from pmcorr import _dd, cli, fisher, model
from pmcorr.constants import HBAR
from pmcorr.fisher import _ADJ_TRACE_RESCALE

import _reference as _ref

FULLERENE = pc.fullerene_probe()
GAMMA = pc.EstimationTarget.GAMMA
LAMBDA = pc.EstimationTarget.LAMBDA

# small cross-check grid; the full acceptance grid lives in test_acceptance
GRID = list(itertools.product([-50.0, 0.0, 5.0], [1e13, 1e15, 1e20], [1e-7, 1e-5, 1e-3]))


def env(lam):
    return pc.EnvironmentSpec(lam=lam)


def _reference(target, probe, e, t):
    """`tests/_reference.py` at one point, from the probe and environment records."""
    return _ref.point(target.value, probe.mass, probe.sigma0, probe.ell0, probe.gamma, e.lam, t)


class TestPhiGamma:
    def test_reference_value_free_coherent(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        assert_allclose(pc.phi_gamma(probe, env(0.0), 1e-6), 1.0 / 8.0, rtol=1e-14)

    def test_no_coupling_single_term(self):
        # at lam = 0 only c0 = 9 tau0^4 (1 + 2 eps) survives
        phi = pc.phi_gamma(FULLERENE, env(0.0), 5e-5)
        tau = pc.tau0(FULLERENE)
        c0 = 9.0 * tau**4 * (1.0 + 2.0 * FULLERENE.coherence_ratio_sq)
        assert_allclose(phi, c0 / (72.0 * tau**4), rtol=1e-14)
        assert_allclose(phi, (1.0 + 2 * FULLERENE.coherence_ratio_sq) / 8.0, rtol=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            pc.phi_gamma(FULLERENE, env(0.0), 0.0)

    def test_assembled_matches_numeric_oracle(self):
        probe = FULLERENE.with_gamma(5.0)
        e = env(1e20)
        a = pc.qfi_analytic(GAMMA, probe, e, 1e-6)
        n = pc.qfi_numeric(GAMMA, probe, e, 1e-6)
        assert abs(a - n) <= 1e-6 * abs(a)


class TestPhiLambda:
    def test_big_gamma_free_coherent(self):
        # a free, fully coherent, uncorrelated probe has big_gamma = 2 eps + gamma^2 + 1 = 1,
        # so at lam = 0 the value is 2 sigma0^4 t^6 (1 + 15 r^2 (3/10) + 9 r^4) / (18 tau0^4)
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        t = 1e-6
        tau = pc.tau0(probe)
        r = tau / t
        c0 = 2.0 * probe.sigma0**4 * t**6 * (1.0 + 15.0 * r**2 * (3.0 / 10.0) + 9.0 * r**4)
        assert_allclose(pc.phi_lambda(probe, env(0.0), t), c0 / (18.0 * tau**4), rtol=1e-14)

    def test_no_coupling_single_term(self):
        # at lam = 0 only c0 survives; FULLERENE is uncorrelated, so gamma = 0 drops its odd terms
        t = 5e-5
        phi = pc.phi_lambda(FULLERENE, env(0.0), t)
        tau = pc.tau0(FULLERENE)
        eps = FULLERENE.coherence_ratio_sq
        r = tau / t
        c0 = 2.0 * FULLERENE.sigma0**4 * t**6 * (
            (2.0 * eps + 1.0) ** 2 + 15.0 * r**2 * ((3.0 / 5.0) * eps + 3.0 / 10.0) + 9.0 * r**4
        )
        assert_allclose(phi, c0 / (18.0 * tau**4), rtol=1e-14)

    def test_assembled_matches_numeric_oracle(self):
        probe = FULLERENE.with_gamma(-10.0)
        e = env(1e15)
        a = pc.qfi_analytic(LAMBDA, probe, e, 5e-5)
        n = pc.qfi_numeric(LAMBDA, probe, e, 5e-5)
        assert abs(a - n) <= 1e-6 * abs(a)


@pytest.mark.parametrize("target,bound", [(GAMMA, 8), (LAMBDA, 24)], ids=["gamma", "lambda"])
def test_adjugate_trace_against_the_reference(target, bound):
    # 16 phi = (dB)^2 - 2 B det(dS), within `bound` epsilons of the trace the
    # reference takes as a matrix product, on 1,000 envelope draws; the hand-kept
    # phi_lambda polynomials were off by up to ~70 epsilons
    rng = np.random.default_rng(26)
    phi = pc.phi_gamma if target is GAMMA else pc.phi_lambda
    worst = 0.0
    for _ in range(1000):
        lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 30.0)
        gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
        t = 10.0 ** rng.uniform(-12.0, 0.0)
        probe = pc.fullerene_probe(gamma=float(gamma), ell0=(1e-9, 5e-8, math.inf)[rng.integers(3)])
        e = env(float(lam))
        exact = _reference(target, probe, e, float(t)).trace
        worst = max(worst, float(abs(_ADJ_TRACE_RESCALE * phi(probe, e, float(t)) - exact) / exact))
    assert worst <= bound * np.finfo(float).eps


def _envelope(seed: int, n: int):
    """n seeded (probe, env, t) draws over the envelope: |gamma| <= 1e4, lam to 1e30, t to 1 s."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lam = 10.0 ** rng.uniform(-3.0, 30.0)
        gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
        t = 10.0 ** rng.uniform(-12.0, 0.0)
        ell0 = (1e-9, 5e-8, math.inf)[rng.integers(3)]
        yield pc.fullerene_probe(gamma=float(gamma), ell0=ell0), env(float(lam)), float(t)


@pytest.mark.parametrize("target", [GAMMA, LAMBDA], ids=["gamma", "lambda"])
def test_purity_derivative_against_the_reference(target):
    # dmu/dtheta = -dB B^(-3/2)/2 from the builder's B and dB/dtheta tuples, within
    # 4 epsilons of the reference times kappa, how far the terms of dB and of B
    # cancel at the point (summed), on 500 envelope draws; the worst measured on
    # 9,000 draws was 2.1 epsilons times kappa
    worst = 0.0
    for probe, e, t in _envelope(28, 500):
        args = model._coefficient_args(probe, e)
        b, db = model._purity_bracket_coefficients(*args, target.value)
        kappa = _ref.cancellation(db, t) + _ref.cancellation(b, t)
        exact = _reference(target, probe, e, t).dpurity
        error = abs(pc.purity_derivative(target, probe, e, t) - exact) / abs(exact)
        worst = max(worst, float(error / kappa))
    assert worst <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("slope", ["gamma", "lambda", "t"])
def test_relative_slope_of_the_grid_group_against_the_reference(slope):
    # |dB/d(slope)|/(2B), the slope column of the figures' and sweeps' analytic
    # group, within 4 epsilons of the reference times kappa, how far the terms of
    # the derivative and of B cancel at the point (summed), on 500 envelope draws;
    # the worst measured on 3,000 draws per slope was 1.6 epsilons times kappa; the
    # draws are one run of the group
    points = list(_envelope(29, 500))
    worst = 0.0
    for (probe, e, t), (_, value) in zip(points, cli._analytic(slope=slope)(points), strict=True):
        b, d = model._purity_bracket_coefficients(*model._coefficient_args(probe, e), slope)
        kappa = _ref.cancellation(d, t) + _ref.cancellation(b, t)
        exact = _ref.point(slope, probe.mass, probe.sigma0, probe.ell0, probe.gamma, e.lam, t)
        rate = abs(exact.dbracket) / (2 * exact.bracket)
        worst = max(worst, float(abs(value - rate) / rate / kappa))
    assert worst <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("phi", [pc.phi_gamma, pc.phi_lambda])
def test_phi_lambda_sq_overflow_named(phi):
    with pytest.raises(OverflowError, match=r"lambda=1e\+200 overflows the float range: "
                       r"lambda\^2 needs lambda below ~1\.3e\+154"):
        phi(FULLERENE, env(1e200), 1e-6)


@pytest.mark.parametrize(
    "call,t,message",
    [
        (lambda p, e, t: pc.cfi_closed(GAMMA, p, e, t), 1e-200,
         "(m/(2 hbar t) + gamma/(2 sigma0^2))=5.68951e+209 overflows the float range: "
         "(m/(2 hbar t) + gamma/(2 sigma0^2))^2, in b_sq, needs "
         "(m/(2 hbar t) + gamma/(2 sigma0^2)) below ~1.3e+154 m^-2"),
        (lambda p, e, t: pc.cfi_closed(LAMBDA, p, e, t), 1e-200,
         "(m/(2 hbar t) + gamma/(2 sigma0^2))=5.68951e+209 overflows the float range: "
         "(m/(2 hbar t) + gamma/(2 sigma0^2))^2, in b_sq, needs "
         "(m/(2 hbar t) + gamma/(2 sigma0^2)) below ~1.3e+154 m^-2"),
    ],
    ids=["cfi_closed-gamma", "cfi_closed-lambda"],
)
def test_short_time_overflow_named(call, t, message):
    # m/(2 hbar t) grows without bound as t -> 0; its square raised bare
    with pytest.raises(OverflowError) as error:
        call(FULLERENE, env(1e15), t)
    assert str(error.value) == message


@pytest.mark.parametrize("target,t", [(GAMMA, 1e-200), (LAMBDA, 1e-200), (LAMBDA, 1e-100)],
                         ids=["gamma-1e-200", "lambda-1e-200", "lambda-1e-100"])
def test_short_times_give_the_reference_values(target, t):
    # phi's (tau0/t)^2 and (tau0/t)^4 left the float range here, and phi and
    # qfi_analytic raised; the trace from the bracket has no power of tau0/t
    e = env(1e15)
    exact = _reference(target, FULLERENE, e, t)
    phi = pc.phi_gamma if target is GAMMA else pc.phi_lambda
    assert_allclose(phi(FULLERENE, e, t), float(exact.trace / 16), rtol=1e-15, atol=0.0)
    analytic = pc.qfi_analytic(target, FULLERENE, e, t)
    assert_allclose(analytic, float(exact.qfi), rtol=1e-14, atol=0.0)
    assert_allclose(pc.qfi_numeric(target, FULLERENE, e, t), analytic, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize(
    "target,t,message",
    [
        (GAMMA, 1e78, "t^4, in the purity bracket 1/purity^2, needs t below ~1.2e+77 s"),
        (LAMBDA, 1e103, "t^3, in the purity bracket 1/purity^2, needs t below ~5.6e+102 s"),
        (GAMMA, 1e160, "t^2, in the purity bracket 1/purity^2, needs t below ~1.3e+154 s"),
    ],
    ids=["gamma-t4", "lambda-t3", "gamma-t2"],
)
def test_qfi_numeric_time_power_overflow_named(target, t, message):
    # the oracle's own double-double bracket names the first t^k to overflow, as the
    # closed forms do
    with pytest.raises(OverflowError) as error:
        pc.qfi_numeric(target, FULLERENE, env(1e15), t)
    assert str(error.value) == f"t={t:g} overflows the float range: {message}"


def test_qfi_numeric_time_power_overflow_along_an_axis():
    # along an axis the error stays an ArithmeticError, so a sweep reruns its rows one by
    # one, and no message formats the array
    with pytest.raises(ArithmeticError) as error:
        fisher._qfi_numeric_points(GAMMA, FULLERENE, 0.0, 1e15, [1e-6, 1e78])
    assert "[" not in str(error.value)


def _at(function, target):
    return lambda probe, e, t: function(target, probe, e, t)


BRACKET_ROUTES = {
    "purity_exact": pc.purity_exact,
    "relative_purity_rate": pc.relative_purity_rate,
    "purity_derivative-gamma": _at(pc.purity_derivative, GAMMA),
    "purity_derivative-lambda": _at(pc.purity_derivative, LAMBDA),
    "qfi_analytic-gamma": _at(pc.qfi_analytic, GAMMA),
    "qfi_analytic-lambda": _at(pc.qfi_analytic, LAMBDA),
}


@pytest.mark.parametrize(
    "route,t,message",
    [
        ("purity_exact", 1e78, "t^4, in the purity bracket 1/purity^2, needs t below ~1.2e+77 s"),
        ("purity_exact", 1e103, "t^3, in the purity bracket 1/purity^2, needs t below ~5.6e+102 s"),
        ("purity_exact", 1e160, "t^2, in the purity bracket 1/purity^2, needs t below ~1.3e+154 s"),
        ("relative_purity_rate", 1e78,
         "t^4, in the purity bracket 1/purity^2, needs t below ~1.2e+77 s"),
        ("relative_purity_rate", 1e103,
         "t^3, in the purity bracket 1/purity^2, needs t below ~5.6e+102 s"),
        ("purity_derivative-gamma", 1e78,
         "t^4, in the purity bracket 1/purity^2, needs t below ~1.2e+77 s"),
        ("purity_derivative-gamma", 1e103,
         "t^3, in the purity bracket 1/purity^2, needs t below ~5.6e+102 s"),
        ("purity_derivative-lambda", 1e78,
         "t^4, in the purity bracket 1/purity^2, needs t below ~1.2e+77 s"),
        ("qfi_analytic-lambda", 1e103,
         "t^3, in the purity bracket 1/purity^2, needs t below ~5.6e+102 s"),
    ],
    ids=["purity-t4", "purity-t3", "purity-t2", "rate-t4", "rate-dt-t3", "dgamma-t4",
         "dgamma-t3", "dlambda-t4", "qfi-lambda-t3"],
)
def test_bracket_time_power_overflow_named(route, t, message):
    # every route evaluates the bracket before its derivatives, so the bracket names
    # the first t^k to overflow
    with pytest.raises(OverflowError) as error:
        BRACKET_ROUTES[route](FULLERENE, env(1e15), t)
    assert str(error.value) == f"t={t:g} overflows the float range: {message}"


@pytest.mark.parametrize("route", list(BRACKET_ROUTES))
@pytest.mark.parametrize(
    "gamma,lam,t,bracket",
    [(0.0, 1e150, 1e9, "inf"), (-1e150, 1e150, 1e10, "nan")],
    ids=["inf", "inf-minus-inf"],
)
def test_overflowing_purity_bracket_named(route, gamma, lam, t, bracket):
    # the quartic's terms overflow without raising; the purity was 0 and the rate NaN
    with pytest.raises(OverflowError) as error:
        BRACKET_ROUTES[route](FULLERENE.with_gamma(gamma), env(lam), t)
    assert str(error.value) == (
        f"purity bracket 1/purity^2={bracket} overflows the float range at t={t:g} s"
    )


@pytest.mark.parametrize("target", [GAMMA, LAMBDA], ids=["gamma", "lambda"])
@pytest.mark.parametrize(
    "mass,sigma0,ell0",
    [(1e-30, 1e-60, math.inf), (1e30, 1e30, math.inf), (1e-50, 1e-38, 5e-8),
     (1e-100, 1e40, math.inf)],
    ids=["tau0-1e-117", "tau0-1e123", "tau0-1e-93", "sigma0-1e40"],
)
def test_extreme_probes_give_the_reference_values(target, mass, sigma0, ell0):
    # phi named tau0^4 (below ~1.3e-81 s or above ~1.2e77 s) or sigma0^8 (above
    # ~3.4e38 m) here, though every quantity printed is finite
    probe, e, t = pc.ProbeSpec(mass=mass, sigma0=sigma0, ell0=ell0), env(1e15), 1e-6
    exact = _reference(target, probe, e, t)
    phi = pc.phi_gamma if target is GAMMA else pc.phi_lambda
    assert_allclose(phi(probe, e, t), float(exact.trace / 16), rtol=1e-15, atol=0.0)
    assert_allclose(pc.qfi_analytic(target, probe, e, t), float(exact.qfi), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "mass,sigma0,failing,message",
    [
        (1e-50, 1e-38, set(), None),
        (1e-100, 1e40, set(), None),
        (FULLERENE.mass, 1e78, {"kernel_params", "cfi_closed"},
         r"^sigma0=1e\+78 overflows the float range: sigma0\^4, in b_sq"),
    ],
    ids=["tau0^4", "sigma0^8", "sigma0^4"],
)
def test_one_point_functions_fail_only_on_fixed_factors_they_use(mass, sigma0, failing, message):
    # each builds only the fixed parts it uses: phi and qfi_analytic, which named
    # tau0^4 and sigma0^8 of their own, now use the bracket's alone, and only the
    # kernel's users name its sigma0^4
    probe, e, t = pc.ProbeSpec(mass=mass, sigma0=sigma0, ell0=5e-8), env(1e15), 1e-6
    calls = {
        "purity_exact": lambda: pc.purity_exact(probe, e, t),
        "relative_purity_rate": lambda: pc.relative_purity_rate(probe, e, t),
        "purity_derivative": lambda: pc.purity_derivative(GAMMA, probe, e, t),
        "kernel_params": lambda: pc.kernel_params(probe, e, t).b_sq,
        "cfi_closed": lambda: pc.cfi_closed(LAMBDA, probe, e, t),
        "phi_gamma": lambda: pc.phi_gamma(probe, e, t),
        "phi_lambda": lambda: pc.phi_lambda(probe, e, t),
        "qfi_analytic-gamma": lambda: pc.qfi_analytic(GAMMA, probe, e, t),
        "qfi_analytic-lambda": lambda: pc.qfi_analytic(LAMBDA, probe, e, t),
    }
    for name, call in calls.items():
        if name in failing or name.split("-")[0] in failing:
            with pytest.raises(ArithmeticError, match=message):
                call()
        else:
            assert math.isfinite(call()), name


def _probe_functions() -> list:
    """(name, call(probe, env, t)) for every public function that takes a probe."""
    calls = []
    for target in ("gamma", "lambda"):
        for function in (pc.purity_derivative, pc.qfi_analytic, pc.qfi_numeric, pc.cfi_closed,
                         pc.cfi_quadrature, pc.fisher_information):
            calls.append((f"{function.__name__}-{target}",
                          lambda p, e, t, f=function, g=target: f(g, p, e, t)))
    for function in (pc.covariance, pc.kernel_params, pc.position_density_variance,
                     pc.purity_approx, pc.purity_exact, pc.phi_gamma, pc.phi_lambda,
                     pc.relative_purity_rate):
        calls.append((function.__name__, function))
    calls.append(("tau0", lambda p, e, t: pc.tau0(p)))
    for function in (pc.tau_max_approx, pc.tau_max_exact, pc.tgi):
        calls.append((function.__name__, lambda p, e, t, f=function: f(p, e)))
    calls.append(("build_table1", lambda p, e, t: pc.build_table1(p, e.lam, [-50.0, 35.0, 150.0])))
    return calls


@pytest.mark.parametrize("ell0", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("call", [c for _, c in _probe_functions()],
                         ids=[name for name, _ in _probe_functions()])
def test_long_coherence_length_gives_the_coherent_value(ell0, call):
    # ell0^2 leaves the float range, so (sigma0/ell0)^2 and 1/ell0^2 are 0 or subnormal;
    # the kernel's 1/ell0^2 raised the bare (34, 'Numerical result out of range')
    e, t = env(1e15), 1e-6
    for gamma in (0.0, 3.0):
        coherent = call(pc.fullerene_probe(gamma, math.inf), e, t)
        assert repr(call(pc.fullerene_probe(gamma, ell0), e, t)) == repr(coherent)


#: the functions that build the kernel's coefficients
_KERNEL_CALLS = pytest.mark.parametrize(
    "call",
    [pc.kernel_params, lambda p, e, t: pc.cfi_closed(GAMMA, p, e, t),
     lambda p, e, t: pc.cfi_closed(LAMBDA, p, e, t)],
    ids=["kernel_params", "cfi_closed-gamma", "cfi_closed-lambda"],
)


@_KERNEL_CALLS
def test_short_coherence_length_names_its_overflow(call):
    # ell0^2 rounds to 0: 1/ell0^2 raised the bare "float division by zero"
    with pytest.raises(OverflowError, match=r"^\(1/ell0\)=1e\+162 overflows the float range: "
                       r"\(1/ell0\)\^2, in b_sq, needs \(1/ell0\) below ~1\.3e\+154 m\^-1$"):
        call(pc.fullerene_probe(ell0=1e-162), env(1e15), 1e-6)


def _wide_probe(sigma0, ell0=math.inf):
    return pc.ProbeSpec(mass=FULLERENE.mass, sigma0=sigma0, ell0=ell0)


@_KERNEL_CALLS
def test_wide_probe_names_its_sigma0_overflow(call):
    # sigma0^4 leaves the float range while the purity is still a value; the
    # bare sigma0**4 raised (34, 'Numerical result out of range')
    probe, e, t = _wide_probe(1e78), env(1e15), 1e-6
    assert pc.purity_exact(probe, e, t) == pytest.approx(1.58e-83, rel=1e-3)
    with pytest.raises(OverflowError, match=r"^sigma0=1e\+78 overflows the float range: sigma0\^4, "
                       r"in b_sq, needs sigma0 below ~1\.2e\+77 m$"):
        call(probe, e, t)
    # 1/ell0^2 is still named first
    with pytest.raises(OverflowError, match=r"^\(1/ell0\)=1e\+162 overflows"):
        call(_wide_probe(1e78, 1e-162), e, t)


@_KERNEL_CALLS
def test_narrow_probe_names_its_sigma0_underflow(call):
    # sigma0^4 rounds to 0 in a divisor: it raised the bare "float division by zero"
    with pytest.raises(ZeroDivisionError, match=r"^sigma0=1e-85 underflows the float range: "
                       r"sigma0\^4, in b_sq, a divisor, needs sigma0 above ~1\.3e-81 m$"):
        call(_wide_probe(1e-85), env(1e15), 1e-6)


@_KERNEL_CALLS
def test_narrow_probe_names_its_inverse_sigma0_fourth_overflow(call):
    # sigma0^4 is a nonzero subnormal, but 1/(4 sigma0^4) is inf: the error
    # blamed lambda and t, as "b_sq overflows the float range (lambda=..., t=...)"
    with pytest.raises(OverflowError, match=r"^sigma0=1e-80 underflows the float range: "
                       r"1/\(4 sigma0\^4\), in b_sq, needs sigma0 above ~6\.1e-78 m$"):
        call(_wide_probe(1e-80), env(1e15), 1e-6)


class TestQfiAnalytic:
    def test_no_coupling_first_term_only(self):
        # purity is gamma-independent at lam = 0, so the derivative term vanishes
        probe = FULLERENE.with_gamma(7.0)
        assert pc.purity_derivative(GAMMA, probe, env(0.0), 1e-6) == 0.0
        mu = pc.purity_exact(probe, env(0.0), 1e-6)
        phi = pc.phi_gamma(probe, env(0.0), 1e-6)
        expected = mu**4 / (2 * (1 + mu**2)) * _ADJ_TRACE_RESCALE * phi
        assert_allclose(pc.qfi_analytic(GAMMA, probe, env(0.0), 1e-6), expected, rtol=1e-14)

    def test_reference_uncorrelated(self):
        value = 1e30 * pc.qfi_analytic(LAMBDA, FULLERENE, env(1e15), 2.284e-4)
        assert abs(value - 0.247) <= 0.02 * 0.247

    def test_reference_strongly_correlated(self):
        probe = FULLERENE.with_gamma(150.0)
        value = 1e30 * pc.qfi_analytic(LAMBDA, probe, env(1e15), 8.2e-6)
        assert abs(value - 0.247) <= 0.02 * 0.247

    def test_pure_state_limit_error(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        with pytest.raises(ValueError, match="pure-state limit"):
            pc.qfi_analytic(LAMBDA, probe, env(0.0), 1e-6)


    def test_subnormal_first_term_is_rounded_once(self):
        # 8 phi / (B (B + 1)) is subnormal here: the factor 8, applied after the last
        # division, scaled that division's rounding, and gave 3.676e-321 for 3.686e-321
        probe = pc.ProbeSpec(mass=3.45e13, sigma0=2.17e-21, ell0=2.68e-72, gamma=1.56e43)
        e, t = env(2.2e-80), 3.19e-36
        exact = float(_reference(LAMBDA, probe, e, t).qfi)
        assert 0.0 < exact < sys.float_info.min
        assert abs(pc.qfi_analytic(LAMBDA, probe, e, t) - exact) <= math.ulp(0.0)

    def test_purity_fourth_power_underflow_keeps_the_first_term(self):
        # purity^4 ~ 3.5e-388 rounds to 0 while the first term, ~6e-195, is a normal
        # double; it used to come out as 0
        probe, e, t = FULLERENE.with_gamma(1e100), env(1e15), 1e-6
        assert pc.purity_exact(probe, e, t) ** 4 == 0.0
        c = model._purity_bracket_coefficients(*model._coefficient_args(probe, e))
        with mpmath.workdps(30):
            mu = mpmath.fsum(mpmath.mpf(ck) * mpmath.mpf(t) ** k for k, ck in enumerate(c)) ** -0.5
            first = mu**4 / (2 * (1 + mu**2)) * _ADJ_TRACE_RESCALE * pc.phi_gamma(probe, e, t)
        assert_allclose(pc.qfi_analytic(GAMMA, probe, e, t), float(first), rtol=1e-13)

    def test_routes_agree_where_purity_fourth_power_underflows(self):
        # lambda = 1e105: purity ~ 1e-83, so purity^4 rounds to 0; both routes used to give 0
        e, t = env(1e105), 1e-6
        analytic = pc.qfi_analytic(LAMBDA, FULLERENE, e, t)
        assert analytic >= pc.cfi_closed(LAMBDA, FULLERENE, e, t) > 0.0
        assert abs(pc.qfi_numeric(LAMBDA, FULLERENE, e, t) - analytic) <= 1e-6 * analytic

    @pytest.mark.parametrize("qfi", [pc.qfi_analytic, pc.qfi_numeric])
    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_mixed_state_at_purity_one_is_numerical_failure(self, qfi, target):
        # lambda = 1e-3 leaves 1 - purity^4 below rounding, but the state is mixed
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=2.0)
        with pytest.raises(FloatingPointError, match=r"1 - purity\^4 rounds to 0 in a mixed state "
                           r"\(purity=1\.0\)"):
            qfi(target, probe, env(1e-3), 1e-6)


class TestQfiNumeric:
    @pytest.mark.parametrize("gamma,lam,t", GRID)
    def test_matches_analytic(self, gamma, lam, t):
        probe = FULLERENE.with_gamma(gamma)
        for target in (GAMMA, LAMBDA):
            a = pc.qfi_analytic(target, probe, env(lam), t)
            n = pc.qfi_numeric(target, probe, env(lam), t)
            assert abs(a - n) <= 1e-6 * abs(a)

    def test_pure_free_evolution_finite(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=3.0)
        value = pc.qfi_numeric(GAMMA, probe, env(0.0), 1e-6)
        assert math.isfinite(value) and value > 0

    def test_step_refinement_stability(self, monkeypatch):
        probe = FULLERENE.with_gamma(5.0)
        base = pc.qfi_numeric(GAMMA, probe, env(1e20), 1e-6)
        monkeypatch.setattr(fisher, "_REL_STEP", 5e-5)
        halved = pc.qfi_numeric(GAMMA, probe, env(1e20), 1e-6)
        assert abs(base - halved) < 1e-7 * abs(base)

    def test_string_target_accepted(self):
        a = pc.qfi_numeric("lambda", FULLERENE, env(1e15), 5e-5)
        b = pc.qfi_numeric(LAMBDA, FULLERENE, env(1e15), 5e-5)
        assert a == b


#: (target, ell0, lam, gamma, t, qfi_numeric) recorded from the one-point
#: double-double tableau; the oracle must keep reproducing them bit for bit
ORACLE_PINS = [
    ("gamma", 5e-08, 0.0, 5.0, 1e-06, 0.4881210852688961),
    ("gamma", math.inf, 0.0, 3.0, 1e-06, 0.4999999999999998),
    ("gamma", 5e-08, 1e10, -50.0, 0.001, 0.15972700691229494),
    ("gamma", math.inf, 1e10, 0.0, 0.0001, 0.49999957698660297),
    ("gamma", 5e-08, 1e15, 150.0, 1e-05, 0.1706372601911446),
    ("gamma", math.inf, 1e15, -1.5, 3e-05, 0.49952471229626394),
    ("gamma", 5e-08, 1e20, 5.0, 1e-06, 0.38304102092349496),
    ("gamma", math.inf, 1e22, -10.0, 1e-07, 0.4847643520876024),
    ("lambda", 5e-08, 0.0, 5.0, 1e-06, 2.060156673881426e-40),
    ("lambda", math.inf, 1e10, 35.0, 0.001, 2.5461201083893297e-21),
    ("lambda", 5e-08, 1e10, -0.5, 0.0001, 2.3845080288089383e-31),
    ("lambda", math.inf, 1e15, 0.0, 0.0002284, 2.510406670981851e-31),
    ("lambda", 5e-08, 1e15, 150.0, 8.2e-06, 2.4756510698742706e-31),
    ("lambda", math.inf, 1e20, -50.0, 1e-05, 4.999762799952857e-41),
    ("lambda", 5e-08, 1e22, 10.0, 1e-07, 1.279430480948889e-45),
    ("lambda", math.inf, 1e20, 0.01, 1e-06, 1.0216364177279271e-42),
]

#: each axis of an array oracle call; lambda starts at 0, where the lambda
#: target of a fully coherent probe meets the pure-state limit
ORACLE_AXES = {
    "gamma": [float(g) for g in np.linspace(-150.0, 150.0, 31)],
    "lam": [0.0] + [float(v) for v in np.logspace(10, 22, 25)],
    "t": [float(v) for v in np.logspace(-7, -3, 31)],
}


def _outcome(call):
    try:
        return call()
    except (pc.ConvergenceError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestQfiNumericPins:
    @pytest.mark.parametrize("target,ell0,lam,gamma,t,expected", ORACLE_PINS)
    def test_pinned_value(self, target, ell0, lam, gamma, t, expected):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, ell0=ell0, gamma=gamma)
        assert pc.qfi_numeric(target, probe, env(lam), t) == expected

    @pytest.mark.parametrize("axis", sorted(ORACLE_AXES))
    @pytest.mark.parametrize("ell0", [5e-08, math.inf])
    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_array_call_equals_point_calls(self, target, ell0, axis):
        from pmcorr.fisher import _qfi_numeric_points

        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, ell0=ell0, gamma=5.0)
        fixed = {"gamma": 5.0, "lam": 1e15, "t": 2e-5}
        values = ORACLE_AXES[axis]
        points = [{**fixed, axis: v} for v in values]
        per_point = [
            _outcome(lambda p=p: pc.qfi_numeric(target, probe.with_gamma(p["gamma"]), env(p["lam"]), p["t"]))
            for p in points
        ]
        whole = _outcome(lambda: _qfi_numeric_points(target, probe, **{**fixed, axis: values}))
        failures = [o for o in per_point if isinstance(o, tuple)]
        # a failing axis raises what its lowest failing point raises on its own
        assert whole == (failures[0] if failures else per_point)
        if not failures:
            assert all(type(v) is float for v in whole)

    def test_negative_value_is_a_named_failure(self):
        # at gamma = 1e16 and 1e20 the adjugate trace cancels to rounding noise just
        # inside _MAX_TRACE_CANCELLATION, and qfi printed -0.0247 and -47.95 with exit 0
        e, t = env(1e15), 1e-6
        messages = {
            gamma: f"Gaussian QFI assembles to {value} < 0: its adjugate trace {trace} is "
                   f"rounding noise beside terms of {terms}"
            for gamma, value, trace, terms in [(1e16, "-2.474e-02", "-1.417e+49", "8.346e+64"),
                                               (1e20, "-4.795e+01", "-2.747e+68", "8.346e+80")]
        }
        for gamma, message in messages.items():
            with pytest.raises(pc.ConvergenceError) as error:
                pc.qfi_numeric(GAMMA, FULLERENE.with_gamma(gamma), e, t)
            assert str(error.value) == message
        # along an axis, the lowest failing point's error
        with pytest.raises(pc.ConvergenceError) as error:
            fisher._qfi_numeric_points(GAMMA, FULLERENE, [3.0, 1e20, 1e16], 1e15, t)
        assert str(error.value) == messages[1e20]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_numeric_across_envelope(self, seed):
        # 1,500 draws over the whole envelope, both targets: the oracle matches
        # qfi_analytic to 1e-6 or raises a named error, such as the cancelled
        # adjugate trace that once returned a negative QFI for the gamma target
        rng = np.random.default_rng(seed)
        wrong, raised = [], 0
        for _ in range(1500):
            lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 30.0)
            gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
            t = 10.0 ** rng.uniform(-12.0, 0.0)
            probe = pc.fullerene_probe(gamma=float(gamma), ell0=(5e-8, math.inf)[rng.integers(2)])
            for target in (GAMMA, LAMBDA):
                try:
                    numeric = pc.qfi_numeric(target, probe, env(lam), t)
                except (pc.ConvergenceError, ArithmeticError, ValueError):
                    raised += 1
                    continue
                analytic = pc.qfi_analytic(target, probe, env(lam), t)
                if not abs(numeric - analytic) <= 1e-6 * max(abs(numeric), abs(analytic)):
                    wrong.append((target.value, lam, probe.gamma, t, probe.ell0, numeric, analytic))
        assert wrong == []
        assert raised < 600  # most draws give a value


def _bits(values) -> list:
    """The raw bits of floats, arrays or (hi, lo) pairs of them, so -0.0 and NaNs are told apart."""
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _stencil_draws(seed: int, n: int) -> list:
    """(probe, lam, t) over the envelope, as in test_numeric_across_envelope."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 30.0)
        gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
        t = 10.0 ** rng.uniform(-12.0, 0.0)
        probe = pc.fullerene_probe(gamma=float(gamma), ell0=(5e-8, math.inf)[rng.integers(2)])
        draws.append((probe, float(lam), float(t)))
    return draws


def _all_monomials(probe, gamma, lam, t) -> list:
    args = (probe.mass, probe.sigma0, probe.coherence_ratio_sq, t)
    return (model._covariance_dd(model._covariance_factors(*args), gamma, lam)
            + model._purity_bracket_dd(model._purity_bracket_factors(*args), gamma, lam))


class TestStencilClasses:
    """The oracles build a target's moving monomials per stencil point and the rest once."""

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_monomials_outside_the_class_are_free_of_the_target(self, target):
        # at x0 - h, x0 and x0 + h every monomial outside the class is bit for bit the
        # same, and every one inside it moves at some draw
        moving, moved = fisher._MOVING[target], set()
        for probe, lam, t in _stencil_draws(11, 300):
            x0 = probe.gamma if target is GAMMA else lam
            h = fisher._REL_STEP * max(abs(x0), fisher._SCALE_FLOOR[target])
            lists = [
                _all_monomials(probe, x, lam, t) if target is GAMMA
                else _all_monomials(probe, probe.gamma, x, t)
                for x in (x0 - h, x0, x0 + h)
            ]
            for k in range(fisher._N_TERMS):
                low, centre, high = (_bits(terms[k]) for terms in lists)
                if k not in moving:
                    assert low == centre == high, (k, probe, lam, t)
                elif low != high:
                    moved.add(k)
        assert moved == set(moving)

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_one_call_stencil_is_the_full_lists_entries(self, target):
        # one builder call over a list of abscissae gives, per abscissa, the class's
        # entries of the full lists at that abscissa, bit for bit
        moving = fisher._MOVING[target]
        draws = _stencil_draws(12, 200)
        columns = [[probe.gamma for probe, _, _ in draws], [lam for _, lam, _ in draws],
                   [t for _, _, t in draws]]
        points = [(probe.gamma, lam, t) for probe, lam, t in draws]
        # one point at a time, then all of them along an axis as numpy arrays
        for gamma, lam, t in points + [tuple(np.array(c) for c in columns)]:
            args = (FULLERENE.mass, FULLERENE.sigma0, FULLERENE.coherence_ratio_sq, t)
            fc, fb = model._covariance_factors(*args), model._purity_bracket_factors(*args)
            full = model._covariance_dd(fc, gamma, lam) + model._purity_bracket_dd(fb, gamma, lam)
            assert _bits(full) == _bits(_all_monomials(FULLERENE, gamma, lam, t))
            assert _bits(model._covariance_dd(fc, gamma, lam, sxx_only=True)) == _bits(full[:5])
            x0 = gamma if target is GAMMA else lam
            h = fisher._REL_STEP * np.maximum(abs(x0), fisher._SCALE_FLOOR[target])
            xs = [x0 + h, x0 - h / 4.0, x0]

            def at(x):
                return (x, lam) if target is GAMMA else (gamma, x)

            part = [c + b for c, b in zip(model._covariance_dd(fc, *at(xs), target.value),
                                          model._purity_bracket_dd(fb, *at(xs), target.value))]
            sxx = model._covariance_dd(fc, *at(xs), target.value, sxx_only=True)
            assert len(part) == len(sxx) == len(xs)
            for x, terms, sxx_terms in zip(xs, part, sxx):
                full = model._covariance_dd(fc, *at(x)) + model._purity_bracket_dd(fb, *at(x))
                assert _bits(terms) == _bits([full[k] for k in moving])
                assert _bits(sxx_terms) == _bits([full[k] for k in moving if k < 5])

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_non_finite_centre_monomial_fails_its_point(self, target):
        error, message = OverflowError, {
            # lambda^2's bracket monomial, free of gamma, is not finite: the oracle names it
            GAMMA: r"^a monomial free of gamma overflows the float range at t/tau0=1\.44446e\+79: "
                   r"the oracle cannot difference a covariance or purity-bracket monomial that is "
                   r"not finite \(gamma=-1e\+23, lambda=1e\+63 m\^-2 s\^-1, t=1e\+73 s\)$",
            # the monomials that leave the range move with lambda: named too, where
            # their NaN differences would only fail the convergence test
            LAMBDA: r"^a monomial moving with lambda overflows the float range at "
                    r"t/tau0=1\.44446e\+79: the oracle cannot difference a covariance or "
                    r"purity-bracket monomial that is not finite \(gamma=-1e\+23, lambda=1e\+63 "
                    r"m\^-2 s\^-1, t=1e\+73 s\)$",
        }[target]
        probe = pc.fullerene_probe(gamma=-1e23, ell0=5e-8)
        with pytest.raises(error, match=message):
            pc.qfi_numeric(target, probe, env(1e63), 1e73)
        with pytest.raises(error, match=message):
            fisher._qfi_numeric_points(target, probe, [-1e23, -1e23], 1e63, 1e73)
        # along a time axis the first point has a value and the second fails as on its own
        assert math.isfinite(pc.qfi_numeric(target, probe, env(1e63), 1e-6))
        with pytest.raises(error, match=message):
            fisher._qfi_numeric_points(target, probe, -1e23, 1e63, [1e-6, 1e73])
        with pytest.raises(error, match=message):
            fisher._qfi_numeric_points(target, probe, -1e23, 1e63, [1e73, 1e-6])

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_oracles_build_the_full_lists_once(self, target, monkeypatch):
        calls = []
        for name in ("_covariance_dd", "_purity_bracket_dd"):
            def spy(f, gamma, lam, moving=None, build=getattr(model, name), name=name, **kw):
                # a moving call is recorded with its number of abscissae
                calls.append((name, moving, moving and len(gamma if moving == "gamma" else lam)))
                return build(f, gamma, lam, moving, **kw)

            for module in (model, fisher):  # every build, in either module
                monkeypatch.setattr(module, name, spy)
        probe = FULLERENE.with_gamma(5.0)
        pc.qfi_numeric(target, probe, env(1e15), 2e-5)
        # the centre's full lists, then the class at the ten stencil points in one call each
        stencil = 2 * fisher._LEVELS
        assert calls == [
            ("_covariance_dd", None, None),
            ("_purity_bracket_dd", None, None),
            ("_covariance_dd", target.value, stencil),
            ("_purity_bracket_dd", target.value, stencil),
        ]
        calls.clear()
        pc.cfi_quadrature(target, probe, env(1e15), 2e-5)
        # sxx once at theta, which also gives V, then the class at the eight steps in one call
        assert calls == [("_covariance_dd", None, None), ("_covariance_dd", target.value, 8)]
        # where a monomial free of the target is not finite, no stencil is built: at the
        # NaN reproducer for gamma (its lambda^2 term), at gamma^2 (t/tau0)^2 for lambda
        gamma, lam, t = (-1e23, 1e63, 1e73) if target is GAMMA else (1e150, 1e15, 1.0)
        calls.clear()
        with pytest.raises(OverflowError, match=f"^a monomial free of {target.value} overflows"):
            pc.qfi_numeric(target, pc.fullerene_probe(gamma=gamma, ell0=5e-8), env(lam), t)
        assert calls == [("_covariance_dd", None, None), ("_purity_bracket_dd", None, None)]
        # nor where one moving with it is not finite at the centre: gamma^2 (t/tau0)^2
        # for gamma, lambda^2 (split past the float range) for lambda
        gamma, lam, t = (1e150, 1e15, 1.0) if target is GAMMA else (0.0, 1e152, 1e-6)
        calls.clear()
        with pytest.raises(OverflowError, match=f"^a monomial moving with {target.value} overflows"):
            pc.qfi_numeric(target, pc.fullerene_probe(gamma=gamma, ell0=5e-8), env(lam), t)
        assert calls == [("_covariance_dd", None, None), ("_purity_bracket_dd", None, None)]

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_tableau_runs_once_per_moving_monomial(self, target, monkeypatch):
        calls = []

        def spy(rows, inv_widths, tableau=_dd.dd_richardson):
            calls.append((rows, inv_widths))
            return tableau(rows, inv_widths)

        monkeypatch.setattr(_dd, "dd_richardson", spy)
        probe, e, t = FULLERENE.with_gamma(5.0), env(1e15), 2e-5
        pc.qfi_numeric(target, probe, e, t)
        # one call, with a row of floats per moving monomial: 7 for gamma, 8 for lambda
        (rows, inv_widths), = calls
        assert len(rows) == len(fisher._MOVING[target])
        stencil = 2 * fisher._LEVELS
        assert len(inv_widths) == fisher._LEVELS and all(len(row) == stencil for row in rows)
        assert all(type(v) is float for v in [*inv_widths, *(v for row in rows for p in row for v in p)])
        # along an axis one call runs them all, as one row of (monomial, point) arrays
        calls.clear()
        fisher._qfi_numeric_points(target, probe, 5.0, 1e15, [1e-5, 2e-5, 3e-5])
        (rows, inv_widths), = calls
        assert len(rows) == 1 and len(rows[0]) == stencil
        shape = (len(fisher._MOVING[target]), 3)
        assert all(isinstance(v, np.ndarray) and v.shape == shape for p in rows[0] for v in p)


#: (target, ell0, lam, gamma, t, quadrature, gaussian_identity) recorded from
#: cfi_quadrature; the oracle must keep reproducing them bit for bit
QUADRATURE_PINS = [
    ("gamma", 5e-08, 1e15, 5.0, 1e-05, 0.07184621954790905, 0.07184621954790914),
    ("gamma", math.inf, 1e20, -10.0, 1e-06, 0.022557772739499105, 0.02255777273949911),
    ("gamma", math.inf, 0.0, 3.0, 1e-06, 0.12733638542791612, 0.1273363854279161),
    ("lambda", 5e-08, 1e15, 0.0, 5e-05, 7.476948993986926e-42, 7.476948993986916e-42),
    ("lambda", math.inf, 1e10, 35.0, 0.001, 2.1888228555499186e-45, 2.1888228555499167e-45),
    ("lambda", 5e-08, 1e22, -50.0, 1e-07, 9.543669362471981e-54, 9.543669362471985e-54),
]


class TestCfi:
    def test_gamma_zero_crossing(self):
        t = 1e-6
        probe = FULLERENE.with_gamma(-pc.tau0(FULLERENE) / t)
        assert pc.cfi_closed(GAMMA, probe, env(1e15), t) < 1e-18

    def test_lambda_sign_blind_and_positive(self):
        # the two correlations below flip the sign of m/(hbar t) + gamma/sigma0^2
        t = 1e-6
        tau = pc.tau0(FULLERENE)
        g1 = 3.0
        g2 = -2 * tau / t - g1
        e = env(1e15)
        f1 = pc.cfi_closed(LAMBDA, FULLERENE.with_gamma(g1), e, t)
        f2 = pc.cfi_closed(LAMBDA, FULLERENE.with_gamma(g2), e, t)
        assert f1 > 0
        assert_allclose(f1, f2, rtol=1e-12)

    @pytest.mark.parametrize("gamma,lam,t", GRID)
    def test_closed_matches_quadrature(self, gamma, lam, t):
        probe = FULLERENE.with_gamma(gamma)
        for target in (GAMMA, LAMBDA):
            closed = pc.cfi_closed(target, probe, env(lam), t)
            quad = pc.cfi_quadrature(target, probe, env(lam), t)
            scale = max(abs(closed), abs(quad.quadrature))
            assert abs(closed - quad.quadrature) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "lam,gamma,t,ell0",
        [
            (2.41e29, 0.0, 2.14e-5, math.inf),
            (2.07e26, 1.53e-3, 6.65e-4, 5e-8),
            (1.55e22, 0.0, 4.23e-3, 5e-8),
            (7.30e20, 0.0, 1.91e-2, 5e-8),
            (1.38e4, 0.0, 0.443, math.inf),
            # a float density difference kept fewer than ~7 digits at these
            (5.69e28, 0.0, 4.16e-3, math.inf),
            (6.53e24, 0.0, 68.1e-3, 5e-8),
            (2.29e21, 0.0, 0.923, 5e-8),
            # ... and was 2.6e-2 off here, under a finite-difference noise floor
            (2.14e28, 0.0, 0.746, math.inf),
            # gamma +- h rounds to ~1e-9 of gamma, the limit of this point
            (1.64e28, 8.9e-3, 0.811, 5e-8),
        ],
    )
    def test_quadrature_deep_in_envelope(self, lam, gamma, t, ell0):
        # t/tau0 from 30 to 1.3e6: the density changes by as little as 1e-9
        # across the stencil, which the double-double difference still resolves
        probe = pc.fullerene_probe(gamma=gamma, ell0=ell0)
        quad = pc.cfi_quadrature(GAMMA, probe, env(lam), t)
        closed = pc.cfi_closed(GAMMA, probe, env(lam), t)
        for value in (quad.quadrature, quad.gaussian_identity):
            assert abs(value - closed) <= 1e-9 * closed

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_quadrature_resolves_tiny_density_change(self, target):
        # at lam = 1e150 the step changes V by ~1e-67 relative (gamma target),
        # far below float resolution; cfi_closed overflows squaring b_sq here
        quad = pc.cfi_quadrature(target, FULLERENE, env(1e150), 2e-5)
        assert 0.0 < quad.gaussian_identity < 1e-260
        assert abs(quad.quadrature - quad.gaussian_identity) <= 1e-12 * quad.gaussian_identity

    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_quadrature_overflowed_variance_raises(self, target):
        # at mass 1e-170, t/tau0 ~ 1.7e146: the readout variance is not a float, and
        # the quadrature raises rather than returning the NaN it would be built from
        probe = pc.ProbeSpec(mass=1e-170, sigma0=FULLERENE.sigma0, ell0=FULLERENE.ell0)
        with pytest.raises(OverflowError, match="readout variance overflows the float range"):
            pc.cfi_quadrature(target, probe, env(1e15), 1e-6)

    @pytest.mark.parametrize(
        "target,message",
        [
            (GAMMA, r"quadrature step h=4\.32687e\+219 overflows the float range: "
                    r"\(gamma\+-h\)\^2 needs \|gamma\|\+h below ~1\.3e\+154"),
            (LAMBDA, r"mass=1e\+200 overflows the float range: mass\^2 needs mass below "
                     r"~1\.3e\+154 kg"),
        ],
        ids=["gamma", "lambda"],
    )
    def test_quadrature_huge_mass_named(self, target, message):
        # at mass 1e200, t/tau0 ~ 1.7e-224: V barely depends on gamma, so the
        # gamma step leaves the float range, and the lambda route squares the mass
        probe = pc.ProbeSpec(mass=1e200, sigma0=FULLERENE.sigma0, ell0=FULLERENE.ell0)
        with pytest.raises(OverflowError, match=message):
            pc.cfi_quadrature(target, probe, env(1e15), 1e-6)

    @pytest.mark.parametrize("target,ell0,lam,gamma,t,quadrature,identity", QUADRATURE_PINS)
    def test_quadrature_pinned_value(self, target, ell0, lam, gamma, t, quadrature, identity):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, ell0=ell0, gamma=gamma)
        assert pc.cfi_quadrature(target, probe, env(lam), t) == pc.CfiQuadrature(quadrature, identity)

    def test_hermite_rules_are_hermgauss(self):
        # the hard-coded rules are numpy's, float for float
        from numpy.polynomial.hermite import hermgauss

        for n in fisher._RULES:
            half_nodes, half_weights = fisher._HERMITE_HALVES[n]
            nodes = [-u for u in reversed(half_nodes)] + list(half_nodes)
            weights = list(reversed(half_weights)) + list(half_weights)
            expected_nodes, expected_weights = hermgauss(n)
            assert nodes == expected_nodes.tolist()
            assert weights == expected_weights.tolist()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_quadrature_across_envelope(self, seed):
        # 3,000 draws over the whole envelope, both targets: the quadrature
        # never raises and matches cfi_closed to 1e-6 unless both lie under
        # the cancellation floor of the identity's dV
        rng = np.random.default_rng(seed)
        failures = []
        for _ in range(3000):
            lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 30.0)
            gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
            t = 10.0 ** rng.uniform(-12.0, 0.0)
            probe = pc.fullerene_probe(gamma=float(gamma), ell0=(5e-8, math.inf)[rng.integers(2)])
            e = env(lam)
            th = t / pc.tau0(probe)
            V = pc.position_density_variance(probe, e, t)
            dv_terms = {
                GAMMA: probe.sigma0**2 * (th + abs(probe.gamma) * th**2),
                LAMBDA: (2.0 / 3.0) * HBAR**2 * t**3 / probe.mass**2,
            }
            for target in (GAMMA, LAMBDA):
                point = (target.value, lam, probe.gamma, t, probe.ell0)
                try:
                    quad = pc.cfi_quadrature(target, probe, e, t).quadrature
                except pc.ConvergenceError as exc:
                    failures.append((point, str(exc)))
                    continue
                closed = pc.cfi_closed(target, probe, e, t)
                scale = max(abs(quad), closed)
                floor = (1e3 * 2.3e-16 * dv_terms[target]) ** 2 / (2.0 * V**2)
                if abs(quad - closed) > 1e-6 * scale and scale > floor:
                    failures.append((point, quad, closed))
        assert failures == []

    def test_dual_oracle_agreement(self):
        quad = pc.cfi_quadrature(LAMBDA, FULLERENE, env(1e15), 5e-5)
        assert abs(quad.quadrature - quad.gaussian_identity) <= 1e-7 * quad.gaussian_identity

    def test_quadrature_at_gamma_zero_crossing(self):
        t = 1e-6
        probe = FULLERENE.with_gamma(-pc.tau0(FULLERENE) / t)
        quad = pc.cfi_quadrature(GAMMA, probe, env(1e15), t)
        assert abs(quad.quadrature) <= 1e-10


@pytest.mark.parametrize(
    "name",
    ["phi_gamma", "phi_lambda", "purity_derivative", "qfi_analytic", "qfi_numeric", "cfi_closed",
     "cfi_quadrature"],
)
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_rejects_non_finite_time(name, t):
    func = getattr(pc, name)
    args = (FULLERENE, env(1e15), t)
    with pytest.raises(ValueError, match="finite"):
        func(*args) if name.startswith("phi_") else func(GAMMA, *args)


class TestCramerRao:
    def test_unit(self):
        assert pc.cramer_rao_bound(1.0, 1) == 1.0

    def test_direct(self):
        assert_allclose(pc.cramer_rao_bound(4.0, 25), 0.1, rtol=1e-15)

    def test_repeat_scaling(self):
        assert_allclose(
            pc.cramer_rao_bound(2.0, 400), pc.cramer_rao_bound(2.0, 100) / 2.0, rtol=1e-15
        )

    def test_non_informative(self):
        with pytest.raises(ValueError, match="non-informative"):
            pc.cramer_rao_bound(0.0, 10)
        with pytest.raises(ValueError):
            pc.cramer_rao_bound(1.0, 0)

    @pytest.mark.parametrize("fisher_info,n_repeats", [(math.nan, 10), (math.inf, 10),
                                                       (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_non_finite(self, fisher_info, n_repeats):
        with pytest.raises(ValueError, match="must be finite"):
            pc.cramer_rao_bound(fisher_info, n_repeats)


class TestInvariants:
    @pytest.mark.parametrize("gamma,lam,t", GRID)
    def test_qfi_dominates_cfi(self, gamma, lam, t):
        probe = FULLERENE.with_gamma(gamma)
        for target in (GAMMA, LAMBDA):
            q = pc.qfi_analytic(target, probe, env(lam), t)
            c = pc.cfi_closed(target, probe, env(lam), t)
            assert q >= c - 1e-9 * q

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 10.0, 150.0])
    def test_phi_nonnegative(self, gamma):
        probe = FULLERENE.with_gamma(gamma)
        for lam in (0.0, 1e15, 1e22):
            assert pc.phi_gamma(probe, env(lam), 1e-5) >= 0.0
            assert pc.phi_lambda(probe, env(lam), 1e-5) >= 0.0

    def test_phi_monotone_on_positive_quadrant(self):
        gammas = [0.0, 1.0, 5.0, 20.0, 100.0]
        lams = [0.0, 1e13, 1e16, 1e20]
        times = [1e-7, 1e-6, 1e-5, 1e-4]
        for phi in (pc.phi_gamma, pc.phi_lambda):
            for lam in lams:
                for t in times:
                    vals = [phi(FULLERENE.with_gamma(g), env(lam), t) for g in gammas]
                    assert all(b >= a for a, b in zip(vals, vals[1:]))
            for g in gammas:
                probe = FULLERENE.with_gamma(g)
                for t in times:
                    vals = [phi(probe, env(lam), t) for lam in lams]
                    assert all(b >= a for a, b in zip(vals, vals[1:]))
                for lam in lams:
                    vals = [phi(probe, env(lam), t) for t in times]
                    assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_high_noise_cfi_comparable_to_qfi(self):
        # the position readout loses all sensitivity at gamma = -tau0/t, where the
        # closed-form CFI has an exact zero; the comparability statement is tested
        # outside a +-1.5 neighborhood of that crossing
        t, lam = 1e-6, 1e23
        crossing = -pc.tau0(FULLERENE) / t
        for g in np.linspace(-10.0, 10.0, 81):
            if abs(g - crossing) < 1.5:
                continue
            probe = FULLERENE.with_gamma(float(g))
            ratio = pc.cfi_closed(GAMMA, probe, env(lam), t) / pc.qfi_analytic(
                GAMMA, probe, env(lam), t
            )
            assert ratio > 0.5


class TestFisherResult:
    @pytest.mark.parametrize("target", [GAMMA, LAMBDA])
    def test_analytic_fields_are_the_one_point_functions(self, target):
        # one analytic row gives the QFI, the purity and its derivative, bit for
        # bit what the three public functions give
        checked = 0
        for probe, lam, t in _stencil_draws(41, 300):
            e = env(lam)
            try:
                res = pc.fisher_information(target, probe, e, t)
            except (pc.ConvergenceError, ArithmeticError, ValueError):
                continue
            checked += 1
            assert _bits([res.qfi_analytic, res.purity, res.purity_derivative]) == _bits([
                pc.qfi_analytic(target, probe, e, t), pc.purity_exact(probe, e, t),
                pc.purity_derivative(target, probe, e, t),
            ])
        assert checked > 150

    def test_bundle_consistency(self):
        probe = FULLERENE.with_gamma(2.0)
        e = env(1e15)
        res = pc.fisher_information(LAMBDA, probe, e, 5e-5)
        assert res.qfi_analytic == pc.qfi_analytic(LAMBDA, probe, e, 5e-5)
        assert res.purity == pc.purity_exact(probe, e, 5e-5)
        assert res.qfi_analytic >= res.cfi_closed
        assert abs(res.qfi_analytic - res.qfi_numeric) <= 1e-6 * res.qfi_analytic
        assert abs(res.cfi_closed - res.cfi_quadrature) <= 1e-6 * res.cfi_closed
