"""Coupling-temperature map, purity-rate maximizer, and the gain table."""
import itertools
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import _reference
import pmcorr as pc
from pmcorr import thermometry
from pmcorr.constants import (
    AIR_MOLECULE_MASS,
    AIR_NUMBER_DENSITY,
    FULLERENE_MOLECULE_SIZE,
    HBAR,
    K_BOLTZMANN,
)
from pmcorr.fisher import ConvergenceError

FULLERENE = pc.fullerene_probe()
ENV15 = pc.EnvironmentSpec(lam=1e15)
AIR = (AIR_MOLECULE_MASS, AIR_NUMBER_DENSITY, FULLERENE_MOLECULE_SIZE)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = sys.float_info.epsilon


def scan_knee(probe, env, lo=1e-10, hi=1.0, per_decade=200):
    """Knee by brute force, independent of the closed form.

    Samples the purity rate on a log grid, keeps the interior local maxima,
    refines each by golden-section search in log t and returns the one with
    the largest rate.
    """
    logs = np.linspace(math.log(lo), math.log(hi), int(per_decade * math.log10(hi / lo)) + 1)

    def rate(log_t):
        return pc.relative_purity_rate(probe, env, math.exp(log_t))

    r = [rate(x) for x in logs]
    best = None
    for k in range(1, len(logs) - 1):
        if not r[k - 1] < r[k] >= r[k + 1]:
            continue
        a, b = logs[k - 1], logs[k + 1]
        while b - a > 1e-11:
            c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
            if rate(c) >= rate(d):
                b = d
            else:
                a = c
        x = 0.5 * (a + b)
        if best is None or rate(x) > rate(best):
            best = x
    return math.exp(best)


class TestConversions:
    def test_cold_bath_reference(self):
        lam = pc.lambda_from_temperature(0.442, *AIR)
        assert abs(lam - 1.0e15) <= 0.02 * 1.0e15

    def test_room_temperature_dilute(self):
        lam = pc.lambda_from_temperature(300.0, AIR_MOLECULE_MASS, 1.8e8, FULLERENE_MOLECULE_SIZE)
        assert abs(lam - 3.2e15) <= 0.03 * 3.2e15

    @pytest.mark.parametrize(
        "lam,kelvin", [(1e19, 205.0), (1e20, 952.0), (1e22, 20.5e3), (1e23, 95.2e3)]
    )
    def test_temperature_references(self, lam, kelvin):
        assert abs(pc.temperature_from_lambda(lam, *AIR) - kelvin) <= 0.02 * kelvin

    def test_zero_temperature(self):
        assert pc.lambda_from_temperature(0.0, *AIR) == 0.0
        assert pc.temperature_from_lambda(0.0, *AIR) == 0.0

    def test_round_trip(self):
        lam = pc.lambda_from_temperature(77.0, *AIR)
        assert_allclose(pc.temperature_from_lambda(lam, *AIR), 77.0, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            pc.lambda_from_temperature(-1.0, *AIR)
        with pytest.raises(ValueError):
            pc.temperature_from_lambda(-1.0, *AIR)
        with pytest.raises(ValueError):
            pc.lambda_from_temperature(300.0, 0.0, 1e12, 7e-10)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            pc.lambda_from_temperature(value, *AIR)
        with pytest.raises(ValueError, match="finite"):
            pc.temperature_from_lambda(value, *AIR)

    @pytest.mark.parametrize("function", [pc.lambda_from_temperature, pc.temperature_from_lambda])
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["m_air", "number_density", "molecule_size"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_gas_input_rejected(self, function, index, value):
        # an infinite number density gave nan (lambda) or 0.0 (temperature)
        gas = list(AIR)
        gas[index] = value
        with pytest.raises(ValueError, match=r"^m_air, number_density and molecule_size must be "
                           r"positive and finite, got "):
            function(1.0, *gas)

    @pytest.mark.parametrize("temperature", [1e-185, 1e-190, 1e-200])
    def test_coupling_accurate_where_the_thermal_power_is_subnormal(self, temperature):
        # (k_B T)^1.5 is subnormal or 0 while the coupling is a normal double: the
        # plain product lost 3e-13, 4e-5 and all of it (0.0)
        assert (K_BOLTZMANN * temperature) ** 1.5 < sys.float_info.min
        lam = pc.lambda_from_temperature(temperature, *AIR)
        m_air, density, size = (mpmath.mpf(v) for v in AIR)
        with mpmath.workdps(50):
            exact = (8 / (3 * mpmath.mpf(HBAR) ** 2) * mpmath.sqrt(2 * mpmath.pi * m_air)
                     * (mpmath.mpf(K_BOLTZMANN) * mpmath.mpf(temperature)) ** 1.5
                     * density * size**2)
            assert abs(lam - exact) <= EPS * exact

    def test_coupling_underflows_with_itself(self):
        assert pc.lambda_from_temperature(1e-250, *AIR) == 0.0

    def test_coupling_is_the_plain_product_where_it_stays_normal(self):
        rng = random.Random(11)
        for _ in range(500):
            temperature = 10 ** rng.uniform(-150, 150)
            gas = (10 ** rng.uniform(-27, -24), 10 ** rng.uniform(10, 30),
                   10 ** rng.uniform(-11, -8))
            factors = (8.0 / (3.0 * HBAR**2), math.sqrt(2.0 * math.pi * gas[0]),
                       (K_BOLTZMANN * temperature) ** 1.5, gas[1], gas[2] ** 2)
            partial = list(itertools.accumulate(factors, operator.mul))
            assert all(sys.float_info.min <= p < math.inf for p in factors + tuple(partial))
            assert pc.lambda_from_temperature(temperature, *gas) == partial[-1]

    @pytest.mark.parametrize(
        "lam,gas",
        [(1e-255, AIR), (1e-260, AIR), (1e-300, AIR), (5e-324, AIR),
         (1e15, (AIR_MOLECULE_MASS, 1e300, 1e10)), (1e30, (AIR_MOLECULE_MASS, 1e-200, 1e-100))],
    )
    def test_temperature_accurate_where_the_base_leaves_the_normal_range(self, lam, gas):
        # the base of the 2/3 power, or the gas product under it, is subnormal, 0
        # or inf while T is a normal double: the plain expression was 2.4% off at
        # lam = 1e-255, gave 0.0 from ~1e-260 down and where the gas product
        # overflowed, and divided by zero where it underflowed
        kelvin = pc.temperature_from_lambda(lam, *gas)
        m_air, density, size = (mpmath.mpf(v) for v in gas)
        with mpmath.workdps(50):
            base = 3 * mpmath.mpf(HBAR) ** 2 * mpmath.mpf(lam) / (
                8 * mpmath.sqrt(2 * mpmath.pi * m_air) * density * size**2)
            exact = base ** (mpmath.mpf(2) / 3) / mpmath.mpf(K_BOLTZMANN)
            assert abs(kelvin - exact) <= 4 * EPS * exact

    def test_temperature_within_two_ulp_of_mpmath(self):
        # the plain base ** (2/3) took the rounded exponent 2/3 on a base of up to
        # ~1e300, and was off by up to ~111 ulp; the significand route stays near 1 ulp
        rng = random.Random(12)
        worst = 0.0
        for _ in range(1000):
            lam = 10 ** rng.uniform(-300, 300)
            gas = (10 ** rng.uniform(-27, -24), 10 ** rng.uniform(10, 30),
                   10 ** rng.uniform(-11, -8))
            kelvin = pc.temperature_from_lambda(lam, *gas)
            m_air, density, size = (mpmath.mpf(v) for v in gas)
            with mpmath.workdps(50):
                base = 3 * mpmath.mpf(HBAR) ** 2 * mpmath.mpf(lam) / (
                    8 * mpmath.sqrt(2 * mpmath.pi * m_air) * density * size**2)
                exact = base ** (mpmath.mpf(2) / 3) / mpmath.mpf(K_BOLTZMANN)
                worst = max(worst, float(abs(kelvin - exact) / exact))
        assert worst <= 2 * EPS

    def test_temperature_overflow_named(self):
        with pytest.raises(OverflowError, match=r"^the temperature at lam=1e\+30 m\^-2 s\^-1 "
                           r"overflows the float range: it exceeds ~1\.8e\+308 K$"):
            pc.temperature_from_lambda(1e30, AIR_MOLECULE_MASS, 1e-300, 1e-150)

    def test_thermal_power_overflow_named(self):
        with pytest.raises(OverflowError, match=r"temperature=1e\+300 K overflows the float range: "
                           r"\(k_B\*T\)\^1\.5 needs T below ~2\.3e\+228 K"):
            pc.lambda_from_temperature(1e300, *AIR)

    def test_coupling_overflow_named(self):
        # (k_B T)^1.5 is finite here, but the coupling's product is not
        with pytest.raises(OverflowError, match=r"the coupling at temperature=1e\+220 K overflows"):
            pc.lambda_from_temperature(1e220, *AIR)

    def test_coupling_finite_past_an_overflowing_partial_product(self):
        # (k_B T)^1.5 and the coupling are finite, but the product's third
        # partial product overflowed: `convert --to-lambda 1e190` exited 3
        lam = pc.lambda_from_temperature(1e190, *AIR)
        m_air, density, size = (mpmath.mpf(v) for v in AIR)
        with mpmath.workdps(50):
            exact = (8 / (3 * mpmath.mpf(HBAR) ** 2) * mpmath.sqrt(2 * mpmath.pi * m_air)
                     * (mpmath.mpf(K_BOLTZMANN) * mpmath.mpf(1e190)) ** 1.5 * density * size**2)
            assert abs(lam - exact) <= 4 * EPS * exact
        assert lam == pytest.approx(3.378e300, rel=1e-3)
        with pytest.raises(OverflowError, match=r"^the coupling at temperature=1e\+196 K "
                           r"overflows the float range: it exceeds ~1\.8e\+308 m\^-2 s\^-1$"):
            pc.lambda_from_temperature(1e196, *AIR)


class TestDecoherenceTime:
    def test_reference(self):
        assert_allclose(pc.decoherence_time(1e15, 1e-7), 0.1, rtol=1e-15)

    def test_distance_quadratic(self):
        assert_allclose(
            pc.decoherence_time(1e15, 2e-7), pc.decoherence_time(1e15, 1e-7) / 4.0, rtol=1e-15
        )

    def test_coupling_linear(self):
        assert_allclose(
            pc.decoherence_time(2e15, 1e-7), pc.decoherence_time(1e15, 1e-7) / 2.0, rtol=1e-15
        )

    def test_no_decoherence_signal(self):
        assert pc.decoherence_time(0.0, 1e-7) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            pc.decoherence_time(-1.0, 1e-7)
        with pytest.raises(ValueError):
            pc.decoherence_time(1e15, 0.0)

    @pytest.mark.parametrize("lam,delta_x", [(math.nan, 1e-9), (math.inf, 1e-9), (1.0, math.inf),
                                             (1.0, math.nan)])
    def test_rejects_non_finite(self, lam, delta_x):
        with pytest.raises(ValueError, match="must be .*finite"):
            pc.decoherence_time(lam, delta_x)


class TestRelativePurityRate:
    @pytest.mark.parametrize("gamma,t,rate", [(0.0, 2.284e-4, 4377.0), (-50.0, 1.71e-5, 58488.0)])
    def test_reference_rows(self, gamma, t, rate):
        value = pc.relative_purity_rate(FULLERENE.with_gamma(gamma), ENV15, t)
        assert abs(value - rate) <= 0.01 * rate

    def test_free_coherent_is_static(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=4.0)
        for t in (1e-7, 1e-4):
            assert pc.relative_purity_rate(probe, pc.EnvironmentSpec(lam=0.0), t) == 0.0

    @pytest.mark.parametrize("t", [0.0, math.inf, math.nan])
    def test_rejects_invalid_time(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            pc.relative_purity_rate(FULLERENE, ENV15, t)

    def test_lambda_sq_overflow_named(self):
        with pytest.raises(OverflowError, match=r"lambda\^2 needs lambda below ~1\.3e\+154"):
            pc.relative_purity_rate(FULLERENE, pc.EnvironmentSpec(lam=1e200), 1e-6)

    def test_against_the_reference(self):
        # |dB/dt|/(2B), dB/dt the builder's k c_k of B's tuple, within 4 epsilons of
        # the reference times kappa, how far the terms of dB/dt and of B cancel at
        # the point (summed), on 500 envelope draws; the worst measured on 9,000
        # draws was 1.6 epsilons times kappa (near gamma t/tau0 = -1 kappa reaches 1e5)
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(500):
            lam = 10.0 ** rng.uniform(-3.0, 30.0)
            gamma = 0.0 if rng.random() < 0.1 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 4)
            t = float(10.0 ** rng.uniform(-12.0, 0.0))
            probe = pc.fullerene_probe(gamma=float(gamma), ell0=(1e-9, 5e-8, math.inf)[rng.integers(3)])
            e = pc.EnvironmentSpec(lam=float(lam))
            args = pc.model._coefficient_args(probe, e)
            b, dt = pc.model._purity_bracket_coefficients(*args, "t")
            kappa = _reference.cancellation(dt, t) + _reference.cancellation(b, t)
            exact = _reference.point("t", probe.mass, probe.sigma0, probe.ell0, probe.gamma, e.lam, t)
            rate = abs(exact.dbracket) / (2 * exact.bracket)
            error = abs(pc.relative_purity_rate(probe, e, t) - rate) / rate
            worst = max(worst, float(error / kappa))
        assert worst <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize(
        "mass,error,message",
        [
            (1e200, OverflowError, r"mass=1e\+200 overflows the float range: mass\^2 needs mass "
                                   r"below ~1\.3e\+154 kg"),
            (1e-200, ZeroDivisionError, r"mass=1e-200 underflows the float range: mass\^2, a "
                                        r"divisor, needs mass above ~1\.5e-154 kg"),
        ],
    )
    def test_mass_sq_out_of_range_named(self, mass, error, message):
        probe = pc.ProbeSpec(mass=mass, sigma0=FULLERENE.sigma0, ell0=FULLERENE.ell0)
        with pytest.raises(error, match=message):
            pc.relative_purity_rate(probe, ENV15, 1e-6)


class TestTauMax:
    def test_uncorrelated_reference(self):
        assert abs(pc.tau_max_exact(FULLERENE, ENV15) - 228.4e-6) <= 0.01 * 228.4e-6

    def test_strongly_correlated_reference(self):
        t = pc.tau_max_exact(FULLERENE.with_gamma(150.0), ENV15)
        assert abs(t - 8.2e-6) <= 0.02 * 8.2e-6

    @pytest.mark.parametrize("gamma", [-50.0, -25.0, -1.0, 0.0, 35.0, 70.0, 150.0])
    def test_purity_at_maximizer_is_universal(self, gamma):
        probe = FULLERENE.with_gamma(gamma)
        t_max = pc.tau_max_exact(probe, ENV15)
        assert abs(pc.purity_exact(probe, ENV15, t_max) - 0.563) <= 0.005

    def test_approx_reference(self):
        assert_allclose(pc.tau_max_approx(FULLERENE, ENV15), 2.28e-4, rtol=5e-3)

    def test_approx_cube_root_scaling(self):
        # (1 + gamma^2) -> 8x halves the maximizer
        g8 = math.sqrt(8.0 * (1.0 + 3.0**2) - 1.0)
        t1 = pc.tau_max_approx(FULLERENE.with_gamma(3.0), ENV15)
        t2 = pc.tau_max_approx(FULLERENE.with_gamma(g8), ENV15)
        assert_allclose(t2, t1 / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [-50.0, -25.0, -1.0, 0.0, 35.0, 70.0, 150.0])
    def test_approx_tracks_exact(self, gamma):
        probe = FULLERENE.with_gamma(gamma)
        exact = pc.tau_max_exact(probe, ENV15)
        approx = pc.tau_max_approx(probe, ENV15)
        assert abs(approx - exact) <= 0.05 * exact

    def test_approx_exact_inverse_cube_root_in_coupling(self):
        t1 = pc.tau_max_approx(FULLERENE, pc.EnvironmentSpec(lam=1e15))
        t8 = pc.tau_max_approx(FULLERENE, pc.EnvironmentSpec(lam=8e15))
        assert_allclose(t8, t1 / 2.0, rtol=1e-12)

    def test_lambda_scaling_of_exact(self):
        # tau_max ~ lam^(-1/3) within 5% across four decades
        ref = pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=1e15))
        for lam in (1e13, 1e14, 1e16, 1e17):
            expected = ref * (1e15 / lam) ** (1.0 / 3.0)
            actual = pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=lam))
            assert abs(actual - expected) <= 0.05 * expected

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=0.0))
        with pytest.raises(ValueError):
            pc.tau_max_approx(FULLERENE, pc.EnvironmentSpec(lam=0.0))

    def test_out_of_domain_maximum(self):
        # at lam = 1e33 the rate's maximum rises above the neighbouring
        # minimum by ~1e-25 relative, far below what double precision resolves
        with pytest.raises(ConvergenceError, match="no interior maximum"):
            pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=1e33))

    @pytest.mark.parametrize("ell0", [5e-8, math.inf])
    @pytest.mark.parametrize("gamma", [-50.0, -1.0, 0.0, 35.0, 150.0])
    def test_closed_form_matches_scan(self, gamma, ell0):
        probe = pc.fullerene_probe(gamma=gamma, ell0=ell0)
        for lam in np.logspace(10, 20, 11):
            env = pc.EnvironmentSpec(lam=float(lam))
            assert_allclose(pc.tau_max_exact(probe, env), scan_knee(probe, env), rtol=1e-6)

    def test_uncorrelated_knee_is_the_approximant(self):
        # for gamma = 0, t = tau_max_approx is an exact root of B''B - B'^2
        for lam in np.logspace(-3, 25, 29):
            for ell0 in (5e-8, math.inf):
                probe = pc.fullerene_probe(ell0=ell0)
                env = pc.EnvironmentSpec(lam=float(lam))
                assert_allclose(pc.tau_max_exact(probe, env), pc.tau_max_approx(probe, env), rtol=1e-12)

    def test_cryogenic_coupling_has_a_knee(self):
        # ~0.2 mK air: the knee lies beyond 1e-2 s
        t = pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=1e10))
        assert_allclose(t, 1.057e-2, rtol=1e-3)

    def test_strong_coupling_interior_knee(self):
        # the rate's supremum sits at t -> 0 here; the knee is the interior maximum
        env = pc.EnvironmentSpec(lam=1e22)
        t = pc.tau_max_exact(FULLERENE, env)
        assert_allclose(t, 1.057e-6, rtol=1e-3)
        assert pc.relative_purity_rate(FULLERENE, env, 1e-12) > pc.relative_purity_rate(FULLERENE, env, t)

    def test_weak_coupling_and_overflow(self):
        # the polynomial's tiny leading coefficients must not hide the knee
        t = pc.tau_max_exact(FULLERENE.with_gamma(35.0), pc.EnvironmentSpec(lam=1e-5))
        assert_allclose(t, scan_knee(FULLERENE.with_gamma(35.0), pc.EnvironmentSpec(lam=1e-5),
                                     lo=1.0, hi=1e3), rtol=1e-6)
        with pytest.raises(ConvergenceError, match="no interior maximum"):
            pc.tau_max_exact(FULLERENE, pc.EnvironmentSpec(lam=1e-300))


def positive_roots(p):
    return [x for x, _ in thermometry._positive_roots(p)]


def ascending(roots):
    """Float coefficients, in ascending powers, of the monic polynomial with these roots."""
    return [float(c) for c in np.poly(roots)[::-1]]


class TestPositiveRoots:
    @pytest.mark.parametrize("lam", [1e-3, 1e5, 1e15, 1e20])
    @pytest.mark.parametrize("ell0", [5e-8, math.inf])
    def test_uncorrelated_knee_is_exactly_one(self, lam, ell0):
        # at gamma = 0 the scale tau_max_approx is an exact root of P: x = 1
        env = pc.EnvironmentSpec(lam=lam)
        _, _, _, p = thermometry._stationarity_polynomial(pc.fullerene_probe(ell0=ell0), env)
        assert min(abs(x - 1.0) for x in positive_roots(p)) <= 4 * EPS

    @pytest.mark.parametrize(
        "p,roots",
        [
            ([-3.0, 7.0, -5.0, 1.0], [1.0, 3.0]),            # (x - 1)^2 (x - 3)
            ([-1.0, 4.25, -5.0, 1.0], [0.5, 4.0]),           # (x - 0.5)^2 (x - 4)
            ([4.0, -4.0, 5.0, -4.0, 1.0], [2.0]),            # (x - 2)^2 (x^2 + 1)
            ([-4.0, 4.0, -1.0, 0.0, 0.0], [2.0]),            # -(x - 2)^2, zero leading terms
        ],
    )
    def test_double_root_found_once(self, p, roots):
        assert positive_roots(p) == roots

    def test_roots_spread_over_decades(self):
        # five positive roots over thirteen decades, plus a negative root and a complex pair
        roots = [1e-6, 1e-2, 1.0, 1e3, 1e7]
        p = ascending(roots + [-5.0, 1j, -1j])
        assert_allclose(positive_roots(p), roots, rtol=1e-13)

    def test_no_positive_root(self):
        assert positive_roots(ascending([-1.0, -3.0, 2j, -2j])) == []
        assert positive_roots([1.0, 0.0, 1.0]) == []
        assert positive_roots([1.0]) == []

    def test_closed_form_degrees(self):
        assert thermometry._positive_roots([-2.0, 1.0]) == [(2.0, 1.0)]
        # x^2: the double root at 0 is not positive, and q = 0 ends the quadratic
        assert positive_roots([0.0, 0.0, 1.0]) == []

    def test_negligible_leading_coefficient(self):
        # (x - 1)(x - 2)(1 - 1e-20 x): the leading coefficient lies far below
        # the rounding of the largest, and the root it adds sits at 1e20
        p = [-2.0, 3.0 + 2e-20, -1.0 - 3e-20, 1e-20]
        assert abs(p[-1]) < EPS * max(map(abs, p))
        assert_allclose(positive_roots(p), [1.0, 2.0, 1e20], rtol=1e-13)

    @pytest.mark.parametrize("lam", [1e-5, 1e-3])
    @pytest.mark.parametrize("gamma", [0.0, 35.0, -150.0])
    def test_weak_coupling_polynomial(self, lam, gamma):
        # lam <~ 1e-3: P's top coefficients sit ~30 orders below the rest; each
        # root found is a root, and the knee near x = 1 is among them
        probe = FULLERENE.with_gamma(gamma)
        env = pc.EnvironmentSpec(lam=lam)
        scale, _, _, p = thermometry._stationarity_polynomial(probe, env)
        assert abs(p[-1]) < EPS * max(map(abs, p))
        roots = positive_roots(p)
        for x in roots:
            terms = sum(abs(c) * x**k for k, c in enumerate(p))
            assert abs(thermometry._horner(p, x)[0]) <= 64 * EPS * terms
        knee = pc.tau_max_exact(probe, env) / scale
        assert min(abs(x - knee) for x in roots) <= 4 * EPS * knee
        assert abs(knee - 1.0) < 0.05


def eigenvalue_roots(p):
    """Independent float reference for `_positive_roots`.

    numpy's companion-matrix eigenvalues, after dropping leading coefficients
    below the rounding of the largest (the eigenvalue solver loses the roots
    near 1 otherwise), and each real positive one taken to the root of p in
    mpmath at 40 digits.
    """
    negligible = EPS * max(map(abs, p))
    degree = len(p) - 1
    while abs(p[degree]) <= negligible:
        degree -= 1
    descending = [mpmath.mpf(c) for c in reversed(p)]
    roots = []
    with mpmath.workdps(40):
        for z in np.roots(p[degree::-1]):
            if z.imag != 0.0 or not z.real > 0.0:
                continue
            x = mpmath.mpf(float(z.real))
            for _ in range(3):
                value, slope = mpmath.polyval(descending, x, derivative=True)
                x -= value / slope
            roots.append((float(x), None))
    return sorted(roots)


def test_tau_max_across_envelope(monkeypatch):
    # 6,000 seeded draws over lam in {0} u 1e-3..1e30, |gamma| in {0} u 1e-3..1e4,
    # ell0 in {50 nm, inf}: the same outcome, value or named error, as with the
    # eigenvalue reference in place of the pure-Python roots, and the same value
    # to 1e-12
    rng = random.Random(10)
    draws = []
    for _ in range(6000):
        lam = 0.0 if rng.random() < 0.02 else 10 ** rng.uniform(-3, 30)
        gamma = 0.0 if rng.random() < 0.05 else rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 4)
        probe = pc.fullerene_probe(gamma=gamma, ell0=rng.choice((5e-8, math.inf)))
        draws.append((probe, pc.EnvironmentSpec(lam=lam)))

    def outcomes():
        results = []
        for probe, env in draws:
            try:
                results.append(pc.tau_max_exact(probe, env))
            except (ValueError, ConvergenceError) as exc:
                results.append(f"{type(exc).__name__}: {exc}")
        return results

    found = outcomes()
    monkeypatch.setattr(thermometry, "_positive_roots", eigenvalue_roots)
    reference = outcomes()
    kinds = {type(r) for r in found}
    assert kinds == {float, str}  # the draws reach both values and named errors
    for (probe, env), value, ref in zip(draws, found, reference):
        where = f"gamma={probe.gamma!r}, lam={env.lam!r}, ell0={probe.ell0!r}"
        if isinstance(ref, str):
            assert value == ref, where
        else:
            assert isinstance(value, float), where
            assert abs(value - ref) <= 1e-12 * ref, where


class TestTgi:
    def test_uncorrelated_is_zero(self):
        value = pc.tgi(FULLERENE.with_gamma(0.0), ENV15)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("gamma,expected", [(150.0, 14.45), (-25.0, 9.24)])
    def test_reference_values(self, gamma, expected):
        assert abs(pc.tgi(FULLERENE.with_gamma(gamma), ENV15) - expected) <= 0.1

    def test_approx_zero(self):
        assert pc.tgi_approx(0.0) == 0.0

    def test_approx_reference(self):
        assert_allclose(pc.tgi_approx(150.0), (10.0 / 3.0) * math.log10(22501.0), rtol=1e-12)
        assert abs(pc.tgi_approx(150.0) - 14.50) < 0.01

    def test_approx_even(self):
        assert pc.tgi_approx(50.0) == pc.tgi_approx(-50.0)

    @pytest.mark.parametrize("gamma", [-50.0, -25.0, -1.0, 0.0, 35.0, 70.0, 150.0])
    def test_exact_close_to_approx(self, gamma):
        assert abs(pc.tgi(FULLERENE.with_gamma(gamma), ENV15) - pc.tgi_approx(gamma)) <= 0.2


class TestBuildTable:
    def test_singleton_zero(self):
        rows = pc.build_table1(FULLERENE, 1e15, [0.0])
        assert len(rows) == 1
        assert rows[0].tgi_db == 0.0 and math.copysign(1.0, rows[0].tgi_db) == 1.0
        assert 0.0 < rows[0].purity_at_tau_max < 1.0

    def test_order_preserved(self):
        gammas = [35.0, -1.0, 150.0]
        rows = pc.build_table1(FULLERENE, 1e15, gammas)
        assert [r.gamma for r in rows] == gammas
        permuted = pc.build_table1(FULLERENE, 1e15, list(reversed(gammas)))
        assert {r.gamma: r.tau_max for r in rows} == {r.gamma: r.tau_max for r in permuted}

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError):
            pc.build_table1(FULLERENE, 0.0, [0.0])

    def test_rows_are_the_one_point_functions(self):
        # a row is one analytic-curve row at tau_max; it must equal the one-point
        # functions there bit for bit
        rng = random.Random(24)
        for _ in range(60):
            probe = pc.ProbeSpec(
                mass=FULLERENE.mass * 10 ** rng.uniform(-1, 1),
                sigma0=FULLERENE.sigma0 * 10 ** rng.uniform(-0.5, 0.5),
                ell0=rng.choice([FULLERENE.ell0, math.inf, 10 ** rng.uniform(-8, -5)]),
            )
            lam = 10 ** rng.uniform(10, 20)
            gammas = [rng.uniform(-150.0, 150.0) for _ in range(2)]
            e = pc.EnvironmentSpec(lam=lam)
            for row in pc.build_table1(probe, lam, gammas):
                p = probe.with_gamma(row.gamma)
                t = row.tau_max
                assert t == pc.tau_max_exact(p, e)
                assert row.purity_at_tau_max.hex() == pc.purity_exact(p, e, t).hex()
                assert row.relative_purity_rate.hex() == pc.relative_purity_rate(p, e, t).hex()
                assert row.lambda_sq_qfi.hex() == (lam**2 * pc.qfi_analytic("lambda", p, e, t)).hex()

    def test_rows_build_the_bracket_once(self, monkeypatch):
        # a row's purity, rate and lambda QFI take B, dB/dlambda and dB/dt from one
        # builder call; tau_max_exact builds B alone, for its stationarity polynomial
        built = []
        for module in (pc.fisher, thermometry):
            build = module._purity_bracket_coefficients
            monkeypatch.setattr(module, "_purity_bracket_coefficients",
                                lambda *a, b=build, m=module: built.append((m, a[3], a[5:])) or b(*a))
        gammas = [-50.0, 0.0, 35.0]
        pc.build_table1(FULLERENE, 1e15, gammas)
        assert [c for c in built if c[0] is pc.fisher] == [
            (pc.fisher, g, ("lambda", "t")) for g in gammas
        ]
        assert {wrt for m, _, wrt in built if m is thermometry} == {()}

    def test_row_errors_are_annotated(self):
        with pytest.raises(ValueError, match="gamma=inf"):
            pc.build_table1(FULLERENE, 1e15, [0.0, math.inf])

    def test_saturation_plateau(self):
        # lam^2 QFI has leveled off by ten maximizer times: within 5% of its
        # value at twenty (the maximizer itself sits at the knee, near half
        # the plateau)
        for gamma in (0.0, 50.0):
            probe = FULLERENE.with_gamma(gamma)
            t_max = pc.tau_max_exact(probe, ENV15)
            q10 = pc.qfi_analytic("lambda", probe, ENV15, 10 * t_max)
            q20 = pc.qfi_analytic("lambda", probe, ENV15, 20 * t_max)
            assert abs(q10 - q20) <= 0.05 * q20


class TestReferenceTable:
    def test_reference_rows_well_formed(self):
        assert [r.gamma for r in pc.TABLE1_REFERENCE] == [-50.0, -25.0, -1.0, 0.0, 35.0, 70.0, 150.0]
        zero = next(r for r in pc.TABLE1_REFERENCE if r.gamma == 0.0)
        assert zero.tgi_db == 0.0


def test_one_point_commands_load_no_numpy(tmp_path):
    # `import pmcorr`, one launch of each one-point command, a figure preset and a
    # purity sweep; only the Richardson column of a gamma or lambda sweep loads numpy
    src = Path(pc.__file__).resolve().parents[1]
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    launches = [
        ["purity", "--lambda", "1e15", "--t", "1us"],
        ["tgi", "--lambda", "1e15", "--gamma", "3"],
        ["table1"],
        ["convert", "--to-lambda", "0.442", "--quiet"],
        ["lens", "--omega0", "2e8", "--wavelength", "532e-9", "--vcm", "100", "--tint", "1us"],
        *(
            [command, "--target", target, "--lambda", "1e15", "--gamma", "3", "--t", "20us"]
            for command in ("qfi", "cfi")
            for target in ("gamma", "lambda")
        ),
        ["figures", "--preset", "fig4", "--outdir", str(tmp_path), "--quiet"],
        ["sweep", "--axis", "time", "--min", "1us", "--max", "1ms", "--points", "5", "--log",
         "--lambda", "1e15"],
    ]
    codes = ["import sys, pmcorr"] + [
        f"import sys; sys.argv = ['pmcorr', *{argv!r}]\n"
        "from pmcorr.cli import console_entry\n"
        "try:\n    console_entry()\nexcept SystemExit as exc:\n    assert exc.code == 0, exc.code"
        for argv in launches
    ]
    for code in codes:
        out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]", code


def test_one_point_commands_load_no_dataclasses_inspect_or_json():
    # `import pmcorr` and one launch of each one-point command; the modules are
    # compared before and after, so a `site` that preloads one does not count
    src = Path(pc.__file__).resolve().parents[1]
    launches = [
        ["purity", "--lambda", "1e15", "--t", "1us"],
        ["qfi", "--target", "gamma", "--lambda", "1e15", "--gamma", "3", "--t", "20us"],
        ["cfi", "--target", "lambda", "--lambda", "1e15", "--gamma", "3", "--t", "20us"],
        ["tgi", "--lambda", "1e15", "--gamma", "3"],
        ["table1"],
        ["convert", "--to-lambda", "0.442", "--quiet"],
        ["lens", "--omega0", "2e8", "--wavelength", "532e-9", "--vcm", "100", "--tint", "1us"],
    ]
    codes = ["import pmcorr"] + [
        f"sys.argv = ['pmcorr', *{argv!r}]\n"
        "from pmcorr.cli import console_entry\n"
        "try:\n    console_entry()\nexcept SystemExit as exc:\n    assert exc.code == 0, exc.code"
        for argv in launches
    ]
    for code in codes:
        out = subprocess.run(
            [sys.executable, "-c", f"import sys\nbefore = set(sys.modules)\n{code}\n"
             "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
            timeout=60,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]", code


def test_import_loads_no_scipy():
    # neither the import nor a cfi launch, which runs the quadrature oracle
    src = Path(pc.__file__).resolve().parents[1]
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    launch = (
        "from pmcorr.cli import main; "
        "assert main(['cfi', '--target', 'gamma', '--lambda', '1e15', '--t', '50us', '--quiet']) == 0"
    )
    for code in ("import sys, pmcorr", f"import sys; {launch}"):
        out = subprocess.run([sys.executable, "-c", f"{code}; {report}"], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=60)
        assert out.stdout.strip().splitlines()[-1] == "[]"
