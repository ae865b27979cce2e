"""Quantum/classical Fisher information: closed forms against numeric oracles."""
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pmcorr as pc
from pmcorr.fisher import _ADJ_TRACE_RESCALE

FULLERENE = pc.fullerene_probe()
GAMMA = pc.EstimationTarget.GAMMA
LAMBDA = pc.EstimationTarget.LAMBDA

# small cross-check grid; the full acceptance grid lives in test_acceptance
GRID = list(itertools.product([-50.0, 0.0, 5.0], [1e13, 1e15, 1e20], [1e-7, 1e-5, 1e-3]))


def env(lam):
    return pc.EnvironmentSpec(lam=lam)


class TestPhiGamma:
    def test_reference_value_free_coherent(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        assert_allclose(pc.phi_gamma(probe, env(0.0), 1e-6).value, 1.0 / 8.0, rtol=1e-14)

    def test_no_coupling_single_term(self):
        phi = pc.phi_gamma(FULLERENE, env(0.0), 5e-5)
        tau = pc.tau0(FULLERENE)
        assert_allclose(phi.value, phi.c0 / (72.0 * tau**4), rtol=1e-14)
        assert_allclose(phi.value, (1.0 + 2 * FULLERENE.coherence_ratio_sq) / 8.0, rtol=1e-12)

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
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        assert pc.phi_lambda(probe, env(0.0), 1e-6).big_gamma == 1.0

    def test_no_coupling_single_term(self):
        phi = pc.phi_lambda(FULLERENE, env(0.0), 5e-5)
        tau = pc.tau0(FULLERENE)
        assert_allclose(phi.value, phi.c0 / (18.0 * tau**4), rtol=1e-14)

    def test_assembled_matches_numeric_oracle(self):
        probe = FULLERENE.with_gamma(-10.0)
        e = env(1e15)
        a = pc.qfi_analytic(LAMBDA, probe, e, 5e-5)
        n = pc.qfi_numeric(LAMBDA, probe, e, 5e-5)
        assert abs(a - n) <= 1e-6 * abs(a)


class TestQfiAnalytic:
    def test_no_coupling_first_term_only(self):
        # purity is gamma-independent at lam = 0, so the derivative term vanishes
        probe = FULLERENE.with_gamma(7.0)
        assert pc.purity_derivative(GAMMA, probe, env(0.0), 1e-6) == 0.0
        mu = pc.purity_exact(probe, env(0.0), 1e-6)
        phi = pc.phi_gamma(probe, env(0.0), 1e-6).value
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

    def test_step_refinement_stability(self):
        probe = FULLERENE.with_gamma(5.0)
        base = pc.qfi_numeric(GAMMA, probe, env(1e20), 1e-6)
        halved = pc.qfi_numeric(
            GAMMA, probe, env(1e20), 1e-6, step_policy=pc.StepPolicy(rel_step=5e-5)
        )
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

    def test_dual_oracle_agreement(self):
        quad = pc.cfi_quadrature(LAMBDA, FULLERENE, env(1e15), 5e-5)
        assert abs(quad.quadrature - quad.gaussian_identity) <= 1e-7 * quad.gaussian_identity

    def test_quadrature_at_gamma_zero_crossing(self):
        t = 1e-6
        probe = FULLERENE.with_gamma(-pc.tau0(FULLERENE) / t)
        quad = pc.cfi_quadrature(GAMMA, probe, env(1e15), t)
        assert abs(quad.quadrature) <= 1e-10


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
            assert pc.phi_gamma(probe, env(lam), 1e-5).value >= 0.0
            assert pc.phi_lambda(probe, env(lam), 1e-5).value >= 0.0

    def test_phi_monotone_on_positive_quadrant(self):
        gammas = [0.0, 1.0, 5.0, 20.0, 100.0]
        lams = [0.0, 1e13, 1e16, 1e20]
        times = [1e-7, 1e-6, 1e-5, 1e-4]
        for phi in (pc.phi_gamma, pc.phi_lambda):
            for lam in lams:
                for t in times:
                    vals = [phi(FULLERENE.with_gamma(g), env(lam), t).value for g in gammas]
                    assert all(b >= a for a, b in zip(vals, vals[1:]))
            for g in gammas:
                probe = FULLERENE.with_gamma(g)
                for t in times:
                    vals = [phi(probe, env(lam), t).value for lam in lams]
                    assert all(b >= a for a, b in zip(vals, vals[1:]))
                for lam in lams:
                    vals = [phi(probe, env(lam), t).value for t in times]
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
    def test_bundle_consistency(self):
        probe = FULLERENE.with_gamma(2.0)
        e = env(1e15)
        res = pc.fisher_information(LAMBDA, probe, e, 5e-5)
        assert res.qfi_analytic == pc.qfi_analytic(LAMBDA, probe, e, 5e-5)
        assert res.purity == pc.purity_exact(probe, e, 5e-5)
        assert res.qfi_analytic >= res.cfi_closed
        assert abs(res.qfi_analytic - res.qfi_numeric) <= 1e-6 * res.qfi_analytic
        assert abs(res.cfi_closed - res.cfi_quadrature) <= 1e-6 * res.cfi_closed
