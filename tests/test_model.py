"""Probe/environment specs, kernel parameters, covariance, and purity."""
import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import _reference
import pmcorr as pc
from pmcorr import model
from pmcorr.constants import HBAR

FULLERENE = pc.fullerene_probe()


def env(lam=0.0):
    return pc.EnvironmentSpec(lam=lam)


def _bracket_monomials(probe, e, t):
    """The oracle's double-double monomials of the bracket, from factors that take eps."""
    f = model._purity_bracket_factors(probe.mass, probe.sigma0, probe.coherence_ratio_sq, t)
    return model._purity_bracket_dd(f, probe.gamma, e.lam)


def _bracket_derivative(wrt, probe, e, t):
    """d(1/purity^2)/d(wrt) at (probe, e, t) from the one builder's tuples, summed after B at t."""
    b, d = model._purity_bracket_coefficients(*model._coefficient_args(probe, e), wrt)
    return model._purity_bracket(b, t, d)[1]


def kernel_variance(probe, k, t):
    """Readout variance from the kernel: V = 2 hbar^2 t^2 sigma0^2 b_sq / m^2 (= 1/(4 a1))."""
    return 2.0 * HBAR**2 * t**2 * probe.sigma0**2 * k.b_sq / probe.mass**2


class TestSpecs:
    def test_probe_validation(self):
        with pytest.raises(ValueError):
            pc.ProbeSpec(mass=0.0, sigma0=1e-9)
        with pytest.raises(ValueError):
            pc.ProbeSpec(mass=1e-24, sigma0=-1e-9)
        with pytest.raises(ValueError):
            pc.ProbeSpec(mass=1e-24, sigma0=1e-9, ell0=0.0)
        with pytest.raises(ValueError):
            pc.ProbeSpec(mass=1e-24, sigma0=1e-9, gamma=math.inf)

    def test_gamma_whose_square_overflows_is_named(self):
        message = "gamma=1e+200 overflows the float range: gamma^2 needs gamma below ~1.3e+154"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            pc.ProbeSpec(mass=1e-24, sigma0=1e-9, gamma=1e200)
        with pytest.raises(OverflowError, match="^gamma=-2e[+]154 overflows"):
            FULLERENE.with_gamma(-2e154)
        # the largest gamma accepted has a finite square
        edge = FULLERENE.with_gamma(model._SQUARE_LIMIT)
        assert math.isfinite(edge.gamma**2)

    def test_fully_coherent_probe(self):
        probe = pc.ProbeSpec(mass=1e-24, sigma0=1e-9, ell0=math.inf, gamma=3.0)
        assert probe.is_fully_coherent
        assert probe.coherence_ratio_sq == 0.0
        assert not FULLERENE.is_fully_coherent
        assert_allclose(FULLERENE.coherence_ratio_sq, (7.8 / 50.0) ** 2)

    def test_with_gamma(self):
        assert FULLERENE.with_gamma(7.0).gamma == 7.0
        assert FULLERENE.with_gamma(7.0).sigma0 == FULLERENE.sigma0

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            pc.EnvironmentSpec(lam=-1.0)

    def test_kernel_params_invariants(self):
        for b_sq in (0.0, -1.0):
            with pytest.raises(ValueError, match="b_sq must be positive"):
                pc.KernelParams(b_sq=b_sq)


class TestTau0:
    def test_fullerene_value(self):
        assert_allclose(pc.tau0(FULLERENE), 6.923e-7, rtol=1e-3)

    def test_mass_linearity(self):
        doubled = pc.ProbeSpec(mass=2 * FULLERENE.mass, sigma0=FULLERENE.sigma0)
        assert_allclose(pc.tau0(doubled), 2 * pc.tau0(FULLERENE), rtol=1e-15)

    def test_width_quadratic(self):
        wider = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=2 * FULLERENE.sigma0)
        assert_allclose(pc.tau0(wider), 4 * pc.tau0(FULLERENE), rtol=1e-15)


class TestKernelParams:
    def test_free_coherent_b_sq(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=0.0)
        for t in (1e-7, 3e-5, 2e-3):
            k = pc.kernel_params(probe, env(0.0), t)
            expected = 1.0 / (4 * probe.sigma0**4) + probe.mass**2 / (4 * HBAR**2 * t**2)
            assert_allclose(k.b_sq, expected, rtol=1e-14)

    def test_diagonal_variance_matches_covariance(self):
        probe = FULLERENE.with_gamma(5.0)
        e = env(1e20)
        t = 1e-6
        k = pc.kernel_params(probe, e, t)
        assert_allclose(
            kernel_variance(probe, k, t), pc.position_density_variance(probe, e, t), rtol=1e-9
        )

    @pytest.mark.parametrize("t", [0.0, -1e-6])
    def test_rejects_nonpositive_time(self, t):
        with pytest.raises(ValueError, match="kernel undefined"):
            pc.kernel_params(FULLERENE, env(1e15), t)

    def test_short_time_overflow_named(self):
        # m/(2 hbar t) ~ 5.7e209 at t = 1e-200 s: its square raised bare
        with pytest.raises(OverflowError) as error:
            pc.kernel_params(FULLERENE, env(1e15), 1e-200)
        assert str(error.value) == (
            "(m/(2 hbar t) + gamma/(2 sigma0^2))=5.68951e+209 overflows the float range: "
            "(m/(2 hbar t) + gamma/(2 sigma0^2))^2, in b_sq, needs "
            "(m/(2 hbar t) + gamma/(2 sigma0^2)) below ~1.3e+154 m^-2"
        )


@pytest.mark.parametrize(
    "func", [pc.purity_exact, pc.purity_approx, pc.covariance, pc.kernel_params]
)
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_rejects_non_finite_time(func, t):
    with pytest.raises(ValueError, match="finite"):
        func(FULLERENE, env(1e15), t)


class TestCovariance:
    @pytest.mark.parametrize("gamma", [0.0, 3.0, -7.5])
    def test_pure_state_unit_determinant(self, gamma):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=gamma)
        assert_allclose(pc.covariance(probe, env(0.0), 0.0).det, 1.0, rtol=1e-14)

    def test_partially_coherent_initial_determinant(self):
        det = pc.covariance(FULLERENE, env(0.0), 0.0).det
        assert_allclose(det, 1.0 + 2 * (FULLERENE.sigma0 / FULLERENE.ell0) ** 2, rtol=1e-12)

    def test_reference_purity_point(self):
        det = pc.covariance(FULLERENE, env(1e15), 2.284e-4).det
        assert abs(det**-0.5 - 0.563) < 0.005

    def test_initial_entries(self):
        probe = FULLERENE.with_gamma(4.0)
        cov = pc.covariance(probe, env(0.0), 0.0)
        assert cov.sxx == 1.0
        assert cov.sxp == 4.0
        assert_allclose(cov.spp, 1.0 + 16.0 + 2 * probe.coherence_ratio_sq, rtol=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            pc.covariance(FULLERENE, env(0.0), -1e-9)


class TestPurity:
    def test_free_coherent_is_pure(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=11.0)
        for t in (0.0, 1e-6, 1e-3):
            assert pc.purity_exact(probe, env(0.0), t) == 1.0

    def test_initial_value_fullerene(self):
        expected = (1.0 + 2 * (7.8 / 50.0) ** 2) ** -0.5  # = 0.97652
        assert_allclose(pc.purity_exact(FULLERENE, env(0.0), 0.0), expected, rtol=1e-12)
        assert_allclose(expected, 0.9765, atol=5e-5)

    def test_reference_point(self):
        assert abs(pc.purity_exact(FULLERENE, env(1e15), 2.284e-4) - 0.563) < 0.005

    def test_approx_no_coupling(self):
        assert pc.purity_approx(FULLERENE.with_gamma(9.0), env(0.0), 5e-4) == 1.0

    @pytest.mark.parametrize("gamma,lam", [(0.0, 1e15), (150.0, 1e15), (-25.0, 1e13), (7.0, 1e20)])
    def test_approx_value_at_its_maximizer(self, gamma, lam):
        probe = FULLERENE.with_gamma(gamma)
        t_star = pc.tau_max_approx(probe, env(lam))
        assert_allclose(pc.purity_approx(probe, env(lam), t_star), 3**-0.5, rtol=1e-12)

    def test_approx_near_exact_at_reference(self):
        approx = pc.purity_approx(FULLERENE, env(1e15), 2.284e-4)
        exact = pc.purity_exact(FULLERENE, env(1e15), 2.284e-4)
        assert abs(approx - exact) / exact < 0.03

    def test_from_covariance_identity_matrix(self):
        assert pc.purity_from_covariance(pc.CovarianceMatrix(1.0, 0.0, 1.0)) == 1.0

    def test_from_covariance_det_four(self):
        assert_allclose(pc.purity_from_covariance(pc.CovarianceMatrix(2.0, 0.0, 2.0)), 0.5, rtol=1e-15)

    def test_from_covariance_clamps_rounding(self):
        assert pc.purity_from_covariance(pc.CovarianceMatrix(1.0 - 5e-10, 0.0, 1.0)) == 1.0

    def test_from_covariance_rejects_unphysical(self):
        with pytest.raises(ValueError, match="unphysical covariance"):
            pc.purity_from_covariance(pc.CovarianceMatrix(0.5, 0.0, 1.0))

    def test_two_route_agreement_grid(self):
        gammas = [-150.0, -50.0, -5.0, 0.0, 5.0, 50.0, 150.0]
        lams = [0.0] + list(np.logspace(13, 23, 6))
        times = np.logspace(-8, -3, 6)
        for g in gammas:
            probe = FULLERENE.with_gamma(g)
            for lam in lams:
                for t in times:
                    mu_direct = pc.purity_exact(probe, env(lam), float(t))
                    mu_cov = pc.purity_from_covariance(pc.covariance(probe, env(lam), float(t)))
                    assert abs(mu_direct - mu_cov) <= 1e-9 * mu_direct


class TestPositionDensityVariance:
    def test_initial_coherent(self):
        probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0)
        assert_allclose(
            pc.position_density_variance(probe, env(0.0), 0.0), probe.sigma0**2 / 2, rtol=1e-14
        )

    def test_kernel_route_at_tau0(self):
        t = pc.tau0(FULLERENE)
        k = pc.kernel_params(FULLERENE, env(0.0), t)
        assert_allclose(
            pc.position_density_variance(FULLERENE, env(0.0), t),
            kernel_variance(FULLERENE, k, t),
            rtol=1e-9,
        )

    def test_overflow_named(self):
        probe = pc.ProbeSpec(mass=1e-170, sigma0=FULLERENE.sigma0)
        with pytest.raises(OverflowError, match=r"readout variance overflows the float range at "
                           r"t/tau0=1\.73\d*e\+146"):
            pc.position_density_variance(probe, env(1e15), 1e-6)

    @pytest.mark.parametrize(
        "call",
        [
            pc.purity_exact, pc.purity_approx, pc.relative_purity_rate,
            lambda p, e, t: pc.qfi_numeric("gamma", p, e, t),
            lambda p, e, t: pc.qfi_numeric("lambda", p, e, t),
            lambda p, e, t: _bracket_derivative("t", p, e, t),
            lambda p, e, t: _bracket_derivative("gamma", p, e, t),
            lambda p, e, t: _bracket_derivative("lambda", p, e, t),
            _bracket_monomials,
        ],
        ids=["purity_exact", "purity_approx", "relative_purity_rate", "qfi_numeric-gamma",
             "qfi_numeric-lambda", "dt", "dgamma", "dlam", "bracket_dd"],
    )
    def test_tau0_mass_underflow_named(self, call):
        # tau0*mass = mass^2 sigma0^2/hbar ~ 1e-366 rounds to 0 while mass^2 does not
        probe = pc.ProbeSpec(mass=1e-100, sigma0=1e-100)
        with pytest.raises(ZeroDivisionError, match=r"3\*tau0\*mass=0 underflows the float range: "
                           r"3 tau0 mass = 3 mass\^2 sigma0\^2/hbar, a divisor, needs to stay "
                           r"above ~2\.2e-308 kg s \(mass=1e-100 kg, sigma0=1e-100 m\)$"):
            call(probe, env(1e15), 1e-6)

    @pytest.mark.parametrize(
        "call",
        [
            pc.covariance, pc.position_density_variance,
            lambda p, e, t: pc.cfi_quadrature("gamma", p, e, t),
            lambda p, e, t: pc.cfi_quadrature("lambda", p, e, t),
            lambda p, e, t: pc.qfi_numeric("gamma", p, e, t),
        ],
        ids=["covariance", "position_density_variance", "cfi_quadrature-gamma",
             "cfi_quadrature-lambda", "qfi_numeric"],
    )
    def test_tau0_underflow_named(self, call):
        # mass sigma0^2 ~ 1e-350 rounds to 0, so tau0 does
        probe = pc.ProbeSpec(mass=1e-150, sigma0=1e-100)
        with pytest.raises(ZeroDivisionError, match=r"tau0=0 underflows the float range: tau0 = "
                           r"mass sigma0\^2/hbar, a divisor, rounds to 0 \(mass=1e-150 kg, "
                           r"sigma0=1e-100 m\)"):
            call(probe, env(1e15), 1e-6)

    @pytest.mark.parametrize(
        "mass, sigma0, reference, error",
        [
            # 3 tau0 mass rounds to 4.9e-324 and 1.5e-323: the old quotients put the
            # purity 1.4% and 1.8% off the reference
            (1e-100, 1.3e-79, 3.37596412723362e-144,
             r"3\*tau0\*mass=4\.94066e-324 underflows the float range: 3 tau0 mass = 3 mass\^2 "
             r"sigma0\^2/hbar, a divisor, needs to stay above ~2\.2e-308 kg s \(mass=1e-100 kg, "
             r"sigma0=1\.3e-79 m\)$"),
            (1e-100, 3e-79, 7.7906864474622e-144,
             r"3\*tau0\*mass=2\.47033e-323 underflows the float range"),
            # mass^2 = 1e-320 is subnormal: the old quotients put the purity 5.6e-9 off
            (1e-160, 1e-6, 2.59559800777114e-131,
             r"mass=1e-160 underflows the float range: mass\^2, a divisor, needs mass above "
             r"~1\.5e-154 kg$"),
        ],
        ids=["tau0-mass-1.3e-79", "tau0-mass-3e-79", "mass-sq-1e-320"],
    )
    def test_subnormal_divisor_is_named_on_every_route(self, mass, sigma0, reference, error):
        # every copy of the bracket divides by mass^2 and 3 tau0 mass, and a
        # subnormal divisor has lost bits: each names it instead of a wrong value
        probe = pc.ProbeSpec(mass=mass, sigma0=sigma0)
        e, t = env(1e15), 1e-6
        exact = _reference.point("gamma", mass, sigma0, math.inf, 0.0, e.lam, t).purity
        assert float(exact) == pytest.approx(reference, rel=1e-14)
        for call in [pc.purity_exact, pc.purity_approx, pc.relative_purity_rate,
                     lambda p, e, t: _bracket_derivative("gamma", p, e, t),
                     lambda p, e, t: _bracket_derivative("lambda", p, e, t),
                     _bracket_monomials]:
            with pytest.raises(ZeroDivisionError, match=f"^{error}"):
                call(probe, e, t)

    def test_width_scaling(self):
        # double sigma0 holding all dimensionless ratios fixed: theta, eps, lam*sigma0^2*tau0
        probe2 = pc.ProbeSpec(
            mass=FULLERENE.mass, sigma0=2 * FULLERENE.sigma0, ell0=2 * FULLERENE.ell0, gamma=3.0
        )
        probe1 = FULLERENE.with_gamma(3.0)
        tau1, tau2 = pc.tau0(probe1), pc.tau0(probe2)
        lam1 = 1e15
        lam2 = lam1 * (probe1.sigma0**2 * tau1) / (probe2.sigma0**2 * tau2)
        t1 = 5e-5
        t2 = t1 * tau2 / tau1
        v1 = pc.position_density_variance(probe1, env(lam1), t1)
        v2 = pc.position_density_variance(probe2, env(lam2), t2)
        assert_allclose(v2, 4 * v1, rtol=1e-12)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_power_names_the_float_range_limits(k):
    # a power overflows just above the limit it names, and rounds to 0 just below its floor
    limit = sys.float_info.max ** (1 / k)
    floor = math.ulp(0.0) ** (1 / k) / 2 ** (1 / k)
    assert math.isfinite(model._power(0.999 * limit, k, "x"))
    with pytest.raises(OverflowError, match=rf"^x=\S+ overflows the float range: x\^{k} needs x "
                       rf"below ~{re.escape(f'{limit:.2g}')} s$"):
        model._power(1.001 * limit, k, "x", "s")
    assert model._power(1.001 * floor, k, "x", divisor=True) > 0.0
    with pytest.raises(ZeroDivisionError, match=rf"^x=\S+ underflows the float range: x\^{k}, a "
                       rf"divisor, needs x above ~{re.escape(f'{floor:.2g}')}$"):
        model._power(0.999 * floor, k, "x", divisor=True)


class TestPearson:
    def test_uncorrelated(self):
        assert pc.pearson_from_gamma(0.0) == 0.0

    def test_unit_gamma(self):
        assert_allclose(pc.pearson_from_gamma(1.0), 0.70711, atol=5e-6)

    def test_round_trip(self):
        g = -50.0
        assert_allclose(pc.gamma_from_pearson(pc.pearson_from_gamma(g)), g, rtol=1e-12)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5])
    def test_rejects_unit_correlation(self, r):
        with pytest.raises(ValueError, match="correlation magnitude"):
            pc.gamma_from_pearson(r)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

probe_strategy = st.builds(
    pc.ProbeSpec,
    mass=st.floats(1e-25, 1e-23),
    sigma0=st.floats(1e-9, 1e-7),
    ell0=st.one_of(st.just(math.inf), st.floats(5e-9, 1e-5)),
    gamma=st.floats(-150.0, 150.0),
)
lam_strategy = st.one_of(st.just(0.0), st.floats(0.0, 23.0).map(lambda e: 10.0**e))
t_strategy = st.floats(-8.0, -3.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(probe=probe_strategy, lam=lam_strategy, t=t_strategy)
def test_purity_bound_property(probe, lam, t):
    mu = pc.purity_exact(probe, env(lam), t)
    assert 0.0 < mu <= 1.0


@settings(max_examples=100, deadline=None)
@given(probe=probe_strategy, lam=lam_strategy, t=t_strategy)
def test_determinant_is_inverse_square_purity(probe, lam, t):
    det = pc.covariance(probe, env(lam), t).det
    mu = pc.purity_exact(probe, env(lam), t)
    assert abs(det * mu**2 - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(-150.0, 150.0), t=t_strategy)
def test_free_coherent_evolution_preserves_purity(gamma, t):
    probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=gamma)
    assert pc.purity_exact(probe, env(0.0), t) == 1.0


@settings(max_examples=60, deadline=None)
@given(g1=st.floats(-150.0, 150.0), g2=st.floats(-150.0, 150.0), t=t_strategy)
def test_purity_gamma_independent_without_coupling(g1, g2, t):
    mu1 = pc.purity_exact(FULLERENE.with_gamma(g1), env(0.0), t)
    mu2 = pc.purity_exact(FULLERENE.with_gamma(g2), env(0.0), t)
    assert mu1 == mu2


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(0.0, 150.0),
    lam=st.floats(10.0, 23.0).map(lambda e: 10.0**e),
    t=t_strategy,
    step=st.floats(1.05, 10.0),
)
def test_monotone_decoherence(gamma, lam, t, step):
    probe = FULLERENE.with_gamma(gamma)
    assert pc.purity_exact(probe, env(lam), t * step) < pc.purity_exact(probe, env(lam), t)
    assert pc.purity_exact(probe, env(lam * step), t) < pc.purity_exact(probe, env(lam), t)


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(-150.0, 150.0))
def test_minimum_uncertainty_at_start(gamma):
    probe = pc.ProbeSpec(mass=FULLERENE.mass, sigma0=FULLERENE.sigma0, gamma=gamma)
    assert_allclose(pc.covariance(probe, env(0.0), 0.0).det, 1.0, rtol=1e-12)


def test_model_imports_only_constants_and_dd():
    # model is the bottom layer: fisher, thermometry and cli build on it, never the reverse
    tree = ast.parse(Path(pc.model.__file__).read_text(encoding="utf-8"))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module else [a.name for a in node.names])
    assert relative <= {"constants", "_dd"}
