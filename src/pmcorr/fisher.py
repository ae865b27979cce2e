"""Quantum and classical Fisher information for the probe's two parameters.

Estimated parameters: the initial position-momentum correlation (``gamma``)
and the environment coupling (``lam``).  Four independent routes are
implemented and cross-checked:

* `qfi_analytic`  - closed-form trace polynomials plus the analytic purity
  derivative;
* `qfi_numeric`   - the general single-mode Gaussian formula
  mu^4/(2(1+mu^2)) Tr{[adj(S) dS]^2} + 2 (dmu)^2/(1-mu^4) with derivatives
  from Richardson-extrapolated central differences;
* `cfi_closed`    - closed form of the position-readout Fisher information;
* `cfi_quadrature`- adaptive quadrature of int (dP)^2/P dx plus the Gaussian
  variance identity (dV)^2/(2 V^2).

The first-moment term of the general Gaussian formula vanishes identically
for this channel and is omitted throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _dd
from .constants import HBAR
from .model import (
    EnvironmentSpec,
    ProbeSpec,
    _covariance_entries,
    _covariance_terms_dd,
    _purity_bracket,
    _purity_bracket_dgamma,
    _purity_bracket_dlam,
    _purity_bracket_terms_dd,
    kernel_params,
    purity_exact,
    tau0,
)

__all__ = [
    "ConvergenceError",
    "EstimationTarget",
    "PhiCoefficients",
    "FisherResult",
    "CfiQuadrature",
    "StepPolicy",
    "phi_gamma",
    "phi_lambda",
    "purity_derivative",
    "qfi_analytic",
    "qfi_numeric",
    "cfi_closed",
    "cfi_quadrature",
    "cramer_rao_bound",
    "fisher_information",
]


class ConvergenceError(RuntimeError):
    """A numerical routine (derivative, quadrature, maximizer) failed to converge."""


class EstimationTarget(Enum):
    GAMMA = "gamma"
    LAMBDA = "lambda"


def _as_target(target) -> EstimationTarget:
    if isinstance(target, EstimationTarget):
        return target
    return EstimationTarget(str(target).lower())


# The trace polynomials below are expressed in half-scaled moments (pure-state
# covariance determinant 1/4).  model.covariance stores doubled entries so
# that det = 1/purity^2; the adjugate trace is quartic in that factor.
_ADJ_TRACE_RESCALE = 16.0


@dataclass(frozen=True)
class PhiCoefficients:
    """Coefficients of the trace polynomial sum_k c_k lam^k and its value.

    The common coherence-length power (ell0^2 for the gamma target, ell0^4
    for the lam target) is cancelled between the coefficients and the overall
    prefactor, so fully coherent sources stay finite.  For the lam target
    ``big_gamma`` carries the combination 2 (sigma0/ell0)^2 + gamma^2 + 1.
    """

    target: EstimationTarget
    c0: float
    c1: float
    c2: float
    value: float
    big_gamma: float | None = None


@dataclass(frozen=True)
class CfiQuadrature:
    """The two independent position-readout CFI oracles."""

    quadrature: float
    gaussian_identity: float


@dataclass(frozen=True)
class FisherResult:
    """All Fisher routes at one parameter point."""

    qfi_analytic: float
    qfi_numeric: float
    cfi_closed: float
    cfi_quadrature: float
    purity: float
    purity_derivative: float


@dataclass(frozen=True)
class StepPolicy:
    """Finite-difference step choice: h = rel_step * max(|theta|, scale_floor)."""

    rel_step: float = 1e-4
    scale_floor: float | None = None  # default depends on the target
    levels: int = 5
    rel_tol: float = 1e-6


#: characteristic scale used as a step floor when |theta| is small
_DEFAULT_SCALE_FLOOR = {EstimationTarget.GAMMA: 1.0, EstimationTarget.LAMBDA: 1e12}


def phi_gamma(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> PhiCoefficients:
    """Trace polynomial for correlation estimation, with its c-coefficients."""
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    s0, g, lam = probe.sigma0, probe.gamma, env.lam
    eps = probe.coherence_ratio_sq
    tau = tau0(probe)
    r = tau / t
    c0 = 9.0 * tau**4 * (1.0 + 2.0 * eps)
    c1 = 12.0 * s0**2 * tau**2 * t**3 * ((2.0 * eps + g**2 + 1.0) + 3.0 * g * r + 3.0 * r**2)
    c2 = 32.0 * s0**4 * t**6 * (g**2 + 3.0 * g * r + (21.0 / 8.0) * r**2)
    value = (c0 + c1 * lam + c2 * lam**2) / (72.0 * tau**4)
    return PhiCoefficients(target=EstimationTarget.GAMMA, c0=c0, c1=c1, c2=c2, value=value)


def phi_lambda(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> PhiCoefficients:
    """Trace polynomial for coupling estimation, with its c-coefficients."""
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    s0, g, lam = probe.sigma0, probe.gamma, env.lam
    eps = probe.coherence_ratio_sq
    tau = tau0(probe)
    r = tau / t
    big_gamma = 2.0 * eps + g**2 + 1.0
    c0 = 2.0 * s0**4 * t**6 * (
        big_gamma**2
        + 6.0 * g * r * big_gamma
        + 15.0 * r**2 * ((3.0 / 5.0) * eps + g**2 + 3.0 / 10.0)
        + 18.0 * g * r**3
        + 9.0 * r**4
    )
    c1 = 4.0 * s0**6 * t**7 * (big_gamma + 3.0 * g * r + 3.0 * r**2)
    c2 = 4.0 * s0**8 * t**8
    value = (c0 + c1 * lam + c2 * lam**2) / (18.0 * tau**4)
    return PhiCoefficients(
        target=EstimationTarget.LAMBDA, c0=c0, c1=c1, c2=c2, value=value, big_gamma=big_gamma
    )


def purity_derivative(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Analytic d(purity)/d(theta) for theta in {gamma, lam}."""
    target = _as_target(target)
    args = (probe.mass, probe.sigma0, probe.coherence_ratio_sq, probe.gamma, env.lam, t)
    bracket = _purity_bracket(*args)
    if target is EstimationTarget.GAMMA:
        dbracket = _purity_bracket_dgamma(*args)
    else:
        dbracket = _purity_bracket_dlam(*args)
    return -0.5 * dbracket * bracket**-1.5


def _second_term(mu: float, dmu: float) -> float:
    """2 (dmu)^2 / (1 - mu^4), with the removable dmu = 0 limit."""
    if dmu == 0.0:
        return 0.0
    denom = 1.0 - mu**4
    if denom <= 0.0:
        raise ValueError("pure-state limit: purity derivative nonzero at purity 1")
    return 2.0 * dmu**2 / denom


def qfi_analytic(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Closed-form quantum Fisher information for the chosen target."""
    target = _as_target(target)
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    mu = purity_exact(probe, env, t)
    phi = phi_gamma(probe, env, t) if target is EstimationTarget.GAMMA else phi_lambda(probe, env, t)
    first = mu**4 / (2.0 * (1.0 + mu**2)) * _ADJ_TRACE_RESCALE * phi.value
    return first + _second_term(mu, purity_derivative(target, probe, env, t))


#: stencil components: model._covariance_terms_dd (sxx [:5], sxp [5:9],
#: spp [9:12]) then model._purity_bracket_terms_dd [12:]
_N_TERMS = 18


def _qfi_numeric_points(target, probe: ProbeSpec, gamma, lam, t, step_policy=None) -> list:
    """`qfi_numeric` at n points in one array evaluation.

    gamma, lam and t are each a number, or a list with one value per point;
    the probe supplies mass, sigma0 and ell0.  Each value equals the
    one-point result bit for bit, and a failure raises what the lowest
    failing point raises on its own.

    All 2*levels stencil points and the centre go through one pass of the
    monomial split (model._covariance_terms_dd, _purity_bracket_terms_dd) in
    double-double: the huge theta-independent parts then cancel exactly, and
    the adjugate trace below keeps enough consistent digits to survive its
    own cancellation (it can collapse by twelve orders of magnitude).
    Monomials free of theta come back without the stencil axis; their
    difference is exactly zero, so the Richardson tableau T[level][order]
    runs on the others only, column by column, keeping two columns.
    Convergence requires T[L-1][L-1] to agree with T[L-2][L-3] to rel_tol
    componentwise; estimates at the roundoff floor of the central difference
    count as converged zeros.  The adjugate trace and the purity terms are
    assembled per point in scalar double-double, where a handful of
    operations cost less than array dispatch and CPython rounds the powers.
    """
    target = _as_target(target)
    policy = step_policy or StepPolicy()
    levels = policy.levels
    if levels < 3:
        raise ValueError(f"levels must be >= 3, got {levels}")
    floor = policy.scale_floor if policy.scale_floor is not None else _DEFAULT_SCALE_FLOOR[target]
    m, s0, eps = probe.mass, probe.sigma0, probe.coherence_ratio_sq
    n = max((len(v) for v in (gamma, lam, t) if isinstance(v, list)), default=1)
    g, ll, tt = (np.array(v, dtype=float) if isinstance(v, list) else v for v in (gamma, lam, t))

    # CPython float semantics: overflow and NaN pass silently (and then fail
    # the convergence test), division by zero raises
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        x0 = np.atleast_1d(np.asarray(g if target is EstimationTarget.GAMMA else ll, dtype=float))
        h0 = policy.rel_step * np.maximum(np.abs(x0), floor)
        steps = [h0]
        for _ in range(levels - 1):
            steps.append(steps[-1] / 2.0)
        h = np.array(steps)
        x = np.concatenate([x0 + h, x0 - h, x0[None]])
        gg, lx = (x, ll) if target is EstimationTarget.GAMMA else (g, x)
        terms = _covariance_terms_dd(m, s0, eps, gg, lx, tt) + _purity_bracket_terms_dd(
            m, s0, eps, gg, lx, tt
        )
        moving = [k for k, (hi, _) in enumerate(terms) if np.ndim(hi) == 2]
        still = [k for k in range(_N_TERMS) if k not in moving]
        f = np.empty((2, len(moving), 2 * levels + 1, n))
        centre = np.empty((2, _N_TERMS, n))
        for j, k in enumerate(moving):
            f[0, j], f[1, j] = terms[k]
        for k in still:
            centre[0, k], centre[1, k] = terms[k]
        del terms
        centre[:, moving] = f[:, :, -1]
        # a non-finite still monomial has a NaN difference, which fails its point
        bad = ~np.isfinite(centre[:, still]).all(axis=(0, 1))

        fp = f[0, :, :levels], f[1, :, :levels]
        fm = f[0, :, levels:-1], f[1, :, levels:-1]
        fscale = np.maximum(np.abs(fp[0]), np.abs(fm[0])).max(axis=1)
        width = (x0 + h) - (x0 - h)  # exact in float arithmetic
        column = _dd.dd_mul_d(_dd.dd_sub(fp, fm), 1.0 / width)
        for j in range(1, levels):
            if j == levels - 2:
                prev = column[0][:, 1], column[1][:, 1]
            fac = 4.0**j
            column = _dd.dd_mul_d(
                _dd.dd_sub(
                    _dd.dd_mul_d((column[0][:, 1:], column[1][:, 1:]), fac),
                    (column[0][:, :-1], column[1][:, :-1]),
                ),
                1.0 / (fac - 1.0),
            )
        last = column[0][:, 0], column[1][:, 0]

        err = np.abs(last[0] - prev[0])
        mag = np.maximum(np.abs(last[0]), np.abs(prev[0]))
        # cancellation noise of the smallest-step plain-float difference, with headroom;
        # the dd evaluation sits far below it, so this is deliberately conservative
        noise_floor = 1e3 * 2.3e-16 * fscale * 2.0 ** (levels - 1) / h0
        ok = ((err <= policy.rel_tol * mag) | (mag <= noise_floor)).all(axis=0) & ~bad
        spread = np.where(bad, np.nan, np.max(err / np.maximum(mag, 1e-300), axis=0))

    d = np.zeros((2, _N_TERMS, n))  # the still monomials' differences are exactly (0, 0)
    d[0, moving], d[1, moving] = last
    per_point = [v if isinstance(v, list) else [v] * n for v in (gamma, lam, t)]
    point_terms = zip(
        centre[0, :12].T.tolist(), centre[1, :12].T.tolist(), d[0].T.tolist(), d[1].T.tolist()
    )
    values = []
    for i, (converged, (c_hi, c_lo, d_hi, d_lo), gi, li, ti) in enumerate(
        zip(ok.tolist(), point_terms, *per_point)
    ):
        if not converged:
            raise ConvergenceError(f"derivative failed to converge: relative spread {spread[i]:.3e}")
        s_terms, dd = list(zip(c_hi, c_lo)), list(zip(d_hi, d_lo))
        sxx, sxp, spp = _dd.dd_sum(s_terms[:5]), _dd.dd_sum(s_terms[5:9]), _dd.dd_sum(s_terms[9:])
        dsxx, dsxp, dspp = _dd.dd_sum(dd[:5]), _dd.dd_sum(dd[5:9]), _dd.dd_sum(dd[9:12])

        # trace of (adj(S) dS)^2 for the symmetric 2x2 pair, in double-double
        m00 = _dd.dd_sub(_dd.dd_mul(spp, dsxx), _dd.dd_mul(sxp, dsxp))
        m01 = _dd.dd_sub(_dd.dd_mul(spp, dsxp), _dd.dd_mul(sxp, dspp))
        m10 = _dd.dd_sub(_dd.dd_mul(sxx, dsxp), _dd.dd_mul(sxp, dsxx))
        m11 = _dd.dd_sub(_dd.dd_mul(sxx, dspp), _dd.dd_mul(sxp, dsxp))
        trace_dd = _dd.dd_sum(
            [_dd.dd_mul(m00, m00), _dd.dd_mul(m11, m11), _dd.dd_mul_d(_dd.dd_mul(m01, m10), 2.0)]
        )

        # the purity derivative follows from the differenced bracket through
        # the exact map mu = D^(-1/2)
        bracket = _purity_bracket(m, s0, eps, gi, li, ti)
        mu = bracket**-0.5
        dbracket = _dd.dd_sum(dd[12:])
        dmu = -0.5 * (dbracket[0] + dbracket[1]) * bracket**-1.5
        first = mu**4 / (2.0 * (1.0 + mu**2)) * (trace_dd[0] + trace_dd[1])
        values.append(first + _second_term(mu, dmu))
    return values


def qfi_numeric(
    target,
    probe: ProbeSpec,
    env: EnvironmentSpec,
    t: float,
    step_policy: StepPolicy | None = None,
) -> float:
    """Quantum Fisher information from the general Gaussian formula.

    The covariance and purity derivatives are taken numerically, so this is
    an independent oracle for `qfi_analytic`.
    """
    target = _as_target(target)
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    return _qfi_numeric_points(target, probe, probe.gamma, env.lam, t, step_policy)[0]


def cfi_closed(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Closed-form classical Fisher information of the position readout."""
    target = _as_target(target)
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    s0 = probe.sigma0
    b_sq = kernel_params(probe, env, t).b_sq
    if target is EstimationTarget.GAMMA:
        return (probe.mass / (HBAR * t) + probe.gamma / s0**2) ** 2 / (8.0 * s0**4 * b_sq**2)
    # 1/18 follows from (dV/dlam)^2/(2 V^2) with V = 2 hbar^2 t^2 sigma0^2 B^2 / m^2
    return t**2 / (18.0 * s0**4 * b_sq**2)


def _density_variance(probe: ProbeSpec, lam: float, gamma: float, t: float) -> float:
    sxx, _, _ = _covariance_entries(
        probe.mass, probe.sigma0, probe.coherence_ratio_sq, gamma, lam, t
    )
    return probe.sigma0**2 * sxx / 2.0


def cfi_quadrature(
    target,
    probe: ProbeSpec,
    env: EnvironmentSpec,
    t: float,
    step_policy: StepPolicy | None = None,
) -> CfiQuadrature:
    """Position-readout CFI by direct quadrature and by the variance identity.

    The readout density is a zero-mean Gaussian of variance V(theta); oracle
    (a) integrates (d_theta P)^2 / P with a finite-difference d_theta P,
    oracle (b) evaluates (d_theta V)^2 / (2 V^2) with the analytic d_theta V.
    Both are returned and must agree.
    """
    target = _as_target(target)
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    policy = step_policy or StepPolicy()
    floor = policy.scale_floor if policy.scale_floor is not None else _DEFAULT_SCALE_FLOOR[target]
    g, lam, s0 = probe.gamma, env.lam, probe.sigma0
    tau = tau0(probe)
    th = t / tau

    V = _density_variance(probe, lam, g, t)
    if target is EstimationTarget.GAMMA:
        dV = s0**2 * (th + g * th**2)
        x0 = g
    else:
        dV = (2.0 / 3.0) * HBAR**2 * t**3 / probe.mass**2
        x0 = lam
    identity = dV**2 / (2.0 * V**2)

    h = policy.rel_step * max(abs(x0), floor)

    def var_at(x: float) -> float:
        gg, ll = (x, lam) if target is EstimationTarget.GAMMA else (g, x)
        return _density_variance(probe, ll, gg, t)

    def probe_step(hh: float) -> tuple[float, float]:
        v_p, v_m = var_at(x0 + hh), var_at(x0 - hh)
        return abs(v_p - v_m) / V, abs(v_p + v_m - 2.0 * V) / (2.0 * V)

    # V is at most quadratic in theta, so its central difference is exact for
    # any step.  Grow h until the change in V is visible above float rounding,
    # aim the antisymmetric (linear) change at 3e-4 relative so the density
    # difference keeps ~12 digits, and cap the symmetric (curvature) change
    # so the tableau below can remove it.
    dv_rel, quad_rel = probe_step(h)
    for _ in range(8):
        if dv_rel > 0.0 or quad_rel > 1e-12:
            break
        h *= 1e4
        dv_rel, quad_rel = probe_step(h)
    for _ in range(3):
        if dv_rel <= 0.0:
            break
        factor = 3e-4 / dv_rel
        if 0.1 < factor < 10.0:
            break
        h *= factor
        dv_rel, quad_rel = probe_step(h)
    if quad_rel > 1e-3:
        h *= math.sqrt(1e-3 / quad_rel)

    steps = [h / 2.0**i for i in range(4)]
    pairs = [(var_at(x0 + hh), var_at(x0 - hh)) for hh in steps]
    inv_widths = [1.0 / (2.0 * hh) for hh in steps]

    def gauss(x: float, var: float) -> float:
        return math.exp(-(x * x) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    def integrand(x: float) -> float:
        p = gauss(x, V)
        d = [
            (gauss(x, vp) - gauss(x, vm)) * iw
            for (vp, vm), iw in zip(pairs, inv_widths)
        ]
        for j in range(1, 4):
            fac = 4.0**j
            d = [(fac * d[i] - d[i - 1]) / (fac - 1.0) for i in range(1, len(d))]
        return d[0] ** 2 / p

    span = 12.0 * math.sqrt(V)
    # finite-difference roundoff floor of the quadrature route: ~(eps/h)^2
    noise_floor = 1e8 * (2.3e-16 / h) ** 2
    epsabs = 1e-12 * identity if identity > noise_floor else noise_floor
    from scipy import integrate  # deferred: the only scipy user, kept off `import pmcorr`

    out = integrate.quad(integrand, -span, span, epsabs=epsabs, epsrel=1e-10, limit=200, full_output=1)
    if len(out) >= 4:
        raise ConvergenceError(f"quadrature tolerance not met: {out[3]}")
    quad_value = float(out[0])

    scale = max(abs(quad_value), identity)
    if scale > noise_floor and abs(quad_value - identity) > 1e-6 * scale:
        raise ConvergenceError(
            f"CFI oracles disagree: quadrature {quad_value!r} vs identity {identity!r}"
        )
    return CfiQuadrature(quadrature=quad_value, gaussian_identity=identity)


def cramer_rao_bound(fisher_info: float, n_repeats: int) -> float:
    """Smallest achievable standard deviation: 1/sqrt(N * F)."""
    if fisher_info == 0:
        raise ValueError("non-informative: Fisher information is zero")
    if fisher_info < 0:
        raise ValueError(f"Fisher information must be >= 0, got {fisher_info}")
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    return 1.0 / math.sqrt(n_repeats * fisher_info)


def fisher_information(
    target,
    probe: ProbeSpec,
    env: EnvironmentSpec,
    t: float,
    step_policy: StepPolicy | None = None,
) -> FisherResult:
    """Evaluate every route at one point and bundle the results."""
    target = _as_target(target)
    quad = cfi_quadrature(target, probe, env, t, step_policy)
    return FisherResult(
        qfi_analytic=qfi_analytic(target, probe, env, t),
        qfi_numeric=qfi_numeric(target, probe, env, t, step_policy),
        cfi_closed=cfi_closed(target, probe, env, t),
        cfi_quadrature=quad.quadrature,
        purity=purity_exact(probe, env, t),
        purity_derivative=purity_derivative(target, probe, env, t),
    )
