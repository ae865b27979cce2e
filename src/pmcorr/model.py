"""Correlated Gaussian probe in a Markovian scattering bath.

The probe starts as a transverse Gaussian wave packet whose quadratic phase
encodes a position-momentum correlation ``gamma``; a partially incoherent
source is described by a finite coherence length ``ell0``.  Free flight plus
collisional decoherence of strength ``lam`` (m^-2 s^-1) keeps the state
Gaussian, so it is carried either by its second moments (`covariance`) or by
the Gaussian kernel of the position-space density matrix (`kernel_params`).

Covariance convention: entries are dimensionless (x in units of sigma0, p in
units of hbar/sigma0) and scaled so a pure uncorrelated probe at t=0 has unit
determinant.  With that normalization det(cov) = 1/purity^2 holds exactly,
which is what the Fisher-information formulas in `pmcorr.fisher` assume.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import _dd
from .constants import (
    AIR_MOLECULE_MASS,
    AIR_NUMBER_DENSITY,
    FULLERENE_ELL0,
    FULLERENE_MASS,
    FULLERENE_MOLECULE_SIZE,
    FULLERENE_SIGMA0,
    HBAR,
)

#: covariance determinants may round below 1 by this much near the pure manifold
DET_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ProbeSpec:
    """Matter-wave probe: mass, initial width, coherence length, correlation.

    Pass ``ell0=math.inf`` for a fully coherent (ideally collimated) source;
    the 1/ell0^2 terms are then dropped exactly instead of through a large
    float, so the pure-state limit is free of cancellation error.
    """

    mass: float
    sigma0: float
    ell0: float = math.inf
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0)):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not self.ell0 > 0:
            raise ValueError(f"ell0 must be positive (math.inf allowed), got {self.ell0}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")

    @property
    def is_fully_coherent(self) -> bool:
        return math.isinf(self.ell0)

    @property
    def coherence_ratio_sq(self) -> float:
        """(sigma0/ell0)^2; exactly zero for a fully coherent source."""
        return 0.0 if math.isinf(self.ell0) else (self.sigma0 / self.ell0) ** 2

    def with_gamma(self, gamma: float) -> "ProbeSpec":
        return replace(self, gamma=gamma)


@dataclass(frozen=True)
class EnvironmentSpec:
    """Scattering environment, characterized by the effective constant ``lam``.

    The microscopic tuple (temperature, m_air, number_density, molecule_size)
    is optional; when present it must reproduce ``lam`` through
    `pmcorr.thermometry.lambda_from_temperature`.
    """

    lam: float
    temperature: float | None = None
    m_air: float | None = None
    number_density: float | None = None
    molecule_size: float | None = None

    def __post_init__(self):
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        micro = (self.temperature, self.m_air, self.number_density, self.molecule_size)
        present = [v is not None for v in micro]
        if any(present) and not all(present):
            raise ValueError(
                "temperature, m_air, number_density and molecule_size must be supplied together"
            )
        if all(present):
            from .thermometry import lambda_from_temperature  # deferred, avoids import cycle

            expected = lambda_from_temperature(
                self.temperature, self.m_air, self.number_density, self.molecule_size
            )
            if not math.isclose(self.lam, expected, rel_tol=1e-9):
                raise ValueError(
                    f"lam={self.lam:g} inconsistent with its microscopic parameters "
                    f"(they give {expected:g})"
                )


@dataclass(frozen=True)
class KernelParams:
    """Coefficients of the evolved density-matrix Gaussian kernel.

    a1 fixes the diagonal density rho(x, x) = n_t * exp(-2 a1 x^2); that is
    the only piece of the kernel the Fisher pipeline consumes (b_sq enters
    the closed-form CFI).  a2, a3 complete the off-diagonal structure.
    """

    a1: float    # m^-2
    a2: float    # m^-2
    a3: float    # m^-2
    b_sq: float  # m^-4
    n_t: float   # m^-1

    def __post_init__(self):
        if not self.a1 > 0:
            raise ValueError(f"a1 must be positive, got {self.a1}")
        if not self.b_sq > 0:
            raise ValueError(f"b_sq must be positive, got {self.b_sq}")
        if not math.isclose(self.n_t, math.sqrt(2 * self.a1 / math.pi), rel_tol=1e-12):
            raise ValueError("n_t must equal sqrt(2 a1 / pi)")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Dimensionless 2x2 second-moment matrix (see module docstring).

    First moments vanish identically for this channel and are not stored.
    ``det_hint`` lets `covariance` pass in the determinant it evaluated in
    extended precision; entries can exceed the determinant by many orders of
    magnitude, so recomputing it from the rounded entries would lose digits.
    """

    sxx: float
    sxp: float
    spp: float
    det_hint: float | None = None

    @property
    def det(self) -> float:
        if self.det_hint is not None:
            return self.det_hint
        return _dd.det2x2(self.sxx, self.sxp, self.spp)

    def as_array(self) -> np.ndarray:
        return np.array([[self.sxx, self.sxp], [self.sxp, self.spp]])

    def adjugate(self) -> np.ndarray:
        return np.array([[self.spp, -self.sxp], [-self.sxp, self.sxx]])


def fullerene_probe(gamma: float = 0.0, ell0: float = FULLERENE_ELL0) -> ProbeSpec:
    """Probe of the reference fullerene scenario with the given correlation."""
    return ProbeSpec(mass=FULLERENE_MASS, sigma0=FULLERENE_SIGMA0, ell0=ell0, gamma=gamma)


def air_environment(lam: float) -> EnvironmentSpec:
    """Reference air environment carrying the microscopic defaults for lam."""
    from .thermometry import temperature_from_lambda

    return EnvironmentSpec(
        lam=lam,
        temperature=temperature_from_lambda(
            lam, AIR_MOLECULE_MASS, AIR_NUMBER_DENSITY, FULLERENE_MOLECULE_SIZE
        ),
        m_air=AIR_MOLECULE_MASS,
        number_density=AIR_NUMBER_DENSITY,
        molecule_size=FULLERENE_MOLECULE_SIZE,
    )


# ---------------------------------------------------------------------------
# float-level core
#
# These take bare floats (gamma and lam possibly outside their physical
# domain) so that numerical differentiation can probe them analytically
# continued; the public API validates through the spec dataclasses.
# ---------------------------------------------------------------------------

def _tau0(mass: float, sigma0: float) -> float:
    return mass * sigma0**2 / HBAR


def _cpow(x, k):
    """x**k by CPython's pow, elementwise for an array.

    numpy's ** rounds differently on a few percent of inputs, and array
    evaluations must match the one-point ones bit for bit.
    """
    if isinstance(x, np.ndarray):
        return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)
    return x**k


def _purity_bracket_terms_dd(mass, sigma0, eps, gamma, lam, t) -> list:
    """Monomial split of 1/purity^2, as double-double pairs (cf. covariance terms)."""
    tau = _tau0(mass, sigma0)
    g_dd = _dd.dd(gamma)
    lam_dd = _dd.dd(lam)
    return [
        _dd.dd(1.0 + 2.0 * eps),
        _dd.dd_mul_d(lam_dd, 4.0 * sigma0**2 * t),
        _dd.dd_mul_d(_dd.dd_mul(g_dd, lam_dd), (4.0 * HBAR / mass) * _cpow(t, 2)),
        _dd.dd_mul_d(
            _dd.dd_mul(_dd.dd_mul(g_dd, g_dd), lam_dd),
            (4.0 * HBAR / (3.0 * tau * mass)) * _cpow(t, 3),
        ),
        _dd.dd_mul_d(lam_dd, (4.0 * HBAR * (1.0 + 2.0 * eps) / (3.0 * tau * mass)) * _cpow(t, 3)),
        _dd.dd_mul_d(_dd.dd_mul(lam_dd, lam_dd), (4.0 * HBAR**2 / (3.0 * mass**2)) * _cpow(t, 4)),
    ]


#: largest coupling whose square is a finite double (~1.3e154)
_LAMBDA_SQ_LIMIT = math.sqrt(sys.float_info.max)


def _purity_bracket_coefficients(mass, sigma0, eps, gamma, lam) -> tuple:
    """Coefficients of `_purity_bracket` in ascending powers of t."""
    tau = _tau0(mass, sigma0)
    try:
        lam_sq = lam**2
    except OverflowError:
        raise OverflowError(
            f"lambda={lam:g} overflows the float range: lambda^2 needs lambda below "
            f"~{_LAMBDA_SQ_LIMIT:.2g} m^-2 s^-1"
        ) from None
    return (
        1.0 + 2.0 * eps,
        4.0 * sigma0**2 * lam,
        4.0 * gamma * lam * HBAR / mass,
        4.0 * HBAR * lam * (gamma**2 + 1.0 + 2.0 * eps) / (3.0 * tau * mass),
        4.0 * lam_sq * HBAR**2 / (3.0 * mass**2),
    )


def _purity_bracket(mass, sigma0, eps, gamma, lam, t):
    """1/purity^2 as a quartic in t; eps = (sigma0/ell0)^2."""
    c0, c1, c2, c3, c4 = _purity_bracket_coefficients(mass, sigma0, eps, gamma, lam)
    return c0 + c1 * t + c2 * t**2 + c3 * t**3 + c4 * t**4


def _purity_bracket_dt(mass, sigma0, eps, gamma, lam, t):
    tau = _tau0(mass, sigma0)
    return (
        4.0 * sigma0**2 * lam
        + (8.0 * gamma * lam * HBAR / mass) * t
        + (4.0 * HBAR * lam * (gamma**2 + 1.0 + 2.0 * eps) / (tau * mass)) * t**2
        + (16.0 * lam**2 * HBAR**2 / (3.0 * mass**2)) * t**3
    )


def _purity_bracket_dgamma(mass, sigma0, eps, gamma, lam, t):
    tau = _tau0(mass, sigma0)
    return (4.0 * lam * HBAR / mass) * t**2 + (8.0 * gamma * HBAR * lam / (3.0 * tau * mass)) * t**3


def _purity_bracket_dlam(mass, sigma0, eps, gamma, lam, t):
    tau = _tau0(mass, sigma0)
    return (
        4.0 * sigma0**2 * t
        + (4.0 * gamma * HBAR / mass) * t**2
        + (4.0 * HBAR * (gamma**2 + 1.0 + 2.0 * eps) / (3.0 * tau * mass)) * t**3
        + (8.0 * lam * HBAR**2 / (3.0 * mass**2)) * t**4
    )


def _covariance_terms_dd(mass, sigma0, eps, gamma, lam, t) -> list:
    """Monomial split of the scaled covariance, as double-double pairs.

    Layout: sxx = sum([:5]), sxp = sum([5:9]), spp = sum([9:]).  Each term is
    a monomial in gamma and lam, and every product touching gamma or lam is a
    compensated one, so finite differences taken term-by-term cancel the
    (possibly enormous) common parts exactly instead of losing them to float
    rounding.  Constants shared between evaluations round identically.
    """
    tau = _tau0(mass, sigma0)
    th = t / tau
    e2 = 1.0 + 2.0 * eps
    th_dd = _dd.dd(th)
    th2 = _dd.dd_mul(th_dd, th_dd)
    th3 = _dd.dd_mul(th2, th_dd)
    g2 = _dd.dd_mul(_dd.dd(gamma), _dd.dd(gamma))
    lt = _dd.dd_mul_d(_dd.dd(lam), sigma0**2 * tau)
    return [
        _dd.dd(1.0),
        _dd.dd_mul_d(th_dd, 2.0 * gamma),
        _dd.dd_mul_d(th2, e2),
        _dd.dd_mul(g2, th2),
        _dd.dd_mul_d(_dd.dd_mul(th3, lt), 4.0 / 3.0),
        _dd.dd(gamma),
        _dd.dd_mul_d(th_dd, e2),
        _dd.dd_mul(g2, th_dd),
        _dd.dd_mul_d(_dd.dd_mul(th2, lt), 2.0),
        _dd.dd(e2),
        g2,
        _dd.dd_mul_d(_dd.dd_mul(th_dd, lt), 4.0),
    ]


def _covariance_entries(mass, sigma0, eps, gamma, lam, t):
    """Scaled dimensionless (sxx, sxp, spp); polynomial in t, exact at t=0."""
    tau = _tau0(mass, sigma0)
    th = t / tau
    lt = lam * sigma0**2 * tau
    e2 = 1.0 + 2.0 * eps
    g2 = gamma * gamma
    sxx = 1.0 + 2.0 * gamma * th + (e2 + g2) * th**2 + (4.0 / 3.0) * lt * th**3
    sxp = gamma + (e2 + g2) * th + 2.0 * lt * th**2
    spp = e2 + g2 + 4.0 * lt * th
    return sxx, sxp, spp


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tau0(probe: ProbeSpec) -> float:
    """Free-spreading timescale m sigma0^2 / hbar of the probe, in seconds."""
    return _tau0(probe.mass, probe.sigma0)


def kernel_params(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> KernelParams:
    """Gaussian-kernel coefficients of the evolved density matrix at time t > 0.

    The coefficients contain 1/t factors, so the initial state is not
    reachable here; use `covariance` for t = 0.
    """
    if not t > 0:
        raise ValueError("kernel undefined at t=0; use covariance() for the initial moments")
    m, s0, g, lam = probe.mass, probe.sigma0, probe.gamma, env.lam
    inv_l2 = 0.0 if probe.is_fully_coherent else 1.0 / probe.ell0**2

    b_sq = (
        1.0 / (4.0 * s0**4)
        + inv_l2 / (2.0 * s0**2)
        + (m / (2.0 * HBAR * t) + g / (2.0 * s0**2)) ** 2
        + lam * t / (3.0 * s0**2)
    )
    a1 = m**2 / (8.0 * HBAR**2 * t**2 * s0**2 * b_sq)
    a2 = (
        m**2 / (4.0 * HBAR**2 * t**2 * b_sq) * (inv_l2 / 2.0 + lam * t)
        + (lam * t / (12.0 * s0**2 * b_sq)) * (lam * t + 1.0 / (2.0 * s0**2) + 2.0 * inv_l2)
        + m * lam * g / (4.0 * HBAR * s0**2 * b_sq)
        + lam * t * g**2 / (12.0 * s0**4 * b_sq)
    )
    a3 = (
        m / (4.0 * HBAR * t * s0**2 * b_sq) * (lam * t + 1.0 / (2.0 * s0**2) + inv_l2)
        + m * g / (8.0 * HBAR * t * s0**2 * b_sq) * (m / (HBAR * t) + g / s0**2)
    )
    return KernelParams(a1=a1, a2=a2, a3=a3, b_sq=b_sq, n_t=math.sqrt(2.0 * a1 / math.pi))


def covariance(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> CovarianceMatrix:
    """Scaled covariance matrix at time t >= 0 (exact analytic limit at t=0)."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    terms = _covariance_terms_dd(
        probe.mass, probe.sigma0, probe.coherence_ratio_sq, probe.gamma, env.lam, t
    )
    sxx = _dd.dd_sum(terms[:5])
    sxp = _dd.dd_sum(terms[5:9])
    spp = _dd.dd_sum(terms[9:])
    det = _dd.dd_sub(_dd.dd_mul(sxx, spp), _dd.dd_mul(sxp, sxp))
    return CovarianceMatrix(
        sxx=sxx[0] + sxx[1],
        sxp=sxp[0] + sxp[1],
        spp=spp[0] + spp[1],
        det_hint=det[0] + det[1],
    )


def purity_exact(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Tr[rho^2] of the evolved state; always in (0, 1]."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return _purity_bracket(
        probe.mass, probe.sigma0, probe.coherence_ratio_sq, probe.gamma, env.lam, t
    ) ** -0.5


def purity_approx(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Cubic-term approximation of the purity, valid for microsecond-scale flights."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    tau = tau0(probe)
    term = (4.0 * HBAR * env.lam * (probe.gamma**2 + 1.0) / (3.0 * tau * probe.mass)) * t**3
    return (1.0 + term) ** -0.5


def purity_from_covariance(cov: CovarianceMatrix) -> float:
    """Purity det(cov)^(-1/2); clamped to 1 within DET_TOLERANCE of the pure manifold."""
    det = cov.det
    if det < 1.0 - DET_TOLERANCE:
        raise ValueError(f"unphysical covariance: det={det!r} < 1")
    return 1.0 if det < 1.0 else det**-0.5


def position_density_variance(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Variance (m^2) of the position readout density rho(x, x, t)."""
    cov = covariance(probe, env, t)
    return probe.sigma0**2 * cov.sxx / 2.0


def pearson_from_gamma(gamma: float) -> float:
    """Pearson correlation coefficient of x and p for correlation parameter gamma."""
    return gamma / math.sqrt(1.0 + gamma**2)


def gamma_from_pearson(r: float) -> float:
    """Inverse of `pearson_from_gamma`; requires |r| < 1."""
    if not abs(r) < 1.0:
        raise ValueError(f"correlation magnitude must be < 1, got {r}")
    return r / math.sqrt(1.0 - r**2)
