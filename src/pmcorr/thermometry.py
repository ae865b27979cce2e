"""Coupling-temperature conversion and the temporal gain of information.

The scattering constant of a thermal gas scales as N * T^(3/2); inverting
that map turns coupling estimation into thermometry.  The interaction time
that maximizes the relative purity rate (1/mu)|dmu/dt| marks the knee of the
information curve, and its reduction for correlated probes is reported on a
decibel scale (TGI).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import HBAR, K_BOLTZMANN
from .fisher import ConvergenceError, EstimationTarget, qfi_analytic
from .model import (
    EnvironmentSpec,
    ProbeSpec,
    _purity_bracket,
    _purity_bracket_coefficients,
    _purity_bracket_dt,
    purity_exact,
    tau0,
)

#: relative margin by which the rate at the knee must exceed the rate at the
#: neighbouring extrema, far above the ~1e-15 rounding of the rate, so a
#: maximum that rounding could invent or hide is not reported
_KNEE_PROMINENCE = 1e-12
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class TgiRow:
    """One row of the information-gain table."""

    gamma: float
    tau_max: float                 # s
    purity_at_tau_max: float
    relative_purity_rate: float    # s^-1, evaluated at tau_max
    lambda_sq_qfi: float           # dimensionless lam^2 * QFI
    tgi_db: float


#: embedded reference rows for lam = 1e15 m^-2 s^-1 and the fullerene probe
TABLE1_REFERENCE = (
    TgiRow(-50.0, 17.1e-6, 0.563, 58488.0, 0.246, 11.28),
    TgiRow(-25.0, 27.2e-6, 0.563, 36861.0, 0.247, 9.24),
    TgiRow(-1.0, 183.2e-6, 0.563, 5472.0, 0.247, 0.97),
    TgiRow(0.0, 228.4e-6, 0.563, 4377.0, 0.247, 0.0),
    TgiRow(35.0, 21.7e-6, 0.563, 46117.0, 0.247, 10.22),
    TgiRow(70.0, 13.7e-6, 0.563, 73191.0, 0.248, 12.23),
    TgiRow(150.0, 8.2e-6, 0.563, 121646.0, 0.247, 14.45),
)


def lambda_from_temperature(
    temperature: float, m_air: float, number_density: float, molecule_size: float
) -> float:
    """Effective scattering constant (m^-2 s^-1) of a thermal gas environment."""
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if not (m_air > 0 and number_density > 0 and molecule_size > 0):
        raise ValueError("m_air, number_density and molecule_size must be positive")
    try:
        thermal = (K_BOLTZMANN * temperature) ** 1.5
    except OverflowError:
        raise OverflowError(
            f"temperature={temperature:g} K overflows the float range: (k_B*T)^1.5 needs T "
            f"below ~{sys.float_info.max ** (2.0 / 3.0) / K_BOLTZMANN:.2g} K"
        ) from None
    lam = (
        (8.0 / (3.0 * HBAR**2))
        * math.sqrt(2.0 * math.pi * m_air)
        * thermal
        * number_density
        * molecule_size**2
    )
    if lam == math.inf:
        raise OverflowError(
            f"the coupling at temperature={temperature:g} K overflows the float range: "
            f"a product in it exceeds ~{sys.float_info.max:.2g}"
        )
    return lam


def temperature_from_lambda(
    lam: float, m_air: float, number_density: float, molecule_size: float
) -> float:
    """Exact inverse of `lambda_from_temperature`."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not (m_air > 0 and number_density > 0 and molecule_size > 0):
        raise ValueError("m_air, number_density and molecule_size must be positive")
    base = (
        3.0 * HBAR**2 * lam
        / (8.0 * math.sqrt(2.0 * math.pi * m_air) * number_density * molecule_size**2)
    )
    return base ** (2.0 / 3.0) / K_BOLTZMANN


def decoherence_time(lam: float, delta_x: float) -> float:
    """Time 1/(lam dx^2) to suppress coherence over distance dx; inf for lam = 0."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not 0.0 < delta_x < math.inf:
        raise ValueError(f"delta_x must be positive and finite, got {delta_x}")
    if lam == 0:
        return math.inf  # no decoherence
    return 1.0 / (lam * delta_x**2)


def relative_purity_rate(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """(1/mu)|dmu/dt| in s^-1, from the analytic time derivative."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")
    args = (probe.mass, probe.sigma0, probe.coherence_ratio_sq, probe.gamma, env.lam, t)
    return abs(_purity_bracket_dt(*args)) / (2.0 * _purity_bracket(*args))


def _polyval(coefficients, x: float) -> float:
    """Horner evaluation of a polynomial given in ascending powers."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def tau_max_exact(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Interaction time of the knee: the interior maximum of the purity rate.

    With B = 1/purity^2, the quartic purity bracket, the rate is |B'|/(2B)
    and d(B'/B)/dt = P/B^2 with P = B''B - B'^2 of degree 6.  The extrema are
    the real positive roots of P, solved in x = t / `tau_max_approx`, where
    the coefficients are of order one.  The real roots (eigenvalues with a
    zero imaginary part) are polished by Newton steps on P.  A root is a
    local maximum of the rate exactly when sign(P') sign(B') < 0; the knee is
    the maximum with the largest rate among those whose rate exceeds that of
    the neighbouring extrema by more than rounding.  Where no such maximum
    exists (gamma = 0 at lam = 1e33, gamma = 35 at 1e25) this raises
    ConvergenceError.
    """
    if not env.lam > 0:
        raise ValueError("tau_max requires lam > 0")
    scale = tau_max_approx(probe, env)
    coefficients = _purity_bracket_coefficients(
        probe.mass, probe.sigma0, probe.coherence_ratio_sq, probe.gamma, env.lam
    )
    try:
        b = [c * scale**k for k, c in enumerate(coefficients)]
    except OverflowError:  # scale**4 leaves the float range for lam < ~1e-215
        raise ConvergenceError(
            f"no interior maximum of the purity rate: t^4 overflows at lam={env.lam:g}"
        ) from None
    d1 = [k * b[k] for k in range(1, 5)]   # B'
    d2 = [k * d1[k] for k in range(1, 4)]  # B''
    p = [0.0] * 7
    for i, u in enumerate(d2):
        for j, v in enumerate(b):
            p[i + j] += u * v
    for i, u in enumerate(d1):
        for j, v in enumerate(d1):
            p[i + j] -= u * v
    dp = [k * p[k] for k in range(1, 7)]

    # Leading coefficients below the rounding of the largest only add roots far
    # from x ~ 1; left in, they stretch the companion matrix so far that the
    # eigenvalue solver loses the roots near 1 (weak coupling, lam < ~1e-3).
    negligible = _EPS * max(map(abs, p))
    degree = 6
    while abs(p[degree]) <= negligible:
        degree -= 1
    companion = np.eye(degree, k=-1)
    companion[0] = [-c / p[degree] for c in p[degree - 1::-1]]
    roots = np.linalg.eigvals(companion)

    extrema = []
    for z in roots:
        if not (z.real > 0 and z.imag == 0.0):
            continue
        x = float(z.real)
        for _ in range(2):
            slope = _polyval(dp, x)
            if slope == 0.0:
                break
            x -= _polyval(p, x) / slope
        if 0.0 < x < math.inf:
            extrema.append(x)
    extrema.sort()
    rates = [abs(_polyval(d1, x)) / (2.0 * _polyval(b, x)) for x in extrema]

    knee = None
    for i, x in enumerate(extrema):
        if _polyval(dp, x) * _polyval(d1, x) >= 0.0:
            continue  # a minimum of the rate
        neighbours = rates[max(i - 1, 0):i] + rates[i + 1:i + 2]
        if any(rates[i] <= r * (1.0 + _KNEE_PROMINENCE) for r in neighbours):
            continue  # not resolvable from the adjacent minimum
        if knee is None or rates[i] > rates[knee]:
            knee = i
    if knee is None:
        raise ConvergenceError(
            f"no interior maximum of the purity rate at gamma={probe.gamma:g}, lam={env.lam:g}"
        )
    return extrema[knee] * scale


def tau_max_approx(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Closed-form maximizer of the cubic-term purity approximation."""
    if not env.lam > 0:
        raise ValueError("tau_max requires lam > 0")
    tau = tau0(probe)
    return (3.0 * tau**2 / (2.0 * (1.0 + probe.gamma**2) * env.lam * probe.sigma0**2)) ** (1.0 / 3.0)


def _tgi_db(t_gamma: float, t_ref: float) -> float:
    """-10 log10(t_gamma / t_ref), with +0.0 rather than -0.0 for equal times."""
    return 0.0 - 10.0 * math.log10(t_gamma / t_ref)


def tgi(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Temporal gain of information in dB, referenced to the gamma = 0 probe."""
    t_gamma = tau_max_exact(probe, env)
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)
    return _tgi_db(t_gamma, t_ref)


def tgi_approx(gamma: float) -> float:
    """Approximate TGI 10 log10 (1+gamma^2)^(1/3); even in gamma, coupling-free."""
    return (10.0 / 3.0) * math.log10(1.0 + gamma**2)


def build_table1(probe: ProbeSpec, lam: float, gammas: Sequence[float]) -> list[TgiRow]:
    """Information-gain rows for each correlation value, in input order."""
    if not lam > 0:
        raise ValueError("build_table1 requires lam > 0")
    env = EnvironmentSpec(lam=lam)
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)
    rows = []
    for g in gammas:
        try:
            p = probe.with_gamma(float(g))
            t_max = tau_max_exact(p, env)
            rows.append(
                TgiRow(
                    gamma=float(g),
                    tau_max=t_max,
                    purity_at_tau_max=purity_exact(p, env, t_max),
                    relative_purity_rate=relative_purity_rate(p, env, t_max),
                    lambda_sq_qfi=lam**2 * qfi_analytic(EstimationTarget.LAMBDA, p, env, t_max),
                    tgi_db=_tgi_db(t_max, t_ref),
                )
            )
        except (ValueError, ConvergenceError) as exc:
            raise type(exc)(f"table row gamma={g}: {exc}") from exc
    return rows
