"""Coupling-temperature conversion and the temporal gain of information.

The scattering constant of a thermal gas scales as N * T^(3/2); inverting
that map turns coupling estimation into thermometry.  The interaction time
that maximizes the relative purity rate (1/mu)|dmu/dt| marks the knee of the
information curve, and its reduction for correlated probes is reported on a
decibel scale (TGI).
"""
from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple, Sequence

from .constants import HBAR, K_BOLTZMANN
from .fisher import ConvergenceError, EstimationTarget, _analytic_rows
from .model import (
    EnvironmentSpec,
    ProbeSpec,
    _coefficient_args,
    _derivative,
    _purity_bracket_coefficients,
    _power,
    _require_positive_t,
    tau0,
)

#: relative margin by which the rate at the knee must exceed the rate at the
#: neighbouring extrema, far above the ~1e-15 rounding of the rate, so a
#: maximum that rounding could invent or hide is not reported
_KNEE_PROMINENCE = 1e-12
#: Newton stops once its step is below this fraction of x: convergence is
#: quadratic there, so that last step leaves x correct to rounding
_NEWTON_RTOL = 1e-8


class TgiRow(NamedTuple):
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


def _require_gas(m_air: float, number_density: float, molecule_size: float) -> None:
    """The gas inputs' domain: a ValueError unless each is positive and finite."""
    if not all(0.0 < x < math.inf for x in (m_air, number_density, molecule_size)):
        raise ValueError(f"m_air, number_density and molecule_size must be positive and finite, "
                         f"got {m_air}, {number_density} and {molecule_size}")


def lambda_from_temperature(
    temperature: float, m_air: float, number_density: float, molecule_size: float
) -> float:
    """Effective scattering constant (m^-2 s^-1) of a thermal gas environment.

    Its five factors are multiplied left to right on their significands, the
    exponents summed apart, so it rounds as the plain product does where that
    stays normal, and leaves the float range only with the coupling itself.
    """
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    _require_gas(m_air, number_density, molecule_size)
    kt = K_BOLTZMANN * temperature
    try:
        thermal = kt**1.5
    except OverflowError:
        raise OverflowError(
            f"temperature={temperature:g} K overflows the float range: (k_B*T)^1.5 needs T "
            f"below ~{sys.float_info.max ** (2.0 / 3.0) / K_BOLTZMANN:.2g} K"
        ) from None
    if thermal < sys.float_info.min:  # subnormal or 0: from k_B*T's significand, even exponent
        m, e = math.frexp(kt)
        thermal_parts = (m * 2 ** (e % 2)) ** 1.5, 3 * (e - e % 2) // 2
    else:
        thermal_parts = math.frexp(thermal)
    significand, exponent = 1.0, 0
    for m, e in (
        math.frexp(8.0 / (3.0 * HBAR**2)),
        math.frexp(math.sqrt(2.0 * math.pi * m_air)),
        thermal_parts,
        math.frexp(number_density),
        math.frexp(_power(molecule_size, 2, "molecule_size", "m")),
    ):
        significand, exponent = significand * m, exponent + e
    try:
        return math.ldexp(significand, exponent)
    except OverflowError:
        raise OverflowError(
            f"the coupling at temperature={temperature:g} K overflows the float range: "
            f"it exceeds ~{sys.float_info.max:.2g} m^-2 s^-1"
        ) from None


def temperature_from_lambda(
    lam: float, m_air: float, number_density: float, molecule_size: float
) -> float:
    """Exact inverse of `lambda_from_temperature`.

    T = base^(2/3) / k_B with base = 3 hbar^2 lam / (8 sqrt(2 pi m_air) n d^2).
    The five factors are taken as significands and exponents apart, as
    `lambda_from_temperature` does, and the exponent is divided by 3 before
    the power is taken, so the rounded exponent 2/3 acts on a number near 1
    alone: T keeps its digits at every lam, down to the smallest, and leaves
    the float range only with itself.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    _require_gas(m_air, number_density, molecule_size)
    size_sq = _power(molecule_size, 2, "molecule_size", "m", divisor=True)
    scale = 8.0 * math.sqrt(2.0 * math.pi * m_air)
    (m1, e1), (m2, e2), (m3, e3), (m4, e4), (m5, e5) = (
        math.frexp(x) for x in (3.0 * HBAR**2, lam, scale, number_density, size_sq)
    )
    significand, exponent = m1 * m2 / (m3 * m4 * m5), e1 + e2 - e3 - e4 - e5
    # base = (significand 2^r) 2^(3q): its 2/3 power is (significand 2^r)^(2/3) 2^(2q)
    r = exponent % 3
    power = (significand * 2.0**r) ** (2.0 / 3.0) / K_BOLTZMANN
    try:
        return math.ldexp(power, 2 * (exponent - r) // 3)
    except OverflowError:
        raise OverflowError(
            f"the temperature at lam={lam:g} m^-2 s^-1 overflows the float range: "
            f"it exceeds ~{sys.float_info.max:.2g} K"
        ) from None


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
    """(1/mu)|dmu/dt| = |dB/dt|/(2B) in s^-1, B = 1/mu^2, from the analytic time derivative."""
    _require_positive_t(t)
    [(_, _, rate, _, _)] = _analytic_rows(None, [(probe, env, t)], "t")
    return rate


def _horner(p, x: float) -> tuple[float, float]:
    """p(x) and p'(x) in one Horner pass; p in ascending powers."""
    value = p[-1]
    slope = 0.0
    for c in p[-2::-1]:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _newton(p, x: float, lo: float, hi: float, positive_below: bool):
    """(root, p'(root)) for the one sign change of p in (lo, hi), from the guess x.

    p has the sign ``positive_below`` between lo and the root.  Newton steps
    are kept while they stay inside the bracket and at least halve; otherwise
    the step bisects the bracket in log x, or, towards an open end (lo = 0 or
    hi = inf), moves by a factor 4, 16, 256, ...  Returns None when the root
    lies beyond the float range.
    """
    factor = 4.0
    last = math.inf
    while True:
        value, slope = _horner(p, x)
        if value == 0.0:
            return x, slope
        if (value > 0.0) == positive_below:
            lo = x
        else:
            hi = x
        step = value / slope if slope else math.nan
        nxt = x - step
        if abs(step) <= _NEWTON_RTOL * x:
            return (nxt if lo < nxt < hi else x), slope
        if not (lo < nxt < hi and abs(step) < 0.5 * last):
            if hi == math.inf:
                nxt, factor = x * factor, factor * factor
            elif lo == 0.0:
                nxt, factor = x / factor, factor * factor
            else:
                nxt = math.sqrt(lo) * math.sqrt(hi)
            if not lo < nxt < hi:  # the bracket is two adjacent floats, or left the range
                return (x, slope) if lo > 0.0 and hi < math.inf else None
        last = abs(nxt - x)
        x = nxt


def _positive_roots(p) -> list[tuple[float, float]]:
    """(root, p'(root)) for each positive real root of p, ascending; p in ascending powers.

    Derivative sequence (Collins & Loos, "Real zeros of polynomials", 1982):
    the positive roots of p' cut (0, inf) into pieces on which p is
    monotone, so a piece holds one root exactly when p changes sign across
    it.  Degrees 1 and 2 are solved in closed form, and by Descartes' rule of
    signs a p with no sign change among its coefficients has no positive
    root and one with a single change has exactly one, found without p'.
    Newton starts from the quadratic Taylor model at a critical end of the
    piece where that model puts the root within half the end's abscissa,
    else from 1, where the knee of `tau_max_exact` sits.  A root of even
    multiplicity is found only where p evaluates to exactly zero.
    """
    n = len(p) - 1
    while n > 0 and p[n] == 0.0:
        n -= 1
    if n == 0:
        return []
    if n == 1:
        root = -p[0] / p[1]
        return [(root, p[1])] if 0.0 < root < math.inf else []
    if n == 2:
        c, b, a = p[:3]
        disc = b * b - 4.0 * a * c
        if not disc >= 0.0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if q == 0.0:
            return []
        roots = sorted({r for r in (q / a, c / q) if 0.0 < r < math.inf})
        return [(r, 2.0 * a * r + b) for r in roots]
    signs = [c > 0.0 for c in p[:n + 1] if c]
    changes = sum(map(operator.ne, signs, signs[1:]))
    if changes == 0:
        return []
    if changes == 1:
        root = _newton(p, 1.0, 0.0, math.inf, signs[0])
        return [] if root is None else [root]

    # pieces between 0, the critical points and inf, each end with p and p'' there
    critical = _positive_roots(_derivative(p[:n + 1]))
    ends = (
        [(0.0, 1.0 if signs[0] else -1.0, 0.0)]
        + [(c, _horner(p, c)[0], curvature) for c, curvature in critical]
        + [(math.inf, p[n], 0.0)]
    )
    roots = []
    for (a, fa, ka), (b, fb, kb) in zip(ends, ends[1:]):
        if fb == 0.0:
            roots.append((b, 0.0))
            continue
        if fa == 0.0 or (fa > 0.0) == (fb > 0.0):
            continue
        # squared distance from each end to the root of its Taylor model
        ha = -2.0 * fa / ka if ka else -1.0
        hb = -2.0 * fb / kb if kb else -1.0
        a_near = 0.0 < ha <= 0.25 * a * a
        b_near = 0.0 < hb <= 0.25 * b * b
        if a_near and not (b_near and hb < ha):
            x = a + math.sqrt(ha)
        elif b_near:
            x = b - math.sqrt(hb)
        elif a < 1.0 < b:
            x = 1.0
        elif b == math.inf:
            x = 2.0 * a
        elif a == 0.0:
            x = 0.5 * b
        else:
            x = math.sqrt(a) * math.sqrt(b)
        if not a < x < b:
            x = math.sqrt(a) * math.sqrt(b)
        root = _newton(p, x, a, b, fa > 0.0)
        if root is not None:
            roots.append(root)
    return roots


def _stationarity_coefficients(b) -> tuple[list, list]:
    """B' (in B's slots) and P = B''B - B'^2 from the coefficients b of the quartic B, ascending."""
    d1 = _derivative(b)   # B'
    d2 = _derivative(d1)  # B''
    # each coefficient sums the B''B products, then subtracts the B'B' ones,
    # in ascending powers of the first factor
    return d1, [
        d2[0] * b[0] - d1[0] * d1[0],
        d2[0] * b[1] + d2[1] * b[0] - d1[0] * d1[1] - d1[1] * d1[0],
        d2[0] * b[2] + d2[1] * b[1] + d2[2] * b[0] - d1[0] * d1[2] - d1[1] * d1[1] - d1[2] * d1[0],
        d2[0] * b[3] + d2[1] * b[2] + d2[2] * b[1]
        - d1[0] * d1[3] - d1[1] * d1[2] - d1[2] * d1[1] - d1[3] * d1[0],
        d2[0] * b[4] + d2[1] * b[3] + d2[2] * b[2] - d1[1] * d1[3] - d1[2] * d1[2] - d1[3] * d1[1],
        d2[1] * b[4] + d2[2] * b[3] - d1[2] * d1[3] - d1[3] * d1[2],
        d2[2] * b[4] - d1[3] * d1[3],
    ]


def _stationarity_polynomial(probe: ProbeSpec, env: EnvironmentSpec) -> tuple:
    """(scale, B, B', P) with x = t / scale, each polynomial in ascending powers of x.

    B = 1/purity^2 is the quartic purity bracket and P = B''B - B'^2 is of
    degree 6; scale is `tau_max_approx`, so the coefficients are of order one.
    """
    scale = tau_max_approx(probe, env)
    coefficients = _purity_bracket_coefficients(*_coefficient_args(probe, env))
    try:
        b = [c * scale**k for k, c in enumerate(coefficients)]
    except OverflowError:  # scale**4 leaves the float range for lam < ~1e-215
        raise ConvergenceError(
            f"no interior maximum of the purity rate: t^4 overflows at lam={env.lam:g}"
        ) from None
    d1, p = _stationarity_coefficients(b)
    if not all(map(math.isfinite, p)):
        raise OverflowError(
            f"the stationarity polynomial B''B - B'^2 overflows the float range at "
            f"lam={env.lam:g}"
        )
    return scale, b, d1, p


def tau_max_exact(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Interaction time of the knee: the interior maximum of the purity rate.

    With B = 1/purity^2, the quartic purity bracket, the rate is |B'|/(2B)
    and d(B'/B)/dt = P/B^2 with P = B''B - B'^2 of degree 6.  The extrema are
    the positive real roots of P, solved in x = t / `tau_max_approx`, where
    the coefficients are of order one.  `_positive_roots` finds them in pure
    Python from the roots of P', P'', ... (between two consecutive roots of
    a derivative the polynomial has at most one root), and two more Newton
    steps on P polish each.  A root is a local maximum of the rate exactly
    when sign(P') sign(B') < 0; the knee is the maximum with the largest rate
    among those whose rate exceeds that of the neighbouring extrema by more
    than rounding.  Where no such maximum exists (gamma = 0 at lam = 1e33,
    gamma = 35 at 1e25) this raises ConvergenceError.
    """
    if not env.lam > 0:
        raise ValueError("tau_max requires lam > 0")
    scale, b, d1, p = _stationarity_polynomial(probe, env)

    extrema = []  # (x, P'(x))
    for x, _ in _positive_roots(p):
        for _ in range(2):
            value, slope = _horner(p, x)
            if slope == 0.0:
                break
            x -= value / slope
        if 0.0 < x < math.inf:
            extrema.append((x, slope))
    extrema.sort()
    db = [_horner(d1, x)[0] for x, _ in extrema]
    rates = [abs(v) / (2.0 * _horner(b, x)[0]) for (x, _), v in zip(extrema, db)]

    knee = None
    for i, (x, slope) in enumerate(extrema):
        if slope * db[i] >= 0.0:
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
    return extrema[knee][0] * scale


def tau_max_approx(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Closed-form maximizer of the cubic-term purity approximation."""
    if not env.lam > 0:
        raise ValueError("tau_max requires lam > 0")
    tau_sq = _power(tau0(probe), 2, "tau0", "s")
    return (3.0 * tau_sq / (2.0 * (1.0 + probe.gamma**2) * env.lam * probe.sigma0**2)) ** (1.0 / 3.0)


def _tgi_db(t_gamma: float, t_ref: float) -> float:
    """-10 log10(t_gamma / t_ref), with +0.0 rather than -0.0 for equal times."""
    return 0.0 - 10.0 * math.log10(t_gamma / t_ref)


def tgi(probe: ProbeSpec, env: EnvironmentSpec) -> float:
    """Temporal gain of information in dB against the gamma = 0 probe, whose tau_max comes first."""
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)
    return _tgi_db(tau_max_exact(probe, env), t_ref)


def tgi_approx(gamma: float) -> float:
    """Approximate TGI 10 log10 (1+gamma^2)^(1/3); even in gamma, coupling-free."""
    return (10.0 / 3.0) * math.log10(1.0 + gamma**2)


def build_table1(probe: ProbeSpec, lam: float, gammas: Sequence[float]) -> list[TgiRow]:
    """Information-gain rows for each correlation value, in input order.

    A row is one lambda-QFI `fisher._analytic_rows` row at tau_max, with the
    time slope, the relative purity rate there.
    """
    if not lam > 0:
        raise ValueError("build_table1 requires lam > 0")
    env = EnvironmentSpec(lam=lam)
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)
    rows = []
    for g in gammas:
        try:
            p = probe.with_gamma(float(g))
            t_max = tau_max_exact(p, env)
            [(mu, _, rate, qfi, _)] = _analytic_rows(
                EstimationTarget.LAMBDA, [(p, env, t_max)], "t")
            rows.append(
                TgiRow(
                    gamma=float(g),
                    tau_max=t_max,
                    purity_at_tau_max=mu,
                    relative_purity_rate=rate,
                    lambda_sq_qfi=lam**2 * qfi,
                    tgi_db=_tgi_db(t_max, t_ref),
                )
            )
        except (ValueError, ConvergenceError) as exc:
            raise type(exc)(f"table row gamma={g}: {exc}") from exc
    return rows
