"""Quantum and classical Fisher information for the probe's two parameters.

Estimated parameters: the initial position-momentum correlation (``gamma``)
and the environment coupling (``lam``).  Four independent routes are
implemented and cross-checked:

* `qfi_analytic`  - the adjugate trace Tr{[adj(S) dS]^2} = (dB)^2 - 2 B det(dS)
  from the purity bracket B = det S = 1/mu^2 and its analytic derivative
  (Jacobi's formula and Cayley-Hamilton), with det(dS) = -1 for gamma and
  (4/3) (hbar t^2/m)^2 for lambda;
* `qfi_numeric`   - the general single-mode Gaussian formula
  mu^4/(2(1+mu^2)) Tr{[adj(S) dS]^2} + 2 (dmu)^2/(1-mu^4) with derivatives
  from Richardson-extrapolated central differences;
* `cfi_closed`    - closed form of the position-readout Fisher information;
* `cfi_quadrature`- Gauss-Hermite quadrature of int (dP)^2/P dx, with dP a
  double-double density difference, plus the Gaussian variance identity
  (dV)^2/(2 V^2).

The first-moment term of the general Gaussian formula vanishes identically
for this channel and is omitted throughout.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
from enum import Enum
from typing import NamedTuple

from . import _dd
from .constants import HBAR
from .model import (
    EnvironmentSpec,
    ProbeSpec,
    _coefficient_args,
    _covariance_dd,
    _covariance_factors,
    _kernel_b_sq,
    _kernel_coefficients,
    _purity_bracket,
    _purity_bracket_coefficients,
    _purity_bracket_dd,
    _purity_bracket_factors,
    _purity_bracket_fixed,
    _power,
    _SQUARE_LIMIT,
    _position_variance,
    _require_nonnegative_t,
    _require_positive_t,
    tau0,
)

__all__ = [
    "ConvergenceError",
    "EstimationTarget",
    "FisherResult",
    "CfiQuadrature",
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


# phi_theta is the adjugate trace in half-scaled moments (pure-state covariance
# determinant 1/4).  model.covariance stores doubled entries so that
# det = 1/purity^2; the adjugate trace is quartic in that factor.
_ADJ_TRACE_RESCALE = 16.0


class CfiQuadrature(NamedTuple):
    """The two independent position-readout CFI oracles."""

    quadrature: float
    gaussian_identity: float


class FisherResult(NamedTuple):
    """All Fisher routes at one parameter point."""

    qfi_analytic: float
    qfi_numeric: float
    cfi_closed: float
    cfi_quadrature: float
    purity: float
    purity_derivative: float


#: `qfi_numeric`'s Richardson tableau: first step h = _REL_STEP * max(|theta|,
#: floor), halved over _LEVELS levels, converged at relative spread _REL_TOL
_REL_STEP = 1e-4
_LEVELS = 5
_REL_TOL = 1e-6
#: the first step over the smallest, 2**(_LEVELS - 1)
_STEP_RATIO = 2.0 ** (_LEVELS - 1)
#: characteristic scale used as a step floor when |theta| is small
_SCALE_FLOOR = {EstimationTarget.GAMMA: 1.0, EstimationTarget.LAMBDA: 1e12}


def phi_gamma(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Tr[(adj S dS/dgamma)^2] / 16 in half-scaled moments: ((dB/dgamma)^2 + 2 B) / 16.

    B = det S = 1/purity^2 is the purity bracket, and det(dS/dgamma) = -1.
    """
    return _phi(EstimationTarget.GAMMA, probe, env, t)


def phi_lambda(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Tr[(adj S dS/dlam)^2] / 16 in half-scaled moments: (dB^2 - 2 B det(dS/dlam)) / 16.

    B = det S = 1/purity^2 is the purity bracket, and det(dS/dlam) =
    (4/3) (hbar t^2/m)^2.
    """
    return _phi(EstimationTarget.LAMBDA, probe, env, t)


def _phi(target: EstimationTarget, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """`phi_gamma` or `phi_lambda`: the bracket at t first, as in `_analytic_rows`, then phi."""
    _require_positive_t(t)
    args = _coefficient_args(probe, env)
    b, db = _purity_bracket_coefficients(*args, target.value)
    bracket, d = _purity_bracket(b, t, db)
    return _phi_from_bracket(target, _det_derivative(target, args), bracket, d, t)


def _det_derivative(target: EstimationTarget, args: tuple) -> tuple:
    """det(dS/d(target)) as (c, k), one monomial c t^k, at the `model._coefficient_args` args.

    det(dS/dgamma) = -1 exactly; det(dS/dlam) = (4/3) (hbar t^2/m)^2, the
    lambda^2 coefficient of the bracket, from its fixed parts hbar^2 and 3 mass^2.
    """
    if target is EstimationTarget.GAMMA:
        return -1.0, 0
    fixed = _purity_bracket_fixed(*args[:3])
    return 4.0 * fixed[5] / fixed[4], 4


def _phi_from_bracket(target: EstimationTarget, det: tuple, bracket: float, dbracket: float,
                      t: float) -> float:
    """phi = Tr[(adj S dS)^2] / 16 = (dB/4)^2 - (B/8) det(dS), from B = det S and dB/d(target).

    Jacobi's formula gives dB = Tr[adj S dS], and Cayley-Hamilton for the 2x2
    product gives the rest; `_det_derivative` gives det(dS).  The trace is at
    least 0, so (B/8) det(dS) stays below (dB/4)^2 for lambda, and for gamma
    B/8 cannot overflow: only the square of dB/4 leaves the float range, and
    it is named.
    """
    c, k = det
    quarter = 0.25 * dbracket
    phi = quarter * quarter - 0.125 * bracket * (c * t**k)
    if phi < math.inf:
        return phi
    name = f"|d(1/purity^2)/d{target.value}|"
    raise OverflowError(
        f"{name}={abs(dbracket):g} overflows the float range: {name}^2/16, in the adjugate "
        f"trace, needs {name} below ~{4.0 * _SQUARE_LIMIT:.2g}"
    )


def purity_derivative(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Analytic d(purity)/d(theta) for theta in {gamma, lam}."""
    target = _as_target(target)
    _require_nonnegative_t(t)
    [(_, dmu, _, _, _)] = _analytic_rows(None, [(probe, env, t)], target.value)
    return dmu


def _second_term(mu: float, dmu: float, pure: bool) -> float:
    """2 (dmu)^2 / (1 - mu^4), with the removable dmu = 0 limit.

    `pure` marks the exactly pure state, lam = 0 and (sigma0/ell0)^2 = 0, where
    the purity bracket is identically 1.  Elsewhere the state is mixed, and a
    1 - mu^4 that rounds to 0 or below is a numerical failure.
    """
    if dmu == 0.0:
        return 0.0
    denom = 1.0 - mu**4
    if denom <= 0.0:
        if pure:
            raise ValueError("pure-state limit: purity derivative nonzero at purity 1")
        raise FloatingPointError(
            f"1 - purity^4 rounds to {denom:g} in a mixed state (purity={mu!r}): the term "
            f"2 (dpurity)^2/(1 - purity^4) is lost to rounding (dpurity={dmu:g})"
        )
    try:
        return 2.0 * dmu**2 / denom
    except OverflowError:
        _power(abs(dmu), 2, "|dpurity|", where=", in 2 (dpurity)^2/(1 - purity^4),")
        raise


def qfi_analytic(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Closed-form quantum Fisher information for the chosen target."""
    target = _as_target(target)
    _require_positive_t(t)
    [(_, _, _, value, _)] = _analytic_rows(target, [(probe, env, t)])
    return value


def _analytic_rows(target: EstimationTarget | None, points, slope: str | None = None,
                   cfi: bool = False):
    """Each (probe, env, t)'s (purity, d(purity)/d(theta), relative slope, QFI, CFI coefficients).

    The one evaluator of the closed-form purity, slope, rate and QFI cells,
    over a run of points or one; it yields row by row, so a run holds one
    row's objects at a time, not a run's.  theta is the target, or the
    slope where the target is None.  `slope` names "gamma", "lambda" or "t", the
    target's by default, and the relative slope is |dB/d(slope)|/(2B) =
    |d(purity)/d(slope)|/purity with B = 1/purity^2.  The QFI is the
    target's; a None target builds and evaluates neither det(dS), phi nor a
    QFI, so a purity-only row cannot fail on one.  Where a point's probe or
    env is another object than the previous point's, one
    `model._purity_bracket_coefficients` call builds B's tuple and the
    target's and the slope's derivative tuples, then det(dS), then, with
    `cfi`, the closed-form CFI's `_cfi_coefficients`, which the row carries
    for its caller's `_cfi_closed_at` (None without `cfi`).  After a failing
    evaluation only the run's builders run, and the failure is raised at its
    end, so a grid row that spans several (probe, env) fails on its builders
    first, as a row of one does.  Each point
    evaluates B once and each derivative from its powers of t, then the
    QFI's second term and phi, the adjugate trace over 16, so `qfi_analytic`
    and a grid row that fail name the same error.  The first term takes the
    purity's powers from B itself, mu^4 / (1 + mu^2) = 1 / (B (B + 1)), so
    B's rounding is not compounded through B^(-1/2) and its fourth power,
    and no power underflows; its factor 8 scales the last divisor, exactly,
    so a subnormal first term is rounded once.
    """
    # _value_ is the enum's value without its descriptor, which costs ~5 times more per call
    if slope is None:
        slope = target._value_
    # the target's derivative, then the slope's where it is another parameter's
    wrt = (slope,) if target is None or target._value_ == slope else (target._value_, slope)
    probe = env = failure = None
    for p, e, t in points:
        if p is not probe or e is not env:
            probe, env = p, e
            args = _coefficient_args(p, e)
            b, dq, *other = _purity_bracket_coefficients(*args, *wrt)
            ds = other[0] if other else None
            if target is not None:
                det = _det_derivative(target, args)
                pure = e.lam == 0.0 and _purity_bracket_fixed(*args[:3])[2] == 0.0  # 2 eps, kept
            closed = _cfi_coefficients(target, args) if cfi else None
        if failure is not None:
            continue
        try:
            if ds is None:
                bracket, d = _purity_bracket(b, t, dq)
                s = d
            else:
                bracket, d, s = _purity_bracket(b, t, dq, ds)
            mu = bracket**-0.5  # purity = B^(-1/2), so d(purity) = -dB B^(-3/2) / 2
            dmu = -0.5 * d * bracket**-1.5
            value = None
            if target is not None:
                second = _second_term(mu, dmu, pure)
                phi = _phi_from_bracket(target, det, bracket, d, t)
                # mu^4 / (2 (1 + mu^2)) 16 phi = 8 phi / (B (B + 1)), 8 folded into B + 1 exactly
                value = phi / bracket / (0.125 * (bracket + 1.0)) + second
        except Exception as exc:  # the later builders run first, as in a row of `cli._per_gamma`
            failure = exc
            continue
        yield mu, dmu, abs(s) / (2.0 * bracket), value, closed
    if failure is not None:
        raise failure


#: stencil components: model._covariance_dd (sxx [:5], sxp [5:9], spp [9:12])
#: then model._purity_bracket_dd [12:]
_N_TERMS = 18
#: the components that move with each target, in the order the two builders
#: return them for ``moving=target.value``; every other one is free of the target
_MOVING = {
    EstimationTarget.GAMMA: (1, 3, 5, 7, 10, 14, 15),
    EstimationTarget.LAMBDA: (4, 8, 11, 13, 14, 15, 16, 17),
}
#: the components free of each target
_FREE = {
    target: tuple(k for k in range(_N_TERMS) if k not in moving)
    for target, moving in _MOVING.items()
}
#: largest (|m00^2| + |m11^2| + 2|m01 m10|) / |Tr| the adjugate trace may cancel
#: by: below it the oracle stays within 1.5e-8 of qfi_analytic on 3,000 seeded
#: envelope draws; above 1e20 every value drawn was wrong, some of them negative
_MAX_TRACE_CANCELLATION = 1e16


def _fmax(a, b):
    """numpy.maximum for floats: the larger, or NaN if either is NaN."""
    return a if a > b or a != a else b


def _every(test) -> bool:
    """A bool as it is, or whether it holds at every entry of an array."""
    return test if isinstance(test, bool) else bool(test.all())


def _not_converged(spread) -> ConvergenceError:
    return ConvergenceError(f"derivative failed to converge: relative spread {spread:.3e}")


def _centre_overflow(target: EstimationTarget, probe: ProbeSpec, free: float, moves: float,
                     gamma, lam, t) -> OverflowError:
    """The error of a point whose monomials free of the target (free NaN), or else moving
    with it (moves NaN), are not all finite at the centre."""
    kind = "free of" if free != free else "moving with"
    return OverflowError(
        f"a monomial {kind} {target.value} overflows the float range at "
        f"t/tau0={t / tau0(probe):g}: the oracle cannot difference a covariance or "
        f"purity-bracket monomial that is not finite (gamma={gamma:g}, lambda={lam:g} "
        f"m^-2 s^-1, t={t:g} s)"
    )


def _qfi_numeric_points(target, probe: ProbeSpec, gamma, lam, t) -> list:
    """`qfi_numeric` at one point, or at n points along an axis.

    gamma, lam and t are each a number, or a list with one value per point;
    the probe supplies mass, sigma0 and ell0.  Each value equals the
    one-point result bit for bit, and a failure raises what the lowest
    failing point raises on its own.

    The covariance and the purity bracket are split into monomials in
    double-double (model._covariance_dd, _purity_bracket_dd): the huge parts
    free of theta then cancel exactly, and the adjugate trace below keeps
    enough consistent digits to survive its own cancellation (it can collapse
    by twelve orders of magnitude).  The full lists are built once, at the
    centre.  A monomial free of theta differences to exactly zero where it is
    finite, so at the 2*_LEVELS stencil points only the target's `_MOVING`
    ones are built, from the centre's theta-free factors, and the Richardson
    tableau T[level][order] runs on those alone.  Each builder is called
    once for the whole stencil, with the list of its abscissae, and splits
    each theta-free operand once.  Where a monomial is not finite at the
    centre (a split inside it overflows above ~1.34e300), its difference is
    not defined: that point raises a named OverflowError, a theta-free
    monomial's first, and no stencil is built where every point does.  The
    tableaux of the moving monomials are one `_dd.dd_richardson` call, which
    splits the reciprocal widths once: at one point it takes a row of
    2*_LEVELS stencil values per monomial (floats, so `qfi` runs on the
    standard library alone); along an axis, one row whose values are
    stacked into numpy arrays of (len(moving), n), and only then is numpy
    loaded; a row per monomial would cost ~8 times the numpy dispatches.
    The same elementwise IEEE operations run either way, and whether floats
    or arrays run is decided once per call.  Convergence requires
    T[L-1][L-1] to agree with T[L-2][L-3] to _REL_TOL componentwise;
    estimates at the roundoff floor of the central difference count as
    converged zeros.  A non-finite stencil value makes T[L-1][L-1] NaN,
    which fails its point whatever the floor, so the floor's scale (the
    largest stencil value) need not propagate NaN.  The adjugate trace is
    one `_dd.dd_adjugate_trace` call, the same way; a trace that is not
    finite or cancels by more than _MAX_TRACE_CANCELLATION raises, and the
    purity map takes its powers per point with CPython's pow.
    """
    target = _as_target(target)
    m, s0, eps = probe.mass, probe.sigma0, probe.coherence_ratio_sq
    axes = [len(v) for v in (gamma, lam, t) if isinstance(v, list)]
    n = max(axes, default=1)
    if axes:
        import numpy as np  # deferred: only an axis loads numpy

        g, ll, tt = (
            np.array(v, dtype=float) if isinstance(v, list) else float(v) for v in (gamma, lam, t)
        )

        def stack(values):
            """Floats or arrays of n as the rows of one array."""
            rows = np.empty((len(values), n))
            for row, v in zip(rows, values):
                row[...] = v
            return rows

        # CPython float semantics: overflow and NaN pass silently (and then fail
        # the convergence test), division by zero raises
        arithmetic = np.errstate(over="ignore", invalid="ignore", divide="raise")
    else:
        g, ll, tt = float(gamma), float(lam), float(t)
        arithmetic = contextlib.nullcontext()

    def per_point(v) -> list:
        return [v] * n if isinstance(v, (float, bool)) else v.tolist()

    with arithmetic:
        fc, fb = _covariance_factors(m, s0, eps, tt), _purity_bracket_factors(m, s0, eps, tt)
        centre = _covariance_dd(fc, g, ll) + _purity_bracket_dd(fb, g, ll)
        moving = _MOVING[target]
        # per point, 0 where every theta-free (moving) monomial is finite, NaN where one is not
        free = moves = 0.0
        for k in _FREE[target]:
            hi, lo = centre[k]
            free = free + (hi - hi) + (lo - lo)
        for k in moving:
            hi, lo = centre[k]
            moves = moves + (hi - hi) + (lo - lo)
        if _every((free != free) | (moves != moves)):  # every point fails: the first raises
            first = (v[0] if isinstance(v, list) else v for v in (gamma, lam, t))
            raise _centre_overflow(target, probe, per_point(free)[0], per_point(moves)[0], *first)

        # the one float/array choice of the call: every max below propagates NaN
        fmax = np.maximum if axes else _fmax
        x0 = g if target is EstimationTarget.GAMMA else ll
        h0 = _REL_STEP * fmax(abs(x0), _SCALE_FLOOR[target])
        steps = [h0]
        for _ in range(_LEVELS - 1):
            steps.append(steps[-1] / 2.0)
        xs = [x0 + h for h in steps] + [x0 - h for h in steps]
        gg, lx = (xs, ll) if target is EstimationTarget.GAMMA else (g, xs)
        cov_stencil = _covariance_dd(fc, gg, lx, target.value)
        bracket_stencil = _purity_bracket_dd(fb, gg, lx, target.value)
        stencil = [c + b for c, b in zip(cov_stencil, bracket_stencil)]
        # the width (x0 + h) - (x0 - h) is exact in float arithmetic
        inv_widths = [1.0 / ((x0 + h) - (x0 - h)) for h in steps]
        # a list over the stencil per moving monomial; along an axis, one list
        # whose entries stack them all, (len(moving), n)
        rows = list(zip(*stencil))
        if axes:
            rows = [[tuple(stack(part) for part in zip(*entry)) for entry in zip(*rows)]]
        ok, spread, lasts = free == 0.0, free, []
        for pairs, (last, prev) in zip(rows, _dd.dd_richardson(rows, inv_widths)):
            # a non-finite monomial has a NaN difference, which fails its point
            # whatever its noise floor, so fscale need not propagate NaN
            scales = (abs(hi) for hi, _ in pairs)
            fscale = functools.reduce(np.maximum, scales) if axes else max(scales)
            lasts.append(last)

            err = abs(last[0] - prev[0])
            mag = fmax(abs(last[0]), abs(prev[0]))
            # cancellation noise of the smallest-step plain-float difference, with headroom;
            # the dd evaluation sits far below it, so this is deliberately conservative
            noise_floor = 1e3 * 2.3e-16 * fscale * _STEP_RATIO / h0
            ok = ok & ((err <= _REL_TOL * mag) | (mag <= noise_floor))
            spread = fmax(spread, err / fmax(mag, 1e-300))
        if axes:
            ok, spread, lasts = ok.all(axis=0), spread.max(axis=0), list(zip(*lasts[0]))

        d = [(0.0, 0.0)] * _N_TERMS  # the theta-free monomials' differences are exactly (0, 0)
        for k, last in zip(moving, lasts):
            d[k] = last
        # trace of (adj(S) dS)^2 for the symmetric 2x2 pair, in double-double;
        # double-double keeps ~32 digits of its terms, and the trace loses as
        # many as they cancel
        trace, terms = _dd.dd_adjugate_trace(centre, d)
        dbracket = _dd.dd_sum(d[12:])
        trace, dbracket = trace[0] + trace[1], dbracket[0] + dbracket[1]
        columns = [per_point(v) for v in (free, moves, ok, spread, trace, terms, dbracket)]

    values = []
    for free, moves, converged, spread, trace, terms, dbracket, gi, li, ti in zip(
        *columns, *(v if isinstance(v, list) else [v] * n for v in (gamma, lam, t))
    ):
        if free != free or moves != moves:
            raise _centre_overflow(target, probe, free, moves, gi, li, ti)
        if not converged:
            raise _not_converged(spread)
        # the purity derivative follows from the differenced bracket through
        # the exact map mu = D^(-1/2); CPython rounds the powers
        bracket = _purity_bracket(_purity_bracket_coefficients(m, s0, probe.ell0, gi, li), ti)
        mu = bracket**-0.5
        dmu = -0.5 * dbracket * bracket**-1.5
        pure = li == 0.0 and eps == 0.0
        mu4, scaled = mu**4, trace
        if mu4 < sys.float_info.min:  # mu^4 underflows: fold mu^2 into the trace, keep its digits
            mu4, scaled = mu**2, mu**2 * trace
        value = mu4 / (2.0 * (1.0 + mu**2)) * scaled + _second_term(mu, dmu, pure)
        if not math.isfinite(trace):  # a double-double product left the float range
            raise ConvergenceError(
                f"adjugate trace is {trace} beside terms of {terms:.3e}: its double-double "
                f"products leave the float range"
            )
        if terms > _MAX_TRACE_CANCELLATION * abs(trace):
            raise ConvergenceError(
                f"adjugate trace cancels by {terms / abs(trace) if trace else math.inf:.3e}, "
                f"beyond {_MAX_TRACE_CANCELLATION:.0e}: its terms are {terms:.3e} for a trace "
                f"of {trace:.3e}"
            )
        if value < 0.0:  # a QFI is at least 0: what rounding left of the trace is noise
            raise ConvergenceError(
                f"Gaussian QFI assembles to {value:.3e} < 0: its adjugate trace {trace:.3e} is "
                f"rounding noise beside terms of {terms:.3e}"
            )
        values.append(value)
    return values


def qfi_numeric(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Quantum Fisher information from the general Gaussian formula.

    The covariance and purity derivatives are taken numerically, so this is
    an independent oracle for `qfi_analytic`.
    """
    target = _as_target(target)
    _require_positive_t(t)
    return _qfi_numeric_points(target, probe, probe.gamma, env.lam, t)[0]


def cfi_closed(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Closed-form classical Fisher information of the position readout."""
    target = _as_target(target)
    _require_positive_t(t)
    return _cfi_closed_at(target, _cfi_coefficients(target, _coefficient_args(probe, env)), t)


def _cfi_coefficients(target: EstimationTarget, args: tuple) -> tuple:
    """The parts of `cfi_closed` that depend on (probe, env) alone, from `model._coefficient_args`."""
    # first: it names where 1/ell0^2, then sigma0^4, leaves the float range, so
    # s0**4 below is a finite nonzero double
    kernel = _kernel_coefficients(*args)
    mass, s0, _, gamma, lam = args
    scale = 8.0 * s0**4 if target is EstimationTarget.GAMMA else 18.0 * s0**4
    return kernel, mass, gamma / s0**2, scale, lam


def _cfi_closed_at(target: EstimationTarget, c: tuple, t: float) -> float:
    """`cfi_closed` at t from its `_cfi_coefficients` c."""
    kernel, mass, g_term, scale, lam = c
    b_sq = _kernel_b_sq(kernel, t)
    try:
        if target is EstimationTarget.GAMMA:
            return (mass / (HBAR * t) + g_term) ** 2 / (scale * b_sq**2)
        # 1/18 follows from (dV/dlam)^2/(2 V^2) with V = 2 hbar^2 t^2 sigma0^2 B^2 / m^2
        return t**2 / (scale * b_sq**2)
    except OverflowError:
        raise OverflowError(
            f"b_sq={b_sq:g} m^-4 overflows the float range when squared "
            f"(lambda={lam:g} m^-2 s^-1, t={t:g} s)"
        ) from None


#: node counts of the two Gauss-Hermite rules; their difference is the error estimate
_RULES = (16, 32)
#: the rules for the weight e^(-u^2), as numpy.polynomial.hermite.hermgauss
#: gives them, by node count: (nodes, weights) at the positive nodes, ascending;
#: each rule is symmetric about u = 0
_HERMITE_HALVES = {
    16: (
        (
            0.27348104613815244, 0.8229514491446559, 1.3802585391988809, 1.9517879909162539,
            2.5462021578474814, 3.176999161979956, 3.869447904860123, 4.688738939305819,
        ),
        (
            0.5079294790166137, 0.2806474585285337, 0.08381004139898583, 0.012880311535509989,
            0.0009322840086241807, 2.7118600925378892e-05, 2.3209808448652032e-07,
            2.6548074740111673e-10,
        ),
    ),
    32: (
        (
            0.19484074156939934, 0.5849787654359324, 0.9765004635896828, 1.3703764109528718,
            1.7676541094632015, 2.169499183606112, 2.5772495377323175, 2.992490825002374,
            3.417167492818571, 3.853755485471445, 4.305547953351199, 4.777164503502596,
            5.2755509865158805, 5.812225949515914, 6.409498149269661, 7.125813909830728,
        ),
        (
            0.37523835259280247, 0.27745814230252996, 0.15126973407664232, 0.06045813095591269,
            0.017553428831573438, 0.003654890326654426, 0.000536268365527972,
            5.416584061819991e-05, 3.650585129562378e-06, 1.5741677925455882e-07,
            4.098832164770879e-09, 5.933291463396676e-11, 4.2150102113264155e-13,
            1.1973440170928503e-15, 9.231736536518258e-19, 7.310676427384096e-23,
        ),
    ),
}


#: u^2 and w / sqrt(pi) at the positive nodes u of the two rules, the 16-node rule first
_NODES = tuple(
    zip(*[(u * u, w / math.sqrt(math.pi)) for n in _RULES for u, w in zip(*_HERMITE_HALVES[n])])
)


def _quadrature_terms(h, V, dv, v, x) -> list:
    """w r^2 at each positive node of `_NODES`, r extrapolated over the four steps.

    dv holds v+ - v- at each step, v the four v+ then the four v-, and x
    the abscissae x0 + h then x0 - h.  Per step, P+ - P- = P- expm1(log(P+/P-))
    and P-/P0 are exponentials of quantities that stay small where dv/V
    does, over the width x+ - x-, the rounded x0 +- h, close to 2h.  Each
    node runs its four steps, the Richardson tableau over them (4, 16, 64
    over 3, 15, 63) and w r^2 in one pass: the float operations of a list
    per step and per level, in the same order.  A failure raises what those
    lists raise first, a step at a time: its log's domain, then each node.
    """
    steps = list(zip(dv, v[:4], v[4:], x[:4], x[4:]))
    try:
        coefficients = []
        for dvk, vp, vm, xp, xm in steps:
            rel, ratio = dvk / vm, vm / V
            if not (rel > -1.0 and ratio > 0.0):
                break
            coefficients.append((
                (dvk / vp) * (V / vm), 0.5 * math.log1p(rel), (vm - V) / vm,
                0.5 * math.log(ratio), xp - xm,
            ))
        else:
            ((a0, b0, c0, e0, w0), (a1, b1, c1, e1, w1),
             (a2, b2, c2, e2, w2), (a3, b3, c3, e3, w3)) = coefficients
            expm1, exp = math.expm1, math.exp
            terms = []
            for u2, w in zip(*_NODES):
                r0 = expm1(u2 * a0 - b0) * exp(u2 * c0 - e0) / w0
                r1 = expm1(u2 * a1 - b1) * exp(u2 * c1 - e1) / w1
                r2 = expm1(u2 * a2 - b2) * exp(u2 * c2 - e2) / w2
                r3 = expm1(u2 * a3 - b3) * exp(u2 * c3 - e3) / w3
                r0, r1, r2 = (4.0 * r1 - r0) / 3.0, (4.0 * r2 - r1) / 3.0, (4.0 * r3 - r2) / 3.0
                r0, r1 = (16.0 * r1 - r0) / 15.0, (16.0 * r2 - r1) / 15.0
                r = (64.0 * r1 - r0) / 63.0
                terms.append(w * r * r)
            return terms
    except ArithmeticError:
        pass
    # the same operations a step at a time, as far as the first failure
    for dvk, vp, vm, xp, xm in steps:
        rel, ratio = dvk / vm, vm / V
        if not (rel > -1.0 and ratio > 0.0):  # the domains of math.log1p and math.log
            raise FloatingPointError(
                f"quadrature step h={h:g} leaves the domain of the log: dv/V(theta-h)={rel:g}, "
                f"V(theta-h)/V={ratio:g}"
            )
        a, b = (dvk / vp) * (V / vm), 0.5 * math.log1p(rel)
        c, e = (vm - V) / vm, 0.5 * math.log(ratio)
        width = xp - xm
        for u2 in _NODES[0]:
            math.expm1(u2 * a - b) * math.exp(u2 * c - e) / width
    raise AssertionError("the quadrature failed node by node but not step by step")


def cfi_quadrature(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> CfiQuadrature:
    """Position-readout CFI by direct quadrature and by the variance identity.

    The readout density is a zero-mean Gaussian P(x; V) of variance V(theta).
    Oracle (a) integrates (d_theta P)^2 / P with a finite-difference d_theta P
    by Gauss-Hermite quadrature weighted to V; oracle (b) evaluates
    (d_theta V)^2 / (2 V^2) with the analytic d_theta V.  Both are returned
    and must agree to 1e-6 unless (b) lies under the cancellation floor of
    its own d_theta V.

    With x^2 = 2 V u^2 the integral is pi^(-1/2) sum_k w_k r(u_k)^2, where
    r = (P(x; v+) - P(x; v-)) / (2 h P(x; V)) at v+- = V(theta +- h) is a
    ratio of densities, so nothing overflows or underflows.  dv = v+ - v- is
    taken in double-double, monomial by monomial, before anything is
    rounded: the step can leave dv/V as small as 1e-67.  sxx's monomials
    that move with theta are built at the eight points in one
    `_covariance_dd` call, and each point's sum and each step's difference
    and sum are formed in one pass of float operations, those of `_dd.dd_sub`,
    `_dd.dd_sum` and `_dd.dd_mul_d` in the same order; the partial sum of
    the monomials before the first moving one is shared by every point.
    r is extrapolated over four halved steps, and a 16-node and a 32-node
    rule give the value and its error estimate.  r depends on u only through
    u^2 and each rule is symmetric about u = 0, so r is evaluated at the
    positive nodes alone, as plain floats through `math`, each node's four
    steps and tableau in one pass (`_quadrature_terms`); each rule's sum is
    the `math.fsum` of its half taken twice, which rounds the full rule's
    exact sum once.
    """
    target = _as_target(target)
    _require_positive_t(t)
    g, lam, s0 = probe.gamma, env.lam, probe.sigma0
    # sxx's monomials are built once at theta (its factors name a tau0 that rounds
    # to 0), and give V; per step only those that move with theta are built
    f = _covariance_factors(probe.mass, s0, probe.coherence_ratio_sq, t)
    centre = _covariance_dd(f, g, lam, sxx_only=True)
    V = _position_variance(probe, centre, t)
    th = t / tau0(probe)
    if target is EstimationTarget.GAMMA:
        dV = s0**2 * (th + g * th**2)
        dV_terms = s0**2 * (th + abs(g) * th**2)
        d2V = s0**2 * th**2
        x0 = g
    else:
        dV = (2.0 / 3.0) * HBAR**2 * t**3 / _power(probe.mass, 2, "mass", "kg", divisor=True)
        dV_terms = dV
        d2V = 0.0
        x0 = lam
    identity = (dV / V) ** 2 / 2.0

    # V is at most quadratic in theta, so the step follows from dV and d2V:
    # the antisymmetric change 2 h |dV| is aimed at 3e-4 V and the symmetric
    # change d2V h^2 is capped at 2e-3 V so the tableau below can remove it.
    # dV and d2V only size the step; the quadrature still differences
    # V(theta +- h) numerically.
    h = min(
        3e-4 * V / (2.0 * abs(dV)) if dV else math.inf,
        math.sqrt(2e-3 * V / d2V) if d2V else math.inf,
    )
    if target is EstimationTarget.GAMMA and not abs(x0) + h < _SQUARE_LIMIT:
        # the covariance monomials square gamma +- h
        raise OverflowError(
            f"quadrature step h={h:g} overflows the float range: (gamma+-h)^2 needs |gamma|+h "
            f"below ~{_SQUARE_LIMIT:.2g} (dV/dgamma is {dV / V:.2g} V at t/tau0={th:g})"
        )
    steps = [h / 2.0**i for i in range(4)]
    x = [x0 + hh for hh in steps] + [x0 - hh for hh in steps]
    # the monomials free of theta difference to exactly (0, 0), or make V not finite;
    # the moving ones are built at the eight points in one call
    places = [k for k in _MOVING[target] if k < 5]
    gg, ll = (x, lam) if target is EstimationTarget.GAMMA else (g, x)
    moved = _covariance_dd(f, gg, ll, target.value, sxx_only=True)
    diffs = []
    for up, down in zip(moved[:4], moved[4:]):
        d = []
        for (a, al), (b, bl) in zip(up, down):
            b = -b  # dd_sub(up, down), as up + (-down)
            s = a + b
            r = s - a
            e = (a - (s - r)) + (b - r) + al + -bl
            u = s + e
            d.append((u, e - (u - s)))
        diffs.append(d)
    # each V(theta +- h) is the dd_sum of sxx's monomials with the moving ones in
    # their places, and each dv that of their differences with (0, 0) in the
    # others'.  The terms before the first moving one are the centre's in every V
    # and (0, 0) in every dv, so each sum starts from their folded sum, taken
    # once, or from (0, 0), what zeros fold to; the later ones are read in place.
    # Each sum is then multiplied (dd_mul_d) by sigma0^2 / 2 and rounded to a float
    first = places[0]
    slots = [places.index(p) if p in places else None for p in range(first, 5)]
    centre_rest, zeros = centre[first:], [(0.0, 0.0)] * (5 - first)
    head = _dd.dd_sum(centre[:first])
    k = s0**2 / 2.0
    kh, kt = _dd.split(k)
    values = []
    for entries, (hi, lo), rest in [(m, head, centre_rest) for m in moved] + [
        (d, (0.0, 0.0), zeros) for d in diffs
    ]:
        for slot, other in zip(slots, rest):
            b, bl = other if slot is None else entries[slot]
            s = hi + b
            r = s - hi
            e = (hi - (s - r)) + (b - r) + lo + bl
            hi = s + e
            lo = e - (hi - s)
        p = hi * k
        c = _dd._SPLIT * hi
        uh = c - (c - hi)
        ut = hi - uh
        e = ((uh * kh - p) + uh * kt + ut * kh) + ut * kt + lo * k
        q = p + e
        values.append(q + (e - (q - p)))
    v, dv = values[:8], values[8:]
    if not all(map(math.isfinite, values)):
        raise OverflowError(
            f"quadrature step h={h:g} takes the readout variance out of the float range: "
            f"V(theta+-h) is {v[0]:g}, {v[4]:g} at V={V:g} (t/tau0={th:g})"
        )

    terms = _quadrature_terms(h, V, dv, v, x)
    half = _RULES[0] // 2
    coarse, quad_value = math.fsum(terms[:half] * 2), math.fsum(terms[half:] * 2)
    if not (math.isfinite(coarse) and math.isfinite(quad_value)):
        raise OverflowError(
            f"quadrature sum leaves the float range: (dP/P)^2 reaches {max(terms):g} "
            f"at dV/V={dV / V:g} (step h={h:g})"
        )

    scale = max(abs(quad_value), identity)
    error = abs(quad_value - coarse)
    if error > 1e-10 * scale:
        raise ConvergenceError(
            f"quadrature error estimate {error:.3e} exceeds 1e-10 of {scale:.3e}"
        )
    # the identity keeps no digits once dV sinks to the rounding of its terms
    floor = (1e3 * 2.3e-16 * dV_terms / V) ** 2 / 2.0
    if scale > floor and abs(quad_value - identity) > 1e-6 * scale:
        raise ConvergenceError(
            f"CFI oracles disagree: quadrature {quad_value!r} vs identity {identity!r}"
        )
    return CfiQuadrature(quadrature=quad_value, gaussian_identity=identity)


def cramer_rao_bound(fisher_info: float, n_repeats: int) -> float:
    """Smallest achievable standard deviation: 1/sqrt(N * F)."""
    if not 0.0 <= fisher_info < math.inf:
        raise ValueError(f"Fisher information must be finite and >= 0, got {fisher_info}")
    if fisher_info == 0:
        raise ValueError("non-informative: Fisher information is zero")
    if not 1 <= n_repeats < math.inf:
        raise ValueError(f"n_repeats must be finite and >= 1, got {n_repeats}")
    return 1.0 / math.sqrt(n_repeats * fisher_info)


def fisher_information(target, probe: ProbeSpec, env: EnvironmentSpec, t: float) -> FisherResult:
    """Evaluate every route at one point.

    The analytic QFI, the purity and its derivative are one `_analytic_rows`
    row, the values `qfi_analytic`, `purity_exact` and `purity_derivative` give.
    """
    target = _as_target(target)
    quad = cfi_quadrature(target, probe, env, t)
    [(mu, dmu, _, analytic, _)] = _analytic_rows(target, [(probe, env, t)])
    return FisherResult(
        qfi_analytic=analytic,
        qfi_numeric=qfi_numeric(target, probe, env, t),
        cfi_closed=cfi_closed(target, probe, env, t),
        cfi_quadrature=quad.quadrature,
        purity=mu,
        purity_derivative=dmu,
    )
