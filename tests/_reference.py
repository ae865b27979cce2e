"""Exact reference for the closed forms, in mpmath, independent of `pmcorr.model`.

The scaled covariance S (entries doubled so that det S = 1/purity^2) is
written out here from its published form, with theta = t/tau0,
tau0 = m sigma0^2/hbar, Lam = lam sigma0^2 tau0 and eps = (sigma0/ell0)^2:

    sxx = 1 + 2 gamma theta + (1 + 2 eps + gamma^2) theta^2 + (4/3) Lam theta^3
    sxp = gamma + (1 + 2 eps + gamma^2) theta + 2 Lam theta^2
    spp = 1 + 2 eps + gamma^2 + 4 Lam theta

and dS/dgamma, dS/dlam and dS/dt = (1/tau0) dS/dtheta are its entries'
exact derivatives.  From them `point` gives, at `DPS` digits, the bracket
B = det S, its derivative dB = Tr[adj S dS] (Jacobi's formula), the purity
mu = B^(-1/2) and its derivative, the adjugate trace Tr[(adj S dS)^2] as a
matrix product, and the Gaussian QFI

    mu^4 Tr[(adj S dS)^2] / (2 (1 + mu^2)) + 2 (dmu)^2 / (1 - mu^4)

(Pinel et al., PRA 88, 040102(R) (2013)); for t the relative purity rate
|dmu/dt|/mu = |dB/dt|/(2B) follows from B and dB.  Every input float is
taken exactly; only the physical constants come from the package.
"""
from __future__ import annotations

from typing import NamedTuple

import mpmath

from pmcorr.constants import HBAR

#: decimal digits kept after the cancellation in B and the trace
DPS = 50


class Reference(NamedTuple):
    """The exact quantities at one point, as mpmath numbers."""

    bracket: mpmath.mpf
    dbracket: mpmath.mpf
    purity: mpmath.mpf
    dpurity: mpmath.mpf
    trace: mpmath.mpf
    qfi: mpmath.mpf


def covariance(mass, sigma0, ell0, gamma, lam, t, target=None) -> tuple:
    """(sxx, sxp, spp) of S, or of dS/d(target) for target "gamma", "lambda" or "t"."""
    m, s0, g, lm, t = (mpmath.mpf(v) for v in (mass, sigma0, gamma, lam, t))
    eps = 0 if ell0 == float("inf") else (s0 / mpmath.mpf(ell0)) ** 2
    tau = m * s0**2 / mpmath.mpf(HBAR)
    th = t / tau
    big = 1 + 2 * eps + g**2
    if target == "gamma":
        return 2 * th + 2 * g * th**2, 1 + 2 * g * th, 2 * g
    k = s0**2 * tau  # dLam/dlam
    if target == "lambda":
        return mpmath.mpf(4) / 3 * k * th**3, 2 * k * th**2, 4 * k * th
    lam_ = lm * k
    if target == "t":  # d/dt = (1/tau0) d/dtheta
        return (
            (2 * g + 2 * big * th + 4 * lam_ * th**2) / tau,
            (big + 4 * lam_ * th) / tau,
            4 * lam_ / tau,
        )
    return (
        1 + 2 * g * th + big * th**2 + mpmath.mpf(4) / 3 * lam_ * th**3,
        g + big * th + 2 * lam_ * th**2,
        big + 4 * lam_ * th,
    )


def point(target: str, mass, sigma0, ell0, gamma, lam, t) -> Reference:
    """The reference quantities for target "gamma", "lambda" or "t" at one point.

    B and the trace cancel by at most cond(S)^2 <= |S|^4 (B >= 1), so the
    work runs at `DPS` digits plus four times the digits of S's largest entry.
    dB has a zero inside the envelope, so near it only its absolute error is
    that small.
    """
    with mpmath.workdps(15):
        largest = max(abs(x) for x in covariance(mass, sigma0, ell0, gamma, lam, t))
    with mpmath.workdps(DPS + 4 * max(0, int(mpmath.log10(largest)))):
        sxx, sxp, spp = covariance(mass, sigma0, ell0, gamma, lam, t)
        dxx, dxp, dpp = covariance(mass, sigma0, ell0, gamma, lam, t, target)
        adj = mpmath.matrix([[spp, -sxp], [-sxp, sxx]])
        product = adj * mpmath.matrix([[dxx, dxp], [dxp, dpp]])
        square = product * product
        trace = square[0, 0] + square[1, 1]
        if lam == 0:  # no coupling: B = 1 + 2 eps at every t and gamma, exactly
            eps = 0 if ell0 == float("inf") else (mpmath.mpf(sigma0) / mpmath.mpf(ell0)) ** 2
            bracket = 1 + 2 * eps
            dbracket = product[0, 0] + product[1, 1] if target == "lambda" else mpmath.mpf(0)
        else:
            bracket = sxx * spp - sxp**2
            dbracket = product[0, 0] + product[1, 1]  # Jacobi's formula
        mu = 1 / mpmath.sqrt(bracket)
        dmu = -dbracket / (2 * bracket * mpmath.sqrt(bracket))
        if dmu == 0:
            second = 0
        else:
            second = mpmath.inf if bracket == 1 else 2 * dmu**2 / (1 - mu**4)
        qfi = mu**4 * trace / (2 * (1 + mu**2)) + second
        return Reference(+bracket, +dbracket, +mu, +dmu, +trace, +qfi)


def cancellation(coefficients, t: float) -> float:
    """sum |c_k t^k| / |sum c_k t^k|: how far the terms of a polynomial in t cancel at t.

    A closed form summed term by term in float loses about this factor times
    a few epsilons; a test bounds its error by a multiple of it.
    """
    terms = [mpmath.mpf(c) * mpmath.mpf(t) ** k for k, c in enumerate(coefficients)]
    total = mpmath.fsum(terms)
    return mpmath.fsum(abs(x) for x in terms) / abs(total) if total else mpmath.inf
