"""Standing-wave optical lens that imprints the probe's quadratic phase.

A sub-resonant standing wave focuses (or defocuses) the matter-wave beam
through the AC-Stark shift; near an intensity maximum the potential is
harmonic, so a short crossing acts as a thin lens.  The wavefront curvature
radius R acquired this way fixes the correlation parameter: matching the
quadratic phase m V_cm x^2 / (2 hbar R) to gamma x^2 / (2 sigma0^2) gives
gamma = m V_cm sigma0^2 / (hbar R).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .constants import HBAR, PLANCK_H
from .model import _Frozen


class LensSpec(_Frozen):
    """Laser and beam parameters of the focusing stage."""

    __slots__ = (
        "omega0",      # rad/s, peak Rabi frequency
        "wavelength",  # m
        "detuning",    # rad/s, laser frequency minus resonance
        "v_cm",        # m/s, center-of-mass speed
        "t_int",       # s, effective interaction time
    )

    def __init__(self, omega0: float, wavelength: float, detuning: float, v_cm: float,
                 t_int: float):
        values = (omega0, wavelength, detuning, v_cm, t_int)
        for name, value in zip(self.__slots__, values):
            if name != "detuning" and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(detuning):
            raise ValueError(f"detuning must be finite, got {detuning}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)


class OpticalPotential(NamedTuple):
    full: float      # rad/s, -(1/2) sqrt(Omega^2 + delta^2)
    harmonic: float  # rad/s, small-x expansion around an intensity maximum


def rabi_profile(lens: LensSpec, x: float, z: float) -> float:
    """Rabi frequency of the standing wave at transverse x, longitudinal z."""
    if not (math.isfinite(x) and math.isfinite(z)):
        raise ValueError(f"position must be finite, got x={x}, z={z}")
    try:
        width_sq = (lens.v_cm * lens.t_int) ** 2
    except OverflowError:
        raise OverflowError(
            f"(v_cm*t_int)^2 overflows the float range: v_cm*t_int needs to stay below "
            f"~{math.sqrt(sys.float_info.max):.2g} m "
            f"(v_cm={lens.v_cm:g} m/s, t_int={lens.t_int:g} s)"
        ) from None
    if width_sq == 0.0:
        raise ArithmeticError(
            f"(v_cm*t_int)^2 underflows to 0 (v_cm={lens.v_cm:g} m/s, t_int={lens.t_int:g} s)"
        )
    envelope = math.exp(-math.pi * z**2 / width_sq)
    return lens.omega0 * math.cos(2.0 * math.pi * x / lens.wavelength) * envelope


def optical_potential(lens: LensSpec, x: float, z: float) -> OpticalPotential:
    """Ground-state light-shift potential (energy / hbar) and its harmonic companion.

    Rejects a non-finite position through `rabi_profile`.
    """
    omega = rabi_profile(lens, x, z)
    full = -0.5 * math.sqrt(omega**2 + lens.detuning**2)
    k = 2.0 * math.pi / lens.wavelength
    harmonic = 0.25 * lens.omega0 * k**2 * x**2 * (1.0 + (lens.detuning / lens.omega0) ** 2)
    return OpticalPotential(full=full, harmonic=harmonic)


def de_broglie(mass: float, v_cm: float) -> float:
    """de Broglie wavelength h/(m v) of the beam particles."""
    if not (mass > 0 and v_cm > 0):
        raise ValueError("mass and v_cm must be positive")
    momentum = mass * v_cm
    if momentum == 0.0:
        raise ArithmeticError(f"m*v_cm underflows to 0 (mass={mass:g} kg, v_cm={v_cm:g} m/s)")
    return PLANCK_H / momentum


def focal_length(lens: LensSpec, mass: float) -> float:
    """Thin-lens focal length of one standing-wave crossing."""
    if not mass > 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    lam_db = de_broglie(mass, lens.v_cm)
    return (
        lens.wavelength**2
        / (math.pi * lens.omega0 * lens.t_int * lam_db)
        * math.sqrt(1.0 + (lens.detuning / lens.omega0) ** 2)
    )


def gamma_from_curvature(mass: float, v_cm: float, curvature_radius: float, sigma0: float) -> float:
    """Correlation parameter from the wavefront curvature radius.

    Sign convention: R > 0 (diverging beam) gives gamma > 0; an infinite R
    (flat wavefront) gives gamma = 0.
    """
    if curvature_radius == 0 or math.isnan(curvature_radius):
        raise ValueError(f"curvature radius must be nonzero and not NaN, got {curvature_radius}")
    if not (mass > 0 and v_cm > 0 and sigma0 > 0):
        raise ValueError("mass, v_cm and sigma0 must be positive")
    return mass * v_cm * sigma0**2 / (HBAR * curvature_radius)
