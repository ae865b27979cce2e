"""Correlated Gaussian probe in a Markovian scattering bath.

The probe starts as a transverse Gaussian wave packet whose quadratic phase
encodes a position-momentum correlation ``gamma``; a partially incoherent
source is described by a finite coherence length ``ell0``.  Free flight plus
collisional decoherence of strength ``lam`` (m^-2 s^-1) keeps the state
Gaussian, so it is carried either by its second moments (`covariance`) or by
the Gaussian kernel of the position-space density matrix (`kernel_params`,
which returns the coefficient the closed-form CFI needs).

Covariance convention: entries are dimensionless (x in units of sigma0, p in
units of hbar/sigma0) and scaled so a pure uncorrelated probe at t=0 has unit
determinant.  With that normalization det(cov) = 1/purity^2 holds exactly,
which is what the Fisher-information formulas in `pmcorr.fisher` assume.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from . import _dd
from .constants import FULLERENE_ELL0, FULLERENE_MASS, FULLERENE_SIGMA0, HBAR

#: covariance determinants may round below 1 by this much near the pure manifold
DET_TOLERANCE = 1e-9


class _Frozen:
    """Immutable record: slots, with equality, hash and repr by field.

    A subclass names its fields in ``__slots__`` and sets them in its own
    validating ``__init__`` through ``object.__setattr__``; copies and pickles
    are rebuilt through that ``__init__`` too.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ProbeSpec(_Frozen):
    """Matter-wave probe: mass, initial width, coherence length, correlation.

    Pass ``ell0=math.inf`` for a fully coherent (ideally collimated) source;
    the 1/ell0^2 terms are then dropped exactly instead of through a large
    float, so the pure-state limit is free of cancellation error.  A gamma
    whose square leaves the float range raises OverflowError.
    """

    __slots__ = ("mass", "sigma0", "ell0", "gamma")

    def __init__(self, mass: float, sigma0: float, ell0: float = math.inf, gamma: float = 0.0):
        if not (mass > 0 and math.isfinite(mass)):
            raise ValueError(f"mass must be positive and finite, got {mass}")
        if not (sigma0 > 0 and math.isfinite(sigma0)):
            raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
        if not ell0 > 0:
            raise ValueError(f"ell0 must be positive (math.inf allowed), got {ell0}")
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if abs(gamma) > _SQUARE_LIMIT:  # every purity and Fisher route squares gamma
            _power(gamma, 2, "gamma")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "ell0", ell0)
        object.__setattr__(self, "gamma", gamma)

    @property
    def is_fully_coherent(self) -> bool:
        return math.isinf(self.ell0)

    @property
    def coherence_ratio_sq(self) -> float:
        """(sigma0/ell0)^2; exactly zero for a fully coherent source."""
        return _coherence_ratio_sq(self.sigma0, self.ell0)

    def with_gamma(self, gamma: float) -> "ProbeSpec":
        return ProbeSpec(self.mass, self.sigma0, self.ell0, gamma)


class EnvironmentSpec(_Frozen):
    """Scattering environment, characterized by the effective constant ``lam``.

    `pmcorr.thermometry` maps ``lam`` to and from the temperature of a
    thermal gas.
    """

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        if not (lam >= 0 and math.isfinite(lam)):
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        object.__setattr__(self, "lam", lam)


class KernelParams(_Frozen):
    """Coefficient b_sq (m^-4) of the evolved density-matrix Gaussian kernel.

    b_sq is the one coefficient the closed-form CFI reads; the readout
    variance is V = 2 hbar^2 t^2 sigma0^2 b_sq / m^2.
    """

    __slots__ = ("b_sq",)

    def __init__(self, b_sq: float):
        if not b_sq > 0:
            raise ValueError(f"b_sq must be positive, got {b_sq}")
        object.__setattr__(self, "b_sq", b_sq)


class CovarianceMatrix(NamedTuple):
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


def fullerene_probe(gamma: float = 0.0, ell0: float = FULLERENE_ELL0) -> ProbeSpec:
    """Probe of the reference fullerene scenario with the given correlation."""
    return ProbeSpec(mass=FULLERENE_MASS, sigma0=FULLERENE_SIGMA0, ell0=ell0, gamma=gamma)


# ---------------------------------------------------------------------------
# float-level core
#
# These take bare floats (gamma and lam possibly outside their physical
# domain) so that numerical differentiation can probe them analytically
# continued; the public API validates through `ProbeSpec` and `EnvironmentSpec`.
# ---------------------------------------------------------------------------

def _tau0(mass: float, sigma0: float) -> float:
    return mass * sigma0**2 / HBAR


def _cpow(x, k):
    """x**k by CPython's pow, elementwise for an array.

    numpy's ** rounds differently on a few percent of inputs, and array
    evaluations must match the one-point ones bit for bit.  An array exists
    only once numpy is loaded, so numpy is looked up, never imported, here.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        return np.array([v**k for v in x.ravel().tolist()]).reshape(x.shape)
    return x**k


#: largest magnitude whose square is a finite double (~1.3e154)
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)


def _power(value, k, name: str, unit: str = "", divisor: bool = False, where: str = ""):
    """value**k, raising an ArithmeticError that names the quantity and its limit.

    An overflow raises OverflowError; a power that is to divide raises
    ZeroDivisionError where it rounds to 0.  ``where`` (", in ...,") says
    where the power sits.  The limits are worked out only for the message: the
    k-th root of the largest double, and that of half the smallest one, which
    is taken root by root because 2**-1075 itself rounds to 0.
    """
    try:
        power = value**k
    except OverflowError:
        raise OverflowError(
            f"{name}={value:g} overflows the float range: {name}^{k:g}{where} needs {name} "
            f"below ~{sys.float_info.max ** (1 / k):.2g} {unit}".rstrip()
        ) from None
    if divisor and not power:
        raise ZeroDivisionError(
            f"{name}={value:g} underflows the float range: {name}^{k:g}{where or ','} a divisor, "
            f"needs {name} above ~{math.ulp(0.0) ** (1 / k) / 2 ** (1 / k):.2g} {unit}".rstrip()
        )
    return power


def _require_positive_t(t) -> None:
    """The domain of every function of t > 0: a ValueError unless 0 < t < inf."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t}")


def _require_nonnegative_t(t) -> None:
    """The domain of every function of t >= 0: a ValueError unless 0 <= t < inf."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be >= 0 and finite, got {t}")


def _coherence_ratio_sq(sigma0, ell0):
    """eps = (sigma0/ell0)^2, exactly 0 for ell0 = inf; ``==`` lets a sympy symbol through."""
    return 0.0 if ell0 == math.inf else _power(sigma0 / ell0, 2, "(sigma0/ell0)")


def _bracket_scales(mass, sigma0) -> tuple:
    """(tau0, mass^2) for the purity bracket's copies, which divide by mass^2 and 3 tau0 mass.

    A divisor below the smallest normal double has lost significant bits,
    and so would every quotient by it: such a divisor, or a mass^2 that
    overflows, raises a named ArithmeticError here (a symbol passes), so
    the copies need no wrapper of their own.
    """
    tau = mass * sigma0**2 / HBAR  # `_tau0`, inlined
    mass_sq = _power(mass, 2, "mass", "kg")
    tau_mass, normal = 3.0 * tau * mass, sys.float_info.min
    if isinstance(mass_sq, float) and not mass_sq >= normal:
        raise ZeroDivisionError(f"mass={mass:g} underflows the float range: mass^2, a divisor, "
                                f"needs mass above ~{normal ** 0.5:.2g} kg")
    if isinstance(tau_mass, float) and not tau_mass >= normal:
        raise ZeroDivisionError(
            f"3*tau0*mass={tau_mass:g} underflows the float range: 3 tau0 mass = "
            f"3 mass^2 sigma0^2/hbar, a divisor, needs to stay above ~{normal:.2g} kg s "
            f"(mass={mass:g} kg, sigma0={sigma0:g} m)"
        )
    return tau, mass_sq


def _purity_bracket_factors(mass, sigma0, eps, t) -> tuple:
    """The factors of `_purity_bracket_dd`'s monomials free of gamma and lam.

    Every power of t is taken here, so every named error of the monomials
    is raised here: mass^2 and 3 tau0 mass (`_bracket_scales`), then the
    first t^k to leave the float range.
    """
    tau, mass_sq = _bracket_scales(mass, sigma0)
    try:
        t2, t3, t4 = _cpow(t, 2), _cpow(t, 3), _cpow(t, 4)
    except OverflowError:
        # along an axis t is an array, whose powers here raise nothing: the bare
        # error stands, and the sweep reruns its rows one point at a time
        _name_time_power(t)
        raise
    e2 = 1.0 + 2.0 * eps
    return (
        e2,
        4.0 * sigma0**2 * t,
        (4.0 * HBAR / mass) * t2,
        (4.0 * HBAR / (3.0 * tau * mass)) * t3,
        (4.0 * HBAR * e2 / (3.0 * tau * mass)) * t3,
        (4.0 * HBAR**2 / (3.0 * mass_sq)) * t4,
    )


def _gamma_parts(gamma) -> tuple:
    """gamma's split halves, gamma^2 = dd_mul(dd(gamma), dd(gamma)) and its high part's halves.

    (gamma, its high and low halves, gamma^2's high and low parts, the halves
    of that high part): every operand both monomial builders take from gamma.
    """
    c = _dd._SPLIT * gamma
    gh = c - (c - gamma)
    gt = gamma - gh
    p = gamma * gamma
    e = ((gh * gh - p) + gh * gt + gt * gh) + gt * gt + gamma * 0.0 + 0.0 * gamma
    g2 = p + e
    c = _dd._SPLIT * g2
    g2h = c - (c - g2)
    return gamma, gh, gt, g2, e - (g2 - p), g2h, g2 - g2h


def _purity_bracket_dd(f, gamma, lam, moving=None) -> list:
    """Monomial split of 1/purity^2 from its `_purity_bracket_factors` f, as double-double pairs.

    Without `moving`, the six monomials at (gamma, lam).  With `moving`,
    "gamma" or "lambda", that parameter is a list of abscissae, and the
    result is one list per abscissa of the monomials in it, in order.  Every
    product touching gamma or lam is a compensated one, as in
    `_covariance_dd`: the float operations of `_dd.dd_mul` and
    `_dd.dd_mul_d` in the same order, on float locals, with each coefficient
    and the fixed parameter split once per call.
    """
    split = _dd._SPLIT
    c0, c1, c2, c3, c4, c5 = f
    c2h, c2t = _dd.split(c2)
    c3h, c3t = _dd.split(c3)
    if moving != "gamma":
        c1h, c1t = _dd.split(c1)
        c4h, c4t = _dd.split(c4)
        c5h, c5t = _dd.split(c5)
    lams = []
    for lm in lam if moving == "lambda" else [lam]:
        c = split * lm
        lh = c - (c - lm)
        lams.append((lm, lh, lm - lh))
    gammas = list(map(_gamma_parts, gamma if moving == "gamma" else [gamma]))
    # each abscissa's (gamma parts, lam parts); the fixed parameter's are shared
    points = zip(gammas, lams * len(gammas)) if moving == "gamma" else zip(gammas * len(lams), lams)
    lists = []
    for (g, gh, gt, g2, g2l, g2h, g2t), (lm, lh, lt) in points:
        p = g * lm  # dd_mul_d(dd_mul(dd(gamma), dd(lam)), c2)
        e = ((gh * lh - p) + gh * lt + gt * lh) + gt * lt + g * 0.0 + 0.0 * lm
        u = p + e
        v = e - (u - p)
        p = u * c2
        c = split * u
        uh = c - (c - u)
        ut = u - uh
        e = ((uh * c2h - p) + uh * c2t + ut * c2h) + ut * c2t + v * c2
        q = p + e
        g_lam = q, e - (q - p)
        p = g2 * lm  # dd_mul_d(dd_mul(gamma^2, dd(lam)), c3)
        e = ((g2h * lh - p) + g2h * lt + g2t * lh) + g2t * lt + g2 * 0.0 + g2l * lm
        u = p + e
        v = e - (u - p)
        p = u * c3
        c = split * u
        uh = c - (c - u)
        ut = u - uh
        e = ((uh * c3h - p) + uh * c3t + ut * c3h) + ut * c3t + v * c3
        q = p + e
        g2_lam = q, e - (q - p)
        if moving == "gamma":
            lists.append([g_lam, g2_lam])
            continue
        p = lm * c1  # dd_mul_d(dd(lam), c1)
        e = ((lh * c1h - p) + lh * c1t + lt * c1h) + lt * c1t + 0.0 * c1
        q = p + e
        lam_1 = q, e - (q - p)
        p = lm * c4  # dd_mul_d(dd(lam), c4)
        e = ((lh * c4h - p) + lh * c4t + lt * c4h) + lt * c4t + 0.0 * c4
        q = p + e
        lam_4 = q, e - (q - p)
        p = lm * lm  # dd_mul_d(dd_mul(dd(lam), dd(lam)), c5)
        e = ((lh * lh - p) + lh * lt + lt * lh) + lt * lt + lm * 0.0 + 0.0 * lm
        u = p + e
        v = e - (u - p)
        p = u * c5
        c = split * u
        uh = c - (c - u)
        ut = u - uh
        e = ((uh * c5h - p) + uh * c5t + ut * c5h) + ut * c5t + v * c5
        q = p + e
        lists.append([lam_1, g_lam, g2_lam, lam_4, (q, e - (q - p))])
    return lists if moving else [(c0, 0.0)] + lists[0]


def _coefficient_args(probe: ProbeSpec, env: EnvironmentSpec) -> tuple:
    """(mass, sigma0, ell0, gamma, lam), the arguments of every closed-form coefficient builder.

    Each copy of the purity bracket and the closed-form CFI is a coefficient
    tuple, which depends on these alone, and an evaluation at t.  A caller
    that evaluates many t at one (probe, env) builds the tuples once; the
    public functions build them per call, and both evaluate through the same
    functions.  The bracket's part free of gamma and lam
    (`_purity_bracket_fixed`) is kept for the last (mass, sigma0, ell0), so
    calls at one probe build it, and eps, once.
    """
    return probe.mass, probe.sigma0, probe.ell0, probe.gamma, env.lam


@functools.lru_cache(maxsize=1, typed=True)
def _purity_bracket_fixed(mass, sigma0, ell0) -> tuple:
    """The part free of gamma and lam of `_bracket_terms`, the one closed-form bracket builder.

    (1 + 2 eps, 4 sigma0^2, 2 eps, 3 tau0 mass, 3 mass^2, hbar^2), with
    eps's and then `_bracket_scales`' named errors.  A grid's probes differ
    in gamma alone, so the last probe's tuple is kept and a run builds it
    once; an error is not kept.  The cache is typed, so an int or a numpy
    scalar never takes a float's tuple.
    """
    eps2 = 2.0 * _coherence_ratio_sq(sigma0, ell0)
    tau, mass_sq = _bracket_scales(mass, sigma0)
    return 1.0 + eps2, 4.0 * sigma0**2, eps2, 3.0 * tau * mass, 3.0 * mass_sq, HBAR**2


def _bracket_terms(mass, fixed, g0, g1, g2, l0, l1, l2) -> tuple:
    """The one closed-form spelling of the purity bracket's coefficients, of t^0 to t^4.

    Each is a product of the `_purity_bracket_fixed` part, one of gamma's
    parts (g0, g1, g2) = (1, gamma, gamma^2 + 1 + 2 eps) and one of lam's
    parts (l0, l1, l2) = (1, lam, lam^2); the oracle's `_purity_bracket_dd`
    is the only other copy of B.
    """
    e2, s4, _, tm3, m3sq, hbar_sq = fixed
    return (
        e2 * g0 * l0,
        s4 * g0 * l1,
        4.0 * g1 * l1 * HBAR / mass,
        4.0 * HBAR * l1 * g2 / tm3,
        4.0 * g0 * l2 * hbar_sq / m3sq,
    )


def _purity_bracket_coefficients(mass, sigma0, ell0, gamma, lam, *wrt):
    """B = 1/purity^2's coefficients, or with ``wrt``, a list of B's and each dB/d(p)'s, p in wrt.

    Each tuple holds the factors of t^0 to t^4; each p is "gamma", "lambda"
    or "t".  dB/dgamma and dB/dlam are `_bracket_terms` with that
    parameter's parts replaced by their derivatives, (0, 1, 2 gamma) or
    (0, 1, 2 lam); dB/dt is `_derivative` of B's tuple.  One call shares the
    fixed part and the parts.
    """
    fixed = _purity_bracket_fixed(mass, sigma0, ell0)
    big = gamma**2 + 1.0 + fixed[2]
    try:
        lam_sq = lam**2
    except OverflowError:
        _power(lam, 2, "lambda", "m^-2 s^-1")
        raise
    bracket = _bracket_terms(mass, fixed, 1.0, gamma, big, 1.0, lam, lam_sq)
    if not wrt:
        return bracket
    tuples = [bracket]
    for p in wrt:
        if p == "t":
            tuples.append(_derivative(bracket))
        elif p == "gamma":
            tuples.append(_bracket_terms(mass, fixed, 0.0, 1.0, 2.0 * gamma, 1.0, lam, lam_sq))
        else:
            tuples.append(_bracket_terms(mass, fixed, 1.0, gamma, big, 0.0, 1.0, 2.0 * lam))
    return tuples


def _derivative(p) -> list:
    """p' from p in ascending powers, k c_k, in p's slots: the last is 0."""
    return [k * p[k] for k in range(1, len(p))] + [0.0]


def _name_time_power(t) -> None:
    """Raise the named OverflowError of the first of t**2 .. t**4 to leave the float range.

    The bracket evaluations call it only once a bare t**k has raised, so
    nothing is added where nothing fails.
    """
    for k in range(2, 5):
        _power(t, k, "t", "s", where=", in the purity bracket 1/purity^2,")


def _purity_bracket(c, t, *d):
    """1/purity^2 at t from its `_purity_bracket_coefficients` c; with derivatives' d, B and each.

    Its terms can overflow to inf (or to NaN in inf - inf) without raising;
    such a bracket raises a named OverflowError instead of giving purity 0.
    Every route evaluates B at t before any of its t, gamma or lambda
    derivatives: its powers of t hold all of theirs, so it alone names a t^k
    that leaves the float range, and each tuple of d, in B's five slots, is
    summed from the same powers.
    """
    c0, c1, c2, c3, c4 = c
    try:
        t2, t3, t4 = t**2, t**3, t**4
    except OverflowError:
        _name_time_power(t)
        raise
    bracket = c0 + c1 * t + c2 * t2 + c3 * t3 + c4 * t4
    if not bracket < math.inf:
        raise OverflowError(
            f"purity bracket 1/purity^2={bracket} overflows the float range at t={t:g} s"
        )
    if not d:
        return bracket
    sums = [bracket]
    for d0, d1, d2, d3, d4 in d:  # a loop: a comprehension costs a frame per call before 3.12
        sums.append(d0 + d1 * t + d2 * t2 + d3 * t3 + d4 * t4)
    return sums


def _covariance_factors(mass, sigma0, eps, t) -> tuple:
    """The factors of `_covariance_dd`'s monomials free of gamma and lam.

    (t/tau0, (t/tau0)^2, (t/tau0)^3) as double-double pairs, 1 + 2 eps, and
    sigma0^2 tau0, the factor of lam.  A tau0 that rounds to 0 raises here.
    """
    tau = _tau0(mass, sigma0)
    try:
        th = t / tau
    except (ZeroDivisionError, FloatingPointError):  # numpy's error, where t is an array
        raise ZeroDivisionError(
            f"tau0={tau:g} underflows the float range: tau0 = mass sigma0^2/hbar, a divisor, "
            f"rounds to 0 (mass={mass:g} kg, sigma0={sigma0:g} m)"
        ) from None
    th_dd = _dd.dd(th)
    th2 = _dd.dd_mul(th_dd, th_dd)
    return th_dd, th2, _dd.dd_mul(th2, th_dd), 1.0 + 2.0 * eps, sigma0**2 * tau


#: (c, its split halves) of the constant factors of the covariance's lam monomials,
#: those of (t/tau0)^3, (t/tau0)^2 and t/tau0
_LAM_FACTORS = tuple((c, *_dd.split(c)) for c in (4.0 / 3.0, 2.0, 4.0))


def _covariance_dd(f, gamma, lam, moving=None, sxx_only=False) -> list:
    """Monomial split of the scaled covariance from its `_covariance_factors` f.

    Layout: sxx = sum([:5]), sxp = sum([5:9]), spp = sum([9:]).  Each term is
    a monomial in gamma and lam, as a double-double pair, and every product
    touching gamma or lam is a compensated one, so finite differences taken
    term-by-term cancel the (possibly enormous) common parts exactly instead
    of losing them to float rounding.  Constants shared between evaluations
    round identically.  With `moving`, "gamma" or "lambda", that parameter
    is a list of abscissae, and the result is one list per abscissa of the
    monomials in it, in layout order; with `sxx_only`, only those of sxx.

    The products are the float operations of `_dd.dd_mul` and `_dd.dd_mul_d`
    in the same order, on float locals, with each operand free of the
    moving parameter (the powers of t/tau0, sigma0^2 tau0 and the fixed
    parameter) split once per call; the two monomials free of both
    parameters are built by `_dd.dd_mul_d`, once, in the full list.
    """
    th, th2, th3, e2, lam_scale = f
    split = _dd._SPLIT
    t1, t1l = th
    t1h, t1t = _dd.split(t1)
    t2, t2l = th2
    t2h, t2t = _dd.split(t2)
    by_gamma = []
    if moving != "lambda":
        for g, _, _, g2, g2l, g2h, g2t in map(_gamma_parts, gamma if moving else [gamma]):
            a = 2.0 * g  # dd_mul_d(th, 2 gamma)
            p = t1 * a
            c = split * a
            ah = c - (c - a)
            at = a - ah
            e = ((t1h * ah - p) + t1h * at + t1t * ah) + t1t * at + t1l * a
            q = p + e
            terms = [(q, e - (q - p))]
            p = g2 * t2  # dd_mul(gamma^2, th2)
            e = ((g2h * t2h - p) + g2h * t2t + g2t * t2h) + g2t * t2t + g2 * t2l + g2l * t2
            q = p + e
            terms.append((q, e - (q - p)))
            if not sxx_only:
                p = g2 * t1  # dd_mul(gamma^2, th)
                e = ((g2h * t1h - p) + g2h * t1t + g2t * t1h) + g2t * t1t + g2 * t1l + g2l * t1
                q = p + e
                terms += [(g, 0.0), (q, e - (q - p)), (g2, g2l)]
            by_gamma.append(terms)
    by_lam = []
    if moving != "gamma":
        sh, st = _dd.split(lam_scale)
        # (t/tau0)^n as a pair and its split halves, then the constant factor and its halves
        factors = [(*th3, *_dd.split(th3[0]), *_LAM_FACTORS[0])]
        if not sxx_only:
            factors += [
                (t2, t2l, t2h, t2t, *_LAM_FACTORS[1]), (t1, t1l, t1h, t1t, *_LAM_FACTORS[2])
            ]
        for lm in lam if moving else [lam]:
            p = lm * lam_scale  # lt = dd_mul_d(dd(lam), lam_scale)
            c = split * lm
            lh = c - (c - lm)
            lt = lm - lh
            e = ((lh * sh - p) + lh * st + lt * sh) + lt * st + 0.0 * lam_scale
            b = p + e
            bl = e - (b - p)
            c = split * b
            bh = c - (c - b)
            bt = b - bh
            terms = []
            for u, ul, uh, ut, k, kh, kt in factors:
                p = u * b  # dd_mul(th^n, lt)
                e = ((uh * bh - p) + uh * bt + ut * bh) + ut * bt + u * bl + ul * b
                a = p + e
                al = e - (a - p)
                p = a * k  # dd_mul_d(.., k)
                c = split * a
                ah = c - (c - a)
                at = a - ah
                e = ((ah * kh - p) + ah * kt + at * kh) + at * kt + al * k
                q = p + e
                terms.append((q, e - (q - p)))
            by_lam.append(terms)
    if moving:
        return by_gamma if moving == "gamma" else by_lam
    (g,), (lm,) = by_gamma, by_lam
    sxx = [(1.0, 0.0), g[0], _dd.dd_mul_d(th2, e2), g[1], lm[0]]
    if sxx_only:
        return sxx
    return sxx + [
        g[2], _dd.dd_mul_d(th, e2), g[3], lm[1],  # sxp
        (e2, 0.0), g[4], lm[2],  # spp
    ]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tau0(probe: ProbeSpec) -> float:
    """Free-spreading timescale m sigma0^2 / hbar of the probe, in seconds."""
    return _tau0(probe.mass, probe.sigma0)


def kernel_params(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> KernelParams:
    """Kernel coefficient b_sq of the evolved density matrix at time t > 0.

    b_sq contains a 1/t factor, so the initial state is not reachable here;
    use `covariance` for t = 0.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(
            f"kernel undefined at t={t}: t must be positive and finite "
            "(use covariance() for the initial moments)"
        )
    return KernelParams(b_sq=_kernel_b_sq(_kernel_coefficients(*_coefficient_args(probe, env)), t))


def _kernel_coefficients(mass, sigma0, ell0, gamma, lam) -> tuple:
    """The parts of b_sq that depend on (probe, env) alone, for `_kernel_b_sq`."""
    try:
        l2 = ell0**2
    except OverflowError:
        l2 = math.inf
    if isinstance(l2, float) and not sys.float_info.min <= l2 < math.inf:
        # not a normal double (a symbol passes as one): (1/ell0)^2 is 0 or subnormal for a
        # long ell0, 0 for ell0 = inf, and names its overflow for a short one
        inv_l2 = _power(1.0 / ell0, 2, "(1/ell0)", "m^-1", where=", in b_sq,")
    else:
        inv_l2 = 1.0 / l2
    try:
        s0_4 = sigma0**4
    except OverflowError:
        s0_4 = 0.0  # named below
    if not s0_4:  # `_power` only where it raises: a grid builds this once per (probe, env)
        _power(sigma0, 4, "sigma0", "m", divisor=True, where=", in b_sq,")
    quarter = 1.0 / (4.0 * s0_4)
    if quarter == math.inf:  # sigma0^4 is subnormal
        raise OverflowError(
            f"sigma0={sigma0:g} underflows the float range: 1/(4 sigma0^4), in b_sq, needs "
            f"sigma0 above ~{(0.25 / sys.float_info.max) ** 0.25:.2g} m"
        )
    return (
        quarter + inv_l2 / (2.0 * sigma0**2),
        mass,
        gamma / (2.0 * sigma0**2),
        lam,
        3.0 * sigma0**2,
    )


def _kernel_b_sq(c, t):
    """b_sq at t from the `_kernel_coefficients` c of its (probe, env)."""
    base, mass, g_term, lam, three_s0_sq = c
    try:
        b_sq = base + (mass / (2.0 * HBAR * t) + g_term) ** 2 + lam * t / three_s0_sq
    except OverflowError:  # a short t
        _power(mass / (2.0 * HBAR * t) + g_term, 2, "(m/(2 hbar t) + gamma/(2 sigma0^2))", "m^-2",
               where=", in b_sq,")
        raise
    if 0.0 < b_sq < math.inf:
        return b_sq
    if b_sq == math.inf:
        raise OverflowError(
            f"b_sq overflows the float range (lambda={lam:g} m^-2 s^-1, t={t:g} s)"
        )
    raise ValueError(f"b_sq must be positive, got {b_sq}")  # KernelParams' check, for cfi_closed


def covariance(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> CovarianceMatrix:
    """Scaled covariance matrix at time t >= 0 (exact analytic limit at t=0)."""
    _require_nonnegative_t(t)
    f = _covariance_factors(probe.mass, probe.sigma0, probe.coherence_ratio_sq, t)
    terms = _covariance_dd(f, probe.gamma, env.lam)
    sxx = _dd.dd_sum(terms[:5])
    sxp = _dd.dd_sum(terms[5:9])
    spp = _dd.dd_sum(terms[9:])
    det = _dd.dd_sub(_dd.dd_mul(sxx, spp), _dd.dd_mul(sxp, sxp))
    cov = CovarianceMatrix(
        sxx=sxx[0] + sxx[1],
        sxp=sxp[0] + sxp[1],
        spp=spp[0] + spp[1],
        det_hint=det[0] + det[1],
    )
    if not all(map(math.isfinite, (cov.sxx, cov.sxp, cov.spp, cov.det_hint))):
        raise OverflowError(
            f"covariance overflows the float range at t/tau0={t / tau0(probe):g}: (sxx, sxp, spp, "
            f"det) = ({cov.sxx:g}, {cov.sxp:g}, {cov.spp:g}, {cov.det_hint:g}) are not all finite "
            f"(mass={probe.mass:g} kg, t={t:g} s)"
        )
    return cov


def purity_exact(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Tr[rho^2] of the evolved state; always in (0, 1]."""
    _require_nonnegative_t(t)
    return _purity_bracket(_purity_bracket_coefficients(*_coefficient_args(probe, env)), t) ** -0.5


def purity_approx(probe: ProbeSpec, env: EnvironmentSpec, t: float) -> float:
    """Cubic-term approximation of the purity, valid for microsecond-scale flights."""
    _require_nonnegative_t(t)
    tau, _ = _bracket_scales(probe.mass, probe.sigma0)
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
    _require_nonnegative_t(t)
    f = _covariance_factors(probe.mass, probe.sigma0, probe.coherence_ratio_sq, t)
    return _position_variance(probe, _covariance_dd(f, probe.gamma, env.lam, sxx_only=True), t)


def _position_variance(probe: ProbeSpec, sxx_terms: list, t: float) -> float:
    """sigma0^2 sxx / 2 from sxx's five `_covariance_dd` monomials, named where it overflows."""
    sxx = _dd.dd_sum(sxx_terms)
    variance = probe.sigma0**2 * (sxx[0] + sxx[1]) / 2.0
    if not math.isfinite(variance):
        raise OverflowError(
            f"readout variance overflows the float range at t/tau0={t / tau0(probe):g}: "
            f"its sxx sum is not finite (mass={probe.mass:g} kg, t={t:g} s)"
        )
    return variance


def pearson_from_gamma(gamma: float) -> float:
    """Pearson correlation coefficient of x and p for correlation parameter gamma."""
    return gamma / math.sqrt(1.0 + gamma**2)


def gamma_from_pearson(r: float) -> float:
    """Inverse of `pearson_from_gamma`; requires |r| < 1."""
    if not abs(r) < 1.0:
        raise ValueError(f"correlation magnitude must be < 1, got {r}")
    return r / math.sqrt(1.0 - r**2)
