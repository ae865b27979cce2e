"""Command-line interface: sweeps, figure-preset data, the gain table,
coupling-temperature conversion, and one-shot evaluations.

CSV is the primary output (header row, 17 significant digits, '\\n' line
endings, UTF-8); SVG emission is a decorative convenience.  Every output
file is accompanied by a ``<name>.manifest.json`` sidecar recording the tool
version, the constants in effect, the resolved parameter set, and the
wall-clock duration.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure,
4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .constants import (
    AIR_MOLECULE_MASS,
    AIR_NUMBER_DENSITY,
    FULLERENE_ELL0,
    FULLERENE_MASS,
    FULLERENE_MOLECULE_SIZE,
    FULLERENE_SIGMA0,
    HBAR,
    K_BOLTZMANN,
    PLANCK_H,
)
from .fisher import (
    ConvergenceError,
    EstimationTarget,
    _qfi_numeric_points,
    cfi_closed,
    cfi_quadrature,
    purity_derivative,
    qfi_analytic,
    qfi_numeric,
)
from .lens import LensSpec, de_broglie, focal_length, gamma_from_curvature, optical_potential, rabi_profile
from .model import EnvironmentSpec, ProbeSpec, purity_approx, purity_exact, purity_from_covariance, covariance
from .thermometry import (
    TABLE1_REFERENCE,
    build_table1,
    lambda_from_temperature,
    relative_purity_rate,
    tau_max_approx,
    temperature_from_lambda,
    tgi_approx,
)

_TIME_UNITS = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))

#: table1 attaches the TABLE1_REFERENCE residuals when lam is within this
#: relative distance of the reference 1e15 m^-2 s^-1; --temperature 0.442
#: resolves to lam = 9.93e14
TABLE1_LAMBDA_RTOL = 0.01

#: recognized flat key = value configuration keys
CONFIG_KEYS = (
    "mass_kg",
    "sigma0_m",
    "ell0_m",
    "gamma",
    "lambda_m2s",
    "temperature_k",
    "m_air_kg",
    "number_density_m3",
    "molecule_size_m",
    "t_s",
)


def parse_time(text: str) -> float:
    """Time in seconds from a number with an optional ns/us/ms/s suffix."""
    s = str(text).strip()
    for suffix, scale in _TIME_UNITS:
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * scale
    return float(s)


def fmt(x: float) -> str:
    """Deterministic float formatting: 17 significant digits."""
    return format(float(x), ".17g")


def load_config(path: str) -> dict[str, float]:
    values: dict[str, float] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "ell0_m" and value.lower() in ("inf", "infinity"):
            values[key] = math.inf
        elif key == "t_s":
            values[key] = parse_time(value)
        else:
            values[key] = float(value)
    return values


@dataclass
class Scenario:
    """Fully resolved parameter set: defaults < config file < CLI flags."""

    probe: ProbeSpec
    lam: float | None
    m_air: float
    number_density: float
    molecule_size: float
    t: float | None

    def env(self) -> EnvironmentSpec:
        if self.lam is None:
            raise ValueError("no coupling given: set --lambda or --temperature (or config)")
        return EnvironmentSpec(lam=self.lam)

    def require_t(self) -> float:
        if self.t is None:
            raise ValueError("no interaction time given: set --t (or t_s in the config)")
        return self.t

    def as_dict(self) -> dict:
        return {
            "mass_kg": self.probe.mass,
            "sigma0_m": self.probe.sigma0,
            "ell0_m": None if self.probe.is_fully_coherent else self.probe.ell0,
            "gamma": self.probe.gamma,
            "lambda_m2s": self.lam,
            "m_air_kg": self.m_air,
            "number_density_m3": self.number_density,
            "molecule_size_m": self.molecule_size,
            "t_s": self.t,
        }


def _resolve(args: argparse.Namespace) -> Scenario:
    cfg = load_config(args.config) if args.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return cfg.get(key, default)

    mass = pick(getattr(args, "mass", None), "mass_kg", FULLERENE_MASS)
    sigma0 = pick(getattr(args, "sigma0", None), "sigma0_m", FULLERENE_SIGMA0)
    ell0 = pick(getattr(args, "ell0", None), "ell0_m", FULLERENE_ELL0)
    gamma = pick(getattr(args, "gamma", None), "gamma", 0.0)
    m_air = pick(getattr(args, "m_air", None), "m_air_kg", AIR_MOLECULE_MASS)
    density = pick(getattr(args, "number_density", None), "number_density_m3", AIR_NUMBER_DENSITY)
    size = pick(getattr(args, "molecule_size", None), "molecule_size_m", FULLERENE_MOLECULE_SIZE)

    lam = pick(getattr(args, "lam", None), "lambda_m2s", None)
    temperature = pick(getattr(args, "temperature", None), "temperature_k", None)
    if lam is None and temperature is not None:
        lam = lambda_from_temperature(temperature, m_air, density, size)

    t = pick(getattr(args, "t", None), "t_s", None)

    probe = ProbeSpec(mass=mass, sigma0=sigma0, ell0=ell0, gamma=gamma)
    return Scenario(probe=probe, lam=lam, m_air=m_air, number_density=density,
                    molecule_size=size, t=t)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_manifest(out_path: Path, command: str, scenario_dict: dict, started: float) -> None:
    """Provenance sidecar: tool version, constants, resolved parameters, duration."""
    manifest = {
        "tool": "pmcorr",
        "version": __version__,
        "command": command,
        "constants": {"hbar_Js": HBAR, "k_boltzmann_JK": K_BOLTZMANN, "planck_h_Js": PLANCK_H},
        "parameters": scenario_dict,
        "duration_s": time.monotonic() - started,
    }
    out_path.with_name(out_path.name + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _emit_csv(header: list[str], rows: list[list[float]], out: str | None,
              command: str, scenario_dict: dict, started: float,
              svg: bool = False, quiet: bool = False) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text, encoding="utf-8", newline="")
    _write_manifest(path, command, scenario_dict, started)
    if svg:
        _write_svg(path.with_suffix(".svg"), header, rows)
    if not quiet:
        print(f"wrote {path}", file=sys.stderr)


def _write_svg(path: Path, header: list[str], rows: list[list[float]]) -> None:
    """Decorative static line chart: first column is x, the rest are series."""
    width, height, pad = 640, 420, 56
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    xs = [row[0] for row in rows]
    if not xs or len(header) < 2:
        return
    xmin, xmax = min(xs), max(xs)
    ys = [v for row in rows for v in row[1:] if math.isfinite(v)]
    ymin, ymax = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(x):
        return pad + (x - xmin) / (xmax - xmin) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - ymin) / (ymax - ymin) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-12}" font-size="12" text-anchor="middle">{header[0]}</text>',
    ]
    for k, name in enumerate(header[1:]):
        color = colors[k % len(colors)]
        pts = " ".join(
            f"{sx(row[0]):.2f},{sy(row[1+k]):.2f}" for row in rows if math.isfinite(row[1 + k])
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width-pad}" y="{pad + 14*k}" font-size="11" text-anchor="end" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------

_GAMMA, _LAMBDA = EstimationTarget.GAMMA, EstimationTarget.LAMBDA

_AXIS_COLUMN = {"gamma": "gamma", "lambda": "lambda_per_m2s", "time": "time_s"}
#: position of each axis kind among a group's (probe, env, t) arguments
_AXIS_ARG = {"gamma": 0, "lambda": 1, "time": 2}


class _Column(NamedTuple):
    """A group whose cells also take this row's entry of a column of values.

    `values(probe, gamma, lam, t)` computes the column for every row in one
    call before the row loop; each parameter is a number, or a list with one
    entry per row where an axis varies it.  If that call fails, every entry
    is None and `cells` computes its row's value itself, so the row loop
    reports the lowest failing row as it does for any other group.
    """

    cells: Callable
    values: Callable


def _grid(probe: ProbeSpec, lam: float | None, t: float | None, axes, groups) -> list[list[float]]:
    """Rows of axis values followed by group cells, over the product of `axes`.

    Each axis is a (kind, values) pair, kind "gamma", "lambda" or "time", the
    first axis varying slowest; an axis overrides the fixed `lam` or `t` of its
    kind.  Each group maps (probe, env, t) to a list of cells, or is a
    `_Column`.  Probes and environments are built once per axis value, not
    once per row.  A row whose groups fail numerically raises ConvergenceError
    naming its index and point.
    """
    build = {"gamma": probe.with_gamma, "lambda": lambda v: EnvironmentSpec(lam=v), "time": float}
    levels = [[(kind, v, build[kind](v)) for v in map(float, values)] for kind, values in axes]
    on_axis = any(kind == "lambda" for kind, _ in axes)
    args = [probe, None if on_axis else EnvironmentSpec(lam=lam), t]
    points = list(itertools.product(*levels))
    params = {"gamma": probe.gamma, "lambda": lam, "time": t}
    params.update({kind: [point[j][1] for point in points] for j, (kind, _) in enumerate(axes)})
    columns = []
    for group in groups:
        column = None
        if isinstance(group, _Column):
            try:
                column = group.values(probe, params["gamma"], params["lambda"], params["time"])
            except (ConvergenceError, ArithmeticError, ValueError):
                column = [None] * len(points)
        columns.append(column)
    rows = []
    for point in points:
        for kind, _, arg in point:
            args[_AXIS_ARG[kind]] = arg
        try:
            cells = [
                cell
                for group, column in zip(groups, columns)
                for cell in (group(*args) if column is None else group.cells(*args, column[len(rows)]))
            ]
        except (ConvergenceError, ArithmeticError) as exc:
            where = ", ".join(f"{_AXIS_COLUMN[kind]}={v!r}" for kind, v, _ in point)
            raise ConvergenceError(f"row {len(rows)} ({where}) failed: {exc}") from exc
        rows.append([v for _, v, _ in point] + cells)
    return rows


def _lambda_sq_qfi(probe, env, t):
    return [env.lam**2 * qfi_analytic(_LAMBDA, probe, env, t)]


def _purity_slope(target):
    """Group of purity and its relative slope |d purity / d theta| / purity, from one purity."""
    def cells(probe, env, t):
        mu = purity_exact(probe, env, t)
        return [mu, abs(purity_derivative(target, probe, env, t)) / mu]

    return cells


def _per_gamma(gammas, *groups):
    """Group of wide columns: each group in turn, evaluated at each fixed gamma in turn."""
    memo = [None, []]  # the last row probe and its fixed-gamma copies, shared by its rows

    def cells(probe, env, t):
        if memo[0] is not probe:
            memo[:] = probe, [probe.with_gamma(g) for g in gammas]
        return [cell for group in groups for p in memo[1] for cell in group(p, env, t)]

    return cells


_GAMMA_AXIS = ("gamma", np.linspace(-150.0, 150.0, 301))
_FIG4_GAMMAS = (0.0, 10.0, 50.0)
_FIG4_TIMES = ("time", np.logspace(-6, math.log10(5e-3), 220))
_FIGE_GAMMAS = (-10.0, 0.0, 5.0)

#: figure preset -> files, each (name, group columns, axes, lam, t, groups); a
#: None lam is the scenario's coupling (default 1e15), a None t is on an axis or unused
_FIGURES = {
    "fig2": [
        (f"fig2{panel}.csv", ["qfi_gamma", "cfi_gamma", "purity", "rel_purity_slope_gamma"],
         [_GAMMA_AXIS], lam, 1e-6,
         [lambda p, e, t: [qfi_analytic(_GAMMA, p, e, t), cfi_closed(_GAMMA, p, e, t)],
          _purity_slope(_GAMMA)])
        for panel, lam in (("a", 0.0), ("b", 1e20), ("c", 1e22), ("d", 1e23))
    ],
    "fig3": [
        (f"fig3{panel}.csv", ["lambda_sq_qfi", "lambda_sq_cfi", "purity", "rel_purity_slope_gamma"],
         [_GAMMA_AXIS], lam, 50e-6,
         [_lambda_sq_qfi, lambda p, e, t: [e.lam**2 * cfi_closed(_LAMBDA, p, e, t)],
          _purity_slope(_GAMMA)])
        for panel, lam in (("a", 1e15), ("b", 1e21))
    ],
    "fig4": [
        ("fig4a.csv", [f"lambda_sq_qfi_gamma{g:g}" for g in _FIG4_GAMMAS],
         [_FIG4_TIMES], 1e15, None, [_per_gamma(_FIG4_GAMMAS, _lambda_sq_qfi)]),
        ("fig4b.csv", [f"purity_gamma{g:g}" for g in _FIG4_GAMMAS]
         + [f"purity_rate_per_s_gamma{g:g}" for g in _FIG4_GAMMAS],
         [_FIG4_TIMES], 1e15, None,
         [_per_gamma(_FIG4_GAMMAS, lambda p, e, t: [purity_exact(p, e, t)],
                     lambda p, e, t: [relative_purity_rate(p, e, t)])]),
    ],
    # fig5 also writes fig5_points.csv from the gain table, see cmd_figures
    "fig5": [("fig5_curve.csv", ["tgi_approx_db"], [_GAMMA_AXIS], None, None,
              [lambda p, e, t: [tgi_approx(p.gamma)]])],
    "figD": [
        ("figD_grid.csv", ["qfi_gamma", "purity", "rel_purity_slope_gamma"],
         [("gamma", np.linspace(-150.0, 150.0, 61)), ("time", np.logspace(-7, -4, 41))], 1e22, None,
         [lambda p, e, t: [qfi_analytic(_GAMMA, p, e, t)], _purity_slope(_GAMMA)]),
    ],
    "figE": [
        ("figE.csv", [f"lambda_sq_qfi_gamma{g:g}" for g in _FIGE_GAMMAS]
         + [f"{column}_gamma{g:g}" for g in _FIGE_GAMMAS
            for column in ("purity", "rel_purity_slope_lambda")],
         [("lambda", np.logspace(13, 22, 181))], None, 50e-6,
         [_per_gamma(_FIGE_GAMMAS, _lambda_sq_qfi, _purity_slope(_LAMBDA))]),
    ],
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args, started: float) -> int:
    scenario = _resolve(args)
    if args.points < 2:
        raise ValueError("points must be >= 2")
    if args.min >= args.max:
        raise ValueError("min must be < max")
    if args.log and args.min <= 0:
        raise ValueError("log axis requires min > 0")
    if args.log:
        values = np.logspace(math.log10(args.min), math.log10(args.max), args.points)
    else:
        values = np.linspace(args.min, args.max, args.points)
    if args.axis != "lambda":
        scenario.env()  # a coupling is needed off the lambda axis
    times = values if args.axis == "time" else [scenario.t]
    if any(t is None or t <= 0 for t in times):
        raise ValueError("sweep needs a positive interaction time (--t or the time axis)")

    target = None if args.target == "purity" else EstimationTarget(args.target)
    header = [_AXIS_COLUMN[args.axis], "purity", "relative_purity_rate_per_s"]
    if target is _GAMMA:
        header += ["qfi_analytic", "qfi_numeric", "cfi_closed"]
    elif target is _LAMBDA:
        header += [
            "qfi_analytic_m4s2", "qfi_numeric_m4s2", "cfi_closed_m4s2",
            "lambda_sq_qfi", "temperature_equivalent_k",
        ]

    def cells(probe, env, t, numeric=None):
        row = [purity_exact(probe, env, t), relative_purity_rate(probe, env, t)]
        if target is not None:
            row += [
                qfi_analytic(target, probe, env, t),
                qfi_numeric(target, probe, env, t) if numeric is None else numeric,
                cfi_closed(target, probe, env, t),
            ]
        if target is _LAMBDA:
            gas = (scenario.m_air, scenario.number_density, scenario.molecule_size)
            row += [env.lam**2 * row[2], temperature_from_lambda(env.lam, *gas)]
        return row

    # the Richardson oracle runs over the whole axis in one array call
    group = cells if target is None else _Column(cells, functools.partial(_qfi_numeric_points, target))
    try:
        rows = _grid(scenario.probe, scenario.lam, scenario.t, [(args.axis, values)], [group])
    except ConvergenceError as exc:  # _grid names the failing row
        print(f"sweep {exc}", file=sys.stderr)
        return 3
    _emit_csv(header, rows, args.out, "sweep", scenario.as_dict(), started,
              svg=args.format == "svg", quiet=args.quiet)
    return 0


_TABLE1_HEADER = [
    "gamma", "tau_max_us", "purity_at_tau_max", "relative_purity_rate_per_s",
    "lambda_sq_qfi", "tgi_db",
    "ref_tau_max_us", "ref_rate_per_s", "ref_lambda_sq_qfi", "ref_tgi_db",
    "resid_tau_max_rel", "resid_rate_rel", "resid_lambda_sq_qfi_rel", "resid_tgi_db",
]


def cmd_table1(args, started: float) -> int:
    scenario = _resolve(args)
    lam = scenario.lam if scenario.lam is not None else 1e15
    gammas = args.gammas if args.gammas is not None else [r.gamma for r in TABLE1_REFERENCE]
    rows = build_table1(scenario.probe, lam, gammas)
    near_reference = math.isclose(lam, 1e15, rel_tol=TABLE1_LAMBDA_RTOL)
    reference = {r.gamma: r for r in TABLE1_REFERENCE} if near_reference else {}

    table = []
    for row in rows:
        ref = reference.get(row.gamma)
        table.append([
            row.gamma, row.tau_max * 1e6, row.purity_at_tau_max,
            row.relative_purity_rate, row.lambda_sq_qfi, row.tgi_db,
        ] + ([
            ref.tau_max * 1e6, ref.relative_purity_rate, ref.lambda_sq_qfi, ref.tgi_db,
            (row.tau_max - ref.tau_max) / ref.tau_max,
            (row.relative_purity_rate - ref.relative_purity_rate) / ref.relative_purity_rate,
            (row.lambda_sq_qfi - ref.lambda_sq_qfi) / ref.lambda_sq_qfi,
            row.tgi_db - ref.tgi_db,
        ] if ref else [float("nan")] * 8))

    if args.out:
        _emit_csv(_TABLE1_HEADER, table, args.out, "table1", scenario.as_dict(), started,
                  svg=False, quiet=args.quiet)
    else:
        print(f"{'gamma':>8} {'tau_max(us)':>12} {'purity':>8} {'rate(1/s)':>12} "
              f"{'L^2*QFI':>9} {'TGI(dB)':>8}")
        for row in table:
            print(f"{row[0]:8.1f} {row[1]:12.4f} {row[2]:8.4f} {row[3]:12.1f} "
                  f"{row[4]:9.4f} {row[5]:8.3f}")
    return 0


def cmd_convert(args, started: float) -> int:
    scenario = _resolve(args)
    m_air, density, size = scenario.m_air, scenario.number_density, scenario.molecule_size
    if args.to_lambda is not None:
        value = lambda_from_temperature(args.to_lambda, m_air, density, size)
    elif args.to_temp < 0:
        raise ValueError(f"lambda must be >= 0, got {args.to_temp}")
    else:
        value = temperature_from_lambda(args.to_temp, m_air, density, size)
    print(fmt(value))
    if not args.quiet:
        print(
            f"# environment: m_air={fmt(m_air)} kg, number_density={fmt(density)} m^-3, "
            f"molecule_size={fmt(size)} m",
            file=sys.stderr,
        )
    return 0


def cmd_figures(args, started: float) -> int:
    scenario = _resolve(args)
    # every preset's manifests record the coupling and t, so both must be valid
    coupling = scenario.lam if scenario.lam is not None else 1e15
    EnvironmentSpec(lam=coupling)
    if scenario.t is not None and not 0.0 < scenario.t < math.inf:
        raise ValueError(f"t must be positive and finite, got {scenario.t}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    marker = outdir / ".write_test"
    marker.write_text("", encoding="utf-8")
    marker.unlink()

    def write(name: str, header: list[str], rows: list[list[float]]) -> None:
        _emit_csv(header, rows, str(outdir / name), f"figures:{args.preset}",
                  scenario.as_dict(), started, svg=args.format == "svg", quiet=args.quiet)

    for name, columns, axes, lam, t, groups in _FIGURES[args.preset]:
        header = [_AXIS_COLUMN[kind] for kind, _ in axes] + columns
        write(name, header, _grid(scenario.probe, coupling if lam is None else lam, t, axes, groups))
    if args.preset == "fig5":
        if not coupling > 0:
            raise ValueError("tau_max requires lam > 0")
        table = build_table1(scenario.probe, coupling, [r.gamma for r in TABLE1_REFERENCE])
        write("fig5_points.csv", ["gamma", "tgi_db"], [[row.gamma, row.tgi_db] for row in table])
    return 0


def cmd_lens(args, started: float) -> int:
    scenario = _resolve(args)
    lens = LensSpec(omega0=args.omega0, wavelength=args.wavelength,
                    detuning=args.detuning, v_cm=args.vcm, t_int=args.tint)
    mass = scenario.probe.mass
    pot = optical_potential(lens, args.x, args.z)
    print(f"rabi_frequency_rad_s = {fmt(rabi_profile(lens, args.x, args.z))}")
    print(f"optical_potential_rad_s = {fmt(pot.full)}")
    print(f"harmonic_potential_rad_s = {fmt(pot.harmonic)}")
    print(f"focal_length_m = {fmt(focal_length(lens, mass))}")
    print(f"de_broglie_m = {fmt(de_broglie(mass, args.vcm))}")
    if args.curvature_radius is not None:
        g = gamma_from_curvature(mass, args.vcm, args.curvature_radius, scenario.probe.sigma0)
        print(f"gamma = {fmt(g)}")
    return 0


def cmd_purity(args, started: float) -> int:
    scenario = _resolve(args)
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    print(f"purity_exact = {fmt(purity_exact(probe, env, t))}")
    print(f"purity_approx = {fmt(purity_approx(probe, env, t))}")
    print(f"purity_from_covariance = {fmt(purity_from_covariance(covariance(probe, env, t)))}")
    return 0


def cmd_qfi(args, started: float) -> int:
    scenario = _resolve(args)
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    target = EstimationTarget(args.target)
    analytic = qfi_analytic(target, probe, env, t)
    print(f"qfi_analytic = {fmt(analytic)}")
    print(f"qfi_numeric = {fmt(qfi_numeric(target, probe, env, t))}")
    if target is EstimationTarget.LAMBDA:
        print(f"lambda_sq_qfi = {fmt(env.lam**2 * analytic)}")
    return 0


def cmd_cfi(args, started: float) -> int:
    scenario = _resolve(args)
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    target = EstimationTarget(args.target)
    quad = cfi_quadrature(target, probe, env, t)
    print(f"cfi_closed = {fmt(cfi_closed(target, probe, env, t))}")
    print(f"cfi_quadrature = {fmt(quad.quadrature)}")
    print(f"cfi_gaussian_identity = {fmt(quad.gaussian_identity)}")
    return 0


def cmd_tgi(args, started: float) -> int:
    scenario = _resolve(args)
    probe, env = scenario.probe, scenario.env()
    approx = tau_max_approx(probe, env)
    row = build_table1(probe, env.lam, [probe.gamma])[0]
    print(f"tau_max_us = {fmt(row.tau_max * 1e6)}")
    print(f"tau_max_approx_us = {fmt(approx * 1e6)}")
    print(f"tgi_db = {fmt(row.tgi_db)}")
    print(f"tgi_approx_db = {fmt(tgi_approx(probe.gamma))}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    """Output/behavior flags, accepted both before and after the subcommand."""
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--config", default=default(None), help="flat key = value configuration file")
    parser.add_argument("--out", default=default(None), help="output file path (CSV); default is stdout")
    parser.add_argument("--format", choices=("csv", "svg"), default=default("csv"),
                        help="svg additionally writes decorative charts next to the CSV")
    parser.add_argument("--quiet", action="store_true", default=default(False),
                        help="suppress informational messages")


def _add_scenario_flags(sub: argparse.ArgumentParser, with_t: bool = True) -> None:
    sub.add_argument("--mass", type=float, help="probe mass, kg")
    sub.add_argument("--sigma0", type=float, help="initial width, m")
    sub.add_argument("--ell0", type=lambda s: math.inf if s.lower() in ("inf", "infinity") else float(s),
                     help="coherence length, m ('inf' for a fully coherent source)")
    sub.add_argument("--gamma", type=float, help="correlation parameter")
    sub.add_argument("--lambda", dest="lam", type=float, help="scattering constant, m^-2 s^-1")
    sub.add_argument("--temperature", type=float, help="bath temperature, K (alternative to --lambda)")
    sub.add_argument("--m-air", dest="m_air", type=float, help="gas molecule mass, kg")
    sub.add_argument("--number-density", dest="number_density", type=float, help="gas density, m^-3")
    sub.add_argument("--molecule-size", dest="molecule_size", type=float, help="probe molecule size, m")
    if with_t:
        sub.add_argument("--t", type=parse_time, help="interaction time (accepts ns/us/ms/s suffix)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcorr",
        description="Correlated Gaussian probe metrology: purity, Fisher information, thermometry.",
    )
    _add_global_flags(parser)
    parser.add_argument("--version", action="version", version=f"pmcorr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def _sub(name: str, help_text: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help_text)
        _add_global_flags(p, suppress=True)
        return p

    sweep = _sub("sweep", "sweep one axis, tabulating purity and Fisher information")
    sweep.add_argument("--target", choices=("gamma", "lambda", "purity"), default="purity")
    sweep.add_argument("--axis", choices=("gamma", "lambda", "time"), required=True)
    sweep.add_argument("--min", type=parse_time, required=True,
                       help="axis start (time axis accepts ns/us/ms/s suffixes)")
    sweep.add_argument("--max", type=parse_time, required=True,
                       help="axis end (time axis accepts ns/us/ms/s suffixes)")
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--log", action="store_true", help="logarithmic axis spacing")
    _add_scenario_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    table1 = _sub("table1", "information-gain table with reference residuals")
    table1.add_argument("--gammas", type=float, nargs="+")
    _add_scenario_flags(table1, with_t=False)
    table1.set_defaults(func=cmd_table1)

    convert = _sub("convert", "temperature <-> scattering constant")
    group = convert.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-lambda", type=float, metavar="KELVIN")
    group.add_argument("--to-temp", type=float, metavar="LAMBDA")
    _add_scenario_flags(convert, with_t=False)
    convert.set_defaults(func=cmd_convert)

    figures = _sub("figures", "write figure-preset CSV data sets")
    figures.add_argument("--preset", choices=tuple(_FIGURES), required=True)
    figures.add_argument("--outdir", default=".")
    _add_scenario_flags(figures)
    figures.set_defaults(func=cmd_figures)

    lens = _sub("lens", "standing-wave lens calculator")
    lens.add_argument("--omega0", type=float, required=True, help="peak Rabi frequency, rad/s")
    lens.add_argument("--wavelength", type=float, required=True, help="laser wavelength, m")
    lens.add_argument("--detuning", type=float, default=0.0, help="laser detuning, rad/s")
    lens.add_argument("--vcm", type=float, required=True, help="center-of-mass speed, m/s")
    lens.add_argument("--tint", type=parse_time, required=True, help="interaction time")
    lens.add_argument("--x", type=float, default=0.0)
    lens.add_argument("--z", type=float, default=0.0)
    lens.add_argument("--curvature-radius", dest="curvature_radius", type=float,
                      help="wavefront curvature radius, m (reports the matching gamma)")
    _add_scenario_flags(lens, with_t=False)
    lens.set_defaults(func=cmd_lens)

    for name, func in (("purity", cmd_purity), ("qfi", cmd_qfi), ("cfi", cmd_cfi), ("tgi", cmd_tgi)):
        sub = _sub(name, f"evaluate {name} at one parameter point")
        if name in ("qfi", "cfi"):
            sub.add_argument("--target", choices=("gamma", "lambda"), required=True)
        _add_scenario_flags(sub, with_t=name != "tgi")
        sub.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.monotonic()
    try:
        return args.func(args, started)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
