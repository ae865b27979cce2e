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
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

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
    _tgi_db,
    build_table1,
    lambda_from_temperature,
    relative_purity_rate,
    tau_max_approx,
    tau_max_exact,
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


@dataclass(frozen=True)
class RunManifest:
    """Provenance record accompanying every output file."""

    tool: str
    version: str
    command: str
    constants: dict
    parameters: dict
    duration_s: float

    def as_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


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

    t = getattr(args, "t", None)
    if t is None:
        t = cfg.get("t_s")

    probe = ProbeSpec(mass=mass, sigma0=sigma0, ell0=ell0, gamma=gamma)
    return Scenario(probe=probe, lam=lam, m_air=m_air, number_density=density,
                    molecule_size=size, t=t)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_manifest(out_path: Path, command: str, scenario_dict: dict, started: float) -> None:
    manifest = RunManifest(
        tool="pmcorr",
        version=__version__,
        command=command,
        constants={"hbar_Js": HBAR, "k_boltzmann_JK": K_BOLTZMANN, "planck_h_Js": PLANCK_H},
        parameters=scenario_dict,
        duration_s=time.monotonic() - started,
    )
    out_path.with_name(out_path.name + ".manifest.json").write_text(
        manifest.as_json(), encoding="utf-8"
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
# subcommands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRequest:
    """One validated axis sweep: target, axis range, fixed scenario, output."""

    target: str                     # "gamma" | "lambda" | "purity"
    axis: str                       # "gamma" | "lambda" | "time"
    minimum: float
    maximum: float
    points: int
    log: bool
    scenario: Scenario
    out: str | None
    emit_svg: bool

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if self.minimum >= self.maximum:
            raise ValueError("min must be < max")
        if self.log and self.minimum <= 0:
            raise ValueError("log axis requires min > 0")

    def values(self) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.minimum), math.log10(self.maximum), self.points)
        return np.linspace(self.minimum, self.maximum, self.points)


def cmd_sweep(args, started: float) -> int:
    scenario = _resolve(args)
    request = SweepRequest(
        target=args.target, axis=args.axis, minimum=args.min, maximum=args.max,
        points=args.points, log=args.log, scenario=scenario, out=args.out,
        emit_svg=args.format == "svg",
    )
    values = request.values()
    target = None if request.target == "purity" else EstimationTarget(request.target)

    axis_name = {"gamma": "gamma", "lambda": "lambda_per_m2s", "time": "time_s"}[request.axis]
    header = [axis_name, "purity", "relative_purity_rate_per_s"]
    if target is EstimationTarget.GAMMA:
        header += ["qfi_analytic", "qfi_numeric", "cfi_closed"]
    elif target is EstimationTarget.LAMBDA:
        header += [
            "qfi_analytic_m4s2", "qfi_numeric_m4s2", "cfi_closed_m4s2",
            "lambda_sq_qfi", "temperature_equivalent_k",
        ]

    rows = []
    for i, v in enumerate(values):
        probe, lam, t = scenario.probe, scenario.lam, scenario.t
        if request.axis == "gamma":
            probe = probe.with_gamma(float(v))
        elif request.axis == "lambda":
            lam = float(v)
        else:
            t = float(v)
        if lam is None:
            raise ValueError("no coupling given: set --lambda or --temperature (or config)")
        if t is None or t <= 0:
            raise ValueError("sweep needs a positive interaction time (--t or the time axis)")
        env = EnvironmentSpec(lam=lam)
        try:
            row = [float(v), purity_exact(probe, env, t), relative_purity_rate(probe, env, t)]
            if target is not None:
                row += [
                    qfi_analytic(target, probe, env, t),
                    qfi_numeric(target, probe, env, t),
                    cfi_closed(target, probe, env, t),
                ]
            if target is EstimationTarget.LAMBDA:
                row += [
                    lam**2 * row[3],
                    temperature_from_lambda(
                        lam, scenario.m_air, scenario.number_density, scenario.molecule_size
                    ),
                ]
        except ConvergenceError as exc:
            print(f"sweep row {i} ({axis_name}={v!r}) failed: {exc}", file=sys.stderr)
            return 3
        rows.append(row)

    _emit_csv(header, rows, request.out, "sweep", scenario.as_dict(), started,
              svg=request.emit_svg, quiet=args.quiet)
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
        nan = float("nan")
        table.append([
            row.gamma, row.tau_max * 1e6, row.purity_at_tau_max,
            row.relative_purity_rate, row.lambda_sq_qfi, row.tgi_db,
            ref.tau_max * 1e6 if ref else nan,
            ref.relative_purity_rate if ref else nan,
            ref.lambda_sq_qfi if ref else nan,
            ref.tgi_db if ref else nan,
            (row.tau_max - ref.tau_max) / ref.tau_max if ref else nan,
            (row.relative_purity_rate - ref.relative_purity_rate) / ref.relative_purity_rate
            if ref else nan,
            (row.lambda_sq_qfi - ref.lambda_sq_qfi) / ref.lambda_sq_qfi if ref else nan,
            row.tgi_db - ref.tgi_db if ref else nan,
        ])

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
        if args.to_lambda < 0:
            raise ValueError(f"temperature must be >= 0, got {args.to_lambda}")
        value = lambda_from_temperature(args.to_lambda, m_air, density, size)
        print(fmt(value))
    else:
        if args.to_temp < 0:
            raise ValueError(f"lambda must be >= 0, got {args.to_temp}")
        value = temperature_from_lambda(args.to_temp, m_air, density, size)
        print(fmt(value))
    if not args.quiet:
        print(
            f"# environment: m_air={fmt(m_air)} kg, number_density={fmt(density)} m^-3, "
            f"molecule_size={fmt(size)} m",
            file=sys.stderr,
        )
    return 0


def _figure_writer(args, scenario, started):
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    marker = outdir / ".write_test"
    marker.write_text("", encoding="utf-8")
    marker.unlink()

    def write(name: str, header: list[str], rows: list[list[float]]) -> None:
        _emit_csv(header, rows, str(outdir / name), f"figures:{args.preset}",
                  scenario.as_dict(), started, svg=args.format == "svg", quiet=args.quiet)

    return write


def cmd_figures(args, started: float) -> int:
    scenario = _resolve(args)
    probe = scenario.probe
    write = _figure_writer(args, scenario, started)
    gam = EstimationTarget.GAMMA
    lamt = EstimationTarget.LAMBDA

    if args.preset == "fig2":
        t = 1e-6
        for panel, lam in (("a", 0.0), ("b", 1e20), ("c", 1e22), ("d", 1e23)):
            env = EnvironmentSpec(lam=lam)
            rows = []
            for g in np.linspace(-150.0, 150.0, 301):
                p = probe.with_gamma(float(g))
                mu = purity_exact(p, env, t)
                rows.append([
                    g,
                    qfi_analytic(gam, p, env, t),
                    cfi_closed(gam, p, env, t),
                    mu,
                    abs(purity_derivative(gam, p, env, t)) / mu,
                ])
            write(f"fig2{panel}.csv",
                  ["gamma", "qfi_gamma", "cfi_gamma", "purity", "rel_purity_slope_gamma"],
                  rows)
    elif args.preset == "fig3":
        t = 50e-6
        for panel, lam in (("a", 1e15), ("b", 1e21)):
            env = EnvironmentSpec(lam=lam)
            rows = []
            for g in np.linspace(-150.0, 150.0, 301):
                p = probe.with_gamma(float(g))
                mu = purity_exact(p, env, t)
                rows.append([
                    g,
                    lam**2 * qfi_analytic(lamt, p, env, t),
                    lam**2 * cfi_closed(lamt, p, env, t),
                    mu,
                    abs(purity_derivative(gam, p, env, t)) / mu,
                ])
            write(f"fig3{panel}.csv",
                  ["gamma", "lambda_sq_qfi", "lambda_sq_cfi", "purity", "rel_purity_slope_gamma"],
                  rows)
    elif args.preset == "fig4":
        lam = 1e15
        env = EnvironmentSpec(lam=lam)
        gammas = (0.0, 10.0, 50.0)
        times = np.logspace(-6, math.log10(5e-3), 220)
        qfi_rows, state_rows = [], []
        for t in times:
            probes = [probe.with_gamma(g) for g in gammas]
            qfi_rows.append([t] + [lam**2 * qfi_analytic(lamt, p, env, float(t)) for p in probes])
            state_rows.append(
                [t]
                + [purity_exact(p, env, float(t)) for p in probes]
                + [relative_purity_rate(p, env, float(t)) for p in probes]
            )
        write("fig4a.csv",
              ["time_s"] + [f"lambda_sq_qfi_gamma{g:g}" for g in gammas], qfi_rows)
        write("fig4b.csv",
              ["time_s"] + [f"purity_gamma{g:g}" for g in gammas]
              + [f"purity_rate_per_s_gamma{g:g}" for g in gammas], state_rows)
    elif args.preset == "fig5":
        lam = scenario.lam if scenario.lam is not None else 1e15
        env = EnvironmentSpec(lam=lam)
        curve = [[g, tgi_approx(float(g))] for g in np.linspace(-150.0, 150.0, 301)]
        write("fig5_curve.csv", ["gamma", "tgi_approx_db"], curve)
        t_ref = tau_max_exact(probe.with_gamma(0.0), env)
        points = []
        for g in (r.gamma for r in TABLE1_REFERENCE):
            t_max = tau_max_exact(probe.with_gamma(g), env)
            points.append([g, _tgi_db(t_max, t_ref)])
        write("fig5_points.csv", ["gamma", "tgi_db"], points)
    elif args.preset == "figD":
        env = EnvironmentSpec(lam=1e22)
        rows = []
        for g in np.linspace(-150.0, 150.0, 61):
            p = probe.with_gamma(float(g))
            for t in np.logspace(-7, -4, 41):
                mu = purity_exact(p, env, float(t))
                rows.append([
                    g, t,
                    qfi_analytic(gam, p, env, float(t)),
                    mu,
                    abs(purity_derivative(gam, p, env, float(t))) / mu,
                ])
        write("figD_grid.csv",
              ["gamma", "time_s", "qfi_gamma", "purity", "rel_purity_slope_gamma"], rows)
    elif args.preset == "figE":
        t = 50e-6
        gammas = (-10.0, 0.0, 5.0)
        rows = []
        for lam in np.logspace(13, 22, 181):
            env = EnvironmentSpec(lam=float(lam))
            row = [lam]
            for g in gammas:
                p = probe.with_gamma(g)
                row.append(lam**2 * qfi_analytic(lamt, p, env, t))
            for g in gammas:
                p = probe.with_gamma(g)
                mu = purity_exact(p, env, t)
                row += [mu, abs(purity_derivative(lamt, p, env, t)) / mu]
            rows.append(row)
        header = ["lambda_per_m2s"] + [f"lambda_sq_qfi_gamma{g:g}" for g in gammas]
        for g in gammas:
            header += [f"purity_gamma{g:g}", f"rel_purity_slope_lambda_gamma{g:g}"]
        write("figE.csv", header, rows)
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
    t_gamma = tau_max_exact(probe, env)
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)
    print(f"tau_max_us = {fmt(t_gamma * 1e6)}")
    print(f"tau_max_approx_us = {fmt(tau_max_approx(probe, env) * 1e6)}")
    print(f"tgi_db = {fmt(_tgi_db(t_gamma, t_ref))}")
    print(f"tgi_approx_db = {fmt(tgi_approx(probe.gamma))}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    """Output/behavior flags, accepted both before and after the subcommand."""
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--config", help="flat key = value configuration file",
                        **({"default": None} if not suppress else kw))
    parser.add_argument("--out", help="output file path (CSV); default is stdout",
                        **({"default": None} if not suppress else kw))
    parser.add_argument("--format", choices=("csv", "svg"),
                        help="svg additionally writes decorative charts next to the CSV",
                        **({"default": "csv"} if not suppress else kw))
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational messages",
                        **({"default": False} if not suppress else kw))


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
    figures.add_argument("--preset", choices=("fig2", "fig3", "fig4", "fig5", "figD", "figE"),
                         required=True)
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
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


def console_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
