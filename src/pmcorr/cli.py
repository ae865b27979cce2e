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

import _thread
import argparse
import functools
import itertools
import math
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

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
    _analytic_curve,
    _cfi_closed_at,
    _cfi_coefficients,
    _qfi_numeric_points,
    cfi_closed,
    cfi_quadrature,
    qfi_analytic,
    qfi_numeric,
)
from .lens import LensSpec, de_broglie, focal_length, gamma_from_curvature, optical_potential, rabi_profile
from .model import (
    EnvironmentSpec,
    ProbeSpec,
    _coefficient_args,
    _require_positive_t,
    covariance,
    purity_approx,
    purity_exact,
    purity_from_covariance,
)
from .thermometry import (
    TABLE1_REFERENCE,
    _tgi_db,
    build_table1,
    lambda_from_temperature,
    tau_max_approx,
    tau_max_exact,
    temperature_from_lambda,
    tgi,
    tgi_approx,
)

_TIME_UNITS = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))

#: table1 attaches the TABLE1_REFERENCE residuals when lam is within this
#: relative distance of the reference 1e15 m^-2 s^-1; --temperature 0.442
#: resolves to lam = 9.93e14
TABLE1_LAMBDA_RTOL = 0.01


def parse_time(text: str) -> float:
    """Time in seconds from a number with an optional ns/us/ms/s suffix."""
    s = str(text).strip()
    for suffix, scale in _TIME_UNITS:
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * scale
    return float(s)


#: scenario parameters: (dest, flag, flat config key, parser, built-in default, help)
_SCENARIO_PARAMS = (
    ("mass", "--mass", "mass_kg", float, FULLERENE_MASS, "probe mass, kg"),
    ("sigma0", "--sigma0", "sigma0_m", float, FULLERENE_SIGMA0, "initial width, m"),
    ("ell0", "--ell0", "ell0_m", float, FULLERENE_ELL0,
     "coherence length, m ('inf' for a fully coherent source)"),
    ("gamma", "--gamma", "gamma", float, 0.0, "correlation parameter"),
    ("lam", "--lambda", "lambda_m2s", float, None, "scattering constant, m^-2 s^-1"),
    ("temperature", "--temperature", "temperature_k", float, None,
     "bath temperature, K (alternative to --lambda)"),
    ("m_air", "--m-air", "m_air_kg", float, AIR_MOLECULE_MASS, "gas molecule mass, kg"),
    ("number_density", "--number-density", "number_density_m3", float, AIR_NUMBER_DENSITY,
     "gas density, m^-3"),
    ("molecule_size", "--molecule-size", "molecule_size_m", float, FULLERENE_MOLECULE_SIZE,
     "probe molecule size, m"),
    ("t", "--t", "t_s", parse_time, None, "interaction time (accepts ns/us/ms/s suffix)"),
)


def fmt(x: float) -> str:
    """Deterministic float formatting: 17 significant digits."""
    return format(float(x), ".17g")


def load_config(path: str) -> dict[str, float]:
    parsers = {key: parse for _, _, key, parse, _, _ in _SCENARIO_PARAMS}
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
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


class Scenario(NamedTuple):
    """Fully resolved parameter set: defaults < config file < CLI flags."""

    probe: ProbeSpec
    lam: float | None
    gas: tuple[float, float, float]  # m_air, number_density, molecule_size
    t: float | None
    parameters: dict  # the manifest's record, by config key

    def env(self) -> EnvironmentSpec:
        if self.lam is None:
            raise ValueError("no coupling given: set --lambda or --temperature (or config)")
        return EnvironmentSpec(lam=self.lam)

    def require_t(self) -> float:
        if self.t is None:
            raise ValueError("no interaction time given: set --t (or t_s in the config)")
        return self.t


def _resolve(args: argparse.Namespace) -> Scenario:
    cfg = load_config(args.config) if args.config else {}
    p = {}
    for dest, _, key, _, default, _ in _SCENARIO_PARAMS:
        given = getattr(args, dest, None)
        p[dest] = given if given is not None else cfg.get(key, default)
    gas = (p["m_air"], p["number_density"], p["molecule_size"])
    if p["lam"] is None and p["temperature"] is not None:
        p["lam"] = lambda_from_temperature(p["temperature"], *gas)
    probe = ProbeSpec(mass=p["mass"], sigma0=p["sigma0"], ell0=p["ell0"], gamma=p["gamma"])
    if probe.is_fully_coherent:
        p["ell0"] = None  # recorded as null
    # the manifest records the resolved coupling, not the temperature it came from
    parameters = {key: p[dest] for dest, _, key, *_ in _SCENARIO_PARAMS if dest != "temperature"}
    return Scenario(probe, p["lam"], gas, p["t"], parameters)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_manifest(out_path: Path, command: str, scenario_dict: dict, started: float) -> None:
    """Provenance sidecar: tool version, constants, resolved parameters, duration."""
    import json  # deferred: only commands that write a file need it

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
    row_format = ",".join(["%.17g"] * len(header))  # each value as `fmt` writes it
    lines.extend(row_format % tuple(row) for row in rows)
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
#: position of each axis kind among the (probe, env, t) of a row
_AXIS_ARG = {"gamma": 0, "lambda": 1, "time": 2}


def _grid(probe: ProbeSpec, lam: float | None, t: float | None, axes, groups) -> list[list[float]]:
    """Rows of axis values followed by group cells, over the product of `axes`.

    Each axis is a (kind, values) pair, kind "gamma", "lambda" or "time", the
    first axis varying slowest; an axis overrides the fixed `lam` or `t` of its
    kind.  Each group maps (probe, env) to a function of t that returns a list
    of cells: the group is called once per (probe, env) that a run of rows
    shares, so what depends on them alone is built once, and its function once
    per row, in row order: an `_analytic` group makes one bracket-builder call
    per (probe, env) and evaluates one `fisher._analytic_curve` row per row.
    Probes and environments are built once per axis value, not once per row.
    A row whose groups fail numerically raises ConvergenceError naming its
    index and point.
    """
    build = {"gamma": probe.with_gamma, "lambda": lambda v: EnvironmentSpec(lam=v), "time": float}
    levels = [[(kind, v, build[kind](v)) for v in values] for kind, values in axes]
    on_axis = any(kind == "lambda" for kind, _ in axes)
    args = [probe, None if on_axis else EnvironmentSpec(lam=lam), t]
    rows, held, evaluators = [], [None, None], []
    for point in itertools.product(*levels):
        # loops, not comprehensions: before Python 3.12 each comprehension costs a frame per row
        row = []
        for kind, v, arg in point:
            args[_AXIS_ARG[kind]] = arg
            row.append(v)
        try:
            if args[0] is not held[0] or args[1] is not held[1]:
                evaluators = [group(args[0], args[1]) for group in groups]
                held = args[:2]
            for at in evaluators:
                row += at(args[2])
        except (ConvergenceError, ArithmeticError) as exc:
            where = ", ".join(f"{_AXIS_COLUMN[kind]}={v!r}" for kind, v, _ in point)
            raise ConvergenceError(f"row {len(rows)} ({where}) failed: {exc}") from exc
        rows.append(row)
    return rows


def _analytic(target=None, cfi: bool = False, slope=None):
    """Group of analytic columns: the QFI of `target`, where one is given, its
    position-readout CFI where asked, then, where `slope` names a parameter
    ("gamma", "lambda" or "t"), the purity and its relative slope
    |dB/d(slope)|/(2B), B = 1/purity^2.

    Lambda's QFI and CFI are scaled by lambda^2, as the figures plot them.  The
    purity, its relative slope and the QFI are one `fisher._analytic_curve`
    row, and the CFI's coefficients are built beside it, once per (probe, env).
    """
    def at(probe, env):
        lam_sq = env.lam**2 if target is _LAMBDA else 1.0
        curve = _analytic_curve(target, probe, env, slope)
        closed = _cfi_coefficients(target, _coefficient_args(probe, env)) if cfi else None

        def cells(t):
            mu, _, rate, value = curve(t)
            row = [] if target is None else [lam_sq * value]
            if cfi:
                row.append(lam_sq * _cfi_closed_at(target, closed, t))
            if slope:
                row += [mu, rate]
            return row

        return cells

    return at


def _per_gamma(gammas, group, widths=(1,)):
    """Group of wide columns: `group` evaluated at each fixed gamma in turn.

    Its cells are cut into blocks of `widths`, and each block is laid out
    for every gamma before the next block.
    """
    memo = [None, []]  # the last row probe and its fixed-gamma copies, shared by its rows
    ends = list(itertools.accumulate(widths))
    blocks = list(zip([0] + ends[:-1], ends))

    def at(probe, env):
        if memo[0] is not probe:
            memo[:] = probe, [probe.with_gamma(g) for g in gammas]
        evaluators = [group(p, env) for p in memo[1]]

        def cells(t):
            rows = [at_gamma(t) for at_gamma in evaluators]
            return [cell for start, end in blocks for row in rows for cell in row[start:end]]

        return cells

    return at


def _spaced(start: float, stop: float, num: int, log: bool = False) -> list[float]:
    """`num` evenly spaced values from `start` to `stop`, or 10**v of each if `log`.

    The values are numpy.linspace's, bit for bit: i*step + start, the last one
    `stop`.  A log axis raises 10.0 to each through the C library's pow, as every
    other power here does; numpy's logspace would round by whichever SIMD
    kernels numpy dispatches to on the running CPU.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal width: numpy scales i/div instead
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return [10.0**v for v in values] if log else values


def _axis(kind: str, *spacing):
    """A preset axis whose `_spaced` values are built when the preset runs, not at launch."""
    return kind, functools.partial(_spaced, *spacing)


_GAMMA_AXIS = _axis("gamma", -150.0, 150.0, 301)
_FIG4_GAMMAS = (0.0, 10.0, 50.0)
_FIG4_TIMES = _axis("time", -6.0, math.log10(5e-3), 220, True)
_FIGE_GAMMAS = (-10.0, 0.0, 5.0)

#: figure preset -> files, each (name, group columns, axes, lam, t, groups),
#: each axis a (kind, function that returns its values), as `_axis` makes
#: them; a None lam is the scenario's coupling (default 1e15), a None t is on
#: an axis or unused
_FIGURES = {
    "fig2": [
        (f"fig2{panel}.csv", ["qfi_gamma", "cfi_gamma", "purity", "rel_purity_slope_gamma"],
         [_GAMMA_AXIS], lam, 1e-6, [_analytic(_GAMMA, cfi=True, slope="gamma")])
        for panel, lam in (("a", 0.0), ("b", 1e20), ("c", 1e22), ("d", 1e23))
    ],
    "fig3": [
        (f"fig3{panel}.csv", ["lambda_sq_qfi", "lambda_sq_cfi", "purity", "rel_purity_slope_gamma"],
         [_GAMMA_AXIS], lam, 50e-6,
         [_analytic(_LAMBDA, cfi=True, slope="gamma")])
        for panel, lam in (("a", 1e15), ("b", 1e21))
    ],
    "fig4": [
        ("fig4a.csv", [f"lambda_sq_qfi_gamma{g:g}" for g in _FIG4_GAMMAS],
         [_FIG4_TIMES], 1e15, None, [_per_gamma(_FIG4_GAMMAS, _analytic(_LAMBDA))]),
        ("fig4b.csv", [f"purity_gamma{g:g}" for g in _FIG4_GAMMAS]
         + [f"purity_rate_per_s_gamma{g:g}" for g in _FIG4_GAMMAS],
         [_FIG4_TIMES], 1e15, None, [_per_gamma(_FIG4_GAMMAS, _analytic(slope="t"), (1, 1))]),
    ],
    "fig5": [
        ("fig5_curve.csv", ["tgi_approx_db"], [_GAMMA_AXIS], None, None,
         [lambda p, e: lambda t: [tgi_approx(p.gamma)]]),
        ("fig5_points.csv", ["tgi_db"], [("gamma", lambda: [r.gamma for r in TABLE1_REFERENCE])],
         None, None, [lambda p, e: lambda t: [tgi(p, e)]]),
    ],
    "figD": [
        ("figD_grid.csv", ["qfi_gamma", "purity", "rel_purity_slope_gamma"],
         [_axis("gamma", -150.0, 150.0, 61), _axis("time", -7.0, -4.0, 41, True)],
         1e22, None, [_analytic(_GAMMA, slope="gamma")]),
    ],
    "figE": [
        ("figE.csv", [f"lambda_sq_qfi_gamma{g:g}" for g in _FIGE_GAMMAS]
         + [f"{column}_gamma{g:g}" for g in _FIGE_GAMMAS
            for column in ("purity", "rel_purity_slope_lambda")],
         [_axis("lambda", 13.0, 22.0, 181, True)], None, 50e-6,
         [_per_gamma(_FIGE_GAMMAS, _analytic(_LAMBDA, slope="lambda"), (1, 2))]),
    ],
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sweep(args, scenario: Scenario, started: float) -> int:
    if args.points < 2:
        raise ValueError("points must be >= 2")
    if not (-math.inf < args.min < math.inf and -math.inf < args.max < math.inf):
        raise ValueError(f"axis bounds must be finite, got min={args.min} max={args.max}")
    if args.min >= args.max:
        raise ValueError("min must be < max")
    if args.log and args.min <= 0:
        raise ValueError("log axis requires min > 0")
    if args.log:
        try:
            values = _spaced(math.log10(args.min), math.log10(args.max), args.points, log=True)
        except OverflowError:  # 10**log10(max) rounds past the largest double
            raise ValueError(f"log axis max={args.max!r} leaves the float range as 10**log10(max): "
                             "max needs to stay below ~1.7976931348622e+308") from None
    else:
        values = _spaced(args.min, args.max, args.points)
    if args.axis != "lambda":
        scenario.env()  # a coupling is needed off the lambda axis
    times = values if args.axis == "time" else [scenario.t]
    if any(t is None or not 0.0 < t < math.inf for t in times):
        raise ValueError("sweep needs a positive, finite interaction time (--t or the time axis)")

    target = None if args.target == "purity" else EstimationTarget(args.target)
    header = [_AXIS_COLUMN[args.axis], "purity", "relative_purity_rate_per_s"]
    if target is _GAMMA:
        header += ["qfi_analytic", "qfi_numeric", "cfi_closed"]
    elif target is _LAMBDA:
        header += [
            "qfi_analytic_m4s2", "qfi_numeric_m4s2", "cfi_closed_m4s2",
            "lambda_sq_qfi", "temperature_equivalent_k",
        ]

    # the Richardson oracle runs over the whole axis in one array call; where that
    # fails, each row runs it alone, so the row loop names the lowest failing row
    numeric = [None] * len(values)
    if target is not None:
        point = {"gamma": scenario.probe.gamma, "lambda": scenario.lam, "time": scenario.t}
        point[args.axis] = values
        try:
            numeric = _qfi_numeric_points(target, scenario.probe, *point.values())
        except (ConvergenceError, ArithmeticError, ValueError):
            pass
    numeric = iter(numeric)  # _grid calls `cells` once per row, in row order

    def at(probe, env):
        curve = _analytic_curve(target, probe, env, "t")
        closed = _cfi_coefficients(target, _coefficient_args(probe, env))

        def cells(t):
            value = next(numeric)
            mu, _, rate, analytic = curve(t)
            row = [
                mu, rate, analytic, qfi_numeric(target, probe, env, t) if value is None else value,
                _cfi_closed_at(target, closed, t),
            ]
            if target is _LAMBDA:
                row += [env.lam**2 * analytic, temperature_from_lambda(env.lam, *scenario.gas)]
            return row

        return cells

    try:
        group = _analytic(slope="t") if target is None else at
        rows = _grid(scenario.probe, scenario.lam, scenario.t, [(args.axis, values)], [group])
    except ConvergenceError as exc:  # _grid names the failing row
        print(f"sweep {exc}", file=sys.stderr)
        return 3
    _emit_csv(header, rows, args.out, "sweep", scenario.parameters, started,
              svg=args.format == "svg", quiet=args.quiet)
    return 0


_TABLE1_HEADER = [
    "gamma", "tau_max_us", "purity_at_tau_max", "relative_purity_rate_per_s",
    "lambda_sq_qfi", "tgi_db",
    "ref_tau_max_us", "ref_rate_per_s", "ref_lambda_sq_qfi", "ref_tgi_db",
    "resid_tau_max_rel", "resid_rate_rel", "resid_lambda_sq_qfi_rel", "resid_tgi_db",
]


def cmd_table1(args, scenario: Scenario, started: float) -> int:
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
        _emit_csv(_TABLE1_HEADER, table, args.out, "table1", scenario.parameters, started,
                  svg=False, quiet=args.quiet)
    else:
        print(f"{'gamma':>8} {'tau_max(us)':>12} {'purity':>8} {'rate(1/s)':>12} "
              f"{'L^2*QFI':>9} {'TGI(dB)':>8}")
        for row in table:
            print(f"{row[0]:8.1f} {row[1]:12.4f} {row[2]:8.4f} {row[3]:12.1f} "
                  f"{row[4]:9.4f} {row[5]:8.3f}")
    return 0


def cmd_convert(args, scenario: Scenario, started: float) -> int:
    m_air, density, size = scenario.gas
    if args.to_lambda is not None:
        value = lambda_from_temperature(args.to_lambda, m_air, density, size)
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


def cmd_figures(args, scenario: Scenario, started: float) -> int:
    # every preset's manifests record the coupling and t, so both must be valid
    coupling = scenario.lam if scenario.lam is not None else 1e15
    EnvironmentSpec(lam=coupling)
    if scenario.t is not None:
        _require_positive_t(scenario.t)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    marker = outdir / ".write_test"
    marker.write_text("", encoding="utf-8")
    marker.unlink()

    def write(name: str, header: list[str], rows: list[list[float]]) -> None:
        _emit_csv(header, rows, str(outdir / name), f"figures:{args.preset}",
                  scenario.parameters, started, svg=args.format == "svg", quiet=args.quiet)

    for name, columns, axes, lam, t, groups in _FIGURES[args.preset]:
        header = [_AXIS_COLUMN[kind] for kind, _ in axes] + columns
        axes = [(kind, values()) for kind, values in axes]
        write(name, header, _grid(scenario.probe, coupling if lam is None else lam, t, axes, groups))
    return 0


def _print_values(values: list[tuple[str, float]]) -> int:
    """Print each (name, value) pair as `name = value`; return exit code 0.

    Every value is computed, and so validated, before anything is printed: a
    command builds the whole list first, so one that fails leaves stdout empty.
    """
    for name, value in values:
        print(f"{name} = {fmt(value)}")
    return 0


def cmd_lens(args, scenario: Scenario, started: float) -> int:
    lens = LensSpec(omega0=args.omega0, wavelength=args.wavelength,
                    detuning=args.detuning, v_cm=args.vcm, t_int=args.tint)
    mass = scenario.probe.mass
    pot = optical_potential(lens, args.x, args.z)
    results = [
        ("rabi_frequency_rad_s", rabi_profile(lens, args.x, args.z)),
        ("optical_potential_rad_s", pot.full),
        ("harmonic_potential_rad_s", pot.harmonic),
        ("focal_length_m", focal_length(lens, mass)),
        ("de_broglie_m", de_broglie(mass, args.vcm)),
    ]
    if args.curvature_radius is not None:
        results.append(("gamma", gamma_from_curvature(
            mass, args.vcm, args.curvature_radius, scenario.probe.sigma0)))
    return _print_values(results)


def cmd_purity(args, scenario: Scenario, started: float) -> int:
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    return _print_values([
        ("purity_exact", purity_exact(probe, env, t)),
        ("purity_approx", purity_approx(probe, env, t)),
        ("purity_from_covariance", purity_from_covariance(covariance(probe, env, t))),
    ])


def cmd_qfi(args, scenario: Scenario, started: float) -> int:
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    target = EstimationTarget(args.target)
    analytic = qfi_analytic(target, probe, env, t)
    values = [("qfi_analytic", analytic), ("qfi_numeric", qfi_numeric(target, probe, env, t))]
    if target is _LAMBDA:
        values.append(("lambda_sq_qfi", env.lam**2 * analytic))
    return _print_values(values)


def cmd_cfi(args, scenario: Scenario, started: float) -> int:
    probe, env, t = scenario.probe, scenario.env(), scenario.require_t()
    target = EstimationTarget(args.target)
    quad = cfi_quadrature(target, probe, env, t)
    return _print_values([
        ("cfi_closed", cfi_closed(target, probe, env, t)),
        ("cfi_quadrature", quad.quadrature),
        ("cfi_gaussian_identity", quad.gaussian_identity),
    ])


def cmd_tgi(args, scenario: Scenario, started: float) -> int:
    probe, env = scenario.probe, scenario.env()
    approx = tau_max_approx(probe, env)
    t_ref = tau_max_exact(probe.with_gamma(0.0), env)  # first: where both fail, gamma = 0 is named
    t_max = tau_max_exact(probe, env)
    return _print_values([
        ("tau_max_us", t_max * 1e6),
        ("tau_max_approx_us", approx * 1e6),
        ("tgi_db", _tgi_db(t_max, t_ref)),
        ("tgi_approx_db", tgi_approx(probe.gamma)),
    ])


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
    for dest, flag, _, parse, _, help_text in _SCENARIO_PARAMS:
        if with_t or dest != "t":
            sub.add_argument(flag, dest=dest, type=parse, help=help_text)


#: a negative number as `float` reads it: digits with single underscores between them,
#: an optional point and exponent, or inf, infinity or nan in any case
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-((?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?"
    r"|(?i:inf|infinity|nan))$"
)


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every negative number `float` reads for a value.

    argparse tells a negative number from a flag by a pattern that matches
    -12 and -1.5 only, so `--gamma -1e3` would read -1e3 as a flag; this
    pattern takes every spelling `float` reads after a minus sign: an
    exponent, as in -1e3 and -2.5E+01, digits grouped by underscores, as in
    -1_000, and -inf, -infinity and -nan in any case, which the flag's check
    then names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


#: held while a command's parser is populated, as calls in several threads may share it
_POPULATE_LOCK = _thread.allocate_lock()


class _CommandParser(_Parser):
    """A subcommand's parser, whose arguments are added when it first parses or formats.

    `build_parser` registers every command with its help string, so the
    top-level help lists them all, but only the command that argv names is
    populated; ``build(parser)`` adds its arguments.
    """

    def __init__(self, *args, build=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def _populate(self) -> None:
        with _POPULATE_LOCK:  # one thread adds the arguments, and the others wait for them
            build, self._build = self._build, None
            if build is not None:
                _add_global_flags(self, suppress=True)
                build(self)

    def parse_known_args(self, args=None, namespace=None):
        self._populate()
        return super().parse_known_args(args, namespace)

    def format_usage(self):
        self._populate()
        return super().format_usage()

    def format_help(self):
        self._populate()
        return super().format_help()


def _build_sweep(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument("--target", choices=("gamma", "lambda", "purity"), default="purity")
    sweep.add_argument("--axis", choices=("gamma", "lambda", "time"), required=True)
    sweep.add_argument("--min", type=parse_time, required=True,
                       help="axis start (time axis accepts ns/us/ms/s suffixes)")
    sweep.add_argument("--max", type=parse_time, required=True,
                       help="axis end (time axis accepts ns/us/ms/s suffixes)")
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--log", action="store_true", help="logarithmic axis spacing")
    _add_scenario_flags(sweep)


def _build_table1(table1: argparse.ArgumentParser) -> None:
    table1.add_argument("--gammas", type=float, nargs="+")
    _add_scenario_flags(table1, with_t=False)


def _build_convert(convert: argparse.ArgumentParser) -> None:
    group = convert.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-lambda", type=float, metavar="KELVIN")
    group.add_argument("--to-temp", type=float, metavar="LAMBDA")
    _add_scenario_flags(convert, with_t=False)


def _build_figures(figures: argparse.ArgumentParser) -> None:
    figures.add_argument("--preset", choices=tuple(_FIGURES), required=True)
    figures.add_argument("--outdir", default=".")
    _add_scenario_flags(figures)


def _build_lens(lens: argparse.ArgumentParser) -> None:
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


def _build_fisher(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", choices=("gamma", "lambda"), required=True)
    _add_scenario_flags(sub)


#: command -> (help, function that adds its arguments, function that runs it)
_COMMANDS = {
    "sweep": ("sweep one axis, tabulating purity and Fisher information", _build_sweep, cmd_sweep),
    "table1": ("information-gain table with reference residuals", _build_table1, cmd_table1),
    "convert": ("temperature <-> scattering constant", _build_convert, cmd_convert),
    "figures": ("write figure-preset CSV data sets", _build_figures, cmd_figures),
    "lens": ("standing-wave lens calculator", _build_lens, cmd_lens),
    "purity": ("evaluate purity at one parameter point", _add_scenario_flags, cmd_purity),
    "qfi": ("evaluate qfi at one parameter point", _build_fisher, cmd_qfi),
    "cfi": ("evaluate cfi at one parameter point", _build_fisher, cmd_cfi),
    "tgi": ("evaluate tgi at one parameter point",
            functools.partial(_add_scenario_flags, with_t=False), cmd_tgi),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pmcorr",
        description="Correlated Gaussian probe metrology: purity, Fisher information, thermometry.",
    )
    _add_global_flags(parser)
    parser.add_argument("--version", action="version", version=f"pmcorr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, build, func) in _COMMANDS.items():
        subs.add_parser(name, help=help_text, build=build).set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built by the first `main` call and reused by every later one.

    A parse keeps nothing: argparse fills a fresh namespace per call, and a
    command's parser keeps only the arguments it was populated with, once.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.monotonic()
    try:
        return args.func(args, _resolve(args), started)
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
