"""The three workloads: their seeded inputs, how one op runs, and its checks.

Every workload draws from one input box (see `draw_point`).  Each op is run
by a single closed-loop client: the next op starts when the previous one has
finished and been checked.  Checks never reuse the closed form they check:

* QFI: ``qfi_analytic`` against the Richardson oracle ``qfi_numeric``;
* CFI: ``cfi_closed`` against quadrature and the Gaussian variance identity;
* tau_max: must be a local maximum of ``relative_purity_rate``, so the rate
  at tau*(1 +- 1e-3) is not above the rate at tau;
* CSV files and stdout: against values recorded at the seed commit
  (``reference/*.json``, written by ``record.py``) within `REF_RTOL` or one
  unit of the last printed digit, whichever is larger.

An op ends in one of three states.  ``ok``: every check passed.  ``known``:
the program hit the seed's documented defect, the fixed tau_max search window
(`KNOWN_DEFECT`), as a ConvergenceError or exit code 3, where the recorded run
did too (or anywhere, for draws not recorded).  Such ops are tallied by layer
and exit code and reported apart from failed ops.  ``bad``: a value failed a
check, an expected key was missing, or the program ended in any other way;
only these count as failed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: relative tolerance against values recorded at the seed commit
REF_RTOL = 1e-6
#: absolute tolerance for decibel values, which pass through zero
DB_ATOL = 1e-5
#: relative tolerance between independent routes to one quantity
ROUTE_RTOL = 1e-6
#: relative step of the tau_max local-maximum check
TAU_STEP = 1e-3
#: message of the seed's one known failure: tau_max_exact finds no interior
#: maximum in its fixed search window, for lambda below about 1.2e10
KNOWN_DEFECT = "no interior maximum of the purity rate"

LAM_DECADES = (10.0, 20.0)                       # lambda in 1e10 .. 1e20 m^-2 s^-1
T_DECADES = (-7.0, -3.0)                         # t in 1e-7 .. 1e-3 s
GAMMA_DECADES = (-2.0, math.log10(150.0))        # |gamma| in 1e-2 .. 150
ELL0_CHOICES = (5e-8, math.inf)                  # m


def draw_point(rng: random.Random) -> dict:
    """One point of the input box, log-uniform in lambda, t and |gamma|."""
    return {
        "lam": 10.0 ** rng.uniform(*LAM_DECADES),
        "t": 10.0 ** rng.uniform(*T_DECADES),
        "gamma": rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(*GAMMA_DECADES),
        "ell0": rng.choice(ELL0_CHOICES),
    }


def child_env(root: Path) -> dict:
    """Environment of every launch: the checkout's program, with bytecode
    caching on, as for an installed package."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch(argv: list[str], cwd: Path, env: dict, scratch: Path,
           timeout: float = 120.0) -> tuple[subprocess.CompletedProcess, int]:
    """Run `argv` to its end; returns its result and its own peak RSS in KiB."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = subprocess.CompletedProcess(argv, proc.returncode, out.read().decode(), err.read().decode())
    return result, usage.ru_maxrss


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    """Generator for op i alone, so an op's inputs do not depend on run length."""
    return random.Random(f"{workload}:{seed}:{i}")


@dataclass
class Outcome:
    status: str = "ok"        # ok | known | bad
    reason: str = ""
    rows: int = 0             # result rows delivered
    csv_bytes: int = 0

    def fail(self, status: str, reason: str) -> None:
        if status == "bad" or self.status == "ok":
            self.status, self.reason = status, reason


def _generic(msg: str) -> str:
    return re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", msg)[:90]


def _error_layer(exc: BaseException) -> str:
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "pmcorr" in Path(f.filename).parts]
    return Path(frames[-1].filename).stem if frames else "perfbench"


def _close(actual: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return actual == ref or (math.isnan(ref) and math.isnan(actual))
    return abs(actual - ref) <= rtol * abs(ref) + atol


def routes_agree(*values: float) -> bool:
    scale = max(abs(v) for v in values)
    return all(abs(a - b) <= ROUTE_RTOL * scale for a in values for b in values)


def make_probe(point: dict):
    from pmcorr.constants import FULLERENE_MASS, FULLERENE_SIGMA0
    from pmcorr.model import EnvironmentSpec, ProbeSpec

    probe = ProbeSpec(mass=FULLERENE_MASS, sigma0=FULLERENE_SIGMA0, ell0=point["ell0"], gamma=point["gamma"])
    return probe, EnvironmentSpec(lam=point["lam"])


def tau_is_knee(point: dict, tau: float) -> bool:
    """tau is a local maximum of the relative purity rate at `point`."""
    from pmcorr import thermometry

    probe, env = make_probe(point)
    rate = thermometry.relative_purity_rate(probe, env, tau)
    return all(thermometry.relative_purity_rate(probe, env, tau * (1.0 + d)) <= rate
               for d in (TAU_STEP, -TAU_STEP))


def scenario_flags(point: dict, with_t: bool = True) -> list[str]:
    flags = [f"--lambda={point['lam']!r}", f"--gamma={point['gamma']!r}", f"--ell0={point['ell0']!r}"]
    return flags + [f"--t={point['t']!r}"] if with_t else flags


PRESETS = ("fig2", "fig3", "fig4", "fig5", "figD", "figE")


def figure_calls(point: dict) -> list[list[str]]:
    """The seven CLI calls of one figure_grid op; @OUT@ stands for the output dir."""
    calls = [["figures", "--preset", p, "--outdir", "@OUT@", "--quiet", *scenario_flags(point)] for p in PRESETS]
    calls.append([
        "sweep", "--target", "lambda", "--axis", "lambda", "--min", "1e10", "--max", "1e20",
        "--points", "301", "--log", f"--gamma={point['gamma']!r}", f"--ell0={point['ell0']!r}",
        f"--t={point['t']!r}", "--out", "@OUT@/sweep.csv", "--quiet",
    ])
    return calls


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """pmcorr.cli.main in-process, looked up at call time so recorders apply."""
    from pmcorr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# stdout and CSV parsing
# ---------------------------------------------------------------------------

def number(token: str) -> tuple[float, float]:
    """A printed number and one unit of its last printed digit."""
    value = float(token)
    mant, _, exp = token.lower().partition("e")
    decimals = len(mant.partition(".")[2])
    return value, 10.0 ** (int(exp or 0) - decimals)


TABLE1_GAMMAS = (-50.0, -25.0, -1.0, 0.0, 35.0, 70.0, 150.0)
TABLE1_COLUMNS = ("gamma", "tau_max_us", "purity", "rate_per_s", "lambda_sq_qfi", "tgi_db")


def expected_keys(command: str, argv: list[str]) -> list[str]:
    """Keys each one-point command must print, from the program's documented output."""
    if command == "purity":
        return ["purity_exact", "purity_approx", "purity_from_covariance"]
    if command == "qfi":
        keys = ["qfi_analytic", "qfi_numeric"]
        return keys + ["lambda_sq_qfi"] if "--target=lambda" in argv else keys
    if command == "cfi":
        return ["cfi_closed", "cfi_quadrature", "cfi_gaussian_identity"]
    if command == "tgi":
        return ["tau_max_us", "tau_max_approx_us", "tgi_db", "tgi_approx_db"]
    if command == "table1":
        return [f"{c}[{g:g}]" for g in TABLE1_GAMMAS for c in TABLE1_COLUMNS[1:]]
    if command == "convert":
        return ["value"]
    if command == "lens":
        keys = ["rabi_frequency_rad_s", "optical_potential_rad_s", "harmonic_potential_rad_s",
                "focal_length_m", "de_broglie_m"]
        return keys + ["gamma"] if any(a.startswith("--curvature-radius") for a in argv) else keys
    raise ValueError(f"unknown command {command!r}")


def parse_stdout(command: str, text: str) -> dict[str, tuple[float, float]]:
    """key -> (value, unit of last digit) from a one-point command's stdout."""
    values = {}
    lines = [line for line in text.splitlines() if line.strip()]
    if command == "convert":
        if len(lines) == 1:
            values["value"] = number(lines[0].strip())
    elif command == "table1":
        for line in lines[1:]:
            tokens = line.split()
            if len(tokens) != len(TABLE1_COLUMNS):
                continue
            gamma = float(tokens[0])
            for col, tok in zip(TABLE1_COLUMNS[1:], tokens[1:]):
                values[f"{col}[{gamma:g}]"] = number(tok)
    else:
        for line in lines:
            key, sep, tok = line.partition(" = ")
            if sep:
                values[key.strip()] = number(tok.strip())
    return values


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:] if line]


def digest(header: list[str], rows: list[list[float]]) -> dict:
    """Per column: largest finite magnitude, sum of finite magnitudes and count
    of non-finite values; and the first and last rows."""
    cols = list(zip(*rows)) if rows else [()] * len(header)
    finite = [[abs(v) for v in col if math.isfinite(v)] for col in cols]
    picks = sorted({0, len(rows) - 1}) if rows else []
    return {
        "header": header,
        "rows": len(rows),
        "scale": [max(f, default=0.0) for f in finite],
        "sum_abs": [math.fsum(f) for f in finite],
        "nonfinite": [len(col) - len(f) for col, f in zip(cols, finite)],
        "samples": [rows[k] for k in picks],
    }


def digest_mismatch(actual: dict, ref: dict) -> str:
    """Empty if `actual` matches the recorded digest `ref`, else why not."""
    if actual["header"] != ref["header"] or actual["rows"] != ref["rows"]:
        return f"shape {actual['rows']}x{actual['header']} != recorded {ref['rows']}x{ref['header']}"
    if actual["nonfinite"] != ref["nonfinite"]:
        return "non-finite values moved"
    for j, name in enumerate(ref["header"]):
        atol = 1e-9 * ref["scale"][j] + (DB_ATOL if name.endswith("_db") else 0.0)
        if not _close(actual["sum_abs"][j], ref["sum_abs"][j], REF_RTOL, ref["rows"] * atol):
            return f"column {name}: sum {actual['sum_abs'][j]!r} != recorded {ref['sum_abs'][j]!r}"
        for row, ref_row in zip(actual["samples"], ref["samples"]):
            if not _close(row[j], ref_row[j], REF_RTOL, atol):
                return f"column {name}: {row[j]!r} != recorded {ref_row[j]!r}"
    return ""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    #: runs are whole blocks of this many ops; counts (calls, bytes) are
    #: reported for the first block, so they repeat exactly for one seed
    count_ops = 1
    #: ops run inside this process, so their times are scaled to machine speed
    in_process = True

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root, self.seed, self.scratch = root, seed, scratch

    def op(self, i: int):
        raise NotImplementedError

    def execute(self, op, tracer, scale=None) -> tuple[float, object]:
        """Run one op; returns (latency in s, raw result).

        `scale`, if given, maps the wall time of each timed segment of the op
        to the reference machine speed, and is called right after it.
        """
        raise NotImplementedError

    def check(self, op, result) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed op, so first-use costs are not charged to op 0."""
        self.execute(self.op(0), None)

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that ran the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliOneshot(Workload):
    """Fresh-interpreter launches of seeded one-point commands."""

    name = "cli_oneshot"
    count_ops = 7
    in_process = False
    commands = ("purity", "qfi", "cfi", "tgi", "table1", "convert", "lens")

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        lines = (HERE / "reference" / "cli_oneshot.jsonl").read_text().splitlines()
        pool = [json.loads(line) for line in lines]
        self.pool = {c: [e for e in pool if e["command"] == c] for c in self.commands}
        self.rotation = list(self.commands)
        random.Random(f"{self.name}:{seed}").shuffle(self.rotation)
        self.env = child_env(root)
        self.span_file = scratch / "child_spans.npz"
        self.launch_rss_kb = 0

    def op(self, i):
        command = self.rotation[i % len(self.rotation)]
        entries = self.pool[command]
        return entries[op_rng(self.name, self.seed, i).randrange(len(entries))]

    def execute(self, op, tracer, scale=None):
        argv = [sys.executable, str(HERE / "child.py"), str(self.span_file) if tracer else "-", *op["argv"]]
        root_span = tracer.begin_op() if tracer else None
        t0 = time.perf_counter()
        proc, rss_kb = launch(argv, self.root, self.env, self.scratch)
        dt = time.perf_counter() - t0
        self.launch_rss_kb = max(self.launch_rss_kb, rss_kb)
        if tracer:
            tracer.close(root_span)
            if self.span_file.exists():
                tracer.absorb(self.span_file, root_span)
                self.span_file.unlink()
        return (scale(dt) if scale else dt), proc

    def peak_rss_kb(self) -> int:
        """Peak RSS of the largest op launch; set-up and reference launches do not count."""
        return self.launch_rss_kb

    def check(self, op, proc) -> Outcome:
        out = Outcome()
        command, recorded = op["command"], op["exit"]
        if proc.returncode != 0:
            line = (proc.stderr.strip().splitlines() or [""])[-1]
            status = "known" if proc.returncode == recorded == 3 and KNOWN_DEFECT in line else "bad"
            out.fail(status, f"cli.{command} exit {proc.returncode} (recorded {recorded}): {_generic(line)}")
            return out
        values = parse_stdout(command, proc.stdout)
        missing = [k for k in expected_keys(command, op["argv"]) if k not in values]
        if missing:
            out.fail("bad", f"cli {command}: missing keys {missing[:3]}")
            return out
        out.rows = len([line for line in proc.stdout.splitlines() if line.strip()])
        if recorded == 0:
            ref = parse_stdout(command, op["stdout"])
            for key, (ref_value, ref_unit) in ref.items():
                value, _ = values[key]
                atol = max(ref_unit, DB_ATOL if key.startswith("tgi") else 0.0)
                if not _close(value, ref_value, REF_RTOL, atol):
                    out.fail("bad", f"cli {command}: {key} = {value!r}, recorded {ref_value!r}")
        v = {k: x for k, (x, _) in values.items()}
        point = op["point"]
        if command == "purity" and not routes_agree(v["purity_exact"], v["purity_from_covariance"]):
            out.fail("bad", "cli purity: exact and covariance routes disagree")
        elif command == "qfi" and not routes_agree(v["qfi_analytic"], v["qfi_numeric"]):
            out.fail("bad", "cli qfi: analytic and Richardson disagree")
        elif command == "cfi" and not routes_agree(v["cfi_closed"], v["cfi_quadrature"], v["cfi_gaussian_identity"]):
            out.fail("bad", "cli cfi: closed, quadrature and identity disagree")
        elif command == "tgi" and not tau_is_knee(point, v["tau_max_us"] * 1e-6):
            out.fail("bad", "cli tgi: tau_max is not a local maximum of the purity rate")
        elif command == "table1":
            for g in TABLE1_GAMMAS:
                tau_us, unit = values[f"tau_max_us[{g:g}]"]
                # the table prints 4 decimals; check where that resolves tau to 1e-4
                if unit <= 1e-4 * tau_us and not tau_is_knee({**point, "gamma": g}, tau_us * 1e-6):
                    out.fail("bad", f"cli table1: tau_max at gamma={g:g} is not a local maximum")
        return out


class FigureGrid(Workload):
    """All six figure presets plus a 301-point lambda sweep, in-process."""

    name = "figure_grid"
    count_ops = 3

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        ref = json.loads((HERE / "reference" / "figure_grid.json").read_text())
        self.digests, self.pool = ref["digests"], ref["scenarios"]
        self.outdir = scratch / "figure_grid"

    def op(self, i):
        return self.pool[op_rng(self.name, self.seed, i).randrange(len(self.pool))]

    def execute(self, op, tracer, scale=None):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        calls = [[a.replace("@OUT@", str(self.outdir)) for a in argv] for argv in figure_calls(op["point"])]
        if tracer:
            tracer.install()
            root_span = tracer.begin_op()
        latency, results = 0.0, []
        for argv in calls:  # one timed segment per call, so scaling follows speed changes
            t0 = time.perf_counter()
            results.append(run_main(argv))
            dt = time.perf_counter() - t0
            latency += scale(dt) if scale else dt
        if tracer:
            tracer.close(root_span)
            tracer.uninstall()
        return latency, results

    def check(self, op, results) -> Outcome:
        out = Outcome()
        for argv, call, (code, _, err) in zip(figure_calls(op["point"]), op["calls"], results):
            label = f"cli.figures {argv[2]}" if argv[0] == "figures" else f"cli.{argv[0]}"
            if code != 0:
                line = (err.strip().splitlines() or [""])[-1]
                status = "known" if code == call["exit"] == 3 and KNOWN_DEFECT in line else "bad"
                out.fail(status, f"{label} exit {code} (recorded {call['exit']}): {_generic(line)}")
                continue
            for fname, idx in call["files"].items():
                path = self.outdir / fname
                if not path.exists():
                    out.fail("bad", f"{label}: {fname} not written")
                    continue
                header, rows = read_csv(path)
                out.rows += len(rows)
                out.csv_bytes += path.stat().st_size
                if call["exit"] == 0:
                    why = digest_mismatch(digest(header, rows), self.digests[idx])
                    if why:
                        out.fail("bad", f"{label} {fname}: {why}")
                if "qfi_numeric_m4s2" in header:
                    a, n = header.index("qfi_analytic_m4s2"), header.index("qfi_numeric_m4s2")
                    if not all(routes_agree(r[a], r[n]) for r in rows):
                        out.fail("bad", f"{label}: analytic and Richardson QFI disagree")
        return out


class OracleAudit(Workload):
    """Every Fisher route and the TGI at one scattered point, in-process."""

    name = "oracle_audit"
    count_ops = 50

    def op(self, i):
        return draw_point(op_rng(self.name, self.seed, i))

    def execute(self, op, tracer, scale=None):
        from pmcorr import fisher, thermometry
        from pmcorr.fisher import ConvergenceError, EstimationTarget

        probe, env = make_probe(op)
        if tracer:
            tracer.install()
            root_span = tracer.begin_op()
        t0 = time.perf_counter()
        try:
            result = [fisher.fisher_information(target, probe, env, op["t"]) for target in EstimationTarget]
            result.append(thermometry.tgi(probe, env))
        except ConvergenceError as exc:
            result = exc
        except Exception as exc:  # any other exception is a defect; check() reports it
            result = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(root_span, failed=isinstance(result, Exception))
            tracer.uninstall()
        return (scale(dt) if scale else dt), result

    def check(self, op, result) -> Outcome:
        from pmcorr import thermometry
        from pmcorr.fisher import ConvergenceError

        out = Outcome()
        if isinstance(result, Exception):
            layer = _error_layer(result)
            known = isinstance(result, ConvergenceError) and layer == "thermometry" and KNOWN_DEFECT in str(result)
            out.fail("known" if known else "bad", f"{layer} {type(result).__name__}: {_generic(str(result))}")
            return out
        *fisher_results, tgi_db = result
        out.rows = len(result)
        for r in fisher_results:
            if not routes_agree(r.qfi_analytic, r.qfi_numeric):
                out.fail("bad", "fisher: analytic and Richardson QFI disagree")
            if not routes_agree(r.cfi_closed, r.cfi_quadrature):
                out.fail("bad", "fisher: closed and quadrature CFI disagree")
        probe, env = make_probe(op)
        tau = thermometry.tau_max_exact(probe, env)
        tau_ref = thermometry.tau_max_exact(probe.with_gamma(0.0), env)
        if not (tau_is_knee(op, tau) and tau_is_knee({**op, "gamma": 0.0}, tau_ref)):
            out.fail("bad", "thermometry: tau_max is not a local maximum of the purity rate")
        if not _close(tgi_db, -10.0 * math.log10(tau / tau_ref), 0.0, 1e-9):
            out.fail("bad", "thermometry: tgi does not match its two tau_max values")
        return out


WORKLOADS = {w.name: w for w in (CliOneshot, FigureGrid, OracleAudit)}
