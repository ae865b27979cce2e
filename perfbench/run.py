"""pmcorr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare A.jsonl B.jsonl

Runs one workload (see ``workloads.py`` and ``README.md``) against the
program under ``src/`` of the checkout that holds this file, with one
closed-loop client.  Set-up launches a fresh interpreter for ``import pmcorr``
`SETUP_LAUNCHES` times, each followed by a reference launch (`REF_LAUNCH`),
after untimed warm-up launches and one untimed op.  The loop then runs ops
for S seconds, in whole blocks of the workload's ``count_ops`` ops (one of
each command, for cli_oneshot).

``--trace 0`` reports the end-to-end metrics, scaled to a reference machine
speed: the times of in-process ops by `SpeedScale`, launch times (``setup_s``
and cli_oneshot ops, every second op followed by a reference launch) by
`launch_scale` over all reference launches of the run.  ``--trace 1`` runs
each op twice, once plain and once with span recorders (alternating which
goes first), and reports the per-layer metrics and the tracing overhead,
unscaled.

A report goes to stdout, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
appends a full record (provenance, sample counts, failure tally, exact
counts) to ``.perfbench_runs/results.jsonl``; ``--compare`` reads two such
files.  Exit code 2 without a result means the program was not found.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer, summarize
from workloads import WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_LAUNCHES = 5

IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import pmcorr\n"
    "dt = time.perf_counter() - t0\n"
    "new = set(sys.modules) - before\n"
    "print(repr(dt), len(new), sum(1 for m in new if m.split('.')[0] == 'scipy'))\n"
)

#: a fresh interpreter importing what pmcorr imports from outside itself,
#: but not pmcorr: the reference launch for scaling launch times
REF_LAUNCH = (
    "import argparse, json, math, sys, time\n"
    "import numpy\n"
    "from scipy import integrate\n"
    "from scipy.optimize import minimize_scalar\n"
)
#: reference time of a `REF_LAUNCH` launch, a round value near its time on
#: the 2-core Xeon sandbox the benchmark was written on; launch times are
#: reported as at the machine speed where that launch takes this long
REF_LAUNCH_S = 0.8

#: reference time of `speed_loop_s`, a round value near its time on the
#: 2-core Xeon sandbox the benchmark was written on; in-process op times are
#: reported as at the machine speed where the loop takes this long
SPEED_REF_S = 8.0e-4

NS_PER = {"us": 1e3, "ms": 1e6}
PER_CALL = {  # per-layer metric -> (span name, unit of the median inclusive time per call)
    "model.purity_exact.us_per_call": ("model.purity_exact", "us"),
    "model.kernel_params.us_per_call": ("model.kernel_params", "us"),
    "model.covariance.us_per_call": ("model.covariance", "us"),
    "fisher.qfi_analytic.us_per_call": ("fisher.qfi_analytic", "us"),
    "fisher.cfi_closed.us_per_call": ("fisher.cfi_closed", "us"),
    "fisher.purity_derivative.us_per_call": ("fisher.purity_derivative", "us"),
    "fisher.qfi_numeric.ms_per_call": ("fisher.qfi_numeric", "ms"),
    "fisher.cfi_quadrature.ms_per_call": ("fisher.cfi_quadrature", "ms"),
    "thermometry.tau_max_exact.ms_per_call": ("thermometry.tau_max_exact", "ms"),
    "thermometry.tgi.ms_per_call": ("thermometry.tgi", "ms"),
    "thermometry.build_table1.ms_per_call": ("thermometry.build_table1", "ms"),
    "cli.figures.ms_per_call": ("cli.figures", "ms"),
    "cli.sweep.ms_per_call": ("cli.sweep", "ms"),
    "lens.focal_length.us_per_call": ("lens.focal_length", "us"),
}


def _speed_step(x: float, y: float) -> float:
    return x * y + 1.0


def speed_loop_s() -> float:
    """Fastest of two runs of a fixed loop of Python calls, float math and
    small numpy arrays, the mix the program's scalar code is made of.

    The machine's speed drifts by up to 2x within minutes (other tenants).
    Run right before and after each timed segment of an in-process op, this
    loop measures that speed with code that does not touch the program, so
    it cannot hide a change in the program.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for k in range(1, 200):
            x = k * 1.0000001
            a = np.array([x, x * 2.0, 3.0, s])
            s += float(np.max(np.abs(a))) * 1e-9 + _speed_step(x, 1e-3) + math.exp(-x * 1e-3)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedScale:
    """Maps wall times to the reference machine speed, segment by segment.

    Each call takes the wall time of a segment that has just ended, times
    `speed_loop_s` again and scales by `SPEED_REF_S` over the mean of the loop
    times before and after.  ``raw`` sums the unscaled wall times passed in.
    """

    def __init__(self) -> None:
        self.last = speed_loop_s()
        self.raw = 0.0

    def __call__(self, dt: float) -> float:
        after = speed_loop_s()
        scaled = dt * SPEED_REF_S / (0.5 * (self.last + after))
        self.last = after
        self.raw += dt
        return scaled


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def latency_metrics(latencies: list[float], outcomes: list) -> dict:
    busy = sum(latencies)
    return {
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "rows_per_s": (sum(o.rows for o in outcomes) / busy, "1/s"),
    }


def launch_import_probe(env: dict) -> tuple[float, float, int, int]:
    """Wall time of a fresh ``import pmcorr``, its in-process time and module counts."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    wall = time.perf_counter() - t0
    import_s, modules, scipy_modules = proc.stdout.split()
    return wall, float(import_s), int(modules), int(scipy_modules)


def launch_reference(env: dict) -> float:
    """Wall time of one fresh `REF_LAUNCH` interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_LAUNCH], cwd=ROOT, env=env,
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def launch_scale(ref_times: list[float]) -> float:
    """Factor mapping launch times to the reference machine speed.

    The machine's speed drifts over minutes, and a CPU loop does not track
    how fast an interpreter starts and imports, so launches are scaled by
    launches: median reference launches, interleaved with the measured ones.
    """
    return REF_LAUNCH_S / statistics.median(ref_times)


def provenance() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    code = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        code.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "code_id": code.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (ROOT / "src" / "pmcorr" / "__init__.py").exists():
        print(f"error: no program at {ROOT / 'src' / 'pmcorr'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = RUNS / "tmp" / f"{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](ROOT, seed, scratch)
        env = child_env(ROOT)

        launch_import_probe(env)  # warm-up launches: compile .pyc, untimed
        launch_reference(env)
        workload.warm_up()
        probes, setup_refs = [], []
        for _ in range(SETUP_LAUNCHES):
            probes.append(launch_import_probe(env))
            setup_refs.append(launch_reference(env))
        module_counts = {p[2:] for p in probes}

        tracer = Tracer() if traced else None
        plain, with_trace, scaled, outcomes, run_refs = [], [], [], [], []
        scale = SpeedScale() if workload.in_process else None
        deadline = time.perf_counter() + seconds
        i = 0
        while i % workload.count_ops or time.perf_counter() < deadline:
            op = workload.op(i)
            if traced:
                for use_tracer in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                    dt, res = workload.execute(op, use_tracer)
                    if use_tracer is None:
                        plain.append(dt)
                    else:
                        with_trace.append(dt)
                        result = res
            else:
                if scale:
                    scale.raw = 0.0
                dt, result = workload.execute(op, None, scale)
                scaled.append(dt)
                plain.append(scale.raw if scale else dt)
                if not workload.in_process and i % 2:
                    run_refs.append(launch_reference(env))
            outcomes.append(workload.check(op, result))
            i += 1
        peak_rss_kb = workload.peak_rss_kb()

        window = outcomes[: workload.count_ops]
        modules, scipy_modules = sorted(module_counts)[0]
        counts = {
            "import.modules_loaded": modules,
            "import.scipy_modules_loaded": scipy_modules,
            "cli.csv_bytes_written": sum(o.csv_bytes for o in window),
        }
        import_s = statistics.median(p[1] for p in probes)
        raw_metrics = {}
        if traced:
            summary = summarize(tracer, workload.count_ops)
            funcs = summary["functions"]
            counts.update({f"{f}.calls": v["calls"] for f, v in sorted(funcs.items())})
            tau = funcs.get("thermometry.tau_max_exact", {"all_calls": 0, "all_failed": 0})
            metrics = {
                "import.pmcorr_s": (import_s, "s"),
                "import.modules_loaded": (modules, "count"),
                "import.scipy_modules_loaded": (scipy_modules, "count"),
                "cli.oneshot.nonimport_ms": (
                    (statistics.median(plain) - import_s) * 1e3 if name == "cli_oneshot" else 0.0, "ms"),
            }
            for metric, (span, unit) in PER_CALL.items():
                metrics[metric] = (funcs.get(span, {}).get("median_ns", 0.0) / NS_PER[unit], unit)
            metrics.update({
                "model.calls": (sum(v["calls"] for f, v in funcs.items() if f.startswith("model.")), "count"),
                "fisher.qfi_numeric.calls": (funcs.get("fisher.qfi_numeric", {}).get("calls", 0), "count"),
                "fisher.cfi_quadrature.failed": (funcs.get("fisher.cfi_quadrature", {}).get("failed", 0), "count"),
                "thermometry.tau_max_exact.found_ratio": (
                    1.0 - tau["all_failed"] / tau["all_calls"] if tau["all_calls"] else 0.0, "ratio"),
                "cli.csv_bytes_written": (counts["cli.csv_bytes_written"], "bytes"),
            })
            for layer, ns in summary["layer_self_ns_per_op"].items():
                metrics[f"{layer}.self_ms_per_op"] = (ns / 1e6, "ms")
            metrics["trace.overhead_frac"] = (sum(with_trace) / sum(plain) - 1.0, "frac")
            tracer.save(RUNS / f"spans-{name}.npz")  # the latest traced run of each workload
        else:
            setup_wall = statistics.median(p[0] for p in probes)
            launch_factor = launch_scale(setup_refs + run_refs)
            metrics = {"setup_s": (setup_wall * launch_factor, "s")}
            if not workload.in_process:
                scaled = [dt * launch_factor for dt in plain]
            metrics.update(latency_metrics(scaled, outcomes))
            metrics["peak_rss_mb"] = (peak_rss_kb / 1024.0, "MB")
            raw_metrics = {"setup_s": (setup_wall, "s"), **latency_metrics(plain, outcomes)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = collections.Counter(f"{o.status} {o.reason}" for o in outcomes if o.status != "ok")
    bad = [o.reason for o in outcomes if o.status == "bad"]
    if len(module_counts) != 1:
        bad.append(f"import module counts differ between launches: {sorted(module_counts)}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        **provenance(),
        "ops": len(outcomes), "attempted": len(outcomes),
        "failed": sum(o.status == "bad" for o in outcomes),
        "known_defect": sum(o.status == "known" for o in outcomes),
        "failures": dict(failures),
        "samples": {"setup_launches": SETUP_LAUNCHES, "ops": len(plain), "traced_ops": len(with_trace),
                    "reference_launches": len(setup_refs) + len(run_refs),
                    "count_window_ops": workload.count_ops},
        "counts": counts,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "raw_metrics": {k: v for k, (v, _) in raw_metrics.items()},
    }
    bad += repeat_mismatches(record)
    record["correct"] = not bad

    print_report(record, metrics, failures, bad, len(outcomes))
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def repeat_mismatches(record: dict) -> list[str]:
    """Exact counts must equal those of earlier runs of the same code and seed."""
    path = RUNS / "results.jsonl"
    if not path.exists():
        return []
    key = ("workload", "seed", "trace", "code_id")
    for line in path.read_text(encoding="utf-8").splitlines():
        earlier = json.loads(line)
        if all(earlier.get(k) == record[k] for k in key) and \
                earlier["samples"]["count_window_ops"] == record["samples"]["count_window_ops"]:
            diff = {k: (earlier["counts"].get(k), v) for k, v in record["counts"].items()
                    if earlier["counts"].get(k) != v}
            return [f"counts differ from an earlier run of this code and seed: {diff}"] if diff else []
    return []


def print_report(record: dict, metrics: dict, failures: collections.Counter, bad: list[str], n_ops: int) -> None:
    s = record["samples"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"seconds={record['seconds']:g} commit={record['commit']} code={record['code_id']}")
    print(f"  python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}  "
          f"nproc {record['nproc']} (usable {record['cpus_usable']})")
    n = record["attempted"]
    print(f"  ops {n_ops} (timed plain {s['ops']}, traced {s['traced_ops']}); "
          f"failed_frac = {record['failed']}/{n} = {record['failed'] / n:.4f}; "
          f"known_defect_frac = {record['known_defect']}/{n} = {record['known_defect'] / n:.4f}")
    samples = {"setup_s": f"{s['setup_launches']} launches", "import.pmcorr_s": f"{s['setup_launches']} launches"}
    for name, (value, unit) in metrics.items():
        if name in samples:
            n = samples[name]
        elif name.startswith("import.") or name.endswith((".calls", ".failed")) or name == "cli.csv_bytes_written":
            n = f"exact, first {s['count_window_ops']} ops"
        elif record["trace"]:
            n = f"{s['traced_ops']} traced ops"
        else:
            n = f"{s['ops']} ops"
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:40s} {shown} {unit:6s} (n = {n})")
    for reason, k in failures.most_common():
        status, _, why = reason.partition(" ")
        print(f"  {'failed' if status == 'bad' else 'known defect'} {k:5d}  {why}")
    for reason in bad[:10]:
        print(f"  WRONG: {reason}")


def compare(path_a: str, path_b: str) -> int:
    """Median, quartiles and ratio B/A of every end-to-end metric per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs = collections.defaultdict(list)
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[rec["workload"]].append(rec["metrics"])
        return runs

    a, b = load(path_a), load(path_b)
    print(f"{'workload':13s} {'metric':12s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} {'B/A':>7s}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = [r[m["name"]] for r in a[workload] if m["name"] in r]
            vb = [r[m["name"]] for r in b[workload] if m["name"] in r]
            if len(va) < 2 or len(vb) < 2:
                continue
            qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
            ratio = qb[1] / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            if spread > m["bound"]:
                verdict = f"unresolved (spread {spread:.3f} > bound {m['bound']})"
            elif worse > m["bound"]:
                verdict = f"worse by {worse:.3f} > bound {m['bound']}"
            else:
                verdict = "within bound"
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{workload:13s} {m['name']:12s} {fa:>32s} {fb:>32s} {ratio:7.3f}  {verdict}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two results.jsonl files")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"workloads": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
