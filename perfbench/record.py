"""Record the reference pools that cli_oneshot and figure_grid draw from.

    python3 perfbench/record.py

Draws a fixed pool of inputs from the input box with `POOL_SEED`, runs each
through ``pmcorr.cli.main`` in-process, and writes the exit codes and outputs
(stdout text; per-file CSV digests) to ``perfbench/reference/``.  The files in
the repository were recorded at the commit that added the benchmark; running
this again pins the outputs of the checked-out commit instead.  Every recorded
entry is then passed through the workload's own checks.
"""
from __future__ import annotations

import collections
import json
import random
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    CliOneshot,
    FigureGrid,
    digest,
    draw_point,
    figure_calls,
    read_csv,
    run_main,
    scenario_flags,
)

POOL_SEED = 20240823
CLI_ENTRIES_PER_COMMAND = 20
FIGURE_SCENARIOS = 96


def cli_argv(command: str, point: dict, rng: random.Random) -> list[str]:
    from pmcorr.constants import FULLERENE_MASS, FULLERENE_SIGMA0, HBAR

    if command in ("qfi", "cfi"):
        return [command, f"--target={rng.choice(('gamma', 'lambda'))}", *scenario_flags(point)]
    if command == "purity":
        return [command, *scenario_flags(point)]
    if command == "tgi":
        return [command, *scenario_flags(point, with_t=False)]
    if command == "table1":
        return [command, f"--lambda={point['lam']!r}", f"--ell0={point['ell0']!r}"]
    if command == "convert":
        return [command, f"--to-temp={point['lam']!r}"]
    omega0 = 10.0 ** rng.uniform(7.0, 9.0)
    v_cm = rng.uniform(100.0, 300.0)
    radius = FULLERENE_MASS * v_cm * FULLERENE_SIGMA0**2 / (HBAR * point["gamma"])
    return [
        "lens", f"--omega0={omega0!r}", f"--wavelength={rng.choice((5.32e-07, 1.064e-06))!r}",
        f"--detuning={omega0 * rng.uniform(-3.0, 3.0)!r}", f"--vcm={v_cm!r}",
        f"--tint={point['t']!r}", f"--curvature-radius={radius!r}",
    ]


def record_cli(rng: random.Random) -> list[dict]:
    entries = []
    for command in CliOneshot.commands:
        for _ in range(CLI_ENTRIES_PER_COMMAND):
            point = draw_point(rng)
            argv = cli_argv(command, point, rng)
            code, out, err = run_main(argv)
            if code not in (0, 3):
                raise SystemExit(f"{argv}: exit {code}: {err}")
            entries.append({"command": command, "point": point, "argv": argv, "exit": code, "stdout": out})
    return entries


def record_figures(rng: random.Random, outdir: Path) -> dict:
    digests, index, scenarios = [], {}, []
    for _ in range(FIGURE_SCENARIOS):
        point = draw_point(rng)
        recorded = []
        for argv in figure_calls(point):
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            code, _, err = run_main([a.replace("@OUT@", str(outdir)) for a in argv])
            if code not in (0, 3):
                raise SystemExit(f"{argv}: exit {code}: {err}")
            files = {}
            for path in sorted(outdir.glob("*.csv")):
                key = json.dumps(digest(*read_csv(path)), sort_keys=True)
                if key not in index:
                    index[key] = len(digests)
                    digests.append(json.loads(key))
                files[path.name] = index[key]
            recorded.append({"exit": code, "files": files})
        scenarios.append({"point": point, "calls": recorded})
    shutil.rmtree(outdir, ignore_errors=True)
    return {"digests": digests, "scenarios": scenarios}


def self_check(workload, entries, run) -> None:
    tally = collections.Counter()
    for entry in entries:
        outcome = workload.check(entry, run(entry))
        tally[f"{outcome.status} {outcome.reason}".strip()] += 1
    print(f"{workload.name}: {dict(tally)}")
    if any(k.startswith("bad") for k in tally):
        raise SystemExit("recorded pool fails its own checks")


def main() -> None:
    rng = random.Random(POOL_SEED)
    scratch = ROOT / ".perfbench_runs" / "record"
    reference = HERE / "reference"
    reference.mkdir(exist_ok=True)

    cli_entries = record_cli(rng)
    (reference / "cli_oneshot.jsonl").write_text("\n".join(map(json.dumps, cli_entries)) + "\n")
    figures = record_figures(rng, scratch / "figures")
    (reference / "figure_grid.json").write_text(json.dumps(figures, separators=(",", ":")) + "\n")

    def run_cli(entry):
        code, out, err = run_main(entry["argv"])
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    self_check(CliOneshot(ROOT, 0, scratch), cli_entries, run_cli)
    grid = FigureGrid(ROOT, 0, scratch)
    self_check(grid, grid.pool, lambda scenario: grid.execute(scenario, None)[1])
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"failed scenarios: {sum(any(c['exit'] for c in s['calls']) for s in grid.pool)}/{len(grid.pool)}, "
          f"failed cli entries: {sum(e['exit'] != 0 for e in cli_entries)}/{len(cli_entries)}")


if __name__ == "__main__":
    main()
