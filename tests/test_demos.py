"""Every documented entry point runs against src/: the narrative scripts under
demos/, README's library quick start and each command of its command-line block."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pmcorr.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def readme_block(heading: str, language: str) -> str:
    """The first fenced `language` block under README's `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[list[str]]:
    """The argument lists of the `pmcorr ...` lines of README's command-line block."""
    lines = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("pmcorr ")]


def test_readme_quick_start(capsys):
    namespace = {}
    exec(readme_block("Library quick start", "python"), namespace)
    lambda_sq_qfi, tgi = map(float, capsys.readouterr().out.split())
    # the values its comments state, to the digits they state (the purity to the
    # acceptance tolerance of 0.563 +- 0.005)
    assert namespace["t_star"] == pytest.approx(17e-6, abs=0.5e-6)
    assert namespace["mu"] == pytest.approx(0.563, abs=0.005)
    assert lambda_sq_qfi == pytest.approx(0.247, abs=0.0005)
    assert tgi == pytest.approx(11.3, abs=0.05)
    assert len(namespace["rows"]) == 7


def test_readme_commands_found():
    assert len(readme_commands()) == 10


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep and figures write into the working directory
    assert main(argv) == 0
