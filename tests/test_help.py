"""Help and usage output of the CLI.

`help_golden.json` holds what `pmcorr --help`, each `pmcorr <cmd> --help` and
one usage error per command print at 80 columns, captured on Python 3.11.
argparse words and lays out its output differently from one Python version to
the next, so the text is compared byte for byte on 3.11 only; on every
version the structure is checked: which commands and flags are listed, and in
what order.  Re-record with ``PYTHONPATH=src python tests/test_help.py``.
"""
import argparse
import contextlib
import io
import json
import sys
import threading
import time
from pathlib import Path

import pytest

from pmcorr import cli

GOLDEN = Path(__file__).with_name("help_golden.json")

COMMANDS = ("sweep", "table1", "convert", "figures", "lens", "purity", "qfi", "cfi", "tgi")
#: argv of usage errors that the top-level parser reports
TOP_LEVEL_ERRORS = ([], ["bogus"], ["purity", "--bogus"])
#: argv of one usage error per command, which its own parser reports
USAGE_ERRORS = TOP_LEVEL_ERRORS + (
    ["sweep"],
    ["table1", "--gammas"],
    ["convert"],
    ["figures", "--preset", "fig9"],
    ["lens"],
    ["purity", "--t", "abc"],
    ["qfi"],
    ["cfi", "--target", "mu"],
    ["tgi", "--gamma", "x"],
)
CASES = [["--help"]] + [[command, "--help"] for command in COMMANDS] + list(USAGE_ERRORS)

GLOBAL_FLAGS = ["-h", "--config", "--out", "--format", "--quiet"]
COMMAND_FLAGS = {
    "sweep": ["--target", "--axis", "--min", "--max", "--points", "--log"],
    "table1": ["--gammas"],
    "convert": ["--to-lambda", "--to-temp"],
    "figures": ["--preset", "--outdir"],
    "lens": ["--omega0", "--wavelength", "--detuning", "--vcm", "--tint", "--x", "--z",
             "--curvature-radius"],
    "purity": [],
    "qfi": ["--target"],
    "cfi": ["--target"],
    "tgi": [],
}
WITHOUT_T = {"table1", "convert", "lens", "tgi"}


def run(argv):
    """(exit code, stdout, stderr) of `cli.main(argv)` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _id(argv):
    return " ".join(argv) or "no-args"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="captured with Python 3.11's argparse")
@pytest.mark.parametrize("argv", CASES, ids=_id)
def test_output_is_byte_identical(argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[_id(argv)]
    assert run(argv) == (golden["code"], golden["stdout"], golden["stderr"])


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(map(_id, CASES))


def test_top_level_help_lists_every_command():
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    words = " ".join(out.split())
    subs = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in subs._choices_actions}
    assert list(helps) == list(COMMANDS)
    for command, help_text in helps.items():
        assert f" {command} {help_text}" in words


def _listed_flags(text):
    """The first option string of each option line, below the usage paragraph."""
    options = text.split("\n\n", 1)[1]
    return [line.split()[0].rstrip(",") for line in options.splitlines()
            if line.lstrip().startswith("-")]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_global_then_command_then_scenario_flags(command):
    code, out, err = run([command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: pmcorr {command} [-h]")
    scenario = [flag for dest, flag, *_ in cli._SCENARIO_PARAMS
                if not (dest == "t" and command in WITHOUT_T)]
    assert _listed_flags(out) == GLOBAL_FLAGS + COMMAND_FLAGS[command] + scenario


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=_id)
def test_usage_error_exits_2_with_usage(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    prog = "pmcorr" if argv in TOP_LEVEL_ERRORS else f"pmcorr {argv[0]}"
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in err


def _populated(parser):
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [name for name, sub in subs.choices.items()
            if [a.dest for a in sub._actions] != ["help"]]


def test_only_the_named_command_is_built():
    # on a fresh process parser each call populates its own command and no other
    cli._parser.cache_clear()
    assert run(["purity", "--lambda", "1e15", "--t", "1us"])[0] == 0
    assert _populated(cli._parser()) == ["purity"]
    assert run(["qfi", "--target", "gamma", "--lambda", "1e15", "--t", "1us"])[0] == 0
    assert _populated(cli._parser()) == ["purity", "qfi"]


def test_every_case_prints_the_same_through_one_parser_twice():
    # one parser serves every call of a process, and no call changes what another prints
    cli._parser.cache_clear()
    parser = cli._parser()
    first = [run(argv) for argv in CASES]
    assert [run(argv) for argv in CASES] == first
    assert cli._parser() is parser
    if sys.version_info[:2] == (3, 11):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        expected = [golden[_id(argv)] for argv in CASES]
        assert first == [(g["code"], g["stdout"], g["stderr"]) for g in expected]


def test_threads_populate_a_shared_command_once(monkeypatch, capsys):
    # calls in several threads at once share the process's parser: one adds the command's
    # arguments while the others wait, where they used to parse a half-built command
    cli._parser.cache_clear()
    cli._parser()
    add_global_flags = cli._add_global_flags

    def slow(*args, **kwargs):
        time.sleep(0.05)  # a thread switch while the command is only half built
        add_global_flags(*args, **kwargs)

    monkeypatch.setattr(cli, "_add_global_flags", slow)
    barrier, codes = threading.Barrier(4), []

    def call():
        barrier.wait()
        codes.append(cli.main(["purity", "--lambda", "1e15", "--t", "1us"]))

    threads = [threading.Thread(target=call) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert codes == [0] * 4
    assert _populated(cli._parser()) == ["purity"]


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    golden = {}
    for argv in CASES:
        code, out, err = run(argv)
        golden[_id(argv)] = {"code": code, "stdout": out, "stderr": err}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
