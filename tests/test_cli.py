"""Command-line interface: parsing, CSV contracts, exit codes, presets."""
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import pmcorr as pc
from pmcorr.cli import _FIGURES, _emit_csv, _spaced, fmt, load_config, main, parse_time
from pmcorr.constants import AIR_MOLECULE_MASS, AIR_NUMBER_DENSITY, FULLERENE_MOLECULE_SIZE


#: the default gas: m_air, number density, molecule size
GAS = (AIR_MOLECULE_MASS, AIR_NUMBER_DENSITY, FULLERENE_MOLECULE_SIZE)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("50us", 5e-5), ("1e-6", 1e-6), ("228.4us", 2.284e-4), ("1ms", 1e-3),
         ("3ns", 3e-9), ("2s", 2.0), ("5e-5s", 5e-5)],
    )
    def test_parse_time(self, text, expected):
        assert parse_time(text) == pytest.approx(expected, rel=1e-12)

    def test_fmt_is_deterministic(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"

    def test_csv_rows_format_as_fmt(self, capsys):
        # each row is formatted in one call; the bytes must be fmt's, value by value
        rng = random.Random(1717)
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, sys.float_info.max,
                   -sys.float_info.max, sys.float_info.min, 1.0 / 3.0]
        draws = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(10_000)]
        values = special + draws
        rows = [values[i:i + 7] for i in range(0, len(values) - 6, 7)]
        header = [f"c{k}" for k in range(7)]
        _emit_csv(header, rows, None, "test", {}, 0.0)
        expected = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_load_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ngamma = 5\nt_s = 50us\nell0_m = inf\nlambda_m2s = 1e15\n")
        values = load_config(str(cfg))
        assert set(values) == {"gamma", "t_s", "ell0_m", "lambda_m2s"}
        assert values["gamma"] == 5.0
        assert values["t_s"] == pytest.approx(5e-5, rel=1e-12)
        assert values["ell0_m"] == math.inf
        assert values["lambda_m2s"] == 1e15

    def test_load_config_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(cfg))

    def test_load_config_names_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 2\nell0_m = abc\n")
        assert main(["--config", str(cfg), "purity", "--lambda", "1e15", "--t", "1us"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {cfg}:2: ell0_m: could not convert string to float: 'abc'\n"

    @pytest.mark.parametrize("command", [
        ["qfi", "--target", "gamma", "--gamma", "-1e1", "--lambda", "1e15", "--t", "1us"],
        ["purity", "--gamma", "-1e1", "--lambda", "1e15", "--t", "1us"],
        ["sweep", "--axis", "gamma", "--min", "-1e2", "--max", "1e2", "--points", "3",
         "--lambda", "1e15", "--t", "1us"],
        ["sweep", "--axis", "gamma", "--min", "-2.5E+01", "--max", "-.5", "--points", "3",
         "--lambda", "1e15", "--t", "1us"],
        ["purity", "--gamma", "-1_0.2_5e0_1", "--lambda", "1e15", "--t", "1us"],
    ], ids=["qfi", "purity", "sweep", "sweep-upper-case", "purity-underscores"])
    def test_negative_value_in_exponent_notation(self, command, capsys):
        # argparse took "-1e1" for a flag and exited 2 with "expected one argument";
        # the same values attached by "=" always parsed
        assert main(command) == 0
        spaced = capsys.readouterr()
        joined = []
        for arg in command:
            if arg[:1] == "-" and arg[1:2] in "0123456789.":
                joined[-1] += f"={arg}"
            else:
                joined.append(arg)
        assert main(joined) == 0
        assert capsys.readouterr() == spaced
        assert spaced.out and not spaced.err

    def test_negative_value_in_exponent_notation_for_figures(self, tmp_path):
        assert main(["figures", "--preset", "fig5", "--gamma", "-1e1", "--lambda", "1e15",
                     "--outdir", str(tmp_path), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "fig5_curve.csv.manifest.json").read_text())
        assert manifest["parameters"]["gamma"] == -10.0

    @pytest.mark.parametrize("command, message", [
        (["purity", "--lambda", "-inf", "--t", "1us"], "lam must be finite and >= 0, got -inf"),
        (["purity", "--lambda", "-Infinity", "--t", "1us"],
         "lam must be finite and >= 0, got -inf"),
        (["purity", "--gamma", "-NAN", "--lambda", "1e15", "--t", "1us"],
         "gamma must be finite, got nan"),
        (["qfi", "--target", "gamma", "--lambda", "1e15", "--t", "-iNf"],
         "t must be positive and finite, got -inf"),
        (["sweep", "--axis", "gamma", "--min", "-INF", "--max", "1", "--points", "3",
          "--lambda", "1e15", "--t", "1us"], "axis bounds must be finite, got min=-inf max=1.0"),
    ], ids=["inf", "infinity", "nan", "t", "sweep-min"])
    def test_negative_infinity_and_nan_are_values(self, command, message, capsys):
        # argparse took "-inf" for a flag and exited 2 with "expected one argument"; now
        # the value reaches its check, which names it, as "--flag=-inf" always did
        assert main(command) == 2
        spaced = capsys.readouterr()
        assert spaced == ("", f"error: {message}\n")
        flag = next(i for i, arg in enumerate(command) if arg[:2] == "--" and command[i + 1][:2] in
                    ("-i", "-I", "-n", "-N"))
        joined = command[:flag] + [f"{command[flag]}={command[flag + 1]}"] + command[flag + 2:]
        assert main(joined) == 2
        assert capsys.readouterr() == spaced

    @pytest.mark.parametrize("word", ["-infx", "-1__0", "-1e"])
    def test_a_word_after_a_flag_is_still_a_flag(self, word, capsys):
        # only the spellings float() reads are values; the rest are flags
        assert main(["purity", "--lambda", word, "--t", "1us"]) == 2
        assert "argument --lambda: expected one argument" in capsys.readouterr().err

    def test_a_flag_is_still_a_flag(self, capsys):
        # only numbers are taken for values: a missing value still names its flag
        assert main(["qfi", "--target", "gamma", "--gamma", "--lambda", "1e15", "--t", "1us"]) == 2
        assert "argument --gamma: expected one argument" in capsys.readouterr().err

    @staticmethod
    def _manifest_parameters(tmp_path, name, args, config=""):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_text(config)
        assert main(["--config", str(cfg), "sweep", "--axis", "gamma", "--min", "-1", "--max", "1",
                     "--points", "2", "--out", str(out), "--quiet", *args]) == 0
        return json.loads(out.with_name(out.name + ".manifest.json").read_text())["parameters"]

    @pytest.mark.parametrize("flag,key,value", [
        ("--mass", "mass_kg", "2e-24"), ("--sigma0", "sigma0_m", "2e-8"),
        ("--ell0", "ell0_m", "3e-8"), ("--gamma", "gamma", "2.5"),
        ("--lambda", "lambda_m2s", "3e14"), ("--temperature", "temperature_k", "0.5"),
        ("--m-air", "m_air_kg", "3e-26"), ("--number-density", "number_density_m3", "1e20"),
        ("--molecule-size", "molecule_size_m", "1e-9"), ("--t", "t_s", "20us"),
    ])
    def test_flag_and_config_key_agree(self, flag, key, value, tmp_path):
        # every run needs a coupling and a time; the parameter under test replaces its own
        base = {"--lambda": "1e15", "--t": "1us"}
        default = self._manifest_parameters(tmp_path, "default", [*itertools.chain(*base.items())])
        base.pop("--lambda" if flag == "--temperature" else flag, None)
        base = [*itertools.chain(*base.items())]
        by_flag = self._manifest_parameters(tmp_path, "flag", [*base, flag, value])
        by_key = self._manifest_parameters(tmp_path, "key", base, f"{key} = {value}\n")
        assert by_flag == by_key
        assert by_flag != default

    def test_ell0_infinity_spellings_are_coherent(self, tmp_path):
        base = ["--lambda", "1e15", "--t", "1us"]
        by_flag = self._manifest_parameters(tmp_path, "flag", [*base, "--ell0", "Infinity"])
        by_key = self._manifest_parameters(tmp_path, "key", base, "ell0_m = INF\n")
        assert by_flag["ell0_m"] is None
        assert by_flag == by_key


def count_brackets(monkeypatch) -> list:
    """The calls to `model._purity_bracket` from every module that imports it, as they run."""
    calls, bracket = [], pc.model._purity_bracket
    for module in (pc.model, pc.fisher):
        monkeypatch.setattr(module, "_purity_bracket", lambda *a: calls.append(a) or bracket(*a))
    return calls


def spy_builds(monkeypatch) -> list:
    """(module, gamma, lambda, derivatives asked for) of each bracket-builder call, as they run."""
    built = []
    for module in (pc.fisher, pc.thermometry):
        build = module._purity_bracket_coefficients
        monkeypatch.setattr(module, "_purity_bracket_coefficients",
                            lambda *a, b=build, m=module: built.append((m, *a[3:5], a[5:])) or b(*a))
    return built


#: the builders of the coefficients' fixed parts, each of which keeps its last probe's
FIXED_PARTS = [pc.model._purity_bracket_fixed]


def clear_fixed_parts() -> None:
    """Forget every kept fixed part, so the next call builds it and counts can start at 0."""
    for build in FIXED_PARTS:
        build.cache_clear()


class TestSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--axis", "gamma", "--min", "-150", "--max", "150",
                   "--points", "301", "--lambda", "1e15", "--t", "50e-6",
                   "--target", "lambda", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 302
        assert lines[0].startswith("gamma,purity,relative_purity_rate_per_s,qfi_analytic")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--axis", "time", "--min", "1e-6", "--max", "1e-3", "--points", "40",
                "--log", "--lambda", "1e15", "--gamma", "5", "--target", "gamma", "--quiet"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_overflowing_purity_bracket_names_the_row(self, capsys):
        # the bracket's quartic term overflows to inf; the rows printed purity 0 and rate NaN
        assert main(["sweep", "--axis", "time", "--min", "1e9", "--max", "1e10", "--points", "2",
                     "--lambda", "1e150"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("sweep row 0 (time_s=1000000000.0) failed: purity bracket "
                           "1/purity^2=inf overflows the float range at t=1e+09 s\n")

    @pytest.mark.parametrize("lam,message", [
        ("1e15", "sweep row 1 (gamma=2.5e+199) failed: gamma=2.5e+199 overflows the float range: "
                 "gamma^2 needs gamma below ~1.3e+154\n"),
        # the row before the first one whose probe fails fails first
        ("1e200", "sweep row 0 (gamma=0.0) failed: lambda=1e+200 overflows the float range: "
                  "lambda^2 needs lambda below ~1.3e+154 m^-2 s^-1\n"),
    ])
    def test_gamma_axis_value_out_of_range_names_its_row(self, lam, message, capsys):
        # the axis probe of gamma = 2.5e199 cannot be built: the first row that uses it
        # names it, as every other row failure is named
        assert main(["sweep", "--axis", "gamma", "--min", "0", "--max", "1e200", "--points", "5",
                     "--t", "1us", "--lambda", lam]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == message

    def test_short_time_row_names_its_overflow(self, capsys):
        # the row's QFI is a value (phi_gamma's (tau0/t)^2 once failed it); its CFI
        # column squares m/(2 hbar t), which leaves the float range
        assert main(["sweep", "--target", "gamma", "--axis", "time", "--log", "--min", "1e-200",
                     "--max", "1e-190", "--points", "2", "--lambda", "1e15"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("sweep row 0 (time_s=1e-200) failed: (m/(2 hbar t) + gamma/(2 sigma0^2))"
                           "=5.68951e+209 overflows the float range: (m/(2 hbar t) + "
                           "gamma/(2 sigma0^2))^2, in b_sq, needs (m/(2 hbar t) + "
                           "gamma/(2 sigma0^2)) below ~1.3e+154 m^-2\n")

    @pytest.mark.parametrize("target", ["gamma", "lambda"])
    def test_time_axis_evaluates_the_bracket_once_per_row(self, target, monkeypatch):
        # outside the Richardson oracle a row's purity, rate and analytic QFI share one
        # bracket value, and the coefficients' fixed part is built once for the whole run
        clear_fixed_parts()
        calls, scales = count_brackets(monkeypatch), []
        bracket_scales = pc.model._bracket_scales
        monkeypatch.setattr(pc.model, "_bracket_scales",
                            lambda *a: scales.append(a) or bracket_scales(*a))
        oracle = pc.cli._qfi_numeric_points

        def uncounted(*args):
            start, start_scales = len(calls), len(scales)
            values = oracle(*args)
            del calls[start:], scales[start_scales:]
            return values

        monkeypatch.setattr(pc.cli, "_qfi_numeric_points", uncounted)
        assert main(["sweep", "--axis", "time", "--min", "1us", "--max", "1ms", "--points", "7",
                     "--log", "--lambda", "1e15", "--gamma", "3", "--target", target]) == 0
        assert len(calls) == 7
        # one fixed part serves the bracket, dB/dt and dB/d(target): the oracle, which runs
        # first, builds it for its per-point bracket, and no row builds it again
        assert scales == []
        assert pc.model._purity_bracket_fixed.cache_info().misses == 1

    @pytest.mark.parametrize("target", ["gamma", "lambda"])
    @pytest.mark.parametrize("axis,flags,groups", [
        ("gamma", ["--min", "-20", "--max", "20", "--lambda", "1e15", "--t", "20us"], 5),
        ("lambda", ["--min", "1e10", "--max", "1e20", "--log", "--gamma", "3", "--t", "20us"], 5),
        ("time", ["--min", "1us", "--max", "1ms", "--log", "--lambda", "1e15", "--gamma", "3"], 1),
    ])
    def test_target_sweep_builds_the_bracket_once_per_probe_and_env(
            self, target, axis, flags, groups, monkeypatch, capsys):
        # a row's purity, rate and analytic QFI take B, dB/dt and dB/d(target) from one
        # call per (probe, env); the Richardson oracle's own calls are not counted
        built = spy_builds(monkeypatch)
        oracle = pc.cli._qfi_numeric_points

        def uncounted(*args):
            start = len(built)
            values = oracle(*args)
            del built[start:]
            return values

        monkeypatch.setattr(pc.cli, "_qfi_numeric_points", uncounted)
        assert main(["sweep", "--target", target, "--axis", axis, "--points", "5", *flags]) == 0
        assert len(set(built)) == len(built) == groups
        assert {(m, wrt) for m, _, _, wrt in built} == {(pc.fisher, (target, "t"))}

    def test_a_bare_sweep_after_a_target_sweep_keeps_the_default_target(self, capsys):
        # one parser serves every call of a process, and no call leaves a value in it
        base = ["sweep", "--axis", "time", "--min", "1us", "--max", "10us", "--points", "2",
                "--lambda", "1e15"]
        assert main(base + ["--target", "lambda"]) == 0
        assert capsys.readouterr().out.startswith("time_s,purity,relative_purity_rate_per_s,qfi_")
        assert main(base) == 0
        assert capsys.readouterr().out.splitlines()[0] == "time_s,purity,relative_purity_rate_per_s"

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--axis", "gamma", "--min", "-1", "--max", "1", "--points", "3",
              "--lambda", "1e15", "--t", "1us", "--out", str(out), "--quiet"])
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["tool"] == "pmcorr"
        assert manifest["command"] == "sweep"
        assert manifest["parameters"]["lambda_m2s"] == 1e15
        assert "hbar_Js" in manifest["constants"]

    def test_free_evolution_qfi_is_first_term(self, tmp_path):
        # no coupling: the purity-derivative term vanishes identically
        out = tmp_path / "fig2a_like.csv"
        rc = main(["sweep", "--axis", "gamma", "--min", "-20", "--max", "20", "--points", "21",
                   "--lambda", "0", "--t", "1us", "--target", "gamma", "--out", str(out),
                   "--quiet"])
        assert rc == 0
        data = read_csv(out)
        env = pc.EnvironmentSpec(lam=0.0)
        for g, qfi in zip(data["gamma"], data["qfi_analytic"]):
            probe = pc.fullerene_probe(gamma=float(g))
            mu = pc.purity_exact(probe, env, 1e-6)
            first = mu**4 / (2 * (1 + mu**2)) * 16.0 * pc.phi_gamma(probe, env, 1e-6)
            assert qfi == pytest.approx(first, rel=1e-12)

    def test_weak_coupling_optimum_away_from_zero(self, tmp_path):
        out = tmp_path / "fig3a_like.csv"
        rc = main(["sweep", "--axis", "gamma", "--min", "-150", "--max", "150", "--points", "151",
                   "--lambda", "1e15", "--t", "5e-5", "--target", "lambda", "--out", str(out),
                   "--quiet"])
        assert rc == 0
        data = read_csv(out)
        k = int(np.argmax(data["qfi_analytic_m4s2"]))
        assert data["gamma"][k] != 0.0

    def test_config_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 5\nlambda_m2s = 1e15\nt_s = 1us\n")
        out1 = tmp_path / "c1.csv"
        rc = main(["--config", str(cfg), "sweep", "--axis", "time", "--min", "1e-6", "--max",
                   "2e-6", "--points", "2", "--target", "gamma", "--out", str(out1), "--quiet"])
        assert rc == 0
        out2 = tmp_path / "c2.csv"
        rc = main(["--config", str(cfg), "sweep", "--axis", "time", "--min", "1e-6", "--max",
                   "2e-6", "--points", "2", "--target", "gamma", "--gamma", "7",
                   "--out", str(out2), "--quiet"])
        assert rc == 0
        probe5, probe7 = pc.fullerene_probe(gamma=5.0), pc.fullerene_probe(gamma=7.0)
        env = pc.EnvironmentSpec(lam=1e15)
        assert read_csv(out1)["purity"][0] == pytest.approx(
            pc.purity_exact(probe5, env, 1e-6), rel=1e-12)
        assert read_csv(out2)["purity"][0] == pytest.approx(
            pc.purity_exact(probe7, env, 1e-12 + 1e-6), rel=1e-6)

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--axis", "gamma", "--min", "5", "--max", "1", "--points", "10",
             "--lambda", "1e15", "--t", "1us"],
            ["sweep", "--axis", "gamma", "--min", "-1", "--max", "1", "--points", "1",
             "--lambda", "1e15", "--t", "1us"],
            ["sweep", "--axis", "lambda", "--min", "0", "--max", "1e15", "--points", "5",
             "--log", "--t", "1us"],
            ["sweep", "--axis", "gamma", "--min", "-1", "--max", "1", "--points", "5",
             "--t", "1us"],  # no coupling anywhere
            ["sweep", "--axis", "gamma", "--min", "-1", "--max", "1", "--points", "3",
             "--lambda", "1e15", "--t", "inf"],
        ],
    )
    def test_validation_exit_code(self, args, capsys):
        assert main(args) == 2

    def test_non_finite_axis_bound_named(self, capsys):
        assert main(["sweep", "--axis", "time", "--min", "1us", "--max", "inf", "--points", "3",
                     "--lambda", "1e15"]) == 2
        assert capsys.readouterr().err == "error: axis bounds must be finite, got min=1e-06 max=inf\n"


class TestAxes:
    def test_linear_axis_is_numpy_linspace(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-300.0, 300.0, 2)
            num = int(rng.integers(2, 400))
            expected = np.linspace(start, stop, num).tolist()
            assert [v.hex() for v in _spaced(start, stop, num)] == [v.hex() for v in expected]

    def test_subnormal_width_takes_the_zero_step_branch(self):
        tiny = math.ulp(0.0)
        rng = np.random.default_rng(13)
        for _ in range(200):
            start = float(rng.integers(-1000, 1000)) * tiny
            num = int(rng.integers(5, 400))
            stop = start + float(rng.integers(1, (num - 1) // 2)) * tiny
            assert (stop - start) / (num - 1) == 0.0
            expected = np.linspace(start, stop, num).tolist()
            assert [v.hex() for v in _spaced(start, stop, num)] == [v.hex() for v in expected]

    @pytest.mark.parametrize("preset,axis,exponents", [
        ("fig4", 0, (-6.0, math.log10(5e-3), 220)),
        ("figD", 1, (-7.0, -4.0, 41)),
        ("figE", 0, (13.0, 22.0, 181)),
    ])
    def test_preset_log_axis_is_libm_accurate(self, preset, axis, exponents):
        # against 10**y to 200 bits, each value is off by at most 0.51 ulp: the
        # correctly rounded double, or its neighbour only where 10**y lies within
        # 0.01 ulp of the midpoint between the two.  At figE's y = 17.15, 10**y lies
        # 0.0006 ulp from one, and glibc's FMA pow rounds it the other way; numpy's
        # AVX-512 logspace erred by up to 0.60 ulp on these axes
        kind, values = _FIGURES[preset][0][2][axis]
        assert kind in ("time", "lambda")
        with mpmath.workprec(200):
            errors = [abs(mpmath.mpf(v) - mpmath.power(10, mpmath.mpf(y))) / math.ulp(v)
                      for v, y in zip(values(), _spaced(*exponents), strict=True)]
        assert max(errors) < 0.51

    def test_log_axis_overflow_named(self, capsys):
        # 10**log10(max) rounds past the largest double for the top ~500 doubles
        assert main(["sweep", "--axis", "lambda", "--log", "--min", "1",
                     "--max", "1.7976931348623157e308", "--points", "3", "--t", "1us"]) == 2
        assert capsys.readouterr().err == (
            "error: log axis max=1.7976931348623157e+308 leaves the float range as "
            "10**log10(max): max needs to stay below ~1.7976931348622e+308\n")


def _draw_scenario(rng: random.Random):
    """A seeded (probe, lam, t) from the benchmark's box: lam 1e10-1e20, t 1e-7-1e-3 s."""
    gamma = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, math.log10(150.0))
    probe = pc.fullerene_probe(gamma=gamma, ell0=rng.choice([5e-8, math.inf]))
    return probe, 10.0 ** rng.uniform(10.0, 20.0), 10.0 ** rng.uniform(-7.0, -3.0)


class TestRuns:
    """`cli._grid` runs each file's group once on all its points."""

    GAMMA, LAMBDA = pc.EstimationTarget.GAMMA, pc.EstimationTarget.LAMBDA

    @staticmethod
    def points(probe, lam, t, axis, values):
        """Each row's (probe, env, t), as the one-point functions take them."""
        if axis == "gamma":
            return [(probe.with_gamma(v), pc.EnvironmentSpec(lam=lam), t) for v in values]
        if axis == "lambda":
            return [(probe, pc.EnvironmentSpec(lam=v), t) for v in values]
        return [(probe, pc.EnvironmentSpec(lam=lam), v) for v in values]

    @pytest.mark.parametrize("seed", [30, 31, 32])
    @pytest.mark.parametrize("axis", ["gamma", "lambda", "time"])
    def test_every_cell_is_the_one_point_value(self, seed, axis):
        # each cell of a run, bit for bit, is what the public function returns at its
        # point alone; a slope column has no public function, and is the evaluator's
        # one-point row
        rng = random.Random(seed)
        probe, lam, t = _draw_scenario(rng)
        values = sorted({
            "gamma": lambda: rng.uniform(-150.0, 150.0),
            "lambda": lambda: 10.0 ** rng.uniform(10.0, 20.0),
            "time": lambda: 10.0 ** rng.uniform(-7.0, -3.0),
        }[axis]() for _ in range(40))
        slope = {"time": "t"}.get(axis, axis)
        points = self.points(probe, lam, t, axis, values)
        for target in (self.GAMMA, self.LAMBDA):
            group = pc.cli._analytic(target, cfi=True, slope=slope)
            rows = pc.cli._grid(probe, lam, t, [(axis, values)], group)
            assert len(rows) == len(points)
            for row, (p, e, tt), v in zip(rows, points, values):
                scale = e.lam**2 if target is self.LAMBDA else 1.0
                [(_, _, rate, _, _)] = pc.fisher._analytic_rows(None, [(p, e, tt)], slope)
                expected = [
                    v, scale * pc.qfi_analytic(target, p, e, tt),
                    scale * pc.cfi_closed(target, p, e, tt), pc.purity_exact(p, e, tt), rate,
                ]
                assert [x.hex() for x in row] == [x.hex() for x in expected]
                if slope == "t":
                    assert rate.hex() == pc.relative_purity_rate(p, e, tt).hex()

    @pytest.mark.parametrize("seed", [30, 31])
    def test_per_gamma_layout_is_the_one_point_values(self, seed):
        # fig4b's layout on a seeded time axis: each fixed gamma's purity, then each
        # one's rate; and fig4a's lambda^2 QFI per fixed gamma
        rng = random.Random(seed)
        probe, lam, _ = _draw_scenario(rng)
        times = sorted(10.0 ** rng.uniform(-7.0, -3.0) for _ in range(30))
        gammas = (0.0, rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0))
        e = pc.EnvironmentSpec(lam=lam)
        purity_rate = pc.cli._per_gamma(gammas, pc.cli._analytic(slope="t"), (1, 1))
        qfi = pc.cli._per_gamma(gammas, pc.cli._analytic(self.LAMBDA))
        for row, t in zip(pc.cli._grid(probe, lam, None, [("time", times)], purity_rate), times,
                          strict=True):
            fixed = [probe.with_gamma(g) for g in gammas]
            expected = [t] + [pc.purity_exact(p, e, t) for p in fixed] + [
                pc.relative_purity_rate(p, e, t) for p in fixed]
            assert [x.hex() for x in row] == [x.hex() for x in expected]
        for row, t in zip(pc.cli._grid(probe, lam, None, [("time", times)], qfi), times, strict=True):
            expected = [t] + [lam**2 * pc.qfi_analytic("lambda", probe.with_gamma(g), e, t)
                              for g in gammas]
            assert [x.hex() for x in row] == [x.hex() for x in expected]

    def test_target_sweep_rows_are_the_one_point_values(self, capsys):
        # the lambda sweep's cells against each one-point function, on a time axis
        assert main(["sweep", "--target", "lambda", "--axis", "time", "--min", "1us", "--max",
                     "1ms", "--points", "9", "--log", "--lambda", "1e15", "--gamma", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        probe, e = pc.fullerene_probe(gamma=3.0), pc.EnvironmentSpec(lam=1e15)
        for line in lines[1:]:
            t = float(line.split(",")[0])
            qfi = pc.qfi_analytic("lambda", probe, e, t)
            expected = [
                t, pc.purity_exact(probe, e, t), pc.relative_purity_rate(probe, e, t), qfi,
                pc.qfi_numeric("lambda", probe, e, t), pc.cfi_closed("lambda", probe, e, t),
                1e15**2 * qfi, pc.temperature_from_lambda(1e15, *GAS),
            ]
            assert line == ",".join(fmt(x) for x in expected)

    def test_builders_run_once_per_distinct_probe_and_env(self, monkeypatch):
        # the bracket's and the CFI's coefficients are built where a point's probe or env
        # is another object than the previous point's, and nowhere else
        built, closed = spy_builds(monkeypatch), []
        cfi = pc.fisher._cfi_coefficients
        monkeypatch.setattr(pc.fisher, "_cfi_coefficients", lambda *a: closed.append(a) or cfi(*a))
        probes = [pc.fullerene_probe(gamma=g) for g in (-3.0, 0.5, 7.0)]
        envs = [pc.EnvironmentSpec(lam=lam) for lam in (1e12, 1e18)]
        runs = [(p, e) for p in probes for e in envs]
        points = [(p, e, t) for p, e in runs for t in (1e-6, 2e-6, 5e-5, 1e-4)]
        rows = list(pc.fisher._analytic_rows(self.LAMBDA, points, "gamma", cfi=True))
        assert len(rows) == len(points)
        assert [(g, lam) for _, g, lam, _ in built] == [(p.gamma, e.lam) for p, e in runs]
        assert {wrt for _, _, _, wrt in built} == {("lambda", "gamma")}
        assert [a[1][3:] for a in closed] == [(p.gamma, e.lam) for p, e in runs]

    @pytest.mark.parametrize("builder_fails", [False, True])
    def test_a_wide_row_fails_on_its_builders_first(self, builder_fails, monkeypatch):
        # fig4a's layout: row 1's evaluation fails at every gamma and, where asked, the
        # builder at gamma = 50 fails too; a row's builders at each of its gammas run
        # before its evaluations, so that builder's error is the row's
        build = pc.fisher._purity_bracket_coefficients

        def builder(*args):
            if builder_fails and args[3] == 50.0:
                raise OverflowError("builder at gamma=50")
            return build(*args)

        def bracket(c, t, *d):
            if t > 1e-6:
                raise OverflowError(f"evaluation at t={t:g}")
            return pc.model._purity_bracket(c, t, *d)

        monkeypatch.setattr(pc.fisher, "_purity_bracket_coefficients", builder)
        monkeypatch.setattr(pc.fisher, "_purity_bracket", bracket)
        group = pc.cli._per_gamma((0.0, 10.0, 50.0), pc.cli._analytic(self.LAMBDA))
        probe, env = pc.fullerene_probe(), pc.EnvironmentSpec(lam=1e15)
        # rows of one (probe, env) each, so each row builds all three gammas
        points = [(probe, env, 1e-6), (probe, env, 2e-6)]
        error = "builder at gamma=50" if builder_fails else "evaluation at t=2e-06"
        with pytest.raises(OverflowError, match=error):
            group(points[1:])
        if not builder_fails:
            assert len(group(points[:1])) == 1
            with pytest.raises(pc.ConvergenceError,
                               match=r"^row 1 \(time_s=2e-06\) failed: evaluation at t=2e-06$"):
                pc.cli._grid(probe, 1e15, None, [("time", [1e-6, 2e-6, 3e-6])], group)

    def test_grid_runs_the_group_once(self):
        calls = []

        def group(points):
            calls.append(list(points))
            return [[t] for _, _, t in points]

        probe = pc.fullerene_probe()
        rows = pc.cli._grid(probe, 1e15, None, [("gamma", [0.0, 1.0]), ("time", [1e-6, 2e-6])],
                            group)
        assert rows == [[0.0, 1e-6, 1e-6], [0.0, 2e-6, 2e-6], [1.0, 1e-6, 1e-6],
                        [1.0, 2e-6, 2e-6]]
        assert len(calls) == 1 and [t for _, _, t in calls[0]] == [1e-6, 2e-6, 1e-6, 2e-6]
        # probes and environments are built once per axis value and shared by its points
        assert calls[0][0][0] is calls[0][1][0] and calls[0][0][1] is calls[0][2][1]

    def test_an_unbuilt_axis_value_is_named_by_its_first_row(self):
        # gamma = 1e200 has no probe: the rows before it are evaluated, in one run, and
        # the first row that uses it, the fifth, is named; no later value is built
        calls, probe = [], pc.fullerene_probe()

        def group(points):
            calls.append(len(points))
            return [[1.0] for _ in points]

        with pytest.raises(pc.ConvergenceError, match=(
                r"^row 4 \(gamma=1e\+200, time_s=1e-06\) failed: gamma=1e\+200 overflows")):
            pc.cli._grid(probe, 1e15, None, [("gamma", [0.0, 1.0, 1e200, float("nan")]),
                                             ("time", [1e-6, 2e-6])], group)
        assert calls == [4]


class TestTable1:
    def test_default_rows_within_tolerances(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--out", str(out), "--quiet"]) == 0
        data = read_csv(out)
        assert len(data) == 7
        assert np.all(np.abs(data["resid_tau_max_rel"]) <= 0.01)
        assert np.all(np.abs(data["resid_rate_rel"]) <= 0.01)
        assert np.all(np.abs(data["resid_lambda_sq_qfi_rel"]) <= 0.02)
        assert np.all(np.abs(data["resid_tgi_db"]) <= 0.1)
        assert np.all(np.abs(data["purity_at_tau_max"] - 0.563) <= 0.005)

    def test_single_gamma(self, capsys):
        assert main(["table1", "--gammas", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split()[-1]) == 0.0

    def test_reference_matched_within_tolerance(self, tmp_path):
        # --temperature 0.442 resolves to lam = 9.93e14, within 1% of the reference
        out = tmp_path / "table1.csv"
        assert main(["table1", "--temperature", "0.442", "--out", str(out), "--quiet"]) == 0
        data = read_csv(out)
        assert np.all(np.abs(data["resid_tau_max_rel"]) <= 0.01)
        assert np.all(np.abs(data["resid_tgi_db"]) <= 0.1)

    def test_lambda_scaling(self, tmp_path):
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(["table1", "--gammas", "0", "35", "--out", str(out1), "--quiet"]) == 0
        assert main(["table1", "--gammas", "0", "35", "--lambda", "4e15",
                     "--out", str(out4), "--quiet"]) == 0
        tau1 = read_csv(out1)["tau_max_us"]
        tau4 = read_csv(out4)["tau_max_us"]
        np.testing.assert_allclose(tau1 / tau4, 4.0 ** (1.0 / 3.0), rtol=0.02)
        assert np.all(np.isnan(read_csv(out4)["resid_tau_max_rel"]))


class TestConvert:
    def test_to_lambda_reference(self, capsys):
        assert main(["convert", "--to-lambda", "0.442", "--quiet"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.0e15, rel=0.02)

    def test_to_temperature_reference(self, capsys):
        assert main(["convert", "--to-temp", "1e20", "--quiet"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(952.0, rel=0.02)

    def test_zero(self, capsys):
        assert main(["convert", "--to-lambda", "0", "--quiet"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_coupling_below_the_float_limit_prints(self, capsys):
        # a partial product of the coupling overflowed first: this exited 3
        assert main(["convert", "--to-lambda", "1e190", "--quiet"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pc.lambda_from_temperature(
            1e190, pc.constants.AIR_MOLECULE_MASS, pc.constants.AIR_NUMBER_DENSITY,
            pc.constants.FULLERENE_MOLECULE_SIZE)
        assert value == pytest.approx(3.378e300, rel=1e-3)

    def test_coupling_with_a_subnormal_thermal_power_prints(self, capsys):
        # (k_B T)^1.5 underflows at 1e-200 K while the coupling is 3.4e-285: this printed 0
        assert main(["convert", "--to-lambda", "1e-200", "--quiet"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pc.lambda_from_temperature(
            1e-200, pc.constants.AIR_MOLECULE_MASS, pc.constants.AIR_NUMBER_DENSITY,
            pc.constants.FULLERENE_MOLECULE_SIZE)
        assert value == pytest.approx(3.3784e-285, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("direction", ["--to-lambda", "--to-temp"])
    @pytest.mark.parametrize("flag", ["--m-air", "--number-density", "--molecule-size"])
    def test_infinite_gas_rejected(self, direction, flag, capsys):
        # --number-density inf exited 3, blaming the coupling's overflow
        assert main(["convert", direction, "1", flag, "inf"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: m_air, number_density and molecule_size must be "
                                  "positive and finite")

    def test_provenance_line(self, capsys):
        assert main(["convert", "--to-lambda", "0.442"]) == 0
        err = capsys.readouterr().err
        assert "m_air=" in err and "number_density=" in err and "molecule_size=" in err

    def test_negative_rejected(self, capsys):
        assert main(["convert", "--to-lambda", "-1"]) == 2
        assert main(["convert", "--to-temp", "-1"]) == 2

    @pytest.mark.parametrize("flag", ["--to-lambda", "--to-temp"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rejected(self, flag, value, capsys):
        assert main(["convert", flag, value, "--quiet"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")


class TestFigures:
    def test_fig5_overlay(self, tmp_path):
        assert main(["figures", "--preset", "fig5", "--outdir", str(tmp_path), "--quiet"]) == 0
        curve = read_csv(tmp_path / "fig5_curve.csv")
        points = read_csv(tmp_path / "fig5_points.csv")
        assert len(curve) == 301
        for g, tgi_exact in zip(points["gamma"], points["tgi_db"]):
            assert abs(tgi_exact - pc.tgi_approx(float(g))) <= 0.2

    def test_fig5_points_are_the_tgi(self, tmp_path):
        # the lambda^2 QFI at tau_max once failed (phi_lambda's t^8): the points, once
        # taken from full gain-table rows, exited 3 after writing the curve
        assert main(["figures", "--preset", "fig5", "--lambda", "1e-200", "--outdir",
                     str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "fig5_points.csv").read_text().splitlines()
        e = pc.EnvironmentSpec(lam=1e-200)
        assert lines == ["gamma,tgi_db"] + [
            f"{fmt(r.gamma)},{fmt(pc.tgi(pc.fullerene_probe(gamma=r.gamma), e))}"
            for r in pc.TABLE1_REFERENCE
        ]

    def test_fig5_failing_point_names_its_row(self, tmp_path, capsys):
        # gamma = 35 has no resolvable knee at lambda = 1e25, while gamma = 0 has
        assert main(["figures", "--preset", "fig5", "--lambda", "1e25", "--outdir",
                     str(tmp_path), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: row 4 (gamma=35.0) failed: no interior maximum of the purity "
            "rate at gamma=35, lam=1e+25\n")
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fig5_curve.csv"]

    def test_fig5_points_take_tau_max_at_gamma_0_once(self, tmp_path, monkeypatch):
        # seven gamma values and one gamma = 0 reference: 8 searches, not 7 pairs
        calls, search = [], pc.cli.tau_max_exact
        monkeypatch.setattr(pc.cli, "tau_max_exact", lambda p, e: calls.append(p.gamma) or search(p, e))
        assert main(["figures", "--preset", "fig5", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert calls == [0.0] + [r.gamma for r in pc.TABLE1_REFERENCE]

    def test_fig2_panel_a_purity_constant(self, tmp_path):
        assert main(["figures", "--preset", "fig2", "--outdir", str(tmp_path), "--quiet"]) == 0
        data = read_csv(tmp_path / "fig2a.csv")
        assert np.ptp(data["purity"]) == 0.0

    def test_fig4_high_correlation_saturates_earlier(self, tmp_path):
        assert main(["figures", "--preset", "fig4", "--outdir", str(tmp_path), "--quiet"]) == 0
        data = read_csv(tmp_path / "fig4a.csv")
        t95 = []
        for column in ("lambda_sq_qfi_gamma0", "lambda_sq_qfi_gamma10", "lambda_sq_qfi_gamma50"):
            series = data[column]
            plateau = series[-1]
            t95.append(data["time_s"][np.argmax(series >= 0.95 * plateau)])
        assert t95[0] > t95[1] > t95[2]

    def test_long_coherence_length_writes_the_coherent_files(self, tmp_path):
        # fig2's CFI column squared ell0 and exited 3 at row 0 for ell0 above ~1.3e154 m
        for ell0 in ("inf", "1e200"):
            assert main(["figures", "--preset", "fig2", "--ell0", ell0, "--outdir",
                         str(tmp_path / ell0), "--quiet"]) == 0
        for name in ("fig2a.csv", "fig2b.csv", "fig2c.csv", "fig2d.csv"):
            assert (tmp_path / "1e200" / name).read_bytes() == (tmp_path / "inf" / name).read_bytes()

    def test_time_axis_builds_bracket_coefficients_once_per_gamma(self, tmp_path, monkeypatch):
        # the purity bracket's fixed part passes through _bracket_scales once for both
        # files and every fixed gamma; its (gamma, lambda) tuples once per fixed gamma
        clear_fixed_parts()
        calls, built = [], spy_builds(monkeypatch)
        scales = pc.model._bracket_scales
        monkeypatch.setattr(pc.model, "_bracket_scales", lambda *a: calls.append(a) or scales(*a))
        assert main(["figures", "--preset", "fig4", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 1
        # fig4a's B with dB/dlambda in one call, then fig4b's B with dB/dt, k c_k of
        # it, in one call, per gamma
        gammas = [0.0, 10.0, 50.0]
        assert built == (
            [(pc.fisher, g, 1e15, ("lambda",)) for g in gammas]
            + [(pc.fisher, g, 1e15, ("t",)) for g in gammas]
        )

    def test_fig3_builds_the_bracket_once_per_row(self, tmp_path, monkeypatch):
        # fig3's lambda QFI and its gamma slope take B, dB/dlambda and dB/dgamma from
        # one call per (probe, env): 2 files x 301 gamma values
        built = spy_builds(monkeypatch)
        assert main(["figures", "--preset", "fig3", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(set(built)) == len(built) == 2 * 301
        assert {(m, wrt) for m, _, _, wrt in built} == {(pc.fisher, ("lambda", "gamma"))}

    def test_time_axis_builds_the_qfi_coefficients_once_per_gamma(self, tmp_path, monkeypatch):
        # figD's 2,501 rows hold 61 gamma values, each over a 41-point time axis; the
        # QFI's trace comes from the bracket's tuple and its gamma derivative's, built
        # in one call per gamma, and the bracket's fixed part is built once for the file
        clear_fixed_parts()
        calls = []
        build = pc.fisher._purity_bracket_coefficients
        monkeypatch.setattr(pc.fisher, "_purity_bracket_coefficients",
                            lambda *a: calls.append(a) or build(*a))
        assert main(["figures", "--preset", "figD", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len({a[3] for a in calls}) == len(calls) == 61
        assert {a[5:] for a in calls} == {("gamma",)}
        assert pc.model._purity_bracket_fixed.cache_info().misses == 1

    def test_fixed_factors_are_built_once_per_run(self, tmp_path, monkeypatch):
        # fig2's 4 x 301 rows each change gamma, so each row builds its (gamma, lambda)
        # coefficients; what depends on the probe's mass, sigma0 and ell0 alone is built
        # once for all four files, not once per row
        clear_fixed_parts()
        scales = []
        build = pc.model._bracket_scales
        monkeypatch.setattr(pc.model, "_bracket_scales", lambda *a: scales.append(a) or build(*a))
        assert main(["figures", "--preset", "fig2", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(scales) == 1
        info = {build.__name__: build.cache_info() for build in FIXED_PARTS}
        assert {name: i.misses for name, i in info.items()} == {"_purity_bracket_fixed": 1}
        assert info["_purity_bracket_fixed"].hits >= 4 * 301

    def test_coherence_ratio_is_evaluated_in_the_fixed_parts_alone(self, tmp_path, monkeypatch):
        # eps = (sigma0/ell0)^2 was derived once per (probe, env) group, 1,505 times in
        # one fig2 run; the fixed parts now take ell0 and derive it once each
        clear_fixed_parts()
        calls, ratio = [], pc.model._coherence_ratio_sq
        monkeypatch.setattr(pc.model, "_coherence_ratio_sq",
                            lambda *a: calls.append(a) or ratio(*a))
        assert main(["figures", "--preset", "fig2", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("preset,evaluations", [
        ("fig2", 4 * 301), ("fig3", 2 * 301), ("fig4", 2 * 220 * 3), ("figE", 181 * 3),
    ])
    def test_presets_evaluate_the_purity_bracket_once_per_row_and_gamma(
            self, preset, evaluations, tmp_path, monkeypatch):
        # each file's columns share one group per (probe, env): fig3's lambda columns
        # and its gamma slope, fig4b's purity and its rate, figE's QFI and its slope
        calls = count_brackets(monkeypatch)
        assert main(["figures", "--preset", preset, "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == evaluations

    def test_figD_evaluates_the_purity_bracket_once_per_row(self, tmp_path, monkeypatch):
        # a row's QFI, purity and slope share one bracket value: 2,501 rows, 2,501 evaluations
        calls = count_brackets(monkeypatch)
        assert main(["figures", "--preset", "figD", "--outdir", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == 61 * 41 == 2501

    def test_svg_emission(self, tmp_path):
        assert main(["figures", "--preset", "fig5", "--outdir", str(tmp_path),
                     "--format", "svg", "--quiet"]) == 0
        svg = (tmp_path / "fig5_curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_unwritable_outdir(self, capsys):
        assert main(["figures", "--preset", "fig5", "--outdir", "/proc/nope"]) == 4


class TestScalarCommands:
    def test_purity_routes_agree(self, capsys):
        assert main(["purity", "--gamma", "0", "--lambda", "1e15", "--t", "228.4us"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["purity_exact"]) == pytest.approx(0.563, abs=0.005)
        assert float(values["purity_exact"]) == pytest.approx(
            float(values["purity_from_covariance"]), rel=1e-9)

    def test_qfi_command(self, capsys):
        assert main(["qfi", "--target", "lambda", "--lambda", "1e15", "--t", "228.4us"]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["lambda_sq_qfi"]) == pytest.approx(0.247, rel=0.02)

    def test_cfi_command(self, capsys):
        assert main(["cfi", "--target", "gamma", "--lambda", "1e15", "--t", "50us"]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["cfi_closed"]) == pytest.approx(
            float(values["cfi_quadrature"]), rel=1e-6)
        assert float(values["cfi_closed"]) == pytest.approx(
            float(values["cfi_gaussian_identity"]), rel=1e-6)

    def test_long_coherence_length_prints_the_coherent_values(self, capsys):
        # ell0^2 overflows: cfi exited 3 with the bare (34, 'Numerical result out of range')
        command = ["cfi", "--target", "gamma", "--lambda", "1e15", "--t", "1us"]
        assert main(command + ["--ell0", "inf"]) == 0
        coherent = capsys.readouterr()
        assert main(command + ["--ell0", "1e200"]) == 0
        assert capsys.readouterr() == coherent

    def test_tgi_command(self, capsys):
        assert main(["tgi", "--gamma", "150", "--lambda", "1e15"]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["tgi_db"]) == pytest.approx(14.45, abs=0.1)
        assert float(values["tgi_approx_db"]) == pytest.approx(14.50, abs=0.01)

    def test_lens_command(self, capsys):
        assert main(["lens", "--omega0", "2e8", "--wavelength", "532e-9", "--vcm", "100",
                     "--tint", "1us", "--curvature-radius", "0.5"]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["de_broglie_m"]) == pytest.approx(5.52e-12, rel=1e-3)
        assert float(values["gamma"]) > 0

    @pytest.mark.parametrize("flags", [
        ["--detuning", "nan"], ["--x", "nan"], ["--z", "nan"], ["--curvature-radius", "nan"],
        ["--omega0", "inf"], ["--omega0", "nan"], ["--vcm", "inf"], ["--wavelength", "inf"],
    ])
    def test_lens_rejects_non_finite_input(self, flags, capsys):
        base = {"--omega0": "2e8", "--wavelength": "532e-9", "--vcm": "100", "--tint": "1us"}
        base.update([flags])
        assert main(["lens", *(item for pair in base.items() for item in pair)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flags,code", [
        (["--curvature-radius", "nan"], 2),
        (["--vcm", "1e-30", "--mass", "1e-300"], 3),  # m*v_cm underflows in de_broglie
    ])
    def test_lens_failure_prints_nothing(self, flags, code, capsys):
        base = {"--omega0": "2e8", "--wavelength": "532e-9", "--vcm": "100", "--tint": "1us"}
        base.update(zip(flags[::2], flags[1::2]))
        assert main(["lens", *itertools.chain(*base.items())]) == code
        assert capsys.readouterr().out == ""

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", [["purity"], ["qfi", "--target", "gamma"],
                                         ["qfi", "--target", "lambda"], ["cfi", "--target", "gamma"]])
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_time_is_validation_error(self, command, t, capsys):
        assert main([*command, "--lambda", "1e15", "--t", t]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: t must be ")

    def test_missing_time_is_validation_error(self, capsys):
        assert main(["purity", "--gamma", "0", "--lambda", "1e15"]) == 2

    @pytest.mark.parametrize("flags", [
        # the lambda^2 QFI that tgi does not print once failed at tau_max: phi_lambda's
        # t^8 overflowed there
        ["--lambda", "1e-200", "--gamma", "3"],
        # and there Gamma^2 = (2 eps + gamma^2 + 1)^2; both exited 3 through the gain table
        ["--gamma", "1e100", "--lambda", "1e15"],
    ], ids=["lambda-1e-200", "big-gamma-square"])
    def test_tgi_prints_the_thermometry_values(self, flags, capsys):
        assert main(["tgi", *flags]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        point = dict(zip(flags[::2], map(float, flags[1::2])))
        probe = pc.fullerene_probe(gamma=point["--gamma"])
        e = pc.EnvironmentSpec(lam=point["--lambda"])
        assert float(values["tau_max_us"]) == pc.tau_max_exact(probe, e) * 1e6
        assert float(values["tgi_db"]) == pc.tgi(probe, e)

    def test_tgi_names_the_reference_failure_as_the_library_does(self, capsys):
        # at 1e33 neither gamma = 0 nor gamma = 35 has a knee; both name gamma = 0 (the
        # library named gamma = 35)
        assert main(["tgi", "--gamma", "35", "--lambda", "1e33"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        with pytest.raises(pc.ConvergenceError) as error:
            pc.tgi(pc.fullerene_probe(gamma=35.0), pc.EnvironmentSpec(lam=1e33))
        assert str(error.value) == "no interior maximum of the purity rate at gamma=0, lam=1e+33"
        assert out.err == f"numerical failure: {error.value}\n"

    def test_tgi_uncorrelated_prints_positive_zero(self, capsys):
        assert main(["tgi", "--gamma", "0", "--lambda", "1e15"]) == 0
        assert "tgi_db = 0\n" in capsys.readouterr().out

    def test_tgi_cryogenic_coupling(self, capsys):
        assert main(["tgi", "--gamma", "0", "--lambda", "1e10"]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert float(values["tau_max_us"]) == pytest.approx(1.057e4, rel=1e-3)

    def test_numerical_failure_exit_code(self, capsys):
        # no resolvable interior maximum of the purity rate at this coupling
        assert main(["tgi", "--gamma", "0", "--lambda", "1e33"]) == 3
        assert "no interior maximum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,stderr_prefix",
        [
            (["purity", "--lambda", "1e200", "--t", "1us"],
             "numerical failure: lambda=1e+200 overflows the float range: lambda^2 needs lambda "
             "below ~1.3e+154 m^-2 s^-1"),
            (["tgi", "--lambda", "1e200"], "numerical failure: "),
            (["convert", "--to-lambda", "1e300"], "numerical failure: "),
            (["lens", "--omega0", "1e300", "--wavelength", "532e-9", "--vcm", "1e-300",
              "--tint", "1us"],
             "numerical failure: (v_cm*t_int)^2 underflows to 0 (v_cm=1e-300 m/s, t_int=1e-06 s)\n"),
            (["sweep", "--axis", "lambda", "--log", "--min", "1e10", "--max", "1e200",
              "--points", "3", "--t", "1us"], "sweep row 2 (lambda_per_m2s=1e+200) failed: "),
            # the Richardson column is one array call, where overflow gives inf, not an error
            (["sweep", "--target", "lambda", "--axis", "lambda", "--log", "--min", "1e10",
              "--max", "1e200", "--points", "3", "--t", "1us"],
             "sweep row 2 (lambda_per_m2s=1e+200) failed: "),
            (["sweep", "--target", "gamma", "--axis", "gamma", "--min", "-5", "--max", "5",
              "--points", "3", "--t", "1us", "--lambda", "1e200"], "sweep row 0 (gamma=-5.0) failed: "),
            # a negative Richardson QFI fails its own row, not the row before it
            (["sweep", "--target", "gamma", "--axis", "gamma", "--min", "0", "--max", "1e16",
              "--points", "2", "--t", "1us", "--lambda", "1e15"],
             "sweep row 1 (gamma=1e+16) failed: Gaussian QFI assembles to -2.474e-02 < 0"),
            # cfi_closed squares b_sq ~ lam t / (3 sigma0^2), which overflows below the lam^2 limit
            (["cfi", "--target", "gamma", "--lambda", "1e150", "--t", "20us"],
             "numerical failure: b_sq=1.09577e+161 m^-4 overflows the float range when squared "
             "(lambda=1e+150 m^-2 s^-1, t=2e-05 s)\n"),
            (["sweep", "--target", "lambda", "--axis", "lambda", "--log", "--min", "1e-4",
              "--max", "1e200", "--points", "5", "--t", "20us", "--gamma", "3", "--ell0", "5e-8"],
             "sweep row 3 (lambda_per_m2s=1e+149) failed: b_sq=1.09577e+160 m^-4 "
             "overflows the float range when squared (lambda=1e+149 m^-2 s^-1, t=2e-05 s)\n"),
            # ... and b_sq itself overflows once lambda t passes ~5e292
            (["cfi", "--target", "lambda", "--lambda", "1e300", "--t", "1"],
             "numerical failure: b_sq overflows the float range (lambda=1e+300 m^-2 s^-1, t=1 s)\n"),
        ],
    )
    def test_arithmetic_error_is_numerical_failure(self, args, stderr_prefix, capsys):
        assert main(args) == 3
        assert capsys.readouterr().err.startswith(stderr_prefix)

    @pytest.mark.parametrize(
        "args,stderr",
        [
            (["cfi", "--target", "gamma", "--lambda", "1e15", "--t", "1us", "--mass", "1e-170"],
             "readout variance overflows the float range at t/tau0=1.73335e+146: its sxx sum is "
             "not finite (mass=1e-170 kg, t=1e-06 s)"),
            (["lens", "--omega0", "2e8", "--wavelength", "532e-9", "--vcm", "1e200", "--tint", "1"],
             "(v_cm*t_int)^2 overflows the float range: v_cm*t_int needs to stay below ~1.3e+154 m "
             "(v_cm=1e+200 m/s, t_int=1 s)"),
            (["convert", "--to-lambda", "1e300"],
             "temperature=1e+300 K overflows the float range: (k_B*T)^1.5 needs T below "
             "~2.3e+228 K"),
            # lambda^2 = 1e304 splits past the float range inside the oracle's lambda^2
            # monomial, which moves with lambda: it is NaN at the centre
            (["qfi", "--target", "lambda", "--lambda", "1e152", "--t", "1us"],
             "a monomial moving with lambda overflows the float range at t/tau0=1.44446: the "
             "oracle cannot difference a covariance or purity-bracket monomial that is not finite "
             "(gamma=0, lambda=1e+152 m^-2 s^-1, t=1e-06 s)"),
            (["purity", "--mass", "1e200", "--lambda", "1e15", "--t", "1us"],
             "mass=1e+200 overflows the float range: mass^2 needs mass below ~1.3e+154 kg"),
            (["tgi", "--mass", "1e200", "--lambda", "1e15"],
             "tau0=5.76917e+217 overflows the float range: tau0^2 needs tau0 below ~1.3e+154 s"),
            (["convert", "--to-lambda", "1", "--molecule-size", "1e200"],
             "molecule_size=1e+200 overflows the float range: molecule_size^2 needs "
             "molecule_size below ~1.3e+154 m"),
            (["cfi", "--target", "gamma", "--mass", "1e200", "--lambda", "1e15", "--t", "1us"],
             "quadrature step h=4.32687e+219 overflows the float range: (gamma+-h)^2 needs "
             "|gamma|+h below ~1.3e+154 (dV/dgamma is 3.5e-224 V at t/tau0=1.73335e-224)"),
            (["tgi", "--lambda", "1e154"],
             "the stationarity polynomial B''B - B'^2 overflows the float range at lam=1e+154"),
            (["purity", "--sigma0", "1e200", "--lambda", "1e15", "--t", "1us"],
             "(sigma0/ell0)=2e+207 overflows the float range: (sigma0/ell0)^2 needs "
             "(sigma0/ell0) below ~1.3e+154"),
            (["purity", "--mass", "1e-200", "--lambda", "1e15", "--t", "1us"],
             "mass=1e-200 underflows the float range: mass^2, a divisor, needs mass above "
             "~1.5e-154 kg"),
            # the Richardson QFI assembled to -0.0247 here and printed with exit 0
            (["qfi", "--target", "gamma", "--gamma", "1e16", "--lambda", "1e15", "--t", "1us"],
             "Gaussian QFI assembles to -2.474e-02 < 0: its adjugate trace -1.417e+49 is "
             "rounding noise beside terms of 8.346e+64"),
            (["convert", "--to-temp", "1", "--molecule-size", "1e-200"],
             "molecule_size=1e-200 underflows the float range: molecule_size^2, a divisor, needs "
             "molecule_size above ~1.6e-162 m"),
            # at mass 1e100 dV/dlambda is so small that the step lambda +- h leaves the range
            (["cfi", "--target", "lambda", "--mass", "1e100", "--lambda", "1e-4", "--t", "1",
              "--gamma", "-5920", "--ell0", "inf"],
             "quadrature step h=6.15445e+247 takes the readout variance out of the float range: "
             "V(theta+-h) is nan, nan at V=3.042e-17 (t/tau0=1.73335e-118)"),
            # mass^2 = 1e-320 is subnormal: the bracket's quotients by it lose bits
            (["purity", "--mass", "1e-160", "--lambda", "1e15", "--t", "1us"],
             "mass=1e-160 underflows the float range: mass^2, a divisor, needs mass above "
             "~1.5e-154 kg"),
            # the double-double sxx overflows, and its NaN used to print as the purity
            (["purity", "--mass", "1e-150", "--lambda", "1e15", "--t", "1us"],
             "covariance overflows the float range at t/tau0=1.73335e+126: (sxx, sxp, spp, det) "
             "= (nan, 1.81772e+126, 1.04867, nan) are not all finite (mass=1e-150 kg, t=1e-06 s)"),
            (["purity", "--mass", "1e-100", "--sigma0", "1e-100", "--lambda", "1e15", "--t", "1us"],
             "3*tau0*mass=0 underflows the float range: 3 tau0 mass = 3 mass^2 sigma0^2/hbar, a "
             "divisor, needs to stay above ~2.2e-308 kg s (mass=1e-100 kg, sigma0=1e-100 m)"),
            # 3 tau0 mass = 4.9e-324 is subnormal: a quotient by it puts the purity 1.4% off
            (["purity", "--mass", "1e-100", "--sigma0", "1.3e-79", "--lambda", "1e15", "--t", "1us"],
             "3*tau0*mass=4.94066e-324 underflows the float range: 3 tau0 mass = 3 mass^2 "
             "sigma0^2/hbar, a divisor, needs to stay above ~2.2e-308 kg s (mass=1e-100 kg, "
             "sigma0=1.3e-79 m)"),
            # mass sigma0^2 rounds to 0, so tau0 does, and the quadrature divides t by it
            (["cfi", "--target", "gamma", "--mass", "1e-150", "--sigma0", "1e-100", "--lambda",
              "1e15", "--t", "1us"],
             "tau0=0 underflows the float range: tau0 = mass sigma0^2/hbar, a divisor, rounds to 0 "
             "(mass=1e-150 kg, sigma0=1e-100 m)"),
            # the analytic QFI is a value here (phi's tau0^4 once failed it), but the
            # oracle's (t/tau0)^3 leaves the float range, in a monomial free of gamma
            (["qfi", "--target", "gamma", "--mass", "1e-30", "--sigma0", "1e-60", "--lambda", "1e15",
              "--t", "1us"],
             "a monomial free of gamma overflows the float range at t/tau0=1.05457e+110: the "
             "oracle cannot difference a covariance or purity-bracket monomial that is not finite "
             "(gamma=0, lambda=1e+15 m^-2 s^-1, t=1e-06 s)"),
            # valid mixed states whose 1 - purity^4 rounds to 0: not a validation error
            (["qfi", "--target", "lambda", "--lambda", "1e-3", "--t", "1us", "--ell0", "inf"],
             "1 - purity^4 rounds to 0 in a mixed state (purity=1.0): the term "
             "2 (dpurity)^2/(1 - purity^4) is lost to rounding (dpurity=-2.06307e-22)"),
            (["qfi", "--target", "gamma", "--gamma", "2", "--lambda", "1e-3", "--t", "1us",
              "--ell0", "inf"],
             "1 - purity^4 rounds to 0 in a mixed state (purity=1.0): the term "
             "2 (dpurity)^2/(1 - purity^4) is lost to rounding (dpurity=-5.1427e-25)"),
            # every purity and Fisher route squares gamma, so the probe names its overflow
            (["qfi", "--target", "gamma", "--gamma", "1e200", "--lambda", "1e15", "--t", "1us"],
             "gamma=1e+200 overflows the float range: gamma^2 needs gamma below ~1.3e+154"),
            (["tgi", "--gamma", "1e200", "--lambda", "1e15"],
             "gamma=1e+200 overflows the float range: gamma^2 needs gamma below ~1.3e+154"),
            (["purity", "--gamma=-1e200", "--lambda", "1e15", "--t", "1us"],
             "gamma=-1e+200 overflows the float range: gamma^2 needs gamma below ~1.3e+154"),
            # gamma^2 is finite, but the square of dB/dlambda in the adjugate trace is not
            (["qfi", "--target", "lambda", "--gamma", "1e100", "--lambda", "1e15", "--t", "1us"],
             "|d(1/purity^2)/dlambda|=1.69254e+178 overflows the float range: "
             "|d(1/purity^2)/dlambda|^2/16, in the adjugate trace, needs |d(1/purity^2)/dlambda| "
             "below ~5.4e+154"),
            # the oracle's double-double products overflow into a NaN trace, once printed
            (["qfi", "--target", "gamma", "--gamma", "1e60", "--lambda", "1e15", "--t", "1us"],
             "adjugate trace is nan beside terms of 2.678e+307: its double-double products leave "
             "the float range"),
            (["qfi", "--target", "gamma", "--gamma", "1e100", "--lambda", "1e15", "--t", "1us"],
             "adjugate trace is nan beside terms of inf: its double-double products leave the "
             "float range"),
            # the trace's float products overflowed without raising, and both routes printed nan
            (["qfi", "--target", "gamma", "--gamma", "1e60", "--lambda", "1e15", "--t", "1e30"],
             "|d(1/purity^2)/dgamma|=3.38508e+161 overflows the float range: "
             "|d(1/purity^2)/dgamma|^2/16, in the adjugate trace, needs |d(1/purity^2)/dgamma| "
             "below ~5.4e+154"),
            # dpurity/dlambda = -7.9e216: its square in the second QFI term once failed bare
            (["qfi", "--target", "lambda", "--lambda", "0", "--gamma", "1e58", "--t", "1e35"],
             "|dpurity|=7.88043e+216 overflows the float range: |dpurity|^2, in "
             "2 (dpurity)^2/(1 - purity^4), needs |dpurity| below ~1.3e+154"),
            # t^k in the purity bracket raised the bare (34, 'Numerical result out of range')
            (["purity", "--lambda", "1e15", "--t", "1e78"],
             "t=1e+78 overflows the float range: t^4, in the purity bracket 1/purity^2, needs t "
             "below ~1.2e+77 s"),
            (["purity", "--lambda", "1e15", "--t", "1e103"],
             "t=1e+103 overflows the float range: t^3, in the purity bracket 1/purity^2, needs t "
             "below ~5.6e+102 s"),
            (["qfi", "--target", "gamma", "--lambda", "1e15", "--t", "1e78"],
             "t=1e+78 overflows the float range: t^4, in the purity bracket 1/purity^2, needs t "
             "below ~1.2e+77 s"),
            (["qfi", "--target", "lambda", "--lambda", "1e15", "--t", "1e78"],
             "t=1e+78 overflows the float range: t^4, in the purity bracket 1/purity^2, needs t "
             "below ~1.2e+77 s"),
            # the bracket's terms overflow to inf silently; covariance() used to name it
            (["purity", "--lambda", "1e150", "--t", "1e9"],
             "purity bracket 1/purity^2=inf overflows the float range at t=1e+09 s"),
        ],
        ids=["cfi-mass-1e-170", "lens-vcm-1e200", "convert-1e300", "qfi-lambda-1e152",
             "purity-mass-1e200", "tgi-mass-1e200", "convert-molecule-size-1e200",
             "cfi-gamma-mass-1e200", "tgi-lambda-1e154", "purity-sigma0-1e200",
             "purity-mass-1e-200", "qfi-gamma-negative-1e16", "convert-molecule-size-1e-200",
             "cfi-lambda-mass-1e100",
             "purity-mass-1e-160", "purity-mass-1e-150", "purity-tau0-mass-1e-366",
             "purity-tau0-mass-subnormal", "cfi-tau0-1e-350",
             "qfi-oracle-tau0-1e-117", "qfi-lambda-mixed-purity-1",
             "qfi-gamma-mixed-purity-1", "qfi-gamma-1e200", "tgi-gamma-1e200", "purity-gamma-minus-1e200",
             "qfi-lambda-dbracket-square", "qfi-gamma-nan-trace-1e60",
             "qfi-gamma-nan-trace-1e100", "qfi-gamma-dbracket-square", "qfi-lambda-dpurity-square",
             "purity-t-fourth", "purity-t-cube", "qfi-gamma-t-fourth", "qfi-lambda-t-fourth",
             "purity-bracket-inf"],
    )
    def test_float_range_failure_is_named_and_prints_nothing(self, args, stderr, capsys):
        assert main(args) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"numerical failure: {stderr}\n"

    @pytest.mark.parametrize("flags", [
        ["--target", "gamma", "--lambda", "1e15", "--t", "1e-200"],
        ["--target", "gamma", "--lambda", "1e15", "--t", "1e60"],
        ["--target", "lambda", "--lambda", "1e15", "--t", "1e-100"],
        ["--target", "lambda", "--lambda", "1e15", "--t", "1e-200"],
        ["--target", "lambda", "--lambda", "1e15", "--t", "1e39"],
        ["--target", "lambda", "--mass", "1e-100", "--sigma0", "1e40", "--ell0", "inf",
         "--lambda", "1e15", "--t", "1us"],
        ["--target", "lambda", "--mass", "1e-50", "--sigma0", "1e-38", "--ell0", "5e-8",
         "--lambda", "1e15", "--t", "1us"],
        ["--target", "gamma", "--mass", "1e30", "--sigma0", "1e30", "--lambda", "1e15",
         "--t", "1us"],
        ["--target", "lambda", "--mass", "1e30", "--sigma0", "1e30", "--lambda", "1e15",
         "--t", "1us"],
    ], ids=["gamma-t-1e-200", "gamma-t-1e60", "lambda-t-1e-100", "lambda-t-1e-200",
            "lambda-t-1e39", "lambda-sigma0-1e40", "lambda-tau0-1e-93", "gamma-tau0-1e123",
            "lambda-tau0-1e123"])
    def test_points_phi_failed_print_both_routes(self, flags, capsys):
        # phi's (tau0/t)^k, t^6, t^8, sigma0^8 or tau0^4 left the float range at these
        # points and the launch exited 3, though every printed quantity is finite
        assert main(["qfi", *flags]) == 0
        values = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        analytic, numeric = float(values["qfi_analytic"]), float(values["qfi_numeric"])
        assert abs(analytic - numeric) <= 1e-6 * abs(analytic)

    def test_cancelled_adjugate_trace_fails_and_prints_nothing(self, capsys):
        # the gamma-target trace cancels by ~5e24 here; the value it left was
        # qfi_numeric = -2.37 beside qfi_analytic = 0.5
        assert main(["qfi", "--target", "gamma", "--lambda", "0", "--gamma", "-5920",
                     "--t", "70.4ms", "--ell0", "inf"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("numerical failure: adjugate trace cancels by 5.")
        assert "beyond 1e+16" in out.err

    def test_oracle_column_names_lowest_failing_row(self, capsys):
        # the Richardson oracle does not converge at row 1 (lambda = 10**-3.5); the
        # rows from ~1e149 on fail too, and the report is row 1's own failure
        lam = _spaced(math.log10(1e-4), math.log10(1e200), 409, log=True)[1]
        probe = pc.fullerene_probe(gamma=3.0, ell0=5e-8)
        with pytest.raises(pc.ConvergenceError) as point:
            pc.qfi_numeric("lambda", probe, pc.EnvironmentSpec(lam=lam), 2e-5)
        assert main(["sweep", "--target", "lambda", "--axis", "lambda", "--log", "--min", "1e-4",
                     "--max", "1e200", "--points", "409", "--t", "20us", "--gamma", "3",
                     "--ell0", "5e-8"]) == 3
        assert capsys.readouterr().err == f"sweep row 1 (lambda_per_m2s={lam!r}) failed: {point.value}\n"

    @pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5", "figD", "figE"])
    @pytest.mark.parametrize("flags", [["--lambda", "-5"], ["--lambda", "inf"], ["--t", "0"], ["--t", "-3"], ["--t", "inf"]])
    def test_figures_reject_invalid_coupling_and_time(self, preset, flags, tmp_path, capsys):
        assert main(["figures", "--preset", preset, "--outdir", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["pmcorr", "pmcorr.cli"])
    def test_python_dash_m(self, module):
        src = Path(pc.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", module, "convert", "--to-lambda", "0.442", "--quiet"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.strip()) == pytest.approx(1.0e15, rel=0.02)
