"""Command-line interface: parsing, CSV contracts, exit codes, presets."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmcorr as pc
from pmcorr.cli import fmt, load_config, main, parse_time


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
            first = mu**4 / (2 * (1 + mu**2)) * 16.0 * pc.phi_gamma(probe, env, 1e-6).value
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
        ],
    )
    def test_validation_exit_code(self, args, capsys):
        assert main(args) == 2


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

    def test_provenance_line(self, capsys):
        assert main(["convert", "--to-lambda", "0.442"]) == 0
        err = capsys.readouterr().err
        assert "m_air=" in err and "number_density=" in err and "molecule_size=" in err

    def test_negative_rejected(self, capsys):
        assert main(["convert", "--to-lambda", "-1"]) == 2
        assert main(["convert", "--to-temp", "-1"]) == 2


class TestFigures:
    def test_fig5_overlay(self, tmp_path):
        assert main(["figures", "--preset", "fig5", "--outdir", str(tmp_path), "--quiet"]) == 0
        curve = read_csv(tmp_path / "fig5_curve.csv")
        points = read_csv(tmp_path / "fig5_points.csv")
        assert len(curve) == 301
        for g, tgi_exact in zip(points["gamma"], points["tgi_db"]):
            assert abs(tgi_exact - pc.tgi_approx(float(g))) <= 0.2

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

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_missing_time_is_validation_error(self, capsys):
        assert main(["purity", "--gamma", "0", "--lambda", "1e15"]) == 2

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
              "--tint", "1us"], "numerical failure: "),  # division by an underflowed zero
            (["sweep", "--axis", "lambda", "--log", "--min", "1e10", "--max", "1e200",
              "--points", "3", "--t", "1us"], "sweep row 2 (lambda_per_m2s=1e+200) failed: "),
            # the Richardson column is one array call, where overflow gives inf, not an error
            (["sweep", "--target", "lambda", "--axis", "lambda", "--log", "--min", "1e10",
              "--max", "1e200", "--points", "3", "--t", "1us"],
             "sweep row 2 (lambda_per_m2s=1e+200) failed: "),
            (["sweep", "--target", "gamma", "--axis", "gamma", "--min", "-5", "--max", "5",
              "--points", "3", "--t", "1us", "--lambda", "1e200"], "sweep row 0 (gamma=-5.0) failed: "),
        ],
    )
    def test_arithmetic_error_is_numerical_failure(self, args, stderr_prefix, capsys):
        assert main(args) == 3
        assert capsys.readouterr().err.startswith(stderr_prefix)

    def test_oracle_column_names_lowest_failing_row(self, capsys):
        # the Richardson oracle does not converge at row 1 (lambda = 10**-3.5); the
        # rows from ~1e149 on fail too, and the report is row 1's own failure
        lam = float(np.logspace(-4, 200, 409)[1])
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
