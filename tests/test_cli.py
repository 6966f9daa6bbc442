"""CLI contract: subcommands, exit codes, determinism, config handling."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dexpou
from dexpou.cli import main
from dexpou.errors import NoRoot
from dexpou.estimate import scan_g, solve_p

from test_estimate import exact_f, no_root_f


def run(argv):
    return main([str(a) for a in argv])


def test_import_leaves_slow_scipy_modules_unloaded():
    # every dexpou process pays for what importing the CLI loads
    code = ("import sys, dexpou.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
            "if m in sys.modules))")
    src = str(Path(dexpou.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_import_and_default_estimate_load_no_scipy(tmp_path):
    # estimate needs numpy alone
    src, res = (str(tmp_path / name) for name in ("p.csv", "e.json"))
    assert run(["simulate", "--n", 2000, "--seed", 3, "--out", src]) == 0
    code = (
        "import sys\n"
        "from dexpou.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(scipy_modules())\n"
        f"print(main(['estimate', {src!r}, '--out', {res!r}]))\n"
        "print(scipy_modules())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dexpou.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "0", "[]"]
    assert "intervals" in json.loads(Path(res).read_text())


def test_simulate_and_experiment_load_no_scipy(tmp_path):
    # the AR(1) recursion of simulate_path is numpy-only
    path, table = (str(tmp_path / name) for name in ("p.csv", "e.csv"))
    code = (
        "import sys\n"
        "from dexpou.cli import main\n"
        f"print(main(['simulate', '--n', '2000', '--seed', '3', "
        f"'--out', {path!r}]))\n"
        f"print(main(['experiment', '--seeds', '2', '--n-values', '300', "
        f"'--out', {table!r}]))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dexpou.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines() == [path, "0", table, "0", "[]"]


class TestSimulateCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["simulate", "--n", 100, "--seed", 3, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x" and len(lines) == 101
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["seed"] == 3
        assert meta["provenance"]["tool"] == "dexpou"
        assert meta["provenance"]["options"]["n"] == 100

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--n", 200, "--seed", 11, "--out", out]) == 0
        first = out.read_bytes()
        first_meta = (tmp_path / "a.meta.json").read_bytes()
        assert run(["simulate", "--n", 200, "--seed", 11, "--out", out]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "a.meta.json").read_bytes() == first_meta

    def test_n_zero_exits_2(self, tmp_path, capsys):
        code = run(["simulate", "--n", 0, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "n" in capsys.readouterr().err

    def test_bad_param_exits_2(self, tmp_path, capsys):
        code = run(["simulate", "--theta", -1, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert "theta" in capsys.readouterr().err

    def test_sigma_flag_exits_2(self, tmp_path, capsys):
        # the jump scale is absorbed in eta and phi; there is no sigma
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--sigma", 2, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert "--sigma" in capsys.readouterr().err


class TestEstimateCommand:
    def test_roundtrip_from_simulate(self, tmp_path):
        src = tmp_path / "p.csv"
        res = tmp_path / "r.json"
        assert run(["simulate", "--out", src]) == 0  # defaults: n=3000, seed=1
        assert run(["estimate", src, "--out", res]) == 0
        payload = json.loads(res.read_text())
        assert 1.7 < payload["estimates"]["theta"] < 2.3
        assert set(payload["diagnostics"]) == {
            "correlation_length", "moments", "f", "jacobian_condition"}
        assert len(payload["covariance"]["Sigma"]) == 4
        lo, hi = payload["intervals"]["theta"]
        assert lo < payload["estimates"]["theta"] < hi
        assert payload["provenance"]["version"]

    def test_byte_identical_reruns(self, tmp_path):
        src = tmp_path / "p.csv"
        run(["simulate", "--n", 500, "--seed", 7, "--out", src])
        res = tmp_path / "r.json"
        assert run(["estimate", src, "--out", res]) == 0
        first = res.read_bytes()
        assert run(["estimate", src, "--out", res]) == 0
        assert res.read_bytes() == first

    def test_nonuniform_spacing_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("t,x\n0.02,1.0\n0.04,2.0\n0.09,3.0\n")
        assert run(["estimate", src]) == 2
        assert "row 3" in capsys.readouterr().err

    def test_two_row_csv_reports_stage_error(self, tmp_path):
        # a single pair has zero variance over the common index set, with
        # identical or distinct values alike
        for name, b in (("same", "1.0"), ("diff", "2.0")):
            src = tmp_path / f"{name}.csv"
            src.write_text(f"t,x\n0.02,1.0\n0.04,{b}\n")
            res = tmp_path / f"{name}.json"
            assert run(["estimate", src, "--out", res]) == 3
            payload = json.loads(res.read_text())
            assert payload["error"]["name"] == "NonPositiveVariance"
            assert payload["error"]["stage"] == "theta"

    @pytest.mark.parametrize("scale, h, name, stage", [
        (1e155, 0.02, "MomentOverflow", "theta"),
        (1.0, 1e-160, "DiscriminantOverflow", "f"),
        (1e102, 0.02, "MomentOverflow", "theta"),
    ], ids=["large-values", "tiny-h", "mu3-overflow"])
    def test_overflow_exits_3_with_error_json(self, tmp_path, scale, h,
                                              name, stage):
        path = dexpou.simulate_path(dexpou.ModelParams(2.0, 1.2, 1.6, 0.6),
                                    0.0, 0.02, 2000, seed=1)
        src = tmp_path / "p.csv"
        dexpou.write_path_csv(
            dexpou.SamplePath(h=h, values=path.values * scale), src)
        res = tmp_path / "r.json"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["estimate", src, "--out", res]) == 3
        error = json.loads(res.read_text())["error"]
        assert (error["name"], error["stage"]) == (name, stage)

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["estimate", tmp_path / "nope.csv"]) == 2

    def test_short_path_gets_model_intervals(self, tmp_path):
        # the model's A reads no path, so the same 30 points get intervals
        src = tmp_path / "p.csv"
        run(["simulate", "--n", 30, "--seed", 14, "--out", src])
        res = tmp_path / "r.json"
        assert run(["estimate", src, "--out", res]) == 0
        payload = json.loads(res.read_text())
        assert payload["covariance"]["n"] == 29
        for name in ("p", "rho", "xi", "theta"):
            lo, hi = payload["intervals"][name]
            assert lo < payload["estimates"][name] < hi

    def test_diagnostics_and_method_fields(self, tmp_path):
        src = tmp_path / "p.csv"
        run(["simulate", "--n", 3000, "--seed", 2, "--out", src])
        res = tmp_path / "r.json"
        assert run(["estimate", src, "--out", res]) == 0
        payload = json.loads(res.read_text())
        theta = payload["estimates"]["theta"]
        assert payload["diagnostics"]["correlation_length"] == \
            1.0 / (theta * 0.02)
        cond = payload["diagnostics"]["jacobian_condition"]
        assert 1.0 <= cond < 1e12
        ratio = payload["covariance"]["sigma_min_eigenvalue_ratio"]
        assert 0.0 <= ratio <= 0.25   # min eigenvalue over the trace
        assert set(payload["covariance"]) == {
            "A", "Sigma", "n", "sigma_min_eigenvalue_ratio"}
        assert payload["warnings"] == []

    def test_bandwidth_flag_exits_2(self, capsys):
        # A is the model's; there is no HAC bandwidth to choose
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "p.csv", "--bandwidth", 13])
        assert exc.value.code == 2
        assert "--bandwidth" in capsys.readouterr().err

    def test_bandwidth_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bandwidth": 13}))
        assert run(["estimate", "p.csv", "--config", cfg]) == 2
        assert "unknown option(s) ['bandwidth']" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-60, 1e52], ids=["tiny", "huge"])
    def test_tiny_and_huge_values_fit(self, tmp_path, scale):
        # the covariance stage runs in standardised units: rho**6 neither
        # overflows (x 1e52) nor makes the Jacobian look singular (x 1e-60)
        path = dexpou.simulate_path(dexpou.ModelParams(2.0, 1.2, 1.6, 0.6),
                                    0.0, 0.02, 2000, seed=1)
        res = {}
        for name, factor in (("unit", 1.0), ("scaled", scale)):
            src = tmp_path / f"{name}.csv"
            dexpou.write_path_csv(
                dexpou.SamplePath(h=0.02, values=path.values * factor), src)
            assert run(["estimate", src, "--out", tmp_path / "r.json"]) == 0
            res[name] = json.loads((tmp_path / "r.json").read_text())
        unit, scaled = res["unit"], res["scaled"]
        assert 1.7 < scaled["estimates"]["theta"] < 2.3
        assert scaled["estimates"]["p"] == pytest.approx(
            unit["estimates"]["p"], rel=1e-13)
        # the units move the condition number only through the scale's
        # mantissa, not its exponent
        ratio = (scaled["diagnostics"]["jacobian_condition"]
                 / unit["diagnostics"]["jacobian_condition"])
        assert 0.1 < ratio < 10
        lo, hi = scaled["intervals"]["rho"]
        assert lo < scaled["estimates"]["rho"] < hi
        assert scaled["warnings"] == []

    def test_grid_flag_exits_2(self, capsys):
        # the root is a closed form; there is no grid to choose
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "p.csv", "--grid", 101])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err


class TestExperimentCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["experiment", "--n-values", "300,600", "--seeds", 3,
                    "--seed", 9, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ns = [r["N"] for r in rows]
        assert ns.count("300") == 5 and ns.count("600") == 5  # 3 cells + 2 summaries
        med = [r for r in rows if r["seed"] == "median"]
        assert len(med) == 2
        iqr = [r for r in rows if r["seed"] == "iqr"]
        assert len(iqr) == 2
        assert all(float(r["theta_hat"]) > 0 for r in med)
        assert all(r["error"] == "" for r in med + iqr)  # no fit failed
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        assert meta["provenance"]["options"]["seeds"] == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["experiment", "--n-values", "100,200", "--seeds", 2,
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cells_share_stream_prefix(self, tmp_path):
        # for one seed index the shorter N rows observe a prefix of the same
        # trajectory, so estimates at the largest N match a direct run
        out = tmp_path / "t.csv"
        assert run(["experiment", "--n-values", "3000", "--seeds", 1,
                    "--seed", 1, "--out", out]) == 0
        with open(out, newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["seed"] == "0")
        src = tmp_path / "p.csv"
        res = tmp_path / "r.json"
        run(["simulate", "--n", 3000, "--seed", 1, "--out", src])
        run(["estimate", src, "--out", res])
        est = json.loads(res.read_text())["estimates"]
        assert float(row["theta_hat"]) == pytest.approx(est["theta"], rel=1e-12)

    def test_error_shrinks_from_short_to_long(self, tmp_path):
        # per-parameter median absolute error over 20 seeds at N = 3000 is
        # no larger than at N = 100
        out = tmp_path / "t.csv"
        assert run(["experiment", "--n-values", "100,3000", "--seeds", 20,
                    "--seed", 1, "--out", out]) == 0
        truth = {"p_hat": 0.6, "eta_hat": 1.2, "phi_hat": 1.6, "theta_hat": 2.0}
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["seed"] not in ("median", "iqr") and not r["error"]]
        for col, target in truth.items():
            med = {
                n: np.median([abs(float(r[col]) - target)
                              for r in rows if r["N"] == n])
                for n in ("100", "3000")
            }
            assert med["3000"] <= med["100"]

    def test_failed_cells_recorded(self, tmp_path):
        # N = 2 paths cannot be calibrated; the error lands in the row
        out = tmp_path / "t.csv"
        assert run(["experiment", "--n-values", "2", "--seeds", 2,
                    "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [r for r in rows if r["seed"] in ("0", "1")]
        assert all(r["error"] for r in cells)

    def test_summary_rows_count_failed_fits(self, tmp_path):
        # the median and iqr rows are taken over the fits that succeeded,
        # and say how many did not
        out = tmp_path / "t.csv"
        assert run(["experiment", "--n-values", "50,200", "--seeds", 3,
                    "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        notes = {}
        for n in ("50", "200"):
            failed = sum(1 for r in rows
                         if r["N"] == n and r["seed"].isdigit() and r["error"])
            summary = [r["error"] for r in rows
                       if r["N"] == n and r["seed"] in ("median", "iqr")]
            if failed == 3:
                assert summary == ["all cells failed"]
            else:
                expect = f"{failed} of 3 failed" if failed else ""
                assert summary == [expect, expect]
            notes[n] = summary[0]
        assert notes == {"50": "all cells failed", "200": "2 of 3 failed"}

    def test_default_length_list_has_ten_values(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["experiment", "--seeds", 2, "--out", out]) == 0
        with open(out, newline="") as fh:
            ns = sorted({int(r["N"]) for r in csv.DictReader(fh)})
        assert ns == [50, 100, 200, 300, 400, 500, 600, 1000, 2000, 3000]

    def test_bad_n_values_exit_2(self, tmp_path, capsys):
        assert run(["experiment", "--n-values", "1,50",
                    "--out", tmp_path / "t.csv"]) == 2
        assert "n_values" in capsys.readouterr().err


class TestGcurveCommand:
    # exact reduced statistics at the reference parameters
    F1 = 0.25
    F2 = 2.0 * 55.0 / 192.0
    F3 = 0.6 / 1.2**3 - 0.4 / 1.6**3

    def test_exact_fs_have_unique_root(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run(["gcurve", "--f1", self.F1, "--f2", self.F2,
                    "--f3", self.F3, "--out", out]) == 0
        assert "sign_change_count=1" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"p", "g", "g_prime"}
        # the sign change sits near p = 0.6
        ps = np.array([float(r["p"]) for r in rows])
        gs = np.array([float(r["g"]) for r in rows])
        flips = np.flatnonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)
        assert len(flips) == 1
        assert ps[flips[0]] == pytest.approx(0.6, abs=1e-3)

    def test_symmetric_curve(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert run(["gcurve", "--f1", 0, "--f2", 1, "--f3", 0,
                    "--grid", 101, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        mid = rows[50]
        assert float(mid["p"]) == pytest.approx(0.5)
        assert float(mid["g"]) == pytest.approx(0.0, abs=1e-15)

    def test_coarse_grid_same_count(self, tmp_path, capsys):
        for grid in (11, 2001):
            out = tmp_path / f"g{grid}.csv"
            assert run(["gcurve", "--f1", self.F1, "--f2", self.F2,
                        "--f3", self.F3, "--grid", grid, "--out", out]) == 0
            assert "sign_change_count=1" in capsys.readouterr().out

    def test_from_csv_input(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        run(["simulate", "--n", 2000, "--seed", 5, "--out", src])
        out = tmp_path / "g.csv"
        assert run(["gcurve", "--input", src, "--out", out]) == 0
        assert "sign_change_count=" in capsys.readouterr().out

    def test_count_matches_solve_p(self, tmp_path, capsys, ref_params):
        # gcurve reports the g-curve's sign changes: 0 where solve_p
        # raises NoRoot, 1 where it finds the root
        def count(f):
            assert run(["gcurve", "--f1", f.f1, "--f2", f.f2, "--f3", f.f3,
                        "--out", tmp_path / "g.csv"]) == 0
            return capsys.readouterr().out.strip()

        assert count(no_root_f(ref_params)) == "sign_change_count=0"
        with pytest.raises(NoRoot):
            solve_p(no_root_f(ref_params))
        f = exact_f(ref_params)
        assert count(f) == "sign_change_count=1"
        solve_p(f)
        assert len(scan_g(f).brackets) == 1

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        assert run(["gcurve", "--f1", self.F1, "--f2", self.F2, "--f3", self.F3,
                    "--grid", 2, "--out", tmp_path / "g.csv"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_discriminant_exits_3(self, tmp_path, capsys):
        assert run(["gcurve", "--f1", 2.0, "--f2", 1.0, "--f3", 0.0,
                    "--out", tmp_path / "g.csv"]) == 3
        assert "DiscriminantNonpositive" in capsys.readouterr().err

    @pytest.mark.parametrize("fs", [("nan", 1, 0), (0, "inf", 0)],
                             ids=["nan-f1", "inf-f2"])
    def test_nonfinite_statistic_exits_3(self, tmp_path, capsys, fs):
        out = tmp_path / "g.csv"
        argv = ["gcurve", "--out", out]
        for name, value in zip(("--f1", "--f2", "--f3"), fs):
            argv += [name, value]
        assert run(argv) == 3
        assert "DiscriminantOverflow (stage f)" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_input_or_fs(self, tmp_path):
        assert run(["gcurve", "--out", tmp_path / "g.csv"]) == 2


class TestConfigFile:
    def test_config_provides_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 50, "seed": 4}))
        out = tmp_path / "p.csv"
        assert run(["simulate", "--config", cfg, "--n", 80, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 81  # flag wins
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["seed"] == 4  # config wins over default

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1, "sigma": 1}))
        assert run(["simulate", "--config", cfg,
                    "--out", tmp_path / "p.csv"]) == 2
        assert "['bogus', 'sigma']" in capsys.readouterr().err

    def test_config_json_array_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["simulate", "--config", cfg,
                    "--out", tmp_path / "p.csv"]) == 2

    @pytest.mark.parametrize("command, config, option", [
        ("simulate", {"n": "100"}, "n"),
        ("experiment", {"seeds": 2.5, "n_values": [300]}, "seeds"),
        ("estimate", {"level": "0.9"}, "level"),
        ("experiment", {"n_values": 300}, "n_values"),
    ], ids=["str-for-int", "float-for-int", "str-for-float",
            "int-for-list"])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                command, config, option):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # the config is checked before estimate reads its input
        argv = [command] + (["p.csv"] if command == "estimate" else [])
        assert run(argv + ["--config", cfg,
                           "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"option '{option}'" in err and str(cfg) in err

    def test_experiment_n_values_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [60, 120], "seeds": 2}))
        out = tmp_path / "t.csv"
        assert run(["experiment", "--config", cfg, "--out", out]) == 0
        text = out.read_text()
        assert "60," in text and "120," in text
