import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpmb
from fpmb import PRESETS, coefficients, current, density
from fpmb.cli import (
    RunConfig,
    _fmt,
    check_fpe_residual_order,
    check_first_integral,
    format_config,
    load_preset_config,
    main,
    parse_config,
    preset_names,
    run_checks,
)
from fpmb.solutions import truncated_positions


class TestConfig:
    def test_round_trip_all_presets(self):
        for name in preset_names():
            cfg = load_preset_config(name)
            assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_with_all_knobs(self):
        cfg = RunConfig(
            class_name="II",
            alpha=-1.25,
            a1=0.9,
            a2=2.0,
            times=(0.5, 1.5),
            z2=3.0,
            beta=-0.75,
            out="w.csv",
            n_cells=123,
            n_paths=4567,
            seed=42,
            n_bins=33,
            tol_mass=2e-8,
            tol_identity=3e-10,
            tol_attractor=2e-3,
            tol_histogram=0.04,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_preset_files_match_library_presets(self):
        for name in preset_names():
            cfg = load_preset_config(name)
            spec = PRESETS[name]
            assert cfg.alpha == spec.alpha
            assert cfg.params() == spec.params
            assert cfg.times == spec.times

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("class = I\nbogus = 3\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("alpha = two\n")

    _FIG1_TEXT = "class = I\nalpha = 2.0\nz1 = 1.0\nz2 = 4.0\na1 = 1.0\na2 = 0.5\ntimes = 0.3\n"

    @pytest.mark.parametrize("key, field, minimum", [
        ("cells", "n_cells", 3), ("paths", "n_paths", 1), ("bins", "n_bins", 10),
    ])
    def test_count_below_minimum_reports_line_and_key(self, key, field, minimum):
        with pytest.raises(ValueError, match=f"line 1: '{key}' must be at least {minimum}"):
            parse_config(f"{key} = {minimum - 1}\n{self._FIG1_TEXT}")
        cfg = parse_config(f"{key} = {minimum}\n{self._FIG1_TEXT}")
        assert getattr(cfg, field) == minimum

    def test_bad_config_file_exits_with_file_name(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(self._FIG1_TEXT + "cells = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code == f"{path}: line 8: 'cells' must be at least 3, got 2"
        assert capsys.readouterr().out == ""

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required"):
            parse_config("alpha = 2.0\n")

    def test_class_specific_requirements(self):
        with pytest.raises(ValueError, match="requires z2"):
            parse_config("class = II\nalpha = 2\na1 = 1\na2 = 1\ntimes = 1\nbeta = 0\n")
        with pytest.raises(ValueError):
            RunConfig(class_name="IV", alpha=1.0, a1=1.0, a2=1.0, times=(1.0,))
        with pytest.raises(ValueError):
            RunConfig(class_name="I", alpha=1.0, a1=1.0, a2=1.0, times=(0.0,),
                      z1=0.0, z2=1.0)


class TestEval:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["eval", "--preset", "fig1", "--points", "11",
                     "--out", str(out1)]) == 0
        assert main(["eval", "--preset", "fig1", "--points", "11",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "t,x,W,J,D1,D2"
        assert len(lines) == 1 + 3 * 11  # three preset times

    def test_boundary_rows_vanish(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["eval", "--preset", "fig1", "--points", "7", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        times = sorted({row[0] for row in rows})
        for t in times:
            block = [row for row in rows if row[0] == t]
            assert float(block[0][2]) == 0.0 and float(block[-1][2]) == 0.0
            assert float(block[0][3]) == 0.0 and float(block[-1][3]) == 0.0


def _scalar_eval_table(cfg: RunConfig, points: int) -> str:
    """The table `fpmb eval` writes, built one point at a time."""
    sol = cfg.build()
    lines = ["t,x,W,J,D1,D2"]
    for t in cfg.times:
        lo, hi = truncated_positions(sol, t)
        for x in np.linspace(lo, hi, points):
            x = float(x)
            w = density(sol, x, t)
            j = current(sol, x, t)
            d1, d2 = coefficients(sol, x, t)
            lines.append(",".join(_fmt(v) for v in (t, x, w, j, d1, d2)))
    return "\n".join(lines) + "\n"


def _assert_same_table(path: Path, expected: str) -> None:
    """Byte equality, reported as the first differing line (a full text diff is slow)."""
    got = path.read_text()
    got_lines, want_lines = got.splitlines(), expected.splitlines()
    assert len(got_lines) == len(want_lines)
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        assert a == b, f"line {k}"
    identical = got == expected
    assert identical


def _random_eval_configs() -> list[RunConfig]:
    """One model per family from the acceptance box, plus Class III with z1 = 0."""
    rng = np.random.default_rng(2024)
    times = (0.5, 1.0, 2.5)
    out = []
    for family in ("I", "II", "III"):
        alpha = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        a1, a2 = float(rng.uniform(0.4, 4.0)), float(rng.uniform(0.4, 4.0))
        if family == "I":
            z1 = float(rng.uniform(-3.0, 2.0))
            extra = {"z1": z1, "z2": z1 + float(rng.uniform(0.5, 4.0))}
        elif family == "II":
            extra = {"z2": float(rng.uniform(0.5, 5.0)), "beta": float(rng.uniform(-3.0, 3.0))}
        else:
            extra = {"z1": float(rng.uniform(0.0, 2.0)), "beta": float(rng.uniform(0.3, 3.0))}
        out.append(RunConfig(family, alpha, a1, a2, times, **extra))
    out.append(RunConfig("III", -1.5, 1.3, 0.6, times, z1=0.0, beta=0.8))
    return out


class TestEvalMatchesScalarPath:
    """`fpmb eval` evaluates each time as one array; its text must not change."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["eval", "--preset", name, "--out", str(out)]) == 0
        _assert_same_table(out, _scalar_eval_table(load_preset_config(name), 201))

    @pytest.mark.parametrize("index", range(4))
    def test_random_models(self, index, tmp_path):
        cfg = _random_eval_configs()[index]
        path = tmp_path / "m.cfg"
        path.write_text(format_config(cfg))
        out = tmp_path / "w.csv"
        assert main(["eval", "--config", str(path), "--points", "57",
                     "--out", str(out)]) == 0
        _assert_same_table(out, _scalar_eval_table(cfg, 57))

    def test_class_ii_origin_and_endpoint_rows(self, tmp_path):
        out = tmp_path / "w.csv"
        main(["eval", "--preset", "fig4", "--points", "2", "--out", str(out)])
        cfg = load_preset_config("fig4")
        assert cfg.class_name == "II"
        _assert_same_table(out, _scalar_eval_table(cfg, 2))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * len(cfg.times)
        assert all(float(row[1]) == 0.0 for row in rows[::2])
        assert all(float(row[2]) == 0.0 for row in rows)

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["eval", "--points", "0"], "--points", id="0"),
        pytest.param(["eval", "--points", "-1"], "--points", id="-1"),
        pytest.param(["eval", "--points", "1"], "--points", id="1"),
        pytest.param(["sample", "--paths", "0"], "--paths", id="sample-paths-0"),
        pytest.param(["sample", "--bins", "0"], "--bins", id="sample-bins-0"),
        pytest.param(["sample", "--bins", "9"], "--bins", id="sample-bins-9"),
        pytest.param(["verify", "--cells", "2"], "--cells", id="verify-cells-2"),
        pytest.param(["verify", "--paths", "x"], "--paths", id="verify-paths-x"),
        # flags a subcommand does not read are not accepted
        pytest.param(["eval", "--points", "3", "--cells", "1"], "--cells", id="eval-cells"),
        pytest.param(["eval", "--seed", "5"], "--seed", id="eval-seed"),
        pytest.param(["eval", "--paths", "10"], "--paths", id="eval-paths"),
        pytest.param(["eval", "--bins", "10"], "--bins", id="eval-bins"),
        pytest.param(["sample", "--cells", "10"], "--cells", id="sample-cells"),
        pytest.param(["sample", "--points", "10"], "--points", id="sample-points"),
        pytest.param(["verify", "--points", "10"], "--points", id="verify-points"),
    ])
    def test_too_few_points_rejected(self, argv, flag, capsys):
        """Counts below the library's minimum, and flags a subcommand ignores,
        are argparse errors that name the flag."""
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--preset", "fig1", *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


_LAZY_SPARSE_SCRIPT = """
import json, sys
import fpmb.cli as cli
loaded_at_import = "scipy.sparse" in sys.modules
cfg = cli.load_preset_config("fig1")
results = cli.check_pde_attractor(cfg.build(), cfg.n_cells, cfg.tol_attractor)
print(json.dumps({
    "loaded_at_import": loaded_at_import,
    "loaded_after_evolve": "scipy.sparse" in sys.modules,
    "results": [[r.name, float(r.measured), bool(r.passed)] for r in results],
}))
"""


def test_cli_import_defers_scipy_sparse():
    src = str(Path(fpmb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _LAZY_SPARSE_SCRIPT],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded_at_import"] is False
    # the implicit steps use LAPACK's tridiagonal solver, not scipy.sparse
    assert report["loaded_after_evolve"] is False
    expected = {r.name: r for r in run_checks(load_preset_config("fig1"))}
    assert len(report["results"]) == 2
    for name, measured, passed in report["results"]:
        assert passed == expected[name].passed
        assert measured == expected[name].measured


class TestVerify:
    def test_all_presets_pass(self, built_presets):
        for name in preset_names():
            cfg = load_preset_config(name)
            results = run_checks(cfg)
            failed = [r.name for r in results if not r.passed]
            assert not failed, f"{name}: {failed}"

    def test_cli_exit_code_zero(self, capsys):
        assert main(["verify", "--preset", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_tampered_drift_fails_first_integral(self, built_presets):
        sol = built_presets["fig1"]
        params = sol.class_params
        bad_drift = (  # a1 off by one
            (params.a1 + 2.0) * params.z2 + (params.a2 + 1.0) * params.z1,
            sol.alpha - (params.a1 + 1.0) - params.a2 - 2.0,
            0.0,
        )
        tampered = dataclasses.replace(sol, drift_coefs=bad_drift)
        result = check_first_integral(tampered, 1e-10)
        assert not result.passed
        assert result.measured > 1e-3

    def test_residual_order_check(self, built_presets):
        res = check_fpe_residual_order(built_presets["fig1"], 0.4)
        assert res.passed
        assert 1.8 <= res.measured <= 2.2

    def test_pde_diagnostics_log(self, tmp_path):
        log = tmp_path / "pde.csv"
        assert main(["verify", "--preset", "fig1", "--cells", "100",
                     "--pde-log", str(log)]) == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "s,mass,l1_to_stationary"
        assert len(lines) == 1 + 200  # span 10 at ds = 0.05
        s, m, l1 = (float(v) for v in lines[-1].split(","))
        assert s == pytest.approx(10.0)
        assert m == pytest.approx(1.0, abs=1e-10)
        assert l1 <= 1e-2


class TestInfoAndPresets:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            assert name in out

    def test_info_two_boundary(self, capsys):
        assert main(["info", "I"]) == 0
        out = capsys.readouterr().out
        assert "(alpha - a1 - a2 - 2) z + (a1 + 1) z2 + (a2 + 1) z1" in out

    def test_info_fixed_origin(self, capsys):
        main(["info", "II"])
        out = capsys.readouterr().out
        assert "1F1(a1+1; a1+a2+2; beta z2)" in out

    def test_info_half_line_flags_derivation(self, capsys):
        main(["info", "III"])
        out = capsys.readouterr().out
        assert "derived, not transcribed" in out
        assert "beta*z1" in out


class TestSample:
    def test_sample_histogram_csv(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert main(["sample", "--preset", "fig1", "--paths", "5000",
                     "--seed", "3", "--bins", "20", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_center,empirical_density,analytic_density"
        assert len(lines) == 21

    def test_sample_deterministic_given_seed(self, tmp_path, capsys):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["sample", "--preset", "fig1", "--paths", "2000",
                  "--seed", "11", "--bins", "15", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
