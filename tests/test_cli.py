import dataclasses

import pytest

from fpmb import PRESETS
from fpmb.cli import (
    RunConfig,
    check_fpe_residual_order,
    check_first_integral,
    format_config,
    load_preset_config,
    main,
    parse_config,
    preset_names,
    run_checks,
)


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
