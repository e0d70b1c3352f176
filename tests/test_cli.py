import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

import fpmb
from fpmb import PRESETS, ClassI, ClassII, ClassIII, coefficients, current, density, pde, sde
from fpmb.cli import (
    RunConfig,
    _csv_block,
    _load_config,
    _parser,
    format_config,
    load_preset_config,
    main,
    parse_config,
    preset_names,
    run_checks,
)
from fpmb.solutions import _count, _physical_drift, interior_points, truncated_positions


def _fmt(value: float) -> str:
    """One value as a CSV field, 17 significant digits: the reference that
    ``_csv_block`` is held to, written one value at a time."""
    return format(value, ".17g")


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
        )
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize("out", ["run#1.csv", " lead.csv", "trail.csv ", "a\nb.csv",
                                     "a\rb.csv"])
    def test_text_that_would_read_back_differently_is_refused(self, out):
        cfg = dataclasses.replace(load_preset_config("fig1"), out=out)
        with pytest.raises(ValueError, match="^'out' value .* cannot be written to a config"):
            format_config(cfg)

    def test_out_flag_takes_a_name_a_config_cannot_hold(self, tmp_path, capsys):
        out = tmp_path / "run#1.csv"
        assert main(["eval", "--preset", "fig1", "--out", str(out)]) == 0
        assert out.read_text().startswith("t,x,W,J,D1,D2\n")

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
        """A count below its minimum is a value error: it names the key, not a line."""
        message = f"need a whole number {key} >= {minimum}, got {minimum - 1}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(f"{key} = {minimum - 1}\n{self._FIG1_TEXT}")
        cfg = parse_config(f"{key} = {minimum}\n{self._FIG1_TEXT}")
        assert getattr(cfg, field) == minimum

    def test_bad_config_file_exits_with_file_name(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(self._FIG1_TEXT + "cells = 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code == f"{path}: need a whole number cells >= 3, got 2"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("edit, message", [
        pytest.param({"a1": "-1.0"}, "a1=-1.0", id="negative-exponent"),
        pytest.param({"alpha": "0.0"}, "alpha must be finite and nonzero", id="zero-alpha"),
        pytest.param({"z1": "4.0", "z2": "1.0"}, "need z1 < z2", id="reversed-domain"),
    ])
    def test_inadmissible_model_exits_with_file_name(self, edit, message, tmp_path, capsys):
        keys = dict(line.split(" = ") for line in self._FIG1_TEXT.splitlines())
        text = "".join(f"{k} = {edit.get(k, v)}\n" for k, v in keys.items())
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(path)])
        assert exc.value.code.startswith(f"{path}: ")
        assert message in exc.value.code
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


_FIG1_TEXT = TestConfig._FIG1_TEXT
_TOL_KEYS = ["tol_mass", "tol_identity", "tol_attractor", "tol_histogram"]
_FIG5_TEXT = "class = III\nalpha = 1.0\nz1 = 0.5\na1 = 1.0\na2 = 1.0\nbeta = 1.0\ntimes = 0.3\n"


def _with(text: str, **edits: str) -> str:
    """A config text with some values replaced and new keys appended."""
    keys = dict(line.split(" = ") for line in text.splitlines())
    keys.update(edits)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _config_exit(tmp_path: Path, text: str, *flags: str) -> str:
    """The message `fpmb verify --config` exits with on a bad config."""
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(path), *flags])
    assert isinstance(exc.value.code, str)
    assert exc.value.code.startswith(f"{path}: ")
    assert "\n" not in exc.value.code
    return exc.value.code[len(f"{path}: "):]


class TestBadValues:
    """Values that parse but cannot be run are refused before any check runs,
    with the key named, not met later as a traceback or a silent FAIL."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--seed", "-1"], id="sample"),
        pytest.param(["verify", "--with-sde", "--seed", "-1"], id="verify"),
    ])
    def test_negative_seed_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--preset", "fig1", *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""

    def test_negative_seed_in_config(self, tmp_path, capsys):
        text = _with(_FIG1_TEXT, seed="-5")
        message = "need a whole number seed >= 0, got -5"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(text)
        assert _config_exit(tmp_path, text, "--with-sde") == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("times", ["0.3, nan", "0.3, inf", "nan"])
    def test_non_finite_times(self, times, tmp_path, capsys):
        text = _with(_FIG1_TEXT, times=times)
        message = f"need a finite times > 0, got {times.split(', ')[-1]}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_config(text)
        assert _config_exit(tmp_path, text) == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["eval", "verify", "sample"])
    @pytest.mark.parametrize("text, alpha", [
        pytest.param(_FIG1_TEXT, 2.0, id="fig1"),
        pytest.param(_with(_FIG1_TEXT, alpha="-2.0"), -2.0, id="alpha-2"),
    ])
    def test_time_out_of_float_range(self, command, text, alpha, tmp_path, capsys):
        """A time whose t^alpha overflows or underflows is refused by RunConfig,
        naming times, before any command meets it as an OverflowError."""
        path = tmp_path / "huge.cfg"
        path.write_text(_with(text, times="0.3, 1e200"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(path)])
        assert exc.value.code == (f"{path}: need times^alpha in float range, "
                                  f"got times=1e+200, alpha={alpha!r}")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["eval", "verify", "sample"])
    def test_time_with_d2_factor_out_of_float_range(self, command, tmp_path, capsys):
        """t = 1e150 keeps fig1's t^2 in float range but not D2's t^3:
        RunConfig refuses it, naming times, before eval meets it."""
        path = tmp_path / "huge.cfg"
        path.write_text(_with(_FIG1_TEXT, times="0.3, 1e150"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(path)])
        assert exc.value.code == (f"{path}: need times^(2 alpha - 1) in float range, "
                                  "got times=1e+150, alpha=2.0")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["eval", "verify", "sample"])
    def test_time_with_current_factor_out_of_float_range(self, command, tmp_path, capsys):
        """t = 1e-310 keeps t^0.5 in float range but not J's 1 / t: RunConfig
        refuses it, naming times, before eval meets J = inf."""
        path = tmp_path / "tiny.cfg"
        path.write_text(_with(_FIG1_TEXT, alpha="0.5", times="1e-310, 1e-300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(path)])
        assert exc.value.code == (f"{path}: need times^(-1) in float range, "
                                  "got times=1e-310, alpha=0.5")
        assert capsys.readouterr().out == ""

    def test_eval_refuses_a_coefficient_out_of_float_range(self, tmp_path, capsys):
        """Every power of t is in float range at t = 5e-308, but D1 =
        t^(alpha - 1) rho1 is not on part of the domain: eval ends with one
        line naming the config and leaves its output empty."""
        path = tmp_path / "tiny.cfg"
        path.write_text(_with(_FIG1_TEXT, alpha="0.01", z2="1e4", times="5e-308, 1e-300"))
        out = tmp_path / "out.csv"
        out.write_text("left over\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--config", str(path), "--out", str(out)])
        assert exc.value.code == (f"{path}: ValueError: need D1 in float range on the domain, "
                                  "got t=5e-308, alpha=0.01")
        assert out.read_text() == ""
        assert capsys.readouterr().out == ""

    def test_no_time(self):
        with pytest.raises(ValueError, match="^need at least one value in times$"):
            dataclasses.replace(load_preset_config("fig1"), times=())

    @pytest.mark.parametrize("key", _TOL_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-8", "0.0"])
    def test_tolerances_finite_and_positive(self, key, value):
        """A check's bound is a finite, positive class constant, and a config
        line that would move it is refused as an unknown key on its line."""
        assert 0.0 < getattr(RunConfig, key) < math.inf
        with pytest.raises(ValueError, match=f"^line 8: unknown key '{key}'$"):
            parse_config(_with(_FIG1_TEXT, **{key: value}))

    def test_nan_tol_mass_exits_naming_the_key(self, tmp_path, capsys):
        message = _config_exit(tmp_path, _with(_FIG1_TEXT, tol_mass="nan"))
        assert message == "line 8: unknown key 'tol_mass'"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text, name", [
        pytest.param(_with(_FIG5_TEXT, beta="inf"), "beta", id="III-beta"),
        pytest.param(_with(_FIG5_TEXT, z1="inf"), "z1", id="III-z1"),
        pytest.param(_with(_FIG1_TEXT, z2="inf"), "z2", id="I-z2"),
        pytest.param(_with(_FIG1_TEXT, a1="inf"), "a1", id="I-a1"),
        pytest.param("class = II\nalpha = 1.0\nz2 = inf\na1 = 1.0\na2 = 1.0\nbeta = 0.5\n"
                     "times = 0.3\n", "z2", id="II-z2"),
    ])
    def test_non_finite_family_parameter(self, text, name, tmp_path, capsys):
        assert _config_exit(tmp_path, text) == f"{name} must be finite, got inf"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text, preset, family, key", [
        pytest.param(_with(_FIG5_TEXT, z2="9.0"), "fig5", "III", "z2", id="III-z2"),
        pytest.param(_with(_FIG1_TEXT, beta="0.5"), "fig1", "I", "beta", id="I-beta"),
        pytest.param("class = II\nalpha = 1.0\nz1 = 0.5\nz2 = 1.0\na1 = 1.0\na2 = 1.0\n"
                     "beta = 0.5\ntimes = 0.3\n", "fig4", "II", "z1", id="II-z1"),
    ])
    def test_parameter_the_family_does_not_take(self, text, preset, family, key,
                                                tmp_path, capsys):
        message = f"class {family} does not take {key}"
        assert _config_exit(tmp_path, text) == message
        assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(load_preset_config(preset), **{key: 0.5})

    @pytest.mark.parametrize("times", ["0.3", "0.5, 0.3", "0.3, 0.3"])
    def test_sample_needs_times_that_end_after_they_start(self, times, tmp_path, capsys):
        path = tmp_path / "times.cfg"
        path.write_text(_with(_FIG5_TEXT, times=times))
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", str(path)])
        assert exc.value.code == f"sample needs times that end after they start, got times = {times}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, output", [
        ("eval", "--out"), ("verify", "--pde-log"), ("sample", "--out"),
    ])
    @pytest.mark.parametrize("model, kind, message", [
        pytest.param("class = II\nz2 = 2\na1 = 1\na2 = 1\nbeta = 800\n", RuntimeError,
                     "normalization quadrature failed for "
                     "ClassII(z2=2.0, a1=1.0, a2=1.0, beta=800.0): error estimate nan", id="800"),
        pytest.param("class = II\nz2 = 2\na1 = 1\na2 = 1\nbeta = -800\n", ValueError,
                     "closed-form normalization of "
                     "ClassII(z2=2.0, a1=1.0, a2=1.0, beta=-800.0) is not finite: nan", id="-800"),
        pytest.param("class = II\nz2 = 2\na1 = 1\na2 = 1\nbeta = 360\n", RuntimeError,
                     "normalization quadrature of ClassII(z2=2.0, a1=1.0, a2=1.0, beta=360.0) "
                     "is not finite and positive: inf", id="beta360"),
        pytest.param("class = III\nz1 = 1e4\na1 = 0.001\na2 = 0.001\nbeta = 0.3\n", RuntimeError,
                     "normalization quadrature of ClassIII(z1=10000.0, a1=0.001, a2=0.001, "
                     "beta=0.3) is not finite and positive: 0.0", id="z1far"),
        pytest.param("class = III\nz1 = 0.5\na1 = 50\na2 = 50\nbeta = 1000\n", ValueError,
                     "closed-form normalization of ClassIII(z1=0.5, a1=50.0, a2=50.0, "
                     "beta=1000.0) is not finite: inf", id="beta1000"),
    ])
    def test_model_that_cannot_be_built(self, command, output, model, kind, message,
                                        tmp_path, capsys):
        """The config is admissible but its model cannot be built: its
        normalization quadrature fails or is not finite and positive, or its
        closed form is not finite.  The run ends with one line naming the
        file, raises no numpy warning and leaves its output file empty, while
        run_checks, called as a library function, still raises."""
        path = tmp_path / "unbuildable.cfg"
        path.write_text(f"{model}alpha = 1.0\ntimes = 0.3, 0.4\n")
        out = tmp_path / "out.csv"
        out.write_text("left over\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(path), output, str(out)])
            with pytest.raises(kind, match=re.escape(message)):
                run_checks(parse_config(path.read_text()))
        assert exc.value.code == f"{path}: {kind.__name__}: {message}"
        assert out.read_text() == ""
        assert capsys.readouterr().out == ""


class TestBadArguments:
    """A preset that does not exist, or a file that cannot be opened, ends
    the run with one message that names it, not a traceback."""

    @pytest.mark.parametrize("command", ["eval", "verify", "sample"])
    def test_unknown_preset_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--preset" in captured.err and "'fig9'" in captured.err
        assert captured.out == ""
        with pytest.raises(KeyError, match="unknown preset 'fig9'"):
            load_preset_config("fig9")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--preset", "fig1", "--config", "x.cfg"],
                     "argument --config: not allowed with argument --preset", id="both"),
        pytest.param([], "one of the arguments --preset --config is required", id="neither"),
    ])
    @pytest.mark.parametrize("command", ["eval", "verify", "sample"])
    def test_preset_or_config_is_an_argparse_error(self, command, argv, message, capsys):
        """Exactly one of --preset and --config is given, or argparse exits 2."""
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify", "--config", "{missing}.cfg"], id="config"),
        pytest.param(["eval", "--preset", "fig1", "--out", "{missing}/x.csv"], id="eval-out"),
        pytest.param(["verify", "--preset", "fig1", "--pde-log", "{missing}/x.csv"], id="pde-log"),
    ])
    def test_file_that_cannot_be_opened_exits_naming_it(self, argv, tmp_path, capsys):
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"{argv[-1]}: No such file or directory"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "--preset", "fig5", "--out"], id="eval"),
        pytest.param(["verify", "--preset", "fig5", "--with-sde", "--pde-log"], id="verify"),
        pytest.param(["sample", "--preset", "fig5", "--out"], id="sample"),
    ])
    def test_unwritable_output_exits_before_any_work(self, argv, tmp_path, monkeypatch,
                                                     capsys):
        def called(*args, **kwargs):
            pytest.fail("the model was built before the output was opened")

        monkeypatch.setattr(RunConfig, "build", called)
        monkeypatch.setattr(fpmb.cli, "run_checks", called)
        path = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(SystemExit) as exc:
            main([*argv, path])
        assert exc.value.code == f"{path}: No such file or directory"
        assert capsys.readouterr().out == ""


class TestFixedBounds:
    """The checks' acceptance bounds are constants of RunConfig, not settings
    of a run: neither a config line nor an argument in code can move them."""

    @pytest.mark.parametrize("key", _TOL_KEYS)
    def test_tol_argument_is_a_type_error(self, key):
        with pytest.raises(TypeError, match=key):
            RunConfig(class_name="I", alpha=2.0, a1=1.0, a2=0.5, times=(0.3,),
                      z1=1.0, z2=4.0, **{key: 1e-8})
        with pytest.raises(TypeError, match=key):
            dataclasses.replace(load_preset_config("fig1"), **{key: 1e-8})

    def test_bounds_and_printed_thresholds(self, capsys):
        assert [getattr(RunConfig, key) for key in _TOL_KEYS] == [1e-8, 1e-10, 1e-3, 0.05]
        assert len(dataclasses.fields(RunConfig)) == 13
        # the norm constants agree to 1e-10 on a bounded domain, 1e-8 on the half line
        for preset, agreement in [("fig1", "<= 1e-10"), ("fig5", "<= 1e-08")]:
            main(["verify", "--preset", preset, "--with-sde", "--paths", "2000"])
            lines = capsys.readouterr().out.splitlines()[:-1]
            assert {line.split()[1]: line.split("threshold ", 1)[1] for line in lines} == {
                "normalization": "<= 1e-08",
                "norm_constant_agreement": agreement,
                "first_integral_identity": "<= 1e-10",
                "reduced_ode_residual": "<= 1e-10",
                "current_consistency": "<= 1e-10",
                "fpe_residual_order": "in [1.8, 2.2]",
                "pde_attractor_l1": "<= 0.001",
                "pde_mass_drift": f"<= {pde.MASS_DRIFT_TOL:g}",
                "sde_histogram_l1": "<= 0.05",
            }


# count setting, its RunConfig field (None for --points, which no config
# holds), its minimum, a value below it and a value that is not a whole number
_COUNTS = [
    ("seed", "seed", 0, -1, 1.0),
    ("paths", "n_paths", 1, 0, 1e3),
    ("bins", "n_bins", 10, 5, 60.5),
    ("cells", "n_cells", 3, 2, 400.0),
    ("points", None, 2, 1, 2.5),
]


class TestFlagsMatchConfigKeys:
    """Each count has one rule, ``solutions._count``'s: a config line, a flag,
    ``dataclasses.replace`` and the library refuse the same values with the
    same text, and take the minimum itself."""

    @staticmethod
    def _flag_error(key: str, value, capsys) -> str:
        """The stderr of a run that the flag ``--key value`` ends with exit 2."""
        command = "eval" if key == "points" else "verify"
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig1", f"--{key}", str(value)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{key}" in captured.err
        return captured.err

    @pytest.mark.parametrize("key, field, minimum", [row[:3] for row in _COUNTS])
    def test_same_minimum(self, key, field, minimum, tmp_path, capsys):
        message = f"need a whole number {key} >= {minimum}, got {minimum - 1}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _count(key, minimum - 1, minimum)
        assert f"argument --{key}: {message}\n" in self._flag_error(key, minimum - 1, capsys)
        if field is not None:
            assert _config_exit(tmp_path, f"{key} = {minimum - 1}\n{_FIG1_TEXT}") == message
            assert getattr(parse_config(f"{key} = {minimum}\n{_FIG1_TEXT}"), field) == minimum
            argv = ["verify", "--preset", "fig1", f"--{key}", str(minimum)]
            assert getattr(_load_config(_parser().parse_args(argv)), field) == minimum

    @pytest.mark.parametrize("key, field, value, minimum", [
        (key, field, below, minimum) for key, field, minimum, below, _ in _COUNTS if field
    ])
    def test_run_config_holds_the_minimum(self, key, field, value, minimum):
        """A config built in code is held to the same minimum, naming the key,
        before numpy or the grid can meet the value."""
        cfg = load_preset_config("fig1")
        message = f"need a whole number {key} >= {minimum}, got {value}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(cfg, **{field: value})
        assert getattr(dataclasses.replace(cfg, **{field: minimum}), field) == minimum

    @pytest.mark.parametrize("key, field, value", [
        (key, field, value) for key, field, _, _, value in _COUNTS
    ])
    def test_run_config_holds_a_whole_number(self, key, field, value, capsys):
        """A fractional, float or bool count is refused by its key, before the
        library meets it inside numpy; a flag takes integer text only."""
        minimum = next(row[2] for row in _COUNTS if row[0] == key)
        for bad in (value, True):
            message = f"^need a whole number {key} >= {minimum}, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                _count(key, bad, minimum)
            if field is not None:
                with pytest.raises(ValueError, match=message):
                    dataclasses.replace(load_preset_config("fig1"), **{field: bad})
        assert "invalid int value" in self._flag_error(key, value, capsys)


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


class TestCsvBlock:
    """Each time block is formatted by one call; its text must equal the
    per-value ``_fmt`` rows."""

    @staticmethod
    def _fmt_rows(columns) -> str:
        return "".join(",".join(map(_fmt, row)) + "\n" for row in zip(*columns))

    def test_matches_fmt_rows_on_edge_values(self):
        edge = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308,
                         0.1, -2.5e-7, 1e22, 3.0])
        columns = (edge, edge[::-1].copy(), np.full_like(edge, 0.4), np.arange(10.0) - 4.5)
        block = _csv_block(columns)
        assert block == self._fmt_rows(columns)
        assert block.splitlines()[0] == "inf,3,0.40000000000000002,-4.5"
        assert block.splitlines()[3] == "-0,0.10000000000000001,0.40000000000000002,-1.5"
        assert block.splitlines()[4].startswith("4.9406564584124654e-324,1.7976931348623157e+308,")

    def test_one_row_block(self):
        columns = (np.array([2.0]), np.array([np.nan]), np.array([-0.0]))
        assert _csv_block(columns) == "2,nan,-0\n" == self._fmt_rows(columns)

    def test_sample_writes_fmt_rows_of_histogram_table(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert main(["sample", "--preset", "fig1", "--paths", "5000",
                     "--seed", "3", "--bins", "20", "--out", str(out)]) == 0
        cfg = load_preset_config("fig1")
        sol = cfg.build()
        ens = sde.init_ensemble(sol, 5000, cfg.times[0], 3)
        ens = sde.propagate(ens, sol, cfg.times[-1])
        expected = self._fmt_rows(sde.histogram_table(ens, sol, 20))
        assert out.read_text() == "bin_center,empirical_density,analytic_density\n" + expected

    def test_eval_stdout_equals_out_file(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["eval", "--preset", "fig2", "--points", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--preset", "fig2", "--points", "7"]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestParserReuse:
    """The parser is built once per process; no call may leak into the next."""

    def test_rejected_flag_then_valid_eval(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--preset", "fig1", "--cells", "3"])
        assert exc.value.code == 2
        out = tmp_path / "w.csv"
        assert main(["eval", "--preset", "fig1", "--points", "5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 5

    def test_points_default_restored(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["eval", "--preset", "fig1", "--points", "7", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 7
        assert main(["eval", "--preset", "fig1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        times = load_preset_config("fig1").times
        assert len(rows) == 201 * len(times)
        for t in times:
            assert sum(row.startswith(_fmt(t) + ",") for row in rows) == 201

    def test_with_sde_not_carried_over(self, capsys):
        main(["verify", "--preset", "fig1", "--with-sde", "--paths", "1000"])
        assert "sde_histogram_l1" in capsys.readouterr().out
        assert main(["verify", "--preset", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "sde_histogram_l1" not in out
        assert out.splitlines()[-1] == "8/8 checks passed"


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
results = [r for r in cli.run_checks(cfg) if r.name.startswith("pde_")]
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


_NO_SPECIAL_SCRIPT = """
import sys
import fpmb.cli as cli
out = sys.argv[1]
codes = [
    cli.main(["verify", "--preset", "fig5"]),
    cli.main(["eval", "--preset", "fig5", "--out", out + "/eval.csv"]),
    cli.main(["sample", "--preset", "fig5", "--paths", "2000", "--out", out + "/hist.csv"]),
]
print(codes, *(name in sys.modules
               for name in ("scipy.special", "concurrent.futures", "numpy.polynomial")))
"""


def test_subcommands_never_load_scipy_special(tmp_path):
    """Log-gamma comes from the standard library; importing scipy.special
    would add several MiB of resident memory to every run.  Nor does a run
    whose paths fit in one chunk import concurrent.futures, which only the
    thread pool needs, nor numpy.polynomial: a model's profiles are three
    plain floats each."""
    src = str(Path(fpmb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NO_SPECIAL_SCRIPT, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False False False"


@pytest.mark.parametrize("argv", [["eval", "--preset", "fig1"], ["info", "II"]])
def test_closed_pipe_ends_without_a_traceback(argv):
    """``fpmb eval --preset fig1 | head -1``: a reader that has gone ends
    the run with status 1 and nothing on stderr."""
    src = str(Path(fpmb.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "fpmb.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
                              text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


_NO_LINALG_SCRIPT = """
import sys
import fpmb.cli as cli
out = sys.argv[1]
codes = [
    cli.main(["verify", "--preset", f"fig{n}", "--cells", cells])
    for n in range(1, 6) for cells in ("400", "1600")
]
codes += [
    cli.main(["verify", "--preset", "fig1", "--with-sde"]),
    cli.main(["eval", "--preset", "fig5", "--out", out + "/eval.csv"]),
    cli.main(["sample", "--preset", "fig5", "--paths", "2000", "--out", out + "/hist.csv"]),
]
print(sum(codes), "scipy.linalg" in sys.modules)
"""

_LINALG_BETWEEN_SCRIPT = """
import sys
import fpmb.cli as cli
from fpmb import pde

def solve():
    rows = []
    results = cli.run_checks(cli.load_preset_config("fig3"), pde_log_rows=rows)
    return [(r.name, r.measured.hex()) for r in results], rows

before = solve()
import scipy.linalg.lapack
after = solve()
print(before == after, pde._tridiagonal_lapack()[0] is scipy.linalg.lapack.dgttrf)
"""


class TestLapackLoader:
    """``pde.splu`` takes dgttrf/dgttrs from scipy's _flapack extension,
    loaded from its file: importing scipy.linalg would cost a quarter second
    and some 27 MiB for two routines."""

    @staticmethod
    def _run(script, *args):
        src = str(Path(fpmb.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_subcommands_never_load_scipy_linalg(self, tmp_path):
        assert self._run(_NO_LINALG_SCRIPT, tmp_path) == "0 False"

    def test_importing_scipy_linalg_between_solves_changes_nothing(self):
        """The private copy keeps working next to scipy.linalg's own."""
        assert self._run(_LINALG_BETWEEN_SCRIPT) == "True False"

    @pytest.fixture
    def fresh_loader(self):
        pde._tridiagonal_lapack.cache_clear()
        yield
        pde._tridiagonal_lapack.cache_clear()

    def test_public_fallback_gives_the_same_checks(self, fresh_loader, monkeypatch):
        def attractor_hex():
            return {name: [(r.measured.hex(), r.threshold, r.passed)
                           for r in run_checks(load_preset_config(name))
                           if r.name.startswith("pde_")]
                    for name in preset_names()}

        private = attractor_hex()
        assert pde._tridiagonal_lapack()[0] is not scipy.linalg.lapack.dgttrf

        def unavailable():
            raise ImportError("no _flapack")

        monkeypatch.setattr(pde, "_load_flapack", unavailable)
        pde._tridiagonal_lapack.cache_clear()
        assert attractor_hex() == private
        assert pde._tridiagonal_lapack() == (scipy.linalg.lapack.dgttrf,
                                             scipy.linalg.lapack.dgttrs)


def _result(results, name):
    """The result of the check called ``name``."""
    [result] = [r for r in results if r.name == name]
    return result


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

    def test_tampered_drift_fails_first_integral(self, built_presets, monkeypatch):
        sol = built_presets["fig1"]
        params = sol.class_params
        bad_drift = (  # q with a1 off by one
            (params.a1 + 2.0) * params.z2 + (params.a2 + 1.0) * params.z1,
            -(params.a1 + 1.0) - params.a2 - 2.0,
            0.0,
        )
        tampered = dataclasses.replace(sol, drift_coefs=bad_drift)
        monkeypatch.setattr(RunConfig, "build", lambda self: tampered)
        result = _result(run_checks(load_preset_config("fig1")), "first_integral_identity")
        assert result.threshold == "<= 1e-10"
        assert not result.passed
        assert result.measured > 1e-3

    @pytest.mark.parametrize("index", [None, 0, 1, 2])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_diffusion_change_fails_identity_checks(self, built_presets, name, index,
                                                    monkeypatch):
        """A change of 1e-9 max|c| to any diffusion coefficient fails all
        three identity checks; ``index=None`` is the untampered model, which
        passes them."""
        cfg = load_preset_config(name)
        sol = built_presets[name]
        if index is not None:
            coefs = list(sol.diffusion_coefs)
            coefs[index] += 1e-9 * max(map(abs, coefs))
            sol = dataclasses.replace(sol, diffusion_coefs=tuple(coefs))
        monkeypatch.setattr(RunConfig, "build", lambda self: sol)
        checked = run_checks(cfg)
        results = [_result(checked, name) for name in (
            "first_integral_identity", "reduced_ode_residual", "current_consistency")]
        assert [r.threshold for r in results] == [f"<= {cfg.tol_identity:g}"] * 3
        assert [r.passed for r in results] == [index is None] * 3, results

    def test_residual_order_check(self):
        cfg = load_preset_config("fig1")
        assert cfg.times[len(cfg.times) // 2] == 0.4
        res = _result(run_checks(cfg), "fpe_residual_order")
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
        # the file is the header and run_checks' rows, formatted value by value
        rows = []
        run_checks(dataclasses.replace(load_preset_config("fig1"), n_cells=100), pde_log_rows=rows)
        assert log.read_text() == "s,mass,l1_to_stationary\n" + "".join(
            ",".join(map(_fmt, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("n_cells", range(3, 11))
    def test_half_line_pde_checks_run_on_few_cells(self, n_cells):
        """A Class III grid of as few cells as the config takes is built and
        evolved: the PDE checks measure it, and mass is conserved."""
        cfg = dataclasses.replace(load_preset_config("fig5"), n_cells=n_cells)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = run_checks(cfg)
        assert [r.error for r in results if r.name.startswith("pde_")] == [None, None]
        assert _result(results, "pde_mass_drift").passed

    def test_coarse_half_line_verify_fails_without_an_error(self, capsys):
        assert main(["verify", "--preset", "fig5", "--cells", "8"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] pde_attractor_l1" in out
        assert " error " not in out

    @pytest.mark.parametrize("n_cells", [400, 1600])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_pde_checks_read_the_step_by_step_loop(self, name, n_cells, reference_evolve,
                                                   monkeypatch):
        """pde_mass_drift is the worst drift ``evolve`` returns and the
        --pde-log rows come from its steps: both equal those of the
        step-by-step oracle, with and without the log."""
        cfg = dataclasses.replace(load_preset_config(name), n_cells=n_cells)
        rows = []
        logged = {r.name: r.measured for r in run_checks(cfg, pde_log_rows=rows)}
        unlogged = {r.name: r.measured for r in run_checks(cfg)}

        sol = cfg.build()
        grid = pde.make_grid(sol, n_cells)
        target = pde.stationary_field(sol, grid)
        factorize, solves, expected_rows = pde.splu, [], []

        def counting(*args):
            lu = factorize(*args)
            return type(lu)(solve=lambda rhs: solves.append(1) or lu.solve(rhs))

        def record(s, m, v):
            expected_rows.append((s, float(m), pde.l1_distance(v, target, grid)))

        monkeypatch.setattr(pde, "splu", counting)
        final, worst = reference_evolve(pde.transformed_operator(sol, n_cells),
                                        pde.uniform_field(grid), 200, 0.05, on_step=record)
        l1 = pde.l1_distance(final, target, grid)
        for measured in (logged, unlogged):
            assert measured["pde_mass_drift"].hex() == worst.hex()
            assert measured["pde_attractor_l1"].hex() == l1.hex()
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in expected_rows]
        if n_cells == 1600 and name in ("fig2", "fig4"):
            assert len(solves) == 2 * 200  # every step refines


class TestRaisingChecks:
    """A check that raises fails on its own; the others still report."""

    @pytest.fixture
    def fig3_bent_profile(self, built_presets, monkeypatch):
        """fig3 with diffusion_coefs[1] raised by 1e-2 max|c|: rho2 turns
        negative at interior faces, so the PDE operator cannot be built."""
        sol = built_presets["fig3"]
        coefs = list(sol.diffusion_coefs)
        coefs[1] += 1e-2 * max(map(abs, coefs))
        tampered = dataclasses.replace(sol, diffusion_coefs=tuple(coefs))
        monkeypatch.setattr(RunConfig, "build", lambda self: tampered)

    def test_operator_error_fails_both_pde_checks(self, fig3_bent_profile):
        results = run_checks(load_preset_config("fig3"))
        assert [r.name for r in results] == [
            "normalization", "norm_constant_agreement", "first_integral_identity",
            "reduced_ode_residual", "current_consistency", "fpe_residual_order",
            "pde_attractor_l1", "pde_mass_drift",
        ]
        raised = {r.name: r for r in results if r.error is not None}
        assert sorted(raised) == ["pde_attractor_l1", "pde_mass_drift"]
        for r in raised.values():
            assert not r.passed and r.measured == math.inf and r.threshold == "n/a"
            assert r.error == "ValueError: diffusion profile must be positive at interior faces"
        assert all(r.error is None for r in results[:6])

    def test_verify_prints_fail_lines_and_exits_one(self, fig3_bent_profile, capsys):
        assert main(["verify", "--preset", "fig3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        drift = next(line for line in lines if "pde_mass_drift" in line)
        assert drift.startswith("[FAIL]")
        assert "measured=inf" in drift
        assert drift.endswith("error ValueError: diffusion profile must be positive at interior faces")
        assert lines[-1] == "2/8 checks passed"  # the identity checks see the change too

    def test_mass_drift_violation_is_a_fail_record(self, monkeypatch):
        """The skewed operator of test_pde: refinement cannot bring the first
        step's drift down, so evolve raises and pde_mass_drift fails."""
        build_operator = pde.transformed_operator

        class Skewed(pde.DiscreteOperator):
            @property
            def diag(self):
                return super().diag * (1.0 + 1e-3 * np.linspace(0.0, 1.0, self.grid.n_cells))

        def skewed(sol, n_cells):
            op = build_operator(sol, n_cells)
            return Skewed(op.grid, op.lower, op.upper)

        monkeypatch.setattr(pde, "transformed_operator", skewed)
        results = {r.name: r for r in run_checks(load_preset_config("fig1"))}
        drift = results["pde_mass_drift"]
        assert not drift.passed and drift.measured == math.inf
        assert drift.error.startswith("RuntimeError: mass drift")
        assert results["normalization"].passed


def _printed_profile(text: str, name: str) -> str:
    """The right-hand side of the ``name(z) = ...`` line of ``text`` as Python:
    '*' between adjacent operands and '**' for '^'."""
    tokens = re.findall(r"\w+|\S", re.search(rf"^\s*{name}\(z\) = (.+)$", text, re.M)[1])
    expr = []
    for token in tokens:
        if expr and (expr[-1] == ")" or expr[-1][-1].isalnum()) and (
                token == "(" or token[0].isalnum()):
            expr.append("*")
        expr.append("**" if token == "^" else token)
    return " ".join(expr)


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

    @pytest.mark.parametrize("family, cls", [("I", ClassI), ("II", ClassII), ("III", ClassIII)])
    def test_info_prints_the_class_docstring(self, family, cls, capsys):
        assert main(["info", family]) == 0
        assert capsys.readouterr().out == inspect.getdoc(cls) + "\n"

    def test_printed_profiles_match_the_generated_ones(self, random_models, capsys):
        """The rho1(z) and rho2(z) lines that info prints, evaluated on each
        random model, give its physical drift and its diffusion profile."""
        printed = {}
        for family in ("I", "II", "III"):
            main(["info", family])
            text = capsys.readouterr().out
            printed[family] = [_printed_profile(text, name) for name in ("rho1", "rho2")]
        for sol in random_models:
            z = interior_points(sol, 50)
            names = dataclasses.asdict(sol.class_params) | {"alpha": sol.alpha, "z": z}
            family = type(sol.class_params).__name__.removeprefix("Class")
            for expr, coefs in zip(printed[family], (_physical_drift(sol), sol.diffusion_coefs)):
                expected = np.polynomial.polynomial.polyval(z, coefs)
                scale = max(map(abs, coefs)) * max(1.0, float(np.abs(z).max())) ** 2
                np.testing.assert_allclose(eval(expr, {"__builtins__": {}}, names), expected,
                                           rtol=1e-12, atol=1e-12 * scale, err_msg=expr)


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
