"""Tests for the command-line scenario runner and its CSV output contract."""

import cmath
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw

import mirrorqed
from mirrorqed import SystemParams, derived_constants, dressed_params, excitation_probability_exact
from mirrorqed import cli
from mirrorqed.cli import _json_safe, _write_table, run


def read_table(path):
    meta_lines = []
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta_lines.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    meta = json.loads("\n".join(meta_lines))
    data = np.array(rows)
    return meta, header, data


def test_excitation_no_mirror_columns_agree(tmp_path):
    out = tmp_path / "exc.csv"
    code = run([
        "excitation", "--tau", "1.0", "--phase", "3.141592653589793",
        "--rm", "0", "--tmax", "5", "--grid", "101", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["t", "P_exact", "P_longtime", "P_markovian"]
    t = data[:, 0]
    for col in (1, 2, 3):
        assert np.max(np.abs(data[:, col] - np.exp(-t))) < 1e-12
    assert meta["scenario"] == "excitation"
    assert meta["params"]["tau"] == 1.0
    assert meta["longtime"]["xi"] == {"re": 0.0, "im": 0.0}


def test_excitation_with_a_mirror_just_past_the_unit_circle_stays_a_probability(tmp_path):
    # r_m was kept at -1.0000000005, so the mirror added norm: P_exact 2.6e144
    # and P_markovian 1.4e217 at t 1e12; as r_m = -1 it sits on the 4/9 plateau
    out = tmp_path / "past.csv"
    code = run([
        "excitation", "--tau", "1", "--phase", "6.283185307179586", "--rm", "-1.0000000005",
        "--tmax", "1e12", "--grid", "3", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert meta["params"]["r_m"] == {"re": -1.0, "im": 0.0}
    assert header == ["t", "P_exact", "P_markovian"]
    assert np.all(data[:, 1:] <= 1.0)
    assert data[-1, 1] == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_excitation_records_longtime_failure(tmp_path):
    out = tmp_path / "trap.csv"
    code = run([
        "excitation", "--tau", "1.0", "--phase", str(2 * math.pi),
        "--rm", "-1", "--tmax", "4", "--grid", "41", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["t", "P_exact", "P_markovian"]  # no long-time column
    assert "Xi0Diverges" in meta["longtime"]["unavailable"]


def test_excitation_writes_longtime_just_inside_the_series_radius(tmp_path):
    # e |a| tau = 0.9999 at phase pi puts a tau just right of -1/e: the
    # prefactor series converges there, and xi0 = 1 / (1 + W_0(a tau))
    r_m = -2 * 0.9999 / math.exp(1.5)  # |a| tau = |r_m| e^{1/2} / 2 at tau 1
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=r_m)
    a = derived_constants(params).a
    assert math.e * abs(a) == pytest.approx(0.9999, rel=1e-12)
    out = tmp_path / "edge.csv"
    code = run([
        "excitation", "--tau", "1", "--phase", "3.141592653589793", f"--rm={r_m!r}",
        "--tmax", "4", "--grid", "41", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["t", "P_exact", "P_longtime", "P_markovian"]
    assert np.all(np.isfinite(data[:, 2]))
    xi0 = complex(meta["longtime"]["xi0"]["re"], meta["longtime"]["xi0"]["im"])
    expected = 1 / (1 + complex(lambertw(a, 0)))
    assert abs(xi0 - expected) <= 1e-9 * abs(expected)


def test_excitation_roundtrip_precision(tmp_path):
    out = tmp_path / "exc.csv"
    run([
        "excitation", "--tau", "1.0", "--phase", "3.141592653589793",
        "--rm", "-1", "--tmax", "3", "--grid", "31", "--out", str(out),
    ])
    meta, header, data = read_table(out)
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=math.pi, r_m=-1)
    expected = excitation_probability_exact(params, data[:, 0])
    # 17 significant digits survive the text round trip bit-for-bit
    assert np.array_equal(data[:, 1], expected)


def test_markovian_metadata_carries_dressed_params(tmp_path):
    out = tmp_path / "markov.csv"
    code = run([
        "markovian", "--tau", "0.01", "--phase", str(math.pi),
        "--rm", "-1", "--tmax", "3", "--grid", "31", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert meta["dressed"]["gamma_eff"] == pytest.approx(2.0)
    assert np.max(np.abs(data[:, 1] - np.exp(-2 * data[:, 0]))) < 1e-12


def test_markovian_infinite_delay_is_config_error(tmp_path, capsys):
    # omega_e tau has no value at tau = inf; this used to write NaN rows
    out = tmp_path / "markov.csv"
    code = run([
        "markovian", "--tau", "inf", "--omega-e", "1", "--rm", "-1",
        "--tmax", "2", "--grid", "3", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_trajectory_step_count_beyond_the_double_range_is_config_error(tmp_path, capsys):
    # t_max / dt = inf has no step count; this used to raise OverflowError
    for command in ("trajectory", "compare"):
        out = tmp_path / f"{command}.csv"
        code = run([command, "--tau", "1", "--phase", "1", "--rm", "-1",
                    "--tmax", "1e308", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("configuration error: t_max / dt must be finite")
        assert not out.exists()


@pytest.mark.parametrize("tmax", ["1e15", "1e300"])
def test_trajectory_step_count_above_the_ceiling_is_config_error(tmp_path, capsys, tmax):
    # these used to die in the run with a MemoryError or OverflowError traceback
    for command in ("trajectory", "compare"):
        out = tmp_path / f"{command}.csv"
        code = run([command, "--tau", "1", "--phase", "1", "--rm", "0",
                    "--tmax", tmax, "--trajectories", "10", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: t_max / dt must be finite and at most")
        assert "Traceback" not in err
        assert not out.exists()


def test_excitation_infinite_delay_omits_markovian_column(tmp_path):
    out = tmp_path / "exc.csv"
    code = run([
        "excitation", "--tau", "inf", "--omega-e", "1", "--rm", "-1",
        "--tmax", "2", "--grid", "3", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["t", "P_exact"]
    assert "finite tau" in meta["markovian"]["unavailable"]
    assert np.allclose(data[:, 1], np.exp(-data[:, 0]), rtol=1e-14, atol=0)


def test_excitation_without_mirror_where_t_over_tau_overflows(tmp_path, capsys):
    # t / tau is inf at the later grid points; with no mirror they take the
    # causal sum, which is the free decay
    out = tmp_path / "exc.csv"
    code = run([
        "excitation", "--tau", "1e-300", "--omega-e", "1", "--rm", "0",
        "--tmax", "1e10", "--grid", "3", "--out", str(out),
    ])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    _, header, data = read_table(out)
    assert header == ["t", "P_exact", "P_longtime", "P_markovian"]
    assert data[:, 1].tolist() == [1.0, 0.0, 0.0]


def test_dressed_sweep(tmp_path):
    out = tmp_path / "dressed.csv"
    code = run(["dressed", "--rm", "-1", "--phase-points", "201", "--out", str(out)])
    assert code == 0
    _, header, data = read_table(out)
    assert header == ["phase", "delta_eff", "gamma_eff"]
    assert data[:, 1].max() == pytest.approx(0.5, abs=1e-2)
    assert data[:, 2].min() == pytest.approx(0.0, abs=1e-2)
    assert data[:, 2].max() == pytest.approx(2.0, abs=1e-2)


@pytest.mark.parametrize("r_m", [-1.0, -0.5, 0.3 - 0.7j, -0.8j])
def test_dressed_sweep_is_dressed_params_bit_for_bit(r_m, tmp_path):
    rm, rm_phase = (abs(r_m), cmath.phase(r_m)) if isinstance(r_m, complex) else (r_m, 0.0)
    out = tmp_path / "dressed.csv"
    assert run(["dressed", "--rm", repr(rm), "--rm-phase", repr(rm_phase),
                "--phase-points", "401", "--out", str(out)]) == 0
    _, _, data = read_table(out)
    # the system as the CLI builds it, one per phase
    mirror = rm * np.exp(1j * rm_phase)
    expected = [dressed_params(SystemParams(omega_e=phase, tau=1.0, r_m=mirror))
                for phase in data[:, 0].tolist()]
    assert data[:, 1].tolist() == [d.delta_eff for d in expected]
    assert data[:, 2].tolist() == [d.gamma_eff for d in expected]


def test_wavepacket_snapshots(tmp_path):
    out = tmp_path / "wp.csv"
    code = run([
        "wavepacket", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-1",
        "--times", "2,4", "--xpoints", "801", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["x", "density_t2", "density_t4"]
    assert meta["times"] == [2.0, 4.0]
    assert np.all(data[:, 1] >= 0)
    # causality: nothing beyond the light cone of the earlier snapshot
    outside = data[:, 0] + 2.0 < 0
    assert np.all(data[outside, 1] == 0.0)


@pytest.mark.parametrize("times", ["2,2", "2,2.0000001", "1e-7,1.00000001e-7"])
def test_wavepacket_column_names_are_distinct(times, tmp_path, capsys):
    # both times used to be written as one header name, density_t2, twice
    out = tmp_path / "wp.csv"
    code = run([
        "wavepacket", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-1",
        "--times", times, "--xpoints", "11", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: snapshot times must have distinct column names"
    )
    assert not out.exists()


def test_wavepacket_peak_normalization(tmp_path):
    out = tmp_path / "wp.csv"
    run([
        "wavepacket", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-1",
        "--times", "3", "--xpoints", "801", "--peak-normalize", "--out", str(out),
    ])
    meta, _, data = read_table(out)
    assert meta["peak_normalize"] is True
    assert data[:, 1].max() == pytest.approx(1.0, abs=1e-12)


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spec.csv"
    code = run([
        "spectrum", "--tau", "1.0", "--omega-e", "5.0", "--rm", "0",
        "--t-final", "40", "--samples", "4096", "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["omega", "spectral_density"]
    peak_omega = data[np.argmax(data[:, 1]), 0]
    assert peak_omega == pytest.approx(5.0, abs=0.2)
    assert meta["grid"]["sample_count"] == 4096


def test_spectrum_bad_sample_count_is_config_error(tmp_path, capsys):
    code = run([
        "spectrum", "--tau", "1.0", "--omega-e", "5.0", "--rm", "0",
        "--samples", "1000", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "power of two" in capsys.readouterr().err


@pytest.mark.parametrize("t_final, samples",
                         [("5e-324", "2"), ("1e-310", "4"), ("1e-305", "16384")])
def test_spectrum_grid_spacing_below_the_normal_range_is_config_error(t_final, samples, capsys):
    code = run(["spectrum", "--tau", "1", "--omega-e", "5", "--rm", "0", "--t-final", t_final,
                "--samples", samples, "--allow-undecayed"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: the grid spacing t_final / sample_count = {float(t_final)} / "
        f"{samples} must be a normal double, so that the largest |omega| = pi sample_count / "
        "t_final is finite\n")


def test_trajectory_subcommand(tmp_path):
    out = tmp_path / "traj.csv"
    code = run([
        "trajectory", "--tau", "1.0", "--phase", str(math.pi), "--rm", "0",
        "--tmax", "2", "--boxes", "7", "--trajectories", "40", "--seed", "9",
        "--out", str(out),
    ])
    assert code == 0
    meta, header, data = read_table(out)
    assert header == ["t", "P_trajectory_mean", "stderr"]
    assert data[0, 1] == 1.0
    assert meta["trajectory"]["master_seed"] == 9


def test_compare_pass_and_reproducible_bytes(tmp_path, capsys):
    args = [
        "compare", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-0.5",
        "--tmax", "3", "--boxes", "9", "--trajectories", "150", "--seed", "3",
        "--tolerance", "0.2",
    ]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, _ = read_table(out1)
    assert header == ["t", "P_exact", "P_trajectory_mean", "stderr"]
    assert meta["summary"]["result"] == "PASS"


def test_compare_splits_discretization_and_sampling_error(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run([
        "compare", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-1", "--tmax", "10",
        "--boxes", "25", "--trajectories", "200", "--seed", "3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    summary = read_table(out)[0]["summary"]
    # the box model alone is 0.0135 off the exact curve at N = 25
    assert summary["discretization_error"] == pytest.approx(0.0135, abs=1e-4)
    assert 0 < summary["sampling_error"] < 0.1
    # |mean - exact| <= |mean - limit| + |limit - exact| at every point
    assert summary["max_abs_deviation"] <= (
        summary["discretization_error"] + summary["sampling_error"]
    )


@pytest.mark.parametrize("system", [
    ["--tau", "1", "--phase", "1", "--rm", "-0.5", "--times", "1e300"],
    ["--tau", "5e-324", "--omega-e", "1", "--rm", "-1", "--times", "1"],
    ["--tau", "1e-300", "--omega-e", "1", "--rm", "0", "--times", "1e10"],
], ids=["t-1e300", "tau-subnormal", "tau-1e-300"])
def test_wavepacket_where_round_trips_leave_the_int64_range(system, tmp_path, capsys):
    # the region count of spatial_profile saturates instead of warning
    out = tmp_path / "wp.csv"
    assert run(["wavepacket", *system, "--xpoints", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_table(out)[2].shape == (3, 2)


def test_trajectory_and_compare_take_a_complex_mirror(tmp_path, capsys):
    # the paper's mirror of coupling J = c, r_m = -0.8i (mirror_coefficients(1))
    system = ["--tau", "1", "--phase", "0.3", "--rm", "0.8", "--rm-phase", str(-math.pi / 2),
              "--boxes", "49", "--trajectories", "5000", "--seed", "42"]
    assert run(["compare", *system, "--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().out.startswith("PASS")
    meta = read_table(tmp_path / "c.csv")[0]
    assert meta["summary"]["max_abs_deviation"] == pytest.approx(0.0045, abs=1e-4)
    assert meta["params"]["r_m"] == {"re": pytest.approx(0.0, abs=1e-16), "im": -0.8}
    # the system sits under "params" alone; the trajectory block holds the settings
    assert meta["trajectory"] == {"boxes": 49, "master_seed": 42, "n_trajectories": 5000,
                                  "t_max": 10.0}
    assert run(["trajectory", *system, "--out", str(tmp_path / "t.csv")]) == 0
    _, header, data = read_table(tmp_path / "t.csv")
    assert header == ["t", "P_trajectory_mean", "stderr"]
    assert data[0, 1] == 1.0


def test_compare_fail_exits_two(tmp_path, capsys):
    code = run([
        "compare", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-0.5",
        "--tmax", "3", "--boxes", "9", "--trajectories", "50", "--seed", "3",
        "--tolerance", "1e-9", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "-1", "-inf"])
def test_compare_tolerance_must_be_non_negative(tolerance, tmp_path, capsys):
    # these used to report a validation FAIL with exit code 2
    out = tmp_path / "c.csv"
    code = run([
        "compare", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-0.5",
        "--tmax", "3", "--boxes", "9", "--trajectories", "50", "--seed", "3",
        "--tolerance", tolerance, "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: --tolerance must be a non-negative")
    assert "FAIL" not in captured.out
    assert not out.exists()


def test_invalid_reflection_is_config_error(tmp_path, capsys):
    code = run([
        "excitation", "--tau", "1.0", "--phase", "1.0", "--rm", "2.0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "r_m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["excitation", "--tau", "1", "--phase", "1", "--rm", "nan"],
        ["excitation", "--tau", "nan", "--phase", "1", "--rm", "-1"],
        ["excitation", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "nan"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2,nan"],
        ["spectrum", "--tau", "1", "--omega-e", "5", "--rm", "0", "--t-final", "nan"],
        ["trajectory", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "nan"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--xmin", "nan"],
    ],
)
def test_nan_input_is_config_error(argv, tmp_path, capsys):
    # NaN used to slip through every check: the mirror was silently dropped
    # or NaN tables were written with exit code 0
    code = run([*argv, "--out", str(tmp_path / "nan.csv")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "nan.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "inf"],
        ["compare", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "inf"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "inf"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2,inf"],
        ["excitation", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "inf"],
        ["spectrum", "--tau", "1", "--omega-e", "5", "--rm", "0", "--t-final", "inf"],
        ["trajectory", "--tau", "inf", "--phase", "1", "--rm", "-1"],
        ["excitation", "--tau", "1", "--omega-e", "inf", "--rm", "-1"],
        ["excitation", "--tau", "1", "--phase", "inf", "--rm", "-1"],
        ["trajectory", "--tau", "1", "--omega-e", "inf", "--rm", "-1", "--tmax", "0.1"],
    ],
)
def test_infinite_input_is_config_error(argv, tmp_path, capsys):
    # these used to die with a traceback or write NaN, zero or Infinity
    # tables with exit code 0
    code = run([*argv, "--out", str(tmp_path / "inf.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "inf.csv").exists()


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-2.5e-1", "-.5e+0"])
def test_negative_value_in_exponent_form_is_a_value(value, tmp_path, capsys):
    # these used to be read as unknown flags: "argument --rm: expected one argument"
    out = tmp_path / "x.csv"
    code = run([
        "excitation", "--tau", "1", "--phase", "1", "--rm", value, "--tmax", "1",
        "--grid", "3", "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    assert read_table(out)[0]["params"]["r_m"]["re"] == float(value)


@pytest.mark.parametrize("xmin", ["-inf", "-Infinity", "-1.5e308", "-nan"])
def test_negative_nonfinite_bound_reaches_the_bound_check(xmin, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run([
        "wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2",
        "--xmin", xmin, "--xmax", "1.5e308", "--xpoints", "3", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: --xmin/--xmax must be finite with a finite span"
    )
    assert not out.exists()


def test_reused_parser_keeps_no_values_between_runs(tmp_path, capsys):
    # run parses every call with the same parser; flags given to one call
    # must not leak into the next as defaults
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run(["excitation", "--tau", "1", "--omega-e", "2", "--rm", "-0.5",
                "--rm-phase", "0.3", "--tmax", "2", "--grid", "5", "--out", str(first)]) == 0
    assert run(["excitation", "--tau", "1", "--phase", "1", "--rm", "-0.5",
                "--out", str(second)]) == 0
    meta, _, data = read_table(second)
    assert len(data) == 2001 and data[-1, 0] == 10.0
    assert meta["params"]["omega_e"] == 1.0
    assert meta["params"]["r_m"] == {"re": -0.5, "im": 0.0}
    assert run(["excitation", "--tau", "1", "--rm", "-0.5"]) == 1
    assert "one of the arguments --omega-e --phase is required" in capsys.readouterr().err


def test_missing_required_flag_is_config_error(capsys):
    code = run(["excitation", "--tau", "1.0", "--rm", "0"])
    assert code == 1
    capsys.readouterr()


def test_value_error_inside_a_runner_is_one_config_error_line(tmp_path, capsys):
    # numpy refuses a 2**62-point grid before it allocates: the ValueError
    # comes from the library call inside the runner, not from a flag check
    out = tmp_path / "x.csv"
    code = run(["excitation", "--tau", "1", "--phase", "1", "--rm", "0",
                "--grid", "4611686018427387904", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("configuration error: array is too big")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


PHASE_OVERFLOW = "omega_e tau must be finite at a finite tau, got omega_e = 1e+308 and tau = 10.0"
REFUSALS = [
    # flag checks of the runners
    ("excitation --tau 1 --phase 1 --rm -1 --grid 1", "--grid must be at least 2 points, got 1"),
    ("dressed --rm -1 --phase-points 1", "--phase-points must be at least 2, got 1"),
    ("dressed --rm -1 --phase-min -1", "--phase-min must be non-negative, got -1.0"),
    ("dressed --rm -1 --phase-min 1 --phase-max 1", "phase grid must be strictly increasing"),
    ("wavepacket --tau 1 --phase 1 --rm -1 --times 2,x",
     "--times must be a comma list of floats, got '2,x'"),
    ("wavepacket --tau 1 --phase 1 --rm -1 --xpoints 1", "--xpoints must be at least 2, got 1"),
    ("wavepacket --tau 1 --phase 1 --rm -1 --xmin 0 --xmax 0",
     "--xmin must be below --xmax, got [0.0, 0.0]"),
    # a round-trip phase with no value: these wrote nan, failed in cmath with
    # "math domain error", or dropped the given phase at tau = inf
    ("markovian --tau 10 --omega-e 1e308 --rm -0.5 --tmax 1 --grid 3", PHASE_OVERFLOW),
    ("excitation --tau 10 --omega-e 1e308 --rm 0 --tmax 1 --grid 3", PHASE_OVERFLOW),
    ("excitation --tau 10 --omega-e 1e308 --rm -0.5", PHASE_OVERFLOW),
    ("wavepacket --tau 10 --omega-e 1e308 --rm -0.5", PHASE_OVERFLOW),
    ("spectrum --tau 10 --omega-e 1e308 --rm -0.5", PHASE_OVERFLOW),
    ("excitation --tau inf --phase 1 --rm -0.5",
     "from_round_trip_phase requires 0 < tau < inf, got inf; pass omega_e directly"),
    # a mirror with no value: these warned in np.exp or in the product and then
    # blamed |r_m|, or ended in a traceback with warnings as errors
    ("excitation --tau 1 --phase 1 --rm -1 --rm-phase inf", "--rm-phase must be finite, got inf"),
    ("excitation --tau 1 --phase 1 --rm -1 --rm-phase nan", "--rm-phase must be finite, got nan"),
    ("excitation --tau 1 --phase 1 --rm inf", "--rm must be finite, got inf"),
    ("dressed --rm -1 --rm-phase nan", "--rm-phase must be finite, got nan"),
    ("dressed --rm -1 --rm-phase -inf", "--rm-phase must be finite, got -inf"),
    ("dressed --rm -inf", "--rm must be finite, got -inf"),
    # a ring of 2 N - 3 emissions whose round trip the step cap never reaches
    ("trajectory --tau 1 --phase 1 --rm -1 --boxes 1048578 --tmax 0.001",
     "one round trip of 2 (boxes - 1) steps must fit in 2097152 steps, got boxes = 1048578"),
]


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[argv for argv, _ in REFUSALS])
def test_refusal_is_one_config_error_line_with_warnings_as_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv.split(), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"configuration error: {message}\n")
    assert not out.exists()


def test_program_fault_inside_a_runner_propagates(monkeypatch, tmp_path):
    # only a ValueError is an input error; a floating-point fault keeps its traceback
    def fault(*args, **kwargs):
        raise FloatingPointError("overflow in the series")

    monkeypatch.setattr(cli, "excitation_curve", fault)
    with pytest.raises(FloatingPointError, match="overflow in the series"):
        run(["excitation", "--tau", "1", "--phase", "1", "--rm", "0",
             "--out", str(tmp_path / "x.csv")])


def test_stdout_output(capsys):
    code = run([
        "excitation", "--tau", "1.0", "--phase", "1.0", "--rm", "0",
        "--tmax", "1", "--grid", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# {")
    assert "P_exact" in out


def test_module_entry_point():
    # the child interpreter imports the same package as this one, installed or not
    package_root = os.path.dirname(os.path.dirname(mirrorqed.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorqed", "excitation", "--tau", "1", "--phase",
         "1.0", "--rm", "0", "--tmax", "1", "--grid", "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# {")
    bad = subprocess.run(
        [sys.executable, "-m", "mirrorqed", "excitation", "--tau", "1", "--phase",
         "1.0", "--rm", "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert bad.returncode == 1
    # a box count that leaves no room between emitter and mirror is a
    # configuration error, reported without a traceback
    no_boxes = subprocess.run(
        [sys.executable, "-m", "mirrorqed", "trajectory", "--tau", "1", "--phase",
         "1", "--rm", "-1", "--boxes", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert no_boxes.returncode == 1
    assert no_boxes.stderr == "configuration error: boxes must be >= 2, got 1\n"


@pytest.mark.parametrize("argv", [
    "excitation --tau 1 --phase 6.283185307179586 --rm -1 --tmax 1e308 --grid 5",
    "excitation --tau 0 --omega-e 5 --rm -0.5 --tmax 1e308 --grid 3",
    "wavepacket --tau 1 --omega-e 5 --rm -0.5 --times 1e308 --xpoints 3",
])
def test_no_nan_where_the_phase_product_overflows_with_warnings_as_errors(argv):
    # |Omega| t past the double range wrote nan with RuntimeWarnings
    package_root = os.path.dirname(os.path.dirname(mirrorqed.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "mirrorqed", *argv.split()],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = np.array([row.split(",") for row in proc.stdout.splitlines()[2:]], dtype=float)
    assert np.isfinite(rows).all()
    if argv.startswith("excitation --tau 1"):
        assert rows[1:, 1].tolist() == [4.0 / 9.0] * 4  # the trapped plateau


def test_probability_at_a_tiny_delay_is_at_most_one_with_warnings_as_errors():
    # the residue plan's W_0 came from exp(log a + log tau), which wrote
    # P_exact 1.00039 at t 5e9 and 1.00079 at t 1e10
    package_root = os.path.dirname(os.path.dirname(mirrorqed.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    argv = "excitation --tau 1e-300 --omega-e 1 --rm -1 --tmax 1e10 --grid 3".split()
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "mirrorqed", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = np.array([row.split(",") for row in proc.stdout.splitlines()[2:]], dtype=float)
    assert rows[:, 0].tolist() == [0.0, 5e9, 1e10]
    assert np.all(rows[:, 1] <= 1.0)


# --- the CSV writer -------------------------------------------------------


def per_value_rows(columns):
    """Rows as the writer once formatted them: one format() call per value."""
    cols = np.broadcast_arrays(*columns)
    return [",".join(format(float(c[i]), ".17g") for c in cols) for i in range(len(cols[0]))]


def written_rows(columns, capsys):
    _write_table(None, {}, ["a"] * len(columns), columns)
    return capsys.readouterr().out.splitlines()[2:]


SPECIAL_VALUES = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, sys.float_info.max,
    -sys.float_info.max, float(2**53 + 1), 0.1, 1 / 3, 1e16, 1e17, 1.5e300,
    123456789012345678.0, -2.5,
]


def test_write_table_special_values_match_per_value_format(capsys):
    values = np.array(SPECIAL_VALUES)
    # every subcommand passes equal-length float64 columns: integers as doubles
    ints = np.array([0, -1, 2**53 + 1, 2**63 - 1, -(2**63), *range(len(values) - 5)])
    columns = [values, ints.astype(float), np.full(values.size, 0.5), np.full(values.size, 3.0)]
    assert written_rows(columns, capsys) == per_value_rows(columns)


def test_write_table_random_bit_patterns_match_per_value_format(capsys):
    rng = np.random.default_rng(20261018)
    values = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64).reshape(2, -1)
    columns = [values[0], values[1]]
    assert written_rows(columns, capsys) == per_value_rows(columns)


def test_write_table_stdout_and_file_bytes_agree(tmp_path, capsys):
    columns = [np.linspace(0, 1, 7), np.array(SPECIAL_VALUES[:7])]
    meta = {"z": complex(1, -0.5), "a": [np.float64(2), np.int64(3)]}
    _write_table(None, meta, ["x", "y"], columns)
    out = tmp_path / "t.csv"
    _write_table(str(out), meta, ["x", "y"], columns)
    assert out.read_bytes() == capsys.readouterr().out.encode("ascii")


# one small run per subcommand and its row count: the spectrum table (512
# values) takes the numpy pass of the writer, the others one '%' over the table
SUBCOMMAND_RUNS = [
    (["excitation", "--tau", "1", "--phase", "3.1", "--rm", "-1", "--tmax", "4",
      "--grid", "21"], 21),
    (["markovian", "--tau", "0.5", "--phase", "1", "--rm", "-0.5", "--tmax", "4",
      "--grid", "21"], 21),
    (["dressed", "--rm", "-1", "--phase-points", "17"], 17),
    (["wavepacket", "--tau", "1", "--phase", "6.2", "--rm", "-1", "--times", "2,3",
      "--xpoints", "33"], 33),
    (["spectrum", "--tau", "1", "--omega-e", "5", "--rm", "-0.5", "--samples", "256",
      "--allow-undecayed"], 256),
    (["trajectory", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "2",
      "--boxes", "5", "--trajectories", "20"], 17),
    (["compare", "--tau", "1", "--phase", "1", "--rm", "-1", "--tmax", "2",
      "--boxes", "5", "--trajectories", "20", "--tolerance", "1"], 17),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMAND_RUNS], ids=lambda v: v[0])
def test_stdout_and_out_file_bytes_agree(argv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run([*argv, "--out", str(out)]) == 0
    summary = capsys.readouterr().out  # the PASS line of compare, empty for the others
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("ascii") + summary


@pytest.mark.parametrize(("argv", "rows"), SUBCOMMAND_RUNS,
                         ids=lambda v: v[0] if isinstance(v, list) else None)
def test_every_field_is_canonical_and_rows_match_grid(argv, rows, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    table = lines[2:]
    assert len(table) == rows
    ncols = len(lines[1].split(","))
    for line in table:
        fields = line.split(",")
        assert len(fields) == ncols
        assert all(format(float(s), ".17g") == s for s in fields), line


def test_large_spectrum_and_wavepacket_tables_match_per_value_format(tmp_path, capsys):
    # 32768 and 16004 values: both tables take the numpy pass of the writer
    spec, wave = tmp_path / "spec.csv", tmp_path / "wave.csv"
    assert run(["spectrum", "--tau", "1", "--omega-e", "5", "--rm", "0",
                "--samples", "16384", "--out", str(spec)]) == 0
    assert run(["wavepacket", "--tau", "1", "--phase", "6.283185307179586", "--rm", "-1",
                "--times", "2,5,10", "--xpoints", "4001", "--out", str(wave)]) == 0
    capsys.readouterr()
    # the decayed emitter's spectrum is the closed form on the FFT frequency grid
    omega = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(16384, d=40.0 / 16384))
    free = mirrorqed.laplace_spectrum(SystemParams(omega_e=5.0, tau=1.0, r_m=0.0 * np.exp(0j)),
                                      omega)
    assert spec.read_text().splitlines()[2:] == per_value_rows([omega, free / free.max()])
    params = SystemParams.from_round_trip_phase(tau=1.0, phase=6.283185307179586,
                                                r_m=-1.0 * np.exp(0j))
    x = np.linspace(-11.0, 0.0, 4001)
    densities = [mirrorqed.spatial_profile(params, t, x, mirrorqed.Direction.LEFT).density
                 for t in (2.0, 5.0, 10.0)]
    assert wave.read_text().splitlines()[2:] == per_value_rows([x, *densities])


# --- strict-JSON headers and finite grid bounds ------------------------------


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    ("argv", "tau", "phase"),
    [
        (["excitation", "--tau", "inf", "--omega-e", "1", "--rm", "-1", "--tmax", "2",
          "--grid", "3"], "inf", "inf"),
        (["excitation", "--tau", "inf", "--omega-e", "0", "--rm", "-1", "--tmax", "2",
          "--grid", "3"], "inf", "nan"),
        (["spectrum", "--tau", "inf", "--omega-e", "5", "--rm", "-1", "--samples", "8"],
         "inf", "inf"),
        (["wavepacket", "--tau", "inf", "--omega-e", "0", "--rm", "-1", "--times", "2",
          "--xpoints", "3"], "inf", "nan"),
    ],
)
def test_nonfinite_metadata_header_is_strict_json(argv, tau, phase, tmp_path):
    # the header used to carry the bare tokens Infinity and NaN
    out = tmp_path / "t.csv"
    assert run([*argv, "--out", str(out)]) == 0
    meta = strict_json(out.read_text().splitlines()[0][2:])
    assert meta["params"]["tau"] == tau
    assert meta["params"]["round_trip_phase"] == phase


def test_json_safe_spells_nonfinite_values_as_strings():
    meta = {"z": complex(math.inf, math.nan), "v": np.array([1.0, -math.inf]),
            "s": np.float64(math.nan), "ok": [0.5, 2, True, None]}
    assert _json_safe(meta) == {"z": {"re": "inf", "im": "nan"}, "v": [1.0, "-inf"],
                                "s": "nan", "ok": [0.5, 2, True, None]}


@pytest.mark.parametrize(
    "argv",
    [
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2",
         "--xmax", "inf", "--xpoints", "3"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2",
         "--xmin=-inf", "--xpoints", "3"],
        ["wavepacket", "--tau", "1", "--phase", "1", "--rm", "-1", "--times", "2",
         "--xmin=-1.5e308", "--xmax", "1.5e308", "--xpoints", "3"],
        ["dressed", "--rm", "-1", "--phase-max", "inf"],
        ["dressed", "--rm", "-1", "--phase-min", "inf"],
        ["dressed", "--rm", "-1", "--phase-max", "nan"],
        ["dressed", "--rm", "-1", "--phase-min", "1.5e308", "--phase-max=-1.5e308"],
    ],
)
def test_nonfinite_grid_bounds_are_config_errors(argv, tmp_path, capsys):
    # an infinite --xmax used to write a table of nan and inf positions with
    # exit code 0; an infinite --phase-max printed numpy warnings before failing
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([*argv, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "finite" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(language):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [body for lang, body in blocks if lang == language]


def readme_commands():
    block = next(b for b in readme_blocks("") if b.startswith("mirrorqed "))
    return [shlex.split(line)[1:] for line in block.splitlines()]


def test_readme_lists_every_subcommand():
    assert sorted(argv[0] for argv in readme_commands()) == sorted(
        ["excitation", "markovian", "dressed", "wavepacket", "spectrum", "trajectory",
         "compare"]
    )


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_runs(argv, tmp_path, capsys):
    # each README line writes its table into tmp_path instead of the working directory
    out = argv.index("--out") + 1
    argv = [*argv[:out], str(tmp_path / argv[out]), *argv[out + 1:]]
    assert run(argv) == 0, capsys.readouterr().err
    assert (tmp_path / Path(argv[out]).name).stat().st_size > 0


def test_readme_python_example_runs(capsys):
    (snippet,) = readme_blocks("python")
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out


# sha256 of the whole output file, header line included; the box model and the
# Philox draws fix every byte for a fixed seed
README_DIGESTS = {
    "trajectory": "806b254d70c884fb420ccf46e1d54df766cb448b4bac0fa8ee27227d41283f7e",
    "compare": "af93d59ebef20e9272e1208c9e72e8b3cdc4a6ffbbe8fca18e5767d259997f8e",
}


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_readme_trajectory_output_bytes_are_pinned(command, tmp_path, capsys):
    (argv,) = [argv for argv in readme_commands() if argv[0] == command]
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert run(argv) == 0
    assert hashlib.sha256(Path(argv[out]).read_bytes()).hexdigest() == README_DIGESTS[command]
