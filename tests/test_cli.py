"""Tests for the command-line scenario runner and its CSV output contract."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import lambertw

import mirrorqed
from mirrorqed import SystemParams, derived_constants, excitation_probability_exact
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


def test_dressed_sweep(tmp_path):
    out = tmp_path / "dressed.csv"
    code = run(["dressed", "--rm", "-1", "--phase-points", "201", "--out", str(out)])
    assert code == 0
    _, header, data = read_table(out)
    assert header == ["phase", "delta_eff", "gamma_eff"]
    assert data[:, 1].max() == pytest.approx(0.5, abs=1e-2)
    assert data[:, 2].min() == pytest.approx(0.0, abs=1e-2)
    assert data[:, 2].max() == pytest.approx(2.0, abs=1e-2)


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


def test_compare_fail_exits_two(tmp_path, capsys):
    code = run([
        "compare", "--tau", "1.0", "--phase", str(math.pi), "--rm", "-0.5",
        "--tmax", "3", "--boxes", "9", "--trajectories", "50", "--seed", "3",
        "--tolerance", "1e-9", "--out", str(tmp_path / "c.csv"),
    ])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


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
    ints = np.array([0, -1, 2**53 + 1, 2**63 - 1, -(2**63), *range(len(values) - 5)])
    columns = [values, ints, np.float64(0.5), 3]  # the last two are broadcast
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


@pytest.mark.parametrize(
    ("argv", "rows"),
    [
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
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
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
