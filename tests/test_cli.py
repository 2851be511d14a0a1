"""Tests for the command-line scenario runner and its CSV output contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mirrorqed
from mirrorqed import SystemParams, excitation_probability_exact
from mirrorqed.cli import run


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
