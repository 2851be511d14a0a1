"""The benchmark still runs against the package: its tracer finds every
function it rebinds, and the faults it once showed stay mended.

`bench/spans.py` names, per module, the package functions that a traced run
(`python3 bench/run.py --trace 1`) wraps in spans.  A rename or removal in
the package would crash that run; this test catches it in the test suite.
"""

import os
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/spans.py, imported without leaving their
    environment defaults or search path behind."""
    environ = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import spans
    finally:
        sys.path.remove(str(BENCH))
        os.environ.clear()
        os.environ.update(environ)
    return run, spans


def test_tracer_binds_and_restores_every_name(bench, tmp_path):
    run, spans = bench
    package = run.load_package()
    originals = {
        (module, name): getattr(package[module], name)
        for module, names in spans.BINDINGS.items()
        for name in names
    }
    assert all(callable(fn) for fn in originals.values())
    tracer = spans.Tracer(package)
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(package[module], name).__wrapped__ is fn
        code = package["cli"].run([
            "excitation", "--tau", "1", "--phase", "1", "--rm", "-0.5",
            "--tmax", "2", "--grid", "5", "--out", str(tmp_path / "exc.csv"),
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    for (module, name), fn in originals.items():
        assert getattr(package[module], name) is fn
    metrics = spans.summarize(tracer.take())
    assert metrics["cli.run.ms"] > 0
    assert metrics["analytic.solve_longtime.ms"] > 0


def scenario_check(bench, tmp_path, workload, name):
    """The verdict of scenario `name` of `workload` under the benchmark's own check."""
    run, _ = bench
    workbench = run.scenarios.Workbench(run.load_package(), tmp_path)
    scenarios = run.scenarios.WORKLOADS[workload](workbench, random.Random(1))
    scenario = {s.name: s for s in scenarios}[name]
    return scenario.check(scenario.collect(scenario.call()).data)


@pytest.mark.parametrize("name", ["cancellation-fault", "overflow-fault", "dyson-fault"])
def test_mended_longtime_faults_pass_their_checks(bench, tmp_path, name):
    # the `longtime` workload's fixed-input fault scenarios, judged by the
    # same mpmath oracle checks the benchmark applies
    assert scenario_check(bench, tmp_path, "longtime", name) is None


@pytest.mark.parametrize("name", ["total_photon_norm-0", "total_photon_norm-1", "dyson-0", "dyson-1"])
def test_longtime_norm_and_dyson_scenarios_pass_their_checks(bench, tmp_path, name):
    # the photon-norm quadrature and the Dyson lattice table on the workload
    assert scenario_check(bench, tmp_path, "longtime", name) is None


@pytest.mark.parametrize("workload, name", [
    ("longtime", "excitation-0"), ("longtime", "excitation-4"),
    *(("longtime", f"solve_longtime-{i}") for i in range(6)),
    ("exact-curves", "excitation-0"), ("exact-curves", "excitation-1"),
    *(("exact-curves", f"spectrum-{i}") for i in range(4)),
])
def test_residue_plan_scenarios_pass_their_checks(bench, tmp_path, workload, name):
    # scenarios whose values come from the Lambert-W residue plan or W_0 alone,
    # where the last bits of libm through cmath may differ between platforms;
    # the spectra take their decay guard from it, and cover both spectrum
    # paths: the closed form (spectrum-0 to -2) and the window FFT (-3)
    assert scenario_check(bench, tmp_path, workload, name) is None
