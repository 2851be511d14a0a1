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


@pytest.mark.parametrize("name", ["cancellation-fault", "overflow-fault", "dyson-fault"])
def test_mended_longtime_faults_pass_their_checks(bench, tmp_path, name):
    # the `longtime` workload's fixed-input fault scenarios, judged by the
    # same mpmath oracle checks the benchmark applies
    run, _ = bench
    workbench = run.scenarios.Workbench(run.load_package(), tmp_path)
    scenario = {s.name: s for s in run.scenarios.longtime(workbench, random.Random(1))}[name]
    assert scenario.check(scenario.collect(scenario.call()).data) is None
