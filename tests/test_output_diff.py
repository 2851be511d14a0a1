"""`tools/output_diff.py`: how it reports the bench outputs two trees write.

The trees themselves are not run here (each run takes seconds per seed); the
report is fed verdicts and output files made up for the purpose.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
spec = importlib.util.spec_from_file_location("output_diff", TOOL)
output_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_diff)


def test_moved_counts_numbers_and_the_largest_relative_move():
    base = b'# {"x": 1.5}\nt,P\n0,1\n0.5,0.25\n1,1e-20\nexit 0\n'
    head = b'# {"x": 1.5}\nt,P\n0,1\n0.5,0.25000000000000006\n1,1.1e-20\nexit 0\n'
    assert output_diff.moved(base, head) == (
        "2 of 8 numbers moved, largest relative move 0.1 (from 1e-20)")
    # the same value written another way counts as moved, by 0
    assert output_diff.moved(b"(-0+1j)", b"(0+1j)") == (
        "1 of 2 numbers moved, largest relative move 0 (from 0)")


def test_moved_reports_a_change_of_layout():
    assert output_diff.moved(b"t,P\n0,1\n", b"t,P,Q\n0,1,2\n") == "layout differs"
    assert output_diff.moved(b"raised ValueError('x')", b"1.0") == "layout differs"


def test_report_lists_moved_outputs_and_scenarios_in_one_tree(tmp_path):
    outputs = {side: tmp_path / side for side in ("base", "head")}
    blobs = {
        "base": {"w/1/same": b"1,2", "w/1/moved": b"1,2", "w/1/gone": b"3"},
        "head": {"w/1/same": b"1,2", "w/1/moved": b"1,2.5", "w/1/new": b"4"},
    }
    for side, files in blobs.items():
        for key, blob in files.items():
            (outputs[side] / key).parent.mkdir(parents=True, exist_ok=True)
            (outputs[side] / key).write_bytes(blob)
    verdicts = {
        "base": {"w/1/same": None, "w/1/moved": None, "w/1/gone": None},
        "head": {"w/1/same": None, "w/1/moved": "P off by 0.25", "w/1/new": None},
    }
    assert output_diff.report(verdicts, outputs) == [
        "differs  w/1/moved: 1 of 2 numbers moved, largest relative move 0.25 (from 2); "
        "check base pass, head FAIL (P off by 0.25)",
        "only in base  w/1/gone: check pass",
        "only in head  w/1/new: check pass",
        "1 of 2 outputs in both trees differ; 2 in one tree only; failing checks: "
        "base 0, head 1",
    ]
