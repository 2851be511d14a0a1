"""The CSV row writer against the per-value '%.17g' it reproduces byte for byte."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorqed
from mirrorqed import _table
from mirrorqed._table import BLOCK_VALUES, SMALL_TABLE, format_rows


def per_value(table):
    """Rows as one '%.17g' per value writes them."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def assert_rows_match(table):
    table = np.asarray(table, dtype=float)
    got = format_rows([table[:, j] for j in range(table.shape[1])]).decode("ascii")
    assert got.split("\n") == per_value(table).split("\n")


def assert_both_paths(values):
    """The values as small one-column tables and inside a two-column table
    past the crossover, which the numpy pass writes."""
    values = np.asarray(values, dtype=float).ravel()
    for start in range(0, values.size, SMALL_TABLE - 1):
        assert_rows_match(values[start:start + SMALL_TABLE - 1, None])
    rows = max(-(-values.size // 2), SMALL_TABLE // 2 + 1)
    assert_rows_match(np.resize(values, (rows, 2)))


def ulp_neighbours(values, reach=2):
    """Each positive finite value and the doubles up to `reach` ulps either side."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-reach, reach + 1)).ravel().view(np.float64)


FAST_EXPONENTS = range(-250, 250)
POWERS_OF_TEN = [float(f"1e{k}") for k in FAST_EXPONENTS]
# the largest doubles that round down to 9.9999999999999999e+k, and the
# smallest that round up to 1e+(k+1), sit either side of these
ROUND_UP = [float(f"9.99999999999999995e{k}") for k in FAST_EXPONENTS]
# odd m near 2**53 over 2**s: 17 digits are exact for s = 1 and end exactly
# halfway for s = 2
TIES = [(2**53 - m) / 2**s for m in range(1, 400, 2) for s in range(1, 5)]
SPECIAL = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max,
    1e-250, np.nextafter(1e-250, 0), 1e250, np.nextafter(1e250, 0), 1e-300, 1e300,
    1e-99, 1e-100, 1e99, 1e100, 1.5e-5, 1.5e-4, 1.5e16, 1.5e17,
]


def test_ties_are_rounded_half_to_even():
    assert "%.17g" % ((2**53 - 1) / 4) == "2251799813685247.8"
    assert "%.17g" % ((2**53 - 3) / 4) == "2251799813685247.2"
    assert_both_paths(TIES)


@pytest.mark.parametrize("sign", [1, -1])
def test_every_power_of_ten_and_its_neighbours(sign):
    assert_both_paths(sign * ulp_neighbours(POWERS_OF_TEN))


@pytest.mark.parametrize("sign", [1, -1])
def test_round_up_boundaries(sign):
    assert_both_paths(sign * ulp_neighbours(ROUND_UP))


def test_fixed_and_exponent_forms_either_side_of_the_switch():
    switch = ulp_neighbours([1e-5, 1e-4, 1e16, 1e17], reach=3)
    assert_both_paths(np.concatenate([switch, -switch]))


def test_special_values_subnormals_and_long_exponents():
    tiny = np.array([5e-324, 1e-310, 2.2e-308, 1e-320])
    values = np.concatenate([SPECIAL, -np.array(SPECIAL), tiny, -tiny])
    assert_both_paths(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_doubles_match_per_value_format(values):
    assert_both_paths(values)


def mixed_table(rows, ncols, seed=0):
    """Doubles of every decade in the fast range, random bit patterns and special values."""
    rng = np.random.default_rng(seed)
    size = rows * ncols
    decades = rng.uniform(-10, 10, size) * 10.0 ** rng.integers(-250, 250, size)
    bits = np.frombuffer(rng.bytes(8 * size), dtype=np.float64)
    values = np.where(rng.random(size) < 0.8, decades, bits)
    if size:
        values[rng.integers(0, size, 20)] = rng.choice(SPECIAL, 20)
    return values.reshape(rows, ncols)


# nan, -inf, a value outside the fast range and an exact tie: each goes to
# '%.17g' in place, also in the first and the last slot of a block
SLOW_VALUES = [math.nan, -math.inf, 1e300, (2**53 - 1) / 4]


def block_rows(ncols):
    """Rows per numpy block: whole rows, at most BLOCK_VALUES values unless one row is more."""
    return max(BLOCK_VALUES // ncols, 1)


def counted_blocks(monkeypatch):
    """The (values, ncols) of every `_format_block` call from now on."""
    blocks = []
    format_block = _table._format_block
    monkeypatch.setattr(_table, "_format_block", lambda *a: blocks.append(a) or format_block(*a))
    return blocks


@pytest.mark.parametrize(
    ("rows", "ncols"),
    [
        (0, 1), (0, 4),
        (SMALL_TABLE - 1, 1), (SMALL_TABLE, 1), (SMALL_TABLE + 1, 1),
        # a block's rows, one row either side of that, and a third block of one row
        *((rows, ncols) for ncols in range(1, 6)
          for rows in (block_rows(ncols) - 1, block_rows(ncols), block_rows(ncols) + 1,
                       2 * block_rows(ncols) + 1)),
        # rows wider than a block: one row per block
        (3, BLOCK_VALUES + 1),
    ],
)
def test_tables_at_the_crossover_and_block_edges(rows, ncols, monkeypatch):
    blocks = counted_blocks(monkeypatch)
    table = mixed_table(rows, ncols)
    size = table.size
    step = block_rows(ncols) * ncols
    edges = [k for start in range(0, size, step) for k in (start, min(start + step, size) - 1)]
    table.ravel()[edges] = np.resize(SLOW_VALUES, len(edges))
    assert_rows_match(table)
    expected = 0 if size < SMALL_TABLE else -(-rows // block_rows(ncols))
    assert len(blocks) == expected
    assert all(block.size % ncols == 0 and n == ncols for block, n in blocks)
    assert all(block.size <= max(BLOCK_VALUES, ncols) for block, _ in blocks)


# The shapes of the tables the benchmark's CLI runs write, and the blocks each
# took when blocks were cut every BLOCK_VALUES values: cutting at whole rows
# keeps every count
@pytest.mark.parametrize(
    ("rows", "ncols", "expected"),
    [
        (2001, 3, 2), (2001, 4, 2), (4001, 4, 4), (16384, 2, 8),
        (2001, 2, 1), (401, 3, 1), (248, 3, 1), (248, 4, 1), (201, 3, 1), (201, 4, 1),
        (61, 4, 0), (61, 3, 0), (49, 4, 0), (49, 3, 0),
    ],
)
def test_bench_tables_keep_their_block_counts(rows, ncols, expected, monkeypatch):
    blocks = counted_blocks(monkeypatch)
    table = mixed_table(rows, ncols, seed=rows)
    assert_rows_match(table)
    assert len(blocks) == expected
    assert expected == (0 if table.size < SMALL_TABLE else -(-table.size // BLOCK_VALUES))


def test_importing_the_cli_leaves_out_exact_arithmetic_modules():
    package_root = os.path.dirname(os.path.dirname(mirrorqed.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = "import sys, mirrorqed.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
