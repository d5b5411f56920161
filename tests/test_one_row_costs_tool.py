"""``tools/one_row_costs.py`` runs end to end, this tree on both sides, for one short round."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL_PATH = ROOT / "tools" / "one_row_costs.py"
spec = importlib.util.spec_from_file_location("one_row_costs_tool", TOOL_PATH)
one_row_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(one_row_costs)


def test_one_round_on_this_tree_prints_every_function_once():
    proc = subprocess.run(
        [sys.executable, str(TOOL_PATH), str(ROOT), str(ROOT), "--rounds", "1", "--number", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:3] == ["function", "parent", "us"]
    assert [line[:40].strip() for line in lines] == list(one_row_costs.FUNCTIONS)
    for line in lines:
        parent_us, parent_iqr, change_us, change_iqr, delta_us, verdict = line[40:].split()
        assert float(parent_us) > 0 and float(change_us) > 0 and verdict in ("ok", "SLOWER")
        assert float(parent_iqr) == 0 and float(change_iqr) == 0  # one round has no spread


def test_the_spread_is_the_interquartile_range_of_the_rounds():
    assert one_row_costs.iqr([5.0]) == 0.0
    assert one_row_costs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_the_bound_is_three_percent_or_a_third_of_a_microsecond():
    assert one_row_costs.within(10.0, 10.29) and not one_row_costs.within(10.0, 10.31)
    assert one_row_costs.within(100.0, 103.0) and not one_row_costs.within(100.0, 103.1)
