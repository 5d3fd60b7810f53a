"""tools/bench_pairs.py: argument errors and the name of the file it writes.
A real pair of runs is slow; CI runs one tiny pair."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("args", [
    [],
    [".", "."],
    ["no-such-dir", ".", "--workload", "btree-grid", "--pairs", "1", "--seconds", "1"],
    [".", ".", "--workload", "no-such-workload", "--pairs", "1", "--seconds", "1"],
    [".", ".", "--workload", "btree-grid", "--workload", "btree-grid",
     "--pairs", "1", "--seconds", "1"],
    [".", ".", "--workload", "btree-grid", "--pairs", "0", "--seconds", "1"],
    [".", ".", "--workload", "btree-grid", "--pairs", "x", "--seconds", "1"],
    [".", ".", "--workload", "btree-grid", "--pairs", "1", "--seconds", "0"],
    [".", ".", "--workload", "btree-grid", "--pairs", "1", "--seconds", "x"],
    [".", ".", "--workload", "btree-grid", "--pairs", "1", "--seconds", "1",
     "--out-dir", "no-such-dir"],
])
def test_bad_arguments_fail_before_any_run(args):
    done = subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "seed" not in done.stderr      # no run reported progress


def test_the_file_number_follows_the_largest_one_there(tmp_path):
    tool = load_tool()
    assert tool.bench_path(tmp_path, "abc1234").name == "BENCH_1_abc1234.json"
    for name in ("BENCH_9_0000000.json", "BENCH_17_b158ba6.json", "BENCH_x_y.json"):
        (tmp_path / name).write_text("{}")
    assert tool.bench_path(tmp_path, "abc1234").name == "BENCH_18_abc1234.json"
