"""tools/bench_pairs.py: argument errors, runs that go wrong and the name of
the file it writes.  A real pair of runs is slow; CI runs one tiny pair.
The runs that go wrong come from fake checkouts, whose ``perfbench/run.py``
prints and writes only what a case asks for."""
import importlib.util
import shutil
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


FAKE_RUN = """\
import argparse, pathlib
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace", "--out"):
    p.add_argument(name)
a, _ = p.parse_known_args()
tag = pathlib.Path(a.out) / f"{a.workload}-seed{a.seed}-trace{a.trace}"
for suffix in WRITES:
    tag.with_name(tag.name + suffix).write_text("{}")
print(LINE, end="")
"""


def fake_checkout(root: Path, line: str, writes: tuple[str, ...]) -> Path:
    """A git checkout with this repo's BENCHMARK.json whose perfbench run
    prints ``line`` and writes the records named by ``writes``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "farloc").mkdir(parents=True)
    (root / "src" / "farloc" / "cli.py").write_text("")
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "perfbench" / "run.py").write_text(
        f"WRITES = {writes!r}\nLINE = {line!r}\n" + FAKE_RUN)
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "fake"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    return root


GOOD_LINE = '{"correct": true, "failed": 0}\n'


@pytest.mark.parametrize("line, writes", [
    ("", (".json", ".child.json")),
    ("not json\n", (".json", ".child.json")),
    ("[1, 2]\n", (".json", ".child.json")),
    (GOOD_LINE, (".child.json",)),
    (GOOD_LINE, (".json",)),
    ("{}\n", (".json", ".child.json")),
    (GOOD_LINE, (".json", ".child.json")),
], ids=["silent", "not-json", "not-object", "no-record", "no-child-record", "empty-objects",
        "no-metrics"])
def test_a_run_that_goes_wrong_ends_in_error(tmp_path, line, writes):
    checkout = fake_checkout(tmp_path / "checkout", line, writes)
    out = tmp_path / "out"
    out.mkdir()
    done = subprocess.run(
        [sys.executable, str(TOOL), str(checkout), str(checkout), "--workload", "btree-grid",
         "--pairs", "1", "--seconds", "1", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
    assert not list(out.iterdir())
