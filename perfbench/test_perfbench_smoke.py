"""Smoke test of the benchmark at tiny scale.

Checks that a run prints every metric ``BENCHMARK.json`` names, with its
unit, that a wrong query answer is counted as a failure, and that bad
arguments fail fast with ``error:`` and exit 1.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, workload, section", [
    ("0", "replay-writes", "end_to_end"),
    ("1", "skiplist-full", "per_layer"),
])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace, workload, section):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--tiny", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "1":
        assert result["metrics"]["cli.builds_per_cell"]["value"] == 1.0
        events = json.loads((tmp_path / f"{workload}-seed3-trace1.trace.json").read_text())
        assert {e["name"] for e in events["traceEvents"]} >= {"cli.cell", "workload.build"}
        assert (tmp_path / f"{workload}-seed3-trace1-self-times.md").is_file()


def test_a_corrupted_scan_result_counts_as_failed(tmp_path, monkeypatch):
    from farloc.containers import BTree
    scan = BTree.scan
    calls = []

    def corrupt_tenth(self, key, length):
        out = scan(self, key, length)
        calls.append(key)
        if len(calls) == 10:
            k, v = out[0]
            out[0] = (k, bytes(len(v)))
        return out
    monkeypatch.setattr(BTree, "scan", corrupt_tenth)
    spec = {"workload": "replay-writes", "seed": 0, "tiny": True,
            "csv": str(tmp_path / "sweep.csv"), "trace_prefix": str(tmp_path / "t")}
    result = harness.traced_child(spec)
    assert result["failed"] == 1
    assert result["metrics"]["fail_ratio"] == 1 / result["attempted"]


@pytest.mark.parametrize("args", [
    ["--workload", "no-such-workload", "--seed", "0"],
    ["--workload", "btree-grid", "--seed", "-1"],
    ["--workload", "btree-grid", "--seed", "zero"],
])
def test_bad_arguments_fail_fast(args):
    done = bench(*args, "--seconds", "1", "--trace", "0")
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stdout == ""


def test_unwritable_output_path_fails_fast(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    done = bench("--workload", "btree-grid", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--out", str(blocker / "out"))
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stdout == ""


def test_without_the_source_tree_it_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "btree-grid", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stdout == ""
