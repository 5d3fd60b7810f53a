"""farloc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload btree-grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload is one ``farloc``
sweep (see ``workloads.py``), run in a fresh child process with
``FARLOC_THREADS=1`` and ``src`` on the import path.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median over
several fresh processes of the time from process start to the first cell,
scaled to a reference speed by numpy-only processes started between them;
the other metrics come from repeating the sweep until ``--seconds`` are
spent (at least ``MIN_REPS`` times).  Each sweep's times are scaled to a
reference host speed by a calibration loop probed between its phases; a
phase time is the median over the sweeps, and the query percentiles are
over each query's median time over the sweeps.  ``--trace 1`` runs one untraced
sweep and one traced sweep, then the layer microbenchmarks, and reports the
per-layer metrics; it also writes a trace-event JSON and a self-time table.

Every result is checked: each query's answer against an independent model,
each cell's CSV rows against its report, and, where one is recorded in
``fingerprints.json``, each cell's simulated fingerprint.  The last line of
standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from harness import monotonic  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# a process that only imports numpy, on the baseline host when
# harness.calibrate takes harness.REFERENCE_PROBE_S: the start-up speed
# setup_s is scaled to
REFERENCE_START_S = 0.09
MIN_REPS = 3
DEADLINE_S = 170.0
MAX_SEED = 2**63 - 1


class BenchError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BenchError(message)


def parse_args(argv):
    p = _Parser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help=", ".join(WORKLOADS))
    p.add_argument("--seed", required=True, help="non-negative integer")
    p.add_argument("--seconds", required=True, help="measuring time per run")
    p.add_argument("--trace", default="0", help="0: end-to-end metrics, 1: per-layer")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for CSVs, the run record and traces")
    p.add_argument("--tiny", action="store_true",
                   help="shrink every sweep to about a second (smoke test)")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         + ", ".join(WORKLOADS))
    try:
        args.seed = int(args.seed)
    except ValueError:
        raise BenchError(f"seed must be an integer, got {args.seed!r}") from None
    if not 0 <= args.seed <= MAX_SEED:
        raise BenchError(f"seed must be in [0, 2**63 - 1], got {args.seed}")
    try:
        args.seconds = float(args.seconds)
    except ValueError:
        raise BenchError(f"seconds must be a number, got {args.seconds!r}") from None
    if not 0 < args.seconds <= 600:
        raise BenchError(f"seconds must be in (0, 600], got {args.seconds:g}")
    if args.trace not in ("0", "1"):
        raise BenchError(f"trace must be 0 or 1, got {args.trace!r}")
    args.trace = args.trace == "1"
    return args


def check_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write-check"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise BenchError(f"output directory {str(path)!r} is not writable: {exc}") from None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["FARLOC_THREADS"] = "1"
    return env


class Runner:
    """Starts the harness in child processes, each bounded by one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the run finished")
        return left

    def run(self, args: list[str]) -> subprocess.CompletedProcess:
        return self.run_plain([sys.executable, str(HERE / "harness.py"), *args])

    def run_plain(self, cmd: list[str]) -> subprocess.CompletedProcess:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise BenchError("a benchmark child process ran past the deadline") from None
        if done.returncode != 0:
            raise BenchError(f"benchmark child process exited with {done.returncode}")
        return done

    def numpy_start_s(self) -> float:
        """Host time of a process that only imports numpy: how fast the host
        starts processes and loads modules right now.  It tracks the set-up
        of a sweep (see ``README.md``) and runs no ``farloc`` code."""
        t0 = time.perf_counter()
        self.run_plain([sys.executable, "-c", "import numpy"])
        return time.perf_counter() - t0

    def setup_s(self, spec: dict) -> tuple[list[float], list[float]]:
        """Process start to first cell, in fresh processes, and a
        :meth:`numpy_start_s` before each."""
        samples, starts = [], []
        for _ in range(SETUP_PROBES):
            starts.append(self.numpy_start_s())
            t0 = monotonic()
            done = self.run(["probe", json.dumps(spec)])
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["first_cell"] - t0)
        return samples, starts

    def sweep(self, spec: dict, result: Path) -> dict:
        result.unlink(missing_ok=True)
        self.run(["sweep", json.dumps(spec), str(result)])
        return json.loads(result.read_text())


def stamp(args, wl) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    farloc_args = wl.farloc_args(args.seed, "sweep.csv")
    return {
        "workload": wl.name, "seed": args.seed, "tiny": args.tiny,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cores": os.cpu_count(),
        "cpu": cpu, "commit": commit,
        "command": "FARLOC_THREADS=1 PYTHONPATH=src python3 -m farloc.cli "
                   + shlex.join(farloc_args),
        "farloc_command": shlex.join(["farloc", *farloc_args]),
    }


def recorded_fingerprint(workload: str, seed: int, tiny: bool):
    if tiny:
        return None
    table = json.loads((HERE / "fingerprints.json").read_text())
    return table.get(workload, {}).get(str(seed))


def end_to_end(runner: Runner, spec: dict, out: Path, tag: str) -> tuple[dict, dict]:
    setup, starts = runner.setup_s(spec)
    res = runner.sweep({**spec, "budget_s": spec["seconds"], "min_reps": MIN_REPS},
                       out / f"{tag}.child.json")
    # The host switches between speed modes for seconds at a time, in and
    # across runs; raw times follow the modes, scaled times do not.
    scaled = res["scaled"]
    for kind in ("scan", "update"):
        if scaled[kind]["p99_us"] is None:
            raise BenchError(f"only {scaled[kind]['n']} {kind} queries: a p99 needs 1000")
    metrics = {
        "setup_s": (statistics.median(setup) * REFERENCE_START_S
                    / statistics.median(starts), "s"),
        "sweep_s": (scaled["sweep_s"], "s"),
        "build_s": (scaled["build_s"], "s"),
        "census_s": (scaled["census_s"], "s"),
        "replay_s": (scaled["replay_s"], "s"),
        "scan_p50_us": (scaled["scan"]["p50_us"], "us"),
        "scan_p99_us": (scaled["scan"]["p99_us"], "us"),
        "update_p50_us": (scaled["update"]["p50_us"], "us"),
        "update_p99_us": (scaled["update"]["p99_us"], "us"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = {"setup_samples_s": setup,
              "numpy_start_samples_s": starts,
              "sweeps": len(res["reps"]),
              "speed_probes": res["speed_probes"],
              "median_probe_s": res["median_probe_s"],
              "samples": {"scan": scaled["scan"]["n"], "update": scaled["update"]["n"]},
              **{k: res[k] for k in ("reps", "query_wrap_overhead_ns",
                                     "query_wrap_share", "numpy", "notes",
                                     "attempted", "failed")}}
    return metrics, detail


def per_layer(runner: Runner, spec: dict, out: Path, tag: str) -> tuple[dict, dict]:
    plain = runner.sweep({**spec, "budget_s": 0}, out / f"{tag}.untraced.json")
    traced = runner.sweep({**spec, "trace": True, "trace_prefix": str(out / tag)},
                          out / f"{tag}.traced.json")
    m = traced["metrics"]
    m["trace_overhead_ratio"] = traced["sweep_s"] / plain["reps"][0]["sweep_s"]
    m["bench.query_wrap_share"] = plain["query_wrap_share"]
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    if traced["fingerprint"] != plain["fingerprint"]:
        failed += 1
        attempted += 1
        traced["notes"].append("tracing changed the simulated fingerprint")
    m["fail_ratio"] = failed / attempted
    detail = {"attempted": attempted, "failed": failed,
              "notes": plain["notes"] + traced["notes"], "numpy": plain["numpy"],
              "untraced_sweep_s": plain["reps"][0]["sweep_s"],
              "traced_sweep_s": traced["sweep_s"]}
    return {k: (v, unit_of(k)) for k, v in m.items()}, detail


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ns") or last == "ns_per_call":
        return "ns"
    if last in ("s", "self_s"):
        return "s"
    if last in ("calls", "pages", "page_touches", "hits", "swap_ins", "write_backs",
                "nodes", "links", "cells", "builds"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    t_start = time.monotonic()
    try:
        args = parse_args(argv)
        if not (ROOT / "src" / "farloc" / "cli.py").is_file():
            raise BenchError(f"no farloc source tree under {ROOT / 'src'}; run from a "
                             "checkout of the repository")
        out = Path(args.out)
        check_out_dir(out)
        wl = (TINY if args.tiny else WORKLOADS)[args.workload]
        tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
        spec = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                "seconds": args.seconds, "csv": str(out / f"{tag}.csv"),
                "expected": recorded_fingerprint(args.workload, args.seed, args.tiny)}
        runner = Runner(t_start + DEADLINE_S)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, spec, out, tag)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {**stamp(args, wl), "numpy": detail.pop("numpy"),
              "fingerprint_checked": spec["expected"] is not None,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"# farloc benchmark {tag}: {record['command']}")
    print(f"# python {record['python']}, numpy {record['numpy']}, {record['cores']} cores, "
          f"{record['cpu']}, commit {record['commit']}")
    if "samples" in detail:
        print(f"# {detail['sweeps']} sweeps scaled to reference speed by "
              f"{detail['speed_probes']} speed probes; percentiles over "
              f"{detail['samples']['scan']} scans and {detail['samples']['update']} updates")
    for note in detail["notes"]:
        print(f"# FAILED: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps({"correct": detail["failed"] == 0, "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
