"""Paired perfbench runs of two checkouts, summarised in one BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload btree-grid \\
        --workload skiplist-full --pairs 10 --seconds 30

For each workload and each seed 1..N it runs the checkouts' own, unchanged
``perfbench/run.py --trace 0`` once in each: the parent first at odd seeds,
the change first at even ones, so a slow stretch of the host falls on both
sides alike.  It writes ``BENCH_<n>_<parent sha>.json`` into ``--out-dir``
(default CHANGE_DIR), where ``n`` is one more than the largest ``n`` of the
``BENCH_*.json`` files already there.  Per workload the file holds:

* ``metrics``: each end-to-end metric of the change's ``BENCHMARK.json``,
  every run's value on both sides, the medians and quartiles, the pairs the
  change wins, the ratio of the medians, and whether the gap between the
  medians exceeds the parent's interquartile range;
* ``unscaled``: every run's host-time phase medians over its sweeps and its
  median calibration probe, and per phase the medians and the median ratio
  of the pairs;
* ``checks``: every run's ``correct`` and ``failed``, whether
  ``fingerprints.json`` held its fingerprint, and ``fingerprint_ok``: its
  simulated per-cell fingerprints equal those of the other side's run at
  the same seed.

``--tiny`` is passed through to perfbench.  Bad arguments end in ``error:``
and exit 1 before any run; so does a run that fails, prints nothing, ends
in a line that is not a JSON object, leaves a record missing or leaves out
a key that this summary reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PHASES = ("sweep_s", "build_s", "census_s", "query_script_s", "replay_s")
UNSCALED_NOTE = ("host seconds, not scaled: per run, the median over its sweeps of each "
                 "phase in the .child.json reps, and the run's median calibration probe "
                 "(median_probe_s); lower probe = faster host")


class PairError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PairError(message)


def parse_args(argv):
    p = _Parser(prog="tools/bench_pairs.py", description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of BENCHMARK.json; repeat for several")
    p.add_argument("--pairs", required=True, help="pairs per workload, seeds 1..N")
    p.add_argument("--seconds", required=True, help="perfbench --seconds of each run")
    p.add_argument("--tiny", action="store_true", help="pass --tiny to perfbench")
    p.add_argument("--out-dir", help="where the BENCH file goes (default CHANGE)")
    p.add_argument("--note", help="free text kept in the file")
    p.add_argument("--claim", help="the gain the change claims, kept in the file")
    args = p.parse_args(argv)
    args.parent, args.change = Path(args.parent), Path(args.change)
    for side in (args.parent, args.change):
        for need in ("perfbench/run.py", "src/farloc/cli.py", "BENCHMARK.json"):
            if not (side / need).is_file():
                raise PairError(f"{str(side)!r} is not a farloc checkout: no {need}")
    args.bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in args.bench["workloads"]]
    for w in args.workload:
        if w not in known:
            raise PairError(f"unknown workload {w!r}; choose from " + ", ".join(known))
    if len(set(args.workload)) != len(args.workload):
        raise PairError("a workload is named twice")
    try:
        args.pairs = int(args.pairs)
    except ValueError:
        raise PairError(f"pairs must be an integer, got {args.pairs!r}") from None
    if not 1 <= args.pairs <= 100:
        raise PairError(f"pairs must be in [1, 100], got {args.pairs}")
    try:
        args.seconds = float(args.seconds)
    except ValueError:
        raise PairError(f"seconds must be a number, got {args.seconds!r}") from None
    if not 0 < args.seconds <= 600:
        raise PairError(f"seconds must be in (0, 600], got {args.seconds:g}")
    args.out_dir = Path(args.out_dir) if args.out_dir else args.change
    if not args.out_dir.is_dir() or not os.access(args.out_dir, os.W_OK):
        raise PairError(f"output directory {str(args.out_dir)!r} is not a writable directory")
    args.parent_sha = git_sha(args.parent)
    return args


def git_sha(checkout: Path) -> str:
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short=7", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        raise PairError(f"cannot run git in {str(checkout)!r}: {exc}") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise PairError(f"{str(checkout)!r} is not a git checkout; its commit names the file")
    return done.stdout.strip()


def bench_path(out_dir: Path, parent_sha: str) -> Path:
    taken = [int(m.group(1)) for f in out_dir.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)_\w+\.json", f.name))]
    return out_dir / f"BENCH_{max(taken, default=0) + 1}_{parent_sha}.json"


# the keys the summary reads of a run's result line, run record and child record
RESULT_KEYS = ("correct", "failed", "metrics")
RECORD_KEYS = ("fingerprint_checked", "cpu", "cores", "numpy")
CHILD_KEYS = ("reps", "median_probe_s", "fingerprint")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool,
             metrics) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its result line, its run
    record and its child's record of the sweeps, each checked for the keys
    the summary reads, the ``value`` of each of ``metrics`` included."""
    where = f"{workload} seed {seed} in {str(checkout)!r}"
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as out:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", format(seconds, "g"), "--trace", "0",
               "--out", out] + (["--tiny"] if tiny else [])
        done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise PairError(f"{where} exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise PairError(f"{where} printed nothing")
        what = f"the last line of {where}"
        run = {"result": require(parse_json(lines[-1], what), RESULT_KEYS, what)}
        for name in metrics:
            require(require(run["result"]["metrics"], (name,), f"the metrics of {what}")[name],
                    ("value",), f"metric {name} of {what}")
        tag = f"{workload}-seed{seed}-trace0"
        for key, suffix, keys in (("record", ".json", RECORD_KEYS),
                                  ("child", ".child.json", CHILD_KEYS)):
            path = Path(out) / f"{tag}{suffix}"
            if not path.is_file():
                raise PairError(f"{where} wrote no {path.name}")
            what = f"{path.name} of {where}"
            run[key] = require(parse_json(path.read_text(), what), keys, what)
        reps = run["child"]["reps"]
        if not isinstance(reps, list) or not reps:
            raise PairError(f"the reps of {where} are not a non-empty list")
        for rep in reps:
            require(rep, PHASES, f"a rep of {where}")
        return run


def require(doc, keys, what: str):
    """``doc`` when it is a JSON object holding every one of ``keys``."""
    if not isinstance(doc, dict):
        raise PairError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise PairError(f"{what} has no " + ", ".join(missing))
    return doc


def parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise PairError(f"{what} is not JSON: {text[:80]!r}") from None


def quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def metric_summary(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    p, c = quartiles(parent), quartiles(change)
    return {
        "unit": spec["unit"], "bound": spec["bound"], "parent": p, "change": c,
        "change_wins": sum((cv < pv) if lower else (cv > pv)
                           for pv, cv in zip(parent, change)),
        "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "parent_runs": parent, "change_runs": change,
    }


def unscaled_run(seed: int, run: dict) -> dict:
    reps = run["child"]["reps"]
    return {"seed": seed, "median_probe_s": run["child"]["median_probe_s"],
            "sweeps": len(reps),
            **{k: statistics.median(r[k] for r in reps) for k in PHASES}}


def check_run(seed: int, run: dict, other: dict) -> dict:
    return {"seed": seed, "correct": run["result"]["correct"] is True,
            "failed": run["result"]["failed"],
            "fingerprint_checked": run["record"]["fingerprint_checked"],
            "fingerprint_ok": run["child"]["fingerprint"] == other["child"]["fingerprint"]}


def summarise(args, workload: str, seeds: list[int], runs: dict) -> dict:
    par, chg = runs["parent"], runs["change"]
    metrics = {
        spec["name"]: metric_summary(
            spec, [r["result"]["metrics"][spec["name"]]["value"] for r in par],
            [r["result"]["metrics"][spec["name"]]["value"] for r in chg])
        for spec in args.bench["end_to_end"]}
    up = [unscaled_run(s, r) for s, r in zip(seeds, par)]
    uc = [unscaled_run(s, r) for s, r in zip(seeds, chg)]
    summary = {}
    for k in (*PHASES, "median_probe_s"):
        pv, cv = [r[k] for r in up], [r[k] for r in uc]
        summary[k] = {"parent_median": statistics.median(pv),
                      "change_median": statistics.median(cv),
                      "median_pair_ratio": statistics.median(c / p for p, c in zip(pv, cv)),
                      "change_lower": sum(c < p for p, c in zip(pv, cv))}
    checks = {"parent_runs": [check_run(s, p, c) for s, p, c in zip(seeds, par, chg)],
              "change_runs": [check_run(s, c, p) for s, p, c in zip(seeds, par, chg)]}
    every = checks["parent_runs"] + checks["change_runs"]
    return {
        "seeds": seeds, "seconds": args.seconds, "pairs": len(seeds), "tiny": args.tiny,
        "fingerprint_checked": all(r["fingerprint_checked"] for r in every),
        "all_correct": all(r["correct"] for r in every),
        "failed": {side: sum(r["result"]["failed"] for r in runs[side])
                   for side in ("parent", "change")},
        "metrics": metrics,
        "unscaled": {"note": UNSCALED_NOTE, "summary": summary,
                     "parent_runs": up, "change_runs": uc},
        "checks": checks,
    }


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        path = bench_path(args.out_dir, args.parent_sha)
        seeds = list(range(1, args.pairs + 1))
        workloads, record = {}, None
        for w in args.workload:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    run = run_once(getattr(args, side), w, seed, args.seconds, args.tiny,
                                   [spec["name"] for spec in args.bench["end_to_end"]])
                    runs[side].append(run)
                    record = run["record"]
                    print(f"{w} seed {seed} {side}: correct {run['result']['correct']}",
                          file=sys.stderr, flush=True)
            workloads[w] = summarise(args, w, seeds, runs)
        doc = {
            "what": "paired perfbench runs, parent vs change; perfbench run with --trace 0 "
                    "and --out outside the checkout, each side from its own tree",
            "parent_commit": args.parent_sha,
            "change_commit": "the commit that adds this file",
            "made": time.strftime("%Y-%m-%dT%H:%MZ", time.gmtime()),
            "order": "seed odd: parent then change; seed even: change then parent",
            "note": args.note,
            "workloads": workloads,
            "host": {"cpu": record["cpu"], "cores": record["cores"],
                     "python": platform.python_version(), "numpy": record["numpy"]},
            "claim": args.claim,
        }
        path.write_text(json.dumps(doc, indent=1) + "\n")
    except PairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
