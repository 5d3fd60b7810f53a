"""Benchmark sweep driver.

Runs one benchmark cell per point of the Cartesian product
variant x L x alpha x update-ratio and writes CSV:

* swaps report: measurement-phase swap-in / write-back counts per cell
* links report: structural-link composition ratios per cell

The sweep groups its cells by build key (``workload.build_key``), and these
groups are the whole plan: each group runs in its own ``PlacementReuse``
scope, handed the group's cells; that class's docstring states what a scope
builds, keeps and replays.  With one worker the groups run one after
another in this process; FARLOC_THREADS > 1 maps them over a process pool
of at most one worker per group and per CPU this process may run on.
Either way rows come back in sweep order.  When a key's cells are not
contiguous in the sweep (a repeated ``--l-percent``), they still run
together, so the cells run in group order, not sweep order.  The output
paths, FARLOC_THREADS and every cell are checked before the first build.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from .farmem import ConfigError, FarlocError
from .workload import (VARIANTS, BenchConfig, BenchReport, PlacementReuse,
                       build_key, run_benchmark)

SWAPS_HEADER = ["variant", "L_percent", "alpha", "update_ratio",
                "page_size", "num_queries", "swap_ins", "write_backs"]
LINKS_HEADER = ["variant", "L_percent", "purely_local_ratio",
                "in_page_ratio", "cross_page_ratio"]


@dataclass(frozen=True)
class SweepSpec:
    variants: tuple[str, ...]
    l_percents: tuple[float, ...]
    alphas: tuple[float, ...]
    update_ratios: tuple[float, ...]
    base: BenchConfig

    def cells(self) -> list[BenchConfig]:
        return [
            replace(self.base, variant=v, l_percent=l, alpha=a, update_ratio=u)
            for v in self.variants
            for l in self.l_percents
            for a in self.alphas
            for u in self.update_ratios
        ]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="farloc",
        description="Sweep placement variants over a key-value swap benchmark "
                    "and report swap traffic or link composition as CSV.")
    p.add_argument("--variant", action="append", choices=sorted(VARIANTS),
                   metavar="NAME",
                   help="container/placement variant, repeatable "
                        f"(default: plain; one of {', '.join(sorted(VARIANTS))})")
    p.add_argument("--l-percent", action="append", type=float, metavar="PCT",
                   help="local-memory budget as %% of data size, repeatable "
                        "(default: 50)")
    p.add_argument("--alpha", action="append", type=float, metavar="A",
                   help="Zipfian skew of query keys, repeatable (default: 0.8)")
    p.add_argument("--update-ratio", action="append", type=float, metavar="U",
                   help="fraction of Update queries, repeatable (default: 0.05)")
    p.add_argument("--data-bytes", type=int, default=16 * 1024 * 1024,
                   help="total key-value data size (default: %(default)s)")
    p.add_argument("--value-size", type=int, default=150,
                   help="value bytes per pair (default: %(default)s)")
    p.add_argument("--page-size", type=int, default=4096,
                   help="swap page size in bytes (default: %(default)s)")
    p.add_argument("--queries", type=int, default=2000,
                   help="measurement-phase query count (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (default: %(default)s)")
    p.add_argument("--out", default="-", metavar="PATH",
                   help="output CSV path, - for stdout (default: -)")
    p.add_argument("--report", choices=["swaps", "links", "both"],
                   default="swaps", help="which report to emit (default: swaps)")
    return p


def parse_args(argv=None) -> tuple[SweepSpec, str, str]:
    """(sweep, output path, report kind); exits 2 on bad flags."""
    args = _parser().parse_args(argv)
    base = BenchConfig(
        total_data_bytes=args.data_bytes,
        value_size_bytes=args.value_size,
        num_queries=args.queries,
        page_size_bytes=args.page_size,
        seed=args.seed,
    )
    spec = SweepSpec(
        variants=tuple(args.variant or ["plain"]),
        l_percents=tuple(args.l_percent or [50.0]),
        alphas=tuple(args.alpha or [0.8]),
        update_ratios=tuple(args.update_ratio or [0.05]),
        base=base,
    )
    return spec, args.out, args.report


def _run_cells(cells: list[BenchConfig]) -> list[BenchReport]:
    """One report per cell, in order, inside one reuse scope planned with
    these cells, which share one build key and so one placement."""
    with PlacementReuse(cells):
        return [run_benchmark(cell) for cell in cells]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, which ``os.cpu_count`` ignores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(spec: SweepSpec, threads: int | None = None) -> list[BenchReport]:
    """One report per cell, in sweep order.  The cells are grouped by build
    key and each group runs in one reuse scope, so each key is built once.
    threads=None reads FARLOC_THREADS (default 1); below 1 is an error.  One
    worker runs the groups in turn in this process, more map them over a
    process pool.  The pool starts all its workers at once under fork, so it
    never gets more workers than groups or CPUs this process may use.
    Every cell is validated first."""
    cells = spec.cells()
    for cell in cells:
        cell.validate()
    raw = threads
    if threads is None:
        raw = os.environ.get("FARLOC_THREADS", "1") or "1"
        try:
            threads = int(raw)
        except ValueError:
            threads = 0
    if threads < 1:
        raise ConfigError(f"FARLOC_THREADS must be an integer >= 1, got {raw!r}")
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(build_key(cell), []).append(i)
    workers = min(threads, len(groups), _usable_cpus())
    reports: list[BenchReport] = [None] * len(cells)
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        batches = (pool.map if pool else map)(
            _run_cells, [[cells[i] for i in g] for g in groups.values()])
        for group, batch in zip(groups.values(), batches):
            for i, report in zip(group, batch):
                reports[i] = report
    return reports


def _num(x: float) -> str:
    """``format(x, "g")`` where that text reads back as ``x``, else the
    shortest text that does: "g" keeps only six significant digits."""
    text = format(x, "g")
    return text if float(text) == x else repr(x)


def emit_swaps_csv(reports: list[BenchReport], out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(SWAPS_HEADER)
    for r in reports:
        c = r.config
        w.writerow([c.variant, _num(c.l_percent), _num(c.alpha),
                    _num(c.update_ratio), c.page_size_bytes, c.num_queries,
                    r.measurement_stats.swap_ins, r.measurement_stats.write_backs])


def emit_links_csv(reports: list[BenchReport], out) -> None:
    w = csv.writer(out, lineterminator="\n")
    w.writerow(LINKS_HEADER)
    for r in reports:
        w.writerow([r.config.variant, _num(r.config.l_percent),
                    f"{r.links.purely_local_ratio:.6f}",
                    f"{r.links.in_page_ratio:.6f}",
                    f"{r.links.cross_page_ratio:.6f}"])


def _links_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.stem + "_links" + (out_path.suffix or ".csv"))


def _check_out_path(path: Path) -> None:
    try:
        # the file is opened through any symlink, so check where it leads
        path = path.resolve()
    except (OSError, RuntimeError) as exc:   # RuntimeError: a symlink loop
        raise ConfigError(f"output path {path}: {exc}") from None
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"output directory {path.parent} does not exist")
    if not os.access(path.parent, os.W_OK):
        raise ConfigError(f"output directory {path.parent} is not writable")


def _write_reports(reports: list[BenchReport], out_path: str, report: str) -> None:
    if out_path == "-":
        if report in ("swaps", "both"):
            emit_swaps_csv(reports, sys.stdout)
        if report in ("links", "both"):
            emit_links_csv(reports, sys.stdout)
        return
    path = Path(out_path)
    if report == "links":
        with path.open("w", newline="") as f:
            emit_links_csv(reports, f)
        return
    with path.open("w", newline="") as f:
        emit_swaps_csv(reports, f)
    if report == "both":
        with _links_path(path).open("w", newline="") as f:
            emit_links_csv(reports, f)


def main(argv=None) -> int:
    spec, out_path, report = parse_args(argv)
    try:
        if out_path != "-":
            _check_out_path(Path(out_path))
            if report == "both":
                _check_out_path(_links_path(Path(out_path)))
        reports = run_sweep(spec)
        try:
            _write_reports(reports, out_path, report)
        except OSError as exc:
            raise FarlocError(f"cannot write the output: {exc}") from None
    except (FarlocError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
