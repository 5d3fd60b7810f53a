"""The benchmark's workloads.  Each one is a single ``farloc`` sweep, written
as the CLI arguments a user would type.

The benchmark seed becomes the sweep's ``--seed``; the program receives
nothing but these arguments.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

MIB = 1 << 20
KIB = 1 << 10

BTREE_VARIANTS = ("plain", "hint", "local", "dfs", "local+dfs", "veb", "local+veb")
SKIPLIST_VARIANTS = ("skip-plain", "skip-hint", "skip-local", "skip-page",
                     "skip-local+page")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: tuple[str, ...]
    l_percents: tuple[float, ...]
    alphas: tuple[float, ...]
    update_ratios: tuple[float, ...]
    data_bytes: int
    queries: int

    @property
    def cells(self) -> int:
        return (len(self.variants) * len(self.l_percents) * len(self.alphas)
                * len(self.update_ratios))

    def farloc_args(self, seed: int, out_csv: str) -> list[str]:
        """Arguments of the equivalent ``farloc`` command line."""
        args: list[str] = []
        for v in self.variants:
            args += ["--variant", v]
        for lp in self.l_percents:
            args += ["--l-percent", format(lp, "g")]
        for a in self.alphas:
            args += ["--alpha", format(a, "g")]
        for u in self.update_ratios:
            args += ["--update-ratio", format(u, "g")]
        args += ["--data-bytes", str(self.data_bytes), "--queries", str(self.queries),
                 "--seed", str(seed), "--report", "both", "--out", out_csv]
        return args


# Every workload yields at least 1000 queries of each kind, so that both p99s
# rest on at least ten samples beyond them.  (The CLI sweeps a Cartesian
# product of its axes, so (alpha, update) pairs cannot be chosen one by one.)
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "btree-grid",
        "B-tree swap sweep: builds dominate, and its 42 cells share only 13 "
        "placements, so a planner that reuses builds shows here",
        BTREE_VARIANTS, (10, 50, 100), (0.8,), (0.05, 0.5), 512 * KIB, 500),
    Workload(
        "skiplist-full",
        "every skip-list variant once: each cell is its own placement; cost "
        "sits in skip-list insert, tower fragmentation and the link census",
        SKIPLIST_VARIANTS, (50,), (0.8,), (0.05,), 1 * MIB, 6000),
    Workload(
        "replay-writes",
        "query replay dominates with half of the queries writes: LRU hits, "
        "misses and dirty eviction on both container families",
        ("hint", "local+dfs", "skip-local+page"), (10,), (0.8,), (0.5,),
        2 * MIB, 10000),
)}

# The same sweeps shrunk for the smoke test: same cells and mixes, so every
# layer still runs, at a size where a sweep takes about a second.
TINY: dict[str, Workload] = {
    name: replace(WORKLOADS[name], data_bytes=128 * KIB, queries=queries)
    for name, queries in (("btree-grid", 200), ("skiplist-full", 5000),
                          ("replay-writes", 1000))}
