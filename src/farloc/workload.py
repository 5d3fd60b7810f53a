"""Key-value store swap benchmark.

A run has two phases over one container in a fresh simulated space:

1. Placement: insert N pairs keyed by the FNV-1a hashes of N-1 down to 0,
   then run the variant's batch rearrangement when it has one.
2. Measurement: drop every cached page and the counters, then replay a
   deterministic Zipfian mix of Scan and Update queries and report the swap
   traffic it causes.

The local-memory budget L (a percentage of the total data size) is split
half purely-local capacity, half page cache for variants that use the
purely-local region, and goes entirely to the page cache otherwise.

All randomness derives from the config seed through independent streams so
that changing the update ratio alters neither the query keys nor the scan
lengths, keeping variants and update mixes comparable cell by cell.

Placement reads none of the skew, the update mix, the query count or the
page-cache size, so cells that differ only in those have one build key
(:func:`build_key`); for a variant without a purely-local region that is
one key at every L.  The query script reads the build key's fields and the
mix (skew, update ratio, query count) and never the cache, so one
(placement, mix) pair makes one page trace at every cache size.  The link
census reads the placement alone.  Every cell runs in a
:class:`PlacementReuse` scope, which serves the cells of one build key: it
builds the placement once, at its first cell's cache size, takes its
census once and runs each mix's queries once on that space, and gets the
counters at the plan's other cache sizes from replays of the page traces
(:func:`farloc.farmem.replay_trace`): under strict LRU the swap-ins and
write-backs at any capacity follow from the page-reference string alone
(Mattson et al., 1970).  The scope hands each cell its whole report and
never rewinds the space it holds.  :func:`run_benchmark` outside a scope
opens a scope of its one cell, which records, replays and holds nothing.
A plan of two keys, or a cell outside the plan, is a
:class:`~farloc.farmem.UsageError`.
"""
from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .collective import CollectiveAllocator, HintAllocator
from .containers import (BTree, BTreeVariant, SkipList, SkipListVariant,
                         btree_block_bytes, tower_block_bytes)
from .containers.btree import ORDER
from .containers.skiplist import MAX_LEVEL
from .farmem import (ConfigError, Space, SpaceConfig, SwapStats, UsageError,
                     replay_trace)
from .metrics import LinkComposition, link_composition

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3

# a scan asks for 1 to SCAN_LEN_MAX pairs, drawn uniformly
SCAN_LEN_MAX = 100

# the most elements one numpy array can hold; a build draws all its values,
# and a query script all its keys, as one array each
MAX_ARRAY_LEN = np.iinfo(np.intp).max


def fnv64_batch(values) -> np.ndarray:
    """FNV-1a of the eight little-endian bytes of each 64-bit unsigned
    value in an array."""
    xs = np.asarray(values, dtype=np.uint64)
    h = np.full(xs.shape, FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    mask = np.uint64(0xFF)
    with np.errstate(over="ignore"):
        for shift in range(0, 64, 8):
            h = (h ^ ((xs >> np.uint64(shift)) & mask)) * prime
    return h


class ZipfSampler:
    """Inverse-CDF sampler of ranks 1..n with P(k) proportional to k**-alpha."""

    def __init__(self, n: int, alpha: float):
        if n < 1:
            raise ConfigError(f"population must be >= 1, got {n}")
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ConfigError(f"skew must be a finite value >= 0, got {alpha}")
        self.n = n
        self.alpha = alpha
        weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
        cdf = np.cumsum(weights)
        self._cdf = cdf / cdf[-1]

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        u = rng.random(size)
        return np.searchsorted(self._cdf, u, side="right") + 1


# name -> (container class, variant); the class names its local and hint
# variants.  A B-tree variant's name is its enum value, a skip list's the
# value after "skip-".
VARIANTS: dict[str, tuple[type, object]] = {
    **{v.value: (BTree, v) for v in BTreeVariant},
    **{f"skip-{v.value}": (SkipList, v) for v in SkipListVariant},
}


def variant_uses_local(name: str) -> bool:
    cls, variant = VARIANTS[name]
    return variant in cls.LOCAL_VARIANTS


@dataclass(frozen=True)
class BenchConfig:
    """One sweep cell; building an invalid one raises :class:`ConfigError`."""

    variant: str = "plain"
    total_data_bytes: int = 16 * 1024 * 1024
    value_size_bytes: int = 150
    l_percent: float = 50.0
    alpha: float = 0.8
    update_ratio: float = 0.05
    num_queries: int = 2000
    page_size_bytes: int = 4096
    seed: int = 0

    @property
    def pair_size_bytes(self) -> int:
        # 8-byte key plus the value slot padded to 8-byte alignment
        return 8 + (self.value_size_bytes + 7) // 8 * 8

    @property
    def num_pairs(self) -> int:
        return self.total_data_bytes // self.pair_size_bytes

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.value_size_bytes < 1:
            raise ConfigError(f"value size must be positive, got {self.value_size_bytes}")
        if self.num_pairs * self.value_size_bytes > MAX_ARRAY_LEN:
            raise ConfigError(f"{self.total_data_bytes} data bytes hold more value "
                              "bytes than one numpy array can")
        # every cell reports a link census, and a container needs links: a
        # B-tree more than one node, a skip list more than one tower
        family = "btree" if VARIANTS[self.variant][0] is BTree else "skiplist"
        least = ORDER if family == "btree" else 2
        if self.num_pairs < least:
            raise ConfigError(
                f"{self.total_data_bytes} data bytes hold {self.num_pairs} "
                f"{self.pair_size_bytes}-byte pairs; a {family} needs at "
                f"least {least}")
        SpaceConfig(self.page_size_bytes)   # checks the page size
        # the largest node a build can carve must fit one page: every
        # B-tree node, and a skip-list tower of the tallest drawable level
        value_slot = self.pair_size_bytes - 8
        node = (btree_block_bytes(value_slot) if family == "btree"
                else tower_block_bytes(MAX_LEVEL, value_slot))
        if node > self.page_size_bytes:
            raise ConfigError(
                f"a {node}-byte {family} node cannot fit a "
                f"{self.page_size_bytes}-byte page")
        if not (math.isfinite(self.l_percent) and self.l_percent > 0):
            raise ConfigError(
                f"local budget must be a finite value > 0 %, got {self.l_percent}")
        if not math.isfinite(self.total_data_bytes * self.l_percent):
            raise ConfigError(f"local budget of {self.l_percent} % is too large")
        SpaceConfig(self.page_size_bytes, *local_budget(self))   # and L's split
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"skew must be a finite value >= 0, got {self.alpha}")
        # the range test rejects nan as well
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ConfigError(f"update ratio must be in [0, 1], got {self.update_ratio}")
        if not 0 <= self.num_queries <= MAX_ARRAY_LEN:
            raise ConfigError(
                f"query count must be in [0, {MAX_ARRAY_LEN}], got {self.num_queries}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class QueryOp:
    key: int
    kind: str              # "scan" | "update"
    length: int = 0        # scan only
    value: bytes = b""     # update only


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    placement_stats: SwapStats
    links: LinkComposition
    measurement_stats: SwapStats


def _streams(seed: int):
    """Independent child seeds: placement values, query keys, query mix,
    update values."""
    return np.random.SeedSequence(seed).spawn(4)


def local_budget(cfg: BenchConfig) -> tuple[int, int]:
    """(purely-local capacity in bytes, page-cache capacity in pages)."""
    l_bytes = int(round(cfg.total_data_bytes * cfg.l_percent / 100.0))
    if variant_uses_local(cfg.variant):
        half = l_bytes // 2
        return half, half // cfg.page_size_bytes
    return 0, l_bytes // cfg.page_size_bytes


def placement_keys(cfg: BenchConfig) -> np.ndarray:
    """FNV-1a of N-1, N-2, ..., 0; dependent keys arrive shallow-first."""
    n = cfg.num_pairs
    return fnv64_batch(np.arange(n - 1, -1, -1, dtype=np.uint64))


def build_key(cfg: BenchConfig) -> tuple:
    """Everything a build reads from its config.  Cells with one key get one
    placement, whatever their skew, update mix, query count and cache size.
    Placement never reads the cache, so of the local budget the key keeps
    only the purely-local bytes; a variant without a purely-local region has
    one key at every L."""
    return (cfg.variant, cfg.total_data_bytes, cfg.value_size_bytes,
            cfg.page_size_bytes, cfg.seed, local_budget(cfg)[0])


def _plan_entry(cfg: BenchConfig) -> tuple:
    """(build key, mix, cache pages) of a cell.  The mix is what the query
    script reads beyond the build key."""
    return (build_key(cfg), (cfg.alpha, cfg.update_ratio, cfg.num_queries),
            local_budget(cfg)[1])


class PlacementReuse:
    """A scope, opened as a context manager, that runs the cells of one
    build key on one placement: it builds the placement once, takes its
    link census once and runs each mix's queries once, and hands each cell
    its report (:meth:`report`).

    The plan is the cells the caller is about to run inside the scope, in
    any order.  A plan with cells of two build keys, or a call for a cell
    outside the plan, raises :class:`UsageError`.

    The first call builds at its own cache size, the build's cache, and
    every query run happens on that space at that cache.  When the plan has
    more than one cache size, the build and each mix's query run record
    their page traces, and once a run ends its trace is replayed at every
    other planned size (:func:`replay_trace`) and dropped: under strict LRU
    the counters at any size follow from the page-reference string alone.
    A replay starts from an empty cache and ends without a flush, as the
    measurement phase does.  The counters of every planned size are held
    in ``{cache: SwapStats}`` dicts, the placement's and each mix's.  A
    plan of one cell records, replays and holds nothing.

    When the plan has a later cell, the scope keeps the container, space
    and stored values, and a later call restores the values and gives the
    same container and space back, changing nothing else.  Nothing else
    needs it: a query run changes only values (an update rewrites one in
    place, a scan only reads), and no cell reads the space's cache or
    counters, which a query run drops before its first query.  Nothing
    after the build changes a structural link, so the link census, taken
    at the first cell, serves every later one.  A mix's later cells run no
    queries.  Closing the scope drops the placement.
    """

    def __init__(self, cells):
        cells = list(cells)
        entries = [_plan_entry(c) for c in cells]
        if len({key for key, _, _ in entries}) > 1:
            raise UsageError("a reuse scope serves the cells of one build key")
        self._cells = set(cells)
        self._caches = {cache for _, _, cache in entries}
        self._hold = len(cells) > 1
        self._container = self._space = self._values = None
        # {cache size: swap counters}: the placement's, and each mix's
        self._placed: dict[int, SwapStats] = {}
        self._measured: dict[tuple, dict[int, SwapStats]] = {}
        self._links: LinkComposition | None = None
        self._token = None

    def __enter__(self) -> PlacementReuse:
        self._token = _active_reuse.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_reuse.reset(self._token)
        self._container = self._space = self._values = None

    def _trace(self) -> array | None:
        """A sink for a run's page trace when another planned size needs it."""
        return array("i") if len(self._caches) > 1 else None

    def _at_caches(self, space: Space, trace: array | None) -> dict[int, SwapStats]:
        """{cache size: swap counters} over the plan: the run's own at the
        space's cache, and a replay of its page trace at each other size."""
        cache, stats = space.cfg.cache_capacity_pages, space.stats()
        return {c: stats if c == cache else replay_trace(trace, c)
                for c in self._caches}

    def placement(self, cfg: BenchConfig):
        if cfg not in self._cells:
            raise UsageError(f"{cfg} is outside this reuse scope's plan")
        if self._container is not None:
            self._container.restore_values(self._values)
            return self._container, self._space
        trace = self._trace()
        container, space = _build(cfg, trace)
        self._placed = self._at_caches(space, trace)
        if self._hold:
            self._container, self._space = container, space
            self._values = container.save_values()
        return container, space

    def report(self, cfg: BenchConfig, container, space) -> BenchReport:
        """The report of ``cfg`` on the placement :meth:`placement` just
        gave it: the link census, taken at the first cell, then its mix's
        queries, run at the mix's first cell; every cell reads the
        placement and measurement counters at its own cache size."""
        _, mix, cache = _plan_entry(cfg)
        if self._links is None:
            self._links = link_composition(container)
        if mix not in self._measured:
            trace = self._trace()
            _measure(cfg, container, space, trace)
            self._measured[mix] = self._at_caches(space, trace)
        return BenchReport(cfg, self._placed[cache], self._links,
                           self._measured[mix][cache])


_active_reuse: ContextVar[PlacementReuse | None] = ContextVar(
    "farloc_placement_reuse", default=None)


def build_placement(cfg: BenchConfig):
    """Placement phase: a fresh space and container, all pairs inserted and
    the batch rearrangement run when the variant has one.  Returns
    (container, space).  Inside a :class:`PlacementReuse` scope, the scope
    gives the placement: built on the first call, the same one with its
    values restored on later ones."""
    reuse = _active_reuse.get()
    if reuse is None:
        return _build(cfg)
    return reuse.placement(cfg)


@contextmanager
def _recording(space: Space, trace: array | None):
    """With ``trace``, the page touches made in the block are appended there
    as :func:`replay_trace` reads them, and a sink the space already had
    gets the same touches, in order, when the block ends."""
    if trace is None:
        yield
        return
    outer = space.set_trace(trace)
    yield
    space.set_trace(outer)
    if outer is not None:
        for code in trace:
            outer.append(code)


def _build(cfg: BenchConfig, trace: array | None = None):
    """A fresh placement; with ``trace``, its page touches are recorded
    there (:func:`_recording`)."""
    cls, variant = VARIANTS[cfg.variant]
    pl_bytes, cache_pages = local_budget(cfg)
    space = Space(SpaceConfig(cfg.page_size_bytes, pl_bytes, cache_pages))
    with _recording(space, trace):
        allocator = (HintAllocator(space) if variant is cls.HINT
                     else CollectiveAllocator(space))
        value_slot = cfg.pair_size_bytes - 8
        if cls is BTree:
            container = BTree(allocator, variant, value_slot=value_slot)
        else:
            container = SkipList(allocator, variant, value_slot=value_slot,
                                 level_seed=cfg.seed)
        vs = cfg.value_size_bytes
        buf = np.random.default_rng(_streams(cfg.seed)[0]).integers(
            0, 256, size=cfg.num_pairs * vs, dtype=np.uint8).tobytes()
        insert = container.insert
        for i, key in enumerate(placement_keys(cfg).tolist()):
            insert(key, buf[i * vs:(i + 1) * vs])
        if container.has_rearrangement:
            container.make_page_aware()
    return container, space


def query_script(cfg: BenchConfig) -> list[QueryOp]:
    """Deterministic measurement-phase script.  Keys are Zipf ranks hashed
    into the inserted key set; kinds and scan lengths are drawn up front so
    they do not depend on the update ratio's effect on stream consumption."""
    _, key_seed, mix_seed, upd_seed = _streams(cfg.seed)
    nq = cfg.num_queries
    ranks = ZipfSampler(cfg.num_pairs, cfg.alpha).sample(
        np.random.default_rng(key_seed), nq)
    keys = fnv64_batch((ranks - 1).astype(np.uint64))
    mix_rng = np.random.default_rng(mix_seed)
    is_update = mix_rng.random(nq) < cfg.update_ratio
    lengths = mix_rng.integers(1, SCAN_LEN_MAX + 1, size=nq)
    vs = cfg.value_size_bytes
    upd_buf = np.random.default_rng(upd_seed).integers(
        0, 256, size=int(is_update.sum()) * vs, dtype=np.uint8).tobytes()
    ops: list[QueryOp] = []
    ui = 0
    for i in range(nq):
        key = int(keys[i])
        if is_update[i]:
            ops.append(QueryOp(key, "update", 0, upd_buf[ui * vs:(ui + 1) * vs]))
            ui += 1
        else:
            ops.append(QueryOp(key, "scan", int(lengths[i])))
    return ops


def run_queries(container, script: list[QueryOp]) -> None:
    for op in script:
        if op.kind == "update":
            container.update(op.key, op.value)
        else:
            container.scan(op.key, op.length)


def _measure(cfg: BenchConfig, container, space: Space,
             trace: array | None = None) -> None:
    """Measurement phase: drop every cached page and the counters, then run
    the query script, which leaves its counters in ``space``; with
    ``trace``, its page touches are recorded there (:func:`_recording`)."""
    space.evict_all()
    space.reset_stats()
    with _recording(space, trace):
        run_queries(container, query_script(cfg))


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """One cell: placement, link census, measurement, always in a
    :class:`PlacementReuse` scope, which hands the cell its report.  With
    no scope open, the cell runs in a scope of its own."""
    reuse = _active_reuse.get()
    if reuse is None:
        with PlacementReuse([cfg]):
            return run_benchmark(cfg)
    container, space = build_placement(cfg)
    return reuse.report(cfg, container, space)
