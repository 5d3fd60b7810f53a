"""Layer microbenchmarks through the package's public API.

Each returns host nanoseconds per call, loop included, as the best of a few
batches.  Each also checks that the simulated counters moved as the case
intends (every touch a hit, a clean miss, or a dirty eviction), so a
microbenchmark cannot silently measure a different path.
"""
from __future__ import annotations

import math
import random
import time

from farloc.collective import CollectiveAllocator, ObjectLayout
from farloc.containers import SkipList, SkipListVariant
from farloc.farmem import Space, SpaceConfig

clock = time.perf_counter
PAGE = 4096


def _best_ns(batch, repeats: int, per_batch: int) -> float:
    best = math.inf
    for _ in range(repeats):
        best = min(best, batch())
    return best / per_batch * 1e9


def _page_blocks(space: Space, n: int) -> list[int]:
    """One full-page block on each of n fresh pages."""
    return [space.carve_in_page(space.create_page(), PAGE) for _ in range(n)]


def touch_hit_ns(n: int) -> float:
    space = Space(SpaceConfig(PAGE, 0, 8))
    (h,) = _page_blocks(space, 1)
    space.touch(h, PAGE)
    touch = space.touch

    def batch():
        t0 = clock()
        for _ in range(n):
            touch(h, 64, False)
        return clock() - t0
    ns = _best_ns(batch, 3, n)
    if space.stats().swap_ins != 1:
        raise AssertionError("touch_hit: a repeated touch missed the cache")
    return ns


def _touch_cycle_ns(n: int, is_write: bool) -> float:
    """Cycle over one page more than the cache holds: under strict LRU every
    touch misses and evicts the page touched longest ago."""
    cap = 64
    space = Space(SpaceConfig(PAGE, 0, cap))
    handles = _page_blocks(space, cap + 1)
    for h in handles:
        space.touch(h, 64, is_write)
    rounds = max(1, n // len(handles))
    touch = space.touch

    def batch():
        t0 = clock()
        for _ in range(rounds):
            for h in handles:
                touch(h, 64, is_write)
        return clock() - t0
    before = space.stats()
    ns = _best_ns(batch, 3, rounds * len(handles))
    after = space.stats()
    calls = 3 * rounds * len(handles)
    if after.swap_ins - before.swap_ins != calls:
        raise AssertionError("touch cycle: a touch hit the cache")
    if (after.write_backs - before.write_backs) != (calls if is_write else 0):
        raise AssertionError("touch cycle: write-backs do not match the evictions")
    return ns


def _fragment(carve, free, count: int, sizes: list[int]) -> None:
    """Carve count blocks of cycling sizes and free every other one."""
    handles = [carve(sizes[i % len(sizes)]) for i in range(count)]
    for h in handles[::2]:
        free(h)


def carve_local_ns(n: int) -> float:
    """Purely-local carve on a region fragmented into thousands of holes."""
    space = Space(SpaceConfig(PAGE, 8 << 20, 0))
    _fragment(space.carve_purely_local, space.free, 8000, [136, 200, 264, 328])
    carve = space.carve_purely_local

    def batch():
        t0 = clock()
        got = [carve(128) for _ in range(n)]
        dt = clock() - t0
        for h in got:
            space.free(h)
        return dt
    return _best_ns(batch, 3, n)


def carve_page_ns(n: int) -> float:
    """Carve into pages whose free lists hold several holes each."""
    space = Space(SpaceConfig(PAGE, 0, 0))
    pages = [space.create_page() for _ in range(max(1, n // 8))]
    for p in pages:
        _fragment(lambda size, p=p: space.carve_in_page(p, size), space.free, 16,
                  [200, 248])
    carve = space.carve_in_page
    slots = [p for p in pages for _ in range(8)]

    def batch():
        t0 = clock()
        got = [carve(p, 128) for p in slots]
        dt = clock() - t0
        for h in got:
            space.free(h)
        return dt
    return _best_ns(batch, 3, len(slots))


def sub_allocate_ns(n: int, nodes: int, seed: int) -> float:
    """Plain-pool allocation of tower-sized blocks against the page pool a
    skip-list build leaves behind."""
    space = Space(SpaceConfig(PAGE, 0, 0))
    alloc = CollectiveAllocator(space)
    sl = SkipList(alloc, SkipListVariant.PLAIN, level_seed=seed)
    rng = random.Random(seed)
    for key in rng.sample(range(1 << 40), nodes):
        sl.insert(key, b"v")
    levels = [1 + min(int(-math.log2(1.0 - rng.random())), 19) for _ in range(n)]
    layouts = [ObjectLayout(sl.block_bytes(lvl)) for lvl in levels]
    plain = alloc.swappable_plain
    sub_allocate = alloc.sub_allocate

    def batch():
        t0 = clock()
        got = [sub_allocate(plain, 1, lay) for lay in layouts]
        dt = clock() - t0
        for h, lay in zip(got, layouts):
            alloc.deallocate(h, 1, lay)
        return dt
    return _best_ns(batch, 3, n)


def run_all(seed: int, tiny: bool = False) -> dict[str, float]:
    n = 20_000 if tiny else 200_000
    small = 1_000 if tiny else 10_000
    return {
        "micro.touch_hit_ns": touch_hit_ns(n),
        "micro.touch_miss_ns": _touch_cycle_ns(n, False),
        "micro.touch_dirty_evict_ns": _touch_cycle_ns(n, True),
        "micro.carve_local_ns": carve_local_ns(small // 10),
        "micro.carve_page_ns": carve_page_ns(small),
        "micro.sub_allocate_ns": sub_allocate_ns(small // 10, 2_000 if tiny else 20_000,
                                                 seed),
    }
