"""Simulated far-memory address space with page-granular swap accounting.

The address space has two regions.  A bounded purely-local region is never
swapped and never counted in swap statistics.  The swappable region is a
sequence of fixed-size pages backed by a bounded resident cache with strict
LRU eviction; every access to a swappable block is mediated by the space,
which performs the fault / swap-in / write-back accounting a far-memory
runtime would do.  :meth:`Space.touch` is the validated entry for any byte
range of a block; :meth:`Space.touch_block` and :meth:`Space.touch_blocks`
are the unchecked whole-block entries the containers use.  A trace sink
receives each swappable touch as one int, ``page * 2 + is_write``; such a
trace replays at any cache size through :func:`replay_trace`.  The cache
accounting is the hot path of every run, so each loop over touches runs
the hit, miss, eviction and write-back step inline, and a touch of the
page the loop touched just before costs one compare.

Handles are plain integer offsets into the address space (0 is the null
handle); region membership is derivable from the offset alone.  Blocks are
carved out of either region with first-fit free lists, by size alone: a
block takes the front of the lowest-addressed free extent it fits and never
straddles a page boundary.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

Handle = int
PageId = int

# Purely-local blocks live in [LOCAL_BASE, LOCAL_BASE + capacity); page i of the
# swappable region starts at SWAP_BASE + i * page_size.  Offset 0 stays invalid
# so the null handle is unambiguous.
LOCAL_BASE = 1 << 12
SWAP_BASE = 1 << 40


class FarlocError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FarlocError):
    """Invalid configuration value."""


class CapacityExhausted(FarlocError):
    """A bounded allocator has no free slot large enough for the request."""


class UsageError(FarlocError):
    """An operation violated its contract (bad handle, bad argument, ...)."""


@dataclass(frozen=True)
class SpaceConfig:
    page_size_bytes: int = 4096
    purely_local_capacity_bytes: int = 0
    cache_capacity_pages: int = 0

    def validate(self) -> None:
        p = self.page_size_bytes
        if p < 256 or p & (p - 1):
            raise ConfigError(f"page size must be a power of two >= 256, got {p}")
        if self.purely_local_capacity_bytes < 0:
            raise ConfigError("purely-local capacity must be >= 0")
        if self.purely_local_capacity_bytes > SWAP_BASE - LOCAL_BASE:
            raise ConfigError("purely-local capacity too large for the address layout")
        if self.cache_capacity_pages < 0:
            raise ConfigError("cache capacity must be >= 0")


@dataclass(frozen=True)
class SwapStats:
    swap_ins: int = 0
    write_backs: int = 0


class FreeList:
    """First-fit free list over one contiguous range, coalescing on free.

    The address-ordered extents are the only record of the range's free
    space: its largest extent and its free bytes are read from them.
    """

    __slots__ = ("_starts", "_sizes")

    def __init__(self, start: int, size: int):
        self._starts: list[int] = [start] if size else []
        self._sizes: list[int] = [size] if size else []

    def allocate(self, size: int) -> int | None:
        starts, sizes = self._starts, self._sizes
        for i, avail in enumerate(sizes):
            if size <= avail:
                start = starts[i]
                if size < avail:
                    starts[i] = start + size
                    sizes[i] = avail - size
                else:
                    del starts[i]
                    del sizes[i]
                return start
        return None

    def free(self, start: int, size: int) -> None:
        starts, sizes = self._starts, self._sizes
        i = bisect_right(starts, start)
        # coalesce with the previous segment when adjacent
        if i and starts[i - 1] + sizes[i - 1] == start:
            sizes[i - 1] += size
            if i < len(starts) and starts[i] == start + size:
                sizes[i - 1] += sizes[i]
                del starts[i]
                del sizes[i]
        elif i < len(starts) and starts[i] == start + size:
            starts[i] = start
            sizes[i] += size
        else:
            starts.insert(i, start)
            sizes.insert(i, size)

    def max_free(self) -> int:
        return max(self._sizes, default=0)

    def free_bytes(self) -> int:
        return sum(self._sizes)


class _ArrayFreeList:
    """Address-ordered first-fit free list on numpy arrays.

    Same discipline and observable behavior as :class:`FreeList`; the fit
    scan runs as one vectorized predicate instead of a Python loop.  Only
    the purely-local region uses it: a long-lived region fragments into
    thousands of extents once small residues accumulate, and the per-extent
    interpreter cost of the list variant dominates there.  Measured on a
    2-core VM, a 16 MiB ``skip-local`` build at L=50 averages 3 674 extents
    per carve and takes 5.8-6.7 s on this class against 14.0-14.6 s on
    :class:`FreeList`.  At the benchmark's sizes (at most 466 extents) the
    two are within noise of each other.  Pages stay on :class:`FreeList`:
    a page holds a few dozen blocks at most, and these arrays on pages made
    builds 18-87 % slower.
    """

    __slots__ = ("_starts", "_sizes", "_n")

    def __init__(self, start: int, size: int):
        self._starts = np.empty(16, dtype=np.int64)
        self._sizes = np.empty(16, dtype=np.int64)
        self._n = 0
        if size:
            self._starts[0] = start
            self._sizes[0] = size
            self._n = 1

    def _shift_in(self, i: int, start: int, size: int) -> None:
        n = self._n
        if n == len(self._starts):
            grown = np.empty(2 * n, dtype=np.int64)
            grown[:n] = self._starts
            self._starts = grown
            grown = np.empty(2 * n, dtype=np.int64)
            grown[:n] = self._sizes
            self._sizes = grown
        self._starts[i + 1:n + 1] = self._starts[i:n]
        self._sizes[i + 1:n + 1] = self._sizes[i:n]
        self._starts[i] = start
        self._sizes[i] = size
        self._n = n + 1

    def _shift_out(self, i: int) -> None:
        n = self._n
        self._starts[i:n - 1] = self._starts[i + 1:n]
        self._sizes[i:n - 1] = self._sizes[i + 1:n]
        self._n = n - 1

    def allocate(self, size: int) -> int | None:
        n = self._n
        if not n:
            return None
        # the method, not np.argmax: it skips a Python-level dispatch, and
        # the local variants run this for many carves that cannot fit
        i = int((self._sizes[:n] >= size).argmax())
        avail = int(self._sizes[i])
        if avail < size:
            return None     # argmax of an all-False mask is 0
        start = int(self._starts[i])
        if size < avail:
            self._starts[i] = start + size
            self._sizes[i] = avail - size
        else:
            self._shift_out(i)
        return start

    def free(self, start: int, size: int) -> None:
        n = self._n
        starts = self._starts
        sizes = self._sizes
        i = int(np.searchsorted(starts[:n], start, side="right"))
        if i and int(starts[i - 1]) + int(sizes[i - 1]) == start:
            sizes[i - 1] += size
            if i < n and int(starts[i]) == start + size:
                sizes[i - 1] += sizes[i]
                self._shift_out(i)
        elif i < n and int(starts[i]) == start + size:
            starts[i] = start
            sizes[i] += size
        else:
            self._shift_in(i, start, size)

    def free_bytes(self) -> int:
        return int(self._sizes[:self._n].sum())


class Space:
    """One simulated address space: regions, blocks, residency, statistics."""

    def __init__(self, cfg: SpaceConfig):
        cfg.validate()
        self.cfg = cfg
        self._page_size = cfg.page_size_bytes
        self._page_shift = cfg.page_size_bytes.bit_length() - 1
        self._cache_cap = cfg.cache_capacity_pages
        self._blocks: dict[int, int] = {}            # handle -> block size
        self._local_free = _ArrayFreeList(LOCAL_BASE, cfg.purely_local_capacity_bytes)
        self._pages: list[FreeList] = []
        self._resident: OrderedDict[int, bool] = OrderedDict()   # page -> dirty
        self._swap_ins = 0
        self._write_backs = 0
        self._trace = None

    # -- carving ---------------------------------------------------------

    def carve_purely_local(self, size: int) -> Handle:
        self._check_carve(size)
        h = self._local_free.allocate(size)
        if h is None:
            raise CapacityExhausted(f"purely-local region cannot fit {size} bytes")
        self._blocks[h] = size
        return h

    def create_page(self) -> PageId:
        idx = len(self._pages)
        self._pages.append(FreeList(SWAP_BASE + idx * self._page_size, self._page_size))
        return idx

    def carve_in_page(self, page: PageId, size: int) -> Handle:
        self._check_carve(size)
        if size > self._page_size:
            raise UsageError(f"block of {size} bytes cannot fit one page")
        if not 0 <= page < len(self._pages):
            raise UsageError(f"no such page: {page}")
        h = self._pages[page].allocate(size)
        if h is None:
            raise CapacityExhausted(f"page {page} cannot fit {size} bytes")
        self._blocks[h] = size
        return h

    @staticmethod
    def _check_carve(size: int) -> None:
        if size <= 0:
            raise UsageError(f"block size must be positive, got {size}")

    def free(self, handle: Handle) -> int:
        """Return a carved block to its free list.  Gives back the block size."""
        size = self._blocks.pop(handle, None)
        if size is None:
            raise UsageError(f"free of unknown or already-freed handle {handle:#x}")
        if handle < SWAP_BASE:
            self._local_free.free(handle, size)
        else:
            self._pages[(handle - SWAP_BASE) >> self._page_shift].free(handle, size)
        return size

    # -- access and residency -------------------------------------------

    def touch(self, handle: Handle, length: int, is_write: bool = False) -> None:
        """Account one access to ``length`` bytes starting at ``handle``.

        Purely-local handles are exempt from all statistics.  A swappable
        touch faults the block's page in when it is not resident, evicting
        the LRU page first when the cache is full.  A block never straddles
        a page, so every non-empty touch is a touch of exactly one page.
        """
        size = self._blocks.get(handle)
        if size is None:
            raise UsageError(f"touch of unknown handle {handle:#x}")
        if length < 0 or length > size:
            raise UsageError(f"touch of {length} bytes outside a {size}-byte block")
        if length:
            # the trace code is page * 2 + is_write, so the flag must be 0 or 1
            self.touch_block(handle, bool(is_write))

    def touch_block(self, handle: Handle, is_write: bool) -> None:
        """Account one access to the whole block at ``handle``, unchecked.

        The caller guarantees that ``handle`` names a live block; that and
        a block never straddling a page are what let this skip the lookup
        and the range check of :meth:`touch`.
        """
        if handle < SWAP_BASE:
            return
        idx = (handle - SWAP_BASE) >> self._page_shift
        if self._trace is not None:
            self._trace.append(idx * 2 + is_write)
        res = self._resident
        if idx in res:
            res.move_to_end(idx)
            if is_write:
                res[idx] = True
            return
        self._swap_ins += 1
        cap = self._cache_cap
        if not cap:
            # degenerate cache: the page is fetched, used, written straight
            # back; it can never stay resident
            if is_write:
                self._write_backs += 1
            return
        if len(res) >= cap and res.popitem(False)[1]:
            self._write_backs += 1
        res[idx] = is_write

    def touch_blocks(self, handles, is_write: bool) -> None:
        """:meth:`touch_block` for each live handle of ``handles``, in order.

        A touch of the page this call touched last is traced and needs
        nothing else: that page is resident and most recently used, and
        the call's one write flag already set its dirty bit.  A capacity-0
        miss leaves nothing resident, so it never counts as that page.
        """
        shift = self._page_shift
        trace = self._trace
        res = self._resident
        cap = self._cache_cap
        last = -1
        ins = wb = 0
        for handle in handles:
            if handle < SWAP_BASE:
                continue
            idx = (handle - SWAP_BASE) >> shift
            if trace is not None:
                trace.append(idx * 2 + is_write)
            if idx == last:
                continue
            if idx in res:
                res.move_to_end(idx)
                if is_write:
                    res[idx] = True
            else:
                ins += 1
                if not cap:
                    if is_write:
                        wb += 1
                    continue
                if len(res) >= cap and res.popitem(False)[1]:
                    wb += 1
                res[idx] = is_write
            last = idx
        if ins:
            self._swap_ins += ins
            self._write_backs += wb

    def evict_all(self) -> None:
        res = self._resident
        while res:
            _, dirty = res.popitem(last=False)
            if dirty:
                self._write_backs += 1

    # -- queries ---------------------------------------------------------

    def page_of(self, handle: Handle) -> PageId | None:
        if handle not in self._blocks:
            raise UsageError(f"page_of on unknown handle {handle:#x}")
        if handle < SWAP_BASE:
            return None
        return (handle - SWAP_BASE) >> self._page_shift

    def is_purely_local(self, handle: Handle) -> bool:
        return LOCAL_BASE <= handle < SWAP_BASE

    def block_size(self, handle: Handle) -> int:
        size = self._blocks.get(handle)
        if size is None:
            raise UsageError(f"unknown handle {handle:#x}")
        return size

    def stats(self) -> SwapStats:
        return SwapStats(self._swap_ins, self._write_backs)

    def reset_stats(self) -> None:
        self._swap_ins = self._write_backs = 0

    def residency(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """Resident pages in LRU-to-MRU order plus the dirty subset.  Only
        the tests read it: it is their one window on the LRU order and the
        dirty bits, which the reference LRU models check."""
        res = self._resident
        return tuple(res.keys()), frozenset(p for p, d in res.items() if d)

    def set_trace(self, sink):
        """Append every swappable page touch to ``sink`` as the int
        ``page * 2 + is_write`` until the next call; None stops recording.
        Returns the sink this one replaces."""
        old, self._trace = self._trace, sink
        return old

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    @property
    def purely_local_allocated_bytes(self) -> int:
        return self.cfg.purely_local_capacity_bytes - self._local_free.free_bytes()

    def page_allocated_bytes(self, page: PageId) -> int:
        if not 0 <= page < len(self._pages):
            raise UsageError(f"no such page: {page}")
        return self._page_size - self._pages[page].free_bytes()

    def page_max_free(self, page: PageId) -> int:
        if not 0 <= page < len(self._pages):
            raise UsageError(f"no such page: {page}")
        return self._pages[page].max_free()


def replay_trace(trace, cache_pages: int) -> SwapStats:
    """Replay a page trace from an empty cache of ``cache_pages`` pages.

    Each touch of ``trace`` is encoded as ``page * 2 + is_write``, as
    :meth:`Space.set_trace` hands it to a sink.  The loop is
    :meth:`Space.touch_blocks`'s strict-LRU, write-back and capacity-0
    step on a cache of its own, except that a repeated page may be a write
    after a read, so a repeat still sets the dirty bit.  Returns the
    statistics, which under strict LRU depend on nothing but the trace and
    the capacity: one trace of a run serves every cache size.
    """
    SpaceConfig(cache_capacity_pages=cache_pages).validate()
    res: OrderedDict[int, int] = OrderedDict()    # page -> dirty
    last = -1
    ins = wb = 0
    for code in trace:
        page = code >> 1
        if page == last:
            if code & 1:
                res[page] = 1
            continue
        if page in res:
            res.move_to_end(page)
            if code & 1:
                res[page] = 1
        else:
            ins += 1
            if not cache_pages:
                if code & 1:
                    wb += 1
                continue
            if len(res) >= cache_pages and res.popitem(False)[1]:
                wb += 1
            res[page] = code & 1
        last = page
    return SwapStats(ins, wb)
