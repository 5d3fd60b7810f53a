"""Collective allocator: one facade over cooperating sub-allocators.

The collective allocator owns a :class:`~farloc.farmem.Space` and routes
allocations to one of three sub-allocator kinds: the singleton purely-local
sub-allocator (bounded, never swapped), the singleton swappable plain
sub-allocator (unbounded, first-fit across the pages it owns), and per-page
sub-allocators that each own exactly one fresh page.  Every swappable page
is owned by exactly one sub-allocator, so a handle identifies its
sub-allocator and placement code can steer an allocation next to an
existing object by asking for that object's sub-allocator.

:class:`HintAllocator` is the separate baseline allocator whose only
placement control is an optional hint handle.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .farmem import (
    CapacityExhausted,
    Handle,
    PageId,
    Space,
    UsageError,
)


class Kind(Enum):
    PURELY_LOCAL = "purely_local"
    SWAPPABLE_PLAIN = "swappable_plain"
    NEW_PER_PAGE = "new_per_page"


@dataclass(frozen=True)
class SubAllocatorRef:
    """Identity of one sub-allocator: kind plus id, a per-page one's page."""

    kind: Kind
    id: int


@dataclass(frozen=True)
class ObjectLayout:
    size_bytes: int

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise UsageError(f"object size must be positive, got {self.size_bytes}")


def _request_bytes(count: int, layout: ObjectLayout) -> int:
    """Bytes of ``count`` objects of ``layout``, once both are checked."""
    layout.validate()
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    return count * layout.size_bytes


def _check_fits_page(space: Space, total: int) -> None:
    if total > space.cfg.page_size_bytes:
        raise UsageError(f"swappable block of {total} bytes cannot fit one page")


def _check_free(space: Space, handle: Handle, count: int, layout: ObjectLayout) -> None:
    """Check that ``handle`` names a live block of ``count`` objects of
    ``layout``, as a deallocation must."""
    expected = _request_bytes(count, layout)
    actual = space.block_size(handle)
    if actual != expected:
        raise UsageError(
            f"deallocate of {expected} bytes but block holds {actual} bytes")


class _PagePool:
    """First-fit allocation across an ordered set of owned pages.

    Requests go to the oldest owned page whose largest free extent fits; a
    new empty page is opened only when no owned page can serve the request.
    Blocks are placed by size alone, so a page whose largest extent fits a
    request always serves it.  Pages are never retired, so a fully freed
    page stays owned and is reused.

    A flat max-segment tree over per-page largest extents replaces the
    linear creation-order scan with an O(log n) leftmost-fit descent; every
    carve or free refreshes one leaf-to-root path.  The tree is the only
    cache of a page's largest extent: a page's free list keeps none, and a
    leaf is re-read from it.  Frees and hinted carves bypass ``allocate``,
    so their callers report each owned page they change via ``refresh`` to
    keep its leaf exact.
    """

    __slots__ = ("_space", "_pages", "_pos", "_cap", "_tree", "_on_new_page")

    def __init__(self, space: Space, on_new_page=None):
        self._space = space
        self._pages: list[PageId] = []
        self._pos: dict[PageId, int] = {}
        self._cap = 1
        self._tree = [0, 0]         # 1-based heap layout, leaves at _cap.._cap*2-1
        self._on_new_page = on_new_page

    @property
    def pages(self) -> tuple[PageId, ...]:
        return tuple(self._pages)

    def _set(self, pos: int, room: int) -> None:
        t = self._tree
        i = self._cap + pos
        t[i] = room
        i >>= 1
        while i:
            left = t[2 * i]
            right = t[2 * i + 1]
            m = left if left >= right else right
            if t[i] == m:
                break
            t[i] = m
            i >>= 1

    def _grow(self) -> None:
        cap = self._cap * 2
        self._cap = cap
        t = [0] * (2 * cap)
        free = self._space.page_max_free
        for pos, page in enumerate(self._pages):
            t[cap + pos] = free(page)
        for i in range(cap - 1, 0, -1):
            left = t[2 * i]
            right = t[2 * i + 1]
            t[i] = left if left >= right else right
        self._tree = t

    def __contains__(self, page: PageId | None) -> bool:
        return page in self._pos

    def refresh(self, page: PageId) -> None:
        """Re-read the largest free extent of owned ``page``."""
        self._set(self._pos[page], self._space.page_max_free(page))

    def allocate(self, size: int) -> Handle:
        t = self._tree
        if t[1] >= size:
            cap = self._cap
            i = 1
            while i < cap:
                i *= 2
                if t[i] < size:
                    i += 1
            pos = i - cap
        else:
            pos = self._open_page()
        page = self._pages[pos]
        h = self._space.carve_in_page(page, size)
        self._set(pos, self._space.page_max_free(page))
        return h

    def _open_page(self) -> int:
        """Own a new empty page; returns its position."""
        page = self._space.create_page()
        pos = len(self._pages)
        self._pos[page] = pos
        self._pages.append(page)
        if pos == self._cap:
            self._grow()
        if self._on_new_page is not None:
            self._on_new_page(page)
        return pos


class CollectiveAllocator:
    """Facade over the sub-allocators of one space.  It keeps no byte counts
    of its own: occupancy is read from the space's per-page and purely-local
    free lists."""

    def __init__(self, space: Space):
        self._space = space
        self._purely_local = SubAllocatorRef(Kind.PURELY_LOCAL, 0)
        self._plain = SubAllocatorRef(Kind.SWAPPABLE_PLAIN, 0)
        self._page_owner: dict[PageId, SubAllocatorRef] = {}
        self._plain_pool = _PagePool(space, self._claim_for_plain)

    def _claim_for_plain(self, page: PageId) -> None:
        self._page_owner[page] = self._plain

    @property
    def space(self) -> Space:
        return self._space

    @property
    def purely_local(self) -> SubAllocatorRef:
        return self._purely_local

    @property
    def swappable_plain(self) -> SubAllocatorRef:
        return self._plain

    # -- sub-allocator lookup -------------------------------------------

    def get_suballocator_by_kind(self, kind: Kind) -> SubAllocatorRef:
        if kind is Kind.PURELY_LOCAL:
            return self._purely_local
        if kind is Kind.SWAPPABLE_PLAIN:
            return self._plain
        if kind is Kind.NEW_PER_PAGE:
            page = self._space.create_page()
            ref = SubAllocatorRef(Kind.NEW_PER_PAGE, page)
            self._page_owner[page] = ref
            return ref
        raise UsageError(f"unknown sub-allocator kind: {kind!r}")

    def get_suballocator_by_handle(self, handle: Handle) -> SubAllocatorRef:
        page = self._space.page_of(handle)   # validates the handle
        if page is None:
            return self._purely_local
        owner = self._page_owner.get(page)
        if owner is None:
            raise UsageError(f"handle {handle:#x} is not managed by this allocator")
        return owner

    def _known(self, ref: SubAllocatorRef) -> PageId | None:
        """The page a per-page ``ref`` owns, None for the two singletons;
        raises for a ref this allocator did not hand out."""
        if ref.kind is Kind.NEW_PER_PAGE:
            if self._page_owner.get(ref.id) == ref:
                return ref.id
        elif ref == self._purely_local or ref == self._plain:
            return None
        raise UsageError(f"unknown sub-allocator {ref}")

    # -- occupancy -------------------------------------------------------

    def allocated_bytes(self, ref: SubAllocatorRef) -> int:
        """Bytes live in ``ref``; only the tests read it, their window on the free lists."""
        page = self._known(ref)
        space = self._space
        if page is not None:
            return space.page_allocated_bytes(page)
        if ref.kind is Kind.PURELY_LOCAL:
            return space.purely_local_allocated_bytes
        return sum(map(space.page_allocated_bytes, self._plain_pool.pages))

    def occupancy(self, ref: SubAllocatorRef) -> float:
        """Share of ``ref``'s capacity in use; the singletons' is for the tests."""
        page = self._known(ref)
        space = self._space
        if page is not None:
            return space.page_allocated_bytes(page) / space.cfg.page_size_bytes
        if ref.kind is Kind.SWAPPABLE_PLAIN:
            return 0.0   # unbounded: occupancy is defined as zero
        cap = space.cfg.purely_local_capacity_bytes
        if cap == 0:
            return 1.0
        return space.purely_local_allocated_bytes / cap

    def is_occupancy_under(self, ref: SubAllocatorRef, ratio: float) -> bool:
        if not 0.0 <= ratio <= 1.0:
            raise UsageError(f"occupancy ratio must be in [0, 1], got {ratio}")
        return self.occupancy(ref) < ratio

    # -- allocation ------------------------------------------------------

    def sub_allocate(self, ref: SubAllocatorRef, count: int, layout: ObjectLayout) -> Handle:
        page = self._known(ref)
        total = _request_bytes(count, layout)
        space = self._space
        if ref.kind is Kind.PURELY_LOCAL:
            return space.carve_purely_local(total)
        _check_fits_page(space, total)
        if page is None:
            return self._plain_pool.allocate(total)
        return space.carve_in_page(page, total)

    def deallocate(self, handle: Handle, count: int, layout: ObjectLayout) -> None:
        """Free a block previously returned by any of this allocator's
        sub-allocators; the owning sub-allocator is derived from the handle."""
        ref = self.get_suballocator_by_handle(handle)
        _check_free(self._space, handle, count, layout)
        page = self._space.page_of(handle)
        self._space.free(handle)
        if ref.kind is Kind.SWAPPABLE_PLAIN:
            self._plain_pool.refresh(page)

    def page_owner_map(self) -> dict[PageId, SubAllocatorRef]:
        """Page -> owner; only the tests read it, their window on page ownership."""
        return dict(self._page_owner)


class HintAllocator:
    """Baseline allocator whose only placement control is a hint handle.

    With a hint on one of its pages it tries that page first; without one,
    with a hint elsewhere, or when that page is full, it falls back to
    first-fit over its pages and opens a new empty page only when none can
    fit the request.  It frees only blocks on its own pages.
    """

    def __init__(self, space: Space):
        self._space = space
        self._pool = _PagePool(space)

    @property
    def space(self) -> Space:
        return self._space

    def allocate(self, count: int, layout: ObjectLayout, hint: Handle | None = None) -> Handle:
        total = _request_bytes(count, layout)
        _check_fits_page(self._space, total)
        if hint:
            page = self._space.page_of(hint)
            if page in self._pool:
                try:
                    h = self._space.carve_in_page(page, total)
                except CapacityExhausted:
                    pass
                else:
                    self._pool.refresh(page)
                    return h
        return self._pool.allocate(total)

    def deallocate(self, handle: Handle, count: int, layout: ObjectLayout) -> None:
        page = self._space.page_of(handle)   # validates the handle
        if page not in self._pool:
            raise UsageError(f"handle {handle:#x} is not managed by this allocator")
        _check_free(self._space, handle, count, layout)
        self._space.free(handle)
        self._pool.refresh(page)
