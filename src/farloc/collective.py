"""Collective allocator: one facade over cooperating sub-allocators.

The collective allocator owns a :class:`~farloc.farmem.Space` and routes
allocations to one of three sub-allocator kinds: the singleton purely-local
sub-allocator (bounded, never swapped), the singleton swappable plain
sub-allocator (unbounded, first-fit across the pages it owns), and per-page
sub-allocators that each own exactly one fresh page.  Every swappable page
is owned by exactly one sub-allocator, so a handle identifies its
sub-allocator and placement code can steer an allocation next to an
existing object by asking for that object's sub-allocator.

The hint baseline, a conventional allocator whose only placement control is
"allocate near this object", is the plain pool with a preferred page:
:meth:`CollectiveAllocator.allocate` with a ``hint`` handle.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .farmem import (
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
    """The size of one object; checked once, when the layout is built."""

    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise UsageError(f"object size must be positive, got {self.size_bytes}")


def _request_bytes(count: int, layout: ObjectLayout) -> int:
    """Bytes of ``count`` objects of ``layout``, once the count is checked."""
    if count < 1:
        raise UsageError(f"count must be >= 1, got {count}")
    return count * layout.size_bytes


class _PagePool:
    """First-fit allocation across an ordered set of owned pages.

    Requests go to the oldest owned page whose largest free extent fits; a
    new empty page is opened only when no owned page can serve the request.
    Blocks are placed by size alone, so a page whose largest extent fits a
    request always serves it.  Pages are never retired, so a fully freed
    page stays owned and is reused.  A block larger than a page is refused
    where a new page would open, before it opens.  The pool records
    ``owner`` in ``owners`` as the owner of each page it opens.

    A flat max-segment tree over per-page largest extents replaces the
    linear creation-order scan with an O(log n) leftmost-fit descent; every
    carve or free refreshes one leaf-to-root path.  The tree is the only
    cache of a page's largest extent: a page's free list keeps none, and a
    leaf is re-read from it.  Being exact, a leaf also answers whether a
    preferred page fits a request, so a preferred page that cannot fit
    falls back to first fit without a failed carve.  Frees bypass
    ``allocate``, so their callers report each owned page they change via
    ``refresh`` to keep its leaf exact.
    """

    __slots__ = ("_space", "_pages", "_pos", "_cap", "_tree", "_owners", "_owner")

    def __init__(self, space: Space, owners: dict, owner):
        self._space = space
        self._pages: list[PageId] = []
        self._pos: dict[PageId, int] = {}
        self._cap = 1
        self._tree = [0, 0]         # 1-based heap layout, leaves at _cap.._cap*2-1
        self._owners = owners
        self._owner = owner

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

    def refresh(self, page: PageId) -> None:
        """Re-read the largest free extent of owned ``page``."""
        self._set(self._pos[page], self._space.page_max_free(page))

    def allocate(self, size: int, page: PageId | None = None) -> Handle:
        """A block of ``size`` bytes on owned ``page`` when it fits there,
        else on the first owned page that fits, else on a new page."""
        t = self._tree
        cap = self._cap
        pos = self._pos.get(page)
        if pos is None or t[cap + pos] < size:
            if t[1] >= size:
                i = 1
                while i < cap:
                    i *= 2
                    if t[i] < size:
                        i += 1
                pos = i - cap
            elif size > self._space.cfg.page_size_bytes:
                raise UsageError(f"swappable block of {size} bytes cannot fit one page")
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
        self._owners[page] = self._owner
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
        self._plain_pool = _PagePool(space, self._page_owner, self._plain)

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
        return self._owner(handle, self._space.page_of(handle))   # validates the handle

    def _owner(self, handle: Handle, page: PageId | None) -> SubAllocatorRef:
        owner = self._purely_local if page is None else self._page_owner.get(page)
        if owner is None:
            raise UsageError(f"handle {handle:#x} is not managed by this allocator")
        return owner

    def _own(self, ref: SubAllocatorRef) -> SubAllocatorRef:
        """The ref this allocator handed out that names the same
        sub-allocator as ``ref``: ``ref`` itself, found by identity, or an
        equal one, found by equality; raises for any other ref."""
        if ref is self._plain or ref is self._purely_local:
            return ref
        owner = self._page_owner.get(ref.id)
        if owner is ref:
            return ref
        for own in (owner, self._purely_local, self._plain):
            if own == ref:
                return own
        raise UsageError(f"unknown sub-allocator {ref}")

    # -- occupancy -------------------------------------------------------

    def allocated_bytes(self, ref: SubAllocatorRef) -> int:
        """Bytes live in ``ref``; only the tests read it, their window on the free lists."""
        ref = self._own(ref)
        space = self._space
        if ref is self._purely_local:
            return space.purely_local_allocated_bytes
        if ref is self._plain:
            return sum(map(space.page_allocated_bytes, self._plain_pool.pages))
        return space.page_allocated_bytes(ref.id)

    def occupancy(self, ref: SubAllocatorRef) -> float:
        """Share of ``ref``'s capacity in use; the singletons' is for the tests."""
        ref = self._own(ref)
        space = self._space
        if ref is self._plain:
            return 0.0   # unbounded: occupancy is defined as zero
        if ref is self._purely_local:
            cap = space.cfg.purely_local_capacity_bytes
            return space.purely_local_allocated_bytes / cap if cap else 1.0
        return space.page_allocated_bytes(ref.id) / space.cfg.page_size_bytes

    def is_occupancy_under(self, ref: SubAllocatorRef, ratio: float) -> bool:
        if not 0.0 <= ratio <= 1.0:
            raise UsageError(f"occupancy ratio must be in [0, 1], got {ratio}")
        return self.occupancy(ref) < ratio

    # -- allocation ------------------------------------------------------

    def sub_allocate(self, ref: SubAllocatorRef, count: int, layout: ObjectLayout) -> Handle:
        ref = self._own(ref)
        total = _request_bytes(count, layout)
        if ref is self._plain:
            return self._plain_pool.allocate(total)
        if ref is self._purely_local:
            return self._space.carve_purely_local(total)
        return self._space.carve_in_page(ref.id, total)   # checks the page size

    def allocate(self, count: int, layout: ObjectLayout, hint: Handle | None = None) -> Handle:
        """A block in the swappable plain pool: on the page of ``hint`` when
        the pool owns that page and the block fits there, else by first fit
        over the pool's pages.  Whether the hint's page fits is read from the
        pool's segment tree, so a miss costs no failed carve."""
        return self._plain_pool.allocate(_request_bytes(count, layout),
                                         self._space.page_of(hint) if hint else None)

    def deallocate(self, handle: Handle, count: int, layout: ObjectLayout) -> None:
        """Free a block previously returned by any of this allocator's
        sub-allocators; the owning sub-allocator is derived from the handle."""
        space = self._space
        page = space.page_of(handle)   # validates the handle
        owner = self._owner(handle, page)
        expected = _request_bytes(count, layout)
        actual = space.block_size(handle)
        if actual != expected:
            raise UsageError(
                f"deallocate of {expected} bytes but block holds {actual} bytes")
        space.free(handle)
        if owner is self._plain:
            self._plain_pool.refresh(page)

    def page_owner_map(self) -> dict[PageId, SubAllocatorRef]:
        """Page -> owner; only the tests read it, their window on page ownership."""
        return dict(self._page_owner)


# The hint baseline is CollectiveAllocator.allocate.  The old class name stays
# for perfbench: its traced run counts vars(HintAllocator)["allocate"] and
# ["deallocate"] as collective.alloc and collective.dealloc, which is also why
# the hint entry is a method of its own and not a keyword of sub_allocate.
# The alias goes once perfbench reads its allocator counts from the library.
HintAllocator = CollectiveAllocator
