"""Node placement shared by the placement-aware containers.

Where each node lands is the one policy that decides how much a container
swaps, so every placement decision the B-tree and the skip list share lives
here, once:

* the allocator a variant needs, and the check that it got it;
* the priority list, which orders nodes by how many queries pass through
  them, and the purely-local prefix at its front, whose last node is
  ``_least_priority``;
* ``_place``, the block of a new node: near the hint under the hint
  allocator, else on the page of a swappable probe node, else in the
  purely-local region, making room there by moving nodes from the back of
  the prefix to swappable memory, else plain swappable;
* the priority-list half of relocating a node;
* the destinations of a batch rearrangement.

A container keeps its node layout, its descent, scan and traversal loops,
and picks the arguments of ``_place``: the node to probe, the node the new
one will follow on the priority list, and the hint.  For relocation it supplies
``_repoint(h, new_h, node, referrers)``, which rewrites its structural
pointers to the moved node, and, when those cannot be found from the node
itself, ``_referrers(h)``.  Every node object carries ``prev``/``next``
priority-list links; its block size is read from the space's ledger.
"""
from __future__ import annotations

from ..collective import CollectiveAllocator, HintAllocator, Kind
from ..farmem import CapacityExhausted, ConfigError, Handle, UsageError

# A batch rearrangement moves to a fresh per-page sub-allocator once the
# current one's occupancy reaches this fraction of the page.
OCCUPANCY_LIMIT = 0.7


class PlacedContainer:
    """Allocator, priority list, eviction and relocation of a container.

    Subclasses name their hint variant (``HINT``), the variants with a
    purely-local region (``LOCAL_VARIANTS``) and those with a batch
    rearrangement (``_REARRANGING``), and map every block size they use to
    its ``ObjectLayout`` in ``_layouts``.
    """

    def __init__(self, allocator, variant, value_slot: int):
        if value_slot < 1:
            raise ConfigError(f"value slot must be positive, got {value_slot}")
        if variant is self.HINT:
            if not isinstance(allocator, HintAllocator):
                raise ConfigError("hint variant needs a HintAllocator")
            self._alloc = None
            self._halloc = allocator
        else:
            if not isinstance(allocator, CollectiveAllocator):
                raise ConfigError(f"{variant.value} variant needs a CollectiveAllocator")
            self._alloc = allocator
            self._halloc = None
        self._allocator = allocator
        self._space = allocator.space
        self._variant = variant
        self._value_slot = value_slot
        self._uses_local = variant in self.LOCAL_VARIANTS
        self._layouts = {}
        self._nodes = {}
        self._size = 0
        self._prio_head: Handle = 0
        self._prio_tail: Handle = 0
        self._least_priority: Handle = 0

    # -- basic properties ------------------------------------------------

    @property
    def space(self):
        return self._space

    @property
    def has_rearrangement(self) -> bool:
        return self._variant in self._REARRANGING

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def __len__(self) -> int:
        return self._size

    def node_handles(self) -> list[Handle]:
        """Every live node; only the tests read it, their window on the node set."""
        return list(self._nodes)

    def _check_value(self, value: bytes) -> None:
        if len(value) > self._value_slot:
            raise UsageError(
                f"value of {len(value)} bytes exceeds the {self._value_slot}-byte slot")

    # -- allocation ------------------------------------------------------

    def _alloc_plain(self, layout) -> Handle:
        return self._alloc.sub_allocate(self._alloc.swappable_plain, 1, layout)

    def _place(self, probe: Handle, stop: Handle, hint: Handle, layout, held) -> Handle:
        """A block for a new node that will follow ``stop`` on the priority
        list (0: the head).

        The hint variant takes the hint allocator's block near ``hint``.
        Otherwise a swappable ``probe`` tries the sub-allocator that owns it.
        Then, when the variant has the purely-local region and ``stop`` is
        the head or purely local, a purely-local carve is tried, and each
        failure moves the least-priority node to swappable memory, until the
        carve fits or ``stop`` is the prefix's last node: ``stop`` and every
        node ahead of it stay put.  Entries of ``held`` that name a moved
        node are updated to its new handle.  Failing all of that, the block
        is plain swappable.
        """
        if self._halloc is not None:
            return self._halloc.allocate(1, layout, hint or None)
        alloc = self._alloc
        space = self._space
        if probe and not space.is_purely_local(probe):
            try:
                return alloc.sub_allocate(alloc.get_suballocator_by_handle(probe), 1, layout)
            except CapacityExhausted:
                pass
        if self._uses_local and (not stop or space.is_purely_local(stop)):
            while True:
                try:
                    return alloc.sub_allocate(alloc.purely_local, 1, layout)
                except CapacityExhausted:
                    pass
                lp = self._least_priority
                if lp == stop:
                    break
                new_lp = self._relocate(lp, self._alloc_plain, self._referrers(lp))
                for i, x in enumerate(held):
                    if x == lp:
                        held[i] = new_lp
        return self._alloc_plain(layout)

    # -- priority list ---------------------------------------------------

    def _splice_after(self, anchor: Handle, h: Handle) -> None:
        """Link node ``h`` into the priority list right after ``anchor``
        (0: at the head).  A purely-local ``h`` right after the prefix's last
        node becomes its new last node."""
        nodes = self._nodes
        touch = self._space.touch_block
        node = nodes[h]
        if anchor:
            a = nodes[anchor]
            nxt = a.next
            a.next = h
            touch(anchor, True)
        else:
            nxt = self._prio_head
            self._prio_head = h
        node.prev = anchor
        node.next = nxt
        if nxt:
            n = nodes[nxt]
            n.prev = h
            touch(nxt, True)
        else:
            self._prio_tail = h
        touch(h, True)
        if self._least_priority == anchor and self._space.is_purely_local(h):
            self._least_priority = h

    # -- relocation ------------------------------------------------------

    def _referrers(self, h: Handle):
        """What ``_repoint`` needs to find the references to ``h``; called
        before the move, because finding them may touch nodes."""
        return None

    def _relocate(self, h: Handle, place, referrers=None) -> Handle:
        """Move node ``h`` into the block ``place(layout)`` returns and free
        the old block; its priority-list position is unchanged."""
        nodes = self._nodes
        touch = self._space.touch_block
        node = nodes[h]
        layout = self._layouts[self._space.block_size(h)]
        new_h = place(layout)
        touch(h, False)
        nodes[new_h] = node
        del nodes[h]
        touch(new_h, True)
        self._repoint(h, new_h, node, referrers)
        prev, nxt = node.prev, node.next
        if prev:
            p = nodes[prev]
            p.next = new_h
            touch(prev, True)
        elif self._prio_head == h:
            self._prio_head = new_h
        if nxt:
            n = nodes[nxt]
            n.prev = new_h
            touch(nxt, True)
        elif self._prio_tail == h:
            self._prio_tail = new_h
        if self._least_priority == h:
            # a swappable destination ends the prefix one node earlier
            self._least_priority = new_h if self._space.is_purely_local(new_h) else prev
        self._allocator.deallocate(h, 1, layout)
        return new_h

    # -- batch rearrangement ---------------------------------------------

    def _destinations(self) -> _Destinations:
        if not self.has_rearrangement:
            raise UsageError(f"variant {self._variant.value} has no batch rearrangement")
        return _Destinations(self._alloc, self._halloc)

    # -- offline inspection (no touch accounting) ------------------------

    def _check_priority_list(self) -> list[Handle]:
        """Assert the priority-list and purely-local-prefix invariants;
        returns the list front to back."""
        nodes = self._nodes
        space = self._space
        seen = []
        prev = 0
        h = self._prio_head
        while h:
            node = nodes[h]
            assert node.prev == prev
            seen.append(h)
            prev = h
            h = node.next
        assert self._prio_tail == prev
        assert len(seen) == len(nodes) and set(seen) == set(nodes), \
            "priority list must contain every node exactly once"
        flags = [space.is_purely_local(x) for x in seen]
        k = sum(flags)
        assert all(flags[:k]), "purely-local nodes must form a prefix"
        assert self._least_priority == (seen[k - 1] if k else 0)
        if not self._uses_local:
            assert k == 0, "this variant must not hold purely-local nodes"
        return seen


class _Destinations:
    """Where one batch rearrangement moves nodes, in the order it visits them.

    Under the collective allocator: into per-page sub-allocators, listed in
    ``created``, opening a fresh one once the current one's occupancy
    reaches ``OCCUPANCY_LIMIT``.  Under the hint allocator: onto the page of
    the node moved just before, the only control that allocator offers.
    """

    def __init__(self, alloc, halloc):
        self._alloc = alloc
        self._halloc = halloc
        self._last: Handle = 0
        self.created = []
        if alloc is not None:
            self._page = self._fresh()

    def _fresh(self):
        ref = self._alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
        self.created.append(ref)
        return ref

    def place(self, layout) -> Handle:
        if self._halloc is not None:
            self._last = self._halloc.allocate(1, layout, self._last or None)
            return self._last
        if not self._alloc.is_occupancy_under(self._page, OCCUPANCY_LIMIT):
            self._page = self._fresh()
        return self._alloc.sub_allocate(self._page, 1, layout)
