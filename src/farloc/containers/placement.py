"""Node placement shared by the placement-aware containers.

Where each node lands is the one policy that decides how much a container
swaps, so every placement decision the B-tree and the skip list share lives
here, once:

* the priority list, which orders nodes by how many queries pass through
  them, and the purely-local prefix at its front, whose last node is
  ``_least_priority``;
* ``_place``, the block of a new node: for the hint variant, the plain
  pool's block near the hint (``CollectiveAllocator.allocate``); otherwise
  on the page of a swappable probe node, else in the purely-local region,
  making room there by moving nodes from the back of the prefix to
  swappable memory, else plain swappable;
* relocating a node;
* the destinations of a batch rearrangement.

Structural pointers hold node objects; a node's handle, ``node.h``, is its
block in the simulated space, and ``_nodes`` maps each live handle to its
node.  Relocating a node therefore moves one block: it sets ``node.h``,
re-keys ``_nodes`` and frees the old block, and no pointer changes.  The
space still accounts the pointer writes a real relocation makes, so a
container supplies ``_repoint(node, referrers)``, which touches the nodes
that point to the moved one, and, when those cannot be found from the node
itself, ``_referrers(node)``.  A container keeps its node layout, its
descent, scan and traversal loops, and picks the arguments of ``_place``:
the node to probe, the node the new one will follow on the priority list,
and the hint.  Every node object carries ``h`` and its ``prev``/``next``
priority-list links; its block size is read from the space's ledger.
"""
from __future__ import annotations

from ..collective import CollectiveAllocator, Kind
from ..farmem import CapacityExhausted, ConfigError, Handle, UsageError

# A batch rearrangement moves to a fresh per-page sub-allocator once the
# current one's occupancy reaches this fraction of the page, or sooner when
# the node it moves does not fit.
OCCUPANCY_LIMIT = 0.7


class PlacedContainer:
    """Allocator, priority list, eviction and relocation of a container.

    Subclasses name their hint variant (``HINT``), the variants with a
    purely-local region (``LOCAL_VARIANTS``) and those with a batch
    rearrangement (``_REARRANGING``), and map every block size they use to
    its ``ObjectLayout`` in ``_layouts``.
    """

    def __init__(self, allocator: CollectiveAllocator, variant, value_slot: int):
        self._nodes = {}
        if value_slot < 1:
            raise ConfigError(f"value slot must be positive, got {value_slot}")
        self._alloc = allocator
        self._space = allocator.space
        self._variant = variant
        self._hint = variant is self.HINT
        self._value_slot = value_slot
        self._uses_local = variant in self.LOCAL_VARIANTS
        self._layouts = {}
        self._size = 0
        # the priority list's first node and the purely-local prefix's last,
        # None while the list or the prefix is empty
        self._prio_head = None
        self._least_priority = None

    def __del__(self):
        # Node links form reference cycles: ``prev`` with the ``next`` it
        # mirrors, and ``next`` (priority order) with structural pointers (key
        # order).  Cutting the priority list frees a dropped container's nodes
        # at once, not at the next full garbage collection.
        for node in self._nodes.values():
            node.prev = node.next = None

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

    def _place(self, probe, stop, hint, layout) -> Handle:
        """A block for a new node that will follow node ``stop`` on the
        priority list (None: the head).

        The hint variant takes the plain pool's block near ``hint``.
        Otherwise a swappable ``probe`` tries the sub-allocator that owns it.
        Then, when the variant has the purely-local region and ``stop`` is
        the head or purely local, a purely-local carve is tried, and each
        failure moves the least-priority node to swappable memory, until the
        carve fits or ``stop`` is the prefix's last node: ``stop`` and every
        node ahead of it stay put.  Failing all of that, the block is plain
        swappable.
        """
        alloc = self._alloc
        if self._hint:
            return alloc.allocate(1, layout, hint.h if hint else None)
        space = self._space
        if probe and not space.is_purely_local(probe.h):
            try:
                return alloc.sub_allocate(alloc.get_suballocator_by_handle(probe.h), 1, layout)
            except CapacityExhausted:
                pass
        if self._uses_local and (not stop or space.is_purely_local(stop.h)):
            while True:
                try:
                    return alloc.sub_allocate(alloc.purely_local, 1, layout)
                except CapacityExhausted:
                    pass
                lp = self._least_priority
                if lp is stop:
                    break
                self._relocate(lp, self._alloc_plain, self._referrers(lp))
        return self._alloc_plain(layout)

    # -- priority list ---------------------------------------------------

    def _splice_after(self, anchor, node) -> None:
        """Link ``node`` into the priority list right after ``anchor``
        (None: at the head).  A purely-local ``node`` right after the
        prefix's last node becomes its new last node."""
        touch = self._space.touch_block
        if anchor:
            nxt = anchor.next
            anchor.next = node
            touch(anchor.h, True)
        else:
            nxt = self._prio_head
            self._prio_head = node
        node.prev = anchor
        node.next = nxt
        if nxt:
            nxt.prev = node
            touch(nxt.h, True)
        touch(node.h, True)
        if self._least_priority is anchor and self._space.is_purely_local(node.h):
            self._least_priority = node

    # -- relocation ------------------------------------------------------

    def _referrers(self, node):
        """What ``_repoint`` needs to find the nodes that point to ``node``;
        called before the move, because finding them may touch nodes."""
        return None

    def _relocate(self, node, place, referrers=None) -> None:
        """Move ``node`` into the block ``place(layout)`` returns and free
        the old block.  Its pointers and its priority-list position stay;
        the space sees the old block read, the new one written, and the
        writes of every pointer to the node: ``_repoint``'s, then its
        priority-list neighbours'."""
        nodes = self._nodes
        touch = self._space.touch_block
        h = node.h
        layout = self._layouts[self._space.block_size(h)]
        new_h = place(layout)
        touch(h, False)
        nodes[new_h] = node
        del nodes[h]
        node.h = new_h
        touch(new_h, True)
        self._repoint(node, referrers)
        if node.prev:
            touch(node.prev.h, True)
        if node.next:
            touch(node.next.h, True)
        if self._least_priority is node and not self._space.is_purely_local(new_h):
            # a swappable destination ends the prefix one node earlier
            self._least_priority = node.prev
        self._alloc.deallocate(h, 1, layout)

    # -- batch rearrangement ---------------------------------------------

    def _destinations(self) -> _Destinations:
        if not self.has_rearrangement:
            raise UsageError(f"variant {self._variant.value} has no batch rearrangement")
        return _Destinations(self._alloc, self._hint)

    # -- offline inspection (no touch accounting) ------------------------

    def _check_priority_list(self) -> list:
        """Assert the priority-list and purely-local-prefix invariants, and
        that every node's handle maps back to it; returns the list's nodes
        front to back."""
        nodes = self._nodes
        space = self._space
        seen = []
        prev = None
        node = self._prio_head
        while node:
            assert node.prev is prev
            assert nodes.get(node.h) is node, "a node's handle must map to it"
            seen.append(node)
            prev = node
            node = node.next
        assert len(seen) == len(nodes) and {n.h for n in seen} == nodes.keys(), \
            "priority list must contain every node exactly once"
        flags = [space.is_purely_local(n.h) for n in seen]
        k = sum(flags)
        assert all(flags[:k]), "purely-local nodes must form a prefix"
        assert self._least_priority is (seen[k - 1] if k else None)
        if not self._uses_local:
            assert k == 0, "this variant must not hold purely-local nodes"
        return seen


class _Destinations:
    """Where one batch rearrangement moves nodes, in the order it visits them.

    Into per-page sub-allocators, listed in ``created``, opening a fresh one
    once the current one's occupancy reaches ``OCCUPANCY_LIMIT`` or the node
    does not fit it.  For the hint variant: into the plain pool, onto the
    page of the node moved just before, the only control the hint baseline
    offers; it opens no per-page sub-allocator.
    """

    def __init__(self, alloc: CollectiveAllocator, hint: bool):
        self._alloc = alloc
        self._hint = hint
        self._last: Handle | None = None
        self.created = []
        if not hint:
            self._page = self._fresh()

    def _fresh(self):
        ref = self._alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
        self.created.append(ref)
        return ref

    def place(self, layout) -> Handle:
        if self._hint:
            self._last = self._alloc.allocate(1, layout, self._last)
            return self._last
        if self._alloc.is_occupancy_under(self._page, OCCUPANCY_LIMIT):
            try:
                return self._alloc.sub_allocate(self._page, 1, layout)
            except CapacityExhausted:
                pass    # a page under the limit can still lack room for a large node
        self._page = self._fresh()
        return self._alloc.sub_allocate(self._page, 1, layout)
