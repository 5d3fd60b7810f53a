"""Skip list with pluggable node-placement policies.

Placement mirrors the B-tree variants, adapted to a structure without parent
links:

* ``plain``      -- swappable plain sub-allocator
* ``hint``       -- hint allocator, key-order predecessor as the hint
* ``local``      -- probe the sub-allocator owning the new node's
                    priority-list predecessor, evicting from the back of the
                    purely-local prefix on exhaustion
* ``page``       -- same probe without the purely-local region; batch
                    rearrangement sweeps nodes in key order into per-page
                    sub-allocators
* ``local+page`` -- page plus the purely-local region and eviction policy

The priority list orders nodes by non-increasing level, so taller towers
(touched by more searches) sit at the front; the purely-local nodes form a
prefix of it.  The head tower is plain interpreter state outside the
simulated space: it is pinned bookkeeping, not a data block, so it never
faults and never appears in link statistics.

Node blocks are sized by level (one size class per level), which keeps page
occupancy arithmetic exact.  Unlike the B-tree's uniform blocks, one evicted
block may be too small for the incoming one, so ``PlacedContainer._place``
(``placement.py``) moves nodes out of the purely-local region until it fits
the new block or only the new node's priority-list predecessor and the
nodes ahead of it are left there.
"""
from __future__ import annotations

import random
from enum import Enum

from ..collective import ObjectLayout
from ..farmem import Handle, UsageError
from .placement import PlacedContainer


class SkipListVariant(Enum):
    PLAIN = "plain"
    HINT = "hint"
    LOCAL = "local"
    PAGE = "page"
    LOCAL_PAGE = "local+page"


# the tallest tower a node can draw, and the chance of each level above 1
MAX_LEVEL = 20
LEVEL_P = 0.5


def tower_block_bytes(level: int, value_slot: int) -> int:
    """Bytes of one node block of ``level``: key, value slot, level word,
    priority-list prev/next, then one word per forward pointer."""
    return 8 + value_slot + 8 + 16 + 8 * level


class _SkipNode:
    __slots__ = ("h", "key", "val", "level", "forwards", "prev", "next")

    def __init__(self, h, key, val, level):
        self.h = h
        self.key = key
        self.val = val
        self.level = level
        self.forwards = [None] * level
        self.prev = None
        self.next = None


class SkipList(PlacedContainer):
    """Geometric-level skip list; duplicate-key inserts are no-ops."""

    HINT = SkipListVariant.HINT
    LOCAL_VARIANTS = frozenset({SkipListVariant.LOCAL, SkipListVariant.LOCAL_PAGE})
    _REARRANGING = frozenset(
        {SkipListVariant.HINT, SkipListVariant.PAGE, SkipListVariant.LOCAL_PAGE})

    def __init__(self, allocator, variant: SkipListVariant, *,
                 value_slot: int = 152, level_seed: int = 0):
        super().__init__(allocator, variant, value_slot)
        self._base = tower_block_bytes(0, value_slot)
        for lvl in range(1, MAX_LEVEL + 1):
            size = self._base + 8 * lvl
            self._layouts[size] = ObjectLayout(size)
        self._rng = random.Random(level_seed)
        # the head tower's forward pointers; None ends a level
        self._head: list[_SkipNode | None] = [None] * MAX_LEVEL
        self._levels = 0
        # _tails[lvl] = last priority-list node of level >= lvl, the splice
        # point for a new node of that level
        self._tails: list[_SkipNode | None] = [None] * (MAX_LEVEL + 1)

    # -- basic properties ------------------------------------------------

    def block_bytes(self, level: int) -> int:
        return self._base + 8 * level

    def _draw_level(self) -> int:
        lvl = 1
        while lvl < MAX_LEVEL and self._rng.random() < LEVEL_P:
            lvl += 1
        return lvl

    # -- search plumbing -------------------------------------------------

    def _descend(self, key: int):
        """The handles of the nodes the search for ``key`` reads, in order,
        touching nothing; the predecessor node per level (None = head
        tower); and the first node with key >= the target."""
        update = [None] * MAX_LEVEL
        seen = []
        cur = None
        for lvl in reversed(range(self._levels)):
            nxt = self._head[lvl] if not cur else cur.forwards[lvl]
            while nxt:
                seen.append(nxt.h)
                if nxt.key < key:
                    cur = nxt
                    nxt = nxt.forwards[lvl]
                else:
                    break
            update[lvl] = cur
        cand = self._head[0] if not cur else cur.forwards[0]
        return seen, update, cand

    # -- queries ---------------------------------------------------------

    def search(self, key: int) -> bytes | None:
        seen, _, cand = self._descend(key)
        self._space.touch_blocks(seen, False)
        if cand and cand.key == key:
            return cand.val
        return None

    def update(self, key: int, value: bytes) -> bool:
        self._check_value(value)
        seen, _, cand = self._descend(key)
        self._space.touch_blocks(seen, False)
        if cand and cand.key == key:
            cand.val = value
            self._space.touch_block(cand.h, True)
            return True
        return False

    def scan(self, key: int, length: int) -> list[tuple[int, bytes]]:
        """Up to ``length`` pairs in ascending key order along the level-0
        chain, starting at ``key`` or its successor."""
        if length < 1:
            raise UsageError(f"scan length must be >= 1, got {length}")
        # the descent and the walk only read, so their touches are
        # accounted in one batch
        seen, _, node = self._descend(key)
        out: list[tuple[int, bytes]] = []
        while node and len(out) < length:
            seen.append(node.h)
            out.append((node.key, node.val))
            node = node.forwards[0]
        self._space.touch_blocks(seen, False)
        return out

    # -- insertion -------------------------------------------------------

    def insert(self, key: int, value: bytes) -> bool:
        self._check_value(value)
        seen, update, cand = self._descend(key)
        self._space.touch_blocks(seen, False)
        if cand and cand.key == key:
            return False
        level = self._draw_level()
        # the new node follows ``tail`` on the priority list; making room
        # stops at ``tail``, so it never moves
        tail = self._tails[level]
        h = self._place(tail, tail, update[0], self._layouts[self.block_bytes(level)])
        node = _SkipNode(h, key, value, level)
        self._nodes[h] = node
        touch = self._space.touch_block
        for i in range(level):
            pred = update[i]
            if pred:
                node.forwards[i] = pred.forwards[i]
                pred.forwards[i] = node
                touch(pred.h, True)
            else:
                node.forwards[i] = self._head[i]
                self._head[i] = node
        touch(h, True)
        self._splice_after(tail, node)
        for lvl in range(1, level + 1):
            if self._tails[lvl] is tail:
                self._tails[lvl] = node
        if level > self._levels:
            self._levels = level
        self._size += 1
        return True

    # -- relocation ------------------------------------------------------

    def _referrers(self, node: _SkipNode) -> list:
        seen, update, _ = self._descend(node.key)
        self._space.touch_blocks(seen, False)
        return update

    def _repoint(self, node: _SkipNode, preds: list) -> None:
        """Touch the level-wise predecessors, whose forward pointers lead to
        the moved ``node`` (``preds[i]`` owns the one in slot ``i``; None is
        the head tower, outside the space)."""
        touch = self._space.touch_block
        for pred in preds[:node.level]:
            if pred:
                touch(pred.h, True)

    # -- batch rearrangement ---------------------------------------------

    def make_page_aware(self):
        """Key-order sweep into per-page sub-allocators, or for the hint
        variant onto the previous node's page; returns the per-page
        sub-allocators created (empty for hint)."""
        dest = self._destinations()
        last_seen = [None] * MAX_LEVEL
        touch = self._space.touch_block
        node = self._head[0]
        while node:
            touch(node.h, False)
            if not self._space.is_purely_local(node.h):
                self._relocate(node, dest.place, last_seen)
            for i in range(node.level):
                last_seen[i] = node
            node = node.forwards[0]
        return dest.created

    # -- offline inspection (no touch accounting) ------------------------

    def items(self) -> list[tuple[int, bytes]]:
        out = []
        node = self._head[0]
        while node:
            out.append((node.key, node.val))
            node = node.forwards[0]
        return out

    def save_values(self) -> dict[Handle, bytes]:
        """Every stored value, node by node, for :meth:`restore_values`."""
        return {h: node.val for h, node in self._nodes.items()}

    def restore_values(self, saved: dict[Handle, bytes]) -> None:
        """Put back the values :meth:`save_values` returned.  Only updates
        may have run since, so every node still holds the same key."""
        nodes = self._nodes
        if saved.keys() != nodes.keys():
            raise UsageError("the list's nodes changed since its values were saved")
        for h, val in saved.items():
            nodes[h].val = val

    def structural_links(self):
        """Forward edges between stored nodes, every level, as handle pairs;
        the head tower contributes none."""
        for h, node in self._nodes.items():
            for t in node.forwards:
                if t:
                    yield h, t.h

    def validate(self) -> None:
        """Assert every structural and placement invariant; the tests' one full check."""
        seq = []
        node = self._head[0]
        while node:
            assert not seq or node.key > seq[-1].key, "level-0 chain out of order"
            seq.append(node)
            node = node.forwards[0]
        assert len(seq) == len(self._nodes) == self._size
        for i in range(MAX_LEVEL):
            expect = [x for x in seq if x.level > i]
            got = []
            node = self._head[i]
            while node:
                got.append(node)
                node = node.forwards[i]
            assert got == expect, f"forward chain {i} inconsistent"
        if seq:
            assert max(x.level for x in seq) == self._levels
        else:
            assert self._levels == 0
        plist = self._check_priority_list()
        levels = [x.level for x in plist]
        assert levels == sorted(levels, reverse=True), \
            "priority list must be ordered by non-increasing level"
        for lvl in range(1, MAX_LEVEL + 1):
            tall = [x for x in plist if x.level >= lvl]
            assert self._tails[lvl] is (tall[-1] if tall else None)
