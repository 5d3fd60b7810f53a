"""Classic B-tree with pluggable node-placement policies.

Every node is a key/value-bearing block carved out of a simulated far-memory
space; each node access goes through the space's touch accounting.  The
placement variant decides where a node created by a split lands:

* ``plain``      -- swappable plain sub-allocator, no placement control
* ``hint``       -- baseline hint allocator, parent used as the hint
* ``local``      -- probe the sub-allocator owning the split node, evicting
                    the least-priority purely-local node on exhaustion
* ``dfs``        -- probe the sub-allocator owning the split node's parent;
                    batch rearrangement relocates nodes in post-order DFS
                    into per-page sub-allocators
* ``local+dfs``  -- dfs plus the purely-local region and eviction policy
* ``veb``        -- dfs allocation policy with a van Emde Boas style
                    half-height batch rearrangement
* ``local+veb``  -- veb plus the purely-local region

Nodes are kept on a priority list ordered by non-decreasing depth; in the
local variants the purely-local nodes always form a prefix of that list and
``least_priority`` names the prefix's last node.  The list, the eviction
and the rearrangement destinations are shared with the skip list
(``placement.py``).
"""
from __future__ import annotations

from bisect import bisect_right
from enum import Enum

from ..collective import ObjectLayout
from ..farmem import Handle, UsageError
from .placement import PlacedContainer


class BTreeVariant(Enum):
    PLAIN = "plain"
    HINT = "hint"
    LOCAL = "local"
    DFS = "dfs"
    LOCAL_DFS = "local+dfs"
    VEB = "veb"
    LOCAL_VEB = "local+veb"


_PARENT_ANCHOR_VARIANTS = frozenset(
    {BTreeVariant.DFS, BTreeVariant.LOCAL_DFS, BTreeVariant.VEB, BTreeVariant.LOCAL_VEB})


# children per node at most; a node holds up to ORDER - 1 keys
ORDER = 5


def btree_block_bytes(value_slot: int) -> int:
    """Bytes of one node block: keys, value slots, child pointers, then the
    parent, priority-list prev/next and key-count words."""
    return (ORDER - 1) * 8 + (ORDER - 1) * value_slot + ORDER * 8 + 8 * 3 + 8


class _Node:
    __slots__ = ("h", "keys", "vals", "children", "parent", "prev", "next", "leaf")

    def __init__(self, h, keys, vals, children, parent, leaf):
        self.h = h
        self.keys = keys
        self.vals = vals
        self.children = children
        self.parent = parent
        self.prev = None
        self.next = None
        self.leaf = leaf


class BTree(PlacedContainer):
    """Order-5 B-tree (max 4 keys per node).

    Duplicate-key inserts are no-ops.  Values are byte strings of at most
    ``value_slot`` bytes; node blocks are padded to one fixed size so page
    occupancy arithmetic is exact.
    """

    HINT = BTreeVariant.HINT
    LOCAL_VARIANTS = frozenset(
        {BTreeVariant.LOCAL, BTreeVariant.LOCAL_DFS, BTreeVariant.LOCAL_VEB})
    _REARRANGING = frozenset(BTreeVariant) - {BTreeVariant.PLAIN, BTreeVariant.LOCAL}

    def __init__(self, allocator, variant: BTreeVariant, *, value_slot: int = 152):
        super().__init__(allocator, variant, value_slot)
        self._max_keys = ORDER - 1
        self._min_keys = (ORDER + 1) // 2 - 1
        block = btree_block_bytes(value_slot)
        self._layout = ObjectLayout(block)
        self._layouts[block] = self._layout
        self._root = None
        self._height = 0

    def __del__(self):
        # a parent link closes a reference cycle with the parent's child slot
        for node in self._nodes.values():
            node.parent = None
        super().__del__()

    # -- queries ---------------------------------------------------------

    def _descend(self, key: int):
        """The handles of the root-to-leaf path towards ``key``, touching
        nothing; the entry ``(node, index)`` that holds ``key``, or else its
        successor on that path (None when it has none); and whether ``key``
        was found."""
        path = []
        at = None
        node = self._root
        while node:
            path.append(node.h)
            keys = node.keys
            i = bisect_right(keys, key)
            if i and keys[i - 1] == key:
                return path, (node, i - 1), True
            if i < len(keys):
                at = (node, i)
            if node.leaf:
                break
            node = node.children[i]
        return path, at, False

    def search(self, key: int) -> bytes | None:
        path, at, found = self._descend(key)
        self._space.touch_blocks(path, False)
        return at[0].vals[at[1]] if found else None

    def update(self, key: int, value: bytes) -> bool:
        self._check_value(value)
        path, at, found = self._descend(key)
        self._space.touch_blocks(path, False)
        if not found:
            return False
        node, i = at
        node.vals[i] = value
        self._space.touch_block(node.h, True)
        return True

    def scan(self, key: int, length: int) -> list[tuple[int, bytes]]:
        """Up to ``length`` pairs in ascending key order, starting at ``key``
        or, when absent, at its successor.  After each pair the loop steps
        to the in-order successor: down the leftmost path right of an
        internal entry, along a leaf, or up the parent links from a leaf's
        end; every node a step visits joins the touched path, the step
        after the last pair included."""
        if length < 1:
            raise UsageError(f"scan length must be >= 1, got {length}")
        # the walk only reads, so its touches are accounted in one batch
        seen, at, _ = self._descend(key)
        out: list[tuple[int, bytes]] = []
        if at:
            node, idx = at
            for _ in range(length):
                out.append((node.keys[idx], node.vals[idx]))
                if not node.leaf:
                    node = node.children[idx + 1]
                    seen.append(node.h)
                    while not node.leaf:
                        node = node.children[0]
                        seen.append(node.h)
                    idx = 0
                elif idx + 1 < len(node.keys):
                    idx += 1
                else:
                    child, node = node, node.parent
                    while node:
                        seen.append(node.h)
                        idx = node.children.index(child)
                        if idx < len(node.keys):
                            break
                        child, node = node, node.parent
                    else:
                        break   # no successor
        self._space.touch_blocks(seen, False)
        return out

    # -- insertion -------------------------------------------------------

    def insert(self, key: int, value: bytes) -> bool:
        """Insert one pair; returns False (and changes nothing) when the key
        is already present."""
        self._check_value(value)
        root = self._root
        if not root:
            h = self._place(None, None, None, self._layout)
            root = _Node(h, [key], [value], [], None, True)
            self._nodes[h] = root
            self._splice_after(None, root)
            self._root = root
            self._height = 1
            self._size = 1
            return True
        baby, sep_k, sep_v, inserted = self._ins_rec(root, key, value)
        if baby:
            touch = self._space.touch_block
            h = self._place(root, None, None, self._layout)
            new = _Node(h, [sep_k], [sep_v], [root, baby], None, False)
            self._nodes[h] = new
            touch(h, True)
            root.parent = new
            touch(root.h, True)
            baby.parent = new
            touch(baby.h, True)
            self._splice_after(None, new)
            self._root = new
            self._height += 1
        if inserted:
            self._size += 1
        return inserted

    def _ins_rec(self, node: _Node, key: int, value: bytes):
        """Insert below ``node``.  Returns (its new sibling or None, the
        separator pair it pushes up, whether the key was new)."""
        self._space.touch_block(node.h, False)
        keys = node.keys
        i = bisect_right(keys, key)
        if i and keys[i - 1] == key:
            return None, None, None, False
        # a leaf takes the pair itself; an internal node takes the separator
        # and the new child that a split below pushes up, if any
        baby, inserted = None, True
        if not node.leaf:
            baby, key, value, inserted = self._ins_rec(node.children[i], key, value)
            if not baby:
                return None, None, None, inserted
        if len(keys) < self._max_keys:
            keys.insert(i, key)
            node.vals.insert(i, value)
            if baby:
                node.children.insert(i + 1, baby)
            self._space.touch_block(node.h, True)
            return None, None, None, inserted
        right, up_k, up_v = self._split(node, i, key, value, baby)
        return right, up_k, up_v, inserted

    def _split(self, node, i, key, value, baby):
        """Place a sibling of the full ``node``, insert the pair at ``i`` (and,
        in an internal node, the child ``baby`` right of it), move the upper
        half to the sibling and return the sibling and the middle pair, which
        moves up.

        The sibling's block is probed near the split node, or near its parent
        in the parent-anchored variants, with the parent as the hint, and it
        follows the split node on the priority list."""
        parent = node.parent
        anchor = node
        if self._variant in _PARENT_ANCHOR_VARIANTS:
            anchor = parent or node
        new_h = self._place(anchor, node, parent, self._layout)
        keys, vals, children = node.keys, node.vals, node.children
        keys.insert(i, key)
        vals.insert(i, value)
        if baby:
            children.insert(i + 1, baby)
        mid = self._max_keys // 2
        right = _Node(new_h, keys[mid + 1:], vals[mid + 1:], children[mid + 1:],
                      parent, node.leaf)
        up_k, up_v = keys[mid], vals[mid]
        del keys[mid:]
        del vals[mid:]
        del children[mid + 1:]
        self._nodes[new_h] = right
        touch = self._space.touch_block
        for c in right.children:
            c.parent = right
            touch(c.h, True)
        touch(node.h, True)
        touch(new_h, True)
        self._splice_after(node, right)
        return right, up_k, up_v

    # -- relocation ------------------------------------------------------

    def _repoint(self, node: _Node, referrers) -> None:
        """Touch the parent's child slot and the children's parent links,
        the pointers to the moved ``node``.  The parent link finds the only
        referrer, so ``referrers`` is unused; a freshly split node that its
        parent does not hold yet has no slot there to touch."""
        touch = self._space.touch_block
        p = node.parent
        if p and node in p.children:
            touch(p.h, True)
        for c in node.children:
            touch(c.h, True)

    # -- batch rearrangement ---------------------------------------------

    def make_page_aware(self):
        """Run the variant's batch rearrangement: post-order DFS, or vEB
        half-height clusters, into per-page sub-allocators; the hint variant
        walks post-order DFS chaining each node to the previous one's page.
        Returns the per-page sub-allocators created (empty for hint)."""
        dest = self._destinations()
        if self._root:
            if self._variant in (BTreeVariant.VEB, BTreeVariant.LOCAL_VEB):
                self._veb_visit(self._root, self._height, dest.place)
            else:
                self._dfs_visit(self._root, dest.place)
        return dest.created

    def _dfs_visit(self, node, place):
        self._space.touch_block(node.h, False)
        for c in node.children:
            self._dfs_visit(c, place)
        if not self._space.is_purely_local(node.h):
            self._relocate(node, place)

    def _veb_visit(self, node, height, place):
        if height == 1:
            self._space.touch_block(node.h, False)
            if not self._space.is_purely_local(node.h):
                self._relocate(node, place)
            return
        lower = height // 2
        upper = height - lower
        self._veb_visit(node, upper, place)
        for d in self._descendants_below(node, upper):
            self._veb_visit(d, lower, place)

    def _descendants_below(self, node, generations):
        level = [node]
        for _ in range(generations):
            self._space.touch_blocks([n.h for n in level], False)
            level = [c for n in level for c in n.children]
        return level

    # -- offline inspection (no touch accounting) ------------------------

    def items(self) -> list[tuple[int, bytes]]:
        out: list[tuple[int, bytes]] = []

        def rec(node):
            if node.leaf:
                out.extend(zip(node.keys, node.vals))
                return
            for i, c in enumerate(node.children):
                rec(c)
                if i < len(node.keys):
                    out.append((node.keys[i], node.vals[i]))

        if self._root:
            rec(self._root)
        return out

    def save_values(self) -> dict[Handle, list[bytes]]:
        """Every stored value, node by node, for :meth:`restore_values`."""
        return {h: list(node.vals) for h, node in self._nodes.items()}

    def restore_values(self, saved: dict[Handle, list[bytes]]) -> None:
        """Put back the values :meth:`save_values` returned.  Only updates
        may have run since, so every node still holds the same keys."""
        nodes = self._nodes
        if saved.keys() != nodes.keys():
            raise UsageError("the tree's nodes changed since its values were saved")
        for h, vals in saved.items():
            node = nodes[h]
            if len(node.keys) != len(vals):
                raise UsageError("the tree's keys changed since its values were saved")
            node.vals[:] = vals

    def structural_links(self):
        """Parent-to-child edges, one handle pair per live link."""
        for h, node in self._nodes.items():
            for c in node.children:
                yield h, c.h

    def validate(self) -> None:
        """Assert every structural and placement invariant; the tests' one full check."""
        nodes = self._nodes
        seen = self._check_priority_list()
        if not self._root:
            assert not nodes and self._size == 0
            return
        depths: dict[_Node, int] = {}
        leaf_depths: set[int] = set()
        total_pairs = 0

        def rec(node, parent, depth, lo, hi):
            nonlocal total_pairs
            assert node.parent is parent, "parent link out of date"
            ks = node.keys
            assert ks == sorted(set(ks)), "keys must be strictly increasing"
            limit = 1 if node is self._root else self._min_keys
            assert limit <= len(ks) <= self._max_keys, "key count out of range"
            if lo is not None:
                assert ks[0] > lo
            if hi is not None:
                assert ks[-1] < hi
            total_pairs += len(ks)
            depths[node] = depth
            if node.leaf:
                assert not node.children
                leaf_depths.add(depth)
                return
            assert len(node.children) == len(ks) + 1
            for i, c in enumerate(node.children):
                rec(c, node, depth + 1,
                    ks[i - 1] if i else lo, ks[i] if i < len(ks) else hi)

        rec(self._root, None, 0, None, None)
        assert len(leaf_depths) == 1, "leaves must share one depth"
        assert len(depths) == len(nodes), "unreachable or duplicated nodes"
        assert self._height == next(iter(leaf_depths)) + 1
        assert self._size == total_pairs
        ds = [depths[x] for x in seen]
        assert ds == sorted(ds), "priority list must be ordered by depth"
