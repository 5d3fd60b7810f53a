"""Independent reference models the tests check the package against.

Everything here is written for obviousness, not speed: the naive LRU keeps a
plain list, the allocator oracle marks individual bytes.  They share no code
with the package under test, except ``fresh_report``, which runs the
package's build, census and query run without its reuse scope.
"""
from farloc import workload
from farloc.farmem import SWAP_BASE
from farloc.metrics import link_composition


def fresh_report(cfg):
    """The report of one cell built and measured afresh.  It shares the
    package's build (``workload._build``), link census and query run
    (``workload._measure``), and avoids any reuse scope: it holds no
    placement, records no trace and replays nothing, so the scope's reports
    can be compared with it."""
    container, space = workload._build(cfg)
    placed = space.stats()
    links = link_composition(container)
    workload._measure(cfg, container, space)
    return workload.BenchReport(cfg, placed, links, space.stats())


class NaiveLru:
    """Strict-LRU page cache with dirty bits, one list, no cleverness."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []          # index 0 is the least recently used page
        self.dirty = set()
        self.swap_ins = 0
        self.write_backs = 0

    def touch_page(self, page, is_write=False):
        if page in self.order:
            self.order.remove(page)
            self.order.append(page)
            if is_write:
                self.dirty.add(page)
            return
        self.swap_ins += 1
        if self.capacity == 0:
            # nothing can stay resident; a written page goes straight back
            if is_write:
                self.write_backs += 1
            return
        if len(self.order) >= self.capacity:
            victim = self.order.pop(0)
            if victim in self.dirty:
                self.dirty.remove(victim)
                self.write_backs += 1
        self.order.append(page)
        if is_write:
            self.dirty.add(page)

    def evict_all(self):
        for page in self.order:
            if page in self.dirty:
                self.write_backs += 1
        self.order.clear()
        self.dirty.clear()


class ReplayLru:
    """Same cache policy as NaiveLru on a dict, fast enough to replay long
    page traces at large capacities.  NaiveLru independently pins the policy;
    this class only exists so replays do not cost O(capacity) per touch."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._resident = {}      # page -> dirty, insertion order = LRU order
        self.swap_ins = 0
        self.write_backs = 0

    def touch_page(self, page, is_write=False):
        res = self._resident
        if page in res:
            dirty = res.pop(page) or is_write
            res[page] = dirty
            return
        self.swap_ins += 1
        if self.capacity == 0:
            if is_write:
                self.write_backs += 1
            return
        if len(res) >= self.capacity:
            victim = next(iter(res))
            if res.pop(victim):
                self.write_backs += 1
        res[page] = is_write


class ByteMapFirstFit:
    """First-fit allocator over an explicit byte map.

    An allocation returns the lowest address whose whole extent is free,
    which is exactly what taking the front of the first free segment, in
    address order, that is long enough yields.
    """

    def __init__(self, base, size):
        self.base = base
        self.used = bytearray(size)

    def allocate(self, size):
        start = self.used.find(bytes(size))     # the lowest free run of size
        if start < 0:
            return None
        self.used[start:start + size] = b"\x01" * size
        return self.base + start

    def free(self, addr, size):
        off = addr - self.base
        assert all(self.used[off:off + size]), "freeing unallocated bytes"
        self.used[off:off + size] = bytes(size)

    def max_free(self):
        best = run = 0
        for b in self.used:
            run = 0 if b else run + 1
            best = max(best, run)
        return best


def ref_fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def page_index(handle: int, page_size: int) -> int:
    """Swappable page holding an address, computed from raw arithmetic."""
    assert handle >= SWAP_BASE
    return (handle - SWAP_BASE) // page_size


def tree_depths(tree) -> dict[int, int]:
    """Handle -> depth, derived only from the public parent-child edges."""
    children = {}
    child_set = set()
    for parent, child in tree.structural_links():
        children.setdefault(parent, []).append(child)
        child_set.add(child)
    handles = tree.node_handles()
    roots = [h for h in handles if h not in child_set]
    assert len(roots) == 1
    depths = {roots[0]: 0}
    queue = [roots[0]]
    while queue:
        h = queue.pop()
        for c in children.get(h, ()):
            depths[c] = depths[h] + 1
            queue.append(c)
    assert len(depths) == len(handles)
    return depths


def btree_root(tree) -> int:
    child_set = {c for _, c in tree.structural_links()}
    roots = [h for h in tree.node_handles() if h not in child_set]
    assert len(roots) == 1
    return roots[0]


def btree_height(tree) -> int:
    """Levels of a B-tree (0 when empty), from the parent-child edges."""
    if not tree.node_handles():
        return 0
    return max(tree_depths(tree).values()) + 1


def btree_scan_path(tree, key: int, length: int):
    """The pairs ``tree.scan(key, length)`` returns and the handles of the
    nodes it touches, in order, from the tree's nodes alone.  The path runs
    from the root towards ``key``; after each pair it follows the walk to
    that pair's in-order successor (the leftmost path right of an internal
    entry, or the parent links up from a leaf's last entry), the walk after
    the last pair included, read or not.  A node is a leaf when it has no
    children, a key's position in a node is the count of the node's keys
    below it, and a child's slot in its parent that of the parent's keys
    below the child's first key."""
    path = []
    at = None
    node = tree._root
    while node is not None:
        path.append(node.h)
        i = sum(k < key for k in node.keys)
        if i < len(node.keys):
            at = (node, i)
            if node.keys[i] == key:
                break
        if not node.children:
            break
        node = node.children[i]

    def successor(node, i):
        if node.children:
            node = node.children[i + 1]
            path.append(node.h)
            while node.children:
                node = node.children[0]
                path.append(node.h)
            return (node, 0)
        if i + 1 < len(node.keys):
            return (node, i + 1)
        while node.parent is not None:
            first = node.keys[0]
            node = node.parent
            path.append(node.h)
            slot = sum(k < first for k in node.keys)
            if slot < len(node.keys):
                return (node, slot)
        return None

    pairs = []
    while at is not None and len(pairs) < length:
        node, i = at
        pairs.append((node.keys[i], node.vals[i]))
        at = successor(node, i)
    return pairs, path


def owned_pages(alloc, ref) -> list[int]:
    """Pages a collective allocator's sub-allocator ``ref`` owns, from its
    page ownership map."""
    return sorted(p for p, owner in alloc.page_owner_map().items() if owner == ref)


def skiplist_chain(slist) -> list[int]:
    """Node handles in key order.  Reaches into the level-0 chain because the
    public surface exposes keys and links but not their association."""
    out = []
    node = slist._head[0]
    while node is not None:
        out.append(node.h)
        node = node.forwards[0]
    return out


def draw_skiplist_levels(seed: int, p: float, tallest: int, count: int) -> list[int]:
    """Replay of the list's geometric level draws for a given seed."""
    import random

    rng = random.Random(seed)
    levels = []
    for _ in range(count):
        lvl = 1
        while lvl < tallest and rng.random() < p:
            lvl += 1
        levels.append(lvl)
    return levels


def grouped(seq) -> bool:
    """True when every distinct value of seq occupies one contiguous run."""
    seen = set()
    prev = object()
    for x in seq:
        if x != prev:
            if x in seen:
                return False
            seen.add(x)
            prev = x
    return True
