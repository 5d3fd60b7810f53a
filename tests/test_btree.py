"""B-tree over the collective allocator: contents, placement, rearrangement.

NODE = 712 is the block size of an order-5 tree with 152-byte value slots;
several placement scenarios size the purely-local region in node multiples.
"""
import random
from bisect import bisect_left

import pytest

from farloc.collective import (CollectiveAllocator, HintAllocator, Kind,
                               ObjectLayout)
from farloc.containers import OCCUPANCY_LIMIT, BTree, BTreeVariant, btree_block_bytes
from farloc.farmem import ConfigError, Space, SpaceConfig, UsageError
from reference_models import (btree_height, btree_root, btree_scan_path, grouped,
                              owned_pages, tree_depths)

NODE = 712

LOCAL_VARIANTS = (BTreeVariant.LOCAL, BTreeVariant.LOCAL_DFS,
                  BTreeVariant.LOCAL_VEB)


def make_tree(variant, local_capacity=0, cache_pages=32, **kw):
    space = Space(SpaceConfig(4096, local_capacity, cache_pages))
    if variant is BTreeVariant.HINT:
        return BTree(HintAllocator(space), variant, **kw)
    return BTree(CollectiveAllocator(space), variant, **kw)


def pl_handles(tree):
    return {h for h in tree.node_handles() if tree.space.is_purely_local(h)}


def relocate(tree, h, page_ref=None):
    """Move node ``h`` to the sub-allocator ``page_ref`` (default: swappable
    plain memory) through the tree's own relocation; returns its new handle."""
    alloc = tree._alloc
    ref = alloc.swappable_plain if page_ref is None else page_ref
    node = tree._nodes[h]
    tree._relocate(node, lambda layout: alloc.sub_allocate(ref, 1, layout))
    return node.h


# -- construction --------------------------------------------------------

def test_config_errors():
    space = Space(SpaceConfig(4096, 0, 4))
    alloc = CollectiveAllocator(space)
    with pytest.raises(ConfigError):
        BTree(alloc, BTreeVariant.PLAIN, value_slot=0)


def test_node_block_size():
    tree = make_tree(BTreeVariant.PLAIN)
    tree.insert(1, b"v")
    assert btree_block_bytes(152) == NODE
    assert [tree.space.block_size(h) for h in tree.node_handles()] == [NODE]


# -- empty and small trees ----------------------------------------------

def test_empty_tree():
    tree = make_tree(BTreeVariant.PLAIN)
    assert len(tree) == 0
    assert btree_height(tree) == 0
    assert tree.search(1) is None
    assert tree.scan(0, 10) == []
    assert tree.items() == []
    tree.validate()


def test_filling_the_root_keeps_one_node():
    tree = make_tree(BTreeVariant.PLAIN)
    for k in (3, 1, 4, 2):
        assert tree.insert(k, b"v%d" % k)
        tree.validate()
    assert btree_height(tree) == 1
    assert tree.node_count == 1
    assert tree.items() == [(1, b"v1"), (2, b"v2"), (3, b"v3"), (4, b"v4")]


def test_fifth_key_splits_the_root_once():
    tree = make_tree(BTreeVariant.PLAIN)
    for k in range(1, 6):
        tree.insert(k, b"v")
    assert btree_height(tree) == 2
    assert tree.node_count == 3
    assert len(tree) == 5
    root = btree_root(tree)
    assert sorted(c for p, c in tree.structural_links() if p == root) == \
        sorted(set(tree.node_handles()) - {root})
    tree.validate()


def test_duplicate_insert_is_a_no_op():
    tree = make_tree(BTreeVariant.PLAIN)
    assert tree.insert(7, b"first")
    assert not tree.insert(7, b"second")
    assert len(tree) == 1
    assert tree.search(7) == b"first"


def test_update_changes_only_the_value():
    tree = make_tree(BTreeVariant.PLAIN)
    tree.insert(7, b"old")
    assert tree.update(7, b"new")
    assert tree.search(7) == b"new"
    assert not tree.update(8, b"x")
    assert len(tree) == 1


def test_value_slot_is_enforced():
    tree = make_tree(BTreeVariant.PLAIN, value_slot=8)
    tree.insert(1, b"12345678")
    with pytest.raises(UsageError):
        tree.insert(2, b"123456789")
    with pytest.raises(UsageError):
        tree.update(1, b"123456789")


def test_scan_argument_and_edge_cases():
    tree = make_tree(BTreeVariant.PLAIN)
    for k in range(0, 40, 2):
        tree.insert(k, bytes([k]))
    with pytest.raises(UsageError):
        tree.scan(0, 0)
    assert tree.scan(7, 3) == [(8, bytes([8])), (10, bytes([10])),
                               (12, bytes([12]))]      # absent key: successor
    assert tree.scan(36, 10) == [(36, bytes([36])), (38, bytes([38]))]
    assert tree.scan(100, 5) == []
    assert tree.scan(-1, 100) == tree.items()


# -- sorted-map oracle ---------------------------------------------------

@pytest.mark.parametrize("variant", list(BTreeVariant))
def test_random_ops_match_a_sorted_map(variant):
    local = 16384 if variant in LOCAL_VARIANTS else 0
    tree = make_tree(variant, local_capacity=local)
    ref = {}
    rng = random.Random(int(variant.value.encode().hex(), 16))
    for step in range(10_000):
        r = rng.random()
        k = rng.randrange(4000)
        if r < 0.55:
            v = rng.randbytes(8)
            assert tree.insert(k, v) == (k not in ref)
            ref.setdefault(k, v)
        elif r < 0.75:
            assert tree.search(k) == ref.get(k)
        elif r < 0.9:
            v = rng.randbytes(8)
            assert tree.update(k, v) == (k in ref)
            if k in ref:
                ref[k] = v
        else:
            want = sorted(x for x in ref if x >= k)[:30]
            assert tree.scan(k, 30) == [(x, ref[x]) for x in want]
        if step % 2000 == 1999:
            assert tree.items() == sorted(ref.items())
            tree.validate()
    if tree.has_rearrangement:
        tree.make_page_aware()
        tree.validate()
    assert tree.items() == sorted(ref.items())


def test_scan_tracks_the_sorted_map_over_long_ranges():
    tree = make_tree(BTreeVariant.PLAIN)
    rng = random.Random(99)
    ref = {}
    for _ in range(3000):
        k = rng.randrange(100_000)
        v = rng.randbytes(4)
        tree.insert(k, v)
        ref.setdefault(k, v)
    for _ in range(50):
        k = rng.randrange(100_000)
        want = sorted(x for x in ref if x >= k)[:100]
        assert tree.scan(k, 100) == [(x, ref[x]) for x in want]


def scan_touches(tree, key, length):
    """``tree.scan(key, length)`` and the handle lists it passed to
    ``touch_blocks``, with their write flags."""
    space = tree.space
    calls = []
    space.touch_blocks = lambda handles, is_write: calls.append((list(handles), is_write))
    try:
        return tree.scan(key, length), calls
    finally:
        del space.touch_blocks


@pytest.mark.parametrize("variant", list(BTreeVariant))
@pytest.mark.parametrize("seed", [3, 4])
def test_scan_output_and_path_match_the_reference_walk(variant, seed):
    """Every stored key, the gaps between stored keys and both ends, at
    length 1, a mid length and past the last key, after the inserts and
    after the rearrangement: the pairs and the one batch of touched handles
    equal the oracle's, and the pairs the sorted map's."""
    local = 8192 if variant in LOCAL_VARIANTS else 0
    tree, ref = build_random(variant, n=300, local_capacity=local, seed=seed)
    keys = sorted(ref)
    # the stored keys include keys held in internal nodes
    assert any(not node.leaf for node in tree._nodes.values())
    probes = keys + [k + 1 for k in keys if k + 1 not in ref] + [keys[0] - 1, keys[-1] + 1]

    def check():
        for key in probes:
            first = bisect_left(keys, key)
            for length in (1, 7, len(keys) + 1):
                pairs, path = btree_scan_path(tree, key, length)
                assert pairs == [(k, ref[k]) for k in keys[first:first + length]]
                assert scan_touches(tree, key, length) == (pairs, [(path, False)]), \
                    (key, length)

    check()
    if tree.has_rearrangement:
        tree.make_page_aware()
        check()


# -- plain placement -----------------------------------------------------

def test_plain_variant_keeps_every_node_plain():
    tree = make_tree(BTreeVariant.PLAIN)
    alloc = tree._alloc
    for k in range(300):
        tree.insert(k, b"v")
    assert pl_handles(tree) == set()
    for h in tree.node_handles():
        assert alloc.get_suballocator_by_handle(h) == alloc.swappable_plain
    tree.validate()


# -- purely-local placement and eviction ---------------------------------

def test_local_root_starts_purely_local():
    tree = make_tree(BTreeVariant.LOCAL, local_capacity=NODE)
    tree.insert(1, b"v")
    assert pl_handles(tree) == {btree_root(tree)}
    tree.validate()


def test_split_evicts_the_least_priority_node():
    # room for two nodes: the leaf split fills the region, so making the new
    # root demands an eviction; the deepest purely-local node must yield
    tree = make_tree(BTreeVariant.LOCAL, local_capacity=2 * NODE + 64)
    for k in range(1, 6):
        tree.insert(k, b"v")
        tree.validate()
    assert len(pl_handles(tree)) == 2
    root = btree_root(tree)
    assert tree.space.is_purely_local(root)
    space = tree.space
    space.evict_all()
    space.reset_stats()
    assert tree.search(1) == b"v"
    assert space.stats().swap_ins == 0       # root and left leaf stayed local
    assert tree.search(5) == b"v"
    assert space.stats().swap_ins == 1       # right leaf was evicted


def test_full_region_with_single_local_node_keeps_the_root_local():
    # room for one node only: the sibling cannot evict the node being split,
    # but the new root may displace the old root and take its place
    tree = make_tree(BTreeVariant.LOCAL, local_capacity=NODE + 8)
    for k in range(1, 6):
        tree.insert(k, b"v")
        tree.validate()
    assert pl_handles(tree) == {btree_root(tree)}


def test_growth_never_breaks_the_local_prefix():
    for cap in (0, NODE - 8, NODE, NODE + 300, 2 * NODE, 3 * NODE + 100, 8192):
        for seq in (range(1, 90), range(89, 0, -1),
                    random.Random(cap).sample(range(500), 89)):
            tree = make_tree(BTreeVariant.LOCAL, local_capacity=cap)
            for k in seq:
                tree.insert(k, b"v")
                tree.validate()


def test_eviction_path_with_deeper_least_priority():
    # all three nodes fit locally; splitting the left leaf while the right
    # leaf holds least priority relocates the right leaf, not the split one
    tree = make_tree(BTreeVariant.LOCAL, local_capacity=3 * NODE + 64)
    for k in (1, 2, 3, 4, 5, 0, -1):
        tree.insert(k, b"v")
    assert len(pl_handles(tree)) == 3
    tree.insert(-2, b"v")                    # splits the left leaf
    tree.validate()
    assert tree.node_count == 4
    assert len(pl_handles(tree)) == 3
    space = tree.space
    space.evict_all()
    space.reset_stats()
    assert tree.search(-2) == b"v"
    assert tree.search(1) == b"v"
    assert space.stats().swap_ins == 0       # split side stayed local
    assert tree.search(4) == b"v"
    assert space.stats().swap_ins == 1       # old right leaf went swappable


# -- anchored placement for split siblings -------------------------------

def test_dfs_sibling_lands_on_the_parents_page():
    tree = make_tree(BTreeVariant.DFS)
    alloc = tree._alloc
    for k in range(1, 6):
        tree.insert(k, b"v")
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    root = relocate(tree, btree_root(tree), ref)
    page, = owned_pages(alloc, ref)
    assert tree.space.page_of(root) == page
    before = set(tree.node_handles())
    for k in range(6, 9):
        tree.insert(k, b"v")                 # 8 splits the right leaf
    sibling, = set(tree.node_handles()) - before
    assert tree.space.page_of(sibling) == page
    tree.validate()


def test_dfs_sibling_falls_back_to_plain_when_the_parents_page_is_full():
    tree = make_tree(BTreeVariant.DFS)
    alloc = tree._alloc
    for k in range(1, 6):
        tree.insert(k, b"v")
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    root = relocate(tree, btree_root(tree), ref)
    filler = 4096 - tree.space.page_allocated_bytes(*owned_pages(alloc, ref))
    alloc.sub_allocate(ref, 1, ObjectLayout(filler))
    before = set(tree.node_handles())
    for k in range(6, 9):
        tree.insert(k, b"v")
    sibling, = set(tree.node_handles()) - before
    assert alloc.get_suballocator_by_handle(sibling) == alloc.swappable_plain
    tree.validate()


def test_local_dfs_parent_anchor_takes_the_eviction_path():
    # parent and split leaf both purely local, region full, a deeper node
    # holds least priority: that node is displaced and the sibling stays local
    tree = make_tree(BTreeVariant.LOCAL_DFS, local_capacity=3 * NODE + 64)
    for k in (1, 2, 3, 4, 5, 0, -1):
        tree.insert(k, b"v")
    assert len(pl_handles(tree)) == 3
    tree.insert(-2, b"v")
    tree.validate()
    assert len(pl_handles(tree)) == 3
    space = tree.space
    space.evict_all()
    space.reset_stats()
    assert tree.search(-2) == b"v"
    assert space.stats().swap_ins == 0


# -- relocation ----------------------------------------------------------

def test_relocating_the_deepest_local_node_preserves_contents():
    tree = make_tree(BTreeVariant.LOCAL, local_capacity=2 * NODE + 64)
    for k in range(1, 6):
        tree.insert(k, b"%d" % k)
    before = tree.items()
    deepest = max(pl_handles(tree), key=lambda h: tree_depths(tree)[h])
    moved = relocate(tree, deepest)
    assert not tree.space.is_purely_local(moved)
    assert tree.items() == before
    tree.validate()


def test_relocating_the_root_updates_every_reference():
    tree = make_tree(BTreeVariant.PLAIN)
    for k in range(40):
        tree.insert(k, bytes([k]))
    before = tree.items()
    old_root = btree_root(tree)
    new_root = relocate(tree, old_root)
    assert new_root != old_root
    assert btree_root(tree) == new_root
    assert tree.items() == before
    assert tree.search(17) == bytes([17])
    tree.validate()


def test_relocate_to_page_places_on_that_page():
    tree = make_tree(BTreeVariant.DFS)
    for k in range(40):
        tree.insert(k, b"v")
    ref = tree._alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    h = relocate(tree, tree.node_handles()[3], ref)
    assert [tree.space.page_of(h)] == owned_pages(tree._alloc, ref)
    tree.validate()


# -- batch rearrangement -------------------------------------------------

def build_random(variant, n=2500, local_capacity=0, seed=1):
    tree = make_tree(variant, local_capacity=local_capacity)
    rng = random.Random(seed)
    ref = {}
    for _ in range(n):
        k = rng.randrange(1_000_000)
        v = rng.randbytes(6)
        tree.insert(k, v)
        ref.setdefault(k, v)
    return tree, ref


def created_occupancies(tree, created):
    alloc = tree._alloc
    return [alloc.occupancy(ref) for ref in created]


@pytest.mark.parametrize("variant", [BTreeVariant.DFS, BTreeVariant.VEB,
                                     BTreeVariant.LOCAL_DFS,
                                     BTreeVariant.LOCAL_VEB])
def test_rearrangement_keeps_contents_and_bounds_occupancy(variant):
    local = 32768 if variant in LOCAL_VARIANTS else 0
    tree, ref = build_random(variant, local_capacity=local)
    created = tree.make_page_aware()
    tree.validate()
    assert tree.items() == sorted(ref.items())
    assert created
    bound = OCCUPANCY_LIMIT + NODE / 4096
    for occ in created_occupancies(tree, created):
        assert 0 < occ < bound


def test_rearranged_pages_fill_to_five_nodes():
    tree, _ = build_random(BTreeVariant.DFS)
    created = tree.make_page_aware()
    # at the 0.7 threshold a 4096-byte page accepts five 712-byte nodes
    counts = {round(occ * 4096 / NODE)
              for occ in created_occupancies(tree, created)[:-1]}
    assert counts == {5}


def test_dfs_rearrangement_groups_nodes_in_postorder():
    tree, _ = build_random(BTreeVariant.DFS)
    tree.make_page_aware()
    children = {}
    for p, c in tree.structural_links():
        children.setdefault(p, []).append(c)
    order = []

    def visit(h):
        for c in children.get(h, ()):
            visit(c)
        order.append(h)

    visit(btree_root(tree))
    assert grouped(tree.space.page_of(h) for h in order)


def test_local_dfs_rearrangement_keeps_local_handles():
    tree, ref = build_random(BTreeVariant.LOCAL_DFS, local_capacity=65536)
    local_before = pl_handles(tree)
    assert local_before
    tree.make_page_aware()
    assert pl_handles(tree) == local_before
    assert tree.items() == sorted(ref.items())
    tree.validate()


def test_dfs_rearrangement_is_idempotent_in_shape():
    def grouping(tree):
        children = {}
        for p, c in tree.structural_links():
            children.setdefault(p, []).append(c)
        sizes, current, last = [], 0, None

        def visit(h):
            nonlocal current, last
            for c in children.get(h, ()):
                visit(c)
            page = tree.space.page_of(h)
            if page == last:
                current += 1
            else:
                if current:
                    sizes.append(current)
                current, last = 1, page
            return None

        visit(btree_root(tree))
        sizes.append(current)
        return sizes

    tree, _ = build_random(BTreeVariant.DFS)
    tree.make_page_aware()
    first = grouping(tree)
    tree.make_page_aware()
    assert grouping(tree) == first
    tree.validate()


def test_veb_rearrangement_moves_upper_clusters_first():
    tree = make_tree(BTreeVariant.VEB)
    k = 0
    while btree_height(tree) < 4:
        k += 1
        tree.insert(k, b"v")
    created = tree.make_page_aware()
    tree.validate()
    depths = tree_depths(tree)
    page_of_ref = {ref: page for page, ref in tree._alloc.page_owner_map().items()}
    page_rank = {page_of_ref[ref]: i for i, ref in enumerate(created)}
    rank = {h: page_rank[tree.space.page_of(h)]
            for h in tree.node_handles()}
    top = max(rank[h] for h, d in depths.items() if d <= 1)
    bottom = min(rank[h] for h, d in depths.items() if d >= 2)
    assert top <= bottom
    bound = OCCUPANCY_LIMIT + NODE / 4096
    assert all(occ < bound for occ in created_occupancies(tree, created))


def test_hint_rearrangement_recycles_holes_and_stays_scattered():
    # on a packed build every fallback page fills after one slot, so the
    # sweep mostly plugs the holes its own frees open; placement stays
    # fragmented, which is what motivates the per-page sub-allocators
    tree = make_tree(BTreeVariant.HINT)
    rng = random.Random(8)
    ref = {}
    for _ in range(2000):
        k = rng.randrange(1_000_000)
        v = rng.randbytes(6)
        tree.insert(k, v)
        ref.setdefault(k, v)
    space = tree.space
    pages_before = space.num_pages
    roomy = [p for p in range(space.num_pages)
             if 4096 - space.page_allocated_bytes(p) >= NODE]
    assert tree.make_page_aware() == []
    tree.validate()
    assert tree.items() == sorted(ref.items())
    assert space.num_pages <= pages_before + 1
    children = {}
    for p, c in tree.structural_links():
        children.setdefault(p, []).append(c)
    order = []

    def visit(h):
        for c in children.get(h, ()):
            visit(c)
        order.append(h)

    visit(btree_root(tree))
    pages = [tree.space.page_of(h) for h in order]
    assert pages[0] == min(roomy)           # null hint takes the no-hint path
    runs = sum(1 for i, p in enumerate(pages) if i == 0 or p != pages[i - 1])
    assert runs > len(pages) // 2


def test_hint_rearrangement_follows_one_page_while_it_has_room():
    tree = make_tree(BTreeVariant.HINT)
    for k in range(1, 6):
        tree.insert(k, b"v")
    assert {tree.space.page_of(h) for h in tree.node_handles()} == {0}
    tree.make_page_aware()
    tree.validate()
    # page 0 keeps a free slot throughout, so every hinted move stays there
    assert {tree.space.page_of(h) for h in tree.node_handles()} == {0}
    assert tree.items() == [(k, b"v") for k in range(1, 6)]


def test_hint_rearrangement_handles_a_single_node():
    tree = make_tree(BTreeVariant.HINT)
    tree.insert(1, b"v")
    tree.make_page_aware()
    assert tree.items() == [(1, b"v")]
    tree.validate()


@pytest.mark.parametrize("variant", [BTreeVariant.PLAIN, BTreeVariant.LOCAL])
def test_variants_without_rearrangement_say_so(variant):
    tree = make_tree(variant, local_capacity=4096)
    assert not tree.has_rearrangement
    with pytest.raises(UsageError):
        tree.make_page_aware()
