"""Skip list: contents, level draws, placement policies, rearrangement.

Default value slot gives a 184-byte base block plus 8 bytes per level, so a
level-1 node occupies 192 bytes and a level-3 node 208.
"""
import random

import pytest

from farloc.collective import CollectiveAllocator, HintAllocator, ObjectLayout
from farloc.containers import OCCUPANCY_LIMIT, SkipList, SkipListVariant, skiplist
from farloc.farmem import ConfigError, Space, SpaceConfig, UsageError
from reference_models import draw_skiplist_levels, grouped, skiplist_chain

BASE = 184

LOCAL_VARIANTS = (SkipListVariant.LOCAL, SkipListVariant.LOCAL_PAGE)


def make_list(variant, local_capacity=0, cache_pages=32, **kw):
    space = Space(SpaceConfig(4096, local_capacity, cache_pages))
    if variant is SkipListVariant.HINT:
        return SkipList(HintAllocator(space), variant, **kw)
    return SkipList(CollectiveAllocator(space), variant, **kw)


def node_levels(slist):
    """Handle -> level, recovered from the public block accounting."""
    return {h: (slist.space.block_size(h) - BASE) // 8
            for h in slist.node_handles()}


def key_to_handle(slist, keys=None):
    chain = skiplist_chain(slist)
    ordered = sorted(k for k, _ in slist.items())
    return dict(zip(ordered, chain))


def pl_handles(slist):
    return {h for h in slist.node_handles() if slist.space.is_purely_local(h)}


# -- construction --------------------------------------------------------

def test_config_errors():
    space = Space(SpaceConfig(4096, 0, 4))
    alloc = CollectiveAllocator(space)
    with pytest.raises(ConfigError):
        SkipList(alloc, SkipListVariant.PLAIN, value_slot=0)


def test_block_size_arithmetic():
    slist = make_list(SkipListVariant.PLAIN)
    assert slist.block_bytes(1) == 192
    assert slist.block_bytes(3) == 208
    assert slist.block_bytes(skiplist.MAX_LEVEL) == BASE + 8 * 20


def test_rearrangement_flags():
    flags = {v: make_list(v, local_capacity=4096).has_rearrangement
             for v in SkipListVariant}
    assert flags == {SkipListVariant.PLAIN: False,
                     SkipListVariant.HINT: True,
                     SkipListVariant.LOCAL: False,
                     SkipListVariant.PAGE: True,
                     SkipListVariant.LOCAL_PAGE: True}


# -- basic operations ----------------------------------------------------

def test_empty_list():
    slist = make_list(SkipListVariant.PLAIN)
    assert len(slist) == 0
    assert slist.search(1) is None
    assert slist.scan(0, 5) == []
    assert slist.items() == []
    slist.validate()


def test_insert_search_update():
    slist = make_list(SkipListVariant.PLAIN)
    assert slist.insert(20, b"b")
    assert slist.insert(10, b"a")
    assert slist.insert(30, b"c")
    assert not slist.insert(20, b"dup")
    assert slist.search(20) == b"b"
    assert slist.search(25) is None
    assert slist.update(10, b"a2")
    assert not slist.update(11, b"x")
    assert slist.items() == [(10, b"a2"), (20, b"b"), (30, b"c")]
    assert len(slist) == 3
    slist.validate()


def test_value_slot_is_enforced():
    slist = make_list(SkipListVariant.PLAIN, value_slot=4)
    slist.insert(1, b"1234")
    with pytest.raises(UsageError):
        slist.insert(2, b"12345")
    with pytest.raises(UsageError):
        slist.update(1, b"12345")


def test_scan_argument_and_edge_cases():
    slist = make_list(SkipListVariant.PLAIN)
    for k in range(0, 40, 2):
        slist.insert(k, bytes([k]))
    with pytest.raises(UsageError):
        slist.scan(0, 0)
    assert slist.scan(7, 3) == [(8, bytes([8])), (10, bytes([10])),
                                (12, bytes([12]))]
    assert slist.scan(36, 10) == [(36, bytes([36])), (38, bytes([38]))]
    assert slist.scan(100, 5) == []
    assert slist.scan(-1, 100) == slist.items()


# -- level draws ---------------------------------------------------------

def test_levels_replay_the_seeded_generator():
    keys = random.Random(5).sample(range(10_000), 300)
    slist = make_list(SkipListVariant.PLAIN, level_seed=42)
    for k in keys:
        slist.insert(k, b"v")
    by_key = key_to_handle(slist)
    levels = node_levels(slist)
    drawn = [levels[by_key[k]] for k in keys]
    assert drawn == draw_skiplist_levels(42, 0.5, 20, 300)


def test_duplicate_insert_consumes_no_level_draw():
    slist = make_list(SkipListVariant.PLAIN, level_seed=7)
    slist.insert(1, b"v")
    slist.insert(1, b"v")                    # duplicate: no draw
    slist.insert(2, b"v")
    by_key = key_to_handle(slist)
    levels = node_levels(slist)
    assert [levels[by_key[1]], levels[by_key[2]]] == \
        draw_skiplist_levels(7, 0.5, 20, 2)


def test_same_seed_builds_identical_shapes():
    def build(seed):
        slist = make_list(SkipListVariant.PLAIN, level_seed=seed)
        for k in range(200):
            slist.insert(k * 3, b"v")
        by_key = key_to_handle(slist)
        levels = node_levels(slist)
        return [levels[by_key[k * 3]] for k in range(200)]

    assert build(9) == build(9)
    assert build(9) != build(10)


# -- sorted-map oracle ---------------------------------------------------

@pytest.mark.parametrize("variant", list(SkipListVariant))
def test_random_ops_match_a_sorted_map(variant):
    local = 16384 if variant in LOCAL_VARIANTS else 0
    slist = make_list(variant, local_capacity=local)
    ref = {}
    rng = random.Random(int(variant.value.encode().hex(), 16))
    for step in range(10_000):
        r = rng.random()
        k = rng.randrange(4000)
        if r < 0.55:
            v = rng.randbytes(8)
            assert slist.insert(k, v) == (k not in ref)
            ref.setdefault(k, v)
        elif r < 0.75:
            assert slist.search(k) == ref.get(k)
        elif r < 0.9:
            v = rng.randbytes(8)
            assert slist.update(k, v) == (k in ref)
            if k in ref:
                ref[k] = v
        else:
            want = sorted(x for x in ref if x >= k)[:30]
            assert slist.scan(k, 30) == [(x, ref[x]) for x in want]
        if step % 2500 == 2499:
            assert slist.items() == sorted(ref.items())
            slist.validate()
    if slist.has_rearrangement:
        slist.make_page_aware()
        slist.validate()
    assert slist.items() == sorted(ref.items())


# -- structural links ----------------------------------------------------

def test_structural_links_cover_every_forward_pointer():
    slist = make_list(SkipListVariant.PLAIN, level_seed=3)
    for k in range(200):
        slist.insert(k * 7, b"v")
    levels = node_levels(slist)
    chain = skiplist_chain(slist)
    pos = {h: i for i, h in enumerate(chain)}
    links = list(slist.structural_links())
    # a chain of T nodes at one level contributes T - 1 edges
    expect = sum(max(sum(1 for lv in levels.values() if lv > i) - 1, 0)
                 for i in range(20))
    assert len(links) == expect
    assert all(pos[a] < pos[b] for a, b in links)


# -- placement: plain and purely-local -----------------------------------

def test_plain_variant_keeps_every_node_plain():
    slist = make_list(SkipListVariant.PLAIN)
    alloc = slist._alloc
    for k in range(300):
        slist.insert(k, b"v")
    assert pl_handles(slist) == set()
    for h in slist.node_handles():
        assert alloc.get_suballocator_by_handle(h) == alloc.swappable_plain
    slist.validate()


def test_local_with_ample_capacity_keeps_everything_local():
    slist = make_list(SkipListVariant.LOCAL, local_capacity=1 << 20)
    for k in range(300):
        slist.insert(k, b"v")
    assert len(pl_handles(slist)) == 300
    slist.validate()


def test_local_with_zero_capacity_keeps_nothing_local():
    slist = make_list(SkipListVariant.LOCAL, local_capacity=0)
    for k in range(100):
        slist.insert(k, b"v")
    assert pl_handles(slist) == set()
    slist.validate()


def test_local_prefix_holds_the_tallest_towers():
    slist = make_list(SkipListVariant.LOCAL, local_capacity=4096, level_seed=2)
    for k in range(400):
        slist.insert(k, b"v")
    slist.validate()                         # includes the prefix invariant
    local = pl_handles(slist)
    assert local
    levels = node_levels(slist)
    floor = min(levels[h] for h in local)
    spill = sum(1 for h, lv in levels.items() if h not in local and lv > floor)
    assert spill == 0                        # no taller tower was displaced


def test_eviction_frees_enough_room_for_a_bigger_block():
    # region of exactly two level-1 blocks; a level-3 node must displace both
    seed = next(s for s in range(500)
                if draw_skiplist_levels(s, 0.5, 20, 3) == [1, 1, 3])
    slist = make_list(SkipListVariant.LOCAL, local_capacity=384,
                      level_seed=seed)
    alloc = slist._alloc
    for k in (10, 20):
        slist.insert(k, b"v")
    assert alloc.allocated_bytes(alloc.purely_local) == 384
    slist.insert(30, b"w")
    slist.validate()
    by_key = key_to_handle(slist)
    assert pl_handles(slist) == {by_key[30]}
    assert alloc.allocated_bytes(alloc.purely_local) == 208
    assert alloc.allocated_bytes(alloc.swappable_plain) == 384
    assert slist.items() == [(10, b"v"), (20, b"v"), (30, b"w")]


def test_growth_never_breaks_the_local_prefix():
    for variant in LOCAL_VARIANTS:
        for cap in (0, 150, 192, 384, 1000, 4096):
            for order in ("asc", "desc", "shuffled"):
                keys = list(range(60))
                if order == "desc":
                    keys.reverse()
                elif order == "shuffled":
                    random.Random(cap).shuffle(keys)
                slist = make_list(variant, local_capacity=cap, level_seed=cap)
                for k in keys:
                    slist.insert(k, b"v")
                    slist.validate()


# -- hint placement ------------------------------------------------------

def test_hint_follows_the_key_order_predecessor(monkeypatch):
    # towers of level 1 only: every block is 192 bytes, no level randomness
    monkeypatch.setattr(skiplist, "LEVEL_P", 0)
    space = Space(SpaceConfig(4096, 0, 32))
    halloc = HintAllocator(space)
    slist = SkipList(halloc, SkipListVariant.HINT)
    for k in range(11):
        slist.insert(k, b"v")               # 11 * 192 bytes, all on page 0
    filler = halloc.allocate(1, ObjectLayout(4096 - 11 * 192))
    slist.insert(100, b"v")                 # page 0 full: lands on page 1
    slist.insert(101, b"v")
    halloc.deallocate(filler, 1, ObjectLayout(4096 - 11 * 192))
    # page 0 is the lowest page with room again, but the hint wins
    slist.insert(102, b"v")
    slist.insert(-5, b"v")                  # no predecessor: first-fit path
    by_key = key_to_handle(slist)
    page = space.page_of
    assert page(by_key[100]) == 1
    assert page(by_key[101]) == 1
    assert page(by_key[102]) == 1
    assert page(by_key[-5]) == 0
    slist.validate()


# -- batch rearrangement -------------------------------------------------

def build_random(variant, n=1500, local_capacity=0, seed=4):
    slist = make_list(variant, local_capacity=local_capacity, level_seed=seed)
    rng = random.Random(seed)
    ref = {}
    for _ in range(n):
        k = rng.randrange(1_000_000)
        v = rng.randbytes(6)
        slist.insert(k, v)
        ref.setdefault(k, v)
    return slist, ref


def test_page_sweep_groups_the_chain_and_bounds_occupancy():
    slist, ref = build_random(SkipListVariant.PAGE)
    created = slist.make_page_aware()
    slist.validate()
    assert slist.items() == sorted(ref.items())
    assert created
    assert grouped(slist.space.page_of(h) for h in skiplist_chain(slist))
    bound = OCCUPANCY_LIMIT + slist.block_bytes(skiplist.MAX_LEVEL) / 4096
    alloc = slist._alloc
    assert all(alloc.occupancy(ref_) < bound for ref_ in created)


def test_local_page_sweep_skips_the_purely_local_prefix():
    slist, ref = build_random(SkipListVariant.LOCAL_PAGE, local_capacity=8192)
    local_before = pl_handles(slist)
    assert local_before
    created = slist.make_page_aware()
    slist.validate()
    assert pl_handles(slist) == local_before
    assert slist.items() == sorted(ref.items())
    swapped = [slist.space.page_of(h) for h in skiplist_chain(slist)
               if h not in local_before]
    assert grouped(swapped)
    bound = OCCUPANCY_LIMIT + slist.block_bytes(skiplist.MAX_LEVEL) / 4096
    alloc = slist._alloc
    assert all(alloc.occupancy(ref_) < bound for ref_ in created)


def test_page_sweep_is_idempotent_in_grouping():
    def sizes(slist):
        pages = [slist.space.page_of(h) for h in skiplist_chain(slist)]
        out, run, last = [], 0, None
        for p in pages:
            if p == last:
                run += 1
            else:
                if run:
                    out.append(run)
                run, last = 1, p
        out.append(run)
        return out

    slist, _ = build_random(SkipListVariant.PAGE)
    slist.make_page_aware()
    first = sizes(slist)
    slist.make_page_aware()
    assert sizes(slist) == first
    slist.validate()


def test_hint_sweep_preserves_contents():
    slist, ref = build_random(SkipListVariant.HINT)
    assert slist.make_page_aware() == []
    slist.validate()
    assert slist.items() == sorted(ref.items())


def test_hint_sweep_follows_one_page_while_it_has_room():
    slist = make_list(SkipListVariant.HINT, level_seed=3)
    for k in range(5):
        slist.insert(k, b"v")
    assert {slist.space.page_of(h) for h in slist.node_handles()} == {0}
    slist.make_page_aware()
    slist.validate()
    assert {slist.space.page_of(h) for h in slist.node_handles()} == {0}


@pytest.mark.parametrize("variant",
                         [SkipListVariant.PLAIN, SkipListVariant.LOCAL])
def test_variants_without_rearrangement_say_so(variant):
    slist = make_list(variant, local_capacity=4096)
    with pytest.raises(UsageError):
        slist.make_page_aware()
