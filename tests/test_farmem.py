"""Address space: carving, first-fit reuse, LRU swap accounting, tracing."""
import random
import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farloc.farmem import (
    LOCAL_BASE,
    SCAN_EXTENTS,
    SWAP_BASE,
    CapacityExhausted,
    ConfigError,
    FreeList,
    Space,
    SpaceConfig,
    SwapStats,
    UsageError,
    replay_trace,
)
from reference_models import ByteMapFirstFit, NaiveLru, ReplayLru, page_index


# -- configuration -------------------------------------------------------

@pytest.mark.parametrize("page", [0, 1, 100, 255, 4095, 6000])
def test_rejects_bad_page_sizes(page):
    with pytest.raises(ConfigError):
        SpaceConfig(page_size_bytes=page)


def test_rejects_negative_capacities():
    with pytest.raises(ConfigError):
        SpaceConfig(purely_local_capacity_bytes=-1)
    with pytest.raises(ConfigError):
        SpaceConfig(cache_capacity_pages=-1)


def test_page_size_is_the_swap_unit(make_space):
    space = make_space(page_size=4096, cache_pages=4)
    page = space.create_page()
    h = space.carve_in_page(page, 4096)
    space.touch(h, 4096)
    assert space.stats() == SwapStats(swap_ins=1, write_backs=0)
    space.touch(h, 1)
    assert space.stats().swap_ins == 1      # still resident, no second fetch


# -- carving and containment ---------------------------------------------

def test_handles_identify_their_region(make_space):
    space = make_space(local_capacity=4096, cache_pages=1)
    local = space.carve_purely_local(64)
    page = space.create_page()
    swap = space.carve_in_page(page, 64)
    assert space.is_purely_local(local)
    assert not space.is_purely_local(swap)
    assert space.page_of(local) is None
    assert space.page_of(swap) == page
    assert LOCAL_BASE <= local < SWAP_BASE <= swap


def test_blocks_in_one_page_share_its_page_id(make_space):
    space = make_space()
    page = space.create_page()
    a = space.carve_in_page(page, 100)
    b = space.carve_in_page(page, 200)
    assert space.page_of(a) == space.page_of(b) == page


def test_blocks_never_straddle_page_boundaries(make_space):
    space = make_space(page_size=512)
    rng = random.Random(0)
    pages = [space.create_page() for _ in range(4)]
    for _ in range(40):
        size = rng.randrange(1, 200)
        try:
            h = space.carve_in_page(rng.choice(pages), size)
        except CapacityExhausted:
            continue
        assert page_index(h, 512) == page_index(h + size - 1, 512)


def test_carve_errors(make_space):
    space = make_space(local_capacity=128)
    page = space.create_page()
    with pytest.raises(UsageError):
        space.carve_in_page(page, 0)
    with pytest.raises(UsageError):
        space.carve_in_page(page, 4097)
    with pytest.raises(UsageError):
        space.carve_in_page(99, 16)
    with pytest.raises(UsageError):
        space.carve_in_page(-1, 16)
    with pytest.raises(CapacityExhausted):
        space.carve_purely_local(129)
    space.carve_in_page(page, 4096)
    with pytest.raises(CapacityExhausted):
        space.carve_in_page(page, 8)


@pytest.mark.parametrize("bad", [-1, 1])
def test_page_accessors_reject_a_bad_page(make_space, bad):
    # on a 1-page space, page -1 is not the last page counted from the end,
    # and page 1 is not a raw IndexError
    space = make_space()
    space.create_page()
    assert space.num_pages == 1
    with pytest.raises(UsageError, match="no such page"):
        space.page_allocated_bytes(bad)
    with pytest.raises(UsageError, match="no such page"):
        space.page_max_free(bad)


def test_free_errors(make_space):
    space = make_space(local_capacity=128)
    h = space.carve_purely_local(16)
    space.free(h)
    with pytest.raises(UsageError):
        space.free(h)
    with pytest.raises(UsageError):
        space.free(12345)


def test_block_size_and_byte_accounting(make_space):
    space = make_space(local_capacity=1024)
    h = space.carve_purely_local(100)
    assert space.block_size(h) == 100
    assert space.purely_local_allocated_bytes == 100
    assert space.free(h) == 100
    assert space.purely_local_allocated_bytes == 0
    with pytest.raises(UsageError):
        space.block_size(h)


# -- first-fit reuse -----------------------------------------------------

def test_freed_slot_is_reused_first_fit(make_space):
    space = make_space(local_capacity=8192)
    page_space = make_space()
    page = page_space.create_page()
    for carve, free, occupied in (
        (space.carve_purely_local, space.free,
         lambda: space.purely_local_allocated_bytes),
        (lambda n: page_space.carve_in_page(page, n), page_space.free,
         lambda: page_space.page_allocated_bytes(page)),
    ):
        first = carve(512)
        keep = carve(512)
        before = occupied()
        free(first)
        again = carve(512)
        assert again == first               # lowest free address wins
        assert occupied() == before
        assert keep != again


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 96)), max_size=50))
def test_free_list_variants_agree_with_byte_map(ops):
    """The free list must replay any carve/free sequence exactly like the
    obviously-correct byte-map allocator.  These lists stay short, so this
    checks the loop scan; the test below checks the numpy one."""
    fl = FreeList(4096, 512)
    oracle = ByteMapFirstFit(4096, 512)
    live = []
    for kind, size in ops:
        if kind == 2 and live:
            addr, sz = live.pop(size % len(live))
            oracle.free(addr, sz)
            fl.free(addr, sz)
        else:
            want = oracle.allocate(size)
            assert fl.allocate(size) == want
            if want is not None:
                live.append((want, size))
        assert fl.max_free() == oracle.max_free()
        assert fl.free_bytes() == oracle.used.count(0)


def test_a_long_free_list_agrees_with_byte_map():
    """A list of several hundred extents, longer than ``SCAN_EXTENTS``, so
    that allocate scans it with numpy, replays random carves and frees like
    the byte map: exact fits, fits past the front and carves that fit
    nowhere."""
    rng = random.Random(25)
    base, region = 4096, 16384
    fl, oracle = FreeList(base, region), ByteMapFirstFit(base, region)
    blocks = []
    while True:
        size = rng.randint(8, 24)
        want = oracle.allocate(size)
        assert fl.allocate(size) == want
        if want is None:
            break
        blocks.append((want, size))
    # freeing every other block leaves one extent per freed block
    for addr, size in blocks[::2]:
        fl.free(addr, size)
        oracle.free(addr, size)
    live = blocks[1::2]
    long_carves = long_misses = 0
    for _ in range(1000):
        extents = len(re.findall(b"\0+", oracle.used))
        if live and rng.random() < 0.3:
            addr, size = live.pop(rng.randrange(len(live)))
            fl.free(addr, size)
            oracle.free(addr, size)
        else:
            size = rng.randint(1, 40)
            want = oracle.allocate(size)
            assert fl.allocate(size) == want
            if want is None:
                long_misses += extents > SCAN_EXTENTS
            else:
                live.append((want, size))
            long_carves += extents > SCAN_EXTENTS
        assert fl.max_free() == oracle.max_free()
        assert fl.free_bytes() == oracle.used.count(0)
    assert long_carves > 400 and long_misses > 20


# -- LRU accounting ------------------------------------------------------

def test_cache_of_one_faults_on_every_alternation(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=1, n_pages=2)
    for h in (a, b, a):
        space.touch(h, 4096)
    assert space.stats().swap_ins == 3


def test_scripted_five_fault_sequence(space_with_page_blocks):
    space, (a, b, c) = space_with_page_blocks(cache_pages=2, n_pages=3)
    # A B C A B with room for two: every touch evicts the page the next
    # touch wants
    for h in (a, b, c, a, b):
        space.touch(h, 4096)
    assert space.stats() == SwapStats(swap_ins=5, write_backs=0)


def test_repeat_touches_hit_the_cache(space_with_page_blocks):
    space, (a,) = space_with_page_blocks(cache_pages=2, n_pages=1)
    for _ in range(10):
        space.touch(a, 4096)
    assert space.stats().swap_ins == 1


def test_dirty_page_writes_back_on_eviction(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=1, n_pages=2)
    space.touch(a, 4096, is_write=True)
    space.touch(b, 4096)                    # evicts dirty a
    assert space.stats().write_backs == 1
    space.touch(a, 4096)                    # evicts clean b
    assert space.stats().write_backs == 1


def test_evict_all_counts_dirty_pages_and_colds_the_cache(space_with_page_blocks):
    space, handles = space_with_page_blocks(cache_pages=4, n_pages=3)
    for h in handles:
        space.touch(h, 4096, is_write=True)
    space.evict_all()
    assert space.stats().write_backs == 3
    assert space.residency() == ((), frozenset())
    space.evict_all()                       # idempotent on an empty cache
    assert space.stats().write_backs == 3
    before = space.stats().swap_ins
    space.touch(handles[0], 4096)
    assert space.stats().swap_ins == before + 1


def test_zero_capacity_cache_never_retains(space_with_page_blocks):
    space, (a,) = space_with_page_blocks(cache_pages=0, n_pages=1)
    space.touch(a, 4096)
    space.touch(a, 4096, is_write=True)
    space.touch(a, 4096)
    assert space.stats() == SwapStats(swap_ins=3, write_backs=1)
    assert space.residency() == ((), frozenset())


def test_purely_local_touches_are_exempt(make_space):
    space = make_space(local_capacity=65536, cache_pages=2)
    h = space.carve_purely_local(256)
    for _ in range(10_000):
        space.touch(h, 256, is_write=True)
        space.touch(h, 256)
    assert space.stats() == SwapStats()
    assert space.residency() == ((), frozenset())


def test_touch_errors(space_with_page_blocks):
    space, (a,) = space_with_page_blocks(cache_pages=1, n_pages=1)
    with pytest.raises(UsageError):
        space.touch(a + 8, 1)
    with pytest.raises(UsageError):
        space.touch(a, 4097)
    with pytest.raises(UsageError):
        space.touch(a, -1)
    space.touch(a, 0)                       # zero-length access is a no-op
    assert space.stats() == SwapStats()


def test_stats_snapshot_and_reset(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=1, n_pages=2)
    assert space.stats() == SwapStats(0, 0)
    space.touch(a, 4096, is_write=True)
    space.touch(b, 4096)
    space.reset_stats()
    assert space.stats() == SwapStats(0, 0)
    # residency survives a reset: touching the resident page is free
    space.touch(b, 4096)
    assert space.stats() == SwapStats(0, 0)


def test_residency_reports_lru_order_and_dirty_set(space_with_page_blocks):
    space, (a, b, c) = space_with_page_blocks(cache_pages=3, n_pages=3)
    space.touch(a, 4096)
    space.touch(b, 4096, is_write=True)
    space.touch(c, 4096)
    space.touch(a, 4096)
    order, dirty = space.residency()
    assert order == (1, 2, 0)
    assert dirty == frozenset({1})


def test_lru_matches_naive_model_on_random_scripts(space_with_page_blocks):
    rng = random.Random(42)
    for _ in range(300):
        n_pages = rng.randrange(1, 9)
        cache = rng.randrange(0, 4)
        space, handles = space_with_page_blocks(cache_pages=cache,
                                                n_pages=n_pages)
        ref = NaiveLru(cache)
        for _ in range(60):
            i = rng.randrange(n_pages)
            w = rng.random() < 0.3
            space.touch(handles[i], 4096, is_write=w)
            ref.touch_page(i, w)
        if rng.random() < 0.2:
            space.evict_all()
            ref.evict_all()
        stats = space.stats()
        assert (stats.swap_ins, stats.write_backs) == (ref.swap_ins,
                                                       ref.write_backs)
        order, dirty = space.residency()
        assert list(order) == ref.order
        assert dirty == frozenset(ref.dirty)


def test_replay_lru_matches_naive_model():
    rng = random.Random(7)
    for _ in range(300):
        cap = rng.randrange(0, 5)
        naive, fast = NaiveLru(cap), ReplayLru(cap)
        for _ in range(80):
            page = rng.randrange(6)
            w = rng.random() < 0.4
            naive.touch_page(page, w)
            fast.touch_page(page, w)
        assert (fast.swap_ins, fast.write_backs) == (naive.swap_ins,
                                                     naive.write_backs)


# -- page-touch tracing --------------------------------------------------

def test_trace_records_page_and_write_flag(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=2, n_pages=2)
    sink = []
    space.set_trace(sink)
    space.touch(a, 4096)
    space.touch(b, 16, is_write=True)
    space.touch(a, 1, is_write=2)              # any truthy flag is a write
    assert sink == [0 * 2 + 0, 1 * 2 + 1, 0 * 2 + 1]
    assert space.residency() == ((1, 0), frozenset({0, 1}))
    assert space.set_trace(None) is sink
    space.touch(b, 1)
    assert len(sink) == 3


def test_trace_skips_purely_local_touches(make_space):
    space = make_space(local_capacity=256, cache_pages=1)
    h = space.carve_purely_local(32)
    sink = []
    space.set_trace(sink)
    space.touch(h, 32, is_write=True)
    assert sink == []


def test_trace_is_cache_independent_and_replays_exactly():
    """The same touch script must emit one identical trace under any cache
    capacity, and replaying that trace through the reference cache must
    reproduce each capacity's statistics.  Sweep measurements rely on this
    to reuse one captured trace across cache budgets."""
    rng = random.Random(3)
    script = [(rng.randrange(5), rng.random() < 0.3) for _ in range(400)]
    traces, stats = [], []
    for cache in (0, 1, 2, 3, 50):
        space = Space(SpaceConfig(4096, 0, cache))
        handles = [space.carve_in_page(space.create_page(), 4096)
                   for _ in range(5)]
        sink = []
        space.set_trace(sink)
        for i, w in script:
            space.touch(handles[i], 4096, is_write=w)
        traces.append(sink)
        stats.append(space.stats())
    assert all(t == traces[0] for t in traces)
    for cache, st_got in zip((0, 1, 2, 3, 50), stats):
        lru = ReplayLru(cache)
        for code in traces[0]:
            lru.touch_page(code >> 1, code & 1)
        assert (lru.swap_ins, lru.write_backs) == (st_got.swap_ins,
                                                   st_got.write_backs)


# -- unchecked whole-block entries ---------------------------------------

_CHUNK = st.tuples(st.booleans(), st.lists(st.integers(0, 63), max_size=6))


@settings(max_examples=300, deadline=None)
@given(cache=st.integers(0, 4),
       page_blocks=st.lists(st.lists(st.integers(1, 1024), min_size=1, max_size=3),
                            min_size=1, max_size=5),
       local_blocks=st.lists(st.integers(1, 64), max_size=3),
       script=st.lists(st.one_of(st.none(), _CHUNK), max_size=20))
def test_fast_paths_match_touch_and_the_naive_model(cache, page_blocks,
                                                    local_blocks, script):
    """``touch`` over whole blocks, ``touch_block`` and ``touch_blocks`` over
    any chunking of one script give one trace, one set of statistics and
    one residency, and all match the naive LRU.  A chunk is (is_write,
    block indices); None drops every cached page.  The trace, replayed
    by ``replay_trace`` at every capacity, matches the naive LRU too."""

    def fresh():
        space = Space(SpaceConfig(4096, 256, cache))
        blocks = []
        for sizes in page_blocks:
            page = space.create_page()
            blocks += [(space.carve_in_page(page, s), s) for s in sizes]
        blocks += [(space.carve_purely_local(s), s) for s in local_blocks]
        sink = []
        space.set_trace(sink)
        return space, blocks, sink

    def by_touch(space, blocks, is_write, idxs):
        for i in idxs:
            h, size = blocks[i % len(blocks)]
            space.touch(h, size, is_write)

    def by_touch_block(space, blocks, is_write, idxs):
        for i in idxs:
            space.touch_block(blocks[i % len(blocks)][0], is_write)

    def by_touch_blocks(space, blocks, is_write, idxs):
        space.touch_blocks([blocks[i % len(blocks)][0] for i in idxs], is_write)

    results = []
    for route in (by_touch, by_touch_block, by_touch_blocks):
        space, blocks, sink = fresh()
        for chunk in script:
            if chunk is None:
                space.evict_all()
            else:
                route(space, blocks, *chunk)
        results.append((space.stats(), space.residency(), sink))
    assert results[1] == results[0]
    assert results[2] == results[0]

    naive = NaiveLru(cache)
    trace = []
    for chunk in script:
        if chunk is None:
            naive.evict_all()
            continue
        is_write, idxs = chunk
        for i in idxs:
            h = blocks[i % len(blocks)][0]
            if h >= SWAP_BASE:
                page = page_index(h, 4096)
                naive.touch_page(page, is_write)
                trace.append(page * 2 + is_write)
    stats, (order, dirty), sink = results[0]
    assert (stats.swap_ins, stats.write_backs) == (naive.swap_ins, naive.write_backs)
    assert list(order) == naive.order
    assert dirty == frozenset(naive.dirty)
    assert sink == trace

    # the trace alone, replayed from a cold cache at any capacity
    codes = array("i", sink)
    for cap in range(5):
        naive = NaiveLru(cap)
        for code in sink:
            naive.touch_page(code >> 1, bool(code & 1))
        stats = replay_trace(codes, cap)
        assert (stats.swap_ins, stats.write_backs) == (naive.swap_ins,
                                                       naive.write_backs)


# -- repeated pages in one batch and in a replay -------------------------

def test_batch_repeat_of_the_last_page_is_a_hit(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=1, n_pages=2)
    sink = []
    space.set_trace(sink)
    space.touch_blocks([a, a, b, a], False)
    assert space.stats() == SwapStats(swap_ins=3, write_backs=0)
    assert sink == [0, 0, 2, 0]


def test_batch_repeat_misses_again_at_capacity_zero(space_with_page_blocks):
    space, (a, b) = space_with_page_blocks(cache_pages=0, n_pages=2)
    sink = []
    space.set_trace(sink)
    space.touch_blocks([a, a, b, a], True)
    assert space.stats() == SwapStats(swap_ins=4, write_backs=4)
    assert sink == [1, 1, 3, 1]


def test_batch_repeat_does_not_carry_across_calls(space_with_page_blocks):
    space, (a,) = space_with_page_blocks(cache_pages=1, n_pages=1)
    sink = []
    space.set_trace(sink)
    space.touch_blocks([a], False)
    space.evict_all()
    space.touch_blocks([a], False)
    assert space.stats() == SwapStats(swap_ins=2, write_backs=0)
    assert sink == [0, 0]


def test_replay_repeat_keeps_the_write_bit():
    a_r, a_w, b_r = 0, 1, 2
    assert replay_trace([a_r, a_w, a_r], 1) == SwapStats(1, 0)
    assert replay_trace([a_r, a_w, a_r], 0) == SwapStats(3, 1)
    # the repeat's write dirties a, so evicting a for b writes it back
    assert replay_trace([a_r, a_w, b_r], 1) == SwapStats(2, 1)
    assert replay_trace([a_r, a_r, b_r], 1) == SwapStats(2, 0)


def test_replay_rejects_a_negative_capacity():
    with pytest.raises(ConfigError):
        replay_trace([0, 1], -1)
