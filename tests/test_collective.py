"""Collective allocator: sub-allocator routing, ownership, occupancy."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farloc.collective import (
    CollectiveAllocator,
    HintAllocator,
    Kind,
    ObjectLayout,
    SubAllocatorRef,
)
from farloc.farmem import SWAP_BASE, CapacityExhausted, Space, SpaceConfig, UsageError
from reference_models import ByteMapFirstFit, owned_pages, page_index

L16 = ObjectLayout(16)
L160 = ObjectLayout(160)
L512 = ObjectLayout(512)


@pytest.fixture
def alloc(make_space):
    return CollectiveAllocator(make_space(local_capacity=4096))


# -- sub-allocator identity ----------------------------------------------

def test_singleton_refs_are_stable(alloc):
    assert alloc.get_suballocator_by_kind(Kind.PURELY_LOCAL) == alloc.purely_local
    assert alloc.get_suballocator_by_kind(Kind.SWAPPABLE_PLAIN) == alloc.swappable_plain
    assert alloc.get_suballocator_by_kind(Kind.PURELY_LOCAL) == \
        alloc.get_suballocator_by_kind(Kind.PURELY_LOCAL)


def test_new_per_page_refs_are_distinct_and_own_distinct_pages(alloc):
    a = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    b = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    assert a != b
    assert len(owned_pages(alloc, a)) == len(owned_pages(alloc, b)) == 1
    assert owned_pages(alloc, a) != owned_pages(alloc, b)


def test_refs_work_as_dict_keys(alloc):
    a = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    d = {alloc.purely_local: 1, alloc.swappable_plain: 2, a: 3}
    assert d[SubAllocatorRef(a.kind, a.id)] == 3


def test_a_per_page_ref_owns_the_page_its_blocks_land_on(alloc):
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    assert owned_pages(alloc, ref) == [alloc.space.page_of(
        alloc.sub_allocate(ref, 1, L16))]
    alloc.sub_allocate(alloc.purely_local, 1, L16)
    assert owned_pages(alloc, alloc.purely_local) == []


# -- handle -> sub-allocator lookup --------------------------------------

def test_handle_lookup_round_trips(alloc):
    per_page = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    owned = {
        alloc.purely_local: alloc.sub_allocate(alloc.purely_local, 1, L16),
        alloc.swappable_plain: alloc.sub_allocate(alloc.swappable_plain, 1, L16),
        per_page: alloc.sub_allocate(per_page, 1, L16),
    }
    for ref, h in owned.items():
        assert alloc.get_suballocator_by_handle(h) == ref
        for other in owned:
            if other != ref:
                assert alloc.get_suballocator_by_handle(h) != other


def test_plain_handles_reallocate_plain(alloc):
    h = alloc.sub_allocate(alloc.swappable_plain, 1, L160)
    ref = alloc.get_suballocator_by_handle(h)
    assert ref == alloc.swappable_plain
    assert alloc.get_suballocator_by_handle(
        alloc.sub_allocate(ref, 1, L160)) == alloc.swappable_plain


def test_foreign_page_handle_is_rejected(alloc):
    space = alloc.space
    stray = space.carve_in_page(space.create_page(), 32)
    with pytest.raises(UsageError):
        alloc.get_suballocator_by_handle(stray)


def test_unknown_handle_is_rejected(alloc):
    with pytest.raises(UsageError):
        alloc.get_suballocator_by_handle(123456)


# -- allocation and deallocation -----------------------------------------

def test_per_page_capacity_is_one_page(alloc):
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    page, = owned_pages(alloc, ref)
    for _ in range(8):
        h = alloc.sub_allocate(ref, 1, L512)
        assert alloc.space.page_of(h) == page
    with pytest.raises(CapacityExhausted):
        alloc.sub_allocate(ref, 1, L512)


def test_purely_local_exhaustion(alloc):
    alloc.sub_allocate(alloc.purely_local, 1, ObjectLayout(4000))
    with pytest.raises(CapacityExhausted):
        alloc.sub_allocate(alloc.purely_local, 1, L512)


def test_plain_allocation_is_unbounded(alloc):
    # 160-byte blocks pack 25 per 4096-byte page
    for _ in range(100_000):
        alloc.sub_allocate(alloc.swappable_plain, 1, L160)
    assert alloc.space.num_pages == 4000
    owners = set(alloc.page_owner_map().values())
    assert owners == {alloc.swappable_plain}


def test_plain_rejects_blocks_larger_than_a_page(alloc):
    with pytest.raises(UsageError):
        alloc.sub_allocate(alloc.swappable_plain, 1, ObjectLayout(4097))
    with pytest.raises(UsageError):
        alloc.sub_allocate(alloc.swappable_plain, 2, ObjectLayout(2049))


def test_count_scales_the_block(alloc):
    h = alloc.sub_allocate(alloc.swappable_plain, 3, L16)
    assert alloc.space.block_size(h) == 48
    alloc.deallocate(h, 3, L16)


def test_unknown_refs_are_rejected_and_equal_refs_accepted(alloc):
    stray = SubAllocatorRef(Kind.NEW_PER_PAGE, 999)
    for call in (lambda: alloc.sub_allocate(stray, 1, L16),
                 lambda: alloc.allocated_bytes(stray),
                 lambda: alloc.occupancy(stray),
                 lambda: alloc.allocated_bytes(SubAllocatorRef(Kind.PURELY_LOCAL, 1))):
        with pytest.raises(UsageError):
            call()
    # a ref equal to one the allocator handed out names the same sub-allocator
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    for twin in (SubAllocatorRef(ref.kind, ref.id),
                 SubAllocatorRef(Kind.PURELY_LOCAL, 0),
                 SubAllocatorRef(Kind.SWAPPABLE_PLAIN, 0)):
        h = alloc.sub_allocate(twin, 1, L16)
        assert alloc.get_suballocator_by_handle(h) == twin
        assert alloc.allocated_bytes(twin) == 16


def test_deallocate_restores_occupancy_and_reuses_the_slot(alloc):
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    before = alloc.occupancy(ref)
    h = alloc.sub_allocate(ref, 1, L512)
    assert alloc.occupancy(ref) > before
    alloc.deallocate(h, 1, L512)
    assert alloc.occupancy(ref) == before
    assert alloc.sub_allocate(ref, 1, L512) == h


def test_deallocate_checks_size_and_rejects_double_free(alloc):
    h = alloc.sub_allocate(alloc.swappable_plain, 1, L512)
    with pytest.raises(UsageError):
        alloc.deallocate(h, 1, L160)
    with pytest.raises(UsageError):
        alloc.deallocate(h, 2, L512)
    alloc.deallocate(h, 1, L512)
    with pytest.raises(UsageError):
        alloc.deallocate(h, 1, L512)


def test_emptied_pages_stay_owned_and_get_reused(alloc):
    handles = [alloc.sub_allocate(alloc.swappable_plain, 1, L512)
               for _ in range(8)]
    assert alloc.space.num_pages == 1
    for h in handles:
        alloc.deallocate(h, 1, L512)
    assert owned_pages(alloc, alloc.swappable_plain) == [0]
    assert alloc.space.page_of(
        alloc.sub_allocate(alloc.swappable_plain, 1, L512)) == 0
    assert alloc.space.num_pages == 1

    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    h = alloc.sub_allocate(ref, 1, L512)
    alloc.deallocate(h, 1, L512)
    assert alloc.occupancy(ref) == 0.0
    assert [alloc.space.page_of(alloc.sub_allocate(ref, 1, L512))] == \
        owned_pages(alloc, ref)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 4096)), max_size=60))
def test_plain_blocks_land_first_fit_over_pages_in_creation_order(ops):
    """Blocks are placed by size alone: each plain block lands where first
    fit over the pool's pages, oldest first, puts it, and at the base of a
    new page when no page has room."""
    space = Space(SpaceConfig(4096))
    alloc = CollectiveAllocator(space)
    pages = []          # one byte map per page, in creation order
    live = []
    for free, size in ops:
        if free and live:
            h, n = live.pop(size % len(live))
            alloc.deallocate(h, 1, ObjectLayout(n))
            pages[page_index(h, 4096)].free(h, n)
            continue
        h = alloc.sub_allocate(alloc.swappable_plain, 1, ObjectLayout(size))
        for oracle in pages:
            want = oracle.allocate(size)
            if want is not None:
                break
        else:
            oracle = ByteMapFirstFit(SWAP_BASE + 4096 * len(pages), 4096)
            pages.append(oracle)
            want = oracle.allocate(size)
        assert h == want
        live.append((h, size))
    assert space.num_pages == len(pages)


# -- occupancy -----------------------------------------------------------

def test_occupancy_ratios(alloc):
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    assert alloc.occupancy(ref) == 0.0
    alloc.sub_allocate(ref, 1, L512)
    assert alloc.occupancy(ref) == 512 / 4096
    assert alloc.occupancy(alloc.swappable_plain) == 0.0   # unbounded


def test_occupancy_threshold_is_strict(make_space):
    alloc = CollectiveAllocator(make_space(local_capacity=1000))
    alloc.sub_allocate(alloc.purely_local, 1, ObjectLayout(700))
    assert alloc.occupancy(alloc.purely_local) == 0.7
    assert not alloc.is_occupancy_under(alloc.purely_local, 0.7)
    assert alloc.is_occupancy_under(alloc.purely_local, 0.71)

    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    alloc.sub_allocate(ref, 1, ObjectLayout(2868))      # just over 70 %
    assert not alloc.is_occupancy_under(ref, 0.7)
    other = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    alloc.sub_allocate(other, 1, ObjectLayout(2864))    # just under
    assert alloc.is_occupancy_under(other, 0.7)


def test_zero_capacity_purely_local_counts_as_full(make_space):
    alloc = CollectiveAllocator(make_space(local_capacity=0))
    assert alloc.occupancy(alloc.purely_local) == 1.0
    assert not alloc.is_occupancy_under(alloc.purely_local, 0.999)


def test_occupancy_under_is_monotone_in_the_ratio(alloc):
    ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
    alloc.sub_allocate(ref, 1, ObjectLayout(1700))
    grid = [i / 20 for i in range(21)]
    answers = [alloc.is_occupancy_under(ref, r) for r in grid]
    assert answers == sorted(answers)       # False ... False True ... True


def test_occupancy_ratio_bounds(alloc):
    for bad in (-0.1, 1.5):
        with pytest.raises(UsageError):
            alloc.is_occupancy_under(alloc.purely_local, bad)


# -- ledgers and partition ----------------------------------------------

def test_allocated_bytes_match_a_shadow_ledger(alloc):
    rng = random.Random(5)
    refs = [alloc.purely_local, alloc.swappable_plain,
            alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE),
            alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)]
    ledger = dict.fromkeys(refs, 0)
    live = []
    for _ in range(600):
        if live and rng.random() < 0.45:
            ref, h, count, layout = live.pop(rng.randrange(len(live)))
            alloc.deallocate(h, count, layout)
            ledger[ref] -= count * layout.size_bytes
        else:
            ref = rng.choice(refs)
            layout = ObjectLayout(rng.choice([16, 24, 40, 64]))
            count = rng.randrange(1, 4)
            try:
                h = alloc.sub_allocate(ref, count, layout)
            except CapacityExhausted:
                continue
            live.append((ref, h, count, layout))
            ledger[ref] += count * layout.size_bytes
        for ref in refs:
            assert alloc.allocated_bytes(ref) == ledger[ref]


def test_every_page_has_exactly_one_owner(alloc):
    per_page = [alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
                for _ in range(3)]
    for _ in range(60):
        alloc.sub_allocate(alloc.swappable_plain, 1, L512)
    for ref in per_page:
        alloc.sub_allocate(ref, 1, L16)
    owner = alloc.page_owner_map()
    assert set(owner) == set(range(alloc.space.num_pages))
    assert set(owner.values()) == {alloc.swappable_plain, *per_page}
    assert [len(owned_pages(alloc, r)) for r in per_page] == [1, 1, 1]


# -- hint allocator ------------------------------------------------------

def test_first_hintless_allocation_opens_a_fresh_page(make_space):
    halloc = HintAllocator(make_space())
    h = halloc.allocate(1, L512)
    assert halloc.space.page_of(h) == 0
    assert halloc.space.num_pages == 1


def test_hint_collocates_when_the_page_has_room(make_space):
    halloc = HintAllocator(make_space())
    a = halloc.allocate(1, L512)
    b = halloc.allocate(1, L512, hint=a)
    assert halloc.space.page_of(b) == halloc.space.page_of(a)


def test_hint_overrides_first_fit_page_order(make_space):
    halloc = HintAllocator(make_space())
    space = halloc.space
    blocks = [halloc.allocate(1, ObjectLayout(1024)) for _ in range(12)]
    assert space.num_pages == 3
    on_page1 = next(h for h in blocks if space.page_of(h) == 1)
    on_page2, keep2 = [h for h in blocks if space.page_of(h) == 2][:2]
    halloc.deallocate(on_page1, 1, ObjectLayout(1024))
    halloc.deallocate(on_page2, 1, ObjectLayout(1024))
    hinted = halloc.allocate(1, ObjectLayout(1024), hint=keep2)
    assert space.page_of(hinted) == 2       # hint beats the older hole
    unhinted = halloc.allocate(1, ObjectLayout(1024))
    assert space.page_of(unhinted) == 1     # oldest page with room


def test_hint_into_full_page_falls_back(make_space):
    halloc = HintAllocator(make_space())
    first = halloc.allocate(1, L512)
    for _ in range(7):
        halloc.allocate(1, L512)            # page 0 now full
    h = halloc.allocate(1, L512, hint=first)
    assert halloc.space.page_of(h) == 1
    assert halloc.space.block_size(h) == 512


# -- request errors, one table for both allocators ----------------------

def _collective(space):
    alloc = CollectiveAllocator(space)
    return (lambda count, layout: alloc.sub_allocate(alloc.swappable_plain, count, layout),
            alloc.deallocate)


def _hint(space):
    halloc = HintAllocator(space)
    return halloc.allocate, halloc.deallocate


ALLOCATORS = {"collective": _collective, "hint": _hint}

BAD_REQUESTS = {
    "count-0": lambda allocate, deallocate, h: allocate(0, L16),
    "zero-size": lambda allocate, deallocate, h: allocate(1, ObjectLayout(0)),
    "oversize": lambda allocate, deallocate, h: allocate(1, ObjectLayout(4097)),
    "wrong-size-free": lambda allocate, deallocate, h: deallocate(h, 1, L16),
    "count-0-free": lambda allocate, deallocate, h: deallocate(h, 0, L512),
}


@pytest.mark.parametrize("bad", BAD_REQUESTS)
@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_request_errors(make_space, allocator, bad):
    space = make_space()
    allocate, deallocate = ALLOCATORS[allocator](space)
    h = allocate(1, L512)
    with pytest.raises(UsageError):
        BAD_REQUESTS[bad](allocate, deallocate, h)
    # a rejected request changes nothing: no page opened, the block intact
    assert space.num_pages == 1
    deallocate(h, 1, L512)
    assert space.page_of(allocate(1, L512)) == 0


# blocks the hint allocator did not carve: on a page it does not own, and in
# the purely-local region
FOREIGN_BLOCKS = {
    "foreign-page": lambda space: space.carve_in_page(space.create_page(), 64),
    "purely-local": lambda space: space.carve_purely_local(64),
}


@pytest.mark.parametrize("where", FOREIGN_BLOCKS)
def test_hint_allocator_keeps_to_its_own_pages(make_space, where):
    space = make_space(local_capacity=4096, cache_pages=4)
    halloc = HintAllocator(space)
    foreign = FOREIGN_BLOCKS[where](space)
    layout = ObjectLayout(64)
    # a hint off the allocator's pages is not followed: first fit opens one
    h = halloc.allocate(1, layout, hint=foreign)
    assert space.page_of(h) not in (None, space.page_of(foreign))
    # a free of a block off its pages fails before it frees anything
    with pytest.raises(UsageError):
        halloc.deallocate(foreign, 1, layout)
    assert space.block_size(foreign) == 64
    assert space.block_size(h) == 64
    halloc.deallocate(h, 1, layout)
