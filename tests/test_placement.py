"""The shared placement code under tiny purely-local budgets.

A purely-local region of one to four node blocks fills after a handful of
inserts, so nearly every insert after that runs the prefix-eviction loop,
and rearrangements mid-sequence move nodes onto per-page sub-allocators
that later inserts probe first.  After every step the contents must match
a plain dict and every structural and placement invariant must hold.

The purely-local carves of whole builds are counted too: a carve that
cannot fit fails with ``CapacityExhausted``, and ``_place`` tries one only
where the new node may join the purely-local prefix.  And a dropped build's
nodes, whose links form reference cycles, go when the container goes, and
so does its space.
"""
import gc
import weakref

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from farloc.collective import CollectiveAllocator
from farloc.containers import (BTree, BTreeVariant, SkipList, SkipListVariant,
                               btree_block_bytes, tower_block_bytes)
from farloc.farmem import CapacityExhausted, Space, SpaceConfig
from farloc.workload import BenchConfig, _build

VALUE_SLOT = 8
VARIANTS = [BTreeVariant.LOCAL, BTreeVariant.LOCAL_DFS, BTreeVariant.LOCAL_VEB,
            SkipListVariant.LOCAL, SkipListVariant.LOCAL_PAGE]

keys = st.integers(0, 300)
values = st.binary(min_size=0, max_size=VALUE_SLOT)


class TinyLocalBudget(RuleBasedStateMachine):
    @initialize(variant=st.sampled_from(VARIANTS), blocks=st.integers(1, 4),
                cache_pages=st.integers(0, 4), level_seed=st.integers(0, 1000))
    def build(self, variant, blocks, cache_pages, level_seed):
        if isinstance(variant, BTreeVariant):
            block = btree_block_bytes(VALUE_SLOT)
        else:
            block = tower_block_bytes(1, VALUE_SLOT)
        space = Space(SpaceConfig(4096, blocks * block, cache_pages))
        if isinstance(variant, BTreeVariant):
            self.c = BTree(CollectiveAllocator(space), variant, value_slot=VALUE_SLOT)
        else:
            self.c = SkipList(CollectiveAllocator(space), variant,
                              value_slot=VALUE_SLOT, level_seed=level_seed)
        self.ref = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        assert self.c.insert(key, value) == (key not in self.ref)
        self.ref.setdefault(key, value)

    @rule(keys_=st.lists(keys, min_size=1, max_size=40), value=values)
    def insert_many(self, keys_, value):
        for key in keys_:
            self.insert(key, value)

    @rule(key=keys, value=values)
    def update(self, key, value):
        assert self.c.update(key, value) == (key in self.ref)
        if key in self.ref:
            self.ref[key] = value

    @rule(key=keys, length=st.integers(1, 30))
    def scan(self, key, length):
        want = sorted(k for k in self.ref if k >= key)[:length]
        assert self.c.scan(key, length) == [(k, self.ref[k]) for k in want]

    @precondition(lambda self: self.c.has_rearrangement)
    @rule()
    def make_page_aware(self):
        self.c.make_page_aware()

    @invariant()
    def matches_the_dict_and_validates(self):
        assert self.c.items() == sorted(self.ref.items())
        assert len(self.c) == len(self.ref)
        self.c.validate()


TinyLocalBudget.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_tiny_local_budget = TinyLocalBudget.TestCase


# (calls, failures) of Space.carve_purely_local in one build at 256 KiB,
# L=50, seed 0.  The parent-anchored variants make exactly the carves
# ``local`` makes: a sibling of a swappable node cannot join the
# purely-local prefix, so a purely-local parent gets it no carve there.
@pytest.mark.parametrize("variant, calls, failures", [
    ("local", 423, 167),
    ("local+dfs", 423, 167),
    ("local+veb", 423, 167),
    ("skip-local", 936, 356),
    ("skip-local+page", 936, 356),
])
def test_purely_local_carves_of_a_build(monkeypatch, variant, calls, failures):
    seen = [0, 0]
    carve = Space.carve_purely_local

    def counting_carve(self, size):
        seen[0] += 1
        try:
            return carve(self, size)
        except CapacityExhausted:
            seen[1] += 1
            raise

    monkeypatch.setattr(Space, "carve_purely_local", counting_carve)
    _build(BenchConfig(variant=variant, total_data_bytes=256 * 1024, l_percent=50, seed=0))
    assert seen == [calls, failures]


@pytest.mark.parametrize("variant", ["local+dfs", "skip-local+page"])
def test_a_dropped_container_frees_its_nodes_without_a_collection(variant):
    container, _ = _build(BenchConfig(variant=variant, total_data_bytes=64 * 1024,
                                      l_percent=50, seed=0))
    node_type = type(next(iter(container._nodes.values())))
    count = container.node_count

    def live_nodes():
        return sum(type(o) is node_type for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_nodes()
        assert before >= count
        del container
        assert live_nodes() == before - count
    finally:
        gc.enable()


# one variant per allocator and sub-allocator mix: plain pool only, plain
# pool with per-page sub-allocators, purely-local region, hint allocator
@pytest.mark.parametrize("variant", ["plain", "dfs", "local+dfs", "skip-local+page",
                                     "hint"])
def test_a_dropped_build_frees_its_space_without_a_collection(variant):
    gc.collect()
    gc.disable()
    try:
        container, space = _build(BenchConfig(variant=variant, total_data_bytes=64 * 1024,
                                              l_percent=50, seed=0))
        dead = weakref.ref(space)
        del container, space
        assert dead() is None
    finally:
        gc.enable()
