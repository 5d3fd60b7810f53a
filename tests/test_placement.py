"""The shared placement code under tiny purely-local budgets.

A purely-local region of one to four node blocks fills after a handful of
inserts, so nearly every insert after that runs the prefix-eviction loop,
and rearrangements mid-sequence move nodes onto per-page sub-allocators
that later inserts probe first.  After every step the contents must match
a plain dict and every structural and placement invariant must hold.
"""
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from farloc.collective import CollectiveAllocator
from farloc.containers import (BTree, BTreeVariant, SkipList, SkipListVariant,
                               btree_block_bytes, tower_block_bytes)
from farloc.farmem import Space, SpaceConfig

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
