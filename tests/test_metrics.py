"""Link classification and placement statistics."""
import random

import pytest

from farloc import workload
from farloc.collective import CollectiveAllocator
from farloc.containers import BTree, BTreeVariant, SkipList, SkipListVariant
from farloc.farmem import Space, SpaceConfig, UsageError
from farloc.metrics import LinkClass, classify_link, link_composition
from farloc.workload import VARIANTS, BenchConfig


def two_pages(space):
    """Two blocks sharing one swap page plus one on a second page."""
    p0, p1 = space.create_page(), space.create_page()
    return (space.carve_in_page(p0, 2048), space.carve_in_page(p0, 2048),
            space.carve_in_page(p1, 2048))


class FakeContainer:
    def __init__(self, space, links):
        self.space = space
        self._links = links

    def structural_links(self):
        return iter(self._links)


# -- classify_link -------------------------------------------------------

def test_classify_covers_all_placements():
    space = Space(SpaceConfig(4096, 8192, 4))
    l1, l2 = (space.carve_purely_local(64) for _ in range(2))
    a, b, c = two_pages(space)
    assert classify_link(space, l1, l2) is LinkClass.PURELY_LOCAL
    assert classify_link(space, a, b) is LinkClass.IN_PAGE
    assert classify_link(space, a, c) is LinkClass.CROSS_PAGE
    assert classify_link(space, l1, a) is LinkClass.CROSS_PAGE
    assert classify_link(space, a, l1) is LinkClass.CROSS_PAGE


# -- link_composition ----------------------------------------------------

def manual_composition(container):
    space = container.space
    counts = {cls: 0 for cls in LinkClass}
    for a, b in container.structural_links():
        counts[classify_link(space, a, b)] += 1
    total = sum(counts.values())
    return (counts[LinkClass.PURELY_LOCAL] / total,
            counts[LinkClass.IN_PAGE] / total,
            counts[LinkClass.CROSS_PAGE] / total)


@pytest.mark.parametrize("build", ["btree", "skiplist", *VARIANTS])
def test_composition_matches_a_direct_count(build):
    """Hand-built local trees, then the benchmark's own placement of every
    variant at 64 KiB and L=25."""
    if build in VARIANTS:
        c, _ = workload._build(BenchConfig(variant=build, l_percent=25.0,
                                           total_data_bytes=64 * 1024))
    else:
        space = Space(SpaceConfig(4096, 16384, 32))
        if build == "btree":
            c = BTree(CollectiveAllocator(space), BTreeVariant.LOCAL_DFS)
        else:
            c = SkipList(CollectiveAllocator(space), SkipListVariant.LOCAL_PAGE)
        rng = random.Random(11)
        for _ in range(800):
            c.insert(rng.randrange(100_000), b"v")
        c.make_page_aware()
    comp = link_composition(c)
    pl, inp, cross = manual_composition(c)
    assert (comp.purely_local_ratio, comp.in_page_ratio,
            comp.cross_page_ratio) == (pl, inp, cross)
    assert abs(comp.purely_local_ratio + comp.in_page_ratio
               + comp.cross_page_ratio - 1.0) <= 1e-9
    # the local prefix contributes
    local = build not in VARIANTS or workload.variant_uses_local(build)
    assert (comp.purely_local_ratio > 0) == local


def test_plain_containers_have_no_purely_local_links():
    space = Space(SpaceConfig(4096, 0, 32))
    tree = BTree(CollectiveAllocator(space), BTreeVariant.PLAIN)
    for k in range(200):
        tree.insert(k, b"v")
    assert link_composition(tree).purely_local_ratio == 0.0


def test_composition_needs_at_least_one_link():
    space = Space(SpaceConfig(4096, 0, 4))
    tree = BTree(CollectiveAllocator(space), BTreeVariant.PLAIN)
    tree.insert(1, b"v")                     # single node, no links
    with pytest.raises(UsageError):
        link_composition(tree)


def test_composition_on_synthesized_links():
    space = Space(SpaceConfig(4096, 8192, 4))
    l1, l2 = (space.carve_purely_local(64) for _ in range(2))
    a, b, c = two_pages(space)
    fake = FakeContainer(space, [(l1, l2), (a, b), (a, c), (l1, a), (a, l1)])
    comp = link_composition(fake)
    assert (comp.purely_local_ratio, comp.in_page_ratio,
            comp.cross_page_ratio) == (0.2, 0.2, 0.6)


def test_composition_rejects_a_link_to_a_freed_block():
    space = Space(SpaceConfig(4096, 8192, 4))
    l1 = space.carve_purely_local(64)
    a, b, c = two_pages(space)
    space.free(c)
    for link in ((a, c), (c, a), (l1, c)):
        with pytest.raises(UsageError):
            link_composition(FakeContainer(space, [(a, b), link]))


# -- the cross-page ratio as A2's parent/child page mismatch --------------

def test_mismatch_fraction_on_synthesized_trees():
    space = Space(SpaceConfig(4096, 8192, 4))
    l1, l2 = (space.carve_purely_local(64) for _ in range(2))
    a, b, c = two_pages(space)

    def mismatch(links):
        return link_composition(FakeContainer(space, links)).cross_page_ratio

    assert mismatch([(a, b)]) == 0.0
    assert mismatch([(a, c), (c, a)]) == 1.0
    assert mismatch([(l1, l2)]) == 0.0    # both local: a match
    assert mismatch([(l1, a), (a, b)]) == 0.5
