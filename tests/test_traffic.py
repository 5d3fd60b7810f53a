"""Pinned page traffic of every variant on one small config.

Every swap statistic, CSV row and acceptance verdict follows from the
sequence of ``(page, is_write)`` page touches a container makes.  These
tests pin that sequence, through build and replay and through point
searches after the build, as a count and a SHA-256, so a change meant to
speed up the touch path or the containers without changing what they touch
shows here first when it does change it.
"""
import hashlib
import struct

import pytest

from farloc import workload
from farloc.farmem import Space
from farloc.workload import (VARIANTS, BenchConfig, build_placement,
                             query_script, run_benchmark)

CONFIG = dict(total_data_bytes=64 * 1024, l_percent=25.0, alpha=0.8,
              update_ratio=0.5, num_queries=300, seed=0)

# variant -> (page touches, SHA-256 of the packed touch sequence)
EXPECTED = {
    "plain": (10817, "7856add68579868f61f2458ca7b70fcdbc5e199f99a1ca86c276f8274aa275d4"),
    "hint": (11968, "f85416a17011de1db2912415ecc30f65c612112ace66d964a119ca258c7f0d2d"),
    "local": (7940, "fb12dee1efe7924dc57f4b3775d8a113c862ae5b4ef58b138bc3e50e4b825591"),
    "dfs": (11968, "548cf8028988b056c8924223fccad38e5b7b484865acf25e3deef3e9bafa2edc"),
    "local+dfs": (8962, "f7a569a7ba256d3b076c7305bcf198e452f4a0c78c64edb74e0e6a6d0d1c704e"),
    "veb": (12021, "aad073d6a58abcaf3165acf9d29f65a1783b20380719a3b000b758a1076f4e15"),
    "local+veb": (8999, "3ef6dba2c447403e4599d0e30c2fac21009c94277cb06879c99ebbad2a061302"),
    "skip-plain": (20048, "2f7878e36958d515b571f5c75db67ed25dfce03645a996e062c7c003658aef9e"),
    "skip-hint": (22915, "265de8665eac6761acbe49ead0a0f6dc3ed74052ee9a21b3f2b09ccc0372ebf1"),
    "skip-local": (13202, "43025cb927a0e3193c8a9e8243651f70d767a175a160b8a2b115f064ed2d2678"),
    "skip-page": (22915, "a0c9e60685ef2881568e350af837347a460a4bcae9b1f8c299d8762003b3623b"),
    "skip-local+page": (15697, "39ea76bfa1cd1fd2e656385bcfd1a6c75d95fb4f50cc4aa8cfc483a942d7c9a1"),
}


# variant -> (page touches, SHA-256) of 300 searches after the build, every
# other one a miss
EXPECTED_SEARCH = {
    "plain": (1468, "21c3ca52fdc0ccb36229b56950517bd9c5cdc30599bdc39ae5844731fd1ad6a5"),
    "hint": (1468, "c48a40df5ad1b7fbf883c1be04f2cc97da9783f068dabdb9905bd34519e8ecfc"),
    "local": (660, "c49d5e583dd47d7f815d505c28dbe98ea622782bbf2214fb6bc298a104993167"),
    "dfs": (1468, "ede9c479c6d9ba2b63562514ec1c882172e4e8fe85a32a0f0435a4db78917320"),
    "local+dfs": (660, "06b0527d0ee87b9c8873cad266c7936fe96cf856758b1351fcbd93027cc56b3c"),
    "veb": (1468, "a4b49c82137556a07e9488bc96105814bdb393e06b35430e7ea945bab1ab0693"),
    "local+veb": (660, "48804efceb7ab459f099c02dd66072bf6a068a450ff1c972e3ad0739ad4e6f4c"),
    "skip-plain": (4928, "3d457f28a12591b44a65b07c2e18cd721a6cc6d9835b4c5e49cdd6a400401980"),
    "skip-hint": (4928, "241ee3b08dcb09ba2cf2c6d5ac0fedc4aebcc5f09d401057d89064ba5a1e3104"),
    "skip-local": (2087, "a1f124f3b8f96ae1b8e734971b840158e0a4007dcdeed11284ecda234a10ab94"),
    "skip-page": (4928, "584e3fcfd7078d313d8becc6013b408b70959a6628fdd7b8cbbb1ee3f3e7dacb"),
    "skip-local+page": (2087, "31256599d2be70970b971a3a43d83788e2825dacfcba34bba4fe271220a78d2b"),
}


class _DigestSink:
    """Trace sink that hashes each ``page * 2 + is_write`` touch as it
    arrives, packed as ``(page, is_write)``."""

    def __init__(self):
        self.n = 0
        self.sha = hashlib.sha256()

    def append(self, code):
        self.n += 1
        self.sha.update(struct.pack("<qB", code >> 1, code & 1))


def traffic(variant: str, monkeypatch) -> tuple[int, str]:
    sink = _DigestSink()

    class TracedSpace(Space):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.set_trace(sink)

    monkeypatch.setattr(workload, "Space", TracedSpace)
    run_benchmark(BenchConfig(variant=variant, **CONFIG))
    return sink.n, sink.sha.hexdigest()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_page_traffic_is_pinned(variant, monkeypatch):
    assert traffic(variant, monkeypatch) == EXPECTED[variant]


def search_traffic(variant: str) -> tuple[int, str]:
    cfg = BenchConfig(variant=variant, **CONFIG)
    container, space = build_placement(cfg)
    sink = _DigestSink()
    space.set_trace(sink)
    for i, op in enumerate(query_script(cfg)):
        # a stored key plus one is never stored at this size
        hit = i % 2 == 0
        found = container.search(op.key if hit else op.key + 1)
        assert (found is not None) == hit
    return sink.n, sink.sha.hexdigest()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_search_traffic_is_pinned(variant):
    assert search_traffic(variant) == EXPECTED_SEARCH[variant]
