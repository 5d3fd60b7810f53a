"""Pinned page traffic of every variant on one small config.

Every swap statistic, CSV row and acceptance verdict follows from the
sequence of ``(page, is_write)`` page touches a container makes.  This test
pins that sequence, through build and replay, as a count and a SHA-256, so a
change meant to speed up the touch path or the containers without changing
what they touch shows here first when it does change it.
"""
import hashlib
import struct

import pytest

from farloc import workload
from farloc.farmem import Space
from farloc.workload import VARIANTS, BenchConfig, run_benchmark

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


class _DigestSink:
    """Trace sink that hashes each touch as it arrives."""

    def __init__(self):
        self.n = 0
        self.sha = hashlib.sha256()

    def append(self, touch):
        page, is_write = touch
        self.n += 1
        self.sha.update(struct.pack("<qB", page, is_write))


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
