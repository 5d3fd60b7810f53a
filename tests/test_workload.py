"""Hashing, sampling, and the two-phase benchmark protocol."""
import numpy as np
import pytest

from farloc.containers import BTree, SkipList
from farloc.farmem import ConfigError
from farloc.workload import (FNV64_OFFSET, SCAN_LEN_MAX, BenchConfig, QueryOp,
                             VARIANTS, ZipfSampler, build_placement,
                             fnv64_batch, local_budget, placement_keys,
                             query_script, run_benchmark, run_queries,
                             variant_uses_local)
from reference_models import ref_fnv1a_64

SMALL = dict(total_data_bytes=160_000, num_queries=400)


# -- hashing -------------------------------------------------------------

def fnv64(x: int) -> int:
    """The reference digest of one 64-bit value, as the benchmark hashes it."""
    return ref_fnv1a_64(x.to_bytes(8, "little"))


def test_fnv64_matches_the_reference_digest():
    assert ref_fnv1a_64(b"") == FNV64_OFFSET == 0xCBF29CE484222325
    xs = [0, 1, 2, 255, 256, 0xDEADBEEF, 2**63, 2**64 - 1]
    got = fnv64_batch(np.array(xs, dtype=np.uint64))
    assert [int(v) for v in got] == [fnv64(x) for x in xs]


def test_fnv64_frozen_values():
    got = fnv64_batch(np.array([0, 1, 2**64 - 1], dtype=np.uint64))
    assert [int(v) for v in got] == [0xA8C7F832281A39C5, 0x89CD31291D2AEFA4,
                                     0x8CF51A8BFCA3883D]


def test_fnv64_batch_agrees_with_the_scalar():
    xs = np.array([0, 1, 2, 97, 2**32, 2**64 - 1], dtype=np.uint64)
    got = fnv64_batch(xs)
    assert got.dtype == np.uint64
    assert got.shape == xs.shape
    assert [int(v) for v in got] == [fnv64(int(x)) for x in xs]
    assert int(fnv64_batch(np.uint64(97))) == fnv64(97)     # scalar input


def test_fnv64_has_no_collisions_over_a_million_inputs():
    hashes = fnv64_batch(np.arange(1_000_000, dtype=np.uint64))
    assert np.unique(hashes).size == 1_000_000


# -- Zipf sampling -------------------------------------------------------

def test_zipf_support_is_one_to_n():
    rng = np.random.default_rng(0)
    ranks = ZipfSampler(50, 1.1).sample(rng, 20_000)
    assert ranks.min() == 1
    assert ranks.max() == 50
    assert set(np.unique(ranks)) == set(range(1, 51))
    assert all(ZipfSampler(1, 0.8).sample(rng, 100) == 1)


def test_zero_skew_is_uniform():
    rng = np.random.default_rng(1)
    ranks = ZipfSampler(10, 0.0).sample(rng, 40_000)
    counts = np.bincount(ranks, minlength=11)[1:]
    # binomial sd is 60 per bin at these sizes; allow 3 sigma
    assert all(abs(c - 4000) <= 180 for c in counts)


@pytest.mark.parametrize("alpha", [0.8, 1.3])
def test_rank_probabilities_follow_the_power_law(alpha):
    rng = np.random.default_rng(2)
    ranks = ZipfSampler(1000, alpha).sample(rng, 400_000)
    c1 = int((ranks == 1).sum())
    c2 = int((ranks == 2).sum())
    assert c1 / c2 == pytest.approx(2.0 ** alpha, rel=0.05)


def test_zipf_argument_errors():
    with pytest.raises(ConfigError):
        ZipfSampler(0, 0.8)
    for alpha in (-0.1, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ZipfSampler(10, alpha)


# -- configuration -------------------------------------------------------

def test_variant_table_shape():
    assert len(VARIANTS) == 12
    assert {n for n in VARIANTS if variant_uses_local(n)} == \
        {"local", "local+dfs", "local+veb", "skip-local", "skip-local+page"}
    assert sum(1 for cls, _ in VARIANTS.values() if cls is BTree) == 7
    assert sum(1 for cls, _ in VARIANTS.values() if cls is SkipList) == 5


def test_pair_arithmetic():
    cfg = BenchConfig()
    assert cfg.pair_size_bytes == 160        # 8-byte key + 150 padded to 152
    assert cfg.num_pairs == 104_857
    assert BenchConfig(value_size_bytes=8).pair_size_bytes == 16
    assert BenchConfig(value_size_bytes=1).pair_size_bytes == 16


def test_config_validation():
    BenchConfig()
    for bad in (dict(variant="nope"), dict(value_size_bytes=0),
                dict(total_data_bytes=8), dict(l_percent=0.0),
                # one node holds every pair: there are no links to census
                dict(variant="plain", total_data_bytes=640),
                dict(variant="skip-plain", total_data_bytes=319),
                dict(l_percent=float("nan")), dict(l_percent=float("inf")),
                dict(alpha=-1.0), dict(alpha=float("nan")),
                dict(alpha=float("inf")),
                dict(update_ratio=1.5), dict(update_ratio=-0.1),
                dict(update_ratio=float("nan")),
                dict(update_ratio=float("inf")),
                dict(num_queries=-1),
                dict(page_size_bytes=300), dict(page_size_bytes=128),
                # the largest node block cannot fit one page
                dict(variant="plain", page_size_bytes=512),
                dict(variant="skip-plain", value_size_bytes=300,
                     page_size_bytes=256),
                # towers of level 10 and up overflow a 256-byte page
                dict(variant="skip-plain", page_size_bytes=256),
                dict(seed=-1),
                # half of L is purely-local: more than the address layout holds
                dict(variant="local", l_percent=1e15),
                # L% of the data overflows a float
                dict(l_percent=1e308),
                # more values or queries than one numpy array can hold
                dict(num_queries=10**20), dict(total_data_bytes=10**20)):
        with pytest.raises(ConfigError):
            BenchConfig(**bad)
    # the fewest pairs that give a link: ORDER for a B-tree, 2 for a skip list
    BenchConfig(variant="plain", total_data_bytes=800)
    BenchConfig(variant="skip-plain", total_data_bytes=320)
    # a level-20 tower takes 344 bytes: it fits a 512-byte page
    BenchConfig(variant="skip-plain", page_size_bytes=512)
    # without a purely-local region all of L is page cache, which is unbounded
    BenchConfig(variant="plain", l_percent=1e15)


def test_local_budget_split():
    mib16 = 16 * 1024 * 1024
    for l, local_want, plain_want in [
            (50.0, (4_194_304, 1024), (0, 2048)),
            (5.0, (419_430, 102), (0, 204)),
            (200.0, (16_777_216, 4096), (0, 8192))]:
        local = BenchConfig(variant="local", total_data_bytes=mib16, l_percent=l)
        plain = BenchConfig(variant="plain", total_data_bytes=mib16, l_percent=l)
        assert local_budget(local) == local_want
        assert local_budget(plain) == plain_want


# -- placement keys ------------------------------------------------------

def test_placement_keys_hash_descending_indices():
    cfg = BenchConfig(**SMALL)
    keys = placement_keys(cfg)
    n = cfg.num_pairs
    assert n == 1000
    assert keys.shape == (n,)
    assert int(keys[0]) == fnv64(n - 1)
    assert int(keys[-1]) == fnv64(0)
    assert np.array_equal(keys, placement_keys(cfg))
    assert np.unique(keys).size == n


# -- query script --------------------------------------------------------

def test_script_is_deterministic_and_well_formed():
    cfg = BenchConfig(**SMALL)
    s1 = query_script(cfg)
    s2 = query_script(cfg)
    assert s1 == s2
    assert len(s1) == cfg.num_queries
    inserted = set(placement_keys(cfg).tolist())
    for op in s1:
        assert op.key in inserted
        if op.kind == "scan":
            assert 1 <= op.length <= SCAN_LEN_MAX
            assert op.value == b""
        else:
            assert op.kind == "update"
            assert op.length == 0
            assert len(op.value) == cfg.value_size_bytes


def test_update_ratio_extremes():
    all_scans = query_script(BenchConfig(update_ratio=0.0, **SMALL))
    assert {op.kind for op in all_scans} == {"scan"}
    all_updates = query_script(BenchConfig(update_ratio=1.0, **SMALL))
    assert {op.kind for op in all_updates} == {"update"}


def test_update_ratio_changes_neither_keys_nor_scan_lengths():
    low = query_script(BenchConfig(update_ratio=0.05, **SMALL))
    high = query_script(BenchConfig(update_ratio=0.5, **SMALL))
    for a, b in zip(low, high):
        assert a.key == b.key
        if a.kind == "scan" and b.kind == "scan":
            assert a.length == b.length


def test_seed_changes_the_script():
    a = query_script(BenchConfig(seed=0, **SMALL))
    b = query_script(BenchConfig(seed=1, **SMALL))
    assert [op.key for op in a] != [op.key for op in b]


# -- placement phase -----------------------------------------------------

@pytest.mark.parametrize("variant", ["plain", "local", "dfs", "hint",
                                     "skip-plain", "skip-local+page"])
def test_build_places_every_pair(variant):
    cfg = BenchConfig(variant=variant, **SMALL)
    container, space = build_placement(cfg)
    expect = VARIANTS[variant][0]
    assert isinstance(container, expect)
    assert len(container) == cfg.num_pairs
    keys = placement_keys(cfg)
    for rank in (1, 2, 17, cfg.num_pairs):
        val = container.search(fnv64(rank - 1))
        assert val is not None and len(val) == cfg.value_size_bytes
    local = sum(1 for h in container.node_handles()
                if space.is_purely_local(h))
    if variant_uses_local(variant):
        assert local > 0
    else:
        assert local == 0
    assert int(keys[0]) != int(keys[-1])


def test_builds_with_one_seed_are_identical():
    cfg = BenchConfig(variant="skip-local", **SMALL)
    c1, _ = build_placement(cfg)
    c2, _ = build_placement(cfg)
    assert c1.items() == c2.items()


# -- measurement phase ---------------------------------------------------

def test_updates_become_visible():
    cfg = BenchConfig(variant="plain", **SMALL)
    container, _ = build_placement(cfg)
    key = fnv64(5)
    new_val = bytes(cfg.value_size_bytes)
    assert container.search(key) != new_val
    run_queries(container, [QueryOp(key, "update", 0, new_val),
                            QueryOp(key, "scan", 3)])
    assert container.search(key) == new_val


def test_benchmark_reports_are_reproducible():
    for variant in ("plain", "local"):
        cfg = BenchConfig(variant=variant, **SMALL, l_percent=10.0)
        r1 = run_benchmark(cfg)
        r2 = run_benchmark(cfg)
        assert r1.config == r2.config == cfg
        assert r1.placement_stats == r2.placement_stats
        assert r1.links == r2.links
        assert r1.measurement_stats == r2.measurement_stats


def test_measurement_is_isolated_from_placement():
    quiet = BenchConfig(variant="plain", total_data_bytes=160_000,
                        num_queries=0)
    busy = BenchConfig(variant="plain", total_data_bytes=160_000,
                       num_queries=400)
    rq = run_benchmark(quiet)
    rb = run_benchmark(busy)
    assert rq.measurement_stats.swap_ins == 0
    assert rq.measurement_stats.write_backs == 0
    assert rq.placement_stats == rb.placement_stats
    assert rq.links == rb.links


def test_scarce_cache_forces_swapping():
    cfg = BenchConfig(variant="plain", l_percent=5.0, **SMALL)
    report = run_benchmark(cfg)
    assert report.measurement_stats.swap_ins > 0
