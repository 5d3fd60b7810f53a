"""Placement reuse within a sweep.

A ``PlacementReuse`` scope holds one placement: a call with the key of its
last build gets that placement back, restored to its post-build state, and
a call with another key builds afresh.  The sweep runs each group of cells
that share a build key in one scope.  Every test here compares against the
unscoped path, which builds afresh for every call, so reuse must be
invisible in everything a cell reports.
"""
import gc
import hashlib
import struct
import weakref
from dataclasses import replace

import pytest

from farloc import cli, workload
from farloc.farmem import UsageError
from farloc.workload import (VARIANTS, BenchConfig, PlacementReuse,
                             build_key, build_placement, query_script,
                             run_benchmark, run_queries)

BASE = BenchConfig(total_data_bytes=64 * 1024, l_percent=25.0,
                   num_queries=200, seed=2)


def grid(variant, l_percents=(25.0,)):
    """2 alphas x 2 update ratios per L: one build key per L."""
    return [replace(BASE, variant=variant, l_percent=l, alpha=a, update_ratio=u)
            for l in l_percents for a in (0.8, 1.3) for u in (0.05, 0.5)]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_scoped_sweep_reports_equal_per_cell_runs(variant):
    cells = grid(variant)
    fresh = [run_benchmark(c) for c in cells]
    with PlacementReuse():
        reused = [run_benchmark(c) for c in cells]
    assert reused == fresh


class _Digest:
    """Trace sink that hashes each ``(page, is_write)`` touch."""

    def __init__(self):
        self.n = 0
        self.sha = hashlib.sha256()

    def append(self, touch):
        self.n += 1
        self.sha.update(struct.pack("<qB", *touch))


@pytest.mark.parametrize("variant", ["local+dfs", "skip-local+page"])
def test_reused_replay_touches_the_pages_a_fresh_build_does(variant, monkeypatch):
    replays = []

    def traced_replay(container, script):
        sink = _Digest()
        container.space.set_trace(sink)
        run_queries(container, script)
        container.space.set_trace(None)
        replays.append((sink.n, sink.sha.hexdigest()))

    monkeypatch.setattr(workload, "run_queries", traced_replay)
    cells = grid(variant)
    for c in cells:
        run_benchmark(c)
    fresh, replays[:] = list(replays), []
    with PlacementReuse():
        for c in cells:
            run_benchmark(c)
    assert replays == fresh
    assert len(set(fresh)) == len(cells)   # the cells do differ


def test_one_build_per_key_and_nothing_held_past_its_last_cell(monkeypatch):
    built = []          # (build key, weak reference to its container)
    real_build = workload._build

    def spying_build(cfg):
        gc.collect()
        assert all(ref() is None for _, ref in built), "two placements held"
        container, space = real_build(cfg)
        built.append((build_key(cfg), weakref.ref(container)))
        return container, space

    monkeypatch.setattr(workload, "_build", spying_build)
    # two keys per variant (L 10 and 50), four cells per key, each key's
    # cells together as the sweep runs them
    cells = grid("dfs", (10.0, 50.0)) + grid("skip-page", (10.0, 50.0))
    with PlacementReuse() as reuse:
        for c in cells:
            run_benchmark(c)
            assert reuse._key == build_key(c)
    assert [k for k, _ in built] == list(dict.fromkeys(map(build_key, cells)))
    assert len(built) == 4
    # closing the scope releases the last key's placement
    gc.collect()
    assert all(ref() is None for _, ref in built)


def test_cells_outside_the_plan_build_afresh(monkeypatch):
    builds = []
    real_build = workload._build
    monkeypatch.setattr(workload, "_build",
                        lambda cfg: builds.append(build_key(cfg)) or real_build(cfg))
    a, b = grid("plain")[0], grid("plain", (50.0,))[0]
    with PlacementReuse() as reuse:
        for c in (a, a, b, b, a):
            build_placement(c)
            assert reuse._key == build_key(c)
    # a new key drops the held placement; coming back to a key rebuilds it
    assert builds == [build_key(c) for c in (a, b, a)]
    # with no scope open, every call builds
    build_placement(a)
    build_placement(a)
    assert len(builds) == 5


def test_serial_sweep_builds_each_key_once_and_holds_one_placement(monkeypatch):
    # the third L repeats the first: its key's cells are not contiguous
    spec = cli.SweepSpec(("plain", "local"), (10.0, 50.0, 10.0), (0.8,),
                         (0.05, 0.5), BASE)
    cells = spec.cells()
    fresh = [run_benchmark(c) for c in cells]
    pooled = cli.run_sweep(spec, threads=2)
    built = []          # (build key, weak reference to its container)
    real_build = workload._build

    def spying_build(cfg):
        gc.collect()
        assert all(ref() is None for _, ref in built), "two placements held"
        container, space = real_build(cfg)
        built.append((build_key(cfg), weakref.ref(container)))
        return container, space

    monkeypatch.setattr(workload, "_build", spying_build)
    serial = cli.run_sweep(spec, threads=1)
    assert [k for k, _ in built] == list(dict.fromkeys(map(build_key, cells)))
    assert len(built) == 4
    assert [r.config for r in serial] == cells
    assert serial == pooled == fresh


def test_build_key_holds_what_a_build_reads():
    cfg = grid("local")[0]
    assert build_key(cfg) == build_key(replace(cfg, alpha=2.0, update_ratio=1.0,
                                               num_queries=7))
    for change in (dict(variant="plain"), dict(total_data_bytes=32 * 1024),
                   dict(value_size_bytes=64), dict(page_size_bytes=8192),
                   dict(seed=3), dict(l_percent=50.0)):
        assert build_key(replace(cfg, **change)) != build_key(cfg), change


def snapshot(container, space):
    return (container.items(), container.node_handles(), space.stats(),
            space.residency(), space.num_pages)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_restore_gives_back_the_post_build_state(variant):
    cell = replace(BASE, variant=variant, update_ratio=1.0)
    want = snapshot(*build_placement(cell))
    with PlacementReuse():
        container, space = build_placement(cell)
        space.evict_all()
        space.reset_stats()
        run_queries(container, query_script(cell))    # updates only
        assert container.items() != want[0]
        assert (space.stats(), space.residency()) != want[2:4]
        again = build_placement(cell)
    assert again == (container, space)
    assert snapshot(*again) == want
    container.validate()


@pytest.mark.parametrize("variant", ["plain", "skip-plain"])
def test_restore_values_refuses_a_changed_container(variant):
    container, _ = build_placement(replace(BASE, variant=variant))
    saved = container.save_values()
    container.insert(-1, b"x")     # a new node, or a new key in a node
    with pytest.raises(UsageError):
        container.restore_values(saved)
