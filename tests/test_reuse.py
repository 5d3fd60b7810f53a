"""Placement reuse within a sweep.

A ``PlacementReuse`` scope is planned with the cells about to run in it and
holds one placement: a call whose placement it holds gets it back with the
values, placement counters and cache capacity a fresh build at the call's
own L leaves, and an empty cache; any other call builds afresh.  Placement
never reads the cache, so a variant without a purely-local region has one
build key at every L, and a reused cell at another cache size gets its
counters from a replay of the build's page trace.  A held placement takes
its link census once, at its key's first cell.  Each mix's queries run
once per held placement: a cell with the key and mix at another cache size
gets its measurement counters from a replay of their page trace.  The sweep
runs each group of cells that share a build key in one scope.  Every test
here compares against the unscoped path, which builds afresh and runs the
queries for every call, so reuse must be invisible in everything a cell
reports.
"""
import gc
import hashlib
import importlib.util
import json
import struct
import sys
import weakref
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from farloc import cli, workload
from farloc.farmem import Space, SwapStats, UsageError, replay_trace
from farloc.workload import (VARIANTS, BenchConfig, PlacementReuse,
                             build_key, build_placement, local_budget,
                             query_script, run_benchmark, run_queries)
from reference_models import NaiveLru, ReplayLru

BASE = BenchConfig(total_data_bytes=64 * 1024, l_percent=25.0,
                   num_queries=200, seed=2)

# repeated and interleaved L; at 64 KiB, L=5 leaves the cache 0 pages
L_MIXED = (25.0, 5.0, 50.0, 25.0, 5.0)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def grid(variant, l_percents=(25.0,)):
    """2 alphas x 2 update ratios per L."""
    return [replace(BASE, variant=variant, l_percent=l, alpha=a, update_ratio=u)
            for l in l_percents for a in (0.8, 1.3) for u in (0.05, 0.5)]


def spy_builds(monkeypatch):
    """Record the build key of every real build; at each one, no earlier
    placement may still be alive."""
    built = []          # (build key, weak reference to its container)
    real_build = workload._build

    def spying_build(cfg, trace=None):
        gc.collect()
        assert all(ref() is None for _, ref in built), "two placements held"
        container, space = real_build(cfg, trace)
        built.append((build_key(cfg), weakref.ref(container)))
        return container, space

    monkeypatch.setattr(workload, "_build", spying_build)
    return built


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_scoped_sweep_reports_equal_per_cell_runs(variant):
    cells = grid(variant, L_MIXED)
    assert local_budget(cells[4])[1] == 0
    fresh = [run_benchmark(c) for c in cells]
    with PlacementReuse(cells):
        reused = [run_benchmark(c) for c in cells]
    assert reused == fresh
    spec = cli.SweepSpec((variant,), L_MIXED, (0.8, 1.3), (0.05, 0.5), BASE)
    assert cli.run_sweep(spec, threads=1) == fresh


class _Digest:
    """Trace sink that hashes each ``page * 2 + is_write`` touch and hands
    it on to the sink it stands in front of."""

    def __init__(self, inner):
        self.inner = inner
        self.n = 0
        self.sha = hashlib.sha256()

    def append(self, code):
        self.n += 1
        self.sha.update(struct.pack("<qB", code >> 1, code & 1))
        if self.inner is not None:
            self.inner.append(code)


def spy_censuses(monkeypatch):
    """Record the node count of every link census's container; holding
    the container itself would keep its placement alive."""
    taken = []
    real_census = workload.link_composition

    def counting_census(container):
        taken.append(container.node_count)
        return real_census(container)

    monkeypatch.setattr(workload, "link_composition", counting_census)
    return taken


def spy_queries(monkeypatch):
    """Record the touch count and digest of every query run, in order; a
    trace the run records still gets every touch."""
    runs = []
    real_run = workload.run_queries

    def digest_run(container, script):
        space = container.space
        sink = _Digest(space.set_trace(None))
        space.set_trace(sink)
        real_run(container, script)
        space.set_trace(sink.inner)
        runs.append((sink.n, sink.sha.hexdigest()))

    monkeypatch.setattr(workload, "run_queries", digest_run)
    return runs


@pytest.mark.parametrize("variant", ["dfs", "local+dfs", "skip-local+page"])
def test_reused_replay_touches_the_pages_a_fresh_build_does(variant, monkeypatch):
    runs = spy_queries(monkeypatch)
    cells = grid(variant, (25.0, 50.0))
    fresh = []
    for c in cells:
        run_benchmark(c)
        fresh.append(runs.pop())
    assert len(set(fresh)) >= 4   # the mixes do differ
    ran = []
    with PlacementReuse(cells):
        for c, want in zip(cells, fresh):
            run_benchmark(c)
            if runs:
                assert runs.pop() == want, c
                ran.append(c.l_percent)
    # a pooled variant's queries run at the first L only, once per mix
    assert ran == ([25.0] * 4 if variant == "dfs" else [25.0] * 4 + [50.0] * 4)


@pytest.mark.parametrize("variant", ["plain", "skip-page"])
def test_a_sink_installed_at_space_creation_sees_every_build_touch(
        variant, monkeypatch):
    """A recording build or query run hands a sink already installed every
    touch, in order, and its trace holds the same touches."""
    sinks, traces = [], []
    real_build, real_measure = workload._build, workload._measure

    class TracedSpace(Space):
        def __init__(self, cfg):
            super().__init__(cfg)
            sinks.append([])
            self.set_trace(sinks[-1])

    def keeping_build(cfg, trace=None):
        traces.append(trace)
        return real_build(cfg, trace)

    def keeping_measure(cfg, container, space, trace=None):
        traces.append(trace)
        return real_measure(cfg, container, space, trace)

    monkeypatch.setattr(workload, "Space", TracedSpace)
    monkeypatch.setattr(workload, "_build", keeping_build)
    monkeypatch.setattr(workload, "_measure", keeping_measure)
    cells = grid(variant, (25.0, 50.0))
    workload._build(cells[0])
    for c in cells[:4]:
        run_benchmark(c)
    build_touches = sinks[0]
    # each mix's query touches follow the build's in a fresh cell's sink
    query_touches = [s[len(build_touches):] for s in sinks[1:]]
    assert all(s[:len(build_touches)] == build_touches for s in sinks[1:])
    sinks.clear()
    traces.clear()
    with PlacementReuse(cells):
        for c in cells:
            run_benchmark(c)
    # the build and the first L's queries record; the second L replays
    (recording,) = sinks
    assert [list(t) for t in traces] == [build_touches] + query_touches
    assert recording == build_touches + sum(query_touches, [])


def test_a_pooled_variant_builds_once_across_l(monkeypatch):
    built = spy_builds(monkeypatch)
    for variant, builds in (("plain", 1), ("local", 3)):
        built.clear()
        spec = cli.SweepSpec((variant,), (10.0, 25.0, 50.0), (0.8,), (0.05,),
                             BASE)
        cli.run_sweep(spec, threads=1)
        assert len(built) == builds, variant


def test_queries_run_once_per_placement_and_mix(monkeypatch):
    """Over 3 L x 4 mixes, a pooled variant runs each mix's queries once
    and replays them at the other two L; a local variant has a placement
    per L, so it runs every cell's queries.  Each placement takes one link
    census."""
    runs = spy_queries(monkeypatch)
    taken = spy_censuses(monkeypatch)
    for variant, n_runs, n_censuses in (("plain", 4, 1), ("skip-page", 4, 1),
                                        ("local", 12, 3)):
        runs.clear()
        taken.clear()
        spec = cli.SweepSpec((variant,), (10.0, 25.0, 50.0), (0.8, 1.3),
                             (0.05, 0.5), BASE)
        cli.run_sweep(spec, threads=1)
        assert (len(runs), len(taken)) == (n_runs, n_censuses), variant


def test_one_build_per_key_and_nothing_held_past_its_last_cell(monkeypatch):
    built = spy_builds(monkeypatch)
    # local has a key per L, skip-page one for both; each key's cells
    # together as the sweep runs them
    cells = grid("local", (10.0, 50.0)) + grid("skip-page", (10.0, 50.0))
    with PlacementReuse(cells) as reuse:
        for c in cells:
            run_benchmark(c)
            assert reuse._key == build_key(c)
    assert [k for k, _ in built] == list(dict.fromkeys(map(build_key, cells)))
    assert len(built) == 3
    # closing the scope releases the last key's placement
    gc.collect()
    assert all(ref() is None for _, ref in built)


def test_cells_outside_the_plan_build_afresh(monkeypatch):
    a, b = grid("plain")[0], grid("plain", (50.0,))[0]
    c = grid("local")[0]
    fresh = [run_benchmark(x) for x in (a, b)]
    built = spy_builds(monkeypatch)
    taken = spy_censuses(monkeypatch)
    # planned in another order than called: b's trace serves a
    with PlacementReuse([a, b]):
        assert [run_benchmark(x) for x in (b, a)] == fresh[::-1]
    assert (len(built), len(taken)) == (1, 1)
    # a cell whose placement the scope does not hold, or outside any
    # scope, takes its own census
    taken.clear()
    with PlacementReuse([a, c]):
        for x in (a, c, a):
            run_benchmark(x)
    run_benchmark(a)
    assert len(taken) == 4
    # a plan with one cache size records no trace: another one rebuilds
    built.clear()
    with PlacementReuse([a, a]):
        for x in (a, b, a):
            build_placement(x)
    assert len(built) == 2
    # a plan of one cell per key keeps nothing: coming back rebuilds
    built.clear()
    with PlacementReuse([a, c]) as reuse:
        for x in (a, c, a):
            build_placement(x)
            assert reuse._key is None
    assert len(built) == 3
    # with no scope open, every call builds
    built.clear()
    build_placement(a)
    build_placement(a)
    assert len(built) == 2


def test_serial_sweep_builds_each_key_once_and_holds_one_placement(monkeypatch):
    # the third L repeats the first: local's key's cells are not contiguous
    spec = cli.SweepSpec(("plain", "local"), (10.0, 50.0, 10.0), (0.8,),
                         (0.05, 0.5), BASE)
    cells = spec.cells()
    fresh = [run_benchmark(c) for c in cells]
    pooled = cli.run_sweep(spec, threads=2)
    built = spy_builds(monkeypatch)
    serial = cli.run_sweep(spec, threads=1)
    assert [k for k, _ in built] == list(dict.fromkeys(map(build_key, cells)))
    assert len(built) == 3
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
    # a variant without a purely-local region reads no part of L
    for variant in ("plain", "skip-page"):
        pooled = replace(cfg, variant=variant)
        for l in (5.0, 50.0, 200.0):
            assert build_key(replace(pooled, l_percent=l)) == build_key(pooled)


def snapshot(container, space):
    """What a cell reads of its placement: run_benchmark drops the cache
    before its first query."""
    return (container.items(), container.node_handles(), space.stats(),
            space.num_pages, space.cfg)


EMPTY = ((), frozenset())


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_restore_gives_back_the_post_build_state(variant):
    cell = replace(BASE, variant=variant, update_ratio=1.0)
    want = snapshot(*build_placement(cell))
    with PlacementReuse([cell, cell]):
        container, space = build_placement(cell)
        space.evict_all()
        space.reset_stats()
        run_queries(container, query_script(cell))    # updates only
        assert container.items() != want[0]
        assert space.stats() != want[2]
        assert space.residency() != EMPTY
        again = build_placement(cell)
    assert again == (container, space)
    assert snapshot(*again) == want
    assert space.residency() == EMPTY
    container.validate()


@pytest.mark.parametrize("variant", ["plain", "hint", "dfs", "veb",
                                     "skip-plain", "skip-page"])
def test_reuse_at_another_l_gives_the_state_of_a_fresh_build_there(variant):
    cells = [replace(BASE, variant=variant, l_percent=l, update_ratio=1.0)
             for l in L_MIXED]
    assert local_budget(cells[1])[1] == 0
    want = [snapshot(*build_placement(c)) for c in cells]
    with PlacementReuse(cells):
        got, caches = [], []
        for cell in cells:
            container, space = build_placement(cell)
            got.append(snapshot(container, space))
            caches.append(space.residency())
            run_queries(container, query_script(cell))
    assert got == want
    # the first cell built the placement; every later one gets an empty cache
    assert caches[1:] == [EMPTY] * (len(cells) - 1)
    assert len({w[2] for w in want}) == 3      # the placement stats differ
    container.validate()


def test_replay_trace_restores_through_a_validated_capacity():
    cell = replace(BASE, variant="plain")
    trace = array("i")
    container, space = workload._build(cell, trace)
    assert replay_trace(trace, space.cfg.cache_capacity_pages) == space.stats()
    for l, small in ((5.0, 0), (7.0, 1)):
        fresh = workload._build(replace(cell, l_percent=l))[1]
        assert fresh.cfg.cache_capacity_pages == small
        assert replay_trace(trace, small) == fresh.stats()
    space.restore(replay_trace(trace, 1), 1)
    assert (space.stats(), space.residency(), space.cfg.cache_capacity_pages) \
        == (replay_trace(trace, 1), EMPTY, 1)
    with pytest.raises(UsageError):
        space.restore(SwapStats(), -1)
    assert space.cfg.cache_capacity_pages == 1


def test_a_real_query_trace_replays_as_the_reference_lrus_do():
    """The measurement traces of a 64 KiB dfs grid, replayed by
    ``replay_trace`` at every capacity from 0 to one page past the whole
    space, give what the independent reference LRUs give."""
    for cell in grid("dfs"):
        container, space = workload._build(cell)
        trace = array("i")
        stats = workload._measure(cell, container, space, trace)
        assert stats == replay_trace(trace, space.cfg.cache_capacity_pages)
        touches = [(code >> 1, bool(code & 1)) for code in trace]
        # every mix has updates, so the trace has writes to write back
        assert len(touches) > 1000 and any(w for _, w in touches)
        for cap in range(space.num_pages + 2):
            got = replay_trace(trace, cap)
            small = [NaiveLru(cap)] if cap <= 4 else []
            for lru in [ReplayLru(cap)] + small:
                for page, is_write in touches:
                    lru.touch_page(page, is_write)
                assert got == SwapStats(lru.swap_ins, lru.write_backs), (cap, lru)


@pytest.mark.parametrize("variant", ["plain", "skip-plain"])
def test_restore_values_refuses_a_changed_container(variant):
    container, _ = build_placement(replace(BASE, variant=variant))
    saved = container.save_values()
    container.insert(-1, b"x")     # a new node, or a new key in a node
    with pytest.raises(UsageError):
        container.restore_values(saved)


def _sweep_matches_the_recorded_fingerprints(monkeypatch, name):
    """Run the benchmark workload ``name`` at seed 0, full size, through
    ``run_sweep``; every cell's placement and measurement swap counts and
    link ratios must equal the fingerprints the benchmark recorded.
    Returns the number of builds, of link censuses and of query runs the
    sweep made."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS[name]
    sweep, _, _ = cli.parse_args(wl.farloc_args(0, "-"))
    recorded = json.loads((PERFBENCH / "fingerprints.json").read_text())
    want = [fp[:8] for fp in recorded[name]["0"]]
    built = spy_builds(monkeypatch)
    censuses = spy_censuses(monkeypatch)
    runs = spy_queries(monkeypatch)
    got = []
    for r in cli.run_sweep(sweep, threads=1):
        c, links = r.config, r.links
        got.append([f"{c.variant}/{c.l_percent:g}/{c.alpha:g}/{c.update_ratio:g}",
                    r.placement_stats.swap_ins, r.placement_stats.write_backs,
                    r.measurement_stats.swap_ins, r.measurement_stats.write_backs,
                    f"{links.purely_local_ratio:.6f}",
                    f"{links.in_page_ratio:.6f}",
                    f"{links.cross_page_ratio:.6f}"])
    assert got == want
    return len(built), len(censuses), len(runs)


def test_btree_grid_matches_the_recorded_fingerprints(monkeypatch):
    """The btree-grid sweep: its 21 (variant, L) pairs take 13 builds and
    13 link censuses, and 8 of them take their placement counts from a
    replayed build trace.  Its 24 pooled-variant cells share 8 (placement,
    mix) pairs, so 16 of them replay a query trace: 18 local-variant cells
    and 8 pairs run queries."""
    assert _sweep_matches_the_recorded_fingerprints(
        monkeypatch, "btree-grid") == (13, 13, 26)


@pytest.mark.parametrize(("name", "builds"), [("skiplist-full", 5), ("replay-writes", 3)])
def test_every_cell_builds_and_matches_the_recorded_fingerprints(monkeypatch, name, builds):
    """The other two benchmark sweeps: one build, one census and one query
    run per cell.  With btree-grid they put every variant's placement under
    a recorded fingerprint."""
    assert _sweep_matches_the_recorded_fingerprints(
        monkeypatch, name) == (builds, builds, builds)
