"""Placement reuse within a sweep.

A ``PlacementReuse`` scope is planned with the cells of one build key
about to run in it, and refuses a plan of two keys or a cell outside its
plan.  Its first call builds at its own cache size; a later call gets the
same container and space back with the values a fresh build leaves, and
the space's cache size and counters untouched.  The scope hands each cell
its placement counters, link census and measurement counters.  Placement
never reads the cache, so a variant without a purely-local region has one
build key at every L.  The placement takes its link census once, at the
first cell, and each mix's queries run once, on the held space.  When the
plan has more than one cache size, the build's page trace and each mix's
are replayed at every other planned size, and a cell at another size gets
its counters from those replays.  The sweep runs each group of cells that
share a build key in one scope, and ``run_benchmark`` outside a scope
runs its cell in a scope of its own, so every cell goes through the scope.
Every test here compares against ``reference_models.fresh_report``, which
builds afresh and runs the queries for every call without any scope, so
reuse must be invisible in everything a cell reports.  A scope validates
its plan, and refuses a bad cell with ``ConfigError``.
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
from farloc.containers import BTree
from farloc.farmem import (ConfigError, Space, SpaceConfig, SwapStats,
                           UsageError, replay_trace)
from farloc.workload import (VARIANTS, BenchConfig, PlacementReuse,
                             build_key, build_placement, local_budget,
                             query_script, run_benchmark, run_queries)
from reference_models import NaiveLru, ReplayLru, fresh_report

BASE = BenchConfig(total_data_bytes=64 * 1024, l_percent=25.0,
                   num_queries=200, seed=2)

# repeated and interleaved L; at 64 KiB, L=5 leaves the cache 0 pages
L_MIXED = (25.0, 5.0, 50.0, 25.0, 5.0)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def grid(variant, l_percents=(25.0,)):
    """2 alphas x 2 update ratios per L."""
    return [replace(BASE, variant=variant, l_percent=l, alpha=a, update_ratio=u)
            for l in l_percents for a in (0.8, 1.3) for u in (0.05, 0.5)]


def per_key(cells):
    """The cells grouped by build key, each group in cell order: the plans
    of the scopes the sweep opens."""
    groups = {}
    for c in cells:
        groups.setdefault(build_key(c), []).append(c)
    return list(groups.values())


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
    fresh = [fresh_report(c) for c in cells]
    # each key's scope calls its cells in reverse; run_sweep calls them in order
    reused = {}
    for group in per_key(cells):
        with PlacementReuse(group):
            for c in reversed(group):
                reused[c] = run_benchmark(c)
    assert [reused[c] for c in cells] == fresh
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


def spy_traces(monkeypatch):
    """Record the trace argument of every build and query run, in order."""
    traces = []
    real_build, real_measure = workload._build, workload._measure

    def keeping_build(cfg, trace=None):
        traces.append(trace)
        return real_build(cfg, trace)

    def keeping_measure(cfg, container, space, trace=None):
        traces.append(trace)
        real_measure(cfg, container, space, trace)

    monkeypatch.setattr(workload, "_build", keeping_build)
    monkeypatch.setattr(workload, "_measure", keeping_measure)
    return traces


def spy_replays(monkeypatch):
    """Record the cache size of every trace replay the scope makes."""
    replayed = []
    real_replay = workload.replay_trace

    def counting_replay(trace, cache_pages):
        replayed.append(cache_pages)
        return real_replay(trace, cache_pages)

    monkeypatch.setattr(workload, "replay_trace", counting_replay)
    return replayed


@pytest.mark.parametrize("variant", ["dfs", "local+dfs", "skip-local+page"])
def test_reused_replay_touches_the_pages_a_fresh_build_does(variant, monkeypatch):
    runs = spy_queries(monkeypatch)
    cells = grid(variant, (25.0, 50.0))
    fresh = []
    for c in cells:
        fresh_report(c)
        fresh.append(runs.pop())
    assert len(set(fresh)) >= 4   # the mixes do differ
    want = dict(zip(cells, fresh))
    ran = []
    for group in per_key(cells):
        with PlacementReuse(group):
            for c in group:
                run_benchmark(c)
                if runs:
                    assert runs.pop() == want[c], c
                    ran.append(c.l_percent)
    # a pooled variant's queries run at the first L only, once per mix
    assert ran == ([25.0] * 4 if variant == "dfs" else [25.0] * 4 + [50.0] * 4)


@pytest.mark.parametrize("variant", ["plain", "skip-page"])
def test_a_sink_installed_at_space_creation_sees_every_build_touch(
        variant, monkeypatch):
    """A recording build or query run hands a sink already installed every
    touch, in order, and its trace holds the same touches."""
    sinks = []

    class TracedSpace(Space):
        def __init__(self, cfg):
            super().__init__(cfg)
            sinks.append([])
            self.set_trace(sinks[-1])

    monkeypatch.setattr(workload, "Space", TracedSpace)
    traces = spy_traces(monkeypatch)
    cells = grid(variant, (25.0, 50.0))
    workload._build(cells[0])
    for c in cells[:4]:
        fresh_report(c)
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
    # local has a key per L, skip-page one for both
    cells = grid("local", (10.0, 50.0)) + grid("skip-page", (10.0, 50.0))
    for group in per_key(cells):
        with PlacementReuse(group):
            for c in group:
                run_benchmark(c)
        # closing the scope releases its placement
        gc.collect()
        assert all(ref() is None for _, ref in built)
    assert [k for k, _ in built] == list(dict.fromkeys(map(build_key, cells)))
    assert len(built) == 3


def test_a_scope_serves_its_plan_of_one_key_and_refuses_other_cells(monkeypatch):
    a, b = grid("plain")[0], grid("plain", (50.0,))[0]
    c = grid("local")[0]
    fresh = [fresh_report(x) for x in (a, b)]
    built = spy_builds(monkeypatch)
    taken = spy_censuses(monkeypatch)
    replayed = spy_replays(monkeypatch)
    saved = []          # the node count of every tree whose values are saved
    real_save = BTree.save_values

    def counting_save(tree):
        saved.append(tree.node_count)
        return real_save(tree)

    monkeypatch.setattr(BTree, "save_values", counting_save)
    # planned in another order than called: b's traces serve a
    with PlacementReuse([a, b]):
        assert [run_benchmark(x) for x in (b, a)] == fresh[::-1]
    assert (len(built), len(taken)) == (1, 1)
    # one replay of the build trace and one of the query trace, at a's size
    assert replayed == [local_budget(a)[1]] * 2
    # a plan of two keys, and a cell outside the plan
    with pytest.raises(UsageError):
        PlacementReuse([a, c])
    for plan, outside in (([a], b), ([a], c), ([a, a], b)):
        with PlacementReuse(plan), pytest.raises(UsageError):
            run_benchmark(outside)
    assert len(built) == 1
    # a plan with one cache size records no trace; a later cell restores
    built.clear()
    replayed.clear()
    saved.clear()
    with PlacementReuse([a, a]):
        for _ in range(3):
            build_placement(a)
    assert (len(built), replayed, len(saved)) == (1, [], 1)
    # a plan of one cell keeps nothing: coming back rebuilds
    built.clear()
    with PlacementReuse([a]):
        build_placement(a)
        build_placement(a)
    assert len(built) == 2
    # with no scope open, every call runs in a scope of its own cell: it
    # builds and takes its own census, and records, replays and holds nothing
    traces = spy_traces(monkeypatch)
    built.clear()
    taken.clear()
    replayed.clear()
    saved.clear()
    run_benchmark(a)
    run_benchmark(a)
    assert (len(built), len(taken)) == (2, 2)
    assert (replayed, saved) == ([], [])
    # a build and a query run per call
    assert traces == [None] * 4


@pytest.mark.parametrize("bad", [
    replace(BASE, variant="nope"), replace(BASE, l_percent=float("nan")),
    replace(BASE, l_percent=0.0)], ids=["variant", "l-nan", "l-zero"])
def test_a_bad_cell_is_a_config_error_in_a_plan_and_outside_a_scope(
        bad, monkeypatch):
    built = spy_builds(monkeypatch)
    for plan in ([bad], [BASE, bad]):
        with pytest.raises(ConfigError):
            PlacementReuse(plan)
    with pytest.raises(ConfigError):
        run_benchmark(bad)
    assert built == []


def test_serial_sweep_builds_each_key_once_and_holds_one_placement(monkeypatch):
    # the third L repeats the first: local's key's cells are not contiguous
    spec = cli.SweepSpec(("plain", "local"), (10.0, 50.0, 10.0), (0.8,),
                         (0.05, 0.5), BASE)
    cells = spec.cells()
    fresh = [fresh_report(c) for c in cells]
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
    """What a cell reads of its placement beyond the counters, which the
    scope hands it."""
    return container.items(), container.node_handles(), space.num_pages


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_restore_gives_back_the_post_build_state(variant):
    cell = replace(BASE, variant=variant, update_ratio=1.0)
    fresh = build_placement(cell)
    want = snapshot(*fresh)
    with PlacementReuse([cell, cell]):
        container, space = build_placement(cell)
        cfg = space.cfg
        run_queries(container, query_script(cell))    # updates only
        assert container.items() != want[0]
        # the cell's own query run updates values again; the next call
        # restores them
        assert run_benchmark(cell).placement_stats == fresh[1].stats()
        again = build_placement(cell)
    assert again == (container, space)
    assert snapshot(*again) == want
    assert space.cfg is cfg and cfg == fresh[1].cfg
    container.validate()


@pytest.mark.parametrize("variant", ["plain", "hint", "dfs", "veb",
                                     "skip-plain", "skip-page"])
def test_reuse_at_another_l_gives_the_state_of_a_fresh_build_there(variant):
    cells = [replace(BASE, variant=variant, l_percent=l, update_ratio=1.0)
             for l in L_MIXED]
    assert local_budget(cells[1])[1] == 0
    fresh = [build_placement(c) for c in cells]
    with PlacementReuse(cells):
        got, placed = [], []
        for cell in cells:
            container, space = build_placement(cell)
            got.append(snapshot(container, space))
            placed.append(run_benchmark(cell).placement_stats)
            # the held space keeps the first cell's cache
            assert space.cfg == fresh[0][1].cfg
            run_queries(container, query_script(cell))
    assert got == [snapshot(*f) for f in fresh]
    assert placed == [s.stats() for _, s in fresh]
    assert len(set(placed)) == 3      # the placement stats differ
    container.validate()


def test_a_build_trace_replays_as_fresh_builds_at_0_and_1_pages():
    cell = replace(BASE, variant="plain")
    trace = array("i")
    container, space = workload._build(cell, trace)
    assert replay_trace(trace, space.cfg.cache_capacity_pages) == space.stats()
    for l, small in ((5.0, 0), (7.0, 1)):
        fresh = workload._build(replace(cell, l_percent=l))[1]
        assert fresh.cfg.cache_capacity_pages == small
        assert replay_trace(trace, small) == fresh.stats()


def test_a_plan_that_is_not_a_product_replays_every_trace_at_the_other_size(
        monkeypatch):
    """Two cells of one key at two cache sizes with two mixes: the build
    and both query runs happen at the first-called cell's cache, and each
    of the three traces is replayed once, at the other cell's size."""
    a = replace(BASE, variant="plain", l_percent=25.0, alpha=0.8,
                update_ratio=0.05)
    b = replace(BASE, variant="plain", l_percent=50.0, alpha=1.3,
                update_ratio=0.5)
    fresh = {x: fresh_report(x) for x in (a, b)}
    replayed = spy_replays(monkeypatch)
    for first, second in ((a, b), (b, a)):
        replayed.clear()
        built_cfg = SpaceConfig(BASE.page_size_bytes, 0, local_budget(first)[1])
        with PlacementReuse([a, b]):
            for x in (first, second):
                assert run_benchmark(x) == fresh[x]
                assert build_placement(x)[1].cfg == built_cfg
        assert replayed == [local_budget(second)[1]] * 3


def test_a_real_query_trace_replays_as_the_reference_lrus_do():
    """The measurement traces of a 64 KiB dfs grid, replayed by
    ``replay_trace`` at every capacity from 0 to one page past the whole
    space, give what the independent reference LRUs give."""
    for cell in grid("dfs"):
        container, space = workload._build(cell)
        trace = array("i")
        workload._measure(cell, container, space, trace)
        assert space.stats() == replay_trace(trace, space.cfg.cache_capacity_pages)
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
    Returns the number of builds, of link censuses, of query runs and of
    trace replays the sweep made."""
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
    replayed = spy_replays(monkeypatch)
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
    return len(built), len(censuses), len(runs), len(replayed)


def test_btree_grid_matches_the_recorded_fingerprints(monkeypatch):
    """The btree-grid sweep: its 21 (variant, L) pairs take 13 builds and
    13 link censuses, and 8 of them take their placement counts from a
    replayed build trace.  Its 24 pooled-variant cells share 8 (placement,
    mix) pairs, so 16 of them replay a query trace: 18 local-variant cells
    and 8 pairs run queries, and 24 traces are replayed."""
    assert _sweep_matches_the_recorded_fingerprints(
        monkeypatch, "btree-grid") == (13, 13, 26, 24)


@pytest.mark.parametrize(("name", "builds"), [("skiplist-full", 5), ("replay-writes", 3)])
def test_every_cell_builds_and_matches_the_recorded_fingerprints(monkeypatch, name, builds):
    """The other two benchmark sweeps: one build, one census and one query
    run per cell, and no replay.  With btree-grid they put every variant's
    placement under a recorded fingerprint."""
    assert _sweep_matches_the_recorded_fingerprints(
        monkeypatch, name) == (builds, builds, builds, 0)
