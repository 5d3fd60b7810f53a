"""Acceptance gate: criteria A1 through A10.

Each test prints one PASS/FAIL verdict line straight to the terminal (outside
pytest's capture) and then asserts, so a tee'd run shows every verdict.

Benchmark scale throughout: 16 MiB of 160-byte pairs (104 857 keys), 4096-byte
pages, 2 000 measurement queries, seed 0; the local-budget sweep is
L in {5, 10, 25, 50, 100, 200} percent with skew 0.8 / 1.3 and update ratios
0.05 / 0.5.

A3-A8 read the reports of ``cli.run_sweep``, kept in SweepLab: one serial
sweep per variant, run when a test first asks for it.  The library's
shortcuts apply: a variant without a purely-local region is built once for
every L, takes its link census once and runs each mix's queries once, and
its other L replay the build and query page traces; a variant with a
purely-local region is built once per L and shares the build and its census
across the four mixes.  A spy on the library's build notes what A7 and A8
read of each placement.
test_replayed_cells_match_direct_runs pins both shortcuts against direct
single-cell runs.
"""
import random
from bisect import bisect_left, insort
from dataclasses import replace

import pytest

from farloc import cli, workload
from farloc.cli import main
from farloc.collective import (CollectiveAllocator, HintAllocator, Kind,
                               ObjectLayout)
from farloc.containers import (OCCUPANCY_LIMIT, BTree, BTreeVariant, SkipList,
                               btree_block_bytes, tower_block_bytes)
from farloc.containers.skiplist import MAX_LEVEL
from farloc.farmem import Space, SpaceConfig
from farloc.metrics import link_composition
from farloc.workload import (VARIANTS, BenchConfig, local_budget,
                             placement_keys, run_benchmark, variant_uses_local)
from reference_models import NaiveLru

BASE = BenchConfig()
L_SWEEP = (5.0, 10.0, 25.0, 50.0, 100.0, 200.0)
ALPHAS = (0.8, 1.3)
UPDATE_RATIOS = (0.05, 0.5)
MIXES = [(a, u) for a in ALPHAS for u in UPDATE_RATIOS]

# L=50 first: a variant without a purely-local region is built at its
# sweep's first L, and A3 and A8 name its build at L=50
LAB_L = (50.0, 5.0, 10.0, 25.0, 100.0, 200.0)

# variants whose swap counts A4-A7 compare over the whole sweep; the lab
# reads the others' links at L=50 only
SWEPT = ("hint", "dfs", "veb", "local", "local+dfs")


@pytest.fixture
def verdict(capsys):
    def _verdict(name, ok, detail):
        with capsys.disabled():
            print(f"{name} {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
        assert ok, f"{name} failed: {detail}"

    return _verdict


class SweepLab:
    """Reports of the acceptance cells, from one ``cli.run_sweep`` per
    variant on first use: LAB_L x the four mixes for a variant in SWEPT,
    the one cell at L=50, skew 0.8 and update ratio 0.05 for the others."""

    def __init__(self):
        self._reports = {}       # (variant, L, alpha, u) -> BenchReport
        self._nodes = {}         # (variant, L) -> node count of its build
        self._occupancy = []     # (label, refs_checked, max_occ, bound)

    @staticmethod
    def _cfg(variant, l, alpha=0.8, u=0.05):
        return replace(BASE, variant=variant, l_percent=l,
                       alpha=alpha, update_ratio=u)

    @staticmethod
    def _max_block(container):
        slot = BASE.pair_size_bytes - 8
        return (btree_block_bytes(slot) if isinstance(container, BTree)
                else tower_block_bytes(MAX_LEVEL, slot))

    def _note_build(self, cfg, container):
        label = f"{cfg.variant} L={cfg.l_percent:g}"
        self._nodes[(cfg.variant, cfg.l_percent)] = container.node_count
        alloc = container._alloc
        if alloc is None or not container.has_rearrangement:
            return
        bound = OCCUPANCY_LIMIT + self._max_block(container) / BASE.page_size_bytes
        occs = [alloc.occupancy(ref)
                for ref in set(alloc.page_owner_map().values())
                if ref.kind is Kind.NEW_PER_PAGE]
        assert occs, f"{label}: rearrangement created no per-page sub-allocators"
        self._occupancy.append((label, len(occs), max(occs), bound))

    def _sweep(self, variant):
        full = variant in SWEPT
        spec = cli.SweepSpec((variant,), LAB_L if full else (50.0,),
                             ALPHAS if full else (0.8,),
                             UPDATE_RATIOS if full else (0.05,), BASE)
        real_build = workload._build

        def noting_build(cfg, trace=None):
            container, space = real_build(cfg, trace)
            self._note_build(cfg, container)
            return container, space

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workload, "_build", noting_build)
            reports = cli.run_sweep(spec, threads=1)
        for r in reports:
            c = r.config
            self._reports[(c.variant, c.l_percent, c.alpha, c.update_ratio)] = r

    def report(self, variant, l=50.0, alpha=0.8, u=0.05):
        key = (variant, l, alpha, u)
        if key not in self._reports:
            self._sweep(variant)
        return self._reports[key]

    def swap_ins(self, variant, l, alpha, u):
        return self.report(variant, l, alpha, u).measurement_stats.swap_ins

    def links(self, variant):
        return self.report(variant).links

    def nodes(self, variant, l):
        self.report(variant, l)
        return self._nodes[(variant, l)]

    def occupancy_records(self):
        return list(self._occupancy)


@pytest.fixture(scope="module")
def lab():
    return SweepLab()


# -- A1: contents oracle across every variant ----------------------------

def _oracle_run(name, n_ops=100_000, check_every=20_000, rearrange_at=50_000):
    cls, variant = VARIANTS[name]
    space = Space(SpaceConfig(4096, 262_144 if variant_uses_local(name) else 0, 64))
    alloc = HintAllocator(space) if variant is cls.HINT else CollectiveAllocator(space)
    if cls is BTree:
        container = BTree(alloc, variant)
    else:
        container = SkipList(alloc, variant, level_seed=17)
    rng = random.Random(name)
    ref = {}
    keys_sorted = []
    for step in range(1, n_ops + 1):
        r = rng.random()
        k = rng.randrange(40_000)
        if r < 0.55:
            v = rng.randbytes(8)
            added = container.insert(k, v)
            assert added == (k not in ref)
            if added:
                ref[k] = v
                insort(keys_sorted, k)
        elif r < 0.75:
            assert container.search(k) == ref.get(k)
        elif r < 0.90:
            v = rng.randbytes(8)
            assert container.update(k, v) == (k in ref)
            if k in ref:
                ref[k] = v
        else:
            ln = rng.randrange(1, 26)
            i = bisect_left(keys_sorted, k)
            want = [(x, ref[x]) for x in keys_sorted[i:i + ln]]
            assert container.scan(k, ln) == want
        if step == rearrange_at and container.has_rearrangement:
            container.make_page_aware()
            container.validate()
        if step % check_every == 0:
            assert container.items() == [(x, ref[x]) for x in keys_sorted]
            container.validate()
    return len(ref)


def test_a1_contents_oracle(verdict):
    sizes = {name: _oracle_run(name) for name in VARIANTS}
    verdict("A1", all(s > 20_000 for s in sizes.values()),
            "12 variants x 100000 random ops match the reference sorted map "
            "at every checkpoint, with a mid-sequence rearrangement")


# -- A2: insert-time hints leave parents and children apart --------------

def test_a2_hint_insert_mismatch(verdict):
    # the hint baseline measured before its batch rearrangement: the same
    # placement phase as the benchmark, minus the make_page_aware call
    cfg = replace(BASE, variant="hint", l_percent=50.0)
    _, cache_pages = local_budget(cfg)
    space = Space(SpaceConfig(cfg.page_size_bytes, 0, cache_pages))
    tree = BTree(HintAllocator(space), BTreeVariant.HINT,
                 value_slot=cfg.pair_size_bytes - 8)
    vs = cfg.value_size_bytes
    buf = bytes(vs)
    for key in placement_keys(cfg).tolist():
        tree.insert(key, buf)
    # a parent/child pair on two pages is exactly a cross-page link
    frac = link_composition(tree).cross_page_ratio
    verdict("A2", frac >= 0.80,
            f"insert-only hint B-tree parent/child page mismatch = {frac:.3f} "
            "(>= 0.80 required)")


# -- protocol fidelity (supports A3-A7) ----------------------------------

def test_replayed_cells_match_direct_runs(lab):
    for variant, l in (("dfs", 25.0), ("local", 10.0)):
        direct = run_benchmark(SweepLab._cfg(variant, l, 1.3, 0.5))
        assert lab.report(variant, l, 1.3, 0.5) == direct


# -- A3: hint variants carry the most cross-page links -------------------

def test_a3_link_composition_ordering(lab, verdict):
    margins = []
    for hint, others in (("hint", ("dfs", "local+dfs")),
                         ("skip-hint", ("skip-page", "skip-local+page"))):
        cross_hint = lab.links(hint).cross_page_ratio
        for other in others:
            margins.append(cross_hint - lab.links(other).cross_page_ratio)
    verdict("A3", min(margins) >= 0.10,
            f"cross-page ratio of the hint variants exceeds the page-aware "
            f"ones in both families; minimum margin = {min(margins):.3f}")


# -- A4-A6: pairwise swap-count dominance over the full sweep ------------

def _dominates(lab, better, worse, slack=1.0):
    worst = None
    for l in L_SWEEP:
        for alpha, u in MIXES:
            b = lab.swap_ins(better, l, alpha, u)
            w = lab.swap_ins(worse, l, alpha, u)
            if b > w * slack:
                return False, (l, alpha, u, b, w)
            gap = w - b
            if worst is None or gap < worst[0]:
                worst = (gap, l, alpha, u, b, w)
    return True, worst


def test_a4_dfs_beats_hint(lab, verdict):
    ok, info = _dominates(lab, "dfs", "hint")
    detail = ("swap_ins(dfs) <= swap_ins(hint) at all 24 cells; smallest gap "
              f"{info[4]} vs {info[5]} at L={info[1]:g} a={info[2]} U={info[3]}"
              if ok else f"violated at L={info[0]:g} a={info[1]} U={info[2]}: "
              f"{info[3]} > {info[4]}")
    verdict("A4", ok, detail)


def test_a5_local_dfs_beats_local(lab, verdict):
    ok, info = _dominates(lab, "local+dfs", "local")
    detail = ("swap_ins(local+dfs) <= swap_ins(local) at all 24 cells; "
              f"smallest gap {info[4]} vs {info[5]} at L={info[1]:g} "
              f"a={info[2]} U={info[3]}"
              if ok else f"violated at L={info[0]:g} a={info[1]} U={info[2]}: "
              f"{info[3]} > {info[4]}")
    verdict("A5", ok, detail)


def test_a6_veb_beats_dfs(lab, verdict):
    ok, info = _dominates(lab, "veb", "dfs", slack=1.02)
    detail = ("swap_ins(veb) <= 1.02 * swap_ins(dfs) at all 24 cells"
              if ok else f"violated at L={info[0]:g} a={info[1]} U={info[2]}: "
              f"{info[3]} > 1.02 * {info[4]}")
    verdict("A6", ok, detail)


# -- A7: more local memory keeps helping, to the point of no swapping ----

def test_a7_local_saturation(lab, verdict):
    series = {}
    mono_ok = True
    for alpha, u in MIXES:
        s = [lab.swap_ins("local+dfs", l, alpha, u) for l in L_SWEEP]
        series[(alpha, u)] = s
        mono_ok &= all(s[i + 1] <= s[i] * 1.05 for i in range(len(s) - 1))
    tail = series[(0.8, 0.05)]
    end = tail[-1]
    nodes = lab.nodes("local+dfs", 200.0)
    block = btree_block_bytes(BASE.pair_size_bytes - 8)
    pl_bytes = local_budget(SweepLab._cfg("local+dfs", 200.0))[0]
    zero_ok = end == 0
    if zero_ok:
        detail = f"non-increasing in L and zero at L=200: {tail}"
    else:
        detail = (f"non-increasing in L ({'yes' if mono_ok else 'NO'}: {tail}) "
                  f"but {end} swap-ins remain at L=200: {nodes} nodes x "
                  f"{block} B = {nodes * block} B of structure cannot fit the "
                  f"{pl_bytes} B purely-local budget (the pairs alone occupy "
                  f"{BASE.num_pairs * BASE.pair_size_bytes} of "
                  f"{BASE.total_data_bytes} B)")
    verdict("A7", mono_ok and zero_ok, detail)


# -- A8: every rearrangement-created page keeps its insertion reserve ----

def test_a8_rearrangement_occupancy(lab, verdict):
    # cover every rearrangement routine, whether or not A3-A7 ran first
    for v in ("dfs", "veb", "skip-page", "skip-local+page", "local+veb",
              "local+dfs"):
        lab.report(v)
    records = lab.occupancy_records()
    labels = {r[0].split(" ")[0] for r in records}
    assert {"dfs", "veb", "local+dfs", "local+veb",
            "skip-page", "skip-local+page"} <= labels
    ok = all(worst < bound for _, _, worst, bound in records)
    checked = sum(n for _, n, _, _ in records)
    worst_rec = max(records, key=lambda r: r[2] - r[3])
    verdict("A8", ok,
            f"{checked} per-page sub-allocators across {len(records)} "
            f"rearranged builds; worst occupancy {worst_rec[2]:.4f} vs bound "
            f"{worst_rec[3]:.4f} ({worst_rec[0]})")


# -- A9: allocator bookkeeping and the cache against brute force ---------

def _allocator_invariants():
    space = Space(SpaceConfig(4096, 8192, 8))
    alloc = CollectiveAllocator(space)
    layouts = [ObjectLayout(s) for s in (64, 160, 712)]
    rng = random.Random(901)
    live = {}
    for step in range(400):
        if live and rng.random() < 0.4:
            h = rng.choice(list(live))
            alloc.deallocate(h, 1, live.pop(h))
        else:
            layout = rng.choice(layouts)
            r = rng.random()
            if r < 0.25:
                ref = alloc.purely_local
            elif r < 0.5 and layout.size_bytes <= 712:
                ref = alloc.get_suballocator_by_kind(Kind.NEW_PER_PAGE)
            else:
                ref = alloc.swappable_plain
            try:
                h = alloc.sub_allocate(ref, 1, layout)
            except Exception:
                continue
            live[h] = layout
            owner = alloc.get_suballocator_by_handle(h)
            assert alloc.get_suballocator_by_handle(h) == owner
        if step % 50 == 49:
            # ownership partition: every page has exactly one owner
            owners = alloc.page_owner_map()
            for h in live:
                page = space.page_of(h)
                if page is not None:
                    assert alloc.get_suballocator_by_handle(h) == owners[page]
            # conservation: per-owner byte totals match the live set
            by_owner = {}
            for h, layout in live.items():
                owner = alloc.get_suballocator_by_handle(h)
                by_owner[owner] = by_owner.get(owner, 0) + layout.size_bytes
            for ref, total in by_owner.items():
                assert alloc.allocated_bytes(ref) == total
    # purely-local exemption: touching local blocks moves no counters
    space.evict_all()
    space.reset_stats()
    for h, layout in live.items():
        if space.is_purely_local(h):
            space.touch(h, layout.size_bytes, True)
    s = space.stats()
    assert (s.swap_ins, s.write_backs) == (0, 0)


def _cache_scripts(n_scripts=10_000):
    rng = random.Random(902)
    for _ in range(n_scripts):
        n_pages = rng.randrange(1, 9)
        cache = rng.randrange(0, 4)
        space = Space(SpaceConfig(4096, 0, cache))
        handles = []
        for _ in range(n_pages):
            page = space.create_page()
            handles.append(space.carve_in_page(page, 4096))
        naive = NaiveLru(cache)
        for _ in range(rng.randrange(4, 40)):
            if rng.random() < 0.05:
                space.evict_all()
                naive.evict_all()
                continue
            i = rng.randrange(n_pages)
            is_write = rng.random() < 0.4
            space.touch(handles[i], 4096, is_write)
            naive.touch_page(i, is_write)
        stats = space.stats()
        assert stats.swap_ins == naive.swap_ins
        assert stats.write_backs == naive.write_backs
        # page ids equal the script's page indices here, so residency and
        # dirty state compare directly
        order, dirty = space.residency()
        assert list(order) == naive.order
        assert set(dirty) == naive.dirty


def test_a9_allocator_and_cache_invariants(verdict):
    _allocator_invariants()
    _cache_scripts()
    verdict("A9", True,
            "allocator partition/conservation/exemption hold; 10000 random "
            "scripts match the brute-force LRU exactly")


# -- A10: byte-identical sweeps ------------------------------------------

def test_a10_deterministic_csv(tmp_path, verdict):
    args = ["--variant", "plain", "--variant", "local",
            "--l-percent", "5", "--l-percent", "50", "--report", "both"]
    outs = []
    for d in ("first", "second"):
        (tmp_path / d).mkdir()
        out = tmp_path / d / "sweep.csv"
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out.read_bytes(),
                     (tmp_path / d / "sweep_links.csv").read_bytes()))
    ok = outs[0] == outs[1]
    verdict("A10", ok,
            "two identical sweeps produced byte-identical swap and link CSVs"
            if ok else "CSV outputs differ between runs")
