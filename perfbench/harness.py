"""In-process measurement of one ``farloc`` sweep.

:func:`measure_sweep` runs ``farloc.cli.main`` on a workload's arguments with
thin wrappers around public functions of the package.  Nothing under
``src/`` changes; the wrappers are installed on the modules and classes for
the duration of one sweep and removed afterwards.

* The cell wrapper (``cli.run_benchmark``) marks the sweep's start and
  captures each cell's simulated fingerprint.
* The phase wrappers (``workload.build_placement``, ``link_composition``,
  ``query_script``, ``run_queries``) time the three cell phases.
* The query wrappers (``BTree``/``SkipList`` ``scan`` and ``update``) time
  every query and check its result against :class:`Reference`.

Checking happens outside the timed regions: its time is measured and taken
out of every phase and of the sweep.  With a :class:`Tracer`, every public
boundary of each layer is also wrapped, and per-name aggregates plus spans
for the coarse boundaries are kept in memory.

Run as a script, this module is the child process ``run.py`` starts::

    python3 perfbench/harness.py probe SPEC_JSON
    python3 perfbench/harness.py sweep SPEC_JSON RESULT_PATH
"""
from __future__ import annotations

import csv
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import TINY, WORKLOADS  # noqa: E402

clock = time.perf_counter
MAX_FAILURE_NOTES = 20
CALIBRATION_ITERS = 10_000
# calibrate() at the full speed of the host the baseline was taken on
# (2-vCPU Intel Xeon VM, Python 3.11): the speed every time is scaled to
REFERENCE_PROBE_S = 2.4e-3
PROBE_EVERY = 512  # queries of one kind between two speed probes
SPEED_WINDOW_S = 0.5  # probes this close to a moment give the speed there
MIN_WINDOW_PROBES = 5


def calibrate() -> float:
    """Host time of a fixed pure-Python loop that shares no code with
    ``farloc``: how fast the host runs Python right now.

    The host switches between speed modes for seconds at a time.  Probed
    between the phases of a sweep, this loop slows down with the sweep
    (see ``README.md``), so dividing by it takes the mode out
    (:class:`SpeedTimeline`).
    """
    t0 = clock()
    counts: dict[int, int] = {}
    mixed = []
    for i in range(CALIBRATION_ITERS):
        k = (i * 2654435761) & 0xFFFF
        counts[k] = counts.get(k, 0) + 1
        mixed.append(k ^ i)
    mixed.sort()
    return clock() - t0


class SpeedTimeline:
    """The host's speed through one sweep, from its ``(moment, duration)``
    speed probes.  :meth:`factor` scales a host time taken around a moment
    to the reference speed: ``REFERENCE_PROBE_S`` over the median of the
    probes within ``SPEED_WINDOW_S`` of it (at least the
    ``MIN_WINDOW_PROBES`` nearest)."""

    def __init__(self, probes: list[tuple[float, float]]):
        self.t = [t for t, _ in probes]
        self.dur = [d for _, d in probes]
        self.factors: dict[int, float] = {}

    def factor(self, t: float) -> float:
        ts = self.t
        i = min(bisect_left(ts, t), len(ts) - 1)
        f = self.factors.get(i)
        if f is None:
            lo = bisect_left(ts, ts[i] - SPEED_WINDOW_S)
            hi = bisect_right(ts, ts[i] + SPEED_WINDOW_S)
            if hi - lo < MIN_WINDOW_PROBES:
                lo = max(0, min(i - MIN_WINDOW_PROBES // 2, len(ts) - MIN_WINDOW_PROBES))
                hi = lo + MIN_WINDOW_PROBES
            f = self.factors[i] = REFERENCE_PROBE_S / statistics.median(self.dur[lo:hi])
        return f


def monotonic() -> float:
    """A clock every process on the machine shares, for times that span a
    process start."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def workload_of(spec: dict):
    return (TINY if spec.get("tiny") else WORKLOADS)[spec["workload"]]


# -- reference model ------------------------------------------------------

def fnv1a64(xs):
    """FNV-1a over the eight little-endian bytes of each uint64 in xs."""
    import numpy as np
    h = np.full(xs.shape, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for shift in range(0, 64, 8):
            h ^= (xs >> np.uint64(shift)) & np.uint64(0xFF)
            h *= prime
    return h


class Reference:
    """What the store must hold, derived from the workload definition alone:
    the sorted key array, and per cell the last value written per key.

    The keys are FNV-1a of 0..N-1 and the i-th insert is key N-1-i with value
    bytes [i*vs, (i+1)*vs) of the first of the seed's four child streams.
    """

    def __init__(self, num_pairs: int, value_size: int, seed: int):
        import numpy as np
        keys = fnv1a64(np.arange(num_pairs, dtype=np.uint64))
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order].tolist()
        self.first = ((num_pairs - 1 - order) * value_size).tolist()
        stream = np.random.SeedSequence(seed).spawn(4)[0]
        self.buf = np.random.default_rng(stream).integers(
            0, 256, size=num_pairs * value_size, dtype=np.uint8).tobytes()
        self.vs = value_size
        self.written: dict[int, bytes] = {}

    def new_cell(self) -> None:
        self.written = {}

    def check_scan(self, key: int, length: int, out) -> bool:
        keys, written, first, buf, vs = (self.keys, self.written, self.first,
                                         self.buf, self.vs)
        p = bisect_left(keys, key)
        if len(out) != min(length, len(keys) - p):
            return False
        for k, v in out:
            if k != keys[p]:
                return False
            want = written.get(p)
            if want is None:
                s = first[p]
                want = buf[s:s + vs]
            if v != want:
                return False
            p += 1
        return True

    def check_update(self, key: int, value: bytes, ok) -> bool:
        keys = self.keys
        p = bisect_left(keys, key)
        present = p < len(keys) and keys[p] == key
        if present:
            self.written[p] = value
        return ok is present


# -- tracing --------------------------------------------------------------

class PageTouchCounter:
    """Trace sink for ``Space.set_trace`` that only counts page touches."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def append(self, _touch) -> None:
        self.n += 1


class Tracer:
    """Per-name aggregates ``[calls, total_s, child_s]`` for every wrapped
    boundary, and ``(name, start, duration, depth)`` spans for the coarse
    ones.  A name's self time is its total minus its child spans' time."""

    def __init__(self):
        self.stack = [0.0]
        self.agg: dict[str, list] = {}
        self.spans: list[tuple[str, float, float, int]] = []

    def wrap(self, name: str, fn, span: bool = False):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += child
                if span:
                    spans.append((name, t0, dt, len(stack)))
        return traced

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        a = self.agg.get(name)
        return a[1] - a[2] if a else 0.0


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return {"btree": "containers.btree", "skiplist": "containers.skiplist"}.get(head, head)


@contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


# -- one measured sweep ---------------------------------------------------

class Sweep:
    """Everything one sweep records: phase times, per-query samples,
    per-cell fingerprints and failures."""

    def __init__(self, reference: Reference, tracer: Tracer | None):
        self.reference = reference
        self.tracer = tracer
        self.window_start: float | None = None
        self.excluded = 0.0
        self.phase = {"build": 0.0, "census": 0.0, "query_script": 0.0, "replay": 0.0}
        self.scan_s: list[float] = []
        self.update_s: list[float] = []
        self.query_failures = 0
        self.cells: list[dict] = []
        self.cur: dict = {}
        self.notes: list[str] = []
        self.sink = PageTouchCounter()
        self.replay_touch_calls = 0
        # (moment, duration) of every speed probe, and (midpoint, host
        # time) of every cell and phase: what SpeedTimeline scales
        self.speed: list[tuple[float, float]] = []
        self.spans: dict[str, list[tuple[float, float]]] = {
            "cell": [], "build": [], "census": [], "replay": []}
        self.scan_t: list[float] = []
        self.update_t: list[float] = []
        # the benchmark's own work inside a cell shows as its own span
        self.extra = tracer.wrap("bench.check", _call) if tracer else _call

    def note(self, msg: str) -> None:
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(msg)

    def probe_speed(self) -> None:
        """Time :func:`calibrate` outside every timed region.  The traced
        sweep is not normalised, so it is not probed."""
        if self.tracer is None:
            t0 = clock()
            dur = calibrate()
            self.speed.append((t0 + dur / 2, dur))
            self.excluded += clock() - t0

    # wrappers ------------------------------------------------------------

    def wrap_cell(self, run_benchmark):
        def cell(cfg):
            t0 = clock()
            if self.window_start is None:
                self.window_start = t0
            self.reference.new_cell()
            self.cur = {"label": f"{cfg.variant}/{cfg.l_percent:g}/{cfg.alpha:g}/"
                                 f"{cfg.update_ratio:g}",
                        "touches_before": self.sink.n}
            t_in = clock()
            self.excluded += t_in - t0
            before = self.excluded
            report = run_benchmark(cfg)
            t1 = clock()
            self.spans["cell"].append(((t_in + t1) / 2,
                                       (t1 - t_in) - (self.excluded - before)))
            self.end_cell(report)
            self.excluded += clock() - t1
            return report
        return cell

    def end_cell(self, report) -> None:
        c = self.cur
        links = report.links
        c["fingerprint"] = [
            c["label"],
            report.placement_stats.swap_ins, report.placement_stats.write_backs,
            report.measurement_stats.swap_ins, report.measurement_stats.write_backs,
            f"{links.purely_local_ratio:.6f}", f"{links.in_page_ratio:.6f}",
            f"{links.cross_page_ratio:.6f}", c["nodes"], c["pages"]]
        c["place_swap_ins"] = report.placement_stats.swap_ins
        c["measure_swap_ins"] = report.measurement_stats.swap_ins
        c["cross_page_ratio"] = links.cross_page_ratio
        self.cells.append(c)

    def wrap_build(self, build_placement):
        def build(cfg):
            self.probe_speed()
            t0 = clock()
            container, space = build_placement(cfg)
            t1 = clock()
            self.phase["build"] += t1 - t0
            self.spans["build"].append(((t0 + t1) / 2, t1 - t0))
            c = self.cur
            c["family"] = "skiplist" if cfg.variant.startswith("skip") else "btree"
            c["nodes"] = container.node_count
            c["pages"] = space.num_pages
            if self.tracer is not None:
                c["place_touches"] = self.sink.n - c["touches_before"]
                c["allocated"] = self.extra(_allocated_bytes, space)
                c["page_bytes"] = space.num_pages * space.cfg.page_size_bytes
            self.excluded += clock() - t1
            return container, space
        return build

    def wrap_census(self, link_composition):
        def census(container):
            self.probe_speed()
            t0 = clock()
            links = link_composition(container)
            t1 = clock()
            self.phase["census"] += t1 - t0
            self.spans["census"].append(((t0 + t1) / 2, t1 - t0))
            if self.tracer is not None:
                self.cur["links"] = self.extra(_count_links, container)
            self.excluded += clock() - t1
            return links
        return census

    def wrap_query_script(self, query_script):
        def script(cfg):
            t0 = clock()
            ops = query_script(cfg)
            self.phase["query_script"] += clock() - t0
            return ops
        return script

    def wrap_replay(self, run_queries):
        def replay(container, script):
            self.probe_speed()
            before = self.excluded
            t_start = self.tracer.calls("farmem.touch") if self.tracer else 0
            n0 = self.sink.n
            t0 = clock()
            run_queries(container, script)
            t1 = clock()
            replay_s = (t1 - t0) - (self.excluded - before)
            self.phase["replay"] += replay_s
            self.spans["replay"].append(((t0 + t1) / 2, replay_s))
            if self.tracer is not None:
                self.cur["measure_touches"] = self.sink.n - n0
                self.replay_touch_calls += self.tracer.calls("farmem.touch") - t_start
            self.cur["queries"] = len(script)
            self.excluded += clock() - t1
            self.probe_speed()
        return replay

    def wrap_scan(self, scan, check):
        samples, starts = self.scan_s, self.scan_t

        def timed_scan(container, key, length):
            t0 = clock()
            out = scan(container, key, length)
            t1 = clock()
            samples.append(t1 - t0)
            starts.append(t0)
            if not check(key, length, out):
                self.query_failures += 1
                self.note(f"{self.cur['label']}: wrong scan({key}, {length})")
            self.excluded += clock() - t1
            if len(samples) % PROBE_EVERY == 0:
                self.probe_speed()
            return out
        return timed_scan

    def wrap_update(self, update, check):
        samples, starts = self.update_s, self.update_t

        def timed_update(container, key, value):
            t0 = clock()
            ok = update(container, key, value)
            t1 = clock()
            samples.append(t1 - t0)
            starts.append(t0)
            if not check(key, value, ok):
                self.query_failures += 1
                self.note(f"{self.cur['label']}: wrong update({key})")
            self.excluded += clock() - t1
            if len(samples) % PROBE_EVERY == 0:
                self.probe_speed()
            return ok
        return timed_update


def _call(fn, *args):
    return fn(*args)


def _allocated_bytes(space) -> int:
    return sum(space.page_allocated_bytes(p) for p in range(space.num_pages))


def _count_links(container) -> int:
    return sum(1 for _ in container.structural_links())


def _targets(sweep: Sweep) -> list:
    """(owner, attribute, replacement) for every wrapped boundary."""
    from farloc import cli, collective, farmem, workload
    from farloc.containers import btree, skiplist
    BTree, SkipList, Space = btree.BTree, skiplist.SkipList, farmem.Space
    tr = sweep.tracer
    ref = sweep.reference

    def t(name, fn, span=False):
        return tr.wrap(name, fn, span) if tr is not None else fn

    check_scan = t("bench.check", ref.check_scan)
    check_update = t("bench.check", ref.check_update)
    out = [
        (cli, "run_benchmark", sweep.wrap_cell(t("cli.cell", cli.run_benchmark, True))),
        (workload, "build_placement",
         sweep.wrap_build(t("workload.build", workload.build_placement, True))),
        (workload, "link_composition",
         sweep.wrap_census(t("metrics.census", workload.link_composition, True))),
        (workload, "query_script",
         sweep.wrap_query_script(t("workload.query_script", workload.query_script, True))),
        (workload, "run_queries",
         sweep.wrap_replay(t("workload.run_queries", workload.run_queries, True))),
    ]
    for cls, fam in ((BTree, "btree"), (SkipList, "skiplist")):
        out += [
            (cls, "scan", sweep.wrap_scan(t(f"{fam}.scan", vars(cls)["scan"]), check_scan)),
            (cls, "update",
             sweep.wrap_update(t(f"{fam}.update", vars(cls)["update"]), check_update)),
        ]
    if tr is None:
        return out
    for cls, fam in ((BTree, "btree"), (SkipList, "skiplist")):
        out += [(cls, "insert", tr.wrap(f"{fam}.insert", vars(cls)["insert"])),
                (cls, "make_page_aware",
                 tr.wrap(f"{fam}.make_page_aware", vars(cls)["make_page_aware"], True))]
    space_init = vars(Space)["__init__"]
    sink = sweep.sink

    def init(self, cfg):
        space_init(self, cfg)
        self.set_trace(sink)

    CA, HA = collective.CollectiveAllocator, collective.HintAllocator
    out += [
        (Space, "__init__", init),
        (Space, "touch", tr.wrap("farmem.touch", vars(Space)["touch"])),
        (Space, "carve_purely_local",
         tr.wrap("farmem.carve", vars(Space)["carve_purely_local"])),
        (Space, "carve_in_page", tr.wrap("farmem.carve", vars(Space)["carve_in_page"])),
        (Space, "free", tr.wrap("farmem.free", vars(Space)["free"])),
        (CA, "sub_allocate", tr.wrap("collective.alloc", vars(CA)["sub_allocate"])),
        (CA, "deallocate", tr.wrap("collective.dealloc", vars(CA)["deallocate"])),
        (HA, "allocate", tr.wrap("collective.alloc", vars(HA)["allocate"])),
        (HA, "deallocate", tr.wrap("collective.dealloc", vars(HA)["deallocate"])),
        (cli, "run_sweep", tr.wrap("cli.run_sweep", cli.run_sweep, True)),
        (cli, "emit_swaps_csv", tr.wrap("cli.emit_csv", cli.emit_swaps_csv, True)),
        (cli, "emit_links_csv", tr.wrap("cli.emit_csv", cli.emit_links_csv, True)),
    ]
    return out


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))[1:]


def _check_outputs(sweep: Sweep, csv_path: Path, expected) -> set[int]:
    """Indices of cells whose CSV rows or recorded fingerprint disagree with
    what the sweep reported."""
    bad: set[int] = set()
    swaps = _read_csv(csv_path)
    links = _read_csv(csv_path.with_name(csv_path.stem + "_links.csv"))
    for i, c in enumerate(sweep.cells):
        fp = c["fingerprint"]
        v, lp, a, u = fp[0].split("/")
        want_swaps = [v, lp, a, u, str(fp[3]), str(fp[4])]
        row = swaps[i] if i < len(swaps) else []
        if [*row[:4], *row[6:8]] != want_swaps:
            bad.add(i)
            sweep.note(f"{fp[0]}: swaps CSV row {row} != reported {want_swaps}")
        row = links[i] if i < len(links) else []
        if row != [v, lp, *fp[5:8]]:
            bad.add(i)
            sweep.note(f"{fp[0]}: links CSV row {row} disagrees with the report")
        if expected is not None and (i >= len(expected) or expected[i] != fp):
            bad.add(i)
            want = expected[i] if i < len(expected) else None
            sweep.note(f"{fp[0]}: fingerprint {fp} != recorded {want}")
    if len(swaps) != len(sweep.cells) or len(links) != len(sweep.cells):
        sweep.note(f"CSV rows {len(swaps)}/{len(links)} for {len(sweep.cells)} cells")
    return bad


def measure_sweep(spec: dict, reference: Reference, tracer: Tracer | None = None) -> dict:
    """Run the workload's sweep once in this process and return its record."""
    from farloc import cli
    wl = workload_of(spec)
    csv_path = Path(spec["csv"])
    argv = wl.farloc_args(spec["seed"], str(csv_path))
    sweep = Sweep(reference, tracer)
    status = None
    with patched(_targets(sweep)):
        try:
            status = cli.main(argv)
        except Exception:  # a crashing cell ends the sweep; it is counted, not fatal
            sweep.note("sweep raised:\n" + traceback.format_exc(limit=8))
    t_end = clock()
    if sweep.window_start is None:
        sweep.window_start = t_end
    if status not in (0, None):
        sweep.note(f"farloc exited with status {status}")
    bad = set(range(len(sweep.cells), wl.cells))
    if status == 0:
        bad |= _check_outputs(sweep, csv_path, spec.get("expected"))
    queries = len(sweep.scan_s) + len(sweep.update_s)
    return {
        "sweep": sweep,
        "sweep_s": t_end - sweep.window_start - sweep.excluded,
        "build_s": sweep.phase["build"],
        "census_s": sweep.phase["census"],
        "query_script_s": sweep.phase["query_script"],
        "replay_s": sweep.phase["replay"],
        "queries": queries,
        "attempted": queries + wl.cells,
        "failed": sweep.query_failures + len(bad),
        "fingerprint": [c["fingerprint"] for c in sweep.cells],
    }


# -- what a child process reports -----------------------------------------

def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def query_wrap_overhead_s(n: int = 200_000) -> float:
    """Host time one per-query wrapper adds to a call, outside its check."""
    def noop(_c, _k, _a):
        return None
    sweep = Sweep(None, None)
    wrapped = sweep.wrap_scan(noop, lambda *_: True)
    best = math.inf
    for _ in range(3):
        sweep.scan_s.clear()
        t0 = clock()
        for _ in range(n):
            noop(None, 0, 0)
        direct = clock() - t0
        sweep.excluded = 0.0
        t0 = clock()
        for _ in range(n):
            wrapped(None, 0, 0)
        best = min(best, (clock() - t0 - sweep.excluded - direct) / n)
    return max(best, 0.0)


def _reference(spec: dict) -> Reference:
    from farloc.workload import BenchConfig
    wl = workload_of(spec)
    cfg = BenchConfig(total_data_bytes=wl.data_bytes, seed=spec["seed"])
    return Reference(cfg.num_pairs, cfg.value_size_bytes, spec["seed"])


def scale_sweep(sweep: Sweep, sweep_s: float) -> dict:
    """One untraced sweep's times at the reference speed: every cell, phase
    and query scaled by the host's speed around it (:class:`SpeedTimeline`).
    The little time outside the cells (between them, and the CSV output)
    is scaled by the sweep's median probe.  A sweep that failed before its
    first probe is probed once now."""
    probes = sweep.speed or [(clock(), calibrate())]
    f = SpeedTimeline(probes).factor
    total = {k: sum(dt * f(t) for t, dt in v) for k, v in sweep.spans.items()}
    outside = sweep_s - sum(dt for _, dt in sweep.spans["cell"])
    return {
        "sweep_s": total["cell"] + outside * REFERENCE_PROBE_S
        / statistics.median(d for _, d in probes),
        "build_s": total["build"], "census_s": total["census"],
        "replay_s": total["replay"],
        "scan": [dt * f(t) for t, dt in zip(sweep.scan_t, sweep.scan_s)],
        "update": [dt * f(t) for t, dt in zip(sweep.update_t, sweep.update_s)],
    }


def at_reference_speed(scaled: list[dict]) -> dict:
    """The run's times at the reference speed, from every sweep's
    :func:`scale_sweep`: a phase time is the median over the sweeps.  Every
    sweep runs the same queries, so query i of one sweep is query i of every
    other; a query's time is the median of its scaled times, and the
    percentiles are over those.  A pause that hits a query in one sweep only
    (an interrupt, a garbage collection) then does not reach the p99."""
    out = {key: statistics.median(s[key] for s in scaled)
           for key in ("sweep_s", "build_s", "census_s", "replay_s")}
    for kind in ("scan", "update"):
        per_query = zip(*(s[kind] for s in scaled))
        out[kind] = _pcts(sorted(map(statistics.median, per_query)))
    return out


def untraced_child(spec: dict) -> dict:
    """Repeat the sweep until the budget is spent, at least ``min_reps``
    times (default 1), and scale its times to the reference speed
    (:func:`at_reference_speed`)."""
    reference = _reference(spec)
    reps, scaled, speed = [], [], []
    attempted = failed = 0
    notes: list[str] = []
    fingerprints = []
    peak_rss_mb = None
    t_start = clock()
    while True:
        gc.collect()
        r = measure_sweep(spec, reference)
        if peak_rss_mb is None:
            # later sweeps add only their samples; the peak is the first sweep's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sweep = r.pop("sweep")
        scaled.append(scale_sweep(sweep, r["sweep_s"]))
        speed += [d for _, d in sweep.speed]
        attempted += r["attempted"]
        failed += r["failed"]
        notes += sweep.notes[:MAX_FAILURE_NOTES - len(notes)]
        fingerprints.append(r.pop("fingerprint"))
        reps.append(r)
        elapsed = clock() - t_start
        if (len(reps) >= spec.get("min_reps", 1)
                and elapsed * (len(reps) + 1) / len(reps) > spec["budget_s"]):
            break
    shapes = {(len(s["scan"]), len(s["update"])) for s in scaled}
    if any(fp != fingerprints[0] for fp in fingerprints) or len(shapes) > 1:
        failed += 1
        attempted += 1
        notes.append("fingerprint or query count differs between repetitions "
                     "of the sweep")
    queries = statistics.median(r["queries"] for r in reps)
    overhead = query_wrap_overhead_s()
    return {
        "reps": reps,
        "scaled": at_reference_speed(scaled),
        "speed_probes": len(speed), "median_probe_s": statistics.median(speed) if speed else None,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "notes": notes,
        "fingerprint": fingerprints[0],
        "query_wrap_overhead_ns": overhead * 1e9,
        "query_wrap_share": overhead * queries / statistics.fmean(
            r["replay_s"] for r in reps),
        "numpy": __import__("numpy").__version__,
    }


def _pcts(sorted_s: list[float]) -> dict:
    n = len(sorted_s)
    out = {"n": n, "p50_us": percentile(sorted_s, 0.50) * 1e6 if n else None}
    # a p99 needs at least ten samples beyond it
    out["p99_us"] = percentile(sorted_s, 0.99) * 1e6 if n >= 1000 else None
    return out


def traced_child(spec: dict) -> dict:
    """One traced sweep, then the layer microbenchmarks."""
    import micro
    reference = _reference(spec)
    tracer = Tracer()
    gc.collect()
    r = measure_sweep(spec, reference, tracer)
    sweep = r.pop("sweep")
    prefix = Path(spec["trace_prefix"])
    write_trace_events(tracer, prefix.with_name(prefix.name + ".trace.json"))
    table = self_time_table(tracer, r["sweep_s"] + sweep.excluded)
    prefix.with_name(prefix.name + "-self-times.md").write_text(
        f"# Self time by layer: {spec['workload']}, seed {spec['seed']}, traced\n\n"
        + table)
    metrics = layer_metrics(tracer, sweep, r)
    metrics.update(micro.run_all(spec["seed"], tiny=bool(spec.get("tiny"))))
    return {"metrics": metrics, "sweep_s": r["sweep_s"],
            "attempted": r["attempted"], "failed": r["failed"],
            "notes": sweep.notes, "fingerprint": r["fingerprint"]}


def layer_metrics(tr: Tracer, sweep: Sweep, r: dict) -> dict:
    cells = sweep.cells
    total = lambda key: sum(c.get(key, 0) for c in cells)  # noqa: E731
    place_touches, measure_touches = total("place_touches"), total("measure_touches")
    place_si, measure_si = total("place_swap_ins"), total("measure_swap_ins")
    links = total("links")
    touch_calls = tr.calls("farmem.touch")
    n_cells = len(cells)
    builds = tr.calls("workload.build")
    wall = r["sweep_s"] + sweep.excluded
    accounted = sum(a[1] - a[2] for a in tr.agg.values())
    m = {
        "farmem.touch.calls": touch_calls,
        "farmem.touch.self_s": tr.self_s("farmem.touch"),
        "farmem.touch.ns_per_call": tr.self_s("farmem.touch") / max(touch_calls, 1) * 1e9,
        "farmem.carve.calls": tr.calls("farmem.carve"),
        "farmem.carve.self_s": tr.self_s("farmem.carve"),
        "farmem.free.calls": tr.calls("farmem.free"),
        "farmem.free.self_s": tr.self_s("farmem.free"),
        "farmem.pages": total("pages"),
        "farmem.place.page_touches": place_touches,
        "farmem.place.hits": place_touches - place_si,
        "farmem.place.swap_ins": place_si,
        "farmem.place.write_backs": sum(c["fingerprint"][2] for c in cells),
        "farmem.measure.page_touches": measure_touches,
        "farmem.measure.hits": measure_touches - measure_si,
        "farmem.measure.swap_ins": measure_si,
        "farmem.measure.write_backs": sum(c["fingerprint"][4] for c in cells),
        "farmem.measure.hit_ratio": (measure_touches - measure_si) / max(measure_touches, 1),
        "collective.alloc.calls": tr.calls("collective.alloc"),
        "collective.alloc.self_s": tr.self_s("collective.alloc"),
        "collective.dealloc.calls": tr.calls("collective.dealloc"),
        "collective.dealloc.self_s": tr.self_s("collective.dealloc"),
        "collective.page_fill": total("allocated") / max(total("page_bytes"), 1),
        "containers.insert.calls": tr.calls("btree.insert") + tr.calls("skiplist.insert"),
        "containers.insert.self_s": tr.self_s("btree.insert") + tr.self_s("skiplist.insert"),
        "containers.make_page_aware.s": (tr.total("btree.make_page_aware")
                                         + tr.total("skiplist.make_page_aware")),
        "containers.scan.self_s": tr.self_s("btree.scan") + tr.self_s("skiplist.scan"),
        "containers.update.self_s": tr.self_s("btree.update") + tr.self_s("skiplist.update"),
        "containers.touches_per_query": sweep.replay_touch_calls / max(r["queries"], 1),
        "containers.nodes": total("nodes"),
        "btree.nodes": sum(c["nodes"] for c in cells if c["family"] == "btree"),
        "skiplist.nodes": sum(c["nodes"] for c in cells if c["family"] == "skiplist"),
        "metrics.census.self_s": tr.self_s("metrics.census"),
        "metrics.links": links,
        "metrics.cross_page_ratio": (sum(c["cross_page_ratio"] * c.get("links", 0)
                                         for c in cells) / max(links, 1)),
        "workload.build.s": r["build_s"],
        "workload.query_script.s": r["query_script_s"],
        "workload.run_queries.s": r["replay_s"],
        "cli.cells": n_cells,
        "cli.builds": builds,
        "cli.builds_per_cell": builds / max(n_cells, 1),
        "cli.emit_csv.s": tr.total("cli.emit_csv"),
        "bench.check.self_s": tr.self_s("bench.check"),
        "trace.accounted_share": accounted / wall if wall > 0 else 0.0,
        "fail_ratio": r["failed"] / r["attempted"],
    }
    return m


def self_time_table(tr: Tracer, wall: float) -> str:
    rows = sorted(((name, a) for name, a in tr.agg.items() if a[0]),
                  key=lambda kv: -(kv[1][1] - kv[1][2]))
    by_layer: dict[str, float] = {}
    for name, (_calls, tot, child) in rows:
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + tot - child
    lines = [f"Traced sweep wall time: {wall:.3f} s (checks included).", "",
             "| layer | self s | share |", "|---|---:|---:|"]
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {layer} | {s:.3f} | {s / wall:.1%} |")
    accounted = sum(by_layer.values())
    lines += [f"| (all layers) | {accounted:.3f} | {accounted / wall:.1%} |", "",
              "| span | calls | total s | self s |", "|---|---:|---:|---:|"]
    for name, (calls, tot, child) in rows:
        lines.append(f"| {name} | {calls} | {tot:.3f} | {tot - child:.3f} |")
    return "\n".join(lines) + "\n"


def write_trace_events(tr: Tracer, path: Path) -> None:
    """Spans as trace-event JSON (Perfetto, chrome://tracing); the hot
    boundaries, kept only as aggregates, go under ``otherData``."""
    t0 = min((start for _, start, _, _ in tr.spans), default=0.0)
    events = [{"name": name, "cat": layer_of(name), "ph": "X", "pid": 1, "tid": 1,
               "ts": round((start - t0) * 1e6, 3), "dur": round(dur * 1e6, 3),
               "args": {"depth": depth}}
              for name, start, dur, depth in sorted(tr.spans, key=lambda s: (s[1], s[3]))]
    aggregates = {name: {"calls": c, "total_s": tot, "self_s": tot - ch}
                  for name, (c, tot, ch) in tr.agg.items()}
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                "otherData": {"aggregates": aggregates}}))


# -- child entry points ---------------------------------------------------

class _FirstCell(Exception):
    pass


def probe_child(spec: dict) -> float:
    """Run the program's set-up exactly as a sweep would, and return the
    moment the first cell would start."""
    from farloc import cli

    def first_cell(_cfg):
        raise _FirstCell(monotonic())
    with patched([(cli, "run_benchmark", first_cell)]):
        try:
            cli.main(workload_of(spec).farloc_args(spec["seed"], spec["csv"]))
        except _FirstCell as stop:
            return stop.args[0]
    raise RuntimeError("the sweep finished without starting a cell")


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "probe":
        print(json.dumps({"first_cell": probe_child(spec)}))
        return 0
    result = traced_child(spec) if spec.get("trace") else untraced_child(spec)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
