"""Sweep driver: argument handling, CSV output, reproducibility.

End-to-end runs use a 160 kB data size (1000 pairs) so a full sweep cell
finishes in well under a second.
"""
import csv
import errno
import re

import pytest

from farloc import cli, workload
from farloc.cli import (LINKS_HEADER, SWAPS_HEADER, SweepSpec, main,
                        parse_args, run_sweep)
from farloc.workload import BenchConfig

TINY = ["--data-bytes", "160000", "--queries", "200"]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# -- argument parsing ----------------------------------------------------

def test_defaults():
    spec, out, report = parse_args([])
    assert spec.variants == ("plain",)
    assert spec.l_percents == (50.0,)
    assert spec.alphas == (0.8,)
    assert spec.update_ratios == (0.05,)
    assert spec.base == BenchConfig()
    assert (out, report) == ("-", "swaps")


def test_repeatable_axes_multiply_cells():
    spec, _, _ = parse_args(["--variant", "plain", "--variant", "local",
                             "--l-percent", "5", "--l-percent", "50",
                             "--alpha", "0.8", "--alpha", "1.3"])
    cells = spec.cells()
    assert len(cells) == 8
    # variant-major order, then L, then alpha
    assert [(c.variant, c.l_percent, c.alpha) for c in cells[:4]] == [
        ("plain", 5.0, 0.8), ("plain", 5.0, 1.3),
        ("plain", 50.0, 0.8), ("plain", 50.0, 1.3)]
    assert cells[4].variant == "local"


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as e:
        parse_args(["--alpha", "x"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        parse_args(["--no-such-flag"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        parse_args(["--variant", "btree"])   # not a variant name
    assert e.value.code == 2


def test_numeric_flags_reach_the_config():
    spec, _, _ = parse_args(["--data-bytes", "320000", "--value-size", "64",
                             "--page-size", "8192", "--queries", "7",
                             "--seed", "3"])
    b = spec.base
    assert (b.total_data_bytes, b.value_size_bytes, b.page_size_bytes,
            b.num_queries, b.seed) == (320000, 64, 8192, 7, 3)


# -- sweep execution -----------------------------------------------------

def test_run_sweep_returns_reports_in_sweep_order():
    spec, _, _ = parse_args(TINY + ["--variant", "plain",
                                    "--l-percent", "5", "--l-percent", "50"])
    reports = run_sweep(spec)
    assert [r.config.l_percent for r in reports] == [5.0, 50.0]
    assert reports[0].measurement_stats.swap_ins >= \
        reports[1].measurement_stats.swap_ins


# -- end-to-end output ---------------------------------------------------

def test_swaps_csv_shape(tmp_path):
    out = tmp_path / "swaps.csv"
    rc = main(TINY + ["--variant", "plain", "--variant", "local",
                      "--l-percent", "5", "--l-percent", "50",
                      "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == SWAPS_HEADER
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["plain", "plain", "local", "local"]
    assert [r[1] for r in rows[1:]] == ["5", "50", "5", "50"]  # "g" format
    for r in rows[1:]:
        assert r[2] == "0.8" and r[3] == "0.05"
        assert r[4] == "4096" and r[5] == "200"
        assert int(r[6]) >= 0 and int(r[7]) >= 0


def test_links_csv_shape(tmp_path):
    out = tmp_path / "links.csv"
    rc = main(TINY + ["--variant", "plain", "--variant", "local",
                      "--report", "links", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == LINKS_HEADER
    assert len(rows) == 3
    six_dp = re.compile(r"^\d\.\d{6}$")
    for r in rows[1:]:
        assert all(six_dp.match(x) for x in r[2:])
        assert sum(float(x) for x in r[2:]) == pytest.approx(1.0, abs=1e-6)
    plain_row = rows[1]
    assert plain_row[0] == "plain" and plain_row[2] == "0.000000"
    local_row = rows[2]
    assert float(local_row[2]) > 0.0


def test_swept_values_keep_the_digits_that_tell_them_apart(tmp_path):
    """A value "g" would round to six digits is written in full; one that
    "g" writes exactly keeps its "g" text."""
    out = tmp_path / "sweep.csv"
    rc = main(TINY + ["--l-percent", "12.3456789",
                      "--alpha", "0.8", "--alpha", "0.80000001",
                      "--update-ratio", "0.5", "--update-ratio", "0.5000001",
                      "--report", "both", "--out", str(out)])
    assert rc == 0
    assert [r[1:4] for r in read_csv(out)[1:]] == [
        ["12.3456789", a, u] for a in ("0.8", "0.80000001")
        for u in ("0.5", "0.5000001")]
    assert {r[1] for r in read_csv(tmp_path / "sweep_links.csv")[1:]} == \
        {"12.3456789"}
    assert [cli._num(x) for x in (50.0, 1e-05, 1e+20, 0.05)] == \
        ["50", "1e-05", "1e+20", "0.05"]


def test_report_both_writes_a_second_file(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(TINY + ["--report", "both", "--out", str(out)])
    assert rc == 0
    assert read_csv(out)[0] == SWAPS_HEADER
    links = tmp_path / "sweep_links.csv"
    assert links.exists()
    assert read_csv(links)[0] == LINKS_HEADER


def test_stdout_output(capsys):
    rc = main(TINY + ["--report", "both"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWAPS_HEADER)
    assert lines[2] == ",".join(LINKS_HEADER)
    assert len(lines) == 4


def test_reruns_are_byte_identical(tmp_path):
    args = TINY + ["--variant", "local", "--l-percent", "10",
                   "--report", "both"]
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(args + ["--out", str(tmp_path / d / "r.csv")]) == 0
    for name in ("r.csv", "r_links.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_config_errors_exit_1(tmp_path, capsys, monkeypatch):
    def no_build(cfg):
        raise AssertionError("a cell was built before the sweep was validated")

    monkeypatch.setattr(cli, "run_benchmark", no_build)
    for bad, threads in [
            (["--value-size", "0"], "1"),
            (["--l-percent", "nan"], "1"),
            (["--l-percent", "inf"], "1"),
            (["--alpha", "nan"], "1"),
            (["--alpha", "inf"], "1"),
            (["--update-ratio", "nan"], "1"),
            (["--update-ratio", "inf"], "1"),
            # only the last cell is bad: it must still fail before any build
            (["--alpha", "0.8", "--alpha", "-1"], "1"),
            (["--page-size", "300"], "1"),
            (["--page-size", "128"], "1"),
            (["--variant", "plain", "--page-size", "512"], "1"),
            (["--variant", "skip-plain", "--value-size", "300",
              "--page-size", "256"], "1"),
            # a level-1 tower fits, the tallest drawable one does not
            (["--variant", "skip-plain", "--page-size", "256"], "1"),
            # the skip list's nodes fit, the B-tree's do not
            (["--variant", "skip-plain", "--variant", "plain",
              "--page-size", "512"], "1"),
            (["--seed", "-1"], "1"),
            # 4 pairs fill one B-tree node, which has no links to census
            (["--data-bytes", "640"], "1"),
            (["--variant", "skip-plain", "--variant", "plain",
              "--data-bytes", "640"], "1"),
            # plain fits, local's purely-local half does not
            (["--variant", "plain", "--variant", "local",
              "--l-percent", "1e15"], "1"),
            (["--l-percent", "1e308"], "1"),
            # more values or queries than one numpy array can hold
            (["--data-bytes", "65536", "--queries", str(10**20)], "1"),
            (["--data-bytes", str(10**20)], "1"),
            ([], "abc"),
            ([], "1.5"),
            ([], "0"),
            ([], "-2")]:
        monkeypatch.setenv("FARLOC_THREADS", threads)
        rc = main(TINY + bad + ["--out", str(tmp_path / "x.csv")])
        assert rc == 1, bad
        assert capsys.readouterr().err.startswith("error:"), bad
        assert not (tmp_path / "x.csv").exists()


def test_bad_output_paths_fail_before_any_build(tmp_path, capsys, monkeypatch):
    def no_build(cfg):
        raise AssertionError("a cell was built before the output path was checked")

    monkeypatch.setattr(cli, "run_benchmark", no_build)
    (tmp_path / "r_links.csv").mkdir()
    # symlinks into a directory that does not exist: writing would follow them
    (tmp_path / "dangling.csv").symlink_to(tmp_path / "missing" / "x.csv")
    (tmp_path / "s_links.csv").symlink_to(tmp_path / "missing" / "y.csv")
    for out, report in [(tmp_path / "missing" / "r.csv", "swaps"),
                        (tmp_path / "missing" / "r.csv", "links"),
                        (tmp_path, "swaps"),
                        (tmp_path / "dangling.csv", "swaps"),
                        # the swaps path is fine, its links companion is not
                        (tmp_path / "r.csv", "both"),
                        (tmp_path / "s.csv", "both")]:
        rc = main(TINY + ["--report", report, "--out", str(out)])
        assert rc == 1, (out, report)
        assert capsys.readouterr().err.startswith("error:"), (out, report)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.csv", "r_links.csv", "s_links.csv"]


def test_a_failed_write_ends_in_error_exit_1(tmp_path, capsys, monkeypatch):
    def full_disk(reports, out):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "emit_links_csv", full_disk)
    rc = main(TINY + ["--report", "both", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write the output")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 960. GiB for an array"),
     "error: Unable to allocate 960. GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_an_allocation_that_fails_ends_in_error_exit_1(capsys, monkeypatch,
                                                        exc, message):
    def no_memory(cfg, trace=None):
        raise exc

    monkeypatch.setattr(workload, "_build", no_memory)
    assert main(TINY) == 1
    assert capsys.readouterr().err == message


def test_thread_fanout_matches_serial(tmp_path, monkeypatch):
    # two sweeps: one cell per placement, then four cells per placement
    shared = ["--variant", "local", "--alpha", "0.8", "--alpha", "1.3",
              "--update-ratio", "0.05", "--update-ratio", "0.5"]
    for name, extra in (("own", []), ("shared", shared)):
        args = TINY + ["--l-percent", "5", "--l-percent", "50"] + extra
        monkeypatch.setenv("FARLOC_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / f"{name}_serial.csv")]) == 0
        monkeypatch.setenv("FARLOC_THREADS", "2")
        assert main(args + ["--out", str(tmp_path / f"{name}_pool.csv")]) == 0
        assert (tmp_path / f"{name}_serial.csv").read_bytes() == \
            (tmp_path / f"{name}_pool.csv").read_bytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""
    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, cells):
        return map(fn, cells)


def pool_case(threads, n_groups, cpus, pool, per_group=1, affinity=None):
    label = n_groups if per_group == 1 else f"{n_groups}x{per_group}"
    cpu_label = cpus if affinity is None else f"{cpus}aff{affinity}"
    return pytest.param(threads, n_groups, per_group, cpus, affinity, pool,
                        id=f"{threads}-{label}-{cpu_label}-{pool}")


def set_cpus(monkeypatch, cpus, affinity=None):
    """``os.cpu_count`` reads ``cpus``.  With ``affinity``, the process may
    run on that many CPUs; without, the platform has no affinity call."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)


@pytest.mark.parametrize("threads, n_groups, per_group, cpus, affinity, pool", [
    pool_case(64, 3, 4, 3),          # never more workers than groups
    pool_case(64, 10, 4, 4),         # ... or CPUs
    pool_case(2, 10, 4, 2),
    pool_case(1, 10, 4, None),       # one worker runs in process
    pool_case(8, 1, 4, None),
    pool_case(8, 10, None, None),    # unknown CPU count: one
    # cells that share a placement share a worker
    pool_case(64, 1, 4, None, per_group=6),
    pool_case(64, 3, 8, 3, per_group=4),
    pool_case(64, 10, 4, 4, per_group=2),
    pool_case(2, 3, 4, 2, per_group=4),
    # the CPUs this process may run on, not the machine's
    pool_case(2, 10, 2, None, affinity=1),
    pool_case(64, 10, 8, 3, affinity=3),
    pool_case(64, 10, None, 2, affinity=2),
])
def test_process_pool_is_bounded(monkeypatch, threads, n_groups, per_group, cpus,
                                 affinity, pool):
    RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "run_benchmark", lambda cfg: cfg)
    set_cpus(monkeypatch, cpus, affinity)
    # L changes local's placement, alpha does not
    spec, _, _ = parse_args(
        ["--variant", "local"]
        + [x for i in range(n_groups) for x in ("--l-percent", str(i + 1))]
        + [x for i in range(per_group) for x in ("--alpha", str(i + 1))])
    monkeypatch.setenv("FARLOC_THREADS", str(threads))
    assert run_sweep(spec) == spec.cells()
    assert RecordingPool.sizes == ([] if pool is None else [pool])


def test_pool_rows_follow_sweep_order_when_groups_interleave(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "run_benchmark", lambda cfg: cfg)
    set_cpus(monkeypatch, 4)
    # a repeated L puts one placement's cells on both sides of another's
    spec, _, _ = parse_args(["--variant", "local",
                             "--l-percent", "1", "--l-percent", "2",
                             "--l-percent", "1", "--alpha", "1", "--alpha", "2"])
    monkeypatch.setenv("FARLOC_THREADS", "4")
    assert run_sweep(spec) == spec.cells()
    assert RecordingPool.sizes == [2]
