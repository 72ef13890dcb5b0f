"""The line-range parse of `forking.loadtxt` against one serial `np.loadtxt`,
and `forking.strided_map`, the one code path that forks.

Ranges are made tiny here, so files of a few kilobytes split into four
ranges, and every edge of the format falls at some range boundary.
"""

import gzip
import os
import pickle
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from conftest import centered_bm_sample

from flmgof import forking, rptest, run_study, simlab
from flmgof import test_flm as flm_gof
from flmgof.cli import EXIT_USAGE, main, read_functional_sample

RANGE_SIZES = (64, 100, 157, 333)


def serial(path):
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2, dtype=float)


def curves(rows=40, cols=7, seed=0):
    return np.random.default_rng(seed).standard_normal((rows, cols)).cumsum(axis=1)


def lines_of(data):
    return [",".join(f"{x:.17g}" for x in row) for row in data]


@pytest.fixture
def split(monkeypatch):
    """Split files into ranges of RANGE_SIZES[0] bytes, four at most; record
    whether each split parse succeeded, with no whole-file np.loadtxt after
    it, and the pid of every fork."""
    monkeypatch.setattr(forking, "MIN_RANGE_BYTES", RANGE_SIZES[0])
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 4)
    record = {"parsed": [], "pids": []}
    loadtxt, np_loadtxt, fork = forking.loadtxt, np.loadtxt, os.fork
    wholes = []  # np.loadtxt calls on a path, not on one range's stream

    def counting_np_loadtxt(source, *args, **kwargs):
        if isinstance(source, (str, os.PathLike)):
            wholes.append(source)
        return np_loadtxt(source, *args, **kwargs)

    def recording_loadtxt(path, **kwargs):
        splits = len(forking._line_ranges(path)) > 2
        fallbacks = len(wholes)
        try:
            return loadtxt(path, **kwargs)
        finally:
            if splits:
                record["parsed"].append(len(wholes) == fallbacks)

    def recording_fork():
        pid = fork()
        record["pids"].append(pid)
        return pid

    monkeypatch.setattr(np, "loadtxt", counting_np_loadtxt)
    monkeypatch.setattr(forking, "loadtxt", recording_loadtxt)
    monkeypatch.setattr(os, "fork", recording_fork)
    return record


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def assert_same_as_serial(path, split, monkeypatch):
    expected = serial(path)
    for size in RANGE_SIZES:
        monkeypatch.setattr(forking, "MIN_RANGE_BYTES", size)
        assert len(forking._line_ranges(path)) > 2
        got = forking.loadtxt(path, delimiter=",", comments="#")
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
    assert split["parsed"] == [True] * len(RANGE_SIZES)
    assert_reaped(split["pids"])


def test_plain_file_splits_into_ranges_of_whole_lines(tmp_path, split, monkeypatch):
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines_of(curves())) + "\n")
    bounds = forking._line_ranges(path)
    assert len(bounds) == 5 and bounds[-1] == path.stat().st_size
    text = path.read_bytes()
    assert all(text[start - 1 : start] == b"\n" for start in bounds[1:-1])
    assert_same_as_serial(path, split, monkeypatch)


def test_crlf_lines(tmp_path, split, monkeypatch):
    path = tmp_path / "crlf.csv"
    path.write_bytes(("\r\n".join(lines_of(curves())) + "\r\n").encode())
    assert_same_as_serial(path, split, monkeypatch)


def test_no_final_newline(tmp_path, split, monkeypatch):
    path = tmp_path / "open_end.csv"
    path.write_text("\n".join(lines_of(curves())))
    assert_same_as_serial(path, split, monkeypatch)


def test_comment_and_blank_lines_at_range_boundaries(tmp_path, split, monkeypatch):
    lines = []
    for index, line in enumerate(lines_of(curves(rows=60))):
        lines += [f"# before row {index}", "", line]
    path = tmp_path / "commented.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_same_as_serial(path, split, monkeypatch)


def test_inline_comments(tmp_path, split, monkeypatch):
    lines = [f"{line} # row {i}, with, commas" for i, line in enumerate(lines_of(curves()))]
    path = tmp_path / "inline.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_same_as_serial(path, split, monkeypatch)


def test_header_grid_and_grid_file(tmp_path, split, monkeypatch):
    data = curves(cols=9)
    points = np.linspace(0.0, 1.0, 9) ** 2
    header = tmp_path / "header.csv"
    header.write_text("\n".join(lines_of(np.vstack([points, data]))) + "\n")
    body = tmp_path / "body.csv"
    body.write_text("\n".join(lines_of(data)) + "\n")
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text("\n".join(f"{p:.17g}" for p in points) + "\n")
    for kwargs, path in (({"header_grid": True}, header), ({"grid_file": grid_file}, body)):
        got = read_functional_sample(path, **kwargs)
        monkeypatch.setattr(forking, "MIN_RANGE_BYTES", 2**40)
        expected = read_functional_sample(path, **kwargs)
        monkeypatch.setattr(forking, "MIN_RANGE_BYTES", RANGE_SIZES[0])
        assert np.array_equal(got.data, expected.data)
        assert np.array_equal(got.grid.points, expected.grid.points)
        assert np.array_equal(got.grid.weights, expected.grid.weights)
    assert split["parsed"] == [True, True]
    assert_reaped(split["pids"])


@pytest.mark.parametrize("where", ["first", "last"])
def test_range_of_comments_alone_is_dropped_quietly(tmp_path, split, capfd, where):
    comments = [f"# note {i}: nothing but words here" for i in range(40)]
    data = lines_of(curves(rows=12))
    lines = comments + data if where == "first" else data + comments
    path = tmp_path / "notes.csv"
    path.write_text("\n".join(lines) + "\n")
    # one range holds comments alone; np.loadtxt warns "no data" on it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = forking.loadtxt(path, delimiter=",", comments="#")
    expected = serial(path)
    assert got.shape == expected.shape == (12, 7)
    assert np.array_equal(got, expected)
    assert split["parsed"] == [True]
    assert not caught
    assert capfd.readouterr().err == ""
    assert_reaped(split["pids"])


def test_comments_alone_warn_as_serial(tmp_path, split):
    path = tmp_path / "empty.csv"
    path.write_text("\n".join(f"# only comment {i}" for i in range(40)) + "\n")
    with pytest.warns(UserWarning, match="no data") as caught:
        got = forking.loadtxt(path, delimiter=",", comments="#")
    with pytest.warns(UserWarning, match="no data") as expected_warnings:
        expected = serial(path)
    assert got.shape == expected.shape
    assert [str(w.message) for w in caught] == [str(w.message) for w in expected_warnings]
    assert split["parsed"] == [False]


def test_bad_row_fails_as_serial(tmp_path, split, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    response = tmp_path / "y.txt"
    np.savetxt(response, rng.standard_normal(40))
    lines = lines_of(curves())
    cases = (("ragged", "1.0,2.0,3.0", 39), ("word", "1.0,oops,3,4,5,6,7", 39),
             ("ragged_first", "1.0,2.0,3.0", 2))
    for name, bad, index in cases:
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines[:index] + [bad] + lines[index + 1 :]) + "\n")
        argv = ["test", "--data", str(path), "--response", str(response), "--B", "20"]
        code = main(argv)
        captured = capsys.readouterr()
        monkeypatch.setattr(forking, "MIN_RANGE_BYTES", 2**40)
        serial_code = main(argv)
        serial_captured = capsys.readouterr()
        monkeypatch.setattr(forking, "MIN_RANGE_BYTES", RANGE_SIZES[0])
        assert code == serial_code == EXIT_USAGE
        assert captured.err == serial_captured.err
        assert "cannot read data file" in captured.err
        assert captured.out == serial_captured.out == ""
    assert split["parsed"] == [False, False, False]
    assert_reaped(split["pids"])


@pytest.mark.parametrize("index", [2, 39])  # a bad row in the first or the last range
def test_a_failed_range_is_parsed_once(tmp_path, split, capsys, monkeypatch, index):
    # every range is parsed at most once, in whichever process, before the
    # one serial parse of the whole file gives the error
    calls = tmp_path / "calls.txt"
    parse_range = forking._parse_range

    def counted(path, kwargs, span):
        with open(calls, "a") as log:
            log.write(f"{span[0]}\n")
        return parse_range(path, kwargs, span)

    monkeypatch.setattr(forking, "_parse_range", counted)
    response = tmp_path / "y.txt"
    np.savetxt(response, np.zeros(40))
    lines = lines_of(curves())
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines[:index] + ["1.0,2.0"] + lines[index + 1 :]) + "\n")
    argv = ["test", "--data", str(path), "--response", str(response), "--B", "20"]
    assert main(argv) == EXIT_USAGE
    starts = calls.read_text().split()
    assert starts and len(starts) == len(set(starts))
    assert len(forking._line_ranges(path)) - 1 == 4
    assert split["parsed"] == [False]
    assert_reaped(split["pids"])
    message = capsys.readouterr().err
    monkeypatch.setattr(forking, "MIN_RANGE_BYTES", 2**40)
    assert main(argv) == EXIT_USAGE
    assert message == capsys.readouterr().err and "cannot read data file" in message


def test_children_reaped_on_keyboard_interrupt(tmp_path, split, monkeypatch):
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines_of(curves())) + "\n")

    parse_range, parent = forking._parse_range, os.getpid()

    def interrupted(*args):
        if os.getpid() != parent:
            return parse_range(*args)
        assert len(split["pids"]) == 3  # the first range parses after the forks
        raise KeyboardInterrupt

    monkeypatch.setattr(forking, "_parse_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        forking.loadtxt(path, delimiter=",", comments="#")
    assert len(split["pids"]) == 3
    assert_reaped(split["pids"])
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


def test_no_split_for_small_compressed_or_unforkable(tmp_path, split, monkeypatch):
    text = "\n".join(lines_of(curves())) + "\n"
    packed = tmp_path / "curves.csv.gz"
    packed.write_bytes(gzip.compress(text.encode()))
    plain = tmp_path / "curves.csv"
    plain.write_text(text)
    assert forking._line_ranges(packed) == []
    assert np.array_equal(forking.loadtxt(packed, delimiter=",", comments="#"), serial(plain))
    monkeypatch.setattr(forking, "MIN_RANGE_BYTES", len(text) // 2 + 1)
    assert forking._line_ranges(plain) == [0, len(text)]
    monkeypatch.setattr(forking, "MIN_RANGE_BYTES", RANGE_SIZES[0])
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not forking.fork_supported()
    assert np.array_equal(forking.loadtxt(plain, delimiter=",", comments="#"), serial(plain))
    assert split["parsed"] == [] and split["pids"] == []


def test_split_parse_keeps_the_blas_thread_count(tmp_path, split):
    get_num_threads = forking._openblas_function("get_num_threads")
    if get_num_threads is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines_of(curves())) + "\n")
    before = get_num_threads()
    forking.loadtxt(path, delimiter=",", comments="#")
    assert split["parsed"] == [True]
    assert get_num_threads() == before


def value_and_pid(item):
    return item / 3.0, os.getpid()


def test_strided_map_runs_item_i_in_worker_i_mod_w(monkeypatch):
    items = list(range(7))
    for workers in (1, 2, 3):
        results = list(forking.strided_map(value_and_pid, items, workers))
        assert [value for value, _ in results] == [item / 3.0 for item in items]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == workers
        assert pids == [pids[i % workers] for i in items]
    # a fork that fails leaves its worker's items to this process
    fork = os.fork
    forked = []

    def second_fork_fails():
        forked.append(None)
        if len(forked) > 1:
            raise OSError("no fork")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    pids = [pid for _, pid in forking.strided_map(value_and_pid, items, 3)]
    assert len(forked) == 2 and len(set(pids)) == 2
    assert [i for i in items if pids[i] != os.getpid()] == [1, 4]


def test_strided_map_kills_children_when_closed_early():
    parent = os.getpid()

    def slow_in_children(item):
        if os.getpid() != parent:
            time.sleep(60)
        return value_and_pid(item)

    started = time.perf_counter()
    outcomes = forking.strided_map(slow_in_children, list(range(6)), 2)
    assert next(outcomes) == (0.0, parent)
    outcomes.close()
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_strided_map_yields_array_fields_that_stay_put():
    results = list(forking.strided_map(lambda i: (np.full(3, i),), list(range(6)), 2))
    assert [row.tolist() for (row,) in results] == [[i] * 3 for i in range(6)]


def split_bootstrap(monkeypatch):
    """A composite test whose bootstrap of n * B = SPLIT_MIN_VALUES values is
    cut into four blocks, so it splits over two workers."""
    n, B = 40, 120
    monkeypatch.setattr(rptest, "BOOTSTRAP_BLOCK", n * B // 4)
    monkeypatch.setattr(rptest, "SPLIT_MIN_VALUES", n * B)
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 2)
    sample = centered_bm_sample(n, num_points=31, seed=3)
    y = sample.data[:, 10] + 0.5 * np.random.default_rng(4).standard_normal(n)
    return flm_gof(sample, y, K=2, B=B, seed=1)


def test_every_fork_is_made_inside_strided_map(tmp_path, split, monkeypatch):
    fork, inside = os.fork, []

    def spying_fork():
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not forking.strided_map.__code__:
            frame = frame.f_back
        inside.append(frame is not None)
        return fork()

    monkeypatch.setattr(os, "fork", spying_fork)
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines_of(curves())) + "\n")
    forking.loadtxt(path, delimiter=",", comments="#")
    assert split["parsed"] == [True] and inside == [True] * 3
    split_bootstrap(monkeypatch)
    assert inside == [True] * 4
    monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
    run_study([1], [0], [20], M=4, K=2, B=30, threads=2)
    assert inside == [True] * 5
    assert_reaped(split["pids"])


def test_half_a_pickle_reruns_the_item_here(monkeypatch):
    parent, dump = os.getpid(), pickle.dump

    def half_then_exit(result, file, protocol):
        if os.getpid() == parent:
            return dump(result, file, protocol)
        data = pickle.dumps(result, protocol)
        file.write(data[: len(data) // 2])
        file.flush()
        os._exit(1)

    def curve_and_pid(item):
        return np.linspace(0.0, item, 5000), os.getpid()

    monkeypatch.setattr(pickle, "dump", half_then_exit)
    results = list(forking.strided_map(curve_and_pid, list(range(5)), 2))
    assert all(pid == parent for _, pid in results)
    for item, (curve, _) in enumerate(results):
        assert np.array_equal(curve, curve_and_pid(item)[0])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_descriptor_left_open(tmp_path, split):
    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    before = descriptors()
    assert len(list(forking.strided_map(value_and_pid, list(range(6)), 3))) == 6
    assert descriptors() == before
    outcomes = forking.strided_map(value_and_pid, list(range(6)), 3)
    next(outcomes)
    outcomes.close()
    assert descriptors() == before
    path = tmp_path / "ragged.csv"
    lines = lines_of(curves())
    path.write_text("\n".join(lines[:30] + ["1.0,2.0"] + lines[31:]) + "\n")
    with pytest.raises(ValueError):
        forking.loadtxt(path, delimiter=",", comments="#")
    assert split["parsed"] == [False]
    assert descriptors() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_thread_count_comes_back(tmp_path, split, monkeypatch, threads):
    get_num_threads = forking._openblas_function("get_num_threads")
    set_num_threads = forking._openblas_function("set_num_threads")
    if get_num_threads is None or set_num_threads is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    before = get_num_threads()
    set_num_threads(threads)
    try:
        run_study([1], [0], [20], M=2, K=2, B=30, threads=1)
        assert get_num_threads() == threads
        path = tmp_path / "curves.csv"
        path.write_text("\n".join(lines_of(curves())) + "\n")
        forking.loadtxt(path, delimiter=",", comments="#")
        assert split["parsed"] == [True]
        assert get_num_threads() == threads
        forks = len(split["pids"])
        split_bootstrap(monkeypatch)
        assert len(split["pids"]) > forks
        assert get_num_threads() == threads
    finally:
        set_num_threads(before)
