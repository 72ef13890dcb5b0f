"""The line-range parse of `forking.loadtxt` against one serial `np.loadtxt`.

Ranges are made tiny here, so files of a few kilobytes split into four
ranges, and every edge of the format falls at some range boundary.
"""

import gzip
import os
import signal
import sys
import warnings

import numpy as np
import pytest

from flmgof import forking
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
    whether each split parse succeeded and the pid of every fork."""
    monkeypatch.setattr(forking, "MIN_RANGE_BYTES", RANGE_SIZES[0])
    monkeypatch.setattr(forking, "_usable_cpus", lambda: 4)
    record = {"parsed": [], "pids": []}
    parse_ranges, fork = forking._parse_ranges, os.fork

    def recording_parse(*args):
        rows = parse_ranges(*args)
        record["parsed"].append(rows is not None)
        return rows

    def recording_fork():
        pid = fork()
        record["pids"].append(pid)
        return pid

    monkeypatch.setattr(forking, "_parse_ranges", recording_parse)
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


def test_children_reaped_on_keyboard_interrupt(tmp_path, split, monkeypatch):
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines_of(curves())) + "\n")

    def interrupted(first, children):
        assert len(children) == 3
        raise KeyboardInterrupt

    monkeypatch.setattr(forking, "_gather", interrupted)
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
