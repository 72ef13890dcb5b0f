"""Work split over forked processes: the platform rule, a strided map and a
line-range loadtxt built on it.

Where `fork_supported()`, worker processes are forked, so callers need no
`__main__` guard and children start with the caller's imports in place.
That is not on macOS, whose system libraries are not fork-safe, nor on
Windows, which has no fork; there `simlab` pools start workers the
platform's default way and files are parsed serially.

`strided_map(function, items, workers)` is the one place that forks, with
one protocol: item i runs in worker i mod `workers`, where this process is
worker 0 and forked children are the others; a child pickles each result to
its own pipe, and this process yields the results in item order. An item
whose child failed runs again here. It is also the one place that pins
numpy's OpenBLAS: every worker runs on one BLAS thread until the children
are done, and the caller's count is then set again, which restarts the pool
OpenBLAS's fork handler stopped (see `_set_blas_threads`).

`loadtxt(path, **kwargs)` returns what `np.loadtxt(path, ndmin=2,
dtype=float, **kwargs)` returns. A plain file of `size` bytes is cut into
p = min(usable CPUs, size // MIN_RANGE_BYTES) byte ranges, each ending at a
newline. With p >= 2, `strided_map` parses each range with the same
arguments in a worker of its own, and the parts are joined in one array.
Every line is parsed by the same parser from the same bytes, so the rows
equal the serial parse bit for bit. A range of comments alone warns "no
data" and is dropped. If a range fails, warns about rows it holds, or
disagrees with another on the number of columns, the whole file is parsed
again serially here, which returns that result or raises that error.
"""

from __future__ import annotations

import contextlib
import functools
import io
import mmap
import os
import pickle
import signal
import sys
import warnings

import numpy as np

# Ranges hold at least this many bytes, so files are split from 1 MiB up.
# Forking and the pipe cost a few ms: in the sweep (scripts/bench_parse.py,
# BENCH_parallel_parse.json) a 0.8 MB file parsed no faster split (10.6 ms
# against 10.2-10.4 ms whole), while a 2 MB file did (18.8-19.1 ms against
# 24.8-26.4 ms) and so did every larger one.
MIN_RANGE_BYTES = 2**19

# np.loadtxt decompresses files with these suffixes, so their bytes are not lines
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def fork_supported() -> bool:
    """True where work is split over forked processes (not macOS or Windows)."""
    return sys.platform not in ("darwin", "win32")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# (prefix, suffix) of the OpenBLAS symbol names, most recent numpy wheels first
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas_function(name):
    """numpy's OpenBLAS `set_num_threads` or `get_num_threads`, or None.

    numpy wheels bundle OpenBLAS in `numpy.libs`: numpy >= 2 as scipy-openblas
    (`scipy_openblas_set_num_threads64_`), numpy 1.x with 64_-suffixed names,
    and a plain build exports `openblas_set_num_threads`. Opening the library
    numpy already loaded returns that same library. A BLAS numpy links from
    elsewhere is not found.
    """
    import ctypes
    import glob

    signatures = {
        "set_num_threads": ([ctypes.c_int], None),
        "get_num_threads": ([], ctypes.c_int),
    }
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for prefix, suffix in _OPENBLAS_NAMES:
            function = getattr(library, f"{prefix}{name}{suffix}", None)
            if function is not None:
                function.argtypes, function.restype = signatures[name]
                return function
    return None


def _set_blas_threads(count):
    """Set numpy's OpenBLAS to `count` threads.

    Returns the count it had, or None, setting nothing, where no OpenBLAS is
    found. Every set restarts the thread pool, which matters after a fork:
    OpenBLAS's fork handler stops its pool and frees the pool's work
    buffers. The next BLAS call would then take a freed pool buffer for this
    thread and leave the other for the pool, so each thread touches pages of
    a buffer it had not used, and the process's peak RSS grows (by 8 MB on
    the large-n benchmark). Restarting the pool first gives every thread its
    own buffer back.
    """
    get_num_threads = _openblas_function("get_num_threads")
    set_num_threads = _openblas_function("set_num_threads")
    if get_num_threads is None or set_num_threads is None:
        return None
    before = get_num_threads()
    set_num_threads(count)
    return before


def loadtxt(path, **kwargs):
    """`np.loadtxt(path, ndmin=2, dtype=float, **kwargs)`, parsed in line ranges."""
    kwargs.update(ndmin=2, dtype=float)
    bounds = _line_ranges(path)
    if len(bounds) > 2:
        with contextlib.suppress(OSError, ValueError):  # parsed whole below
            return _joined_ranges(path, bounds, kwargs)
    return np.loadtxt(path, **kwargs)


def _line_ranges(path):
    """Offsets [0, ..., size] that cut a plain file into ranges of whole lines."""
    if isinstance(path, os.PathLike):
        path = os.fspath(path)
    if (
        not fork_supported()
        or not isinstance(path, str)
        or path.lower().endswith(_COMPRESSED)
        or not os.path.isfile(path)
    ):
        return []
    size = os.path.getsize(path)
    parts = min(_usable_cpus(), size // MIN_RANGE_BYTES)
    bounds = [0]
    with open(path, "rb") as file:
        for part in range(1, parts):
            file.seek(part * size // parts)
            file.readline()
            if bounds[-1] < file.tell() < size:
                bounds.append(file.tell())
    return bounds + [size]


def _joined_ranges(path, bounds, kwargs):
    """The rows of every range, each parsed by a worker of its own, in one array.

    Raises ValueError at the first range in order that fails, if no range
    holds rows, or if ranges disagree on the number of columns. The array
    has a mapping of its own, so its pages go back to the system when the
    caller drops it, whatever the state of the malloc heap.
    """
    ranges = list(zip(bounds, bounds[1:]))
    parse = functools.partial(_parse_range, path, kwargs)
    parts = []
    with contextlib.closing(strided_map(parse, ranges, len(ranges))) as results:
        for (start, end), rows in zip(ranges, results):
            if rows is None:
                raise ValueError(f"bytes [{start}, {end}) did not parse")
            if len(rows):
                parts.append(rows)
    if not parts:
        raise ValueError("no range holds rows")
    shape = (sum(len(rows) for rows in parts), parts[0].shape[1])
    out = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), float).reshape(shape)
    return np.concatenate(parts, out=out)


def strided_map(function, items, workers):
    """Yield `function(item)` for every item, in order, from `workers` processes.

    Item i goes to worker i mod `workers`. Worker 0 is this process, which
    runs its items as the iterator reaches them; each other worker is a child
    forked at the first `next`, which runs its items in order and pickles
    each result to its own pipe as soon as it is computed. If a child's pipe
    ends before a whole pickle, that item and the rest of that child's items
    run here: a seeded item then raises the child's exception, or returns
    its result if the child was killed from outside. If a fork fails, the
    items of the workers not yet forked run here too. Closing the iterator,
    or an exception here, kills every child still running; every child is
    waited for on every path.

    From the first `next` on, numpy's OpenBLAS runs on one thread, in this
    process and in every child, whatever `workers` is; the count it had is
    set again at the end, which also restarts the pool that OpenBLAS's fork
    handler stopped. The workers fill the CPUs, and a BLAS pool started while
    they run (its threads spin while they wait for work) made a split `test`
    bootstrap slower than a serial one; with one worker, a study's trials
    still compute at the thread count they have with more.
    """
    children = []  # (pid, read end of the pipe the child writes to)
    threads = _set_blas_threads(1)
    try:
        for worker in range(1, workers):
            try:
                _fork(function, items[worker::workers], children)
            except OSError:  # no pipe or fork: the rest run here
                break
        # the pipes stay open until _reap closes them
        readers = [None] + [open(pipe, "rb", closefd=False) for _, pipe in children]
        readers += [None] * (workers - len(readers))
        ended = object()
        for index, item in enumerate(items):
            worker = index % workers
            result = ended
            if readers[worker] is not None:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    result = pickle.load(readers[worker])
            if result is ended:
                readers[worker] = None
                result = function(item)
            yield result
    finally:
        _reap(children)
        _set_blas_threads(threads)  # None, where no OpenBLAS was found, sets nothing


def _fork(function, items, children):
    """Fork a child that pickles `function(item)` for each of `items` to the
    write end of a new pipe, flushing each result as soon as it is computed,
    and exits; add (pid, read end) to `children`.

    The child never returns here, and runs no exit handlers. It closes the
    read ends of the children forked before it, so if this process dies,
    each child fails at its next write instead of running on.
    """
    read_end, write_end = os.pipe()
    try:
        with _sigint_held(), warnings.catch_warnings():
            # Python >= 3.12 warns after a fork in a process with threads
            # (here BLAS threads); under an error filter that warning would
            # raise here and lose the child. The child only works and exits.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_end)
                    for _, pipe in children:
                        os.close(pipe)
                    with open(write_end, "wb") as out:
                        for item in items:
                            pickle.dump(function(item), out, pickle.HIGHEST_PROTOCOL)
                            out.flush()
                finally:
                    os._exit(0)
            children.append((pid, read_end))
    except OSError:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)


def _parse_range(path, kwargs, span):
    """np.loadtxt on the lines in bytes [start, end) of `span`, or None.

    A range without rows warns "no data", and its empty rows are returned.
    A range that fails, or warns about rows it holds, gives None, and the
    caller then parses the whole file serially, which raises or warns as a
    serial parse would. A child sends that None back as its result, so no
    range is parsed twice.
    """
    start, end = span
    try:
        with open(path, "rb", buffering=0) as file, warnings.catch_warnings(
            record=True
        ) as caught:
            warnings.simplefilter("always")
            file.seek(start)
            reader = io.BufferedReader(_ByteRange(file, end - start), 2**16)
            rows = np.loadtxt(io.TextIOWrapper(reader), **kwargs)
    except (OSError, ValueError):
        return None
    return None if caught and len(rows) else rows


def _reap(children):
    """Kill every child, wait for it and close its pipe.

    Ctrl-C is held meanwhile, so no child leaves the list unreaped. With no
    children this returns at once, so a serial `strided_map` runs where
    signal masks do not exist (Windows).
    """
    if not children:
        return
    with _sigint_held():
        while children:
            pid, pipe = children.pop()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(pipe)


@contextlib.contextmanager
def _sigint_held():
    """Hold SIGINT (Ctrl-C) until the block ends; a forked child keeps it held."""
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


class _ByteRange(io.RawIOBase):
    """The next `size` bytes of an open file, read as a stream of their own."""

    def __init__(self, file, size):
        self._file = file
        self._left = size

    def readable(self):
        return True

    def readinto(self, buffer):
        count = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= count
        return count
