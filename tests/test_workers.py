"""map_ordered, the one parallel path: forked workers give what a serial run gives."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import dcl
from dcl import percolation
from dcl.percolation import map_ordered
from dcl.rng import derive_rng, derive_streams, stream_log, stream_uniforms

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")


@pytest.fixture(autouse=True)
def _deadline():
    # Tasks here wait on pipes for one another. A wait that never ends fails
    # its test after a minute instead of hanging the run; the alarm reaches
    # only this process, and map_ordered then kills its children.
    def expire(signum, frame):
        raise TimeoutError("a worker test waited more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TaskError(ValueError):
    pass


class TwoArgError(Exception):
    """An exception that pickles but cannot be rebuilt from its pickled args."""

    def __init__(self, index, detail):
        super().__init__(f"task {index}: {detail}")


def _task(i: int) -> dict:
    # Each task derives its own streams, under roles that first appear at
    # different indices, and returns arrays as the engine's tasks do.
    (draws,) = stream_uniforms(11, "task", i, 1, 3)
    list(derive_streams(11, f"role{i % 4}", 10 * i, i + 1))
    return {"i": i, "draws": draws, "ids": np.arange(i, dtype=np.int64)}


def _failing(bad: dict):
    def task(i: int) -> int:
        if i in bad:
            raise bad[i](f"task {i} failed")
        return i

    return task


def _env() -> dict:
    src = str(Path(dcl.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _records(read_fd: int) -> list[bytes]:
    """The 4-byte records left in a pipe whose write ends are all closed."""
    data = b""
    while chunk := os.read(read_fd, 4096):
        data += chunk
    return [data[k : k + 4] for k in range(0, len(data), 4)]


def _close(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:
        pass  # closed already


def _same(got: list, want: list) -> None:
    assert [r["i"] for r in got] == [r["i"] for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a["draws"], b["draws"]) and np.array_equal(a["ids"], b["ids"])


@pytest.mark.parametrize("count", [1, 2, 7, 10])
@pytest.mark.parametrize("workers", [2, 3, 12])
def test_results_match_a_serial_run(workers, count):
    # 12 workers exceed every count, and a single task runs with no fork.
    serial = [_task(i) for i in range(count)]
    _same(map_ordered(_task, count, 1), serial)
    _same(map_ordered(_task, count, workers), serial)
    _assert_no_child_left()


def test_stream_log_counts_and_order_match_a_serial_run():
    # Roles role0..role3 first appear at tasks 0..3. Which process runs
    # which task, and which sends its results first, varies from run to
    # run, so merging the logs by process or by arrival would reorder them.
    with stream_log() as serial:
        derive_rng(11, "before")
        map_ordered(_task, 9, 1)
    for workers in (2, 3):
        with stream_log() as forked:
            derive_rng(11, "before")
            map_ordered(_task, 9, workers)
        assert list(forked.items()) == list(serial.items())
    assert [role for _, role in serial][:4] == ["before", "task", "role0", "role1"]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "bad, lowest",
    [
        ({3: TaskError, 4: KeyError}, 3),  # failures at adjacent tasks
        ({2: TaskError, 5: KeyError}, 2),  # the higher one at the last task
        ({1: TaskError, 4: KeyError}, 1),  # the lower one at the first queued task
        ({5: TaskError}, 5),  # one failure, at the last task
    ],
)
def test_the_lowest_failing_index_raises(bad, lowest):
    for workers in (1, 2, 3):
        with pytest.raises(bad[lowest]) as info:
            map_ordered(_failing(bad), 6, workers)
        assert str(info.value) == str(bad[lowest](f"task {lowest} failed")), workers
        _assert_no_child_left()


def test_a_lower_failure_that_ends_last_still_raises():
    # Task 1 fails only once task 4 has failed. The process that takes task
    # 1 waits there, so another one runs tasks 2 to 4, and task 4's failure
    # arrives first, from whichever process ran it.
    read_fd, write_fd = os.pipe()

    def task(i: int) -> int:
        if i == 1:
            os.read(read_fd, 1)
            raise TaskError("task 1 failed")
        if i == 4:
            os.write(write_fd, b"x")
            raise KeyError("task 4 failed")
        return i

    try:
        for workers in (2, 3):
            with pytest.raises(TaskError, match="^task 1 failed$"):
                map_ordered(task, 6, workers)
            _assert_no_child_left()
    finally:
        os.close(read_fd)
        os.close(write_fd)


def test_an_exception_that_cannot_cross_the_pipe_keeps_its_name_and_message():
    # The same RuntimeError whether the task ran here or in a child. Before
    # its first queued task, this process, or else every child, waits until
    # the failing task has run: where this process waits a child runs it,
    # and where the children wait this one nearly always does. Both turn up.
    parent = os.getpid()
    ran_here = set()

    def run(bad: int, workers: int, parent_waits: bool) -> Exception:
        who_r, who_w = os.pipe()
        done_r, done_w = os.pipe()
        waited = []

        def task(i: int) -> int:
            if i == bad:
                os.write(who_w, b"1" if os.getpid() == parent else b"0")
                os.write(done_w, b"x" * workers)
                raise TwoArgError(i, "boom")
            if i and not waited and (os.getpid() == parent) == parent_waits:
                waited.append(os.read(done_r, 1))
            return i

        try:
            with pytest.raises(Exception) as info:
                map_ordered(task, 7, workers)
            ran_here.add(os.read(who_r, 1) == b"1")
        finally:
            for fd in (who_r, who_w, done_r, done_w):
                os.close(fd)
        _assert_no_child_left()
        return info.value

    for bad in (1, 3, 5):
        for workers in (2, 3, 12):
            for parent_waits in (False, True, False, True):
                failure = run(bad, workers, parent_waits)
                assert type(failure) is RuntimeError
                assert str(failure) == f"TwoArgError: task {bad}: boom"
    assert ran_here == {True, False}
    # A serial run raises the exception itself.
    assert type(run(1, 1, False)) is TwoArgError


def test_a_failing_task_0_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked after task 0 failed")

    monkeypatch.setattr(percolation, "_fork", no_fork)
    with pytest.raises(TaskError, match="^task 0 failed$"):
        map_ordered(_failing({0: TaskError, 2: KeyError}), 5, 3)

    def unpicklable(i: int) -> int:
        raise TwoArgError(i, "boom")

    # Task 0 runs here, but its failure takes the form any task's would.
    with pytest.raises(RuntimeError, match=r"^TwoArgError: task 0: boom$"):
        map_ordered(unpicklable, 5, 3)


def test_a_slow_worker_takes_fewer_tasks():
    # Each child task writes a byte and then takes 20 ms; this process waits
    # for that byte in its first queued task, so both processes take tasks,
    # and then runs the rest at once. Results still come back in index
    # order, and every index runs exactly once.
    parent = os.getpid()
    started_r, started_w = os.pipe()
    ran_r, ran_w = os.pipe()
    waited = []

    def task(i: int) -> tuple[int, int]:
        if os.getpid() != parent:
            os.write(started_w, b"x")
            time.sleep(0.02)
        elif i and not waited:
            waited.append(os.read(started_r, 1))
        os.write(ran_w, i.to_bytes(4, sys.byteorder))
        return i, os.getpid()

    try:
        count = 30
        results = map_ordered(task, count, 2)
        _assert_no_child_left()
        os.close(ran_w)
        ran = sorted(int.from_bytes(record, sys.byteorder) for record in _records(ran_r))
    finally:
        for fd in (started_r, started_w, ran_r, ran_w):
            _close(fd)
    assert [i for i, _ in results] == list(range(count)) == ran
    pids = [pid for _, pid in results]
    assert len(set(pids)) == 2
    assert pids.count(parent) > count // 2


def test_a_child_that_dies_is_an_error_and_is_reaped():
    # The first queued task this process takes waits until a child has
    # taken one, on which the child dies.
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    waited = []

    def task(i: int) -> int:
        if os.getpid() != parent:
            os.write(write_fd, b"x")
            os._exit(3)
        if i and not waited:
            waited.append(os.read(read_fd, 1))
        return i

    try:
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
            map_ordered(task, 4, 2)
    finally:
        os.close(read_fd)
        os.close(write_fd)
    _assert_no_child_left()


def test_a_child_that_dies_mid_queue_does_not_stall_the_others():
    # The first child task to read the one byte of `token` dies. Every other
    # process waits for that death before its first queued task, so it comes
    # with most of the queue still to run. The other workers run all of it:
    # every index but the dead one, exactly once.
    parent = os.getpid()
    token_r, token_w = os.pipe()
    os.write(token_w, b"x")
    os.close(token_w)
    died_r, died_w = os.pipe()
    ran_r, ran_w = os.pipe()
    waited = []

    def task(i: int) -> int:
        if os.getpid() != parent and os.read(token_r, 1):
            os.write(died_w, b"x" * 3)
            os._exit(3)
        if i and not waited:
            waited.append(os.read(died_r, 1))
        os.write(ran_w, i.to_bytes(4, sys.byteorder))
        return i

    count = 40
    try:
        with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
            map_ordered(task, count, 3)
        _assert_no_child_left()
        os.close(ran_w)
        ran = sorted(int.from_bytes(record, sys.byteorder) for record in _records(ran_r))
    finally:
        for fd in (token_r, died_r, died_w, ran_r, ran_w):
            _close(fd)
    (died,) = set(range(count)) - set(ran)
    assert ran == [i for i in range(count) if i != died]


def test_an_interrupted_parent_kills_and_reaps_its_children():
    # A child task signals that it has started and then blocks on a pipe
    # nothing writes to: only SIGKILL ends it. This process is interrupted
    # in its first queued task, once a child is in its own.
    parent = os.getpid()
    started_r, started_w = os.pipe()
    never_r, never_w = os.pipe()

    def task(i: int) -> int:
        if os.getpid() != parent:
            os.write(started_w, b"x")
            os.read(never_r, 1)
        elif i:
            os.read(started_r, 1)
            raise KeyboardInterrupt
        return i

    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            map_ordered(task, 4, 2)
    finally:
        for fd in (started_r, started_w, never_r, never_w):
            os.close(fd)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@pytest.mark.parametrize("count", [1025, 1026, 3001])
def test_more_tasks_than_queue_records_give_a_serial_run(count):
    def task(i: int) -> tuple:
        (draws,) = stream_uniforms(11, f"role{i % 4}", i, 1, 2)
        return i, draws

    with stream_log() as serial_log:
        serial = map_ordered(task, count, 1)
    with stream_log() as forked_log:
        forked = map_ordered(task, count, 3)
    _assert_no_child_left()
    assert [i for i, _ in forked] == list(range(count))
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(forked, serial))
    assert list(forked_log.items()) == list(serial_log.items())


@pytest.mark.parametrize("count", [2, 1024, 1025, 1026, 2049, 10**6])
def test_the_task_queue_fits_one_page_and_names_every_task_once(count):
    queue_fd, block = percolation._task_queue(count)
    try:
        data = os.read(queue_fd, 2 * 4096)
        assert os.read(queue_fd, 1) == b""  # the write end is already closed
    finally:
        os.close(queue_fd)
    assert 0 < len(data) <= 4096 and len(data) % 4 == 0
    starts = np.frombuffer(data, dtype=np.uint32)
    named = [i for start in starts.tolist() for i in range(start, min(start + block, count))]
    assert named == list(range(1, count))


def test_other_platforms_run_the_tasks_here(monkeypatch):
    def no_fork():
        raise AssertionError("forked off Linux")

    monkeypatch.setattr(percolation.sys, "platform", "darwin")
    monkeypatch.setattr(percolation.os, "fork", no_fork)
    with stream_log() as log:
        got = map_ordered(_task, 5, 3)
    with stream_log() as want_log:
        want = map_ordered(_task, 5, 1)
    _same(got, want)
    assert list(log.items()) == list(want_log.items())


def test_fork_silences_only_the_multithreaded_fork_warning(monkeypatch):
    # Python 3.12+ warns in os.fork with this text when other threads run.
    def fork() -> int:
        text = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child."
        warnings.warn(text, DeprecationWarning, stacklevel=2)
        warnings.warn("another deprecation", DeprecationWarning, stacklevel=2)
        return 4242

    monkeypatch.setattr(percolation.os, "fork", fork)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert percolation._fork() == 4242
    assert [str(w.message) for w in seen] == ["another deprecation"]


def test_children_leave_without_flushing_stdout_or_running_atexit():
    # Text still in the block-buffered stdout at the fork, and the atexit
    # handler, must come out once: from the parent alone.
    code = (
        "import atexit, sys\n"
        "from dcl.percolation import map_ordered\n"
        "atexit.register(print, 'atexit')\n"
        "sys.stdout.write('before\\n')\n"
        "print(map_ordered(lambda i: i * i, 5, 3))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["before", "[0, 1, 4, 9, 16]", "atexit"]
    assert done.stderr == ""


def test_cli_with_two_workers_prints_one_report():
    # A piped stdout is block-buffered: a child that left by anything but
    # os._exit would flush a copy of it, or finish the run and print its own.
    argv = ["estimate", "--radius", "8", "--p", "0.3", "--replicates", "300", "--seed", "5", "--workers", "2"]
    code = "import sys; from dcl.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["config"]["experiment"] == "estimate"
    assert done.stdout.count('"config"') == 1
