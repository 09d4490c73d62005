"""map_ordered, the one parallel path: forked workers give what a serial run gives."""

from __future__ import annotations

import json
import os
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
from dcl.rng import derive_rng, derive_streams, stream_log

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork only on Linux")


class TaskError(ValueError):
    pass


class TwoArgError(Exception):
    """An exception that pickles but cannot be rebuilt from its pickled args."""

    def __init__(self, index, detail):
        super().__init__(f"task {index}: {detail}")


def _task(i: int) -> dict:
    # Each task derives its own streams, under roles that first appear at
    # different indices, and returns arrays as the engine's tasks do.
    draws = derive_rng(11, f"task:{i}").random(3)
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


def _same(got: list, want: list) -> None:
    assert [r["i"] for r in got] == [r["i"] for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a["draws"], b["draws"]) and np.array_equal(a["ids"], b["ids"])


@pytest.mark.parametrize("count", [1, 2, 7, 10])
@pytest.mark.parametrize("workers", [2, 3, 12])
def test_results_match_a_serial_run(workers, count):
    # 7 and 10 are multiples of neither 2 nor 3; 12 workers exceed every count.
    serial = [_task(i) for i in range(count)]
    _same(map_ordered(_task, count, 1), serial)
    _same(map_ordered(_task, count, workers), serial)
    _assert_no_child_left()


def test_stream_log_counts_and_order_match_a_serial_run():
    # Roles role0..role3 first appear at tasks 0..3; with two workers the
    # parent runs tasks 0, 2, 4, ... and the child 1, 3, 5, ..., so merging
    # the logs by worker would put role2 before role1.
    with stream_log() as serial:
        derive_rng(11, "before")
        map_ordered(_task, 9, 1)
    with stream_log() as forked:
        derive_rng(11, "before")
        map_ordered(_task, 9, 2)
    assert list(forked.items()) == list(serial.items())
    assert [role for _, role in serial][:4] == ["before", "task", "role0", "role1"]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "bad, lowest",
    [
        ({3: TaskError, 4: KeyError}, 3),  # lowest in the child; the parent's share fails later
        ({2: TaskError, 5: KeyError}, 2),  # lowest in the parent's share
        ({1: TaskError, 4: KeyError}, 1),  # the parent fails at 4 while the child's 1 comes first
        ({5: TaskError}, 5),  # only the child fails, at its last task
    ],
)
def test_the_lowest_failing_index_raises(bad, lowest):
    for workers in (1, 2, 3):
        with pytest.raises(bad[lowest]) as info:
            map_ordered(_failing(bad), 6, workers)
        assert str(info.value) == str(bad[lowest](f"task {lowest} failed")), workers
        _assert_no_child_left()


def test_an_exception_that_cannot_cross_the_pipe_keeps_its_name_and_message():
    def task(i: int) -> int:
        if i == 1:
            raise TwoArgError(i, "boom")
        return i

    with pytest.raises(RuntimeError, match=r"^TwoArgError: task 1: boom$"):
        map_ordered(task, 4, 2)
    _assert_no_child_left()


def test_a_child_that_dies_is_an_error_and_is_reaped():
    def task(i: int) -> int:
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
        map_ordered(task, 4, 2)
    _assert_no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_children():
    def task(i: int) -> int:
        if i == 0:
            raise KeyboardInterrupt
        if i % 2:
            # The child would sleep for a minute: only SIGKILL ends it in time.
            time.sleep(60)
        return i

    with pytest.raises(KeyboardInterrupt):
        map_ordered(task, 4, 2)
    _assert_no_child_left()


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
