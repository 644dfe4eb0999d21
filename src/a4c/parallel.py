"""A ``check`` run whose files are shared among forked worker processes.

``cli`` imports this module only when it shares a run among processes, so a
``check`` in one process never compiles it. ``cli`` passes its per-file
check, so this module needs nothing of ``cli``. The parent checks the first
share and one forked worker checks each other share. A worker pickles its
results down a pipe and always ends in ``os._exit``; the parent reaps every
worker, even when its own share raises.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
from typing import Callable, NoReturn, Optional


def _check_share(check_file: Callable, paths: list[str],
                 share: list[int]) -> tuple[list, Optional[Exception]]:
    """``check_file`` on the paths of ``share`` in argument order, up to the
    first that raises: (their results, that exception or None)."""
    done = []
    for i in share:
        try:
            done.append(check_file(paths[i]))
        except Exception as exc:
            return done, exc
    return done, None


def _worker(check_file: Callable, paths: list[str], share: list[int], write_fd: int) -> NoReturn:
    """A forked worker: ``_check_share`` of ``share``, pickled down its pipe.
    It always ends in ``os._exit``, so nothing the parent registered runs
    twice, and with status 0 only once the whole pair is written."""
    status = 1
    try:
        with open(write_fd, "wb") as pipe:
            pickle.dump(_check_share(check_file, paths, share), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork(check_file: Callable, paths: list[str], share: list[int]):
    """A worker forked for ``share``: (its pid, the read end of its pipe), or
    None when the system has no process to spare."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _worker(check_file, paths, share, write_fd)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def check_in_processes(check_file: Callable, paths: list[str], shares: list[list[int]]) -> list:
    """``check_file`` of every path, the parent checking the first share
    (and any share it could not fork for) while a forked worker checks each
    other. The first fault in argument order is raised, as a serial run
    would raise it; a worker that ends without its results is a fault too.
    No worker outlives this call."""
    from . import parser, resolver, validate  # noqa: F401  compiled once, for every worker

    sys.stdout.flush()  # a worker must not inherit output to write twice
    sys.stderr.flush()
    gc.freeze()  # collections skip what exists now, so workers share its pages
    mine, workers = [shares[0]], []
    try:
        for share in shares[1:]:
            worker = _fork(check_file, paths, share)
            if worker is None:
                mine.append(share)
            else:
                workers.append((share, *worker))
        # (share, _check_share's pair) of every share
        outcomes = [(share, _check_share(check_file, paths, share)) for share in mine]
        while workers:
            share, pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            if status:
                how = f"was killed by signal {-status}" if status < 0 else f"exited with {status}"
                raise RuntimeError(f"a check worker {how} before sending its results")
            outcomes.append((share, pickle.loads(data)))
    finally:
        if workers:  # a fault or an interrupt came first: their results are not wanted
            import signal

            for _share, pid, pipe in workers:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results: list = [None] * len(paths)
    faults = []
    for share, (done, fault) in outcomes:
        for i, result in zip(share, done):
            results[i] = result
        if fault is not None:
            faults.append((share[len(done)], fault))
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    return results
