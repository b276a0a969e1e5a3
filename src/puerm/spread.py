"""The one runner of the package: a grid's cells, the self-checks and the
row blocks and byte ranges of a large CSV file run as tasks of ``_spread``
on this process and forked workers, one process per usable CPU, and come
back in task order, so the process count changes no output byte."""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import traceback
from collections.abc import Callable

from .errors import PuermError

# True while this process runs tasks of a _spread: it then forks no workers.
_inside = False


def _read_text(path) -> str:
    """The text of a small file, or "" if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError):
        return ""


def _usable_cpus(root="/sys/fs/cgroup", own="/proc/self/cgroup") -> int:
    """CPUs this process may run on, cut to ``ceil(quota / period)`` of each
    CPU quota of its cgroups: the v2 ``cpu.max`` files from its own cgroup up
    to ``root`` and the v1 ``cpu/cpu.cfs_quota_us``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    v1 = os.path.join(root, "cpu", "cpu.cfs_")
    quotas = [f"{_read_text(v1 + 'quota_us')} {_read_text(v1 + 'period_us')}"]
    for line in _read_text(own).splitlines():
        if line.startswith("0::"):  # the v2 entry, "0::/path/of/the/cgroup"
            parts = [p for p in line[3:].split("/") if p]
            quotas += [_read_text(os.path.join(root, *parts[:k], "cpu.max"))
                       for k in range(len(parts) + 1)]
    for text in quotas:
        with contextlib.suppress(ValueError):
            quota, period = map(int, text.split())  # "max" or -1: no limit
            if quota > 0 and period > 0:
                cpus = min(cpus, math.ceil(quota / period))
    return cpus


def _worker_count(n_tasks: int, share: int = 1) -> int:
    """Processes a run of ``n_tasks`` tasks uses: every usable CPU, capped so
    that each process gets at least ``share`` tasks; 1 without fork or inside
    a ``_spread``."""
    if _inside or not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), n_tasks // share))


def _outcome(task, forked=False):
    """(False, what ``task()`` returns) or (True, the Exception it raised).

    A ``forked`` one carries its traceback in a note (Python 3.11 on), which
    pickling keeps and ``str`` leaves out."""
    try:
        return False, task()
    except Exception as exc:
        if forked and hasattr(exc, "add_note"):
            exc.add_note("raised in a worker process:\n" + traceback.format_exc())
        return True, exc


def _send(out, name: str, task) -> None:
    """Pickle the outcome of ``task`` down the pipe ``out``; an outcome that
    cannot be pickled is sent as the exception that says so."""
    try:
        data = pickle.dumps(_outcome(task, forked=True))
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while sending the outcome of {name} from a worker process")
        data = pickle.dumps((True, exc))
    out.write(data)
    out.flush()


def _spread(tasks: list[tuple[str, Callable]], catch: tuple[type, ...] = (), share: int = 1):
    """Yield the outcome of each (name, task) of ``tasks``, in order: what
    ``task()`` returns, or the exception it raised if that is one of
    ``catch``; any other exception is raised here.

    With w = ``_worker_count(len(tasks), share)``, this process runs task
    i when i % w == 0. Forked worker k runs the tasks i with i % w == k, in
    order, and pickles each outcome down its own pipe, an exception with
    its traceback as a note (``_outcome``); it leaves only through
    ``os._exit``, so it runs no caller's cleanup. A worker that dies before
    sending an outcome raises ``PuermError`` naming that task. The workers
    start at the first read; closing the generator closes the pipes, which
    stops each worker at its next send, and waits for every worker.

    Runs do not nest: a worker, and this process while it runs one of its
    tasks, sees w = 1 in any ``_spread`` a task starts, which then runs
    every task in that process."""
    global _inside
    workers = _worker_count(len(tasks), share)
    pids, pipes = [], []
    try:
        for k in range(1, workers):
            fd_in, fd_out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _inside = True
                status = 1
                try:
                    for pipe in pipes:  # a worker holds no other worker's pipe open
                        pipe.close()
                    os.close(fd_in)
                    with open(fd_out, "wb") as out:
                        for name, task in tasks[k::workers]:
                            _send(out, name, task)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(fd_out)
            pipes.append(open(fd_in, "rb"))
        for i, (name, task) in enumerate(tasks):
            if i % workers == 0:
                inside, _inside = _inside, True
                try:
                    raised, value = _outcome(task)
                finally:
                    _inside = inside
            else:
                try:
                    raised, value = pickle.load(pipes[i % workers - 1])
                except (EOFError, pickle.UnpicklingError):
                    raise PuermError(f"a worker process died before {name} finished") from None
            if raised and not isinstance(value, catch):
                raise value
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
