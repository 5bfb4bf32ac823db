"""The shared worker pool: work spread over the calling thread and up to
``cores() - 1`` worker threads.

``run_tasks`` is the one way the engine uses more than one core.  Inference
runs a batch's image chunks through it (``models._run_chunks``), and the
training convolutions their per-image GEMMs (``layers.conv2d_real``,
``layers._real_conv_bwd``).  Every task writes outputs of its own and every
sum stays in one task, so results do not depend on which thread ran which
task.  A task's own splits run inline: a convolution inside an inference
chunk never waits on the pool that runs the chunk.

The pool starts on first use and a forked child starts its own.

``keep_freed_heap`` has the C library keep the heap the engine frees, once
per process, at the first engine call (``models.check_batch``).  Never at
import: a program's own arrays allocated after ``import bcnn`` would move
onto the heap too (the benchmark's host-speed reference ran 6-8% slower).
"""

from __future__ import annotations

import itertools
import os
import threading

_pool = None
_lock = threading.Lock()  # guards ``_pool`` and ``_heap_kept``
_inside = threading.local()  # ``.task``: this thread is running tasks of ``run_tasks``

# glibc ``mallopt`` parameters and the values ``keep_freed_heap`` sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's own ceiling for it on 64-bit
TRIM_THRESHOLD_BYTES = 128 << 20  # covers a ResNet-18 batch-16 training step
_heap_kept = None  # None until ``keep_freed_heap`` first runs, then its result


def cores() -> int:
    """The cores this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _executor(workers: int):
    """The shared worker pool, started on first use.  Importing
    ``concurrent.futures`` only here kept the batch-1 NIN loop about 4%
    faster (2-core Xeon) than a module-level import."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="bcnn-worker")
        return _pool


def keep_freed_heap() -> bool:
    """Whether the C library keeps the heap the engine frees; the first call
    in a process sets glibc's two thresholds, where ``mallopt`` exists.

    glibc maps arrays above its mmap threshold afresh and returns freed heap
    above its trim threshold to the kernel, so a steady toy ``train_step``
    faulted about 10 300 pages back in, 9 of its 49 ms (2-core Xeon).  Both
    are set, as setting one turns off glibc's adjustment of the other; a
    ``mallopt`` call that does not return 1 leaves the rest unset and this
    ``False``.  Only where arrays live changes, never a result."""
    global _heap_kept
    if _heap_kept is None:
        with _lock:
            if _heap_kept is None:
                _heap_kept = _set_malloc_thresholds()
    return _heap_kept


def _set_malloc_thresholds() -> bool:
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no libc handle
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in (
        (M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES), (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)))


def _forget_pool():
    """A forked child has none of its parent's worker threads: start anew.
    It keeps its parent's C library settings, so ``_heap_kept`` stays."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # platforms without fork have no hook
    os.register_at_fork(after_in_child=_forget_pool)


def run_tasks(tasks) -> None:
    """Call each of ``tasks`` once, the calling thread and up to ``cores() - 1``
    pool tasks each taking the next one until none is left.  The caller then
    cancels the pool tasks not yet started and waits for the rest, so
    nothing runs once this returns, and task exceptions propagate.  One
    task, one core, or a call from inside a task runs every task inline, in
    order, and starts no thread."""
    tickets, todo = itertools.count(), list(tasks)  # next(tickets): the shared counter

    def drain():
        outer, _inside.task = getattr(_inside, "task", False), True
        try:
            while (k := next(tickets)) < len(todo):
                todo[k]()
        finally:
            _inside.task = outer

    count = cores()
    threads = 1 if getattr(_inside, "task", False) else min(count, len(tasks))
    if threads < 2:
        return drain()
    started = [_executor(count - 1).submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        started = [task for task in started if not task.cancel()]
        for task in started:
            task.exception()  # waits for the task
        # a worker may hold ``drain`` a moment after its task is done: it
        # must not keep the tasks' arrays alive
        todo.clear()
    for task in started:
        task.result()
