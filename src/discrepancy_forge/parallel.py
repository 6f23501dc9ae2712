"""Independent blocks of work dealt to one thread per CPU.

The kernel build's node sums and the H-table's strips both run here. The
work goes to threads, not processes: numpy's ufuncs, its FFTs, scipy's
Bessel functions and BLAS release the GIL, and the workers write into
arrays the caller owns. A worker calls no public callable of the package,
only private bodies, so every public call stays on the calling thread.
"""

from __future__ import annotations

import os
import threading

# workers: the CPUs this process may run on, the calling thread included
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def deal(items, work) -> None:
    """Call work(items[k::w]) for each worker k < w = min(WORKERS, len(items)).

    The items are dealt round-robin, and the calling thread is worker 0. Every
    worker is joined before this returns; the first error a worker raised is
    then raised here.
    """
    workers = max(1, min(WORKERS, len(items)))
    errors = []

    def guarded(k):
        try:
            work(items[k::workers])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(items[::workers])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
