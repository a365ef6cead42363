"""A small parallel map used by the DSE.

The paper's design-space exploration evaluated >10,000 approximate
configurations offline using 6 CPU threads.  Our DSE uses the same pattern:
the work items are pure functions of picklable arguments, so a process pool
is sufficient.  For small workloads (or ``n_workers <= 1``) we fall back to a
plain serial loop to avoid pool start-up overhead -- profiling first,
parallelising only when it pays off, per the HPC guides.

Pooled workers split the cores between them: each caps the threads of the
OpenBLAS NumPy loaded at ``cpu_count // n_workers`` (at least one), so the
workers' BLAS pools do not oversubscribe the machine.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Default worker count: all cores minus one, at least one."""
    return max(1, (os.cpu_count() or 1) - 1)


#: Thread-control entry points of the OpenBLAS NumPy wheels ship (NumPy 2,
#: then NumPy 1), ``{}`` standing for ``get`` or ``set``.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_")


@functools.lru_cache(maxsize=None)
def _openblas_threads_api() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` thread-count functions of NumPy's OpenBLAS, or ``None`` when absent."""
    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            set_ = getattr(lib, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> Optional[int]:
    """Threads NumPy's OpenBLAS runs on, or ``None`` when it exposes no thread control."""
    api = _openblas_threads_api()
    return None if api is None else int(api[0]())


def _init_pool_worker(
    blas_limit: int, initializer: Optional[Callable[..., None]], initargs: tuple
) -> None:
    """Pool initializer: cap this worker's BLAS threads, then run the caller's initializer."""
    api = _openblas_threads_api()
    if api is not None and api[0]() > blas_limit:
        api[1](blas_limit)
    if initializer is not None:
        initializer(*initargs)


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    n_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    min_items_for_pool: int = 8,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> List[R]:
    """Map ``func`` over ``items``, optionally using a process pool.

    Parameters
    ----------
    func:
        Picklable callable applied to each item.
    items:
        Work items; materialised into a list.
    n_workers:
        Number of worker processes.  ``None`` uses :func:`default_workers`;
        ``0`` or ``1`` forces serial execution.
    chunksize:
        Items handed to each worker at a time (larger amortises IPC
        overhead).  ``None`` picks ``len(items) / (4 * n_workers)`` -- a few
        chunks per worker for load balance without per-item IPC.
    min_items_for_pool:
        Below this many items the serial path is always used.
    initializer, initargs:
        Per-worker setup hook: use it to ship large *invariant* state to each
        worker once (e.g. as module globals) instead of pickling it into
        every work item.  The serial path calls it once in-process; pooled
        workers first cap their BLAS threads at ``cpu_count // n_workers``.

    Returns
    -------
    list
        Results in input order.
    """
    items = list(items)
    if n_workers is None:
        n_workers = default_workers()
    if n_workers <= 1 or len(items) < min_items_for_pool:
        if initializer is not None:
            initializer(*initargs)
        return [func(item) for item in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (4 * n_workers))
    blas_limit = max(1, (os.cpu_count() or 1) // n_workers)
    with ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_init_pool_worker,
        initargs=(blas_limit, initializer, initargs),
    ) as pool:
        return list(pool.map(func, items, chunksize=max(1, chunksize)))

