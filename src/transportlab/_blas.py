"""One OpenBLAS thread where a second one costs more than it saves.

At the orders of the per-frequency and dense-path SVDs, OpenBLAS's
hand-off to a second thread costs more than the second thread saves:
on 2-core OpenBLAS one ``scipy.linalg.svdvals`` of a block-bidiagonal
``I + X kron P`` takes 0.44 of its 2-thread time at one thread at order
128, 0.79 at order 256 and 0.95 at order 512, with the same bits, and
1.34 at order 1024, with other bits.  So the dense spectrum of
``spectral.singular_extremes`` and the upwind block-norm check run
inside ``one_thread(order)``, which drops each loaded OpenBLAS to one
thread when ``order <= ONE_THREAD_MAX_ORDER`` and restores its previous
count afterwards.  The per-frequency SVDs of
``spectral.perturbation_check`` run at one thread at every order
(``one_thread(order, math.inf)``): they are split between two Python
threads across the frequencies instead, so their bits do not depend on
the thread count the process starts with.

The iterative path of ``spectral.singular_extremes``, above its dense
cap, runs numpy's own OpenBLAS, which does the products with a dense
one-step block, at one thread at every order: on 2 vCPUs, a fixed-h
upwind row of order 67,564 (m = 76, N_t = 889) took 40 to 47 s at two
threads and 9 s at one.  Every other pool, such as scipy's, which runs ARPACK's
reorthogonalization, whose cost grows with the order, keeps the
crossover ``ITERATIVE_ONE_THREAD_MAX_ORDER``.  The Chebyshev filter on
the sigma_max start (above ``spectral.FILTER_CAP``) runs inside the
same ``one_thread`` blocks: its norms and its one inner product are
BLAS calls too, so its output, and with it sigma_max and the
``sigma_max`` matvec count, does not depend on the thread count up to
that order.

The libraries are found on first use, not at import: every mapped
object of the process whose path names ``openblas`` and that exports a
``{scipy_,}openblas_{get,set}_num_threads{64_,}`` pair.  numpy's own is
the one its wheel ships, in ``numpy.libs`` or inside the package; a
BLAS that numpy shares with scipy is not.  Where none is found (another
BLAS, or no ``/proc``) nothing is changed.  The thread count is a
per-process setting, so ``one_thread`` is not meant for concurrent use
from several Python threads: a caller that splits its work between
threads enters it once, before it starts them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# the largest order run at one thread: the measured crossover above, the
# last order at which one thread is faster and gives the same bits
ONE_THREAD_MAX_ORDER = 512

# the largest order whose iterative spectrum (``spectral._lanczos_extremes``)
# runs at one thread: the measured crossover.  On
# 2-core OpenBLAS, alternating in one process on upwind systems, one thread
# takes 0.60 of the 2-thread time at order 12,152, 0.88 and 0.96 at 29,304,
# 1.08 and 0.86 at 39,600, 0.98 and 1.08 at 49,896, 1.05 at 60,192, 1.08 at
# 69,696, 1.18 at 97,416 and 1.61 at 778,488, with the same matvec counts
ITERATIVE_ONE_THREAD_MAX_ORDER = 40_000

# the getter and setter names, in the order tried: scipy's wheels rename
# OpenBLAS's symbols, and its 64-bit-integer builds add a suffix
_SYMBOLS = tuple((f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
                 for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


class _OpenBLAS(NamedTuple):
    name: str
    get: Callable[[], int]
    set: Callable[[int], None]
    numpy: bool = False  # shipped with numpy, which runs its products on it


@functools.cache
def _libraries() -> tuple[_OpenBLAS, ...]:
    """The thread-count getter and setter of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    numpy_dir = Path(np.__file__).parent
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                home = Path(path).parent
                found.append(_OpenBLAS(Path(path).name, get, set_,
                                       home == numpy_dir.with_name("numpy.libs")
                                       or home.is_relative_to(numpy_dir)))
                break
    return tuple(found)


def thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by library file name."""
    return {lib.name: lib.get() for lib in _libraries()}


def numpy_pool() -> tuple[_OpenBLAS, ...]:
    """The loaded OpenBLAS shipped with numpy, if any."""
    return tuple(lib for lib in _libraries() if lib.numpy)


@contextlib.contextmanager
def one_thread(order: int, max_order: float = ONE_THREAD_MAX_ORDER, libraries=None):
    """Run the body with ``libraries`` (by default every loaded OpenBLAS)
    at one thread if ``order`` is at most ``max_order``, else at their
    current counts.

    A library already at one thread is left alone; every other one gets
    its previous count back when the body ends, also when it raises.
    """
    saved = []
    if order <= max_order:
        for lib in _libraries() if libraries is None else libraries:
            count = lib.get()
            if count > 1:
                lib.set(1)
                saved.append((lib, count))
    try:
        yield
    finally:
        for lib, count in reversed(saved):
            lib.set(count)
