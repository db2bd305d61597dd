"""One OpenBLAS thread where a second one costs more than it saves.

A pool is the thread pool of one loaded OpenBLAS library; numpy's wheel
ships one and scipy's another.  ``one_thread`` runs its body with the
given pools, by default every loaded one, at one thread.  The rule:

- Every dense SVD outside the iterative spectrum, the dense spectrum's
  and ``perturbation_check``'s, pins every pool; the upwind transport
  check takes none.  On 2-core OpenBLAS one ``scipy.linalg.svdvals`` of
  a block-bidiagonal ``I + X kron P`` takes 0.44 of its 2-thread time at
  one thread at order 128, 0.79 at order 256 and 0.95 at order 512,
  with the same bits, and 1.34 at order 1024, with other bits.  The
  only such SVDs above order 512 are the per-frequency ones, split
  between two Python threads across the frequencies instead; so no bits
  of theirs depend on the thread count the process starts with.
- The iterative spectrum (``iterative_one_thread``) pins numpy's pool,
  which does the products with a dense one-step block, at every order:
  on 2 vCPUs a fixed-h upwind row of order 67,564 (m = 76, N_t = 889)
  took 40 to 47 s with it at two threads and 9 s at one.  Every other
  pool, such as scipy's, which runs ARPACK's reorthogonalization, whose
  cost grows with the order, it pins up to order
  ``ITERATIVE_ONE_THREAD_MAX_ORDER`` only.  The Chebyshev filter on the
  sigma_max start runs in the same pin, so its output, and with it
  sigma_max and its matvec count, does not depend on the thread count up
  to that order.

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

# the largest order at which ``iterative_one_thread`` pins every pool, not
# numpy's alone: the crossover measured with all pools moved together.  On
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


@contextlib.contextmanager
def one_thread(libraries=None):
    """Run the body with ``libraries`` (by default every loaded OpenBLAS)
    at one thread.

    A library already at one thread is left alone; every other one gets
    its previous count back when the body ends, also when it raises.
    """
    saved = []
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


def iterative_one_thread(order: int):
    """``one_thread`` for the iterative spectrum of a system of ``order``:
    every loaded OpenBLAS up to ``ITERATIVE_ONE_THREAD_MAX_ORDER``, and
    numpy's own alone above it."""
    if order <= ITERATIVE_ONE_THREAD_MAX_ORDER:
        return one_thread()
    return one_thread(lib for lib in _libraries() if lib.numpy)
