"""One OpenBLAS thread for every SVD and Lanczos run.

A pool is the thread pool of one loaded OpenBLAS library; numpy's wheel
ships one and scipy's another.  ``one_thread`` runs its body with every
loaded pool at one thread.  The dense spectrum, the iterative spectrum
and ``perturbation_check`` each enter it, so no output bit of theirs
depends on the thread count the process starts with, at any order.  The
reasons, on 2-core OpenBLAS:

- The dense SVDs, all numpy's ``np.linalg.svd``, are faster at one
  thread: one of a block-bidiagonal ``I + X kron P`` takes about 0.5 of
  its 2-thread time at one thread at order 128, 0.76 at order 256 and
  0.93 at order 512, with the same bits, and 1.25 at order 1024, with
  other bits.
  The only such SVDs above order 512 are the per-frequency ones, split
  across the frequencies between two thread-pool workers instead.
- The iterative spectrum does its products with a dense one-step block
  on numpy's pool: a fixed-h upwind row of order 67,564 (m = 76,
  N_t = 889) took 40 to 47 s with it at two threads and 9 s at one.
  Its Lanczos runs are ``spectral``'s own numpy code, so numpy's pool
  is the only one the spectrum path touches: ``thread_counts()`` after
  an iterative ``spectrum`` run lists numpy's ``libscipy_openblas64_``
  alone (scipy's ``libscipy_openblas`` is not loaded by any module of
  the package), back at its own count once the pin is lifted.

The upwind transport check takes no SVD and no pin.  The libraries are
found on first use, not at import: every mapped object of the process
whose path names ``openblas`` and that exports a
``{scipy_,}openblas_{get,set}_num_threads{64_,}`` pair.  Where none is
found (another BLAS, or no ``/proc``) nothing is changed.  The thread
count is a per-process setting, so ``one_thread`` is not meant for
concurrent use from several Python threads: a caller with a thread pool
enters it before the pool starts and leaves it once the pool is joined.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import Callable, NamedTuple

# the getter and setter names, in the order tried: scipy's wheels rename
# OpenBLAS's symbols, and its 64-bit-integer builds add a suffix
_SYMBOLS = tuple((f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
                 for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", ""))


class _OpenBLAS(NamedTuple):
    name: str
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _libraries() -> tuple[_OpenBLAS, ...]:
    """The thread-count getter and setter of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ()
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
                found.append(_OpenBLAS(Path(path).name, get, set_))
                break
    return tuple(found)


def thread_counts() -> dict[str, int]:
    """Current thread count of each loaded OpenBLAS, by library file name."""
    return {lib.name: lib.get() for lib in _libraries()}


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    A library already at one thread is left alone; every other one gets
    its previous count back when the body ends, also when it raises.
    """
    saved = []
    for lib in _libraries():
        count = lib.get()
        if count > 1:
            lib.set(1)
            saved.append((lib, count))
    try:
        yield
    finally:
        for lib, count in reversed(saved):
            lib.set(count)
