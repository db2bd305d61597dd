import dataclasses
import threading

import numpy as np
import pytest

from transportlab import (
    GridConfig,
    _blas,
    assemble_ap_system,
    explicit_matrix,
    gauss_rule,
    initial_parity_field,
    perturbation_check,
    resolve_config,
    schemes,
    singular_extremes,
    spectral,
)
from transportlab._blas import ITERATIVE_ONE_THREAD_MAX_ORDER, one_thread


class FakeOpenBLAS:
    """A library's thread count, with a log of every set."""

    def __init__(self, name, count, numpy=False):
        self.name, self.count, self.numpy, self.sets = name, count, numpy, []

    def handle(self):
        def set_(n):
            self.sets.append(n)
            self.count = n
        return _blas._OpenBLAS(self.name, lambda: self.count, set_, self.numpy)


@pytest.fixture
def fakes(monkeypatch):
    libs = [FakeOpenBLAS("two", 2), FakeOpenBLAS("four", 4), FakeOpenBLAS("one", 1)]
    monkeypatch.setattr(_blas, "_libraries", lambda: tuple(lib.handle() for lib in libs))
    return libs


def test_one_thread_inside_and_previous_counts_after(fakes):
    with one_thread():
        assert _blas.thread_counts() == {"two": 1, "four": 1, "one": 1}
    assert _blas.thread_counts() == {"two": 2, "four": 4, "one": 1}
    # a library already at one thread is never set
    assert [lib.sets for lib in fakes] == [[1, 2], [1, 4], []]


def test_previous_counts_restored_when_the_body_raises(fakes):
    with pytest.raises(ZeroDivisionError):
        with one_thread():
            assert _blas.thread_counts() == {"two": 1, "four": 1, "one": 1}
            1 / 0
    assert _blas.thread_counts() == {"two": 2, "four": 4, "one": 1}


def test_loaded_libraries_restored_to_their_own_counts():
    libs = _blas._libraries()
    if not libs:
        pytest.skip("no OpenBLAS thread setter in this process")
    before = _blas.thread_counts()
    try:
        libs[0].set(2)
        expected = _blas.thread_counts()
        with pytest.raises(RuntimeError):
            with one_thread():
                assert set(_blas.thread_counts().values()) == {1}
                raise RuntimeError
        assert _blas.thread_counts() == expected
    finally:
        for lib in libs:
            lib.set(before[lib.name])


def _dense_outputs():
    """Every dense-SVD result of the package, at orders within the cap."""
    cfg = GridConfig(epsilon=0.3, tau=0.004, h=0.1, N=4, N_x=6, N_t=16)
    rule = gauss_rule(4, 0.0, 1.0)
    report = perturbation_check(cfg, rule, np.linspace(0.0, np.pi, 5) / cfg.h)
    # order 2 * N * N_x * N_t = 192: singular_extremes' dense path
    cfg = dataclasses.replace(cfg, N_t=4)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    dense = singular_extremes(system)
    assert dense.method == "dense"
    return (report.e_norms, report.sigma_max_eps, report.sigma_min_eps,
            report.sigma_max_zero, report.sigma_min_zero,
            np.array([dense.sigma_min, dense.sigma_max]))


def test_values_bit_identical_when_no_library_is_found(monkeypatch):
    pinned = _dense_outputs()
    monkeypatch.setattr(_blas, "_libraries", lambda: ())
    unpinned = _dense_outputs()
    for a, b in zip(pinned, unpinned):
        assert a.tobytes() == b.tobytes()


def test_dense_spectrum_same_bits_with_and_without_the_pin(monkeypatch):
    # order 2 * N * N_x * N_t = 192: the dense path
    cfg = GridConfig(epsilon=0.3, tau=0.004, h=0.1, N=4, N_x=6, N_t=4)
    rule = gauss_rule(4, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    counts_seen = []
    svdvals = spectral.svdvals

    def spy(a):
        counts_seen.append(_blas.thread_counts())
        return svdvals(a)

    monkeypatch.setattr(spectral, "svdvals", spy)
    pinned = singular_extremes(system)
    assert pinned.method == "dense" and len(counts_seen) == 1
    assert all(set(counts.values()) <= {1} for counts in counts_seen)
    monkeypatch.setattr(_blas, "_libraries", lambda: ())
    unpinned = singular_extremes(system)
    assert pinned == unpinned


@pytest.mark.parametrize("N_x", [6, 200])
def test_explicit_matrix_runs_no_svd_and_sets_no_thread_count(fakes, monkeypatch, N_x):
    svd_calls = []
    svd = np.linalg.svd

    def spy(a, **kwargs):
        svd_calls.append(a.shape)
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    # order 2 * N * N_x = 36 and 1200
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.4, "tau": "auto",
                          "h": 0.1, "N": 3, "Nx": N_x, "Nt": 4})
    explicit_matrix(cfg, gauss_rule(6, -1.0, 1.0))
    assert svd_calls == []
    assert [lib.sets for lib in fakes] == [[], [], []]


def test_perturbation_sweep_runs_at_one_thread(monkeypatch):
    calls = []
    singular_values = spectral._singular_values

    def spy(stack):
        calls.append((_blas.thread_counts(), threading.get_ident()))
        return singular_values(stack)

    monkeypatch.setattr(spectral, "_singular_values", spy)
    # 2 * N * N_t = 128, chunks of 4 matrices: the calling thread takes
    # xi 0-3 and the helper xi 4-7; the order-32 reduced matrices fit in
    # one chunk of 16
    cfg = GridConfig(epsilon=0.3, tau=0.004, h=0.1, N=4, N_x=6, N_t=16)
    perturbation_check(cfg, gauss_rule(4, 0.0, 1.0), np.linspace(0.0, 1.0, 8))
    # one stacked call for the ||E|| blocks, then one per chunk
    assert len(calls) == 1 + 2 + 1
    assert all(set(counts.values()) <= {1} for counts, _ in calls)
    assert len({thread for _, thread in calls}) == 2


def _system_above_the_symbol_cap():
    # order 2 * N * N_x * N_t = 1000, one-step block of m = 200 > DENSE_CAP
    # rows: three ARPACK runs (symbol, sigma_max, sigma_min)
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.3, "tau": "auto",
                          "h": 0.04, "N": 4, "Nx": 25, "Nt": 5})
    return schemes.scheme_for(cfg).assemble(cfg, False)


def _spy_arpack(monkeypatch):
    """A list that records the OpenBLAS thread counts at each ARPACK run."""
    counts_seen = []
    eigsh = spectral.spla.eigsh

    def spy(*args, **kwargs):
        counts_seen.append(_blas.thread_counts())
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", spy)
    return counts_seen


def test_system_spectrum_runs_arpack_at_one_thread(monkeypatch):
    system = _system_above_the_symbol_cap()
    assert system.order <= ITERATIVE_ONE_THREAD_MAX_ORDER
    counts_seen = _spy_arpack(monkeypatch)
    report = singular_extremes(system)
    assert report.method == "iterative" and report.matvecs_symbol > 0
    assert len(counts_seen) == 3
    assert all(set(counts.values()) <= {1} for counts in counts_seen)


def test_system_spectrum_keeps_the_counts_just_above_the_crossover(fakes, monkeypatch):
    system = _system_above_the_symbol_cap()
    counts_seen = _spy_arpack(monkeypatch)
    monkeypatch.setattr(_blas, "ITERATIVE_ONE_THREAD_MAX_ORDER", system.order)
    pinned = singular_extremes(system)
    assert counts_seen == [{"two": 1, "four": 1, "one": 1}] * 3
    assert _blas.thread_counts() == {"two": 2, "four": 4, "one": 1}
    counts_seen.clear()
    monkeypatch.setattr(_blas, "ITERATIVE_ONE_THREAD_MAX_ORDER", system.order - 1)
    unpinned = singular_extremes(system)
    assert counts_seen == [{"two": 2, "four": 4, "one": 1}] * 3
    assert [lib.sets for lib in fakes] == [[1, 2], [1, 4], []]
    # the fakes set no real library, so both runs took the same path
    assert pinned == unpinned


def test_numpy_pool_runs_at_one_thread_above_the_crossover(monkeypatch):
    libs = [FakeOpenBLAS("numpy", 2, numpy=True), FakeOpenBLAS("scipy", 2)]
    monkeypatch.setattr(_blas, "_libraries", lambda: tuple(lib.handle() for lib in libs))
    system = _system_above_the_symbol_cap()
    counts_seen = _spy_arpack(monkeypatch)
    monkeypatch.setattr(_blas, "ITERATIVE_ONE_THREAD_MAX_ORDER", system.order - 1)
    singular_extremes(system)
    symbol, sigma_max, sigma_min = counts_seen
    assert sigma_max == symbol == sigma_min == {"numpy": 1, "scipy": 2}
    assert _blas.thread_counts() == {"numpy": 2, "scipy": 2}
    counts_seen.clear()
    monkeypatch.setattr(_blas, "ITERATIVE_ONE_THREAD_MAX_ORDER", system.order)
    singular_extremes(system)
    assert counts_seen == [{"numpy": 1, "scipy": 1}] * 3
    assert _blas.thread_counts() == {"numpy": 2, "scipy": 2}


def test_loaded_numpy_pool_runs_at_one_thread_above_the_crossover(monkeypatch):
    numpy_names = {lib.name for lib in _blas._libraries() if lib.numpy}
    if not numpy_names:
        pytest.skip("numpy ships no OpenBLAS of its own in this process")
    system = _system_above_the_symbol_cap()
    before = _blas.thread_counts()
    counts_seen = _spy_arpack(monkeypatch)
    monkeypatch.setattr(_blas, "ITERATIVE_ONE_THREAD_MAX_ORDER", system.order - 1)
    singular_extremes(system)
    expected = {name: 1 if name in numpy_names else count for name, count in before.items()}
    assert counts_seen == [expected] * 3
    assert _blas.thread_counts() == before
