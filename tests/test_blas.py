import ast
import dataclasses
import threading
from pathlib import Path

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
from transportlab._blas import one_thread


class FakeOpenBLAS:
    """A library's thread count, with a log of every set."""

    def __init__(self, name, count):
        self.name, self.count, self.sets = name, count, []

    def handle(self):
        def set_(n):
            self.sets.append(n)
            self.count = n
        return _blas._OpenBLAS(self.name, lambda: self.count, set_)


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
    singular_values = spectral._singular_values

    def spy(a):
        counts_seen.append(_blas.thread_counts())
        return singular_values(a)

    monkeypatch.setattr(spectral, "_singular_values", spy)
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
        calls.append((_blas.thread_counts(), threading.current_thread()))
        return singular_values(stack)

    monkeypatch.setattr(spectral, "_singular_values", spy)
    # 2 * N * N_t = 128, chunks of 4 matrices: xi 0-3 and xi 4-7; the
    # order-32 reduced matrices fit in one chunk of 16
    cfg = GridConfig(epsilon=0.3, tau=0.004, h=0.1, N=4, N_x=6, N_t=16)
    running = set(threading.enumerate())
    perturbation_check(cfg, gauss_rule(4, 0.0, 1.0), np.linspace(0.0, 1.0, 8))
    # one stacked call for the ||E|| blocks, then one per chunk
    assert len(calls) == 1 + 2 + 1
    assert all(set(counts.values()) <= {1} for counts, _ in calls)
    # the chunks ran off the calling thread, on workers joined on return
    assert calls[0][1] is threading.main_thread()
    workers = [thread for _, thread in calls[1:]]
    assert threading.main_thread() not in workers
    assert not any(worker.is_alive() for worker in workers)
    assert set(threading.enumerate()) == running


def _system_above_the_symbol_cap():
    # order 2 * N * N_x * N_t = 1000, one-step block of m = 200 > DENSE_CAP
    # rows: three Lanczos runs (symbol, sigma_max, sigma_min)
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.3, "tau": "auto",
                          "h": 0.04, "N": 4, "Nx": 25, "Nt": 5})
    return schemes.scheme_for(cfg).assemble(cfg, False)


def _spy_lanczos(monkeypatch):
    """A list that records the OpenBLAS thread counts at each Lanczos run."""
    counts_seen = []
    top_eigenpair = spectral._top_eigenpair

    def spy(*args, **kwargs):
        counts_seen.append(_blas.thread_counts())
        return top_eigenpair(*args, **kwargs)

    monkeypatch.setattr(spectral, "_top_eigenpair", spy)
    return counts_seen


def test_system_spectrum_runs_arpack_at_one_thread(monkeypatch):
    system = _system_above_the_symbol_cap()
    counts_seen = _spy_lanczos(monkeypatch)
    report = singular_extremes(system)
    assert report.method == "iterative" and report.matvecs_symbol > 0
    assert len(counts_seen) == 3
    assert all(set(counts.values()) <= {1} for counts in counts_seen)


def test_system_spectrum_pins_every_pool_above_order_40000(fakes, monkeypatch):
    # order 2 * N * N_x * N_t = 40,392 with a one-step block of m = 792
    # rows: three Lanczos runs on a long explicit row
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.1, "tau": "auto",
                          "h": 0.01, "N": 4, "Nx": 99, "Nt": 51})
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    assert system.order == 40_392
    counts_seen = _spy_lanczos(monkeypatch)
    report = singular_extremes(system)
    assert report.method == "iterative" and report.matvecs_symbol > 0
    assert counts_seen == [{"two": 1, "four": 1, "one": 1}] * 3
    assert _blas.thread_counts() == {"two": 2, "four": 4, "one": 1}
    assert [lib.sets for lib in fakes] == [[1, 2], [1, 4], []]


# the names of ``_blas`` that another module may use: every pin goes
# through ``one_thread``
BLAS_NAMES_OUTSIDE = {"one_thread", "thread_counts"}


def test_only_blas_sets_a_thread_count():
    package = Path(_blas.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "_blas.py":
            continue
        source = path.read_text(encoding="utf-8")
        assert "set_num_threads" not in source, path.name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module is not None \
                    and node.module.split(".")[-1] == "_blas":
                names = {alias.name for alias in node.names}
                assert names <= BLAS_NAMES_OUTSIDE, (path.name, names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "_blas":
                assert node.attr in BLAS_NAMES_OUTSIDE, (path.name, node.attr)
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            assert name != "_libraries", path.name
