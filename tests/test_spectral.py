import ast
import contextlib
import hashlib
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import svdvals
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from transportlab import (
    BlockSystem,
    GridConfig,
    alpha_bound,
    assemble_ap_system,
    gauss_rule,
    initial_parity_field,
    perturbation_check,
    resolve_config,
    scaling_regression,
    schemes,
    singular_extremes,
    sparsity,
)
from transportlab import spectral
from transportlab.assembly import (
    DENSE_BLOCK_CAP,
    FourierSymbols,
    assemble_fourier_matrix,
    fourier_symbols,
    frequency_matrix,
)
from transportlab.spectral import DENSE_CAP, _lanczos_extremes, _real_form, _top_eigenvalue

# frozen by evaluating the three displayed terms independently by hand:
# 0.5*102.03 + 24.75*1.01 + 75.25*202 = 51.015 + 24.9975 + 15200.5
ALPHA_AT_01_001_4 = 15276.5125


def _system_of(M, levels):
    """The space-time system of ``levels`` steps of a chosen one-step
    block M, with L = I - P kron M."""
    M = sp.csr_matrix(M)
    return BlockSystem(M=M, F=np.zeros(levels * M.shape[0]), scale=(1.0,), levels=levels)


def _dense_extremes(system):
    """sigma_min, sigma_max of the system's L by a dense SVD: the reference."""
    values = svdvals(system.L.toarray())
    return values[-1], values[0]


def test_identity_spectrum():
    # M = 0 gives L = I
    report = singular_extremes(_system_of(sp.csr_matrix((5, 5)), 2))
    assert report.sigma_min == report.sigma_max == 1.0
    assert report.kappa == 1.0
    assert report.sparsity == 1


def test_diagonal_spectrum():
    # two levels of M = diag(0, 1.5): 2x2 blocks [[1, 0], [-d, 1]], whose
    # singular values are (sqrt(d^2 + 4) +- d)/2, so 1, 1 and 2, 1/2
    report = singular_extremes(_system_of(sp.diags([0.0, 1.5]), 2))
    assert report.sigma_min == pytest.approx(0.5)
    assert report.sigma_max == pytest.approx(2.0)
    assert report.kappa == pytest.approx(4.0)


def test_iterative_path_matches_dense():
    # a random one-step block of m = 20 rows over 3 levels: order 60
    rng = np.random.default_rng(42)
    system = _system_of(0.3 * rng.normal(size=(20, 20)), 3)
    sigma_min, sigma_max = _dense_extremes(system)
    lanczos_min, lanczos_max, residual, *_ = _lanczos_extremes(system)
    assert lanczos_max == pytest.approx(sigma_max, rel=1e-8)
    assert lanczos_min == pytest.approx(sigma_min, rel=1e-8)
    assert residual <= 1e-8


def test_auto_method_switches_on_order():
    # both schemes have orders 2 * N * N_x * N_t, so no system has order 193
    at_cap = resolve_config({"scheme": "ap", "epsilon": 0.3, "tau": "auto", "h": 0.1,
                             "N": 2, "Nx": 8, "Nt": 6})
    above = resolve_config({"scheme": "explicit", "epsilon": 0.3, "tau": "auto",
                            "h": 0.1, "N": 1, "Nx": 1, "Nt": 97})
    for cfg, order, method in ((at_cap, DENSE_CAP, "dense"),
                               (above, DENSE_CAP + 2, "iterative")):
        system = schemes.scheme_for(cfg).assemble(cfg, True)
        assert system.order == order
        report = singular_extremes(system)
        sigma_min, sigma_max = _dense_extremes(system)
        assert report.method == method
        assert report.sigma_max == pytest.approx(sigma_max, rel=1e-12, abs=0.0)
        assert report.sigma_min == pytest.approx(sigma_min, rel=1e-12, abs=0.0)


def test_iterative_path_on_plain_relaxation_system():
    # the plain (unrescaled) relaxation system at order 512
    cfg = GridConfig(epsilon=1e-3, tau=2e-3, h=0.1, N=2, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(2, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    assert system.order == 512
    sigma_min, sigma_max = _dense_extremes(system)
    iterative = singular_extremes(system)
    assert iterative.method == "iterative"
    assert iterative.sigma_max == pytest.approx(sigma_max, rel=1e-8)
    assert iterative.sigma_min == pytest.approx(sigma_min, rel=1e-8)
    assert isinstance(iterative.sigma_min, float)
    assert isinstance(iterative.kappa, float)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(
    scheme=st.sampled_from(["ap", "explicit"]),
    rescaled=st.booleans(),
    log_eps=st.floats(-8.0, 0.0),
    N=st.integers(1, 4),
    Nx=st.integers(1, 8),
    Nt=st.integers(1, 16),
)
def test_iterative_and_dense_extremes_agree(scheme, rescaled, log_eps, N, Nx, Nt):
    # both schemes stack 2*N*Nx*Nt unknowns
    assume(2 * N * Nx * Nt <= 512)
    cfg = resolve_config({"scheme": scheme, "epsilon": 10.0**log_eps,
                          "tau": "auto", "h": 0.1, "N": N, "Nx": Nx, "Nt": Nt})
    system = schemes.scheme_for(cfg).assemble(cfg, rescaled)
    sigma_min, sigma_max = _dense_extremes(system)
    # not singular to working precision, as singular_extremes flags it
    assume(sigma_min > np.finfo(float).eps * system.order * sigma_max)
    lanczos_min, lanczos_max, *_ = _lanczos_extremes(system)
    assert lanczos_max == pytest.approx(sigma_max, rel=1e-8)
    assert lanczos_min == pytest.approx(sigma_min, rel=1e-8)


def test_singular_matrix_flagged_as_infinite_kappa():
    # two levels of M = 1e20 I: sigma_min ~ 1e-20 is below the
    # eps * order * sigma_max floor
    report = singular_extremes(_system_of(1e20 * sp.eye(3), 2))
    assert report.sigma_max == pytest.approx(1e20)
    assert report.sigma_min == 0.0
    assert report.kappa == float("inf")


def test_empty_matrix_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        singular_extremes(_system_of(sp.eye(3), 0))


def test_only_a_block_system_is_accepted():
    with pytest.raises(TypeError, match=type(sp.eye(3)).__name__):
        singular_extremes(sp.eye(3))
    with pytest.raises(TypeError, match="ndarray"):
        singular_extremes(np.eye(3))


def test_both_paths_report_their_method_and_the_sparsity_of_m():
    # M = diag(0.5) with its last column set to 0.25: that column holds
    # four entries, so sparsity(L) = 1 + 4 on both paths
    M = sp.lil_matrix((4, 4))
    M.setdiag(0.5)
    M[:, 3] = 0.25
    for levels, method in ((3, "dense"), (60, "iterative")):
        system = _system_of(M.tocsr(), levels)
        assert (system.order <= DENSE_CAP) == (method == "dense")
        report = singular_extremes(system)
        assert report.method == method
        assert report.sparsity == 5 == sparsity(system.L)
        sigma_min, sigma_max = _dense_extremes(system)
        assert report.sigma_max == pytest.approx(sigma_max, rel=1e-12, abs=0.0)
        assert report.sigma_min == pytest.approx(sigma_min, rel=1e-12, abs=0.0)


@contextlib.contextmanager
def _spy_products():
    """Yield a list that records the shape of every sparse matrix that
    multiplies with @ inside the block."""
    shapes = []

    def spy(cls):
        original = cls.__matmul__

        def matmul(self, other):
            shapes.append(self.shape)
            return original(self, other)
        return mock.patch.object(cls, "__matmul__", matmul)

    with spy(sp.csr_matrix), spy(sp.csc_matrix):
        yield shapes


def test_system_path_makes_no_product_with_the_matrix():
    # a one-step block of 160 rows, above DENSE_BLOCK_CAP, so its products
    # are sparse ones that the spy sees
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.2, "tau": "auto",
                          "h": 0.02, "N": 2, "Nx": 40, "Nt": 8})
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    assert system.order > DENSE_CAP and system.M.shape[0] > DENSE_BLOCK_CAP
    with _spy_products() as shapes, mock.patch.object(
            spla, "splu", side_effect=AssertionError("splu")):
        report = singular_extremes(system)
    assert "L" not in vars(system)  # the cached L was never built
    assert shapes and system.shape not in shapes
    L = system.L
    with _spy_products() as spied:
        L @ np.ones(system.order)
    assert spied == [L.shape]  # the spy does see products with L
    assert report.method == "iterative"
    assert report.matvecs_max > 0 and report.matvecs_min > 0
    assert report.sparsity == sparsity(L)
    sigma_min, sigma_max = _dense_extremes(system)
    assert report.sigma_max == pytest.approx(sigma_max, rel=1e-12)
    assert report.sigma_min == pytest.approx(sigma_min, rel=1e-12)


def test_dense_block_system_path_builds_no_matrix():
    # a one-step block of 64 rows, at most DENSE_BLOCK_CAP: every product
    # is dense, and neither L nor a factorization is made
    cfg = resolve_config({"scheme": "explicit", "epsilon": 0.2, "tau": "auto",
                          "h": 0.05, "N": 2, "Nx": 16, "Nt": 16})
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    assert system.order > DENSE_CAP and system.M.shape[0] <= DENSE_BLOCK_CAP
    with _spy_products() as shapes, mock.patch.object(
            spla, "splu", side_effect=AssertionError("splu")):
        report = singular_extremes(system)
    assert "L" not in vars(system)  # the cached L was never built
    assert shapes == []
    assert report.method == "iterative"
    sigma_min, sigma_max = _dense_extremes(system)
    assert report.sigma_max == pytest.approx(sigma_max, rel=1e-12)
    assert report.sigma_min == pytest.approx(sigma_min, rel=1e-12)

# the top two singular values of the rescaled relaxation system below,
# from eigsh with k = 6, ncv = 80, tol = 1e-15: a near-double pair
NEAR_DOUBLE_TOP = 18.549335336222246
NEAR_DOUBLE_SECOND = 18.549335336015044


def test_near_double_top_pair_gives_its_top_member():
    # k = 1 Lanczos from a start nearly orthogonal to the top vector
    # returned the second member, 1.1e-11 low, with a residual of 6e-13
    cfg = resolve_config({"scheme": "ap", "epsilon": 1.0, "tau": "auto", "h": 0.05,
                          "N": 4, "Nx": 19, "Nt": 40})
    system = schemes.scheme_for(cfg).assemble(cfg, True)
    assert system.order == 6080
    report = singular_extremes(system)
    assert report.method == "iterative"
    assert report.sigma_max == pytest.approx(NEAR_DOUBLE_TOP, rel=1e-14, abs=0.0)
    assert report.sigma_max != pytest.approx(NEAR_DOUBLE_SECOND, rel=1e-12, abs=0.0)


# repr of sigma_min, sigma_max and kappa of two dense systems of order
# 192, recorded when those SVDs ran on scipy.linalg's LAPACK
@pytest.mark.parametrize("scheme, rescaled, N, Nx, expected", [
    ("ap", True, 4, 6, ("0.01177858602483642", "20.79888168964598", "1765.8216059032293")),
    ("explicit", False, 3, 8, ("0.3526405719132749", "1.8695060249753788",
                               "5.301449050040525")),
], ids=["ap-rescaled", "explicit"])
def test_dense_extremes_keep_their_recorded_bits(scheme, rescaled, N, Nx, expected):
    cfg = resolve_config({"scheme": scheme, "epsilon": 0.3, "tau": "auto", "h": 0.04,
                          "N": N, "Nx": Nx, "Nt": 4})
    report = singular_extremes(schemes.scheme_for(cfg).assemble(cfg, rescaled))
    assert report.method == "dense"
    assert (repr(report.sigma_min), repr(report.sigma_max), repr(report.kappa)) == expected


# sha256 of the symbol's top vector u at the benchmark's m = 64 (N = 4,
# N_x = 8), recorded when that SVD ran on scipy.linalg's LAPACK
@pytest.mark.parametrize("scheme, rescaled, digest", [
    ("ap", True, "a0978d463aceb1c242c669d1e9554f5172cbff776e49013c950a7595e50fad02"),
    ("explicit", False, "b944de22f98e2ac8de25c2e1852ebd233a38f7220eeaf23d8a9eafb977647657"),
], ids=["ap-rescaled", "explicit"])
def test_symbol_top_vector_keeps_its_recorded_bits(scheme, rescaled, digest):
    cfg = resolve_config({"scheme": scheme, "epsilon": 0.3, "tau": "auto", "h": 0.04,
                          "N": 4, "Nx": 8, "Nt": 4})
    M = schemes.scheme_for(cfg).assemble(cfg, rescaled).M
    assert M.shape == (64, 64)
    # as _lanczos_extremes calls it, inside singular_extremes' pin
    with spectral.one_thread():
        u, matvecs = spectral._symbol_top_vector(M)
    assert matvecs == 0
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest


def _package_imports():
    """(file name, the modules an import statement names) for every
    import statement of every module of the package."""
    package = Path(spectral.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield path.name, [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                yield path.name, [node.module] + [f"{node.module}.{alias.name}"
                                                  for alias in node.names]


def test_no_module_imports_scipy_linalg():
    # every dense SVD runs on numpy's LAPACK, the one the manifest records,
    # and every Lanczos run is the module's own loop, not ARPACK's
    banned = ("scipy.linalg", "scipy.sparse.linalg")
    for name, modules in _package_imports():
        assert not any(module == prefix or module.startswith(prefix + ".")
                       for module in modules for prefix in banned), name


def test_no_module_starts_a_thread_of_its_own():
    # threads come from concurrent.futures' pools, which join their workers
    for name, modules in _package_imports():
        assert not {"threading", "_thread"} & {module.split(".")[0] for module in modules}, name


# one-step blocks with m = 32 and m = 200 rows, on either side of
# DENSE_CAP, so the symbol's top vector comes from a dense SVD or ARPACK
@pytest.mark.parametrize("N, Nx", [(2, 8), (4, 25)], ids=["m32", "m200"])
@pytest.mark.parametrize("Nt", [1, 2, 7])
@pytest.mark.parametrize("scheme, rescaled", [("ap", False), ("ap", True),
                                              ("explicit", False)],
                         ids=["ap", "ap-rescaled", "explicit"])
def test_symbol_started_system_path_matches_dense(scheme, rescaled, N, Nx, Nt):
    cfg = resolve_config({"scheme": scheme, "epsilon": 0.3, "tau": "auto", "h": 0.04,
                          "N": N, "Nx": Nx, "Nt": Nt})
    system = schemes.scheme_for(cfg).assemble(cfg, rescaled)
    m = system.M.shape[0]
    sigma_min, sigma_max = _dense_extremes(system)
    lanczos_min, lanczos_max, _, _, _, matvecs_symbol = _lanczos_extremes(system)
    assert (matvecs_symbol > 0) == (m > DENSE_CAP)
    assert lanczos_max == pytest.approx(sigma_max, rel=1e-12, abs=0.0)
    assert lanczos_min == pytest.approx(sigma_min, rel=1e-12, abs=0.0)
    assert lanczos_max / lanczos_min == pytest.approx(sigma_max / sigma_min,
                                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("epsilon", [10.0**-k for k in range(7)])
def test_symbol_start_takes_fewer_applications_than_the_alternating_one(epsilon):
    # the sweep workload's fixed grid: rescaled relaxation, order 1024
    cfg = GridConfig(epsilon=epsilon, tau=9e-3, h=0.1, N=4, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(4, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule), rescaled=True)
    report = singular_extremes(system)
    alternating = np.repeat(np.resize([1.0, -1.0], system.levels), system.M.shape[0])
    lam, _, matvecs = _top_eigenvalue(lambda x: system.apply_h(system.apply(x)),
                                      alternating, "sigma_max")
    assert report.sigma_max == pytest.approx(np.sqrt(lam), rel=1e-12, abs=0.0)
    assert report.matvecs_max < matvecs


def test_rescaled_system_extremes_have_order_one_constants():
    # sigma_min * sqrt(N) * N_t and sigma_max / sqrt(N) stay within one
    # order of magnitude of 1 deep in the diffusive regime
    cfg = GridConfig(epsilon=1e-6, tau=1e-2, h=0.1, N=4, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(4, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule),
                                rescaled=True)
    report = singular_extremes(system)
    lower_const = report.sigma_min * np.sqrt(4) * 16
    upper_const = report.sigma_max / np.sqrt(4)
    assert 0.1 <= lower_const <= 10.0
    assert 0.1 <= upper_const <= 10.0


def _symbol_start(system):
    """The unfiltered sigma_max start of ``_lanczos_extremes`` and L^H L."""
    u, _ = spectral._symbol_top_vector(system.M)
    t = np.arange(system.levels)
    wave = (-1.0) ** t * np.sin(np.pi * (t + 1) / (system.levels + 1))
    return np.kron(wave, u), lambda x: system.apply_h(system.apply(x))


@pytest.mark.parametrize("Nt, filtered", [(32, False), (33, True)],
                         ids=["at-cap", "one-step-above"])
def test_sigma_max_start_is_filtered_only_above_the_filter_cap(Nt, filtered):
    # rescaled relaxation with 2*N*N_x = 88 rows per level: order 2816 is
    # FILTER_CAP itself, and one level more is the next order above it
    cfg = resolve_config({"scheme": "ap", "epsilon": 1e-2, "tau": 2e-3, "h": 0.1,
                          "N": 4, "Nx": 11, "Nt": Nt})
    system = schemes.scheme_for(cfg).assemble(cfg, True)
    assert (system.order > spectral.FILTER_CAP) == filtered
    assert system.order - system.M.shape[0] <= spectral.FILTER_CAP
    _, sigma_max, _, matvecs_max, _, _ = _lanczos_extremes(system)
    start, gram = _symbol_start(system)
    filter_matvecs = 0
    if filtered:
        filter_matvecs = int(np.ceil(spectral.FILTER_DEGREE_PER_LEVEL * Nt))
        assert filter_matvecs == 50
        start = spectral._chebyshev_filtered(gram, start, filter_matvecs)
    lam, _, lanczos_matvecs = _top_eigenvalue(gram, start, "sigma_max")
    assert _bits(sigma_max, float) == _bits(np.sqrt(lam), float)
    assert matvecs_max == filter_matvecs + lanczos_matvecs


@pytest.mark.parametrize("scheme, rescaled, raw", [
    # order 3072 and the spectrum workload's case (a), order 8192
    ("ap", True, {"epsilon": 1.0, "tau": 2e-3, "h": 0.1, "N": 4, "Nx": 16, "Nt": 24}),
    ("ap", True, {"epsilon": 1e-6, "tau": 2e-3, "h": 0.1, "N": 4, "Nx": 16, "Nt": 64}),
    # orders 4096 and 12,152, the latter the workload's case (b)
    ("explicit", False, {"epsilon": 0.5, "tau": "auto", "h": 0.02,
                         "N": 4, "Nx": 32, "Nt": 16}),
    ("explicit", False, {"epsilon": 0.2, "tau": "auto", "h": 0.02,
                         "N": 4, "Nx": 49, "Nt": 31}),
], ids=["ap-rescaled-3072", "ap-rescaled-8192", "explicit-4096", "explicit-12152"])
def test_filtered_sigma_max_is_the_unfiltered_one(scheme, rescaled, raw, monkeypatch):
    # the largest gap measured, in 79 runs on systems of both schemes of
    # order 1,024 to 12,152, was 3.2e-15 relative; sigma_min is the same run
    cfg = resolve_config({"scheme": scheme, **raw})
    system = schemes.scheme_for(cfg).assemble(cfg, rescaled)
    assert system.order > spectral.FILTER_CAP
    filtered = _lanczos_extremes(system)
    monkeypatch.setattr(spectral, "FILTER_CAP", system.order)
    plain = _lanczos_extremes(system)
    assert filtered[1] == pytest.approx(plain[1], rel=1e-14, abs=0.0)
    assert _bits(filtered[0], float) == _bits(plain[0], float)
    assert filtered[2] <= spectral.LANCZOS_TOL and plain[2] <= spectral.LANCZOS_TOL
    assert filtered[4:] == plain[4:]  # the sigma_min and symbol counts


def _overflowing_system():
    """A rescaled relaxation system of order 3072, above FILTER_CAP, with
    one entry of M set to 1e300: L^H L overflows on the symbol start."""
    cfg = resolve_config({"scheme": "ap", "epsilon": 1.0, "tau": 2e-3, "h": 0.1,
                          "N": 4, "Nx": 16, "Nt": 24})
    system = schemes.scheme_for(cfg).assemble(cfg, True)
    assert system.order > spectral.FILTER_CAP and system.M.shape[0] <= DENSE_CAP
    system.M.data[0] = 1e300
    return system


def test_a_start_that_is_not_finite_fails_before_arpack(monkeypatch):
    # unfiltered, the Lanczos run gets the inf products; the filter must
    # fail first, with its own message
    def refuse(*args, **kwargs):
        raise AssertionError("Lanczos called")

    system = _overflowing_system()
    monkeypatch.setattr(spectral, "_top_eigenpair", refuse)
    with pytest.raises(RuntimeError, match="sigma_max start") as info:
        singular_extremes(system)
    assert not isinstance(info.value, spla.ArpackError)


def test_the_cli_reports_a_start_that_is_not_finite_as_a_numerical_failure(
        tmp_path, monkeypatch, capsys):
    from transportlab import cli
    from transportlab.schemes import Scheme

    system = _overflowing_system()
    monkeypatch.setattr(Scheme, "assemble", lambda self, cfg, rescaled: system)
    config = tmp_path / "config.json"
    config.write_text('{"scheme": "ap", "epsilon": 1.0, "tau": 0.002, "h": 0.1, '
                      '"N": 4, "Nx": 16, "Nt": 24}', encoding="utf-8")
    # the block has at most DENSE_BLOCK_CAP rows, so its products are dense
    # and overflow in numpy's matmul; a warning printed ahead of the
    # message would hide it from a reader of stderr's first line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["spectrum", "--rescaled", "--config", str(config),
                         "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: the Rayleigh quotient of the sigma_max start is")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "out" / "spectrum.csv").exists()


def test_a_sigma_max_that_is_not_finite_fails_with_a_true_message():
    # order 240, below FILTER_CAP: L^H L of M = 1e200 I overflows on its
    # first application, which the Lanczos run must never use
    with pytest.raises(RuntimeError, match="application 1 .* is not finite") as info:
        singular_extremes(_system_of(1e200 * sp.eye(8), 30))
    assert not isinstance(info.value, spla.ArpackError)


def _unstable_upwind_system(Nx, Nt, epsilon):
    """An upwind system past the step limit, as a fixed_grid sweep row
    builds it, whose L^{-1} march overflows float64."""
    cfg = resolve_config({"scheme": "explicit", "epsilon": epsilon, "tau": 0.0375,
                          "h": 0.1, "N": 2, "Nx": Nx, "Nt": Nt}, allow_unstable=True)
    return schemes.scheme_for(cfg).assemble(cfg, False)


# order 960: (L^H L)^{-1} overflows in its residual's norm, in the
# Lanczos run's second application and in its first
@pytest.mark.parametrize("Nx, Nt, epsilon, made", [
    (8, 30, 3e-3, 13), (4, 60, 1.01e-2, 2), (4, 60, 3e-3, 1),
], ids=["residual", "second", "first"])
def test_an_overflowing_inverse_flags_the_row_singular(Nx, Nt, epsilon, made,
                                                       monkeypatch, capfd):
    system = _unstable_upwind_system(Nx, Nt, epsilon)
    residuals = []

    def spy(apply_op, v0, stage):
        result = _top_eigenvalue(apply_op, v0, stage)
        residuals.append(result[1])
        return result

    monkeypatch.setattr(spectral, "_top_eigenvalue", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = singular_extremes(system)
    assert report.method == "iterative"
    assert (report.sigma_min, report.kappa) == (0.0, float("inf"))
    # the sigma_max stage's residual, and the applications the sigma_min
    # run made, the one that overflowed included
    assert np.isfinite(residuals[0]) and report.residual == residuals[0]
    assert report.matvecs_min == made
    # nothing printed by a run on a value that is not finite
    assert capfd.readouterr() == ("", "")


def _counted(apply_op):
    """``apply_op`` and the list of copies of the vectors it was applied to."""
    applied = []

    def counted(x):
        applied.append(x.copy())
        return apply_op(x)
    return counted, applied


def test_a_breakdown_ends_the_run_with_the_exact_value():
    # the start spans the eigenvectors (1, 1, 0, 0, 0, 0) and (0, 0, 1, 1,
    # 0, 0), so beta_2 = 0 exactly: T_2 = [[2, 1], [1, 2]] holds the top
    # eigenvalue 3, and a third step would divide by zero
    d = np.array([3.0, 3.0, 1.0, 1.0, 2.0, 2.0])
    apply_op, applied = _counted(lambda x: d * x)
    theta, x, made = spectral._top_eigenpair(apply_op, np.array([1.0, 1, 1, 1, 0, 0]),
                                             "sigma_max")
    assert made == len(applied) == 2
    assert theta == pytest.approx(3.0, rel=1e-15, abs=0.0)
    assert np.abs(x) == pytest.approx(np.array([1.0, 1, 0, 0, 0, 0]) / np.sqrt(2),
                                      abs=1e-15)


# the sweep workload's fixed grid (m = 64, below DENSE_CAP, so the
# sigma_max run comes first) and a one-step block of m = 200 rows, above
# it, so the symbol's run comes first
@pytest.mark.parametrize("raw, stage, steps", [
    ({"scheme": "ap", "epsilon": 0.1, "tau": 9e-3, "h": 0.1, "N": 4, "Nx": 8, "Nt": 16},
     "sigma_max", 11),
    ({"scheme": "explicit", "epsilon": 0.3, "tau": "auto", "h": 0.04, "N": 4, "Nx": 25,
      "Nt": 5}, "symbol", 2),
], ids=["sigma_max", "symbol"])
def test_a_run_at_its_step_cap_fails_naming_its_stage(raw, stage, steps, monkeypatch):
    cfg = resolve_config(raw, allow_unstable=True)
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    monkeypatch.setattr(spectral, "LANCZOS_STEPS_PER_ORDER", 0.01)
    with pytest.raises(RuntimeError,
                       match=f"^the {stage} Lanczos run did not converge in {steps} steps$"):
        singular_extremes(system)


def _sweep_row():
    """The sweep workload's fixed-grid system at eps = 1e-3: rescaled
    relaxation, order 1,024, whose sigma_min run takes 12 steps and whose
    sigma_max run takes 32."""
    cfg = GridConfig(epsilon=1e-3, tau=9e-3, h=0.1, N=4, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(4, 0.0, 1.0)
    return assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule), rescaled=True)


def test_a_run_within_the_kept_vectors_makes_one_application_a_step():
    system = _sweep_row()
    apply_op, applied = _counted(lambda x: system.solve(system.solve_h(x)))
    _, _, made = spectral._top_eigenpair(apply_op, np.ones(system.order), "sigma_min")
    assert made == len(applied) <= spectral.LANCZOS_KEPT
    # no second pass: no vector is applied twice
    assert len({vector.tobytes() for vector in applied}) == made


def test_a_longer_run_regenerates_the_vectors_it_did_not_keep(monkeypatch):
    system = _sweep_row()
    start, gram = _symbol_start(system)
    apply_op, applied = _counted(gram)
    theta, x, made = spectral._top_eigenpair(apply_op, start, "sigma_max")
    kept = spectral.LANCZOS_KEPT
    monkeypatch.setattr(spectral, "LANCZOS_KEPT", 10**6)  # keep every vector
    every_op, every_applied = _counted(gram)
    theta_every, x_every, steps = spectral._top_eigenpair(every_op, start, "sigma_max")
    assert steps == len(every_applied) > kept
    assert made == len(applied) == 2 * steps - kept
    # the second pass applies v_{kept-1}, ..., v_{k-2} again, bit for bit
    assert [v.tobytes() for v in applied[steps:]] == \
        [v.tobytes() for v in applied[kept - 1:steps - 1]]
    assert _bits(theta, float) == _bits(theta_every, float)
    assert np.max(np.abs(x - x_every)) <= 1e-14


def test_a_run_stops_before_a_copy_of_its_value_spoils_its_ritz_vector():
    # order 18: the sigma_min run converges at step 9 or 10, and lost
    # orthogonality makes a copy of its value in T_k from step 11 on.
    # Tested every 4 steps it passed at step 20, where the top eigenvector
    # of T_20 mixed the two copies: a true residual of 0.023
    cfg = resolve_config({"scheme": "explicit", "epsilon": 10**-0.375, "tau": "auto",
                          "h": 0.1, "N": 1, "Nx": 1, "Nt": 9})
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    assert system.order == 18
    sigma_min, sigma_max = _dense_extremes(system)
    lanczos_min, lanczos_max, residual, _, matvecs_min, _ = _lanczos_extremes(system)
    assert lanczos_min == pytest.approx(sigma_min, rel=1e-12, abs=0.0)
    assert matvecs_min <= 10 and residual <= spectral.LANCZOS_TOL


# a plain relaxation system of order 576, above DENSE_CAP, whose top
# singular value the iterative path misses: L's block M commutes with
# diag(R, -R), R the reflection in x, and the sigma_max start
# kron(wave, u) overlaps the top right singular vector by 1.4e-10, so the
# Krylov space never reaches it.  sigma_max reads 2.025910726959799
# against the dense 2.0259213064087427, 5.2e-6 low, with a residual of
# 9.0e-14 and no error
@pytest.mark.xfail(strict=True, reason="the sigma_max start of this order-576 system "
                   "overlaps its top right singular vector by 1.4e-10 (M commutes with "
                   "diag(R, -R)), so the Lanczos run returns a lower singular value")
def test_a_start_blind_to_the_top_singular_vector_misses_it():
    cfg = resolve_config({"scheme": "ap", "epsilon": 0.4216965034285822, "tau": "auto",
                          "h": 0.1, "N": 3, "Nx": 12, "Nt": 8})
    system = schemes.scheme_for(cfg).assemble(cfg, False)
    assert system.order == 576 > DENSE_CAP
    report = singular_extremes(system)
    assert report.method == "iterative" and report.residual <= spectral.LANCZOS_TOL
    _, sigma_max = _dense_extremes(system)
    assert report.sigma_max == pytest.approx(sigma_max, rel=1e-12, abs=0.0)


# --- alpha --------------------------------------------------------------


def test_alpha_vanishes_at_zero():
    for tau, N in ((1e-2, 4), (0.3, 2), (1.0, 16)):
        assert alpha_bound(0.0, tau, N) == 0.0


def test_alpha_frozen_value():
    assert alpha_bound(1e-1, 1e-2, 4) == pytest.approx(ALPHA_AT_01_001_4, rel=1e-12)


def test_alpha_monotone_on_grid():
    grid = np.logspace(-6, -1, 20)
    values = [alpha_bound(e, 1e-2, 4) for e in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_alpha_rejects_bad_arguments():
    with pytest.raises(ValueError):
        alpha_bound(0.1, 0.0, 4)
    with pytest.raises(ValueError):
        alpha_bound(-0.1, 0.01, 4)
    for epsilon in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            alpha_bound(epsilon, 0.01, 4)
    with pytest.raises(ValueError, match="float range at epsilon = 1e\\+100"):
        alpha_bound(1e100, 0.01, 4)


# --- perturbation sweep ---------------------------------------------------


def fourier_cfg(eps):
    return GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=4, N_x=8, N_t=16)


XI = np.linspace(0.0, np.pi, 64) / 0.11


def test_perturbation_vanishes_in_the_limit():
    report = perturbation_check(fourier_cfg(1e-8), gauss_rule(4, 0.0, 1.0), XI)
    assert report.e_norms.max() < 1e-12


def test_perturbation_within_alpha_and_weyl_holds():
    rule = gauss_rule(4, 0.0, 1.0)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        report = perturbation_check(fourier_cfg(eps), rule, XI)
        assert report.max_ratio <= 10.0
        assert report.weyl_slack <= 1e-10


# the largest relative gap measured over these 54 frequencies, on both
# paths: 2.3e-15
@pytest.mark.parametrize("N_t, method", [(16, "dense"), (48, "iterative")])
def test_a_per_frequency_block_is_measured_as_a_block_system(N_t, method):
    # up to the permutation between node-major and time-major order,
    # L~_eps = I + X_eps kron P is the space-time matrix of N_t steps of
    # the block -X_eps, here in its real form with the same singular values
    rule = gauss_rule(4, 0.0, 1.0)
    xi = np.linspace(0.0, np.pi, 9) / 0.11
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=4, N_x=8, N_t=N_t)
        report = perturbation_check(cfg, rule, xi)
        blocks = _real_form(assemble_fourier_matrix(cfg, rule, xi).X_eps)
        for k, X in enumerate(blocks):
            system = BlockSystem(M=sp.csr_matrix(-X), F=np.zeros(N_t * X.shape[0]),
                                 scale=(1.0,), levels=N_t)
            measured = singular_extremes(system)
            assert measured.method == method
            assert measured.sigma_max == pytest.approx(report.sigma_max_eps[k], rel=1e-14)
            assert measured.sigma_min == pytest.approx(report.sigma_min_eps[k], rel=1e-14)


def test_limit_matrix_norm_bound():
    # sigma_max(limit matrix) <= 1 + (1+tau)*sqrt(N) at every frequency
    rule = gauss_rule(4, 0.0, 1.0)
    cfg = fourier_cfg(1e-3)
    report = perturbation_check(cfg, rule, XI)
    bound = 1.0 + (1.0 + cfg.tau) * np.sqrt(cfg.N)
    assert report.sigma_max_zero.max() <= bound + 1e-10


def test_perturbation_check_rejects_no_frequencies():
    with pytest.raises(ValueError, match="xi_values must be nonempty"):
        perturbation_check(fourier_cfg(1e-2), gauss_rule(4, 0.0, 1.0), [])


@pytest.mark.parametrize("xi_values, message", [
    ([0.0, float("nan")], "xi_values must be finite"),
    ([1.0, float("inf")], "xi_values must be finite"),
    ([-float("inf")], "xi_values must be finite"),
    (1.0, r"xi_values must be a 1-D array, got shape \(\)"),
    ([[0.0, 1.0], [2.0, 3.0]], r"xi_values must be a 1-D array, got shape \(2, 2\)"),
], ids=["nan", "inf", "-inf", "scalar", "2-D"])
def test_perturbation_check_rejects_bad_frequencies_before_any_work(
        xi_values, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("decomposed before the frequencies were checked")

    monkeypatch.setattr(spectral, "_singular_values", never)
    monkeypatch.setattr(spectral, "assemble_fourier_matrix", never)
    with pytest.raises(ValueError, match=message):
        perturbation_check(fourier_cfg(1e-2), gauss_rule(4, 0.0, 1.0), xi_values)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-3])
def test_perturbation_check_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
        tolerance):
    with pytest.raises(ValueError, match="weyl_tolerance must be finite and nonnegative"):
        perturbation_check(fourier_cfg(1e-2), gauss_rule(4, 0.0, 1.0), XI[:4],
                           weyl_tolerance=tolerance)


def test_a_nan_weyl_slack_fails_the_sandwich(monkeypatch):
    # NaN compares False both ways: the sandwich must read it as violated
    cfg = fourier_cfg(1e-2)
    order = 2 * cfg.N * cfg.N_t
    original = spectral._singular_values

    def nan_for_the_frequency_matrices(stack):
        values = original(stack)
        return (np.full_like(values, np.nan) if np.shape(stack)[-2:] == (order, order)
                else values)

    monkeypatch.setattr(spectral, "_singular_values", nan_for_the_frequency_matrices)
    with pytest.raises(RuntimeError, match="sandwich violated by nan"):
        perturbation_check(cfg, gauss_rule(4, 0.0, 1.0), XI[:4])


def test_both_threads_write_every_frequency_in_order_under_frequent_switches():
    # a thread switch every microsecond interleaves the two threads' chunks
    # as finely as it can: a lost or misplaced write would change the bits
    cfg = GridConfig(epsilon=1e-3, tau=1e-2, h=0.11, N=4, N_x=8, N_t=16)
    rule = gauss_rule(4, 0.0, 1.0)
    want = _reference_check(cfg, rule, XI)[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = perturbation_check(cfg, rule, XI)
    finally:
        sys.setswitchinterval(interval)
    got = (report.e_norms, report.sigma_max_eps, report.sigma_min_eps,
           report.sigma_max_zero, report.sigma_min_zero)
    for a, b in zip(got, want):
        assert _bits(a, float) == _bits(b, float)


def test_an_exception_of_the_helper_thread_reaches_the_caller_unchanged(monkeypatch):
    raised = MemoryError("the helper's own")
    original = spectral._singular_values
    helpers = []

    def fail_off_the_calling_thread(stack):
        if threading.current_thread() is not threading.main_thread():
            helpers.append(threading.current_thread())
            raise raised
        return original(stack)

    monkeypatch.setattr(spectral, "_singular_values", fail_off_the_calling_thread)
    running = set(threading.enumerate())
    with pytest.raises(MemoryError) as caught:
        perturbation_check(fourier_cfg(1e-2), gauss_rule(4, 0.0, 1.0), XI)
    assert caught.value is raised
    # the chunks ran off the calling thread, and every helper was joined
    assert helpers and not any(helper.is_alive() for helper in helpers)
    assert set(threading.enumerate()) == running


def _scalar_symbols(cfg, v_k, xi):
    """One node's symbols at one frequency in Python scalar arithmetic
    (a Python complex divided by a float divides each part exactly): the
    reference whose bits every broadcast evaluation must reproduce."""
    tau, lam, h = cfg.tau, cfg.lam, cfg.h
    eps2 = cfg.epsilon**2
    g = (1.0 - lam * v_k) + lam * v_k * np.cos(xi * h)
    s = 1j * lam * v_k * np.sin(xi * h)
    s2 = s * s
    beta = eps2 / (eps2 + tau)
    beta2_mu = eps2 * (1.0 - eps2) / (eps2 + tau) ** 2
    gbeta = tau / (eps2 + tau)
    gbeta2_mu = tau * (1.0 - eps2) / (eps2 + tau) ** 2
    return FourierSymbols(
        c1=-beta * g - beta2_mu * s2, c2=beta * s, d1=-beta * g,
        d2=beta2_mu * g * s + beta * s,
        gamma_c1=-gbeta * g - gbeta2_mu * s * s,
        gamma_d2=gbeta2_mu * g * s + gbeta * s,
        gamma0_c1=-g - s2 / tau, gamma0_d2=g * s / tau + s)


def _bits(values, dtype):
    return np.asarray(values, dtype=dtype).tobytes()


def _reference_check(cfg, rule, xi_values):
    """perturbation_check's symbols and five arrays, one xi at a time:
    scalar symbols, np.block blocks, np.eye + np.kron frequency matrices
    and one svdvals or qr per matrix."""
    N, N_t, tau = cfg.N, cfg.N_t, cfg.tau
    W = np.tile(rule.weights, (N, 1))
    zero = np.zeros((N, N))
    z = np.concatenate([rule.weights, np.zeros(N)])
    P = np.eye(N_t, k=-1)
    symbols, rows = [], []

    def real_form(X):
        return np.block([[X[:N, :N].real, -X[:N, N:].imag],
                         [X[N:, :N].imag, X[N:, N:].real]])

    for xi in xi_values:
        syms = [_scalar_symbols(cfg, v, xi) for v in rule.nodes]
        symbols.append(syms)
        c1, c2, d1, d2, gc1, gd2, g0c1, g0d2 = np.array(
            [[getattr(s, f.name) for f in fields(FourierSymbols)] for s in syms],
            dtype=complex).T
        X_eps = real_form(np.block([
            [np.diag(c1) + gc1[:, None] * W, np.diag(c2) / tau],
            [tau * (np.diag(d2) + gd2[:, None] * W), np.diag(d1)]]))
        X_zero = real_form(np.block([[g0c1[:, None] * W, zero],
                                     [tau * (g0d2[:, None] * W), zero]]))
        vals_eps = svdvals(np.eye(2 * N * N_t) + np.kron(X_eps, P))
        e_norm = svdvals(X_eps - X_zero)[0] * (1.0 if N_t > 1 else 0.0)
        Q = np.linalg.qr(np.column_stack([X_zero[:, 0], z]))[0]
        vals_zero = svdvals(np.eye(2 * N_t) + np.kron(Q.T @ X_zero @ Q, P))
        rows.append((e_norm, vals_eps[0], vals_eps[-1], vals_zero[0], vals_zero[-1]))
    e_norms, smax_e, smin_e, smax_0, smin_0 = np.array(rows).T
    if N > 1:
        smax_0, smin_0 = np.maximum(smax_0, 1.0), np.minimum(smin_0, 1.0)
    return symbols, (e_norms, smax_e, smin_e, smax_0, smin_0)


@pytest.mark.parametrize("N, N_t, epsilons", [
    (4, 16, (1e-2, 1e-3, 1e-4)),  # the benchmark's fourier workload
    (1, 16, (0.3, 1e-3)),         # no complement to pad with 1s
    (4, 1, (0.3, 1e-3)),          # P = 0
])
def test_perturbation_check_is_the_per_xi_reference_bit_for_bit(N, N_t, epsilons):
    rule = gauss_rule(N, 0.0, 1.0)
    for eps in epsilons:
        cfg = GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=N, N_x=8, N_t=N_t)
        report = perturbation_check(cfg, rule, XI)
        symbols, arrays = _reference_check(cfg, rule, XI)
        got = (report.e_norms, report.sigma_max_eps, report.sigma_min_eps,
               report.sigma_max_zero, report.sigma_min_zero)
        for name, a, b in zip(("e_norms", "sigma_max_eps", "sigma_min_eps",
                               "sigma_max_zero", "sigma_min_zero"), got, arrays):
            assert _bits(a, float) == _bits(b, float), (eps, name)
        for f in fields(FourierSymbols):
            want = [[getattr(s, f.name) for s in row] for row in symbols]
            assert _bits(getattr(report.symbols, f.name), complex) == _bits(want, complex), \
                (eps, f.name)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0)])
def test_broadcast_symbols_are_the_scalar_bits(a, b):
    # the nodes on (-1, 1) have both signs, so signed zeros show too
    rule = gauss_rule(6, a, b)
    xi_values = np.linspace(-np.pi, np.pi, 257) / 0.11
    for eps in (0.5, 1e-2, 1e-3, 1e-4, 1e-8):
        cfg = GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=6, N_x=8, N_t=4)
        broadcast = fourier_symbols(cfg, rule.nodes, xi_values[:, None])
        for f in fields(FourierSymbols):
            got = getattr(broadcast, f.name)
            assert got.shape == (xi_values.size, rule.n_points)
            for one_call in (_scalar_symbols, fourier_symbols):
                want = [[getattr(one_call(cfg, v, xi), f.name) for v in rule.nodes]
                        for xi in xi_values]
                assert _bits(got, complex) == _bits(want, complex), (eps, f.name)


def test_perturbation_check_holds_no_matrix_per_frequency():
    # a stack of the order-2N*N_t frequency matrices would add one such
    # matrix per xi; the stacked 2N x 2N blocks add a few kB
    cfg = fourier_cfg(1e-3)
    rule = gauss_rule(4, 0.0, 1.0)
    one_matrix = (2 * cfg.N * cfg.N_t) ** 2 * np.dtype(float).itemsize

    def peak(count):
        xi_values = np.linspace(0.0, np.pi, count) / cfg.h
        tracemalloc.start()
        try:
            perturbation_check(cfg, rule, xi_values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations of numpy and scipy
    assert peak(64) - peak(8) <= one_matrix


def test_perturbation_check_peak_grows_by_a_few_blocks_per_frequency():
    # at N = 4 a frequency's symbols and complex X_eps, X_zero hold
    # 2.5 kB, its real forms 1 kB.  Measured growth of the tracemalloc
    # peak from 64 to 256 xi: 2.24 kB per xi with the complex stacks
    # dropped as their real forms are made and the blocks written in
    # place, 3.83 kB with both complex stacks held through the ||E|| SVDs
    cfg = fourier_cfg(1e-3)
    rule = gauss_rule(4, 0.0, 1.0)

    def peak(count):
        xi_values = np.linspace(0.0, np.pi, count) / cfg.h
        tracemalloc.start()
        try:
            perturbation_check(cfg, rule, xi_values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations of numpy and scipy
    assert (peak(256) - peak(64)) / 192 <= 2600


@pytest.mark.parametrize("N_t", [1, 2, 3, 16])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_real_and_reduced_spectra_match_the_complex_matrices(N, N_t):
    # the full complex L~_eps and L~_0 are the reference; N = 1 has no
    # complement to pad with 1s, N_t = 1 has P = 0
    rule = gauss_rule(N, 0.0, 1.0)
    xi_values = np.linspace(0.0, np.pi, 9) / 0.11
    for eps in (1.0, 0.3, 1e-2, 1e-4, 1e-7):
        cfg = GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=N, N_x=8, N_t=N_t)
        report = perturbation_check(cfg, rule, xi_values)
        for i, xi in enumerate(xi_values):
            fm = assemble_fourier_matrix(cfg, rule, xi)
            vals_eps = svdvals(frequency_matrix(fm.X_eps, N_t))
            vals_zero = svdvals(frequency_matrix(fm.X_zero, N_t))
            e_norm = svdvals(fm.X_eps - fm.X_zero)[0] if N_t > 1 else 0.0
            for got, want in (
                (report.e_norms[i], e_norm),
                (report.sigma_max_eps[i], vals_eps[0]),
                (report.sigma_min_eps[i], vals_eps[-1]),
                (report.sigma_max_zero[i], vals_zero[0]),
                (report.sigma_min_zero[i], vals_zero[-1]),
            ):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_real_form_rejects_a_stray_part():
    X = np.block([[np.ones((2, 2)), 1j * np.ones((2, 2))],
                  [2j * np.ones((2, 2)), 3 * np.ones((2, 2))]])
    assert np.array_equal(_real_form(X), np.block([
        [np.ones((2, 2)), -np.ones((2, 2))],
        [2 * np.ones((2, 2)), 3 * np.ones((2, 2))]]))
    for row, col, stray in ((0, 1, 1e-300j), (3, 2, 1e-300j),
                            (0, 3, 1e-300), (2, 1, 1e-300)):
        bad = X.copy()
        bad[row, col] += stray
        with pytest.raises(ValueError, match="not real"):
            _real_form(bad)


# --- regression ----------------------------------------------------------


def test_regression_exact_linear():
    points = [(n, float(n)) for n in (8, 16, 32, 64)]
    result = scaling_regression(points)
    assert result.slope == pytest.approx(1.0, abs=1e-12)
    assert result.stderr == pytest.approx(0.0, abs=1e-12)


def test_regression_exact_square_root():
    points = [(n, np.sqrt(n)) for n in (2, 4, 8, 16)]
    result = scaling_regression(points)
    assert result.slope == pytest.approx(0.5, abs=1e-12)


def test_regression_requires_enough_spread():
    with pytest.raises(ValueError):
        scaling_regression([(1, 1.0), (2, 2.0), (3, 3.0)])
    with pytest.raises(ValueError):
        scaling_regression([(10, 1.0), (12, 1.1), (14, 1.2), (16, 1.3)])


@pytest.mark.parametrize("point", [(8, float("nan")), (8, float("inf")),
                                   (float("inf"), 8.0), (float("nan"), 8.0)])
def test_regression_rejects_a_point_that_is_not_finite(point):
    points = [(1, 1.0), (2, 2.0), (4, 4.0), point]
    with pytest.raises(ValueError, match="finite") as info:
        scaling_regression(points)
    assert repr((float(point[0]), float(point[1]))) in str(info.value)


def test_regression_reports_uncertainty():
    rng = np.random.default_rng(0)
    sizes = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    noisy = sizes**2 * np.exp(rng.normal(0, 0.05, sizes.size))
    result = scaling_regression(list(zip(sizes, noisy)))
    assert result.slope == pytest.approx(2.0, abs=0.15)
    assert result.stderr > 0
    assert result.r_squared > 0.99
