import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from transportlab import (
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
)
from transportlab.assembly import DENSE_CAP

# frozen by evaluating the three displayed terms independently by hand:
# 0.5*102.03 + 24.75*1.01 + 75.25*202 = 51.015 + 24.9975 + 15200.5
ALPHA_AT_01_001_4 = 15276.5125


def test_identity_spectrum():
    report = singular_extremes(sp.eye(10))
    assert report.sigma_min == report.sigma_max == 1.0
    assert report.kappa == 1.0
    assert report.sparsity == 1


def test_diagonal_spectrum():
    report = singular_extremes(sp.diags([1.0, 2.0, 3.0]))
    assert report.sigma_min == pytest.approx(1.0)
    assert report.sigma_max == pytest.approx(3.0)
    assert report.kappa == pytest.approx(3.0)


def test_iterative_path_matches_dense():
    rng = np.random.default_rng(42)
    A = sp.csr_matrix(rng.normal(size=(60, 60)) + 10 * np.eye(60))
    dense = singular_extremes(A, method="dense")
    iterative = singular_extremes(A, method="iterative")
    assert iterative.method == "iterative"
    assert iterative.sigma_max == pytest.approx(dense.sigma_max, rel=1e-8)
    assert iterative.sigma_min == pytest.approx(dense.sigma_min, rel=1e-8)
    assert iterative.residual <= 1e-8


def test_auto_method_switches_on_order():
    small = singular_extremes(sp.eye(5))
    assert small.method == "dense"
    large = singular_extremes(sp.eye(DENSE_CAP + 1) * 2.0)
    assert large.method == "iterative"
    assert large.sigma_max == pytest.approx(2.0)
    assert large.sigma_min == pytest.approx(2.0)


def test_iterative_path_on_plain_relaxation_system():
    # the plain (unrescaled) relaxation system at order 512
    cfg = GridConfig(epsilon=1e-3, tau=2e-3, h=0.1, N=2, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(2, 0.0, 1.0)
    L = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule)).L
    assert L.shape == (512, 512)
    dense = singular_extremes(L, method="dense")
    iterative = singular_extremes(L, method="iterative")
    assert iterative.sigma_max == pytest.approx(dense.sigma_max, rel=1e-8)
    assert iterative.sigma_min == pytest.approx(dense.sigma_min, rel=1e-8)
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
    L = schemes.scheme_for(cfg).assemble(cfg, rescaled).L
    dense = singular_extremes(L, method="dense")
    assume(dense.sigma_min > 0.0)
    iterative = singular_extremes(L, method="iterative")
    assert iterative.sigma_max == pytest.approx(dense.sigma_max, rel=1e-8)
    assert iterative.sigma_min == pytest.approx(dense.sigma_min, rel=1e-8)


def test_singular_matrix_flagged_as_infinite_kappa():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    report = singular_extremes(A)
    assert report.sigma_min == 0.0
    assert report.kappa == float("inf")


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        singular_extremes(sp.csr_matrix((0, 0)))
    with pytest.raises(ValueError):
        singular_extremes(sp.eye(1), method="iterative")


def test_inverse_of_another_shape_rejected():
    with pytest.raises(ValueError, match="inverse has shape"):
        singular_extremes(sp.eye(5), inverse=spla.aslinearoperator(sp.eye(4)))


def test_rescaled_system_extremes_have_order_one_constants():
    # sigma_min * sqrt(N) * N_t and sigma_max / sqrt(N) stay within one
    # order of magnitude of 1 deep in the diffusive regime
    cfg = GridConfig(epsilon=1e-6, tau=1e-2, h=0.1, N=4, N_x=8, N_t=16,
                     allow_unstable=True)
    rule = gauss_rule(4, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule),
                                rescaled=True)
    report = singular_extremes(system.L)
    lower_const = report.sigma_min * np.sqrt(4) * 16
    upper_const = report.sigma_max / np.sqrt(4)
    assert 0.1 <= lower_const <= 10.0
    assert 0.1 <= upper_const <= 10.0


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


def test_limit_matrix_norm_bound():
    # sigma_max(limit matrix) <= 1 + (1+tau)*sqrt(N) at every frequency
    rule = gauss_rule(4, 0.0, 1.0)
    cfg = fourier_cfg(1e-3)
    report = perturbation_check(cfg, rule, XI)
    bound = 1.0 + (1.0 + cfg.tau) * np.sqrt(cfg.N)
    assert report.sigma_max_zero.max() <= bound + 1e-10


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


def test_regression_reports_uncertainty():
    rng = np.random.default_rng(0)
    sizes = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    noisy = sizes**2 * np.exp(rng.normal(0, 0.05, sizes.size))
    result = scaling_regression(list(zip(sizes, noisy)))
    assert result.slope == pytest.approx(2.0, abs=0.15)
    assert result.stderr > 0
    assert result.r_squared > 0.99
