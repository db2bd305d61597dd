from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.io import mmread
from scipy.linalg import svdvals

from transportlab import (
    GridConfig,
    ap_evolve,
    assemble_ap_system,
    assemble_explicit_system,
    assemble_fourier_matrix,
    explicit_evolve,
    export_matrix_market,
    fourier_symbols,
    gauss_rule,
    initial_kinetic_field,
    initial_parity_field,
    resolve_config,
    schemes,
    singular_extremes,
    sparsity,
)
from transportlab.assembly import (
    split_ap_solution,
    split_explicit_solution,
    system_metadata,
    _time_shift,
)
from transportlab.explicit_scheme import explicit_matrix


def ap_cfg(**kw):
    base = dict(epsilon=0.5, tau=0.004, h=0.1, N=3, N_x=6, N_t=5)
    base.update(kw)
    return GridConfig(**base)


def explicit_cfg(eps=0.4, **kw):
    h = kw.pop("h", 0.1)
    tau = 0.9 * h * eps**2 / (eps + h)
    base = dict(epsilon=eps, tau=tau, h=h, N=3, N_x=6, N_t=5, scheme="explicit")
    base.update(kw)
    return GridConfig(**base)


# --- sparsity helper ----------------------------------------------------


def test_sparsity_counts_rows_and_columns():
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 4.0, 0.0]]))
    assert sparsity(A) == 3  # column 1 has three nonzeros, max row has two


def test_sparsity_ignores_stored_zeros():
    # explicitly stored zero at (0, 1)
    A = sp.csr_matrix((np.array([1.0, 0.0, 1.0, 1.0]),
                       np.array([0, 1, 1, 2]),
                       np.array([0, 2, 3, 4])), shape=(3, 3))
    assert A.nnz == 4
    assert sparsity(A) == 1


def test_sparsity_leaves_its_argument_unchanged():
    # explicitly stored zero at (0, 1)
    A = sp.csr_matrix((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]),
                       np.array([0, 2, 3])), shape=(2, 2))
    data = A.data.copy()
    assert sparsity(A) == 1
    assert A.nnz == 3
    np.testing.assert_array_equal(A.data, data)


# --- all-at-once systems ------------------------------------------------


def test_ap_single_step_system_is_identity():
    cfg = ap_cfg(N_t=1)
    rule = gauss_rule(3, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    system = assemble_ap_system(cfg, rule, init)
    assert (system.L != sp.eye(system.order)).nnz == 0
    solution = spla.spsolve(system.L.tocsc(), system.F)
    np.testing.assert_allclose(solution, system.F, rtol=0)


def test_explicit_single_step_system_is_identity():
    cfg = explicit_cfg(N_t=1)
    rule = gauss_rule(6, -1.0, 1.0)
    system = assemble_explicit_system(cfg, rule, initial_kinetic_field(cfg, rule))
    assert (system.L != sp.eye(system.order)).nnz == 0


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-6])
def test_ap_solve_reproduces_time_stepper(eps):
    cfg = ap_cfg(epsilon=eps, bc_left=0.4)
    rule = gauss_rule(3, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    trajectory = ap_evolve(init, cfg, rule)
    system = assemble_ap_system(cfg, rule, init)
    levels = split_ap_solution(system, spla.spsolve(system.L.tocsc(), system.F))
    for n in range(1, cfg.N_t + 1):
        r, j = levels[n - 1]
        ref = np.concatenate([trajectory.fields[n].r, trajectory.fields[n].j])
        got = np.concatenate([r, j])
        assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_rescaled_solution_is_scaled_copy():
    cfg = ap_cfg()
    rule = gauss_rule(3, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    plain = assemble_ap_system(cfg, rule, init)
    rescaled = assemble_ap_system(cfg, rule, init, rescaled=True)
    S = spla.spsolve(plain.L.tocsc(), plain.F)
    S_tilde = spla.spsolve(rescaled.L.tocsc(), rescaled.F)
    half = plain.order // 2
    np.testing.assert_allclose(S_tilde[:half] * cfg.tau, S[:half], rtol=1e-10)
    np.testing.assert_allclose(S_tilde[half:], S[half:], rtol=1e-10)
    # split_ap_solution undoes the scaling
    lv_plain = split_ap_solution(plain, S)
    lv_rescaled = split_ap_solution(rescaled, S_tilde)
    for (r1, j1), (r2, j2) in zip(lv_plain, lv_rescaled):
        np.testing.assert_allclose(r1, r2, rtol=1e-10)
        np.testing.assert_allclose(j1, j2, rtol=1e-10)


def test_explicit_solve_reproduces_time_stepper():
    cfg = explicit_cfg(bc_left=0.3, bc_right=0.1)
    rule = gauss_rule(6, -1.0, 1.0)
    init = initial_kinetic_field(cfg, rule)
    trajectory = explicit_evolve(init, cfg, rule)
    system = assemble_explicit_system(cfg, rule, init)
    levels = split_explicit_solution(
        system, spla.spsolve(system.L.tocsc(), system.F)
    )
    for n in range(1, cfg.N_t + 1):
        ref = trajectory.fields[n].f
        assert np.linalg.norm(levels[n - 1] - ref) <= 1e-10 * max(
            np.linalg.norm(ref), 1.0
        )


def test_explicit_inverse_bounded_by_power_sum():
    cfg = explicit_cfg(N=2, N_x=5, N_t=6)
    rule = gauss_rule(4, -1.0, 1.0)
    system = assemble_explicit_system(cfg, rule, initial_kinetic_field(cfg, rule))
    L_inv = np.linalg.inv(system.L.toarray())
    B = explicit_matrix(cfg, rule).B.toarray()
    total, power = 0.0, np.eye(B.shape[0])
    for _ in range(cfg.N_t):
        total += np.linalg.norm(power, 2)
        power = power @ B
    assert np.linalg.norm(L_inv, 2) <= total + 1e-10


def test_block_structure_of_ap_system():
    cfg = ap_cfg(N=2, N_x=3, N_t=3)
    rule = gauss_rule(2, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    n = 2 * 3
    L = system.L.toarray()
    for row_block in range(2 * cfg.N_t):
        for col_block in range(2 * cfg.N_t):
            block = L[row_block * n:(row_block + 1) * n,
                      col_block * n:(col_block + 1) * n]
            i, t_i = divmod(row_block, cfg.N_t)
            k, t_k = divmod(col_block, cfg.N_t)
            if row_block == col_block:
                np.testing.assert_allclose(np.diag(block), 1.0)
            elif t_k == t_i - 1:
                pass  # one-step coupling blocks live here
            else:
                assert np.all(block == 0.0), (row_block, col_block)


def test_memory_guard():
    cfg = ap_cfg(N_t=5)
    rule = gauss_rule(3, 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule),
                           order_cap=100)


def test_sparsity_growth_is_linear_in_velocity_count():
    # max nonzeros per row/column grows like c*N; the measured constants
    # are ~9-10 for the relaxation scheme and ~2 for the explicit one
    for N in (2, 4, 8):
        cfg = ap_cfg(N=N, epsilon=1e-3)
        rule = gauss_rule(N, 0.0, 1.0)
        system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule),
                                    rescaled=True)
        s = sparsity(system.L)
        assert s <= 10 * N
        cfg_e = explicit_cfg(N=N)
        rule_e = gauss_rule(2 * N, -1.0, 1.0)
        system_e = assemble_explicit_system(
            cfg_e, rule_e, initial_kinetic_field(cfg_e, rule_e)
        )
        assert sparsity(system_e.L) <= 3 * N
        assert sparsity(system_e.L) == 2 * N + 2


# --- frequency-domain matrices ------------------------------------------


def fourier_cfg(eps=1e-2, **kw):
    base = dict(epsilon=eps, tau=1e-2, h=0.11, N=4, N_x=8, N_t=6)
    base.update(kw)
    return GridConfig(**base)


def test_symbols_at_zero_frequency():
    cfg = fourier_cfg()
    s = fourier_symbols(cfg, 0.7, 0.0)
    assert s.c2 == 0 and s.d2 == 0
    expected = -1.0 / (1.0 + cfg.gamma)
    assert s.c1 == pytest.approx(expected, rel=1e-14)
    assert s.d1 == pytest.approx(expected, rel=1e-14)
    # limit products collapse to -1 and 0
    assert s.gamma0_c1 == pytest.approx(-1.0)
    assert s.gamma0_d2 == 0


def test_symbols_vanish_as_eps_to_zero():
    xi = 0.9 / 0.11
    for v in (0.1, 0.9):
        previous = None
        for eps in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
            s = fourier_symbols(fourier_cfg(eps=eps), v, xi)
            size = max(abs(s.c1), abs(s.c2), abs(s.d1), abs(s.d2))
            if previous is not None:
                assert size < previous
            previous = size
        assert previous < 1e-13


def test_limit_products_bounded_under_step_restriction():
    cfg = fourier_cfg()
    assert cfg.lam + cfg.tau / cfg.h**2 <= 1.0
    rule = gauss_rule(4, 0.0, 1.0)
    for v in rule.nodes:
        for xi in np.linspace(0.0, np.pi, 64) / cfg.h:
            s = fourier_symbols(cfg, v, xi)
            assert abs(s.gamma0_c1) <= 1.0 + 1e-12
            assert cfg.tau * abs(s.gamma0_d2) <= 1.0 + cfg.tau + 1e-12


def test_fourier_matrix_limit_structure():
    cfg = fourier_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    fm = assemble_fourier_matrix(cfg, rule, 0.7 / cfg.h, at_epsilon_zero=True)
    n = cfg.N * cfg.N_t
    assert fm.Ltilde.shape == (2 * n, 2 * n)
    # limit matrix minus identity has nonzeros only in the first block
    # column, with the shift pattern of the weight coupling
    delta = (fm.Ltilde - sp.eye(2 * n)).tocoo()
    assert delta.nnz > 0
    assert np.all(delta.col < n)
    P = _time_shift(cfg.N_t).tocoo()
    for block in range(cfg.N):
        sub = delta.toarray()[block * cfg.N_t:(block + 1) * cfg.N_t, :cfg.N_t]
        assert set(zip(*np.nonzero(sub))) <= set(zip(P.row, P.col))


def test_fourier_matrix_reduces_to_limit():
    cfg_small = fourier_cfg(eps=1e-8)
    rule = gauss_rule(4, 0.0, 1.0)
    fm = assemble_fourier_matrix(cfg_small, rule, 1.3 / cfg_small.h)
    gap = np.abs((fm.Ltilde - fm.Ltilde0).toarray()).max()
    assert gap < 1e-12
    assert np.abs(fm.E.toarray()).max() == gap


def test_weight_and_shift_norms():
    for N in (2, 4, 8):
        rule = gauss_rule(N, 0.0, 1.0)
        W = np.tile(rule.weights, (N, 1))
        assert np.abs(W @ W - W).max() <= 1e-13
        assert np.linalg.norm(W, 2) <= np.sqrt(N) + 1e-12
    for N_t in (2, 5, 9):
        P = _time_shift(N_t)
        assert svdvals(P.toarray())[0] == pytest.approx(1.0, abs=1e-14)


def test_square_system_shapes_and_rhs_scaling():
    cfg = fourier_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    plain = assemble_ap_system(cfg, rule, init)
    rescaled = assemble_ap_system(cfg, rule, init, rescaled=True)
    half = plain.order // 2
    np.testing.assert_allclose(rescaled.F[:half], plain.F[:half] / cfg.tau,
                               rtol=1e-15)
    np.testing.assert_allclose(rescaled.F[half:], plain.F[half:], rtol=0)


# --- matrix market export -----------------------------------------------


def test_export_round_trip(tmp_path):
    cfg = ap_cfg(N_t=2)
    rule = gauss_rule(3, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    path = tmp_path / "L.mtx"
    sidecar = export_matrix_market(system.L, path, system_metadata(system))
    back = mmread(path).tocsr()
    assert (back != system.L).nnz == 0
    assert sidecar.exists()
    import json

    meta = json.loads(sidecar.read_text())
    assert meta["shape"] == [system.order, system.order]
    assert meta["config"]["Nt"] == 2
    # vectors go through the array format
    fpath = tmp_path / "F.mtx"
    export_matrix_market(system.F, fpath, {})
    back_f = np.asarray(mmread(fpath)).ravel()
    np.testing.assert_allclose(back_f, system.F, rtol=1e-15)


def test_export_complex_matrix(tmp_path):
    cfg = fourier_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    fm = assemble_fourier_matrix(cfg, rule, 0.5 / cfg.h)
    path = tmp_path / "Ltilde.mtx"
    export_matrix_market(fm.Ltilde, path, {"xi": fm.xi})
    back = mmread(path).tocsr()
    assert np.abs((back - fm.Ltilde).toarray()).max() < 1e-15


# --- time-marching inverse ------------------------------------------------


def _relative_error(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(["ap", "explicit"]),
    rescaled=st.booleans(),
    log_eps=st.floats(-8.0, 0.0),
    N=st.integers(1, 4),
    Nx=st.integers(1, 8),
    Nt=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_marching_inverse_matches_solves_stepper_and_dense_spectrum(
        scheme, rescaled, log_eps, N, Nx, Nt, seed):
    cfg = resolve_config({"scheme": scheme, "epsilon": 10.0**log_eps,
                          "tau": "auto", "h": 0.1, "N": N, "Nx": Nx, "Nt": Nt})
    stepper = schemes.scheme_for(cfg)
    rule = stepper.rule(cfg)
    initial = stepper.initial(cfg, rule)
    system = stepper.system(cfg, rule, initial, rescaled, 10**6)
    L, inverse = system.L, system.marching_inverse()

    # L^{-1}x and L^{-H}x against sparse direct solves
    x = np.random.default_rng(seed).normal(size=system.order)
    assert _relative_error(inverse.matvec(x),
                           spla.spsolve(L.tocsc(), x)) <= 1e-10
    assert _relative_error(inverse.rmatvec(x),
                           spla.spsolve(L.conj().T.tocsc(), x)) <= 1e-10

    # L^{-1}F split into levels is the stepper's trajectory
    pieces = stepper.split(system, inverse.matvec(system.F))
    levels = stepper.evolve(initial, cfg, rule).fields[1:]
    marched = np.hstack([np.hstack(piece) for piece in pieces])
    stepped = np.hstack([np.hstack([getattr(level, name) for name in ("r", "j", "f")
                                    if hasattr(level, name)])
                         for level in levels])
    assert _relative_error(marched, stepped) <= 1e-10

    # the iterative spectrum through the march, with no factorization
    dense = singular_extremes(L, method="dense")
    if dense.sigma_min > 0.0:
        with mock.patch.object(spla, "splu", side_effect=AssertionError("splu")):
            iterative = singular_extremes(L, method="iterative", inverse=inverse)
        assert iterative.sigma_max == pytest.approx(dense.sigma_max, rel=1e-8)
        assert iterative.sigma_min == pytest.approx(dense.sigma_min, rel=1e-8)

