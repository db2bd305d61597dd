from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from scipy.io import mmread
from scipy.linalg import svdvals

from transportlab import (
    GridConfig,
    assembly,
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
    perturbation_check,
    resolve_config,
    schemes,
    sparsity,
    spectral,
)
from transportlab.assembly import (
    frequency_matrix,
    _time_shift,
)
from transportlab.ap_scheme import ap_step_matrices
from transportlab.model import config_as_dict
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
    levels = system.split(spla.spsolve(system.L.tocsc(), system.F))
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
    # split undoes the scaling, with the bits of S1 * tau
    lv_plain = plain.split(S)
    lv_rescaled = rescaled.split(S_tilde)
    assert np.array_equal(np.concatenate([r for r, _ in lv_rescaled]),
                          S_tilde[:half] * cfg.tau)
    assert np.array_equal(np.concatenate([j for _, j in lv_rescaled]), S_tilde[half:])
    for (r1, j1), (r2, j2) in zip(lv_plain, lv_rescaled):
        np.testing.assert_allclose(r1, r2, rtol=1e-10)
        np.testing.assert_allclose(j1, j2, rtol=1e-10)


def test_explicit_solve_reproduces_time_stepper():
    cfg = explicit_cfg(bc_left=0.3, bc_right=0.1)
    rule = gauss_rule(6, -1.0, 1.0)
    init = initial_kinetic_field(cfg, rule)
    trajectory = explicit_evolve(init, cfg, rule)
    system = assemble_explicit_system(cfg, rule, init)
    levels = [f for (f,) in system.split(spla.spsolve(system.L.tocsc(), system.F))]
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


def test_memory_guard(monkeypatch):
    cfg = ap_cfg(N_t=5)
    rule = gauss_rule(3, 0.0, 1.0)
    monkeypatch.setattr(assembly, "ORDER_CAP", 100)
    with pytest.raises(ValueError, match="exceeds the cap ORDER_CAP = 100"):
        assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))


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
    fm = assemble_fourier_matrix(cfg, rule, 0.7 / cfg.h)
    N = cfg.N
    assert fm.X_zero.shape == fm.X_eps.shape == (2 * N, 2 * N)
    # the limit block couples only through the weights: its second block
    # column is zero and it has rank one (W = 1 w^T)
    assert not fm.X_zero[:, N:].any()
    assert np.linalg.matrix_rank(fm.X_zero) <= 1
    L0 = frequency_matrix(fm.X_zero, cfg.N_t)
    n = N * cfg.N_t
    assert L0.shape == (2 * n, 2 * n)
    # limit matrix minus identity has nonzeros only in the first block
    # column, each N_t x N_t block on the shift pattern
    delta = L0 - np.eye(2 * n)
    assert np.count_nonzero(delta) > 0
    assert not delta[:, n:].any()
    P = _time_shift(cfg.N_t).tocoo()
    pattern = set(zip(P.row, P.col))
    for row in range(2 * N):
        for col in range(2 * N):
            sub = delta[row * cfg.N_t:(row + 1) * cfg.N_t,
                        col * cfg.N_t:(col + 1) * cfg.N_t]
            assert set(zip(*np.nonzero(sub))) <= pattern


def test_fourier_matrix_reduces_to_limit():
    cfg_small = fourier_cfg(eps=1e-8)
    rule = gauss_rule(4, 0.0, 1.0)
    fm = assemble_fourier_matrix(cfg_small, rule, 1.3 / cfg_small.h)
    L_eps = frequency_matrix(fm.X_eps, cfg_small.N_t)
    L0 = frequency_matrix(fm.X_zero, cfg_small.N_t)
    gap = np.abs(L_eps - L0).max()
    assert gap < 1e-12
    # the expansion copies each block entry onto the shift pattern
    assert np.abs(fm.X_eps - fm.X_zero).max() == gap


def test_fourier_matrix_stacks_the_scalar_calls():
    cfg = fourier_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    xi_values = np.linspace(0.0, np.pi, 9) / cfg.h
    stacked = assemble_fourier_matrix(cfg, rule, xi_values)
    assert stacked.X_eps.shape == stacked.X_zero.shape == (9, 8, 8)
    assert stacked.symbols.c1.shape == (9, 4)
    assert np.array_equal(stacked.xi, xi_values)
    for i, xi in enumerate(xi_values):
        one = assemble_fourier_matrix(cfg, rule, xi)
        assert isinstance(one.xi, float) and one.symbols.c1.shape == (4,)
        assert stacked.X_eps[i].tobytes() == one.X_eps.tobytes()
        assert stacked.X_zero[i].tobytes() == one.X_zero.tobytes()
        for name in ("c1", "c2", "d1", "d2", "gamma_c1", "gamma_d2",
                     "gamma0_c1", "gamma0_d2"):
            row = getattr(stacked.symbols, name)[i]
            assert row.tobytes() == getattr(one.symbols, name).tobytes()
    with pytest.raises(ValueError, match=r"scalar or a 1-D array, got shape \(3, 3\)"):
        assemble_fourier_matrix(cfg, rule, np.zeros((3, 3)))


@pytest.mark.parametrize("N_t", [1, 2, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_frequency_matrix_is_eye_plus_kron_bit_for_bit(N_t, dtype):
    # signed zeros included: X_ab + 0.0 turns -0.0 into +0.0, as 0 + X_ab does
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 6)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.normal(size=(6, 6))
    X[0, 1] = X[2, 2] = -0.0
    X[3, 4] = 0.0
    want = np.eye(6 * N_t) + np.kron(X, np.eye(N_t, k=-1))
    got = frequency_matrix(X, N_t)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("N_t", [1, 2, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_frequency_matrix_of_a_stack_is_each_blocks_matrix(N_t, dtype):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(2, 3, 4, 4)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.normal(size=X.shape)
    X[0, 1, 0, 1] = X[1, 2, 3, 3] = -0.0
    got = frequency_matrix(X, N_t)
    assert got.shape == (2, 3, 4 * N_t, 4 * N_t) and got.dtype == np.result_type(X, float)
    for index in np.ndindex(X.shape[:2]):
        assert got[index].tobytes() == frequency_matrix(X[index], N_t).tobytes()


@pytest.mark.parametrize("N_t", [1, 2, 16])
def test_perturbation_norm_matches_full_kronecker_product(N_t):
    rule = gauss_rule(4, 0.0, 1.0)
    P = np.eye(N_t, k=-1)
    xi_values = np.linspace(0.0, np.pi, 7) / 0.11
    for eps in (1.0, 1e-1, 1e-3, 1e-6):
        cfg = fourier_cfg(eps=eps, N_t=N_t)
        report = perturbation_check(cfg, rule, xi_values)
        for xi, e_norm in zip(xi_values, report.e_norms):
            fm = assemble_fourier_matrix(cfg, rule, xi)
            # the reference forms E = (X_eps - X_zero) kron P in full
            reference = svdvals(np.kron(fm.X_eps - fm.X_zero, P))[0]
            assert e_norm == pytest.approx(reference, rel=1e-14, abs=0.0)


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
    assert np.array_equal(rescaled.F[:half], plain.F[:half] / cfg.tau)
    assert np.array_equal(rescaled.F[half:], plain.F[half:])


def test_rescaled_mass_matrix_is_the_fourier_block_at_an_interior_cell():
    # -sum_o M_o e^{i o xi h} over the stencil of interior cell m, with M_o
    # the 2N x 2N block of M coupling m to m + o, is the symbol block X_eps
    # of the tau-rescaled system, not of the plain one
    cfg = fourier_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    n, m = cfg.N * cfg.N_x, 4
    cells = [a * n + k * cfg.N_x for a in range(2) for k in range(cfg.N)]

    def gaps(rescaled):
        M = assemble_ap_system(cfg, rule, init, rescaled=rescaled).M.toarray()
        rows = M[[c + m for c in cells]]
        stencil = [c + m + o for c in cells for o in range(-2, 3)]
        assert not np.delete(rows, stencil, axis=1).any()
        return [np.abs(-sum(rows[:, [c + m + o for c in cells]]
                            * np.exp(1j * o * xi * cfg.h) for o in range(-2, 3))
                       - assemble_fourier_matrix(cfg, rule, xi).X_eps).max()
                for xi in (0.3, 1.7, 25.7)]

    assert max(gaps(rescaled=True)) <= 1e-15  # measured 1.1e-16
    assert min(gaps(rescaled=False)) >= 0.05  # measured 0.089


# --- matrix market export -----------------------------------------------


def test_export_round_trip(tmp_path):
    cfg = ap_cfg(N_t=2)
    rule = gauss_rule(3, 0.0, 1.0)
    system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule))
    path = tmp_path / "L.mtx"
    sidecar = export_matrix_market(system.L, path, {"config": config_as_dict(cfg)})
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
    L_eps = sp.csr_matrix(frequency_matrix(fm.X_eps, cfg.N_t))
    path = tmp_path / "Ltilde.mtx"
    export_matrix_market(L_eps, path, {"xi": fm.xi})
    back = mmread(path).tocsr()
    assert np.abs((back - L_eps).toarray()).max() < 1e-15


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
# a single time level, where the system applies no one-step block
@example(scheme="ap", rescaled=True, log_eps=-3.0, N=2, Nx=3, Nt=1, seed=0)
@example(scheme="explicit", rescaled=False, log_eps=-1.0, N=2, Nx=3, Nt=1, seed=1)
def test_marching_inverse_matches_solves_stepper_and_dense_spectrum(
        scheme, rescaled, log_eps, N, Nx, Nt, seed):
    cfg = resolve_config({"scheme": scheme, "epsilon": 10.0**log_eps,
                          "tau": "auto", "h": 0.1, "N": N, "Nx": Nx, "Nt": Nt})
    stepper = schemes.scheme_for(cfg)
    rule = stepper.rule(cfg)
    initial = stepper.initial(cfg, rule)
    system = stepper.system(cfg, rule, initial, rescaled)
    L = system.L
    assert system.shape == L.shape
    assert system.sparsity == sparsity(L)

    def through(op, v):
        """A time-major operator of the system applied to v laid out like S."""
        return system.from_time_major(op(system.to_time_major(v)))

    x = np.random.default_rng(seed).normal(size=system.order)
    assert np.array_equal(system.from_time_major(system.to_time_major(x)), x)

    # matrix-free L x and L^H x against the CSR products
    assert _relative_error(through(system.apply, x), L @ x) <= 1e-14
    assert _relative_error(through(system.apply_h, x), L.conj().T @ x) <= 1e-14

    # L^{-1}x and L^{-H}x against sparse direct solves
    assert _relative_error(through(system.solve, x),
                           spla.spsolve(L.tocsc(), x)) <= 1e-10
    assert _relative_error(through(system.solve_h, x),
                           spla.spsolve(L.conj().T.tocsc(), x)) <= 1e-10

    # L^{-1}F split into levels is the stepper's trajectory
    pieces = system.split(through(system.solve, system.F))
    levels = stepper.evolve(initial, cfg, rule).fields[1:]
    marched = np.hstack([np.hstack(piece) for piece in pieces])
    stepped = np.hstack([np.hstack([getattr(level, name) for name in ("r", "j", "f")
                                    if hasattr(level, name)])
                         for level in levels])
    assert _relative_error(marched, stepped) <= 1e-10

    # the iterative spectrum through the system, with no factorization
    values = svdvals(L.toarray())
    if values[-1] > np.finfo(float).eps * system.order * values[0]:
        with mock.patch.object(spla, "splu", side_effect=AssertionError("splu")):
            sigma_min, sigma_max, *_ = spectral._lanczos_extremes(system)
        assert sigma_max == pytest.approx(values[0], rel=1e-8)
        assert sigma_min == pytest.approx(values[-1], rel=1e-8)


def _kron_bmat_reference(cfg, rule, rescaled):
    """L by the module docstring's formula, block by block from the step
    matrices: identity diagonal, -M_ab kron P below it."""
    P = _time_shift(cfg.N_t)
    if cfg.scheme == "explicit":
        B = explicit_matrix(cfg, rule).B
        L = (sp.kron(sp.eye(cfg.N_t), sp.eye(B.shape[0])) - sp.kron(P, B)).tocsr()
    else:
        mats = ap_step_matrices(cfg, rule)
        I = sp.kron(sp.eye(cfg.N_t), sp.eye(cfg.N * cfg.N_x))
        L11 = I - sp.kron(P, mats.B1)
        L12 = sp.kron(P, mats.A1)
        L21 = sp.kron(P, mats.B2)
        L22 = I - sp.kron(P, mats.A2)
        if rescaled:
            L = sp.bmat([[L11, L12 / cfg.tau], [cfg.tau * L21, L22]], format="csr")
        else:
            L = sp.bmat([[L11, L12], [L21, L22]], format="csr")
    L.sum_duplicates()
    L.eliminate_zeros()
    return L


@pytest.mark.parametrize("N_t", [1, 2, 7])
@pytest.mark.parametrize("scheme, rescaled", [
    ("ap", False), ("ap", True), ("explicit", False)])
def test_stacked_matrix_is_the_kron_bmat_formula_exactly(scheme, rescaled, N_t):
    cfg = resolve_config({"scheme": scheme, "epsilon": 0.1, "tau": "auto",
                          "h": 0.1, "N": 2, "Nx": 3, "Nt": N_t,
                          "bc_left": 0.3, "bc_right": 0.7})
    stepper = schemes.scheme_for(cfg)
    rule = stepper.rule(cfg)
    system = stepper.system(cfg, rule, stepper.initial(cfg, rule), rescaled)
    L, reference = system.L, _kron_bmat_reference(cfg, rule, rescaled)
    assert system.L is L  # built once
    for name in ("indptr", "indices", "data"):
        got, want = getattr(L, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


# --- the one-step block's storage ----------------------------------------


def _block_system(M, levels=3):
    """The system of ``levels`` steps of the one-step block M."""
    M = sp.csr_matrix(M)
    return assembly.BlockSystem(M=M, F=np.zeros(levels * M.shape[0]),
                                scale=(1.0,), levels=levels)


def test_block_storage_switches_on_rows():
    cap = assembly.DENSE_BLOCK_CAP
    for m, dense in ((cap, True), (cap + 1, False)):
        system = _block_system(sp.random(m, m, density=0.05, random_state=m))
        system.apply(np.ones(system.order))
        system.apply_h(np.ones(system.order))
        block, block_h = vars(system)["_block"], vars(system)["_block_h"]
        assert isinstance(block, np.ndarray) == isinstance(block_h, np.ndarray) == dense
        assert sp.issparse(block) == sp.issparse(block_h) == (not dense)
        if dense:
            assert np.array_equal(block, system.M.toarray())
            assert np.array_equal(block_h, system.M.toarray().T)
        else:
            assert block is system.M


def test_block_is_read_from_m_at_first_use():
    # a write into M after assembly reaches the products, which let the
    # overflow show in the result alone
    system = _block_system(sp.identity(8), levels=2)
    system.M.data[0] = 1e300
    x = np.zeros(system.order)
    x[0] = 1e300
    with np.errstate(all="raise"):
        assert system.apply(x)[8] == -np.inf
        assert system.solve(x)[8] == np.inf


# the largest relative errors measured against CSR products with L and
# sparse direct solves, over both schemes, m = 128 and 136, N_t = 2 to 24
# and three eps each: 2.4e-16 for the products and 8.4e-15 for the marches
@pytest.mark.parametrize("scheme, rescaled", [
    ("ap", True), ("ap", False), ("explicit", False)])
@pytest.mark.parametrize("Nx", [16, 17], ids=["at-cap", "above-cap"])
def test_products_agree_with_the_matrix_on_either_side_of_the_cap(
        scheme, rescaled, Nx):
    cfg = resolve_config({"scheme": scheme, "epsilon": 0.1, "tau": "auto",
                          "h": 0.05, "N": 4, "Nx": Nx, "Nt": 8})
    system = schemes.scheme_for(cfg).assemble(cfg, rescaled)
    m = system.M.shape[0]
    assert (m <= assembly.DENSE_BLOCK_CAP) == (Nx == 16)
    L = system.L
    L_h = L.conj().T

    def through(op, v):
        return system.from_time_major(op(system.to_time_major(v)))

    x = np.random.default_rng(Nx).normal(size=system.order)
    assert _relative_error(through(system.apply, x), L @ x) <= 1e-15
    assert _relative_error(through(system.apply_h, x), L_h @ x) <= 1e-15
    assert _relative_error(through(system.solve, x), spla.spsolve(L.tocsc(), x)) <= 1e-13
    assert _relative_error(through(system.solve_h, x),
                           spla.spsolve(L_h.tocsc(), x)) <= 1e-13
