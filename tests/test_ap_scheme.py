import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import (
    DivergenceError,
    GridConfig,
    ParityField,
    UnsupportedConfigurationError,
    alpha_bound,
    ap_evolve,
    cfl_limit,
    classical_cost,
    density,
    gauss_rule,
    initial_parity_field,
    resolve_config,
)
from transportlab import ap_scheme
from transportlab.ap_scheme import (
    ApWorkspace,
    ap_step_matrices,
    boundary_forcing,
    matrix_step,
    relaxation_step,
    transport_step,
)
from transportlab.schemes import trajectory_csv

RANDOM_SEED = 20240817


def make_cfg(**kw):
    base = dict(epsilon=0.5, tau=0.004, h=0.1, N=4, N_x=8, N_t=4)
    base.update(kw)
    return GridConfig(**base)


def zero_field(N, N_x):
    return ParityField(np.zeros(N * N_x), np.zeros(N * N_x), *np.zeros((4, N)))


def random_field(rng, N, N_x, ghosts=False):
    g = (lambda: rng.uniform(-1.0, 1.0, N)) if ghosts else (lambda: np.zeros(N))
    return ParityField(
        rng.uniform(-1.0, 1.0, N * N_x), rng.uniform(-1.0, 1.0, N * N_x),
        g(), g(), g(), g(),
    )


# --- dense oracles built entry by entry, independent of the sparse path --


def dense_blocks(cfg, rule):
    N, Nx = cfg.N, cfg.N_x
    Mh = np.zeros((Nx, Nx))
    Lh = np.zeros((Nx, Nx))
    for m in range(Nx):
        Lh[m, m] = -2.0
        if m + 1 < Nx:
            Mh[m, m + 1] = 1.0
            Lh[m, m + 1] = 1.0
        if m - 1 >= 0:
            Mh[m, m - 1] = -1.0
            Lh[m, m - 1] = 1.0
    Mv = np.zeros((N * Nx, N * Nx))
    Lv = np.zeros((N * Nx, N * Nx))
    G = np.zeros((N * Nx, N * Nx))
    for k in range(N):
        s = slice(k * Nx, (k + 1) * Nx)
        Mv[s, s] = rule.nodes[k] * Mh
        Lv[s, s] = rule.nodes[k] * Lh
        for kp in range(N):
            sp_ = slice(kp * Nx, (kp + 1) * Nx)
            G[s, sp_] = rule.weights[kp] * np.eye(Nx)
    return Mh, Lh, Mv, Lv, G


def dense_one_step(cfg, rule):
    _, _, Mv, Lv, G = dense_blocks(cfg, rule)
    n = cfg.N * cfg.N_x
    lam, gamma, tau = cfg.lam, cfg.gamma, cfg.tau
    eps2 = cfg.epsilon**2
    A = 0.5 * lam * Mv
    B = np.eye(n) + 0.5 * lam * Lv
    c = (1.0 - eps2) / (tau + eps2)
    relax = (np.eye(n) + gamma * G) / (1.0 + gamma)
    B1 = (B + c * A @ A) @ relax
    A1 = A / (1.0 + gamma)
    B2 = (A + c * B @ A) @ relax
    A2 = B / (1.0 + gamma)
    return A, B, B1, A1, B2, A2


@pytest.mark.parametrize("eps", [1.0, 0.3, 1e-2, 1e-6])
def test_step_matrices_match_dense_oracle(eps):
    cfg = make_cfg(epsilon=eps, N=3, N_x=5)
    rule = gauss_rule(3, 0.0, 1.0)
    mats = ap_step_matrices(cfg, rule)
    *_, G = dense_blocks(cfg, rule)
    A, B, B1, A1, B2, A2 = dense_one_step(cfg, rule)
    for sparse_m, dense_m in [
        (mats.G, G), (mats.A, A), (mats.B, B),
        (mats.B1, B1), (mats.A1, A1), (mats.B2, B2), (mats.A2, A2),
    ]:
        np.testing.assert_allclose(sparse_m.toarray(), dense_m,
                                   rtol=1e-13, atol=1e-15)


def test_limit_b2_is_the_stated_product():
    cfg = make_cfg(N=3, N_x=5)
    rule = gauss_rule(3, 0.0, 1.0)
    mats = ap_step_matrices(cfg, rule)
    _, _, _, _, G = dense_blocks(cfg, rule)
    A, B, *_ = dense_one_step(cfg, rule)
    expected = (A + (B @ A) / cfg.tau) @ G
    limit_b2 = (mats.A + (mats.B @ mats.A) / cfg.tau) @ mats.G
    np.testing.assert_allclose(limit_b2.toarray(), expected, atol=1e-12)


def _csr_bits(matrix):
    return tuple(getattr(matrix, name).tobytes() for name in ("indptr", "indices", "data"))


def test_eps_free_stencils_are_built_once_per_grid():
    rule = gauss_rule(4, 0.0, 1.0)
    stencils = ap_scheme._stencils
    stencils.cache_clear()
    first = ap_step_matrices(make_cfg(epsilon=0.5), rule)
    second = ap_step_matrices(make_cfg(epsilon=1e-4), rule)
    assert (stencils.cache_info().misses, stencils.cache_info().hits) == (1, 1)
    # each call hands out its own G, A and B; a write into one stays there
    assert first.A is not second.A
    second.A.data[:] = 0.0
    cached = ap_step_matrices(make_cfg(epsilon=1e-4), rule)
    stencils.cache_clear()
    uncached = ap_step_matrices(make_cfg(epsilon=1e-4), rule)
    for name in ("G", "A", "B", "B1", "A1", "B2", "A2"):
        assert _csr_bits(getattr(uncached, name)) == _csr_bits(getattr(cached, name)), name
    # another h (so another lam) or another N builds its own
    other_h = ap_step_matrices(make_cfg(epsilon=1e-4, h=0.2), rule)
    ap_step_matrices(make_cfg(epsilon=1e-4, N=3), gauss_rule(3, 0.0, 1.0))
    assert stencils.cache_info().misses == 3
    assert not np.array_equal(other_h.A.toarray(), uncached.A.toarray())


# --- relaxation step ----------------------------------------------------


def test_relaxation_equilibrium_fixed_point():
    cfg = make_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    field = zero_field(4, 8)
    field.r[:] = 2.5
    field.r_left[:] = 2.5
    field.r_right[:] = 2.5
    star = relaxation_step(field, ApWorkspace(cfg, rule))
    np.testing.assert_allclose(star.r, 2.5, rtol=1e-15)
    np.testing.assert_allclose(star.j, 0.0, atol=1e-15)


def test_relaxation_preserves_density():
    rng = np.random.default_rng(RANDOM_SEED)
    cfg = make_cfg(epsilon=0.05)
    rule = gauss_rule(4, 0.0, 1.0)
    for _ in range(100):
        field = random_field(rng, 4, 8)
        star = relaxation_step(field, ApWorkspace(cfg, rule))
        rho0 = density(field, rule)
        drift = np.linalg.norm(density(star, rule) - rho0)
        assert drift <= 1e-13 * np.linalg.norm(rho0)


def test_relaxation_small_eps_limit_projects_onto_density():
    # (r + gamma*rho)/(1+gamma) -> rho as gamma -> inf
    rng = np.random.default_rng(3)
    cfg = make_cfg(epsilon=1e-8)
    rule = gauss_rule(4, 0.0, 1.0)
    field = random_field(rng, 4, 8)
    star = relaxation_step(field, ApWorkspace(cfg, rule))
    rho = density(field, rule)
    R, _ = star.blocks()
    assert np.abs(R - rho[None, :]).max() < 1e-12


# --- transport step -----------------------------------------------------


def test_transport_constant_state_invariant():
    cfg = make_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    field = zero_field(4, 8)
    field.r[:] = 1.5
    field.r_left[:] = 1.5
    field.r_right[:] = 1.5
    out = transport_step(field, ApWorkspace(cfg, rule))
    np.testing.assert_allclose(out.r, 1.5, rtol=1e-15)
    np.testing.assert_allclose(out.j, 0.0, atol=1e-15)


def test_transport_single_entry_stencil():
    cfg = make_cfg(N=3, N_x=7)
    rule = gauss_rule(3, 0.0, 1.0)
    k0, m0 = 1, 3
    field = zero_field(3, 7)
    field.r[k0 * 7 + m0] = 1.0
    out = transport_step(field, ApWorkspace(cfg, rule))
    lam_v = cfg.lam * rule.nodes[k0]
    R, J = out.blocks()
    assert R[k0, m0] == pytest.approx(1.0 - lam_v)
    assert R[k0, m0 - 1] == pytest.approx(0.5 * lam_v)
    assert R[k0, m0 + 1] == pytest.approx(0.5 * lam_v)
    # odd parity picks up -lam*v/2 upstream and +lam*v/2 downstream
    assert J[k0, m0 - 1] == pytest.approx(-0.5 * lam_v)
    assert J[k0, m0 + 1] == pytest.approx(0.5 * lam_v)
    assert J[k0, m0] == 0.0
    # other velocity rows untouched
    assert np.all(R[[0, 2], :] == 0)


def test_full_step_matches_matrix_form_on_gaussian_data():
    cfg = make_cfg(N=4, N_x=10)
    rule = gauss_rule(4, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    ws = ApWorkspace(cfg, rule)
    star = relaxation_step(init, ws)
    out = transport_step(star, ws)
    mats = ap_step_matrices(cfg, rule)
    r_expect = mats.B @ star.r - mats.A @ star.j  # zero boundary terms
    np.testing.assert_allclose(out.r, r_expect, atol=1e-13)


# --- bitwise reference --------------------------------------------------
# The two steps as plain numpy expressions, each operation allocating its
# result.  The workspace steps must reproduce them bit for bit.


def reference_relaxation(state, cfg, rule):
    R, J = state.blocks()
    gamma = cfg.gamma
    eps2 = cfg.epsilon**2
    rho = rule.weights @ R
    r_star = (R + gamma * rho[None, :]) / (1.0 + gamma)
    padded = np.hstack([state.r_left[:, None], r_star, state.r_right[:, None]])
    central = padded[:, 2:] - padded[:, :-2]
    v = rule.nodes[:, None]
    j_star = (J - gamma * (1.0 - eps2) * v * central / (2.0 * cfg.h)) / (1.0 + gamma)
    return state.with_values(r_star, j_star)


def reference_transport(star, cfg, rule):
    R, J = star.blocks()
    Rp = np.hstack([star.r_left[:, None], R, star.r_right[:, None]])
    Jp = np.hstack([star.j_left[:, None], J, star.j_right[:, None]])
    lam_v = cfg.lam * rule.nodes[:, None]
    sum_r, dif_r = Rp[:, 2:] + Rp[:, :-2], Rp[:, 2:] - Rp[:, :-2]
    sum_j, dif_j = Jp[:, 2:] + Jp[:, :-2], Jp[:, 2:] - Jp[:, :-2]
    r_new = (1.0 - lam_v) * Rp[:, 1:-1] + 0.5 * lam_v * sum_r - 0.5 * lam_v * dif_j
    j_new = (1.0 - lam_v) * Jp[:, 1:-1] + 0.5 * lam_v * sum_j - 0.5 * lam_v * dif_r
    return star.with_values(r_new, j_new)


def assert_same_bits(got, expected):
    for name in ("r", "j", "r_left", "r_right", "j_left", "j_right"):
        assert np.array_equal(getattr(got, name), getattr(expected, name),
                              equal_nan=True), name


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 4), N_x=st.integers(1, 8), log_eps=st.floats(-8.0, 0.0),
       # far past the step restriction the values overflow to inf and nan
       tau_factor=st.sampled_from([0.5, 1e100]), seed=st.integers(0, 2**32 - 1))
def test_steps_are_bitwise_the_reference_expressions(N, N_x, log_eps, tau_factor, seed):
    eps, h = 10.0**log_eps, 0.1
    cfg = make_cfg(epsilon=eps, tau=tau_factor * cfl_limit("ap", eps, h), h=h,
                   N=N, N_x=N_x, N_t=3, allow_unstable=True)
    rule = gauss_rule(N, 0.0, 1.0)
    initial = random_field(np.random.default_rng(seed), N, N_x, ghosts=True)
    workspace = ApWorkspace(cfg, rule)
    expected = [initial]
    with np.errstate(all="ignore"):
        for _ in range(cfg.N_t):
            star = reference_relaxation(expected[-1], cfg, rule)
            expected.append(reference_transport(star, cfg, rule))
            # a fresh workspace, then the reused one, from the same state
            for ws in (ApWorkspace(cfg, rule), workspace):
                got_star = relaxation_step(expected[-2], ws)
                assert_same_bits(got_star, star)
                assert_same_bits(transport_step(got_star, ws), expected[-1])

    # the levels a run hands out, through the workspace it owns
    levels = []
    try:
        ap_evolve(initial, cfg, rule, lambda n, level: levels.append(level))
        handed_out = cfg.N_t + 1
    except DivergenceError as exc:
        handed_out = exc.step
        assert not (np.all(np.isfinite(expected[exc.step].r))
                    and np.all(np.isfinite(expected[exc.step].j)))
    assert len(levels) == handed_out
    for got, want in zip(levels, expected):
        assert_same_bits(got, want)


def test_steps_are_bitwise_the_reference_expressions_at_the_solve_workload_shape():
    # the relaxation grid of the benchmark's solve workload: many rows of many
    # columns, where the flat neighbour passes cross row ends N - 1 times
    cfg = resolve_config(dict(scheme="ap", epsilon=1.1e-3, x_left=0.0, x_right=1.0,
                              tau="auto", N=32, Nx=1024, Nt=3))
    rule = gauss_rule(cfg.N, 0.0, 1.0)
    initial = random_field(np.random.default_rng(RANDOM_SEED), cfg.N, cfg.N_x,
                           ghosts=True)
    workspace = ApWorkspace(cfg, rule)
    expected = [initial]
    for _ in range(cfg.N_t):
        star = reference_relaxation(expected[-1], cfg, rule)
        expected.append(reference_transport(star, cfg, rule))
        got_star = relaxation_step(expected[-2], workspace)
        assert_same_bits(got_star, star)
        assert_same_bits(transport_step(got_star, workspace), expected[-1])
    levels = []
    ap_evolve(initial, cfg, rule, lambda n, level: levels.append(level))
    assert len(levels) == len(expected)
    for got, want in zip(levels, expected):
        assert_same_bits(got, want)


# --- combined step vs matrices ------------------------------------------


@pytest.mark.parametrize("eps", [1.0, 1e-1, 1e-3, 1e-6])
def test_matrix_step_equals_two_stage_step_random_states(eps):
    rng = np.random.default_rng(RANDOM_SEED)
    cfg = make_cfg(epsilon=eps, N=3, N_x=6)
    rule = gauss_rule(3, 0.0, 1.0)
    mats = ap_step_matrices(cfg, rule)
    ws = ApWorkspace(cfg, rule)
    for _ in range(100):
        field = random_field(rng, 3, 6, ghosts=True)
        forcing = boundary_forcing(cfg, rule, field, mats)
        via_matrices = matrix_step(field, mats, forcing)
        via_stages = transport_step(relaxation_step(field, ws), ws)
        scale = max(np.abs(via_stages.r).max(), np.abs(via_stages.j).max(), 1.0)
        assert np.abs(via_matrices.r - via_stages.r).max() <= 1e-12 * scale
        assert np.abs(via_matrices.j - via_stages.j).max() <= 1e-12 * scale


def test_small_eps_limits_of_matrices():
    rule = gauss_rule(4, 0.0, 1.0)
    import scipy.sparse.linalg as spla

    norms_a1, norms_a2, gaps = [], [], []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        cfg = make_cfg(epsilon=eps)
        mats = ap_step_matrices(cfg, rule)
        norms_a1.append(spla.norm(mats.A1))
        norms_a2.append(spla.norm(mats.A2))
        limit_b2 = (mats.A + (1.0 / cfg.tau) * (mats.B @ mats.A)) @ mats.G
        gaps.append(spla.norm(mats.B2 - limit_b2))
    assert norms_a1[-1] < 1e-9 and norms_a2[-1] < 1e-8
    # ||B2(eps) - limit|| nonincreasing along the epsilon grid and within
    # a fitted constant (<= 10) of the closed-form perturbation bound
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-15
    for eps, gap in zip((1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), gaps):
        assert gap <= 10.0 * alpha_bound(eps, 0.004, 4)


# --- evolution ----------------------------------------------------------


def test_evolve_zero_steps_returns_initial():
    cfg = make_cfg(N_t=0)
    rule = gauss_rule(4, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    traj = ap_evolve(init, cfg, rule)
    assert len(traj.fields) == 1 and traj.fields[0] is init
    assert classical_cost(cfg) == 0


def test_evolve_constant_equilibrium_all_levels_identical():
    cfg = make_cfg(init="constant", bc_left=1.0, bc_right=1.0, N_t=6)
    rule = gauss_rule(4, 0.0, 1.0)
    traj = ap_evolve(initial_parity_field(cfg, rule), cfg, rule)
    for field in traj.fields:
        np.testing.assert_allclose(field.r, 1.0, rtol=1e-14)
        np.testing.assert_allclose(field.j, 0.0, atol=1e-14)


def test_evolve_cost_counter():
    cfg = make_cfg(N_t=5)
    rule = gauss_rule(4, 0.0, 1.0)
    traj = ap_evolve(initial_parity_field(cfg, rule), cfg, rule)
    assert len(traj.fields) == 6 and classical_cost(cfg) == 4**2 * 8 * 5


def test_evolve_uniform_stability_probe():
    rule = gauss_rule(4, 0.0, 1.0)
    for eps in (1.0, 1e-3, 1e-6):
        cfg = make_cfg(epsilon=eps, N_x=16, N_t=200)
        init = initial_parity_field(cfg, rule)
        traj = ap_evolve(init, cfg, rule)
        sup = max(np.abs(f.r).max() for f in traj.fields)
        assert sup <= 2.0 * np.abs(init.r).max()


def test_evolve_divergence_reports_step_index():
    # grossly unstable: tau far beyond the parabolic restriction
    cfg = make_cfg(tau=0.5, h=0.05, N_t=400, allow_unstable=True)
    rule = gauss_rule(4, 0.0, 1.0)
    init = initial_parity_field(cfg, rule)
    with pytest.raises(DivergenceError) as err:
        ap_evolve(init, cfg, rule)
    assert 0 < err.value.step <= 400


def test_phi_not_one_rejected():
    cfg = make_cfg(phi=0.5)
    rule = gauss_rule(4, 0.0, 1.0)
    with pytest.raises(UnsupportedConfigurationError):
        ApWorkspace(cfg, rule)
    with pytest.raises(UnsupportedConfigurationError):
        ap_step_matrices(cfg, rule)


def test_field_size_mismatch_rejected():
    cfg = make_cfg()
    rule = gauss_rule(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        relaxation_step(zero_field(4, 5), ApWorkspace(cfg, rule))


def test_trajectory_csv_export(tmp_path):
    cfg = make_cfg(N=2, N_x=3, N_t=2)
    rule = gauss_rule(2, 0.0, 1.0)
    path = tmp_path / "traj.csv"
    with trajectory_csv(cfg, path) as on_level:
        ap_evolve(initial_parity_field(cfg, rule), cfg, rule, on_level)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,k,m,r,j"
    assert len(lines) == 1 + 3 * 2 * 3  # header + (Nt+1) levels * N * Nx
