import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import svdvals

from transportlab import (
    DivergenceError,
    GridConfig,
    KineticField,
    cfl_limit,
    classical_cost,
    gauss_rule,
    initial_kinetic_field,
    resolve_config,
)
from transportlab import cli, explicit_scheme
from transportlab.explicit_scheme import (
    ExplicitWorkspace,
    boundary_vector,
    explicit_evolve,
    explicit_matrix,
    explicit_step,
)
from transportlab.schemes import trajectory_csv


def make_cfg(eps=0.5, N=4, N_x=8, N_t=4, h=0.1, safety=0.9, **kw):
    tau = safety * cfl_limit("explicit", eps, h)
    return GridConfig(epsilon=eps, tau=tau, h=h, N=N, N_x=N_x, N_t=N_t,
                      scheme="explicit", **kw)


def make_rule(cfg):
    return gauss_rule(2 * cfg.N, -1.0, 1.0)


def test_constant_state_is_fixed_point():
    cfg = make_cfg(init="constant", bc_left=2.0, bc_right=2.0)
    rule = make_rule(cfg)
    field = initial_kinetic_field(cfg, rule)
    field.f[:] = 2.0
    out = explicit_step(field, ExplicitWorkspace(cfg, rule))
    np.testing.assert_allclose(out.f, 2.0, rtol=1e-14)


def test_isotropic_data_reduces_to_pure_upwind_transport():
    # velocity-independent f: the collision average returns f itself, so
    # the update is plain upwinding of each velocity line
    cfg = make_cfg(N=3, N_x=6)
    rule = make_rule(cfg)
    rng = np.random.default_rng(5)
    profile = rng.uniform(0.5, 1.5, cfg.N_x)
    field = KineticField(np.repeat(profile, 6), np.zeros(6), np.zeros(6))
    out = explicit_step(field, ExplicitWorkspace(cfg, rule))
    lam, eps = cfg.lam, cfg.epsilon
    v = rule.nodes
    prof_pad = np.concatenate([[0.0], profile, [0.0]])
    F = out.blocks()
    for m in range(cfg.N_x):
        expect = (
            profile[m]
            - (lam / eps) * np.maximum(v, 0) * (profile[m] - prof_pad[m])
            - (lam / eps) * np.minimum(v, 0) * (prof_pad[m + 2] - profile[m])
        )
        np.testing.assert_allclose(F[m], expect, atol=1e-14)


def test_step_equals_matrix_times_state_plus_boundary():
    cfg = make_cfg(bc_left=0.6, bc_right=0.2)
    rule = make_rule(cfg)
    rng = np.random.default_rng(17)
    field = initial_kinetic_field(cfg, rule)
    field.f[:] = rng.uniform(-1, 1, field.f.size)
    mats = explicit_matrix(cfg, rule)
    b = boundary_vector(cfg, rule, field)
    out = explicit_step(field, ExplicitWorkspace(cfg, rule))
    np.testing.assert_allclose(out.f, mats.B @ field.f + b, atol=1e-13)


@pytest.mark.parametrize("N", [2, 4, 8])
def test_collision_block_identities(N):
    cfg = make_cfg(N=N, N_x=5)
    rule = make_rule(cfg)
    mats = explicit_matrix(cfg, rule)
    # every row of W is the weight vector and weights on [-1,1] sum to 2
    assert np.all(mats.W == rule.weights[None, :])
    np.testing.assert_allclose(mats.W @ np.ones(2 * N), 2.0, rtol=1e-13)
    B2 = mats.B2.toarray()
    assert np.abs(B2 @ B2 - B2).max() <= 1e-13


@pytest.mark.parametrize("N", [2, 4, 8])
def test_splitting_identity(N):
    cfg = make_cfg(N=N, N_x=5)
    mats = explicit_matrix(cfg, make_rule(cfg))
    diff = mats.B - (mats.B1 + mats.alpha * mats.B2)
    assert np.abs(diff.toarray()).max() <= 1e-15
    # same sparsity pattern
    recombined = (mats.B1 + mats.alpha * mats.B2).tocsr()
    recombined.sort_indices()
    B = mats.B.copy()
    B.sort_indices()
    assert np.array_equal(B.indices, recombined.indices)
    assert np.array_equal(B.indptr, recombined.indptr)


def test_transport_block_norm_bound():
    for N, N_x in ((1, 1), (1, 8), (2, 5), (4, 8), (3, 50)):
        cfg = make_cfg(N=N, N_x=N_x)
        mats = explicit_matrix(cfg, make_rule(cfg))
        top = svdvals(mats.B1.toarray())[0]
        assert top <= 1.0 - mats.alpha + 1e-10
        assert np.all(mats.c >= 0.0)
        # the construction check bounds the norm by B1's largest absolute
        # row and column sums, which are never below it
        magnitudes = np.abs(mats.B1.toarray())
        sums = max(magnitudes.sum(axis=0).max(), magnitudes.sum(axis=1).max())
        assert top <= sums + 1e-14
        assert sums <= 1.0 - mats.alpha + 1e-10


@pytest.fixture
def slipped_transport(monkeypatch):
    """B1 assembled with every diagonal entry c_k 1e-6 too large."""
    upwind_rows = explicit_scheme._upwind_rows

    def slipped(cfg, rule):
        v_plus, v_minus, c = upwind_rows(cfg, rule)
        return v_plus, v_minus, c + 1e-6

    monkeypatch.setattr(explicit_scheme, "_upwind_rows", slipped)


# the check runs at every order: the second grid has 2 * N * N_x = 1200 rows
@pytest.mark.parametrize("N, N_x", [(2, 5), (3, 200)])
def test_an_inconsistent_transport_block_is_rejected(slipped_transport, N, N_x):
    cfg = make_cfg(N=N, N_x=N_x)
    with pytest.raises(RuntimeError, match="exceeds 1 - tau/eps\\^2 .*inconsistent"):
        explicit_matrix(cfg, make_rule(cfg))


def test_the_cli_reports_an_inconsistent_transport_block_as_a_numerical_failure(
        slipped_transport, tmp_path, capsys):
    config = tmp_path / "explicit.json"
    config.write_text('{"scheme": "explicit", "epsilon": 0.4, "tau": "auto", '
                      '"h": 0.1, "N": 3, "Nx": 6, "Nt": 4}', encoding="utf-8")
    code = cli.main(["spectrum", "--config", str(config),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: transport block norm bound")
    assert not (tmp_path / "out" / "spectrum.csv").exists()


def test_power_norms_stay_below_half_w_norm():
    cfg = make_cfg(N=4, N_x=8)
    mats = explicit_matrix(cfg, make_rule(cfg))
    bound = 0.5 * np.linalg.norm(mats.W, 2)
    Bd = mats.B.toarray()
    power = np.eye(Bd.shape[0])
    for _ in range(16):
        power = power @ Bd
        assert np.linalg.norm(power, 2) <= bound + 1e-8


def test_cfl_violation_rejected_and_divergence_detected():
    with pytest.raises(Exception):
        GridConfig(epsilon=0.1, tau=1e-3, h=0.01, N=2, N_x=4, N_t=2,
                   scheme="explicit")
    # run far beyond the limit: the collision term drives blow-up
    cfg = GridConfig(epsilon=0.05, tau=0.05, h=0.1, N=2, N_x=6, N_t=500,
                     scheme="explicit", allow_unstable=True)
    rule = gauss_rule(4, -1.0, 1.0)
    with pytest.raises(DivergenceError) as err:
        explicit_evolve(initial_kinetic_field(cfg, rule), cfg, rule)
    assert err.value.step > 0


def test_evolve_zero_steps_and_cost():
    cfg = make_cfg(N_t=0)
    rule = make_rule(cfg)
    init = initial_kinetic_field(cfg, rule)
    traj = explicit_evolve(init, cfg, rule)
    assert len(traj.fields) == 1 and classical_cost(cfg) == 0
    cfg5 = make_cfg(N_t=5)
    traj5 = explicit_evolve(initial_kinetic_field(cfg5, rule), cfg5, rule)
    assert len(traj5.fields) == 6 and classical_cost(cfg5) == (2 * 4) ** 2 * 8 * 5


def test_step_nonexpansive_for_nonnegative_data_zero_inflow():
    cfg = make_cfg(N=3, N_x=10, N_t=40)
    rule = make_rule(cfg)
    rng = np.random.default_rng(23)
    field = KineticField(rng.uniform(0.0, 1.0, 6 * 10), np.zeros(6), np.zeros(6))
    ws = ExplicitWorkspace(cfg, rule)
    previous = np.abs(field.f).max()
    for _ in range(40):
        field = explicit_step(field, ws)
        current = np.abs(field.f).max()
        assert current <= previous + 1e-13
        previous = current


# The upwind step as one plain numpy expression, each operation allocating
# its result.  The workspace step must reproduce it bit for bit.
def reference_step(field, cfg, rule):
    eps, tau, lam = cfg.epsilon, cfg.tau, cfg.lam
    v = rule.nodes
    w = rule.weights
    v_plus = np.maximum(v, 0.0)
    v_minus = np.minimum(v, 0.0)
    c = 1.0 - (lam / eps) * (v_plus - v_minus) - tau / eps**2
    F = field.blocks()
    Fp = np.vstack([field.f_left, F, field.f_right])
    coll = (tau / (2.0 * eps**2)) * (F @ w)
    F_new = (
        c[None, :] * F
        + (lam / eps) * v_plus[None, :] * Fp[:-2]
        - (lam / eps) * v_minus[None, :] * Fp[2:]
        + coll[:, None]
    )
    return field.with_values(F_new)


def assert_same_bits(got, expected):
    for name in ("f", "f_left", "f_right"):
        assert np.array_equal(getattr(got, name), getattr(expected, name),
                              equal_nan=True), name


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 4), N_x=st.integers(1, 8), log_eps=st.floats(-8.0, 0.0),
       # far past the step restriction the values overflow to inf and nan
       tau_factor=st.sampled_from([0.5, 1e100]), seed=st.integers(0, 2**32 - 1))
def test_step_is_bitwise_the_reference_expression(N, N_x, log_eps, tau_factor, seed):
    eps, h = 10.0**log_eps, 0.1
    cfg = GridConfig(epsilon=eps, tau=tau_factor * cfl_limit("explicit", eps, h), h=h,
                     N=N, N_x=N_x, N_t=3, scheme="explicit", allow_unstable=True)
    rule = make_rule(cfg)
    rng = np.random.default_rng(seed)
    two_N = 2 * N
    initial = KineticField(rng.uniform(-1.0, 1.0, two_N * N_x),
                           rng.uniform(-1.0, 1.0, two_N), rng.uniform(-1.0, 1.0, two_N))
    workspace = ExplicitWorkspace(cfg, rule)
    expected = [initial]
    with np.errstate(all="ignore"):
        for _ in range(cfg.N_t):
            expected.append(reference_step(expected[-1], cfg, rule))
            # a fresh workspace, then the reused one, from the same state
            for ws in (ExplicitWorkspace(cfg, rule), workspace):
                assert_same_bits(explicit_step(expected[-2], ws), expected[-1])

    # the levels a run hands out, through the workspace it owns
    levels = []
    try:
        explicit_evolve(initial, cfg, rule, lambda n, level: levels.append(level))
        handed_out = cfg.N_t + 1
    except DivergenceError as exc:
        handed_out = exc.step
        assert not np.all(np.isfinite(expected[exc.step].f))
    assert len(levels) == handed_out
    for got, want in zip(levels, expected):
        assert_same_bits(got, want)


def test_step_is_bitwise_the_reference_expression_at_the_solve_workload_shape():
    # the upwind grid of the benchmark's solve workload
    cfg = resolve_config(dict(scheme="explicit", epsilon=0.05, x_left=0.0, x_right=1.0,
                              tau="auto", N=8, Nx=399, Nt=3))
    rule = make_rule(cfg)
    rng = np.random.default_rng(29)
    two_N = 2 * cfg.N
    initial = KineticField(rng.uniform(-1.0, 1.0, two_N * cfg.N_x),
                           rng.uniform(-1.0, 1.0, two_N), rng.uniform(-1.0, 1.0, two_N))
    workspace = ExplicitWorkspace(cfg, rule)
    expected = [initial]
    for _ in range(cfg.N_t):
        expected.append(reference_step(expected[-1], cfg, rule))
        assert_same_bits(explicit_step(expected[-2], workspace), expected[-1])
    levels = []
    explicit_evolve(initial, cfg, rule, lambda n, level: levels.append(level))
    assert len(levels) == len(expected)
    for got, want in zip(levels, expected):
        assert_same_bits(got, want)


def test_trajectory_csv_export(tmp_path):
    cfg = make_cfg(N=2, N_x=3, N_t=1)
    rule = make_rule(cfg)
    path = tmp_path / "traj.csv"
    with trajectory_csv(cfg, path) as on_level:
        explicit_evolve(initial_kinetic_field(cfg, rule), cfg, rule, on_level)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,k,m,f"
    assert len(lines) == 1 + 2 * 3 * 4  # header + 2 levels * Nx * 2N
    # velocity labels skip zero
    ks = {int(line.split(",")[1]) for line in lines[1:]}
    assert ks == {-2, -1, 1, 2}
