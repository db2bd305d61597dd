"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute (they also appear in captured output on failure).
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import svdvals

from transportlab import (
    GridConfig,
    ParityField,
    alpha_bound,
    ap_evolve,
    assemble_ap_system,
    assemble_explicit_system,
    density,
    explicit_evolve,
    fourier_symbols,
    gauss_rule,
    initial_kinetic_field,
    initial_parity_field,
    perturbation_check,
    scaling_regression,
    singular_extremes,
    sweep_epsilon,
)
from transportlab.ap_scheme import ApWorkspace, relaxation_step
from transportlab.complexity import rows_to_csv
from transportlab.explicit_scheme import explicit_matrix

SEED = 20240817


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_ap_stepper_matches_dense_solve():
    started = time.perf_counter()
    h = 1.0 / 17.0
    tau = 0.9 * h**2 / (1.0 + h)
    rule = gauss_rule(4, 0.0, 1.0)
    worst = 0.0
    for eps in (1.0, 1e-3, 1e-6):
        cfg = GridConfig(epsilon=eps, tau=tau, h=h, N=4, N_x=16, N_t=32)
        init = initial_parity_field(cfg, rule)
        trajectory = ap_evolve(init, cfg, rule)
        system = assemble_ap_system(cfg, rule, init)
        solution = sla.solve(system.L.toarray(), system.F)
        for n, (r, j) in enumerate(system.split(solution), start=1):
            ref = np.concatenate([trajectory.fields[n].r, trajectory.fields[n].j])
            got = np.concatenate([r, j])
            worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - started
    report(1, worst <= 1e-10 and elapsed <= 10.0,
           f"max per-level relative error {worst:.3e} (tol 1e-10), "
           f"runtime {elapsed:.1f}s (limit 10s)")


# -- 2 ---------------------------------------------------------------------


def test_criterion_2_explicit_stepper_matches_dense_solve():
    started = time.perf_counter()
    h = 1.0 / 17.0
    eps = 0.5
    tau = 0.9 * h * eps**2 / (eps + h)
    cfg = GridConfig(epsilon=eps, tau=tau, h=h, N=4, N_x=16, N_t=32,
                     scheme="explicit")
    rule = gauss_rule(8, -1.0, 1.0)
    init = initial_kinetic_field(cfg, rule)
    trajectory = explicit_evolve(init, cfg, rule)
    system = assemble_explicit_system(cfg, rule, init)
    solution = sla.solve(system.L.toarray(), system.F)
    worst = 0.0
    for n, (level,) in enumerate(system.split(solution), start=1):
        ref = trajectory.fields[n].f
        worst = max(worst, np.linalg.norm(level - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - started
    report(2, worst <= 1e-10 and elapsed <= 10.0,
           f"max per-level relative error {worst:.3e} (tol 1e-10), "
           f"runtime {elapsed:.1f}s (limit 10s)")


# -- 3 ---------------------------------------------------------------------


def test_criterion_3_relaxation_preserves_density():
    rng = np.random.default_rng(SEED)
    cfg = GridConfig(epsilon=0.05, tau=0.004, h=0.1, N=4, N_x=16, N_t=1)
    rule = gauss_rule(4, 0.0, 1.0)
    ws = ApWorkspace(cfg, rule)
    worst = 0.0
    for _ in range(100):
        field = ParityField(
            rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64),
            np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(4),
        )
        rho = density(field, rule)
        drift = np.linalg.norm(density(relaxation_step(field, ws), rule) - rho)
        worst = max(worst, drift / np.linalg.norm(rho))
    report(3, worst <= 1e-13,
           f"max density drift {worst:.3e} of ||rho|| over 100 random steps "
           f"(tol 1e-13)")


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_algebraic_identities():
    failures = []
    for N in (2, 4, 8):
        rule01 = gauss_rule(N, 0.0, 1.0)
        W = np.tile(rule01.weights, (N, 1))
        if np.abs(W @ W - W).max() > 1e-13:
            failures.append(f"W^2 != W at N={N}")
        if np.linalg.norm(W, 2) > math.sqrt(N) + 1e-10:
            failures.append(f"||W|| > sqrt(N) at N={N}")
        h, eps = 0.1, 0.5
        cfg = GridConfig(epsilon=eps, tau=0.9 * h * eps**2 / (eps + h), h=h,
                         N=N, N_x=5, N_t=2, scheme="explicit")
        mats = explicit_matrix(cfg, gauss_rule(2 * N, -1.0, 1.0))
        B2 = mats.B2.toarray()
        if np.abs(B2 @ B2 - B2).max() > 1e-13:
            failures.append(f"B2^2 != B2 at N={N}")
        recombined = (mats.B1 + (cfg.tau / eps**2) * mats.B2).tocsr()
        recombined.sort_indices()
        B = mats.B.copy()
        B.sort_indices()
        same_pattern = (np.array_equal(B.indices, recombined.indices)
                        and np.array_equal(B.indptr, recombined.indptr))
        if not same_pattern:
            failures.append(f"B vs B1+alpha*B2 pattern mismatch at N={N}")
        if np.abs(B.data - recombined.data).max() > 1e-15:
            failures.append(f"B vs B1+alpha*B2 value mismatch at N={N}")
    report(4, not failures,
           "W^2=W, B2^2=B2, ||W||<=sqrt(N), B=B1+(tau/eps^2)B2 for N in "
           "{2,4,8}" + (f"; failures: {failures}" if failures else ""))


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_explicit_stability_bounds():
    h, eps = 1.0 / 17.0, 0.5
    tau = 0.9 * h * eps**2 / (eps + h)
    cfg = GridConfig(epsilon=eps, tau=tau, h=h, N=4, N_x=16, N_t=32,
                     scheme="explicit")
    mats = explicit_matrix(cfg, gauss_rule(8, -1.0, 1.0))
    top = svdvals(mats.B1.toarray())[0]
    bound_b1 = 1.0 - tau / eps**2 + 1e-10
    half_w = 0.5 * np.linalg.norm(mats.W, 2)
    Bd = mats.B.toarray()
    power = np.eye(Bd.shape[0])
    worst_power = 0.0
    for _ in range(32):
        power = power @ Bd
        worst_power = max(worst_power, np.linalg.norm(power, 2))
    report(5, top <= bound_b1 and worst_power <= half_w + 1e-8,
           f"sigma_max(B1)={top:.6f} <= 1-tau/eps^2={1 - tau / eps**2:.6f}; "
           f"max_n<=32 ||B^n||={worst_power:.6f} <= 0.5||W||+1e-8="
           f"{half_w + 1e-8:.6f}")


# -- 6 ---------------------------------------------------------------------

EPS_SWEEP_6 = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]


def run_sweep_6():
    base = GridConfig(epsilon=1.0, tau=1e-2, h=0.1, N=4, N_x=8, N_t=16,
                      allow_unstable=True)
    return sweep_epsilon(base, EPS_SWEEP_6, mode="fixed_grid")


@pytest.fixture(scope="module")
def sweep_6_rows():
    return run_sweep_6()


def test_criterion_6_rescaled_kappa_epsilon_independence(sweep_6_rows):
    started = time.perf_counter()
    kappas = {row.epsilon: row.kappa for row in sweep_6_rows}
    assert all(k is not None for k in kappas.values())
    ratio = max(kappas.values()) / min(kappas.values())
    elapsed = time.perf_counter() - started
    detail = (
        f"kappa over eps={EPS_SWEEP_6}: "
        + ", ".join(f"{kappas[e]:.4g}" for e in EPS_SWEEP_6)
        + f"; max/min ratio {ratio:.4g} (required <= 10). "
        "Measured outcome: the ratio is driven entirely by eps=1, where the "
        "small-eps premise of the conditioning theory does not apply "
        "(alpha(1) ~ 2e6 makes its bounds vacuous); over eps <= 1e-1 the "
        f"ratio is {max(kappas[e] for e in EPS_SWEEP_6[1:]) / min(kappas[e] for e in EPS_SWEEP_6[1:]):.4g} "
        "and over eps <= 1e-2 the spectrum is epsilon-independent to 5 "
        "significant digits."
    )
    report(6, ratio <= 10.0 and elapsed <= 120.0, detail)


# -- 7 ---------------------------------------------------------------------


def test_criterion_7a_sigma_max_slope_in_velocity_count():
    rule_cache = {N: gauss_rule(N, 0.0, 1.0) for N in (2, 4, 8, 16)}
    points = []
    for N in (2, 4, 8, 16):
        cfg = GridConfig(epsilon=1e-6, tau=5e-3, h=0.1, N=N, N_x=4, N_t=8)
        system = assemble_ap_system(cfg, rule_cache[N],
                                    initial_parity_field(cfg, rule_cache[N]),
                                    rescaled=True)
        points.append((N, singular_extremes(system).sigma_max))
    fit = scaling_regression(points)
    ok = abs(fit.slope - 0.5) <= 0.15
    detail = (
        f"sigma_max over N=(2,4,8,16): "
        + ", ".join(f"{v:.4f}" for _, v in points)
        + f"; log-log slope {fit.slope:.4f} +- {fit.stderr:.4f} "
        "(required 0.5 +- 0.15). Measured outcome: sigma_max is flat in N "
        "because the row-identical weight matrix has spectral norm "
        "sqrt(N)*||w||_2, and Gauss-Legendre weights give ||w||_2 ~ 1/sqrt(N), "
        "so the sqrt(N) in the theory is a one-sided upper bound, not a "
        "growth rate; no discretization parameter changes this."
    )
    report("7a", ok, detail)


def test_criterion_7b_inverse_sigma_min_slope_in_time_steps():
    rule = gauss_rule(4, 0.0, 1.0)
    points = []
    for N_t in (8, 16, 32, 64):
        cfg = GridConfig(epsilon=1e-6, tau=2e-3, h=0.1, N=4, N_x=8, N_t=N_t)
        system = assemble_ap_system(cfg, rule, initial_parity_field(cfg, rule),
                                    rescaled=True)
        points.append((N_t, 1.0 / singular_extremes(system).sigma_min))
    fit = scaling_regression(points)
    report("7b", abs(fit.slope - 1.0) <= 0.15,
           f"1/sigma_min over Nt=(8,16,32,64): "
           + ", ".join(f"{v:.2f}" for _, v in points)
           + f"; log-log slope {fit.slope:.4f} +- {fit.stderr:.4f} "
           "(required 1.0 +- 0.15)")


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_perturbation_bound_and_weyl():
    rule = gauss_rule(4, 0.0, 1.0)
    xi = np.linspace(0.0, np.pi, 64) / 0.11
    worst_ratio, worst_slack = 0.0, -np.inf
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = GridConfig(epsilon=eps, tau=1e-2, h=0.11, N=4, N_x=8, N_t=16)
        result = perturbation_check(cfg, rule, xi, weyl_tolerance=1e-10)
        worst_ratio = max(worst_ratio, result.max_ratio)
        worst_slack = max(worst_slack, result.weyl_slack)
    report(8, worst_ratio <= 10.0 and worst_slack <= 1e-10,
           f"max ||E||/alpha = {worst_ratio:.4g} (<= 10); worst sandwich "
           f"violation {worst_slack:.3e} (<= 1e-10)")


# -- 9 ---------------------------------------------------------------------


def run_sweep_9():
    base = GridConfig(epsilon=0.4, tau=1e-3, h=0.04, N=4, N_x=24, N_t=8,
                      scheme="explicit", allow_unstable=True)
    return sweep_epsilon(base, [0.4, 0.2, 0.1, 0.05], mode="cfl_driven",
                         delta=0.1, final_time=0.1, measure_spectrum=False)


@pytest.fixture(scope="module")
def sweep_9_rows():
    return run_sweep_9()


def test_criterion_9_explicit_cost_blowup(sweep_9_rows):
    started = time.perf_counter()
    cost_fit = scaling_regression(
        [(r.epsilon, r.classical_cost) for r in sweep_9_rows]
    )
    nt_fit = scaling_regression([(r.epsilon, r.Nt) for r in sweep_9_rows])
    elapsed = time.perf_counter() - started
    report(9, cost_fit.slope <= -2.7 and nt_fit.slope <= -1.7
           and elapsed <= 60.0,
           f"classical_cost slope {cost_fit.slope:.3f} (<= -2.7), "
           f"Nt slope {nt_fit.slope:.3f} (<= -1.7), counts only, "
           f"runtime {elapsed:.2f}s")


# -- 10 --------------------------------------------------------------------


def test_criterion_10_fourier_symbol_limits():
    rule = gauss_rule(4, 0.0, 1.0)
    tau, h = 1e-2, 0.11
    xi_values = np.linspace(0.0, np.pi, 64) / h
    eps_grid = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    cfgs = {e: GridConfig(epsilon=e, tau=tau, h=h, N=4, N_x=8, N_t=16)
            for e in eps_grid}
    assert cfgs[1e-3].lam + tau / h**2 <= 1.0  # step restriction holds

    worst_jump, final_size = 0.0, 0.0
    bound_c1, bound_d2 = 0.0, 0.0
    for v in rule.nodes:
        for xi in xi_values:
            previous = None
            for eps in eps_grid:
                s = fourier_symbols(cfgs[eps], v, xi)
                magnitudes = np.array(
                    [abs(s.c1), abs(s.c2) / tau, abs(s.d1), tau * abs(s.d2)]
                )
                if previous is not None:
                    worst_jump = max(worst_jump, (magnitudes - previous).max())
                previous = magnitudes
            final_size = max(final_size, magnitudes.max())
            bound_c1 = max(bound_c1, abs(s.gamma0_c1))
            bound_d2 = max(bound_d2, tau * abs(s.gamma0_d2))
    ok = (worst_jump <= 1e-12 and final_size <= 1e-8
          and bound_c1 <= 1.0 + 1e-12 and bound_d2 <= 1.0 + tau + 1e-12)
    report(10, ok,
           f"grid monotone within {worst_jump:.2e} (<= 1e-12); values at "
           f"eps=1e-6: {final_size:.2e}; max|g0*c1,0|={bound_c1:.6f} (<= 1); "
           f"max|tau*g0*d2,0|={bound_d2:.6f} (<= {1 + tau})")


# -- 11 --------------------------------------------------------------------


def test_criterion_11_quadrature_exactness():
    worst = 0.0
    for n in range(1, 33):
        for a, b in ((0.0, 1.0), (-1.0, 1.0)):
            rule = gauss_rule(n, a, b)
            for p in range(2 * n):
                exact = (b ** (p + 1) - a ** (p + 1)) / (p + 1)
                err = abs(rule.integrate(rule.nodes**p) - exact)
                worst = max(worst, err / max(1.0, abs(exact)))
    report(11, worst <= 1e-12,
           f"max relative moment error {worst:.3e} over n <= 32, "
           f"degrees <= 2n-1, both intervals (tol 1e-12)")


# -- 12 --------------------------------------------------------------------


def test_criterion_12_reruns_are_byte_identical(sweep_6_rows, sweep_9_rows):
    first_6 = rows_to_csv(sweep_6_rows)
    first_9 = rows_to_csv(sweep_9_rows)
    second_6 = rows_to_csv(run_sweep_6())
    second_9 = rows_to_csv(run_sweep_9())
    ok = (first_6.encode() == second_6.encode()
          and first_9.encode() == second_9.encode())
    report(12, ok,
           "rerunning the CSV-producing sweeps reproduces byte-identical "
           f"output ({len(first_6.encode())} + {len(first_9.encode())} bytes)")
