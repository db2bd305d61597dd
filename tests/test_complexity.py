import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import svdvals

from transportlab import assembly, complexity, resolve_config, schemes, spectral
from transportlab.spectral import DENSE_CAP, manifest_entry
from transportlab import (
    CSV_HEADER,
    ComplexityRow,
    GridConfig,
    ap_evolve,
    classical_cost,
    explicit_evolve,
    gauss_rule,
    initial_kinetic_field,
    initial_parity_field,
    qlsa_queries,
    rows_to_csv,
    scaling_regression,
    sweep_epsilon,
)


def test_query_count_examples():
    assert qlsa_queries(2, 1.0, 0.5) == pytest.approx(2.0)
    assert qlsa_queries(1, 10.0, 0.25) == pytest.approx(20.0)


def test_query_count_linear_in_sparsity():
    base = qlsa_queries(3, 7.0, 0.1)
    assert qlsa_queries(6, 7.0, 0.1) == pytest.approx(2 * base)


def test_query_count_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            qlsa_queries(2, 3.0, delta)


def test_classical_cost_examples():
    ap = GridConfig(epsilon=0.5, tau=0.004, h=0.1, N=4, N_x=8, N_t=10)
    assert classical_cost(ap) == 1280
    ex = GridConfig(epsilon=0.5, tau=1e-3, h=0.1, N=4, N_x=8, N_t=10,
                    scheme="explicit")
    assert classical_cost(ex) == 5120
    double = GridConfig(epsilon=0.5, tau=0.004, h=0.1, N=4, N_x=8, N_t=20)
    assert classical_cost(double) == 2 * classical_cost(ap)


def test_classical_cost_matches_instrumented_counters():
    # a finished run makes N_t steps, each charged N_vel^2 * N_x
    cfg = GridConfig(epsilon=0.5, tau=0.004, h=0.1, N=3, N_x=6, N_t=7)
    rule = gauss_rule(3, 0.0, 1.0)
    steps = []
    ap_evolve(initial_parity_field(cfg, rule), cfg, rule, lambda n, level: steps.append(n))
    assert classical_cost(cfg) == (len(steps) - 1) * 3**2 * 6
    cfg_e = GridConfig(epsilon=0.4, tau=1e-3, h=0.1, N=3, N_x=6, N_t=7,
                       scheme="explicit")
    rule_e = gauss_rule(6, -1.0, 1.0)
    steps = []
    explicit_evolve(initial_kinetic_field(cfg_e, rule_e), cfg_e, rule_e,
                    lambda n, level: steps.append(n))
    assert classical_cost(cfg_e) == (len(steps) - 1) * 6**2 * 6


# --- sweeps ---------------------------------------------------------------


def ap_base():
    return GridConfig(epsilon=1.0, tau=0.004, h=0.1, N=3, N_x=6, N_t=4)


def explicit_base():
    return GridConfig(epsilon=0.4, tau=1e-3, h=0.04, N=3, N_x=24, N_t=8,
                      scheme="explicit", allow_unstable=True)


def test_fixed_grid_sweep_rows():
    rows = sweep_epsilon(ap_base(), [1e-2, 1e-4, 1e-6], mode="fixed_grid")
    assert [r.epsilon for r in rows] == [1e-2, 1e-4, 1e-6]
    for row in rows:
        assert row.status == "ok"
        assert row.tau == 0.004 and row.Nt == 4  # grid held fixed
        assert row.kappa is not None and row.kappa >= 1.0
        assert row.quantum_queries == pytest.approx(
            row.sparsity * row.kappa * math.log2(1.0 / row.delta)
        )
        assert row.classical_cost == 9 * 4 * 6
    # deep in the diffusive regime both kappa and the query estimate are
    # epsilon-independent (the regime the conditioning theory covers)
    kappas = [r.kappa for r in rows]
    assert max(kappas) / min(kappas) <= 1.01
    queries = [r.quantum_queries for r in rows]
    assert max(queries) / min(queries) <= 10.0


def test_cfl_driven_sweep_growth():
    rows = sweep_epsilon(explicit_base(), [0.4, 0.2, 0.1, 0.05],
                         mode="cfl_driven", delta=0.1, final_time=0.1,
                         measure_spectrum=False)
    for row in rows:
        assert row.status == "counts_only"
        assert row.sigma_min is None and row.quantum_queries is None
        assert row.h == pytest.approx(row.epsilon * 0.1)
        limit = row.h * row.epsilon**2 / (row.epsilon + row.h)
        assert row.tau <= limit
    # each halving of epsilon inflates the step count fourfold: exact in
    # tau (proportional to eps^2), up to rounding in the integer count
    for a, b in zip(rows, rows[1:]):
        assert a.tau / b.tau >= 4.0 - 1e-12
        assert b.Nt >= 4 * a.Nt - 4
    assert rows[-1].Nt == math.ceil(0.1 / rows[-1].tau)


def test_cfl_driven_grid_keeps_the_domain_length():
    # eps = 0.37 rounds N_x = 26; h = eps*delta alone would give length 0.999
    base = explicit_base()
    length = base.x_right - base.x_left
    rows = sweep_epsilon(base, [0.4, 0.37, 0.2, 0.1, 0.05], mode="cfl_driven",
                         measure_spectrum=False)
    for row in rows:
        assert (row.Nx + 1) * row.h == pytest.approx(length, rel=1e-12)
        assert row.tau == pytest.approx(0.9 * row.h * row.epsilon**2
                                        / (row.epsilon + row.h), rel=1e-15)
        assert row.Nt == math.ceil(0.1 / row.tau)


def test_cfl_driven_cost_slope():
    rows = sweep_epsilon(explicit_base(), [0.4, 0.2, 0.1, 0.05],
                         mode="cfl_driven", measure_spectrum=False)
    fit = scaling_regression([(r.epsilon, r.classical_cost) for r in rows])
    assert fit.slope <= -2.7


def test_cfl_driven_requires_explicit_scheme():
    with pytest.raises(ValueError):
        sweep_epsilon(ap_base(), [0.1, 0.05], mode="cfl_driven")
    with pytest.raises(ValueError):
        sweep_epsilon(ap_base(), [0.1], mode="bogus")


def test_schemes_comparable_when_epsilon_is_order_one():
    # at eps = 1 the explicit restriction admits the relaxation scheme's
    # step and both stacked systems condition comparably.  The comparison
    # uses the plain (unrescaled) relaxation system: the tau-rescaling is
    # a small-eps device and skews the spectrum by ~1/tau at eps = 1.
    from transportlab import (
        assemble_ap_system,
        initial_parity_field,
        singular_extremes,
    )

    tau = 0.004
    ap = GridConfig(epsilon=1.0, tau=tau, h=0.1, N=3, N_x=6, N_t=4)
    ex = GridConfig(epsilon=1.0, tau=tau, h=0.1, N=3, N_x=6, N_t=4,
                    scheme="explicit")
    rule = gauss_rule(3, 0.0, 1.0)
    system = assemble_ap_system(ap, rule, initial_parity_field(ap, rule))
    kappa_ap = singular_extremes(system).kappa
    row_ex = sweep_epsilon(ex, [1.0], mode="fixed_grid")[0]
    assert kappa_ap / row_ex.kappa <= 10.0
    assert row_ex.kappa / kappa_ap <= 10.0


def test_sweep_records_per_epsilon_failures():
    rows = sweep_epsilon(ap_base(), [1e-3, -1.0], mode="fixed_grid")
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("error:")
    assert rows[1].epsilon == -1.0


def test_failed_row_reports_the_grid_it_tried(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(spectral, "singular_extremes", fail)
    row = sweep_epsilon(explicit_base(), [0.2], mode="cfl_driven")[0]
    assert row.status == "error: forced failure"
    # the base grid is Nx=24, Nt=8; eps=0.2 rederives h = eps*delta
    assert row.h == pytest.approx(0.02)
    assert row.tau == pytest.approx(0.9 * 0.02 * 0.2**2 / 0.22)
    assert (row.Nx, row.Nt) == (49, 31)
    assert row.classical_cost == 6**2 * 31 * 49


def test_cfl_driven_bad_epsilons_fail_their_rows_only():
    valid = [0.4, 0.2, 0.1]
    bad = {float("nan"): "epsilon must be finite and positive, got nan",
           float("inf"): "epsilon must be finite and positive, got inf",
           0.0: "epsilon must be finite and positive, got 0.0",
           -0.1: "epsilon must be finite and positive, got -0.1",
           1e-300: "tau = 0.0 is not positive at epsilon = 1e-300"}
    mixed = [0.4, *list(bad)[:3], 0.2, *list(bad)[3:], 0.1]
    base = explicit_base()
    rows = sweep_epsilon(base, mixed, mode="cfl_driven", measure_spectrum=False)
    alone = sweep_epsilon(base, valid, mode="cfl_driven", measure_spectrum=False)
    # the valid rows are those of a sweep over the valid values alone
    good = [row for row in rows if row.status == "counts_only"]
    assert rows_to_csv(good) == rows_to_csv(alone)
    failed = [row for row in rows if row.status.startswith("error")]
    assert [row.status for row in failed] == [f"error: {text}" for text in bad.values()]
    for row in failed[:4]:
        # rejected before any grid value was derived: those cells are blank
        assert (row.tau, row.h, row.Nx, row.Nt) == (None,) * 4
        assert (row.alpha, row.classical_cost) == (None, None)
    tiny = failed[4]
    length = base.x_right - base.x_left
    assert tiny.Nx == round(length / (1e-300 * 0.1)) - 1
    assert (tiny.h, tiny.tau, tiny.Nt) == (length / (tiny.Nx + 1), 0.0, None)
    assert tiny.classical_cost is None
    text = rows_to_csv(rows)
    assert text.count("\n") == 1 + len(mixed)
    assert text.splitlines()[2].startswith("explicit,,1.0,,,3,,,0.1,")


def test_cfl_driven_rows_name_what_leaves_the_float_range():
    base = explicit_base()
    length = base.x_right - base.x_left
    rows = sweep_epsilon(base, [0.2, 1e-310, 1e300, 1e200], mode="cfl_driven",
                         measure_spectrum=False)
    alone = sweep_epsilon(base, [0.2], mode="cfl_driven", measure_spectrum=False)
    assert rows_to_csv(rows[:1]) == rows_to_csv(alone)
    # eps * delta underflows, so length / (eps * delta) is inf: nothing derived
    tiny = rows[1]
    assert tiny.status == "error: length/(epsilon*delta) overflows at epsilon = 1e-310"
    assert (tiny.Nx, tiny.h, tiny.tau, tiny.Nt) == (None,) * 4
    assert (tiny.alpha, tiny.classical_cost) == (None, None)
    # eps**2 overflows: N_x and h are derived, tau and N_t are not
    for row, eps in zip(rows[2:], (1e300, 1e200)):
        assert row.status == f"error: epsilon**2 overflows at epsilon = {eps}"
        assert (row.Nx, row.h) == (1, length / 2)
        assert (row.tau, row.Nt, row.alpha, row.classical_cost) == (None,) * 4
    assert rows_to_csv(rows).splitlines()[2].startswith("explicit,1e-310,1.0,,,3,,,0.1,")


def test_an_epsilon_whose_reciprocal_square_overflows_fails_its_row():
    # 1e-160 squares to a subnormal whose reciprocal is inf
    fixed = sweep_epsilon(ap_base(), [1e-160], mode="fixed_grid", measure_spectrum=False)[0]
    assert fixed.status == "error: 1/epsilon**2 overflows at epsilon = 1e-160"
    # cfl_driven derives tau = h*eps^2/(eps+h) first, and it underflows to 0
    cfl = sweep_epsilon(explicit_base(), [1e-160], mode="cfl_driven",
                        measure_spectrum=False)[0]
    assert cfl.status == "error: tau = 0.0 is not positive at epsilon = 1e-160"


def test_cfl_driven_row_names_an_overflowing_step_count():
    # tau ~ 8e-102 is positive, but final_time / tau is inf
    row = sweep_epsilon(explicit_base(), [1e-50], mode="cfl_driven", final_time=1e300,
                        measure_spectrum=False)[0]
    assert row.status == "error: final_time/tau overflows at epsilon = 1e-50"
    assert row.tau > 0 and row.Nt is None and row.classical_cost is None


def test_rows_at_large_epsilon_keep_the_sweep_going():
    # alpha's terms overflow from eps ~ 1e77: the row fails, the sweep goes on
    rows = sweep_epsilon(ap_base(), [1e100, 1e-3], mode="fixed_grid",
                         measure_spectrum=False)
    assert rows[0].status == "error: alpha leaves the float range at epsilon = 1e+100"
    assert math.isnan(rows[0].alpha)
    assert rows[1].status == "counts_only"


def test_upwind_rows_leave_alpha_blank():
    # alpha bounds the relaxation system's Fourier perturbation; the upwind
    # system has no use for it, even where its terms overflow
    relaxation = complexity.row_for(ap_base(), 0.1, measure=False)
    assert relaxation.alpha == spectral.alpha_bound(1.0, 0.004, 3)
    base = GridConfig(epsilon=0.4, tau=1e-3, h=0.1, N=2, N_x=4, N_t=3,
                      scheme="explicit")
    rows = sweep_epsilon(base, [0.4, 1e100], mode="fixed_grid")
    assert [(row.status, row.alpha) for row in rows] == [("ok", None), ("ok", None)]
    assert all(line.split(",")[13] == "" for line in rows_to_csv(rows).splitlines()[1:])
    # an upwind error row whose tau was derived leaves it blank too
    failed = sweep_epsilon(explicit_base(), [1e-50], mode="cfl_driven", final_time=1e300,
                           measure_spectrum=False)[0]
    assert failed.status.startswith("error:") and failed.tau > 0
    assert failed.alpha is None


def _factored_extremes(L):
    """sigma_min, sigma_max of a sparse L by ARPACK on L^T L and, through
    one sparse LU of L, on (L^T L)^{-1}: a reference independent of the
    system's marches."""
    n = L.shape[0]
    Lt = L.T.tocsr()
    lu = spla.splu(L.tocsc())

    def top_eigenvalue(matvec):
        op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
        return spla.eigsh(op, k=1, which="LA", v0=np.ones(n) / math.sqrt(n), tol=1e-13,
                          return_eigenvectors=False)[0]

    top = top_eigenvalue(lambda x: Lt @ (L @ x))
    inverse_top = top_eigenvalue(lambda x: lu.solve(lu.solve(x, trans="T")))
    return 1.0 / math.sqrt(inverse_top), math.sqrt(top)


@pytest.mark.parametrize("raw", [
    # the benchmark's smoke spectrum cases, enlarged past DENSE_CAP
    {"scheme": "ap", "epsilon": 1e-6, "tau": 2e-3, "h": 0.1, "N": 4, "Nx": 16, "Nt": 33},
    {"scheme": "explicit", "epsilon": 0.15, "tau": "auto", "h": 0.04,
     "N": 2, "Nx": 24, "Nt": 48},
], ids=["ap", "explicit"])
def test_row_above_dense_cap_needs_no_factorization(monkeypatch, raw):
    cfg = resolve_config(raw)
    L = schemes.scheme_for(cfg).assemble(cfg, True).L
    assert L.shape[0] > DENSE_CAP
    sigma_min, sigma_max = _factored_extremes(L)

    def refuse(*args, **kwargs):
        raise AssertionError("factorization on the marching path")

    for name in ("splu", "spilu", "spsolve", "spsolve_triangular", "factorized"):
        monkeypatch.setattr(spla, name, refuse)
    row = complexity.row_for(cfg, 0.1)
    assert (row.status, row.spectrum.method) == ("ok", "iterative")
    assert row.sigma_min == pytest.approx(sigma_min, rel=1e-10)
    assert row.sigma_max == pytest.approx(sigma_max, rel=1e-10)
    assert 0.0 <= row.spectrum.residual <= 1e-8


def test_criterion_6_grid_takes_the_iterative_path_and_agrees_with_dense():
    base = GridConfig(epsilon=1.0, tau=1e-2, h=0.1, N=4, N_x=8, N_t=16,
                      allow_unstable=True)
    rows = sweep_epsilon(base, [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    for row in rows:
        assert (row.status, row.spectrum.method) == ("ok", "iterative")
        cfg = dataclasses.replace(base, epsilon=row.epsilon)
        values = svdvals(schemes.scheme_for(cfg).assemble(cfg, True).L.toarray())
        assert row.sigma_min == pytest.approx(values[-1], rel=1e-12)
        assert row.sigma_max == pytest.approx(values[0], rel=1e-12)
        assert row.kappa == pytest.approx(values[0] / values[-1], rel=1e-12)


def test_sweep_skips_spectrum_above_order_cap(monkeypatch):
    monkeypatch.setattr(assembly, "ORDER_CAP", 10)
    rows = sweep_epsilon(ap_base(), [1e-3], mode="fixed_grid")
    assert rows[0].status == "counts_only"
    assert rows[0].classical_cost > 0


# --- CSV rendering --------------------------------------------------------


def test_csv_header_is_exact():
    assert CSV_HEADER == (
        "scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,"
        "sparsity,alpha,classical_cost,quantum_queries,status"
    )


def test_csv_columns_are_the_rows_first_fields():
    names = [field.name for field in dataclasses.fields(ComplexityRow)]
    assert CSV_HEADER.split(",") == names[:17]


def test_csv_rendering_and_determinism():
    rows = sweep_epsilon(ap_base(), [1e-2, 1e-6], mode="fixed_grid")
    text1 = rows_to_csv(rows)
    text2 = rows_to_csv(sweep_epsilon(ap_base(), [1e-2, 1e-6], mode="fixed_grid"))
    assert text1 == text2
    lines = text1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("ap,0.01,")
    assert all(len(line.split(",")) == 17 for line in lines)


def test_csv_writes_numpy_scalars_as_plain_floats():
    row = sweep_epsilon(ap_base(), [1e-2], mode="fixed_grid")[0]
    numpy_row = dataclasses.replace(row, sigma_max=np.float64(row.sigma_max))
    assert rows_to_csv([numpy_row]) == rows_to_csv([row])
    assert "np." not in rows_to_csv([numpy_row])


def test_row_carries_the_spectral_method_outside_the_csv():
    row = sweep_epsilon(ap_base(), [1e-2], mode="fixed_grid")[0]
    assert (row.spectrum.method, row.spectrum.residual) == ("dense", 0.0)
    assert manifest_entry(row.spectrum)["matvecs"] == {
        "sigma_max": 0, "sigma_min": 0, "symbol": 0}
    unmeasured = dataclasses.replace(row, spectrum=None)
    assert rows_to_csv([row]) == rows_to_csv([unmeasured])


def test_csv_preserves_failure_rows_and_blank_cells():
    import csv as csv_mod
    import io

    rows = sweep_epsilon(ap_base(), [-2.0], mode="fixed_grid")
    text = rows_to_csv(rows)
    parsed = list(csv_mod.reader(io.StringIO(text)))
    assert len(parsed[1]) == 17
    assert parsed[1][9] == ""  # sigma_min unmeasured
    assert parsed[1][16].startswith("error:")
    assert parsed[1][16] == rows[0].status  # preserved verbatim
