import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from transportlab import complexity, resolve_config, schemes, singular_extremes, spectral
from transportlab.assembly import DENSE_CAP
from transportlab import (
    CSV_HEADER,
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
    cfg = GridConfig(epsilon=0.5, tau=0.004, h=0.1, N=3, N_x=6, N_t=7)
    rule = gauss_rule(3, 0.0, 1.0)
    trajectory = ap_evolve(initial_parity_field(cfg, rule), cfg, rule)
    assert trajectory.cost == classical_cost(cfg)
    cfg_e = GridConfig(epsilon=0.4, tau=1e-3, h=0.1, N=3, N_x=6, N_t=7,
                       scheme="explicit")
    rule_e = gauss_rule(6, -1.0, 1.0)
    trajectory_e = explicit_evolve(initial_kinetic_field(cfg_e, rule_e), cfg_e, rule_e)
    assert trajectory_e.cost == classical_cost(cfg_e)


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
        assert row.closed_form_classical is None
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
        assert row.closed_form_classical == pytest.approx(
            9 * row.epsilon**-3 / 0.1
        )
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
    kappa_ap = singular_extremes(system.L).kappa
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
    reference = singular_extremes(L)  # a bare matrix: through one splu

    def refuse(*args, **kwargs):
        raise AssertionError("factorization on the marching path")

    for name in ("splu", "spilu", "spsolve", "spsolve_triangular", "factorized"):
        monkeypatch.setattr(spla, name, refuse)
    row = complexity.row_for(cfg, 0.1)
    assert (row.status, row.method) == ("ok", "iterative")
    assert row.sigma_min == pytest.approx(reference.sigma_min, rel=1e-10)
    assert row.sigma_max == pytest.approx(reference.sigma_max, rel=1e-10)
    assert 0.0 <= row.residual <= 1e-8


def test_sweep_skips_spectrum_above_order_cap():
    rows = sweep_epsilon(ap_base(), [1e-3], mode="fixed_grid", order_cap=10)
    assert rows[0].status == "counts_only"
    assert rows[0].classical_cost > 0


# --- CSV rendering --------------------------------------------------------


def test_csv_header_is_exact():
    assert CSV_HEADER == (
        "scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,"
        "sparsity,alpha,classical_cost,quantum_queries,status"
    )


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
    assert (row.method, row.residual) == ("dense", 0.0)
    unmeasured = dataclasses.replace(row, method=None, residual=None)
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
