"""Classical and quantum cost estimates plus epsilon/resolution sweeps.

The classical cost of a run is the iteration count N_t times the
O(N^2 N_x) work of one sparse one-step application.  The quantum figure
is the sparse-access query estimate s * kappa * log2(1/delta) of an
optimal linear-systems solver applied to the all-at-once system, with
the big-O constant fixed at 1 and base-2 logarithms so sweep rows are
comparable as ratios and slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

from . import assembly, schemes, spectral
from .model import EXPLICIT, GridConfig

__all__ = [
    "CSV_HEADER",
    "ComplexityRow",
    "classical_cost",
    "qlsa_queries",
    "row_for",
    "rows_to_csv",
    "sweep_epsilon",
]

CSV_HEADER = (
    "scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,"
    "sparsity,alpha,classical_cost,quantum_queries,status"
)


def qlsa_queries(s: int, kappa: float, delta: float) -> float:
    """Sparse-access query estimate s * kappa * log2(1/delta)."""
    if s < 1:
        raise ValueError(f"sparsity must be a positive integer, got {s}")
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return s * kappa * math.log2(1.0 / delta)


def classical_cost(cfg: GridConfig) -> int:
    """Nominal operation count of time stepping: N_vel^2 * N_t * N_x.

    Matches the instrumented counters of the evolution drivers exactly
    (both charge N_vel^2 * N_x per step, with N_vel = N for the parity
    scheme and 2N for the explicit one).
    """
    n_vel = cfg.n_velocities()
    return n_vel**2 * cfg.N_t * cfg.N_x


@dataclass
class ComplexityRow:
    """One sweep entry: grid, measured spectrum, and both cost figures.

    ``closed_form_classical``/``closed_form_quantum`` carry the
    resolution-rule cost expressions N^2 eps^-3 delta^-1 and
    N^2 eps^-2 log2(1/(eps*delta)) for explicit-scheme rows (None for
    relaxation rows); they are reported alongside but are not part of
    the CSV schema.  Nor are ``method`` and ``residual``, the spectral
    path ("dense" or "iterative") and its residual of a measured row.
    """

    scheme: str
    epsilon: float
    phi: float
    tau: float
    h: float
    N: int
    Nx: int
    Nt: int
    delta: float
    sigma_min: float | None
    sigma_max: float | None
    kappa: float | None
    sparsity: int | None
    alpha: float
    classical_cost: int
    quantum_queries: float | None
    status: str
    closed_form_classical: float | None = None
    closed_form_quantum: float | None = None
    method: str | None = None
    residual: float | None = None


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        if math.isinf(value):
            return "inf"
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(rows) -> str:
    """Render sweep rows with the fixed header; floats use repr so the
    output is byte-identical across reruns on the same platform."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in (
            row.scheme, row.epsilon, row.phi, row.tau, row.h,
            row.N, row.Nx, row.Nt, row.delta,
            row.sigma_min, row.sigma_max, row.kappa, row.sparsity,
            row.alpha, row.classical_cost, row.quantum_queries, row.status,
        )))
    return "\n".join(lines) + "\n"


def row_for(
    cfg: GridConfig,
    delta: float,
    measure: bool = True,
    rescaled: bool = True,
    order_cap: int = assembly.ORDER_CAP_DEFAULT,
) -> ComplexityRow:
    """The grid and cost row of one configuration; with ``measure`` the
    spectrum of its space-time system (tau-rescaled for the relaxation
    scheme when ``rescaled``) fills the measured columns."""
    row = ComplexityRow(
        scheme=cfg.scheme,
        epsilon=cfg.epsilon,
        phi=cfg.phi,
        tau=cfg.tau,
        h=cfg.h,
        N=cfg.N,
        Nx=cfg.N_x,
        Nt=cfg.N_t,
        delta=delta,
        sigma_min=None,
        sigma_max=None,
        kappa=None,
        sparsity=None,
        alpha=spectral.alpha_bound(cfg.epsilon, cfg.tau, cfg.N),
        classical_cost=classical_cost(cfg),
        quantum_queries=None,
        status="counts_only",
    )
    if measure:
        system = schemes.scheme_for(cfg).assemble(cfg, rescaled, order_cap)
        report = spectral.singular_extremes(system.L,
                                            inverse=system.marching_inverse())
        row.quantum_queries = (
            qlsa_queries(report.sparsity, report.kappa, delta)
            if math.isfinite(report.kappa) else float("inf")
        )
        row.sigma_min, row.sigma_max = report.sigma_min, report.sigma_max
        row.kappa, row.sparsity = report.kappa, report.sparsity
        row.method, row.residual = report.method, report.residual
        row.status = "ok"
    return row


def _error_row(base_cfg: GridConfig, grid: dict, delta: float, exc) -> ComplexityRow:
    """Row of a failed epsilon, reporting the grid that was tried."""
    tried = {"tau": base_cfg.tau, "h": base_cfg.h,
             "N_x": base_cfg.N_x, "N_t": base_cfg.N_t, **grid}
    try:
        alpha = spectral.alpha_bound(tried["epsilon"], tried["tau"], base_cfg.N)
    except ValueError:
        alpha = float("nan")
    return ComplexityRow(
        scheme=base_cfg.scheme, epsilon=tried["epsilon"], phi=base_cfg.phi,
        tau=tried["tau"], h=tried["h"], N=base_cfg.N,
        Nx=tried["N_x"], Nt=tried["N_t"], delta=delta,
        sigma_min=None, sigma_max=None, kappa=None, sparsity=None, alpha=alpha,
        classical_cost=classical_cost(
            dc_replace(base_cfg, N_x=tried["N_x"], N_t=tried["N_t"])),
        quantum_queries=None, status=f"error: {exc}",
    )


def sweep_epsilon(
    base_cfg: GridConfig,
    epsilons,
    mode: str = "fixed_grid",
    delta: float = 0.1,
    final_time: float = 0.1,
    measure_spectrum: bool = True,
    order_cap: int = assembly.ORDER_CAP_DEFAULT,
    h_constant: float = 1.0,
    tau_safety: float = 0.9,
) -> list[ComplexityRow]:
    """Produce one ComplexityRow per epsilon.

    fixed_grid keeps (tau, h, N_x, N_t) of ``base_cfg`` and varies only
    epsilon, the regime where the rescaled relaxation system shows
    eps-independent conditioning; it skips the step restriction
    (``allow_unstable=True``), since a fixed grid breaks the explicit
    one at small epsilon.  cfl_driven rederives the grid from each
    epsilon via the explicit scheme's accuracy/stability rules: N_x is
    the fixed domain length over h_constant * eps * delta, rounded, less
    one; h = length/(N_x + 1) keeps the domain exact;
    tau = tau_safety * h * eps^2/(eps+h) and N_t = ceil(final_time/tau).
    A failure is recorded in the row status, with the grid that was
    tried, and the sweep continues.
    """
    if mode not in ("fixed_grid", "cfl_driven"):
        raise ValueError(f"mode must be 'fixed_grid' or 'cfl_driven', got {mode!r}")
    if mode == "cfl_driven" and base_cfg.scheme != EXPLICIT:
        raise ValueError("cfl_driven mode applies the explicit scheme's grid rules")

    length = base_cfg.x_right - base_cfg.x_left
    rows = []
    for eps in map(float, epsilons):
        grid = {"epsilon": eps}
        try:
            if mode == "cfl_driven":
                N_x = max(1, round(length / (h_constant * eps * delta)) - 1)
                h = length / (N_x + 1)
                tau = tau_safety * h * eps**2 / (eps + h)
                grid.update(h=h, tau=tau, N_x=N_x,
                            N_t=max(1, math.ceil(final_time / tau)))
            cfg = dc_replace(base_cfg, allow_unstable=mode == "fixed_grid", **grid)
            closed_form = schemes.scheme_for(cfg).closed_form(cfg, delta)
            # both schemes yield order 2N*N_x*N_t (parity pair vs 2N nodes)
            order = 2 * cfg.N * cfg.N_x * cfg.N_t
            row = row_for(cfg, delta, measure_spectrum and order <= order_cap,
                          order_cap=order_cap)
            row.closed_form_classical, row.closed_form_quantum = closed_form
        except Exception as exc:  # per-epsilon failure: record and continue
            row = _error_row(base_cfg, grid, delta, exc)
        rows.append(row)
    return rows
