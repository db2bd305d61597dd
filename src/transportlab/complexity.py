"""Classical and quantum cost estimates plus epsilon/resolution sweeps.

The classical cost of a run is the iteration count N_t times the
O(N^2 N_x) work of one sparse one-step application.  The quantum figure
is the sparse-access query estimate s * kappa * log2(1/delta) of an
optimal linear-systems solver applied to the all-at-once system, with
the big-O constant fixed at 1 and base-2 logarithms so sweep rows are
comparable as ratios and slopes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable

from . import assembly, schemes, spectral
from .model import AP, EXPLICIT, SCHEMES, TAU_SAFETY, GridConfig, write_rows

__all__ = [
    "CSV_HEADER",
    "ComplexityRow",
    "SWEEP_MODES",
    "SweepMode",
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


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def qlsa_queries(s: int, kappa: float, delta: float) -> float:
    """Sparse-access query estimate s * kappa * log2(1/delta)."""
    if s < 1:
        raise ValueError(f"sparsity must be a positive integer, got {s}")
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    _check_delta(delta)
    return s * kappa * math.log2(1.0 / delta)


def classical_cost(cfg: GridConfig) -> int:
    """Nominal operation count of time stepping: N_vel^2 * N_t * N_x.

    Each of the N_t steps charges N_vel^2 * N_x, the nominal work of one
    application of the O(N_vel)-sparse one-step matrices of order
    N_vel * N_x, with N_vel = N for the parity scheme and 2N for the
    explicit one.  A run that diverges raises, so every finished run
    costs exactly this.
    """
    n_vel = cfg.n_velocities()
    return n_vel**2 * cfg.N_t * cfg.N_x


@dataclass
class ComplexityRow:
    """One sweep entry: grid, measured spectrum, and both cost figures.

    The first 17 fields are the CSV columns, named as in ``CSV_HEADER``.
    The last, ``spectrum``, is not part of the CSV schema: the
    ``spectral.SpectrumReport`` of a measured row, whose path, residual,
    matvec counts and rescaling the manifest records, and None on a row
    that measured nothing.  ``alpha`` is the relaxation system's Fourier
    perturbation bound, so it is None on every upwind row.  An error row
    holds None in each grid field the sweep failed before deriving, and
    in ``alpha`` and ``classical_cost`` when they need such a field.
    """

    scheme: str
    epsilon: float
    phi: float
    tau: float | None
    h: float | None
    N: int
    Nx: int | None
    Nt: int | None
    delta: float
    sigma_min: float | None
    sigma_max: float | None
    kappa: float | None
    sparsity: int | None
    alpha: float | None
    classical_cost: int | None
    quantum_queries: float | None
    status: str
    spectrum: spectral.SpectrumReport | None = None


def rows_to_csv(rows) -> str:
    """Render sweep rows with the fixed header, each cell the row field
    of its column's name, in the one table format of ``write_rows``."""
    names = CSV_HEADER.split(",")
    text = io.StringIO()
    write_rows(text, [names, *([getattr(row, name) for name in names] for row in rows)])
    return text.getvalue()


def row_for(
    cfg: GridConfig,
    delta: float,
    measure: bool = True,
    rescaled: bool = True,
) -> ComplexityRow:
    """The grid and cost row of one configuration; with ``measure`` the
    spectrum of its space-time system (tau-rescaled for the relaxation
    scheme when ``rescaled``) fills the measured columns.  A ``delta``
    outside (0, 1) raises ValueError before anything is assembled."""
    _check_delta(delta)
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
        alpha=spectral.alpha_bound(cfg.epsilon, cfg.tau, cfg.N) if cfg.scheme == AP else None,
        classical_cost=classical_cost(cfg),
        quantum_queries=None,
        status="counts_only",
    )
    if measure:
        report = spectral.singular_extremes(schemes.scheme_for(cfg).assemble(cfg, rescaled))
        row.quantum_queries = (
            qlsa_queries(report.sparsity, report.kappa, delta)
            if math.isfinite(report.kappa) else float("inf")
        )
        row.sigma_min, row.sigma_max = report.sigma_min, report.sigma_max
        row.kappa, row.sparsity = report.kappa, report.sparsity
        row.spectrum, row.status = report, "ok"
    return row


def _error_row(base_cfg: GridConfig, grid: dict, delta: float, exc) -> ComplexityRow:
    """Row of a failed epsilon, reporting the grid that was tried.  A grid
    value that ``grid`` holds as None was never derived: its cells, and
    those computed from it, stay blank."""
    tried = {"tau": base_cfg.tau, "h": base_cfg.h,
             "N_x": base_cfg.N_x, "N_t": base_cfg.N_t, **grid}
    alpha = cost = None
    if base_cfg.scheme == AP and tried["tau"] is not None:
        try:
            alpha = spectral.alpha_bound(tried["epsilon"], tried["tau"], base_cfg.N)
        except ValueError:
            alpha = float("nan")
    if tried["N_t"] is not None:
        cost = classical_cost(dc_replace(base_cfg, N_x=tried["N_x"], N_t=tried["N_t"]))
    return ComplexityRow(
        scheme=base_cfg.scheme, epsilon=tried["epsilon"], phi=base_cfg.phi,
        tau=tried["tau"], h=tried["h"], N=base_cfg.N,
        Nx=tried["N_x"], Nt=tried["N_t"], delta=delta,
        sigma_min=None, sigma_max=None, kappa=None, sparsity=None, alpha=alpha,
        classical_cost=cost, quantum_queries=None, status=f"error: {exc}",
    )


@dataclass(frozen=True)
class SweepMode:
    """One grid rule of ``sweep_epsilon``: ``fill(grid, base_cfg, delta,
    final_time)`` sets one epsilon's grid in ``grid`` key by key, so an
    error row reports what was derived (an unset key keeps ``base_cfg``'s
    value); whether its rows skip the step restriction; the schemes it
    serves; and whether it reads ``final_time``, checked before any row."""

    fill: Callable[[dict, GridConfig, float, float], None]
    allow_unstable: bool
    schemes: tuple[str, ...]
    uses_final_time: bool


def _keep_grid(grid: dict, base_cfg: GridConfig, delta: float, final_time: float) -> None:
    """fixed_grid: every epsilon keeps (tau, h, N_x, N_t) of ``base_cfg``,
    where the rescaled relaxation system shows eps-independent
    conditioning; a fixed grid breaks the explicit step restriction at
    small epsilon, so its rows skip it."""


def _cfl_grid(grid: dict, base_cfg: GridConfig, delta: float, final_time: float) -> None:
    """cfl_driven: the explicit scheme's accuracy and stability rules.
    N_x is the domain length over eps * delta, rounded, less one;
    h = length/(N_x + 1) keeps the domain exact; tau = TAU_SAFETY * h *
    eps^2/(eps+h) and N_t = ceil(final_time/tau).  An epsilon that is not
    finite and positive, whose tau underflows to zero, or at which a
    derived quantity leaves the float range raises a ValueError naming it."""
    eps = grid["epsilon"]
    grid.update(dict.fromkeys(("N_x", "h", "tau", "N_t")))
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"epsilon must be finite and positive, got {eps}")
    length = base_cfg.x_right - base_cfg.x_left
    cells = length / (eps * delta) if eps * delta > 0 else math.inf
    if not math.isfinite(cells):
        raise ValueError(f"length/(epsilon*delta) overflows at epsilon = {eps}")
    grid["N_x"] = N_x = max(1, round(cells) - 1)
    grid["h"] = h = length / (N_x + 1)
    try:
        eps2 = eps**2
    except OverflowError:
        raise ValueError(f"epsilon**2 overflows at epsilon = {eps}") from None
    # not TAU_SAFETY * cfl_limit(EXPLICIT, eps, h), whose rounding differs
    # in the last bit on 9,178 of 20,000 random (eps, delta, length) grids:
    # calling it would change the bytes of sweep.csv
    grid["tau"] = tau = TAU_SAFETY * h * eps2 / (eps + h)
    if not tau > 0:
        raise ValueError(f"tau = {tau} is not positive at epsilon = {eps}")
    steps = final_time / tau
    if not math.isfinite(steps):
        raise ValueError(f"final_time/tau overflows at epsilon = {eps}")
    grid["N_t"] = max(1, math.ceil(steps))


# mode name -> grid rule; the first is the default mode
SWEEP_MODES = {
    "fixed_grid": SweepMode(_keep_grid, allow_unstable=True, schemes=SCHEMES,
                            uses_final_time=False),
    "cfl_driven": SweepMode(_cfl_grid, allow_unstable=False, schemes=(EXPLICIT,),
                            uses_final_time=True),
}


def sweep_epsilon(
    base_cfg: GridConfig,
    epsilons,
    mode: str = next(iter(SWEEP_MODES)),
    delta: float = 0.1,
    final_time: float = 0.1,
    measure_spectrum: bool = True,
) -> list[ComplexityRow]:
    """One ComplexityRow per epsilon, on the grid that the ``SWEEP_MODES``
    entry of ``mode`` derives for it.

    A failure is recorded in the row status, with as much of the grid as
    was derived, and the sweep continues.  A row whose system has more
    than ``assembly.ORDER_CAP`` unknowns is counts_only: its spectrum is
    not measured.  An unknown ``mode``, a scheme the mode does not serve,
    a ``delta`` outside (0, 1), or, for a mode that reads it, a
    ``final_time`` that is not finite and positive raises ValueError
    before any row.
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, SWEEP_MODES))}, got {mode!r}")
    grid_rule = SWEEP_MODES[mode]
    _check_delta(delta)
    if base_cfg.scheme not in grid_rule.schemes:
        raise ValueError(
            f"{mode} mode applies the {' or '.join(grid_rule.schemes)} scheme's grid rules")
    if grid_rule.uses_final_time and not (math.isfinite(final_time) and final_time > 0):
        raise ValueError(f"final_time must be finite and positive, got {final_time}")

    rows = []
    for eps in map(float, epsilons):
        grid = {"epsilon": eps}
        try:
            grid_rule.fill(grid, base_cfg, delta, final_time)
            cfg = dc_replace(base_cfg, allow_unstable=grid_rule.allow_unstable, **grid)
            measure = (measure_spectrum
                       and assembly.system_order(cfg) <= assembly.ORDER_CAP)
            row = row_for(cfg, delta, measure)
        except Exception as exc:  # per-epsilon failure: record and continue
            row = _error_row(base_cfg, grid, delta, exc)
        rows.append(row)
    return rows
