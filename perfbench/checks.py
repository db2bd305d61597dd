"""Output checks, run after the timed passes.

Each check recomputes what a CLI invocation wrote by an independent
route through the package's public functions (or scipy) and returns a
list of error strings; an empty list means the output is correct.  A
failed invocation is checked separately: it must be a true numerical
failure (exit 3 with a ``numerical failure:`` message).
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import svdvals

import transportlab as tl

EXIT_NUMERICAL = 3
STEPPER_RTOL = 1e-10      # stepper vs one-step-matrix oracle
ARPACK_RTOL = 1e-8        # iterative sigma_min/sigma_max vs ARPACK
KAPPA_RTOL = 1e-10        # sweep kappa vs svdvals of the same L
WEYL_TOLERANCE = 1e-10    # singular-value sandwich slack


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def failure_errors(label: str, code: int, stderr: str) -> list[str]:
    """A failed invocation must report a true numerical failure."""
    if code == EXIT_NUMERICAL and stderr.startswith("numerical failure:"):
        return []
    return [f"{label}: exit {code} is not a reported numerical failure: {stderr.strip()!r}"]


def _rule(cfg):
    if cfg.scheme == tl.AP:
        return tl.gauss_rule(cfg.N, 0.0, 1.0)
    return tl.gauss_rule(2 * cfg.N, -1.0, 1.0)


def _initial(cfg, rule):
    if cfg.scheme == tl.AP:
        return tl.initial_parity_field(cfg, rule)
    return tl.initial_kinetic_field(cfg, rule)


def _close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


def check_solve(inv, outdir: Path) -> list[str]:
    """Density against the one-step matrices applied N_t times."""
    cfg = tl.resolve_config(inv.config)
    rule = _rule(cfg)
    initial = _initial(cfg, rule)
    if cfg.scheme == tl.AP:
        mats = tl.ap_step_matrices(cfg, rule)
        forcing = tl.boundary_forcing(cfg, rule, initial, mats)
        state = initial
        for _ in range(cfg.N_t):
            state = tl.ap_scheme.matrix_step(state, mats, forcing)
        reference = tl.density(state, rule)
    else:
        B = tl.explicit_matrix(cfg, rule).B
        b = tl.boundary_vector(cfg, rule, initial)
        f = initial.f
        for _ in range(cfg.N_t):
            f = B @ f + b
        reference = 0.5 * (f.reshape(cfg.N_x, 2 * cfg.N) @ rule.weights)

    header, rows = read_csv(outdir / "density.csv")
    if header != ["x", "rho"] or len(rows) != cfg.N_x:
        return [f"solve {inv.label}: density.csv has header {header} and {len(rows)} rows"]
    x = np.array([float(r["x"]) for r in rows])
    rho = np.array([float(r["rho"]) for r in rows])
    errors = []
    if not np.array_equal(x, cfg.interior_x()):
        errors.append(f"solve {inv.label}: x column differs from the interior grid")
    deviation = float(np.max(np.abs(rho - reference)))
    if not deviation <= STEPPER_RTOL * float(np.max(np.abs(reference))):
        errors.append(f"solve {inv.label}: density deviates from the one-step-matrix "
                      f"oracle by {deviation:.3e}")
    return errors


def arpack_extremes(L) -> tuple[float, float]:
    """sigma_min, sigma_max of a sparse real matrix by ARPACK Lanczos on
    the Gram matrix and on its inverse (through a sparse LU)."""
    n = L.shape[0]
    A, At = L.tocsr(), L.T.tocsr()
    gram = spla.LinearOperator((n, n), matvec=lambda x: At @ (A @ x), dtype=float)
    lu = spla.splu(L.tocsc())
    inverse_gram = spla.LinearOperator(
        (n, n), matvec=lambda x: lu.solve(lu.solve(x, trans="T")), dtype=float)
    v0 = np.ones(n) / math.sqrt(n)
    top = spla.eigsh(gram, k=1, which="LA", v0=v0, ncv=40, tol=1e-13,
                     return_eigenvectors=False)[0]
    inverse_top = spla.eigsh(inverse_gram, k=1, which="LA", v0=v0, ncv=40, tol=1e-13,
                             return_eigenvectors=False)[0]
    return 1.0 / math.sqrt(inverse_top), math.sqrt(top)


def _row_cost(row) -> int:
    n_vel = int(row["N"]) if row["scheme"] == tl.AP else 2 * int(row["N"])
    return n_vel**2 * int(row["Nt"]) * int(row["Nx"])


def _check_row(label: str, row) -> list[str]:
    errors = []
    if int(row["classical_cost"]) != _row_cost(row):
        errors.append(f"{label}: classical_cost {row['classical_cost']} is not "
                      f"N_vel^2*Nt*Nx = {_row_cost(row)}")
    if row["status"] == "ok":
        kappa = float(row["kappa"])
        if not _close(kappa, float(row["sigma_max"]) / float(row["sigma_min"]), 1e-12):
            errors.append(f"{label}: kappa is not sigma_max/sigma_min")
        queries = int(row["sparsity"]) * kappa * math.log2(1.0 / float(row["delta"]))
        if not _close(float(row["quantum_queries"]), queries, 1e-12):
            errors.append(f"{label}: quantum_queries is not s*kappa*log2(1/delta)")
    return errors


def check_spectrum(inv, outdir: Path) -> list[str]:
    """sigma_min/sigma_max against an ARPACK reference on the same L."""
    cfg = tl.resolve_config(inv.config)
    rule = _rule(cfg)
    initial = _initial(cfg, rule)
    if cfg.scheme == tl.AP:
        system = tl.assemble_ap_system(cfg, rule, initial, rescaled="--rescaled" in inv.args)
    else:
        system = tl.assemble_explicit_system(cfg, rule, initial)
    header, rows = read_csv(outdir / "spectrum.csv")
    if ",".join(header) != tl.CSV_HEADER or len(rows) != 1:
        return [f"spectrum {inv.label}: spectrum.csv is not one row under CSV_HEADER"]
    row = rows[0]
    label = f"spectrum {inv.label}"
    errors = _check_row(label, row)
    sigma_min, sigma_max = arpack_extremes(system.L)
    for name, reference in (("sigma_min", sigma_min), ("sigma_max", sigma_max)):
        if not _close(float(row[name]), reference, ARPACK_RTOL):
            errors.append(f"{label}: {name} {row[name]} differs from ARPACK's "
                          f"{reference!r} by more than {ARPACK_RTOL:g} relative")
    return errors


def check_sweep(inv, outdir: Path) -> list[str]:
    """Fixed header, one row per epsilon, kappa from svdvals, exact costs."""
    base = tl.resolve_config(inv.config)
    header, rows = read_csv(outdir / "sweep.csv")
    label = f"sweep {inv.label}"
    if ",".join(header) != tl.CSV_HEADER:
        return [f"{label}: header {header} is not CSV_HEADER"]
    if [float(r["epsilon"]) for r in rows] != list(inv.epsilons):
        return [f"{label}: rows do not list the requested epsilons in order"]
    expected_status = "counts_only" if "--no-spectrum" in inv.args else "ok"
    errors = []
    for row in rows:
        eps_label = f"{label} eps={row['epsilon']}"
        if row["status"].startswith("error"):
            continue
        if row["status"] != expected_status:
            errors.append(f"{eps_label}: status {row['status']!r}, expected {expected_status!r}")
            continue
        errors += _check_row(eps_label, row)
        if row["status"] != "ok":
            continue
        cfg = replace(base, epsilon=float(row["epsilon"]), allow_unstable=True)
        rule = _rule(cfg)
        system = tl.assemble_ap_system(cfg, rule, _initial(cfg, rule), rescaled=True)
        values = svdvals(system.L.toarray())
        if not _close(float(row["kappa"]), values[0] / values[-1], KAPPA_RTOL):
            errors.append(f"{eps_label}: kappa {row['kappa']} differs from svdvals' "
                          f"{values[0] / values[-1]!r}")
    return errors


def check_fourier(inv, outdir: Path) -> list[str]:
    """Weyl sandwich within tolerance and one row per sample (and node)."""
    cfg = tl.resolve_config(inv.config)
    samples = int(inv.args[inv.args.index("--xi-samples") + 1])
    label = f"fourier {inv.label}"
    _, symbols = read_csv(outdir / "symbols.csv")
    _, norms = read_csv(outdir / "fourier_norms.csv")
    errors = []
    if len(symbols) != samples * cfg.N:
        errors.append(f"{label}: symbols.csv has {len(symbols)} rows, "
                      f"expected {samples * cfg.N}")
    if len(norms) != samples:
        errors.append(f"{label}: fourier_norms.csv has {len(norms)} rows, expected {samples}")
    slack = max(
        max(float(r["sigma_max_eps"]) - float(r["sigma_max_zero"]) - float(r["e_norm"]),
            float(r["sigma_min_zero"]) - float(r["e_norm"]) - float(r["sigma_min_eps"]))
        for r in norms
    ) if norms else math.inf
    if not slack <= WEYL_TOLERANCE:
        errors.append(f"{label}: weyl_slack {slack:.3e} exceeds {WEYL_TOLERANCE:g}")
    return errors


CHECKS = {
    "solve": check_solve,
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "fourier": check_fourier,
}
