"""Command-line surface: solve, assemble, spectrum, fourier, sweep.

Every run whose configuration resolves writes a manifest once it ends,
recording the fully resolved configuration, the tool version, the
config-file hash, the python, numpy, scipy and BLAS versions and the
exit status, so any output row can be regenerated and a failed run is
not mistaken for a finished one.  It holds no wall time or memory
figure, so a rerun writes the same bytes.  A run that fails before its
configuration resolves removes the manifest an earlier run left in its
output directory.
Exit codes: 0 ok, 1 usage, 2 validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, assembly, complexity, schemes, spectral
from .model import (
    CONFIG_KEYS,
    CflViolationError,
    DivergenceError,
    GridConfig,
    UnsupportedConfigurationError,
    atomic_open,
    config_as_dict,
    read_config,
    resolve_config,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route through our exit codes instead
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="transportlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--output-dir", default=".", help="directory for artifacts")
        p.add_argument("--allow-unstable", action="store_true",
                       help="accept configurations violating the step restriction")
        # overrides: flag names coincide with config keys
        for key in CONFIG_KEYS:
            p.add_argument(f"--{key}", default=None, help=argparse.SUPPRESS)

    p_solve = sub.add_parser("solve", help="run the configured time stepper")
    add_common(p_solve)
    p_solve.add_argument("--export-trajectory", action="store_true",
                         help="also write the full (step, k, m, ...) table")

    p_asm = sub.add_parser("assemble", help="write the space-time system L, F")
    add_common(p_asm)
    p_asm.add_argument("--rescaled", action="store_true",
                       help="assemble the tau-rescaled relaxation system")

    p_spec = sub.add_parser("spectrum", help="measure one system's spectrum")
    add_common(p_spec)
    p_spec.add_argument("--rescaled", action="store_true")
    p_spec.add_argument("--delta", type=float, default=0.1)

    p_fourier = sub.add_parser("fourier", help="per-frequency symbol/norm tables")
    add_common(p_fourier)
    p_fourier.add_argument("--xi-samples", type=int, default=64)

    p_sweep = sub.add_parser("sweep", help="multi-epsilon comparison CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--epsilons", required=True,
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--mode", choices=("fixed_grid", "cfl_driven"),
                         default="fixed_grid")
    p_sweep.add_argument("--delta", type=float, default=0.1)
    p_sweep.add_argument("--T", type=float, default=0.1,
                         help="final time for cfl_driven grids")
    p_sweep.add_argument("--no-spectrum", action="store_true",
                         help="emit resolution/cost counts only")
    return parser


def _atomic_write(path: Path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def emit_report(rows, destination) -> Path:
    """Write sweep rows to CSV atomically (write-then-rename)."""
    if not rows:
        raise ValueError("rows must be nonempty")
    destination = Path(destination)
    _atomic_write(destination, complexity.rows_to_csv(rows))
    return destination


def _runtime() -> dict:
    """Python, numpy, scipy and numpy's BLAS build of this process.

    Only facts that stay the same from run to run: a rerun must write
    the same bytes.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _write_manifest(args, cfg: GridConfig, outdir: Path, extra: dict):
    config_bytes = Path(args.config).read_bytes()
    manifest = {
        "tool": "transportlab",
        "version": __version__,
        "subcommand": args.subcommand,
        "resolved_config": config_as_dict(cfg),
        "allow_unstable": bool(args.allow_unstable),
        "input_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "runtime": _runtime(),
        **extra,
    }
    path = outdir / "manifest.json"
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _cmd_solve(args, cfg, outdir: Path, record: dict) -> list[Path]:
    scheme = schemes.scheme_for(cfg)
    rule = scheme.rule(cfg)
    tpath = outdir / "trajectory.csv"
    # with a callback the run holds only its current level; the export
    # writes each level's rows as the level is made
    sink = (schemes.trajectory_csv(cfg, tpath) if args.export_trajectory
            else contextlib.nullcontext(lambda step, level: None))
    with sink as on_level:
        trajectory = scheme.evolve(scheme.initial(cfg, rule), cfg, rule, on_level)
    record["solve"] = {"steps": cfg.N_t, "cost": trajectory.cost}
    rho = scheme.density(trajectory.fields[-1], rule)
    x = cfg.interior_x()
    lines = ["x,rho"]
    lines += [f"{repr(float(xi))},{repr(float(ri))}" for xi, ri in zip(x, rho)]
    dpath = outdir / "density.csv"
    _atomic_write(dpath, "\n".join(lines) + "\n")
    return [dpath, tpath] if args.export_trajectory else [dpath]


def _cmd_assemble(args, cfg, outdir: Path, record: dict) -> list[Path]:
    system = schemes.scheme_for(cfg).assemble(cfg, args.rescaled)
    meta = assembly.system_metadata(system)
    lpath = outdir / "L.mtx"
    fpath = outdir / "F.mtx"
    assembly.export_matrix_market(system.L, lpath, meta)
    assembly.export_matrix_market(system.F, fpath, meta)
    return [lpath, fpath]


def _cmd_spectrum(args, cfg, outdir: Path, record: dict) -> list[Path]:
    row = complexity.row_for(cfg, args.delta, rescaled=args.rescaled)
    record["spectrum"] = {"method": row.method, "residual": row.residual}
    path = outdir / "spectrum.csv"
    emit_report([row], path)
    return [path]


def _cmd_fourier(args, cfg, outdir: Path, record: dict) -> list[Path]:
    # the per-frequency analysis is the relaxation scheme's; the
    # assembler rejects any other
    rule = schemes.scheme_for(cfg).rule(cfg)
    xi_values = np.linspace(0.0, np.pi, args.xi_samples) / cfg.h
    report = spectral.perturbation_check(cfg, rule, xi_values)

    sym_lines = ["xi,k,v,c1_re,c1_im,c2_re,c2_im,d1_re,d1_im,d2_re,d2_im"]
    for xi in xi_values:
        for k, v in enumerate(rule.nodes):
            s = assembly.fourier_symbols(cfg, v, xi)
            sym_lines.append(",".join([
                repr(float(xi)), str(k + 1), repr(float(v)),
                repr(float(s.c1.real)), repr(float(s.c1.imag)),
                repr(float(s.c2.real)), repr(float(s.c2.imag)),
                repr(float(s.d1.real)), repr(float(s.d1.imag)),
                repr(float(s.d2.real)), repr(float(s.d2.imag)),
            ]))
    spath = outdir / "symbols.csv"
    _atomic_write(spath, "\n".join(sym_lines) + "\n")

    norm_lines = ["xi,e_norm,sigma_max_eps,sigma_min_eps,sigma_max_zero,"
                  "sigma_min_zero,alpha"]
    for i, xi in enumerate(report.xi):
        norm_lines.append(",".join(repr(float(v)) for v in (
            xi, report.e_norms[i], report.sigma_max_eps[i],
            report.sigma_min_eps[i], report.sigma_max_zero[i],
            report.sigma_min_zero[i], report.alpha,
        )))
    npath = outdir / "fourier_norms.csv"
    _atomic_write(npath, "\n".join(norm_lines) + "\n")
    return [spath, npath]


def _cmd_sweep(args, cfg, outdir: Path, record: dict) -> list[Path]:
    epsilons = [float(e) for e in args.epsilons.split(",") if e]
    if not epsilons:
        raise _UsageError("--epsilons must list at least one value")
    rows = complexity.sweep_epsilon(
        cfg, epsilons, mode=args.mode, delta=args.delta,
        final_time=args.T, measure_spectrum=not args.no_spectrum,
    )
    record["sweep"] = [
        {"epsilon": row.epsilon, "status": row.status,
         "method": row.method, "residual": row.residual}
        for row in rows
    ]
    path = outdir / "sweep.csv"
    emit_report(rows, path)
    return [path]


def main(argv=None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        if "unrecognized arguments" in str(exc):
            print(f"valid override keys: {', '.join(CONFIG_KEYS)}",
                  file=sys.stderr)
        return EXIT_USAGE

    cfg = None
    record: dict = {}
    code = EXIT_OK
    try:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        # override flags coincide with config keys
        raw = read_config(args.config)
        raw.update({key: value for key in CONFIG_KEYS
                    if (value := getattr(args, key)) is not None})
        cfg = resolve_config(raw, allow_unstable=args.allow_unstable)
        handler = {
            "solve": _cmd_solve,
            "assemble": _cmd_assemble,
            "spectrum": _cmd_spectrum,
            "fourier": _cmd_fourier,
            "sweep": _cmd_sweep,
        }[args.subcommand]
        written = handler(args, cfg, outdir, record)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except CflViolationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        print("pass --allow-unstable to proceed anyway", file=sys.stderr)
        code = EXIT_VALIDATION
    except (ValueError, UnsupportedConfigurationError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO

    stale = Path(args.output_dir) / "manifest.json"
    try:
        if cfg is not None:
            _write_manifest(args, cfg, outdir, {**record, "exit_status": code})
        elif stale.exists():
            # nothing resolved to record, and an earlier run's manifest
            # must not read as this run's
            stale.unlink()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        # a failed run keeps its own exit code
        if code == EXIT_OK:
            code = EXIT_IO
    if code == EXIT_OK:
        for path in written:
            print(path)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
