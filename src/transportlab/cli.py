"""Command-line surface: solve, assemble, spectrum, fourier, sweep.

Every run whose configuration resolves writes a manifest once it ends,
recording the fully resolved configuration, the tool version, the
config-file hash, the python, numpy, scipy and BLAS versions, each
loaded OpenBLAS's thread count at the start of the run and the exit
status, so any output row can be regenerated and a failed run is
not mistaken for a finished one.  A run adds its subcommand's figures
once they are computed: solve its steps and cost, spectrum the spectral
method, residual, ARPACK matvec counts and whether the system was
tau-rescaled, sweep one such entry per row, fourier its xi sample
count, max ||E||/alpha and Weyl slack.  It holds no wall time or memory
figure, so a rerun writes the same bytes.
A run first removes its subcommand's output files left by an earlier
run, so a successful run leaves only the files it wrote.  A failed run
also removes the ones it wrote, and the manifest too if its
configuration did not resolve, so no earlier run's file reads as this
run's.
Exit codes: 0 ok, 1 usage, 2 validation, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import platform
import sys
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _blas, assembly, complexity, schemes, spectral
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
    write_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class _UsageError(Exception):
    pass


class _ParserExit(Exception):
    def __init__(self, status):
        super().__init__(status)
        self.status = status


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self._flags, self._value_flags = set(), set()  # the base __init__ adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self._flags.update(action.option_strings)
        if action.nargs is None:
            self._value_flags.update(action.option_strings)
        return action

    # argparse reads a value that starts with "-" but is not a plain
    # negative number ("-1e-3,0.1", "-inf") as a flag, unless "=" joins
    # it to its flag; join it, so both spellings parse alike
    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if (joined and joined[-1] in self._value_flags and arg.startswith("-")
                    and not arg.startswith("--") and arg not in self._flags):
                joined[-1] += f"={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    # argparse exits 2 on usage errors; route through our exit codes instead
    def error(self, message):
        raise _UsageError(message)

    # --help and --version end parsing by exiting; main returns instead
    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _ParserExit(status)


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
    p_sweep.add_argument("--mode", choices=tuple(complexity.SWEEP_MODES),
                         default=next(iter(complexity.SWEEP_MODES)))
    p_sweep.add_argument("--delta", type=float, default=0.1)
    p_sweep.add_argument("--T", type=float, default=0.1,
                         help="final time for cfl_driven grids")
    p_sweep.add_argument("--no-spectrum", action="store_true",
                         help="emit resolution/cost counts only")
    return parser


def _atomic_write(path: Path, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def _write_table(path: Path, header: str, rows) -> Path:
    """``header`` (comma-separated names) and ``rows`` as one CSV at ``path``."""
    with atomic_open(path) as handle:
        write_rows(handle, [header.split(","), *rows])
    return path


def emit_report(rows, destination) -> Path:
    """Write sweep rows to CSV atomically (write-then-rename)."""
    if not rows:
        raise ValueError("rows must be nonempty")
    destination = Path(destination)
    _atomic_write(destination, complexity.rows_to_csv(rows))
    return destination


def _runtime(blas_threads: dict) -> dict:
    """Python, numpy, scipy and numpy's BLAS build of this process, and
    the ``blas_threads`` count of each loaded OpenBLAS.

    Only facts that stay the same from run to run: a rerun must write
    the same bytes.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {"name": None, "version": None}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": blas_threads}


def _write_manifest(args, cfg: GridConfig, outdir: Path, extra: dict,
                    blas_threads: dict):
    config_bytes = Path(args.config).read_bytes()
    manifest = {
        "tool": "transportlab",
        "version": __version__,
        "subcommand": args.subcommand,
        "resolved_config": config_as_dict(cfg),
        "allow_unstable": bool(args.allow_unstable),
        "input_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "runtime": _runtime(blas_threads),
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
    record["solve"] = {"steps": cfg.N_t, "cost": complexity.classical_cost(cfg)}
    rho = scheme.density(trajectory.fields[-1], rule)
    dpath = _write_table(outdir / "density.csv", "x,rho", zip(cfg.interior_x(), rho))
    return [dpath, tpath] if args.export_trajectory else [dpath]


def _cmd_assemble(args, cfg, outdir: Path, record: dict) -> list[Path]:
    system = schemes.scheme_for(cfg).assemble(cfg, args.rescaled)
    meta = {"scheme": cfg.scheme, "rescaled": system.rescaled,
            "config": config_as_dict(cfg)}
    lpath = outdir / "L.mtx"
    fpath = outdir / "F.mtx"
    assembly.export_matrix_market(system.L, lpath, meta)
    assembly.export_matrix_market(system.F, fpath, meta)
    return [lpath, fpath]


def _cmd_spectrum(args, cfg, outdir: Path, record: dict) -> list[Path]:
    row = complexity.row_for(cfg, args.delta, rescaled=args.rescaled)
    record["spectrum"] = spectral.manifest_entry(row.spectrum)
    path = outdir / "spectrum.csv"
    emit_report([row], path)
    return [path]


def _cmd_fourier(args, cfg, outdir: Path, record: dict) -> list[Path]:
    """symbols.csv and fourier_norms.csv from one perturbation check,
    whose symbol table (one evaluation per xi and node) feeds both."""
    if args.xi_samples < 1:
        raise _UsageError("--xi-samples must be at least 1")
    # assemble_fourier_matrix accepts only the relaxation scheme at phi = 1
    rule = schemes.scheme_for(cfg).rule(cfg)
    xi_values = np.linspace(0.0, np.pi, args.xi_samples) / cfg.h
    report = spectral.perturbation_check(cfg, rule, xi_values)
    record["fourier"] = {"xi_samples": args.xi_samples,
                         "max_ratio": report.max_ratio,
                         "weyl_slack": report.weyl_slack}

    s = report.symbols
    # (n_xi, N, 8) parts
    parts = np.stack([part for field in (s.c1, s.c2, s.d1, s.d2)
                      for part in (field.real, field.imag)], axis=-1)
    spath = _write_table(
        outdir / "symbols.csv", "xi,k,v,c1_re,c1_im,c2_re,c2_im,d1_re,d1_im,d2_re,d2_im",
        ([xi, k + 1, v, *cells] for xi, row in zip(report.xi, parts)
         for k, (v, cells) in enumerate(zip(rule.nodes, row))))
    npath = _write_table(
        outdir / "fourier_norms.csv",
        "xi,e_norm,sigma_max_eps,sigma_min_eps,sigma_max_zero,sigma_min_zero,alpha",
        zip(report.xi, report.e_norms, report.sigma_max_eps, report.sigma_min_eps,
            report.sigma_max_zero, report.sigma_min_zero, repeat(report.alpha)))
    return [spath, npath]


def _cmd_sweep(args, cfg, outdir: Path, record: dict) -> list[Path]:
    try:
        epsilons = [float(e) for e in args.epsilons.split(",") if e]
    except ValueError as exc:
        raise _UsageError(f"--epsilons must list numbers: {exc}") from None
    if not epsilons:
        raise _UsageError("--epsilons must list at least one value")
    rows = complexity.sweep_epsilon(
        cfg, epsilons, mode=args.mode, delta=args.delta,
        final_time=args.T, measure_spectrum=not args.no_spectrum,
    )
    record["sweep"] = [{"epsilon": row.epsilon, "status": row.status,
                        **spectral.manifest_entry(row.spectrum)} for row in rows]
    path = outdir / "sweep.csv"
    emit_report(rows, path)
    return [path]


# subcommand -> (handler, every file it can write); every run removes
# those files before it starts, and a run that fails removes them again
COMMANDS = {
    "solve": (_cmd_solve, ("density.csv", "trajectory.csv")),
    "assemble": (_cmd_assemble, ("L.mtx", "L.mtx.json", "F.mtx", "F.mtx.json")),
    "spectrum": (_cmd_spectrum, ("spectrum.csv",)),
    "fourier": (_cmd_fourier, ("symbols.csv", "fourier_norms.csv")),
    "sweep": (_cmd_sweep, ("sweep.csv",)),
}


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
    except _ParserExit as exc:
        return exc.status

    handler, outputs = COMMANDS[args.subcommand]
    blas_threads = _blas.thread_counts()
    outdir = Path(args.output_dir)
    cfg = None
    record: dict = {}
    code = EXIT_OK
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            (outdir / name).unlink(missing_ok=True)
        # override flags coincide with config keys
        raw = read_config(args.config)
        raw.update({key: value for key in CONFIG_KEYS
                    if (value := getattr(args, key)) is not None})
        cfg = resolve_config(raw, allow_unstable=args.allow_unstable)
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
    except (DivergenceError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO

    try:
        if cfg is not None:
            _write_manifest(args, cfg, outdir, {**record, "exit_status": code},
                            blas_threads)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        # a failed run keeps its own exit code
        if code == EXIT_OK:
            code = EXIT_IO
    if code != EXIT_OK and outdir.is_dir():
        stale = outputs + (("manifest.json",) if cfg is None else ())
        try:
            for name in stale:
                (outdir / name).unlink(missing_ok=True)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
    if code == EXIT_OK:
        for path in written:
            print(path)
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
