"""Per-layer tracing of transportlab from outside the package.

A :class:`Tracer` replaces selected public functions of the package with
wrappers that record one span per call (name, start, end, parent span,
CLI invocation it belongs to) and update counters from the call's
arguments and result.  A function imported by name into another module
(``cli`` imports ``resolve_config``, ``gauss_rule`` and the initial
fields; ``spectral`` imports ``assemble_fourier_matrix``) is a second
binding of the same object, so every ``transportlab`` module is scanned
and each binding is replaced.  Spans are kept in memory and reduced to
metrics when a pass ends.  A layer's self time is its span durations
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "transportlab"

# span name -> (module, functions recorded under that name)
SPANS = {
    "quadrature.gauss_rule": ("quadrature", ("gauss_rule",)),
    "model.resolve_config": ("model", ("resolve_config",)),
    "model.initial_field": ("model", ("initial_parity_field", "initial_kinetic_field")),
    "ap_scheme.relaxation_step": ("ap_scheme", ("relaxation_step",)),
    "ap_scheme.transport_step": ("ap_scheme", ("transport_step",)),
    "ap_scheme.ap_evolve": ("ap_scheme", ("ap_evolve",)),
    "ap_scheme.ap_step_matrices": ("ap_scheme", ("ap_step_matrices",)),
    "explicit_scheme.explicit_step": ("explicit_scheme", ("explicit_step",)),
    "explicit_scheme.explicit_evolve": ("explicit_scheme", ("explicit_evolve",)),
    "explicit_scheme.explicit_matrix": ("explicit_scheme", ("explicit_matrix",)),
    "assembly.assemble_system": (
        "assembly", ("assemble_ap_system", "assemble_explicit_system")),
    "assembly.assemble_fourier_matrix": ("assembly", ("assemble_fourier_matrix",)),
    "spectral.singular_extremes": ("spectral", ("singular_extremes",)),
    "spectral.perturbation_check": ("spectral", ("perturbation_check",)),
    "complexity.sweep_epsilon": ("complexity", ("sweep_epsilon",)),
    "cli.main": ("cli", ("main",)),
}

_STEPPERS = (
    "model.initial_field",
    "ap_scheme.relaxation_step", "ap_scheme.transport_step", "ap_scheme.ap_evolve",
    "explicit_scheme.explicit_step", "explicit_scheme.explicit_evolve",
)
_SYSTEMS = (
    "model.initial_field", "ap_scheme.ap_step_matrices",
    "assembly.assemble_system", "spectral.singular_extremes",
)
_EVERY_WORKLOAD = ("quadrature.gauss_rule", "model.resolve_config", "cli.main")

# spans each workload must fire; one that stays silent means a lost wrapper
EXPECTED_SPANS = {
    "solve": _EVERY_WORKLOAD + _STEPPERS,
    "spectrum": _EVERY_WORKLOAD + _SYSTEMS + ("explicit_scheme.explicit_matrix",),
    "sweep": _EVERY_WORKLOAD + _SYSTEMS + ("complexity.sweep_epsilon",),
    "fourier": _EVERY_WORKLOAD + (
        "assembly.assemble_fourier_matrix", "spectral.perturbation_check"),
}

# counters that must repeat exactly when the same inputs run again
EXACT_COUNTERS = (
    "quadrature.gauss_rule.calls",
    "ap_scheme.steps", "ap_scheme.trajectory_bytes",
    "explicit_scheme.steps", "explicit_scheme.trajectory_bytes",
    "assembly.systems", "assembly.order_total", "assembly.nnz_total",
    "assembly.csr_bytes", "assembly.assemble_fourier_matrix.calls",
    "spectral.iterative.calls", "spectral.dense.calls", "spectral.dense_flops",
    "spectral.failed",
    "complexity.rows", "complexity.rows_ok", "complexity.rows_error",
    "complexity.rows_counts_only",
    "cli.invocations", "cli.exit_nonzero", "cli.bytes_written",
)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    [(f"{span}.self_s", "s") for span in SPANS]
    + [(name, "B" if "bytes" in name else "count")
       for name in EXACT_COUNTERS if name != "spectral.dense_flops"]
    + [
        ("spectral.dense_flops", "flop_computed"),
        ("ap_scheme.cell_updates_per_s", "1/s"),
        ("explicit_scheme.cell_updates_per_s", "1/s"),
        ("spectral.success_ratio", "1"),
        ("spectral.residual_max", "1"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    child_time: float = 0.0


def _level_bytes(trajectory) -> int:
    """Bytes held by the interior arrays of every level a run returned."""
    total = 0
    for level in getattr(trajectory, "fields", ()):
        for attr in ("r", "j", "f"):
            values = getattr(level, attr, None)
            if values is not None:
                total += values.nbytes
    return total


def _output_bytes(argv) -> int:
    argv = list(argv)
    if "--output-dir" not in argv:
        return 0
    outdir = Path(argv[argv.index("--output-dir") + 1])
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


class Tracer:
    """Records spans and counters of the wrapped package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.residual_max = 0.0
        self._stack: list[int] = []
        self._invocation = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for span_name, (module_name, functions) in SPANS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self.residual_max = 0.0

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        on_exit = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self._invocation += 1
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self._invocation)
            self.spans.append(span)
            self._stack.append(index)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.end - span.start
                self.counters[name + ".calls"] += 1
                if on_exit is not None:
                    on_exit(args, kwargs, result, error)

        return wrapper

    def _on_ap_scheme_ap_evolve(self, args, kwargs, result, error):
        if error is None:
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self.counters["ap_scheme.steps"] += cfg.N_t
            self.counters["ap_scheme.cells"] += cfg.N_t * cfg.N * cfg.N_x
            self.counters["ap_scheme.trajectory_bytes"] += _level_bytes(result)

    def _on_explicit_scheme_explicit_evolve(self, args, kwargs, result, error):
        if error is None:
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            self.counters["explicit_scheme.steps"] += cfg.N_t
            self.counters["explicit_scheme.cells"] += cfg.N_t * 2 * cfg.N * cfg.N_x
            self.counters["explicit_scheme.trajectory_bytes"] += _level_bytes(result)

    def _on_assembly_assemble_system(self, args, kwargs, result, error):
        if error is None:
            L = result.L
            self.counters["assembly.systems"] += 1
            self.counters["assembly.order_total"] += L.shape[0]
            self.counters["assembly.nnz_total"] += L.nnz
            self.counters["assembly.csr_bytes"] += (
                L.data.nbytes + L.indices.nbytes + L.indptr.nbytes)

    def _on_spectral_singular_extremes(self, args, kwargs, result, error):
        if error is not None:
            self.counters["spectral.failed"] += 1
            self.counters["spectral.iterative.calls"] += 1
        elif result.method == "dense":
            n = max((args[0] if args else kwargs["M"]).shape)
            self.counters["spectral.dense.calls"] += 1
            # values-only SVD of a real n x n matrix: Golub-Van Loan's
            # bidiagonalisation count, 8/3 n^3 (computed, not measured)
            self.counters["spectral.dense_flops"] += 8 * n**3 // 3
        else:
            self.counters["spectral.iterative.calls"] += 1
            self.residual_max = max(self.residual_max, float(result.residual))

    def _on_complexity_sweep_epsilon(self, args, kwargs, result, error):
        if error is None:
            statuses = [row.status for row in result]
            self.counters["complexity.rows"] += len(statuses)
            self.counters["complexity.rows_ok"] += statuses.count("ok")
            self.counters["complexity.rows_counts_only"] += statuses.count("counts_only")
            self.counters["complexity.rows_error"] += sum(
                s.startswith("error") for s in statuses)

    def _on_cli_main(self, args, kwargs, result, error):
        argv = args[0] if args else kwargs.get("argv", ())
        self.counters["cli.invocations"] += 1
        self.counters["cli.exit_nonzero"] += int(error is not None or result != 0)
        self.counters["cli.bytes_written"] += _output_bytes(argv)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> dict:
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += (span.end - span.start) - span.child_time
        return totals

    def inclusive_times(self) -> dict:
        totals = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return totals

    def missing_spans(self, workload: str) -> list[str]:
        fired = {span.name for span in self.spans}
        return [name for name in EXPECTED_SPANS[workload] if name not in fired]

    def pass_metrics(self) -> dict:
        """Per-layer values of the pass recorded since the last reset."""
        own = self.self_times()
        inclusive = self.inclusive_times()
        c = self.counters
        out = {f"{name}.self_s": own.get(name, 0.0) for name in SPANS}
        for name in EXACT_COUNTERS:
            out[name] = c[name]
        for layer, evolve in (("ap_scheme", "ap_evolve"),
                              ("explicit_scheme", "explicit_evolve")):
            busy = inclusive.get(f"{layer}.{evolve}", 0.0)
            out[f"{layer}.cell_updates_per_s"] = c[f"{layer}.cells"] / busy if busy else 0.0
        attempts = c["spectral.singular_extremes.calls"]
        out["spectral.success_ratio"] = (
            (attempts - c["spectral.failed"]) / attempts if attempts else 1.0)
        out["spectral.residual_max"] = self.residual_max
        return out
