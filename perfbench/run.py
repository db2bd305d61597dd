"""transportlab benchmark: four seeded CLI workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --smoke

Each run drives ``transportlab.cli.main`` in-process, one invocation at
a time (a closed loop with one client), on the inputs that
``workloads.py`` draws from the seed.  The package is imported from
``src/`` of the checkout; there is nothing to build.

End-to-end metrics (``--trace 0``):

  setup_s        median wall time of fresh interpreters that import
                 transportlab, resolve the workload's configs and build
                 their Gauss rules; the samples are spread over the
                 timed passes, a few before each, so they see the same
                 states of the machine as wall_s
  wall_s         median wall time of one full pass of the workload,
                 after one untimed warm-up pass
  peak_rss_mb    ru_maxrss after the first pass, in this process, which
                 runs nothing but that workload
  success_ratio  1 - failed/attempted operations; an operation is one
                 invocation or one sweep row, and it fails on a nonzero
                 exit or an ``error`` status

``--trace 1`` skips the set-up samples, times untraced passes, then
traced passes that wrap the package's public functions (``spans.py``),
and reports the per-layer metrics with the tracing overhead (traced
minus untraced median pass).  Every run checks the outputs of its
last pass (``checks.py``) after the timed region.  Progress goes to
stderr; stdout ends with one JSON line: correct, attempted, failed and
metrics, and a failed check also makes the exit code 1.  ``--smoke``
runs every workload at tiny sizes, traced twice and untraced once, and
checks the harness against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

SETUP_SAMPLES = 15
SMOKE_SETUP_SAMPLES = 3
# the median of a run is taken over at least this many timed passes, so
# that one pass caught in a slow spell of the machine does not set it
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "1"),
)

# a fresh interpreter's set-up; the config files are its arguments
SETUP_CODE = """\
import json, sys
import transportlab
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        cfg = transportlab.resolve_config(json.load(handle))
    if cfg.scheme == transportlab.AP:
        transportlab.gauss_rule(cfg.N, 0.0, 1.0)
    else:
        transportlab.gauss_rule(2 * cfg.N, -1.0, 1.0)
"""


class SetupError(Exception):
    """The directory is not a transportlab source checkout."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_package(root: Path):
    src = root / "src"
    if not (src / "transportlab" / "__init__.py").is_file():
        raise SetupError(f"no transportlab sources under {src}; run from a checkout root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import transportlab
    import transportlab.cli

    if Path(transportlab.__file__).resolve().parent != (src / "transportlab").resolve():
        raise SetupError(f"imported transportlab from {transportlab.__file__}, not {src}")
    return transportlab


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Outcome:
    """Exit code and stderr of each invocation of one pass, and the
    operations it attempted and failed."""

    codes: list = field(default_factory=list)
    stderr: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    stats: dict
    errors: list


class Workload:
    """One workload's inputs written into a private working directory."""

    def __init__(self, name: str, seed: int, root: Path, smoke: bool):
        self.name = name
        self.root = root
        self.invocations = workloads.build(name, seed, smoke)
        self.work = root / ".perfbench_run" / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.config_paths, self.outdirs, self.argvs = [], [], []
        for index, inv in enumerate(self.invocations):
            config = self.work / f"{index}-{inv.label}.json"
            outdir = self.work / f"{index}-{inv.label}"
            outdir.mkdir(parents=True)
            config.write_text(json.dumps(inv.config, indent=1) + "\n", encoding="utf-8")
            self.config_paths.append(config)
            self.outdirs.append(outdir)
            self.argvs.append([inv.subcommand, "--config", str(config),
                               "--output-dir", str(outdir), *inv.args])

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def setup_samples(self, count: int) -> list[float]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-c", SETUP_CODE, *map(str, self.config_paths)]
        samples = []
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(argv, env=env, cwd=self.root, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            samples.append(time.perf_counter() - start)
        return samples

    def run_pass(self, cli) -> tuple[float, Outcome]:
        outcome = Outcome()
        start = time.perf_counter()
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outcome.codes.append(code)
            outcome.stderr.append(err.getvalue())
        wall = time.perf_counter() - start
        for inv, outdir, code in zip(self.invocations, self.outdirs, outcome.codes):
            outcome.attempted += inv.operations
            if code != 0:
                outcome.failed += inv.operations
            elif inv.subcommand == "sweep":
                with open(outdir / "sweep.csv", newline="", encoding="utf-8") as handle:
                    outcome.failed += sum(row["status"].startswith("error")
                                          for row in csv.DictReader(handle))
        return wall, outcome

    def check(self, outcome: Outcome, checks) -> list[str]:
        errors = []
        for inv, outdir, code, stderr in zip(self.invocations, self.outdirs,
                                             outcome.codes, outcome.stderr):
            label = f"{self.name} {inv.label}"
            if code != 0:
                errors += checks.failure_errors(label, code, stderr)
            else:
                errors += checks.CHECKS[self.name](inv, outdir)
        return errors


def timed_passes(workload: Workload, cli, seconds: float, minimum: int,
                 before=None, after=None):
    """Passes until they have taken ``seconds`` and at least ``minimum`` ran.

    ``before`` and ``after`` run around each pass, outside its timed region.
    """
    walls, outcomes = [], []
    while len(walls) < minimum or sum(walls) < seconds:
        if before is not None:
            before()
        wall, outcome = workload.run_pass(cli)
        walls.append(wall)
        outcomes.append(outcome)
        if after is not None:
            after()
    return walls, outcomes


def trace_layers(workload: Workload, cli, seconds: float):
    """Traced passes: per-layer metrics, their stats, outcomes and errors."""
    tracer = spans.Tracer()
    layer_passes, missing, errors = [], set(), []

    def collect():
        layer_passes.append(tracer.pass_metrics())
        missing.update(tracer.missing_spans(workload.name))
        tracer.reset()

    tracer.install()
    try:
        walls, outcomes = timed_passes(workload, cli, seconds, MIN_PASSES, after=collect)
    finally:
        tracer.uninstall()

    if missing:
        errors.append(f"{workload.name}: spans never fired: {', '.join(sorted(missing))}")
    for wall, layers in zip(walls, layer_passes):
        self_sum = sum(layers[f"{span}.self_s"] for span in spans.SPANS)
        if self_sum > wall:
            errors.append(f"{workload.name}: per-layer self times sum to {self_sum:.6f} s, "
                          f"more than the traced pass's {wall:.6f} s")
    for counter in spans.EXACT_COUNTERS:
        values = sorted({layers[counter] for layers in layer_passes})
        if len(values) != 1:
            errors.append(f"{workload.name}: counter {counter} differs between passes "
                          f"of the same inputs: {values}")
    metrics = {name: statistics.median(layers[name] for layers in layer_passes)
               for name in layer_passes[0]}
    return metrics, quartiles(walls), outcomes, errors


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            smoke: bool = False) -> Result:
    """One benchmark run of workload ``name``."""
    tl = import_package(root)
    import checks  # imports transportlab, so only once src/ is on the path

    workload = Workload(name, seed, root, smoke)
    try:
        stats, errors = {}, []
        log(f"{name}: warm-up pass")
        warm_wall, warm = workload.run_pass(tl.cli)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # set-up samples, a share before each timed pass and the rest after
        setup, before = [], None
        setup_count = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
        if not trace:
            passes = max(MIN_PASSES, math.ceil(seconds / warm_wall))
            share = math.ceil(setup_count / passes)

            def before():
                setup.extend(workload.setup_samples(min(share, setup_count - len(setup))))

        log(f"{name}: timed passes for {seconds:g} s")
        walls, outcomes = timed_passes(workload, tl.cli, seconds, MIN_PASSES, before)
        stats["wall_s"] = quartiles(walls)
        if not trace:
            setup.extend(workload.setup_samples(setup_count - len(setup)))
            stats["setup_s"] = quartiles(setup)
        stats["failed_ratio"] = quartiles([o.failed / o.attempted for o in outcomes])

        if trace:
            log(f"{name}: traced passes for {seconds:g} s")
            metrics, stats["trace.wall_s"], traced, trace_errors = trace_layers(
                workload, tl.cli, seconds)
            errors += trace_errors
            metrics["trace.wall_s"] = stats["trace.wall_s"]["median"]
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - stats["wall_s"]["median"]
            outcomes += traced
        else:
            stats["peak_rss_mb"] = quartiles([peak_rss_mb])
            stats["success_ratio"] = quartiles([1.0 - o.failed / o.attempted
                                                for o in outcomes])
            metrics = {metric: stats[metric]["median"] for metric, _ in END_TO_END}

        log(f"{name}: checking outputs")
        if any(o.codes != warm.codes for o in outcomes):
            errors.append(f"{name}: exit codes differ between passes of the same inputs")
        errors += workload.check(outcomes[-1], checks)
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        return Result(not errors, attempted, failed, metrics, stats, errors)
    finally:
        workload.close()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    with contextlib.suppress(OSError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    threads = {}
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    threads[Path(path).name] = getter()
                    break
    return threads


def run_record(root: Path, args, result: Result) -> dict:
    """The observability fields of this run."""
    import numpy
    import scipy

    def blas_version(module):
        with contextlib.suppress(KeyError, TypeError):
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "samples": result.stats,
    }


def smoke(root: Path) -> list[str]:
    """Tiny-size runs of every workload, checked against BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    if per_layer != dict(spans.METRICS):
        problems.append("BENCHMARK.json per_layer differs from spans.METRICS")
    for name in workloads.NAMES:
        plain = measure(name, 1, 0, False, root, smoke=True)
        first, second = (measure(name, 1, 0, True, root, smoke=True) for _ in range(2))
        for label, result, expected in (("untraced", plain, end_to_end),
                                        ("traced", first, per_layer),
                                        ("traced again", second, per_layer)):
            problems += [f"{label}: {e}" for e in result.errors]
            if set(result.metrics) != set(expected):
                problems.append(f"{name} {label}: metric names differ from BENCHMARK.json")
        for counter in spans.EXACT_COUNTERS:
            if first.metrics[counter] != second.metrics[counter]:
                problems.append(f"{name}: {counter} differs between two runs with one seed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the harness at tiny sizes against BENCHMARK.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.smoke:
            problems = smoke(root)
            for problem in problems:
                log(f"smoke: {problem}")
            print("smoke: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except SetupError as exc:
        log(f"error: {exc}")
        return 2

    for error in result.errors:
        log(f"check failed: {error}")
    units = {**dict(END_TO_END), "failed_ratio": "1", **dict(spans.METRICS)}
    for metric, s in result.stats.items():
        print(f"{metric:<16} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n {s['n']}  unit {units[metric]}")
    print("run_record " + json.dumps(run_record(root, args, result), sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
