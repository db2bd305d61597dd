"""The benchmark tracer names functions that exist and counts what they do.

``perfbench/spans.py`` wraps package functions by module and name; a
renamed function, or a result the tracer can no longer read, would
otherwise surface only in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transportlab import cli, resolve_config, schemes

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _modules_after(code, *argv):
    """Module names loaded by ``code`` in a fresh interpreter on ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_setup_code_loads_no_scipy(monkeypatch, tmp_path):
    # run.py imports its sibling modules by their bare names
    for name in ("spans", "workloads"):
        monkeypatch.setitem(sys.modules, name, load_perfbench(monkeypatch, name))
    run = load_perfbench(monkeypatch, "run")
    invocations = sys.modules["workloads"].build("solve", 1)
    assert {inv.config["scheme"] for inv in invocations} == {"ap", "explicit"}
    paths = []
    for inv in invocations:
        paths.append(tmp_path / f"{inv.label}.json")
        paths[-1].write_text(json.dumps(inv.config), encoding="utf-8")
    loaded = _modules_after(run.SETUP_CODE, *map(str, paths))
    assert {"transportlab.model", "transportlab.quadrature"} <= set(loaded)
    assert [name for name in loaded if name.startswith("scipy")] == []


def test_cli_import_loads_every_traced_module(monkeypatch):
    # the tracer reads each span's home module from sys.modules after
    # importing transportlab.cli, so the CLI must load them all
    spans = load_perfbench(monkeypatch, "spans")
    loaded = _modules_after("import transportlab.cli")
    homes = {f"{spans.PACKAGE}.{module}" for module, _ in spans.SPANS.values()}
    assert sorted(homes - set(loaded)) == []


def test_every_traced_function_resolves(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    missing = []
    for module_name, functions in spans.SPANS.values():
        module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        missing += [f"{module_name}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert missing == []
    expected = set().union(*spans.EXPECTED_SPANS.values())
    assert expected <= spans.SPANS.keys()


def _systems(inv):
    """The space-time systems an invocation assembles, built afresh."""
    cfg = resolve_config(inv.config)
    if inv.subcommand == "spectrum":
        return [schemes.scheme_for(cfg).assemble(cfg, "--rescaled" in inv.args)]
    if "--no-spectrum" in inv.args:
        return []
    assert "fixed_grid" in inv.args
    return [schemes.scheme_for(c).assemble(c, True) for c in (
        dataclasses.replace(cfg, epsilon=eps, allow_unstable=True)
        for eps in inv.epsilons)]


def _traced_smoke_pass(name, monkeypatch, tmp_path):
    """The invocations of workload ``name`` at smoke size, and the tracer
    that recorded one pass of them through ``cli.main``."""
    spans = load_perfbench(monkeypatch, "spans")
    workloads = load_perfbench(monkeypatch, "workloads")
    invocations = workloads.build(name, 1, smoke=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for index, inv in enumerate(invocations):
            config = tmp_path / f"{index}.json"
            config.write_text(json.dumps(inv.config), encoding="utf-8")
            assert cli.main([inv.subcommand, "--config", str(config), "--output-dir",
                             str(tmp_path / str(index)), *inv.args]) == 0
    finally:
        tracer.uninstall()
    return invocations, tracer


@pytest.mark.parametrize("name", ["spectrum", "sweep"])
def test_traced_smoke_pass_counts_each_systems_matrix(name, monkeypatch, tmp_path):
    invocations, tracer = _traced_smoke_pass(name, monkeypatch, tmp_path)
    assert tracer.missing_spans(name) == []
    matrices = [system.L for inv in invocations for system in _systems(inv)]
    assert matrices
    counters = tracer.pass_metrics()
    assert counters["assembly.systems"] == len(matrices)
    assert counters["assembly.order_total"] == sum(L.shape[0] for L in matrices)
    assert counters["assembly.nnz_total"] == sum(L.nnz for L in matrices)
    assert counters["assembly.csr_bytes"] == sum(
        L.data.nbytes + L.indices.nbytes + L.indptr.nbytes for L in matrices)


def test_traced_solve_fires_each_step_span_once_per_step(monkeypatch, tmp_path):
    # the per-layer step times need one span per step: a fused or
    # renamed step would leave these counts, or the spans, at zero
    invocations, tracer = _traced_smoke_pass("solve", monkeypatch, tmp_path)
    steps = {inv.config["scheme"]: inv.config["Nt"] for inv in invocations}
    fired = {name: tracer.counters[f"{name}.calls"] for name in (
        "ap_scheme.relaxation_step", "ap_scheme.transport_step",
        "explicit_scheme.explicit_step")}
    assert fired == {"ap_scheme.relaxation_step": steps["ap"],
                     "ap_scheme.transport_step": steps["ap"],
                     "explicit_scheme.explicit_step": steps["explicit"]}


def test_traced_fourier_assembles_once_per_invocation(monkeypatch, tmp_path):
    # perturbation_check assembles every xi's blocks in one call through
    # its own binding of assemble_fourier_matrix; a traced run fails when
    # that span never fires
    invocations, tracer = _traced_smoke_pass("fourier", monkeypatch, tmp_path)
    assert tracer.missing_spans("fourier") == []
    assert tracer.counters["assembly.assemble_fourier_matrix.calls"] == len(invocations)
    assert tracer.counters["spectral.perturbation_check.calls"] == len(invocations)


def test_benchmark_smoke_check_passes():
    # the harness's own check at tiny sizes: every workload runs untraced
    # and twice traced, and each metric BENCHMARK.json declares is reported
    root = PERFBENCH.parent
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok"
