import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.io import mmread
from scipy.linalg import svdvals

import transportlab
from transportlab import (
    GridConfig,
    ap_evolve,
    explicit_evolve,
    gauss_rule,
    initial_kinetic_field,
    initial_parity_field,
    resolve_config,
)
from transportlab import cli
from transportlab.cli import emit_report, main
from transportlab.complexity import ComplexityRow, sweep_epsilon
from transportlab.schemes import scheme_for, write_trajectory_csv


AP_RAW = {
    "scheme": "ap", "epsilon": 0.5, "phi": 1.0, "tau": 0.004, "h": 0.1,
    "N": 3, "Nx": 6, "Nt": 4, "x_left": 0.0, "bc_left": 0.0,
    "bc_right": 0.0, "init": "gaussian",
}

EXPLICIT_RAW = {
    "scheme": "explicit", "epsilon": 0.4, "phi": 1.0, "tau": "auto",
    "h": 0.1, "N": 3, "Nx": 6, "Nt": 4, "x_left": 0.0,
    "bc_left": 0.0, "bc_right": 0.0, "init": "gaussian",
}


@pytest.fixture
def ap_config(tmp_path):
    path = tmp_path / "ap.json"
    path.write_text(json.dumps(AP_RAW), encoding="utf-8")
    return path


@pytest.fixture
def explicit_config(tmp_path):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(EXPLICIT_RAW), encoding="utf-8")
    return path


def _direct_density(raw):
    """Final density of a run driven through the scheme modules directly."""
    cfg = resolve_config(raw)
    if cfg.scheme == "ap":
        rule = gauss_rule(3, 0.0, 1.0)
        trajectory = ap_evolve(initial_parity_field(cfg, rule), cfg, rule)
        return rule.weights @ trajectory.fields[-1].blocks()[0]
    rule = gauss_rule(6, -1.0, 1.0)
    trajectory = explicit_evolve(initial_kinetic_field(cfg, rule), cfg, rule)
    return 0.5 * (trajectory.fields[-1].blocks() @ rule.weights)


@pytest.mark.parametrize("raw", [AP_RAW, EXPLICIT_RAW], ids=["ap", "explicit"])
def test_solve_writes_density_and_manifest(raw, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config),
                 "--output-dir", str(out)]) == 0
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) == 1 + raw["Nx"]
    # density agrees with a direct run
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_allclose(got, _direct_density(raw), rtol=1e-15)

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["Nt"] == 4
    assert manifest["resolved_config"]["x_right"] == pytest.approx(0.7)
    assert len(manifest["input_sha256"]) == 64


@pytest.mark.parametrize("raw, header, rows", [
    (AP_RAW, "step,k,m,r,j", 5 * 3 * 6),        # (Nt+1) levels * N * Nx
    (EXPLICIT_RAW, "step,k,m,f", 5 * 6 * 6),    # (Nt+1) levels * Nx * 2N
], ids=["ap", "explicit"])
def test_solve_trajectory_export(raw, header, rows, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(config),
                 "--output-dir", str(out), "--export-trajectory"])
    assert code == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


@pytest.mark.parametrize("raw", [AP_RAW, EXPLICIT_RAW], ids=["ap", "explicit"])
def test_streamed_export_is_the_recorded_export(raw, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--output-dir", str(out),
                 "--export-trajectory"]) == 0
    cfg = resolve_config(raw)
    scheme = scheme_for(cfg)
    rule = scheme.rule(cfg)
    reference = tmp_path / "reference.csv"
    write_trajectory_csv(scheme.evolve(scheme.initial(cfg, rule), cfg, rule), cfg,
                         reference)
    assert (out / "trajectory.csv").read_bytes() == reference.read_bytes()


def test_diverged_export_leaves_no_tables(ap_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(ap_config), "--output-dir", str(out),
                 "--export-trajectory", "--tau", "0.5", "--h", "0.05",
                 "--Nt", "400", "--allow-unstable"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    # no partial trajectory.csv, no density.csv and no leftover temp file
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_solve_memory_does_not_grow_with_the_step_count(tmp_path):
    # N=8, Nx=256: one level (r and j) is 32 KB
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(AP_RAW, N=8, Nx=256)), encoding="utf-8")

    def peak(n_t):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            assert main(["solve", "--config", str(config), "--output-dir",
                         str(tmp_path / f"nt{n_t}"), "--Nt", str(n_t)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call caches
    level = 2 * 8 * 256 * 8
    assert abs(peak(200) - peak(20)) < 2 * level


def test_overrides_apply_on_top_of_config(ap_config, tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(ap_config), "--output-dir", str(out),
                 "--Nt", "2", "--init", "constant"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["Nt"] == 2
    assert manifest["resolved_config"]["init"] == "constant"


def test_unknown_flag_is_usage_error(ap_config, capsys):
    assert main(["solve", "--config", str(ap_config), "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "valid override keys" in err and "epsilon" in err


def test_unknown_config_key_lists_valid_keys(tmp_path, capsys):
    path = tmp_path / "bad.json"
    raw = dict(AP_RAW, extra_knob=3)
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "extra_knob" in err and "epsilon" in err


def test_cfl_violation_exits_2_with_inequality(ap_config, tmp_path, capsys):
    code = main(["solve", "--config", str(ap_config),
                 "--output-dir", str(tmp_path / "o"), "--tau", "0.02"])
    assert code == 2
    err = capsys.readouterr().err
    assert "tau/h^2" in err and "allow-unstable" in err


def test_allow_unstable_overrides(ap_config, tmp_path):
    code = main(["solve", "--config", str(ap_config),
                 "--output-dir", str(tmp_path / "o"), "--tau", "0.012",
                 "--allow-unstable"])
    assert code == 0


def test_divergence_exits_3(ap_config, tmp_path, capsys):
    code = main(["solve", "--config", str(ap_config),
                 "--output-dir", str(tmp_path / "o"),
                 "--tau", "0.5", "--h", "0.05", "--Nt", "400",
                 "--allow-unstable"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_missing_config_exits_4(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert code == 4
    assert "nope.json" in capsys.readouterr().err


def test_assemble_single_step_identity(ap_config, tmp_path):
    out = tmp_path / "out"
    assert main(["assemble", "--config", str(ap_config),
                 "--output-dir", str(out), "--Nt", "1"]) == 0
    L = mmread(out / "L.mtx").tocsr()
    n = 2 * 3 * 6
    assert L.shape == (n, n)
    assert np.array_equal(L.toarray(), np.eye(n))
    sidecar = json.loads((out / "L.mtx.json").read_text())
    assert sidecar["config"]["Nt"] == 1


def test_spectrum_matches_offline_computation(explicit_config, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(explicit_config),
                 "--output-dir", str(out)]) == 0
    row = (out / "spectrum.csv").read_text().strip().splitlines()[1].split(",")
    kappa_cli = float(row[11])
    # recompute from the exported matrix
    assert main(["assemble", "--config", str(explicit_config),
                 "--output-dir", str(out)]) == 0
    values = svdvals(mmread(out / "L.mtx").toarray())
    assert kappa_cli == pytest.approx(values[0] / values[-1], rel=1e-9)


def test_fourier_tables(ap_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fourier", "--config", str(ap_config),
                 "--output-dir", str(out), "--xi-samples", "6"]) == 0
    symbols = (out / "symbols.csv").read_text().strip().splitlines()
    assert symbols[0].startswith("xi,k,v,c1_re")
    assert len(symbols) == 1 + 6 * 3  # samples * velocity nodes
    for line in symbols[1:]:
        for cell in line.split(","):
            float(cell)
    norms = (out / "fourier_norms.csv").read_text().strip().splitlines()
    assert len(norms) == 1 + 6


def test_fourier_rejects_explicit_config(explicit_config, tmp_path, capsys):
    assert main(["fourier", "--config", str(explicit_config),
                 "--output-dir", str(tmp_path / "out"), "--xi-samples", "3"]) == 2
    assert "validation error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "symbols.csv").exists()


MANIFEST_KEYS = {"tool", "version", "subcommand", "resolved_config",
                 "allow_unstable", "input_sha256"}


def test_failed_run_manifest_records_its_exit_status(explicit_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fourier", "--config", str(explicit_config),
                 "--output-dir", str(out), "--xi-samples", "3"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["exit_status"] == 2


def test_manifest_records_runtime_and_solve_cost(ap_config, explicit_config,
                                                tmp_path):
    runtime = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}
    out = tmp_path / "solve"
    assert main(["solve", "--config", str(ap_config), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # N^2 * N_x per step, N_t = 4 steps
    assert manifest["solve"] == {"steps": 4, "cost": 4 * 3**2 * 6}
    assert manifest["runtime"].items() >= runtime.items()
    assert manifest["runtime"]["blas"].keys() == {"name", "version"}
    failed = tmp_path / "failed"
    assert main(["fourier", "--config", str(explicit_config),
                 "--output-dir", str(failed), "--xi-samples", "3"]) == 2
    manifest = json.loads((failed / "manifest.json").read_text())
    assert manifest["runtime"].items() >= runtime.items()
    assert "solve" not in manifest


def test_manifest_write_failure_keeps_the_exit_code(explicit_config, tmp_path,
                                                    monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_manifest", fail)
    argv = ["--config", str(explicit_config), "--output-dir", str(tmp_path / "out")]
    assert main(["fourier", *argv, "--xi-samples", "3"]) == 2
    assert main(["spectrum", *argv]) == 4
    assert "i/o error: disk full" in capsys.readouterr().err


def test_spectrum_manifest_records_method_and_residual(explicit_config, tmp_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(explicit_config),
                 "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["exit_status"] == 0
    assert manifest["spectrum"] == {"method": "dense", "residual": 0.0}


def test_failure_before_resolving_removes_a_stale_manifest(ap_config, tmp_path):
    out = tmp_path / "out"
    argv = ["solve", "--config", str(ap_config), "--output-dir", str(out)]
    assert main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0
    # the step restriction rejects this grid before the configuration resolves
    assert main(argv + ["--tau", "0.5", "--h", "0.1"]) == 2
    assert not (out / "manifest.json").exists()


def test_sweep_manifest_records_each_row(ap_config, tmp_path):
    out = tmp_path / "out"
    # Nt=8 gives order 288, above DENSE_CAP; eps=-1 fails its row
    assert main(["sweep", "--config", str(ap_config), "--output-dir", str(out),
                 "--Nt", "8", "--epsilons", "1e-2,1e-6,-1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    entries = manifest["sweep"]
    ok, failed = entries[0], entries[2]
    assert [e["epsilon"] for e in entries] == [1e-2, 1e-6, -1.0]
    assert [e["method"] for e in entries] == ["iterative", "iterative", None]
    assert ok["status"] == "ok" and 0.0 <= ok["residual"] <= 1e-8
    assert failed["status"].startswith("error:") and failed["residual"] is None


def test_sweep_csv_shape_and_determinism(ap_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["sweep", "--config", str(ap_config),
            "--epsilons", "1e-2,1e-4,1e-6"]
    assert main(argv + ["--output-dir", str(out1)]) == 0
    assert main(argv + ["--output-dir", str(out2)]) == 0
    first = (out1 / "sweep.csv").read_bytes()
    assert first == (out2 / "sweep.csv").read_bytes()
    lines = first.decode().strip().splitlines()
    assert lines[0].startswith("scheme,epsilon,")
    assert len(lines) == 4


def test_emit_report_contract(tmp_path):
    base = GridConfig(epsilon=1.0, tau=0.004, h=0.1, N=3, N_x=6, N_t=4)
    rows = sweep_epsilon(base, [1e-3], mode="fixed_grid")
    dest = tmp_path / "rows.csv"
    emit_report(rows, dest)
    text = dest.read_text()
    assert len(text.strip().splitlines()) == 2
    # idempotent: identical bytes on rewrite
    emit_report(rows, dest)
    assert dest.read_text() == text
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "empty.csv")


def test_emit_report_preserves_failure_rows(tmp_path):
    row = ComplexityRow(
        scheme="ap", epsilon=1e-3, phi=1.0, tau=0.004, h=0.1, N=3, Nx=6,
        Nt=4, delta=0.1, sigma_min=None, sigma_max=None, kappa=None,
        sparsity=None, alpha=0.0, classical_cost=0, quantum_queries=None,
        status="error: solver exploded",
    )
    dest = tmp_path / "rows.csv"
    emit_report([row], dest)
    assert "error: solver exploded" in dest.read_text()


def test_iterative_sweep_reruns_are_byte_identical(tmp_path):
    # criterion 6's grid: seven rescaled relaxation systems of order 1024,
    # all on the ARPACK path; each run is a fresh interpreter
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scheme": "ap", "epsilon": 1.0, "tau": 0.01, "h": 0.1,
        "N": 4, "Nx": 8, "Nt": 16,
    }), encoding="utf-8")
    src = str(Path(transportlab.__file__).parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for run in ("a", "b"):
            out = tmp_path / f"{threads}{run}"
            subprocess.run(
                [sys.executable, "-m", "transportlab.cli", "sweep",
                 "--config", str(config), "--output-dir", str(out),
                 "--allow-unstable", "--epsilons", "1,1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"],
                env=env, check=True, capture_output=True, timeout=300)
            manifest = json.loads((out / "manifest.json").read_text())
            assert {e["method"] for e in manifest["sweep"]} == {"iterative"}
            outputs[threads, run] = (out / "sweep.csv").read_bytes()
        assert outputs[threads, "a"] == outputs[threads, "b"]
