import csv
import hashlib
import inspect
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
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
    perturbation_check,
    resolve_config,
)
from transportlab import assembly, cli, complexity, spectral
from transportlab.cli import emit_report, main
from transportlab.complexity import ComplexityRow, sweep_epsilon
from transportlab.schemes import Scheme, scheme_for, trajectory_csv


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
    recorded = scheme.evolve(scheme.initial(cfg, rule), cfg, rule)
    with trajectory_csv(cfg, reference) as on_level:
        for step, level in enumerate(recorded.fields):
            on_level(step, level)
    assert (out / "trajectory.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("raw", [AP_RAW, EXPLICIT_RAW], ids=["ap", "explicit"])
def test_exported_trajectory_cells_are_plain_floats_of_the_levels(raw, tmp_path):
    raw = dict(raw, bc_left=0.3, bc_right=0.7)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--output-dir", str(out),
                 "--export-trajectory"]) == 0
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as handle:
        _, *rows = list(csv.reader(handle))
    cfg = resolve_config(raw)
    scheme = scheme_for(cfg)
    rule = scheme.rule(cfg)
    levels = scheme.evolve(scheme.initial(cfg, rule), cfg, rule).fields
    labels = [*range(-cfg.N, 0), *range(1, cfg.N + 1)]
    got, want = [], []
    for row in rows:
        step, k, m = map(int, row[:3])
        level = levels[step]
        if cfg.scheme == "ap":
            R, J = level.blocks()
            want += [R[k - 1, m - 1], J[k - 1, m - 1]]
        else:
            want.append(level.blocks()[m - 1, labels.index(k)])
        got += [float(cell) for cell in row[3:]]
    assert {int(row[0]) for row in rows} == set(range(len(levels)))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_diverged_export_leaves_no_tables(ap_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--config", str(ap_config), "--output-dir", str(out),
                 "--export-trajectory", "--tau", "0.5", "--h", "0.05",
                 "--Nt", "400", "--allow-unstable"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    # no partial trajectory.csv, no density.csv and no leftover temp file
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("failing, code, left", [
    # diverges at a step; the configuration resolved, so a manifest stays
    (["--tau", "0.5", "--h", "0.05", "--Nt", "400", "--allow-unstable"], 3,
     ["manifest.json"]),
    # the step restriction rejects this grid before the configuration resolves
    (["--tau", "0.5", "--h", "0.1"], 2, []),
], ids=["diverged", "unresolved"])
def test_failed_run_removes_an_earlier_runs_outputs(ap_config, tmp_path, failing,
                                                    code, left):
    out = tmp_path / "out"
    argv = ["solve", "--config", str(ap_config), "--output-dir", str(out),
            "--export-trajectory"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "density.csv", "manifest.json", "trajectory.csv"]
    assert main(argv + failing) == code
    assert sorted(p.name for p in out.iterdir()) == left
    if left:
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == code


def test_successful_run_removes_an_earlier_runs_output_it_does_not_write(
        ap_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["solve", "--config", str(ap_config), "--output-dir", str(out)]
    assert main(argv + ["--export-trajectory"]) == 0
    assert (out / "trajectory.csv").exists()
    capsys.readouterr()
    assert main(argv + ["--Nt", "2"]) == 0
    assert capsys.readouterr().out == f"{out / 'density.csv'}\n"
    assert sorted(p.name for p in out.iterdir()) == ["density.csv", "manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["solve"]["steps"] == 2


def test_outputs_get_the_umask_mode(ap_config, tmp_path):
    out = tmp_path / "out"
    previous = os.umask(0o022)
    try:
        assert main(["solve", "--config", str(ap_config), "--output-dir", str(out),
                     "--export-trajectory"]) == 0
    finally:
        os.umask(previous)
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert modes == {"density.csv": 0o644, "manifest.json": 0o644,
                     "trajectory.csv": 0o644}


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


def test_fractional_count_exits_2_naming_the_key(ap_config, tmp_path, capsys):
    # an override arrives as a string; a config file value as a JSON number
    assert main(["solve", "--config", str(ap_config), "--output-dir",
                 str(tmp_path / "o"), "--Nt", "8.5"]) == 2
    assert "Nt must be a whole number, got '8.5'" in capsys.readouterr().err
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(dict(AP_RAW, Nx=32.5)), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--output-dir",
                 str(tmp_path / "o")]) == 2
    assert "Nx must be a whole number, got 32.5" in capsys.readouterr().err


def test_integral_counts_are_recorded_as_ints(tmp_path):
    path = tmp_path / "integral.json"
    path.write_text(json.dumps(dict(AP_RAW, N=3.0)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--output-dir", str(out),
                 "--Nt", "8"]) == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    assert [resolved["N"], resolved["Nt"]] == [3, 8]
    assert type(resolved["N"]) is int and type(resolved["Nt"]) is int


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


@pytest.mark.parametrize("raw, args, rescaled", [
    (AP_RAW, [], False), (AP_RAW, ["--rescaled"], True),
    # the tau-rescaling is the relaxation system's alone
    (EXPLICIT_RAW, ["--rescaled"], False),
], ids=["ap", "ap-rescaled", "explicit-rescaled"])
def test_assemble_sidecar_records_the_rescaling(raw, args, rescaled, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["assemble", "--config", str(config), "--output-dir", str(out),
                 *args]) == 0
    for name in ("L.mtx.json", "F.mtx.json"):
        assert json.loads((out / name).read_text())["rescaled"] is rescaled


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


def test_fourier_evaluates_each_symbol_once(ap_config, tmp_path, monkeypatch):
    # fourier_symbols broadcasts nodes against frequencies; every
    # (xi, node) pair it is handed, over all its calls, is one evaluation
    pairs = Counter()
    original = assembly.fourier_symbols

    def counted(cfg, v_k, xi):
        nodes, freqs = np.broadcast_arrays(v_k, xi)
        pairs.update(zip(freqs.ravel().tolist(), nodes.ravel().tolist()))
        return original(cfg, v_k, xi)

    monkeypatch.setattr(assembly, "fourier_symbols", counted)
    assert main(["fourier", "--config", str(ap_config),
                 "--output-dir", str(tmp_path / "out"), "--xi-samples", "6"]) == 0
    cfg = resolve_config(AP_RAW)
    xi_values = np.linspace(0.0, np.pi, 6) / cfg.h
    nodes = gauss_rule(3, 0.0, 1.0).nodes
    # each of the 6 samples * 3 velocity nodes exactly once
    assert pairs == Counter((xi, v) for xi in xi_values.tolist() for v in nodes.tolist())


def test_fourier_rejects_explicit_config(explicit_config, tmp_path, capsys):
    assert main(["fourier", "--config", str(explicit_config),
                 "--output-dir", str(tmp_path / "out"), "--xi-samples", "3"]) == 2
    assert "validation error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "symbols.csv").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_fourier_rejects_fewer_than_one_xi_sample(ap_config, tmp_path, capsys,
                                                  samples):
    out = tmp_path / "out"
    assert main(["fourier", "--config", str(ap_config), "--output-dir", str(out),
                 f"--xi-samples={samples}"]) == 1
    assert "usage error: --xi-samples must be at least 1" in capsys.readouterr().err
    assert not (out / "symbols.csv").exists()
    assert not (out / "fourier_norms.csv").exists()


def test_fourier_manifest_records_the_check(ap_config, tmp_path):
    argv = ["fourier", "--config", str(ap_config), "--xi-samples", "6"]
    assert main(argv + ["--output-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--output-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "manifest.json").read_bytes()
    assert first == (tmp_path / "b" / "manifest.json").read_bytes()
    cfg = resolve_config(AP_RAW)
    report = perturbation_check(cfg, gauss_rule(3, 0.0, 1.0),
                                np.linspace(0.0, np.pi, 6) / cfg.h)
    assert json.loads(first)["fourier"] == {
        "xi_samples": 6, "max_ratio": report.max_ratio,
        "weyl_slack": report.weyl_slack}


MANIFEST_KEYS = {"tool", "version", "subcommand", "resolved_config",
                 "allow_unstable", "input_sha256"}


def test_failed_run_manifest_records_its_exit_status(explicit_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fourier", "--config", str(explicit_config),
                 "--output-dir", str(out), "--xi-samples", "3"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert MANIFEST_KEYS <= manifest.keys()
    assert manifest["exit_status"] == 2


@pytest.mark.parametrize("subcommand, raw, kind", [
    ("spectrum", AP_RAW, "space-time"), ("spectrum", EXPLICIT_RAW, "space-time"),
    ("assemble", AP_RAW, "space-time"), ("assemble", EXPLICIT_RAW, "space-time"),
    ("fourier", AP_RAW, "per-frequency"),
], ids=["spectrum-ap", "spectrum-explicit", "assemble-ap", "assemble-explicit",
        "fourier"])
def test_a_system_of_no_time_level_exits_2_naming_N_t(subcommand, raw, kind,
                                                      tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(config), "--output-dir", str(out)]
    assert main(argv) == 0  # an earlier run's outputs, to be removed
    capsys.readouterr()
    assert main(argv + ["--Nt", "0"]) == 2
    assert capsys.readouterr().err == (
        f"validation error: a {kind} system needs N_t >= 1, got N_t = 0\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2 and manifest["resolved_config"]["Nt"] == 0


PHI_MESSAGE = "{} solver implements phi = 1 only, got phi = 0.5"
SOLVERS = {"ap": "relaxation", "explicit": "upwind"}


@pytest.mark.parametrize("subcommand, raw", [
    ("solve", AP_RAW), ("solve", EXPLICIT_RAW), ("assemble", AP_RAW),
    ("assemble", EXPLICIT_RAW), ("spectrum", AP_RAW), ("spectrum", EXPLICIT_RAW),
    ("fourier", AP_RAW),
], ids=["solve-ap", "solve-explicit", "assemble-ap", "assemble-explicit",
        "spectrum-ap", "spectrum-explicit", "fourier"])
def test_a_solver_run_at_phi_other_than_1_exits_2(subcommand, raw, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(config), "--output-dir", str(out),
                 "--phi", "0.5"]) == 2
    solver = SOLVERS[raw["scheme"]]
    assert capsys.readouterr().err == f"validation error: {PHI_MESSAGE.format(solver)}\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2 and manifest["resolved_config"]["phi"] == 0.5


@pytest.mark.parametrize("raw", [AP_RAW, EXPLICIT_RAW], ids=["ap", "explicit"])
@pytest.mark.parametrize("measured", [True, False], ids=["measured", "counts-only"])
def test_sweep_rows_at_phi_other_than_1(raw, measured, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(config), "--output-dir", str(out),
            "--phi", "0.5", "--epsilons", "0.5,1e-2"]
    assert main(argv if measured else argv + ["--no-spectrum"]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    # a counts-only row runs no solver, so nothing rejects its phi
    status = (f"error: {PHI_MESSAGE.format(SOLVERS[raw['scheme']])}" if measured
              else "counts_only")
    assert [(row["phi"], row["status"]) for row in rows] == [("0.5", status)] * 2


def test_sweep_rows_of_no_time_level_name_N_t(ap_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(ap_config), "--output-dir", str(out),
                 "--Nt", "0", "--epsilons", "1e-2,1e-4"]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        statuses = [row["status"] for row in csv.DictReader(handle)]
    assert statuses == ["error: a space-time system needs N_t >= 1, got N_t = 0"] * 2
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 0


@pytest.mark.parametrize("override, message", [
    (("--epsilon", "1e-200"), "epsilon**2 underflows to 0 at epsilon = 1e-200"),
    (("--epsilon", "1e200"), "epsilon**2 overflows at epsilon = 1e+200"),
    (("--epsilon", "1e-160"), "1/epsilon**2 overflows at epsilon = 1e-160"),
    # h, not epsilon: the relaxation scheme's step restriction squares it
    (("--h", "1e200"), "h**2 overflows at h = 1e+200"),
    (("--h", "1e-200"), "h**2 underflows to 0 at h = 1e-200"),
], ids=["underflow", "overflow", "reciprocal-overflow", "h-overflow", "h-underflow"])
@pytest.mark.parametrize("subcommand, args", [
    ("solve", ()), ("assemble", ()), ("spectrum", ()), ("fourier", ()),
    ("sweep", ("--epsilons", "1e-2")),
], ids=["solve", "assemble", "spectrum", "fourier", "sweep"])
def test_an_epsilon_whose_square_leaves_the_float_range_exits_2_naming_it(
        subcommand, args, override, message, ap_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(ap_config), "--output-dir", str(out),
                 *override, *args]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    # the configuration did not resolve: no manifest
    assert list(out.iterdir()) == []


def test_sweep_rows_name_an_epsilon_whose_square_leaves_the_float_range(
        ap_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(ap_config), "--output-dir", str(out),
                 "--epsilons", "1e-2,1e-200,1e200,1e-160"]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        statuses = [row["status"] for row in csv.DictReader(handle)]
    assert statuses == ["ok", "error: epsilon**2 underflows to 0 at epsilon = 1e-200",
                        "error: epsilon**2 overflows at epsilon = 1e+200",
                        "error: 1/epsilon**2 overflows at epsilon = 1e-160"]


@pytest.mark.parametrize("raw", [AP_RAW, EXPLICIT_RAW], ids=["ap", "explicit"])
def test_solve_of_no_step_is_the_initial_density(raw, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--output-dir", str(out),
                 "--Nt", "0"]) == 0
    got = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)[:, 1]
    np.testing.assert_allclose(got, _direct_density(dict(raw, Nt=0)), rtol=1e-14)
    assert json.loads((out / "manifest.json").read_text())["solve"]["steps"] == 0


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
    assert manifest["spectrum"] == {"method": "dense", "residual": 0.0,
                                    "matvecs": {"sigma_max": 0, "sigma_min": 0,
                                                "symbol": 0},
                                    "rescaled": False}


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
    assert ok["matvecs"]["sigma_max"] > 0 and ok["matvecs"]["sigma_min"] > 0
    assert ok["matvecs"]["symbol"] == 0  # a one-step block of 36 rows is dense
    assert failed["status"].startswith("error:") and failed["residual"] is None
    assert failed["matvecs"] is None


@pytest.mark.parametrize("epsilons, bad", [("0.1,abc", "'abc'"), (" ", "' '")],
                         ids=["word", "blank"])
def test_sweep_rejects_an_epsilon_that_is_not_a_number(ap_config, tmp_path, capsys,
                                                       epsilons, bad):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(ap_config), "--output-dir", str(out),
                 "--epsilons", epsilons]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --epsilons") and bad in err
    assert not (out / "sweep.csv").exists()


def test_sweep_flags_rows_whose_inverse_overflows_as_singular(tmp_path, capfd):
    # upwind rows of order 960 past the step limit, singular to working
    # precision: (L^H L)^{-1} stays finite at eps = 0.1, and overflows
    # float64 in its third application at 1e-2 and in its first at 3e-3;
    # each row reads as singular, as a dense row of order 128 does
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scheme": "explicit", "epsilon": 0.5, "N": 2, "Nx": 4,
                                  "Nt": 60, "h": 0.1, "tau": 0.0375}), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", str(config), "--output-dir", str(out),
                     "--epsilons", "0.1,1e-2,3e-3"]) == 0
    assert capfd.readouterr() == (f"{out / 'sweep.csv'}\n", "")
    with open(out / "sweep.csv", newline="") as table:
        rows = list(csv.DictReader(table))
    assert [(row["sigma_min"], row["kappa"], row["status"]) for row in rows] == [
        ("0.0", "inf", "ok")] * 3
    entries = json.loads((out / "manifest.json").read_text())["sweep"]
    assert all(0.0 < entry["residual"] < 1e-10 for entry in entries)


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


# the recorded bytes of --no-spectrum sweeps in both modes, error rows
# included: a non-finite epsilon, one whose tau underflows and one whose
# step count overflows.  Counts-only rows hold no BLAS result, so the
# text is the same on every platform
SWEEP_GOLDEN = [
    (AP_RAW, ('--mode', 'fixed_grid', '--epsilons', '1,1e-2,1e-6,nan,-1,1e100'), (
        'scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,sparsity,'
        'alpha,classical_cost,quantum_queries,status\n'
        'ap,1.0,1.0,0.004,0.1,3,6,4,0.1,,,,,108936.92819388211,216,,counts_only\n'
        'ap,0.01,1.0,0.004,0.1,3,6,4,0.1,,,,,5259.566621307641,216,,counts_only\n'
        'ap,1e-06,1.0,0.004,0.1,3,6,4,0.1,,,,,5.457746599992097e-05,216,,counts_only\n'
        'ap,,1.0,0.004,0.1,3,6,4,0.1,,,,,,216,,"error: epsilon must be finite and '
        'positive, got nan"\n'
        'ap,-1.0,1.0,0.004,0.1,3,6,4,0.1,,,,,,216,,"error: epsilon must be finite '
        'and positive, got -1.0"\n'
        'ap,1e+100,1.0,0.004,0.1,3,6,4,0.1,,,,,,216,,error: alpha leaves the float '
        'range at epsilon = 1e+100\n'
    )),
    (EXPLICIT_RAW, ('--mode', 'cfl_driven',
                    '--epsilons', '0.4,0.2,nan,inf,0,1e-300,1e-310,1e300'), (
        'scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,sparsity,'
        'alpha,classical_cost,quantum_queries,status\n'
        'explicit,0.4,1.0,0.01275949367088608,0.03888888888888889,3,17,8,0.1,,,,,,'
        '4896,,counts_only\n'
        'explicit,0.2,1.0,0.003272727272727274,0.02,3,34,31,0.1,,,,,,'
        '37944,,counts_only\n'
        'explicit,,1.0,,,3,,,0.1,,,,,,,,"error: epsilon must be finite and positive, '
        'got nan"\n'
        'explicit,inf,1.0,,,3,,,0.1,,,,,,,,"error: epsilon must be finite and '
        'positive, got inf"\n'
        'explicit,0.0,1.0,,,3,,,0.1,,,,,,,,"error: epsilon must be finite and '
        'positive, got 0.0"\n'
        'explicit,1e-300,1.0,0.0,1e-301,3,6999999999999999772726558395317716621706280'
        '8077968900319068981448248335836136136441283367614013856302386053083676469113'
        '1910814657033379384767944707554466576360647796552818031297647545757956705334'
        '1018738925700851519889520332198603733423086448308962199215235382277164695048'
        '767504647809578552076277907455,,0.1,,,,,,,,error: tau = 0.0 is not positive '
        'at epsilon = 1e-300\n'
        'explicit,1e-310,1.0,,,3,,,0.1,,,,,,,,error: length/(epsilon*delta) '
        'overflows at epsilon = 1e-310\n'
        'explicit,1e+300,1.0,,0.35000000000000003,3,1,,0.1,,,,,,,,error: epsilon**2 '
        'overflows at epsilon = 1e+300\n'
    )),
    (EXPLICIT_RAW, ('--mode', 'cfl_driven', '--T', '1e300', '--epsilons', '1e-50'), (
        'scheme,epsilon,phi,tau,h,N,Nx,Nt,delta,sigma_min,sigma_max,kappa,sparsity,'
        'alpha,classical_cost,quantum_queries,status\n'
        'explicit,1e-50,1.0,8.181818181818183e-102,1e-51,3,'
        '700000000000000094946763755921830051308725430386687,,0.1,,,,,,,,'
        'error: final_time/tau overflows at epsilon = '
        '1e-50\n'
    )),
]


@pytest.mark.parametrize("raw, args, expected", SWEEP_GOLDEN,
                         ids=["fixed_grid", "cfl_driven", "cfl_driven_long_T"])
def test_counts_only_sweeps_write_the_recorded_bytes(raw, args, expected, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--output-dir", str(out),
                 "--no-spectrum", *args]) == 0
    assert (out / "sweep.csv").read_bytes() == "".join(expected).encode()


@pytest.mark.parametrize("raw, args", [
    (AP_RAW, ("--mode", "fixed_grid", "--epsilons=-inf,1e-2")),
    (EXPLICIT_RAW, ("--mode", "cfl_driven", "--epsilons=-inf,0.4")),
], ids=["fixed_grid", "cfl_driven"])
def test_negative_infinite_epsilon_is_written_as_minus_inf(raw, args, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--output-dir", str(out),
                 "--no-spectrum", *args]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as handle:
        row = next(csv.DictReader(handle))
    assert row["epsilon"] == "-inf"
    assert row["status"] == "error: epsilon must be finite and positive, got -inf"


@pytest.mark.parametrize("raw, argv", [
    (AP_RAW, ("sweep", "--epsilons", "-1e-3,0.1")),
    (EXPLICIT_RAW, ("sweep", "--mode", "cfl_driven", "--no-spectrum",
                    "--epsilons", "-inf,0.4")),
    (AP_RAW, ("solve", "--x_left", "-1e-1")),
], ids=["sweep", "sweep-cfl_driven", "override"])
def test_a_value_that_starts_with_a_minus_parses_spaced_or_joined(raw, argv, tmp_path):
    # argparse alone reads "-1e-3,0.1" after a space as a flag, not a value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    outputs = []
    for name, args in (("spaced", argv), ("joined", (*argv[:-2], "=".join(argv[-2:])))):
        out = tmp_path / name
        assert main([args[0], "--config", str(config), "--output-dir", str(out),
                     *args[1:]]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
    assert outputs[0] == outputs[1] and outputs[0]
    if argv[0] == "sweep":
        first = outputs[0]["sweep.csv"].decode().splitlines()[1]
        assert first.endswith(f'"error: epsilon must be finite and positive, '
                              f'got {float(argv[-1].split(",")[0])}"')


def test_manifest_records_whether_the_measured_system_was_rescaled(ap_config,
                                                                   explicit_config,
                                                                   tmp_path):
    def spectrum(config, *flags):
        out = tmp_path / f"{config.stem}{''.join(flags)}"
        assert main(["spectrum", "--config", str(config), "--output-dir", str(out),
                     *flags]) == 0
        return json.loads((out / "manifest.json").read_text())["spectrum"]["rescaled"]

    assert (spectrum(ap_config), spectrum(ap_config, "--rescaled")) == (False, True)
    # the upwind scheme has one system, whatever the flag
    assert spectrum(explicit_config, "--rescaled") is False
    # a sweep measures the rescaled relaxation system; an unmeasured row has none
    for config, expected in ((ap_config, [True, None]), (explicit_config, [False, None])):
        out = tmp_path / f"sweep-{config.stem}"
        assert main(["sweep", "--config", str(config), "--output-dir", str(out),
                     "--allow-unstable", "--epsilons", "0.5,-1"]) == 0
        entries = json.loads((out / "manifest.json").read_text())["sweep"]
        assert [entry["rescaled"] for entry in entries] == expected
    assert "rescaled" not in complexity.CSV_HEADER.split(",")


# the recorded JSON text of each manifest entry of a measured system:
# spectrum runs on the dense path (plain and rescaled) and the iterative
# one, and sweeps with ok, counts_only and error rows.  The iterative
# entries pin the Lanczos runs' matvec counts, the sigma_max filter's
# ceil(1.5 N_t) included, and residual at one BLAS thread
_DENSE_ENTRY = ('"matvecs": {"sigma_max": 0, "sigma_min": 0, "symbol": 0}, '
                '"method": "dense"')
_NO_ENTRY = '"matvecs": null, "method": null, "rescaled": null, "residual": null'
_ERROR = '"error: epsilon must be finite and positive, got -1.0"'
RECORDED_ENTRIES = {
    "ap": (AP_RAW, ("spectrum",),
           f'{{{_DENSE_ENTRY}, "rescaled": false, "residual": 0.0}}'),
    "ap-rescaled": (AP_RAW, ("spectrum", "--rescaled"),
                    f'{{{_DENSE_ENTRY}, "rescaled": true, "residual": 0.0}}'),
    "ap-iterative": (AP_RAW, ("spectrum", "--rescaled", "--Nt", "12"),
                     '{"matvecs": {"sigma_max": 66, "sigma_min": 17, "symbol": 0}, '
                     '"method": "iterative", "rescaled": true, '
                     '"residual": 3.803863900182977e-13}'),
    "explicit": (EXPLICIT_RAW, ("spectrum",),
                 f'{{{_DENSE_ENTRY}, "rescaled": false, "residual": 0.0}}'),
    "sweep-ap": (AP_RAW, ("sweep", "--allow-unstable", "--epsilons", "0.5,-1"),
                 f'[{{"epsilon": 0.5, {_DENSE_ENTRY}, "rescaled": true, '
                 f'"residual": 0.0, "status": "ok"}}, '
                 f'{{"epsilon": -1.0, {_NO_ENTRY}, "status": {_ERROR}}}]'),
    "sweep-ap-counts": (AP_RAW, ("sweep", "--no-spectrum", "--epsilons", "0.5"),
                        f'[{{"epsilon": 0.5, {_NO_ENTRY}, "status": "counts_only"}}]'),
    "sweep-explicit": (EXPLICIT_RAW, ("sweep", "--mode", "cfl_driven",
                                      "--epsilons", "0.4,1e-3,-1"),
                       '[{"epsilon": 0.4, "matvecs": {"sigma_max": 72, '
                       '"sigma_min": 24, "symbol": 0}, "method": "iterative", '
                       '"rescaled": false, "residual": 5.256419509127031e-13, '
                       '"status": "ok"}, '
                       f'{{"epsilon": 0.001, {_NO_ENTRY}, "status": "counts_only"}}, '
                       f'{{"epsilon": -1.0, {_NO_ENTRY}, "status": {_ERROR}}}]'),
}


@pytest.mark.parametrize("raw, argv, recorded", RECORDED_ENTRIES.values(),
                         ids=RECORDED_ENTRIES)
def test_manifest_entry_of_a_measurement_keeps_its_recorded_text(raw, argv, recorded,
                                                                 tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(config), "--output-dir", str(out),
                 *argv[1:]]) == 0
    entry = json.loads((out / "manifest.json").read_text())[argv[0]]
    assert json.dumps(entry, sort_keys=True) == recorded


# the sha256 of the recorded L.mtx.json sidecars: shape, nnz, scheme,
# rescaling and the resolved configuration
RECORDED_SIDECARS = {
    "ap": (AP_RAW, (),
           "c4089d18d6fba22298bf21c491604bc5eebaaef1bc1abfea41f110713acde212"),
    "ap-rescaled": (AP_RAW, ("--rescaled",),
                    "c7d647ad9bebbcca3db16423541fbddd35baef67ad5d1432303e048c70dd5a3f"),
    "explicit": (EXPLICIT_RAW, (),
                 "0f938f27bd59eb548e923c0f519508e0f32a24e78357150a11970a6db2924843"),
}


@pytest.mark.parametrize("raw, flags, recorded", RECORDED_SIDECARS.values(),
                         ids=RECORDED_SIDECARS)
def test_assemble_writes_the_recorded_sidecar_bytes(raw, flags, recorded, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["assemble", "--config", str(config), "--output-dir", str(out),
                 *flags]) == 0
    data = (out / "L.mtx.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == recorded


@pytest.mark.parametrize("raw, argv", [
    (AP_RAW, ("solve", "--export-trajectory")),
    (EXPLICIT_RAW, ("solve", "--export-trajectory")),
    (EXPLICIT_RAW, ("spectrum",)),
    (AP_RAW, ("sweep", "--epsilons", "1,1e-2,nan")),
    (AP_RAW, ("fourier", "--xi-samples", "3")),
], ids=["solve-ap", "solve-explicit", "spectrum", "sweep", "fourier"])
def test_every_csv_ends_its_lines_in_lf(raw, argv, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(config), "--output-dir", str(out),
                 *argv[1:]]) == 0
    tables = sorted(out.glob("*.csv"))
    assert tables
    for path in tables:
        data = path.read_bytes()
        assert b"\r" not in data, path.name
        assert data.endswith(b"\n"), path.name


# the recorded bytes of the small tables that only the CLI writes; the
# fourier norms are LAPACK SVDs, so their last digits can move with the
# LAPACK build
DENSITY_GOLDEN = [
    (AP_RAW, (
        'x,rho\n'
        '0.1,0.009704598749157592\n'
        '0.2,0.1291647839054538\n'
        '0.30000000000000004,0.7464856108357303\n'
        '0.4,0.7464856108357303\n'
        '0.5,0.12916478390545397\n'
        '0.6000000000000001,0.009704598749157595\n'
    )),
    (EXPLICIT_RAW, (
        'x,rho\n'
        '0.1,0.16034143718832106\n'
        '0.2,0.25011950881659445\n'
        '0.30000000000000004,0.3582335131101074\n'
        '0.4,0.3582335131101074\n'
        '0.5,0.2501195088165945\n'
        '0.6000000000000001,0.16034143718832106\n'
    )),
]


@pytest.mark.parametrize("raw, expected", DENSITY_GOLDEN, ids=["ap", "explicit"])
def test_solve_writes_the_recorded_density_bytes(raw, expected, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--output-dir", str(out)]) == 0
    assert (out / "density.csv").read_bytes() == "".join(expected).encode()


FOURIER_GOLDEN = {
    "symbols.csv": (
        'xi,k,v,c1_re,c1_im,c2_re,c2_im,d1_re,d1_im,d2_re,d2_im\n'
        '0.0,1,0.21132486540518713,-0.984251968503937,0.0,0.0,0.0,'
        '-0.984251968503937,0.0,0.0,0.0\n'
        '0.0,2,0.7886751345948129,-0.984251968503937,0.0,0.0,0.0,'
        '-0.984251968503937,0.0,0.0,0.0\n'
        '31.41592653589793,1,0.21132486540518713,-0.9676122153224261,0.0,0.0,'
        '1.0188910236169594e-18,-0.9676122153224261,0.0,0.0,3.976565225219381e-18\n'
        '31.41592653589793,2,0.7886751345948129,-0.9221515642051329,0.0,0.0,'
        '3.802553067514352e-18,-0.9221515642051329,0.0,0.0,1.432214384505851e-17\n'
    ),
    "fourier_norms.csv": (
        'xi,e_norm,sigma_max_eps,sigma_min_eps,sigma_max_zero,sigma_min_zero,alpha\n'
        '0.0,0.9842519685039373,1.6180339887498951,0.6180339887498949,'
        '1.618033988749895,0.6180339887498947,88975.77733252863\n'
        '31.41592653589793,0.967612215322426,1.6011276665534202,0.6245598154909129,'
        '1.5894329386188013,0.6291552010171554,88975.77733252863\n'
    ),
}


def test_fourier_writes_the_recorded_table_bytes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(AP_RAW, N=2, Nt=2)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["fourier", "--config", str(config), "--output-dir", str(out),
                 "--xi-samples", "2"]) == 0
    for name, expected in FOURIER_GOLDEN.items():
        assert (out / name).read_bytes() == expected.encode(), name


def test_sweep_mode_choices_are_the_grid_rules():
    sweep = cli._build_parser()._subparsers._group_actions[0].choices["sweep"]
    mode = next(action for action in sweep._actions if action.dest == "mode")
    assert mode.choices == tuple(complexity.SWEEP_MODES)
    default = inspect.signature(sweep_epsilon).parameters["mode"].default
    assert mode.default == default == next(iter(complexity.SWEEP_MODES))


@pytest.mark.parametrize("delta", ["0", "1", "-0.5", "nan"])
def test_sweep_rejects_delta_outside_the_unit_interval(ap_config, tmp_path,
                                                       capsys, delta):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(ap_config), "--output-dir", str(out),
                 "--epsilons", "1e-2,1e-4", f"--delta={delta}"]) == 2
    assert "delta must lie in (0, 1)" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
def test_spectrum_rejects_delta_before_assembling(explicit_config, tmp_path,
                                                  capsys, monkeypatch, delta):
    def refuse(*args, **kwargs):
        raise AssertionError("system assembled or measured")

    monkeypatch.setattr(Scheme, "assemble", refuse)
    monkeypatch.setattr(spectral, "singular_extremes", refuse)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(explicit_config), "--output-dir", str(out),
                 f"--delta={delta}"]) == 2
    assert "delta must lie in (0, 1)" in capsys.readouterr().err
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("final_time", ["0", "-1", "inf", "nan"])
def test_cfl_sweep_rejects_a_final_time_that_is_not_positive(
        explicit_config, tmp_path, capsys, final_time):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(explicit_config), "--output-dir", str(out),
                 "--mode", "cfl_driven", "--epsilons", "0.4,0.2", "--no-spectrum",
                 f"--T={final_time}"]) == 2
    assert "final_time must be finite and positive" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


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
    # all on the ARPACK path, then one spectrum of the eps=1 system; each
    # run is a fresh interpreter, and its CSVs and manifests (with their
    # matvec counts) must repeat byte for byte.  A fourier run on the
    # same grid, whose SVDs (order 2N*N_t = 128) run at one thread, must
    # also write the same CSV bytes at either thread count
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scheme": "ap", "epsilon": 1.0, "tau": 0.01, "h": 0.1,
        "N": 4, "Nx": 8, "Nt": 16,
    }), encoding="utf-8")
    src = str(Path(transportlab.__file__).parents[1])
    outputs, fourier = {}, {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for run in ("a", "b"):
            sweep_out = tmp_path / f"{threads}{run}sweep"
            spectrum_out = tmp_path / f"{threads}{run}spectrum"
            subprocess.run(
                [sys.executable, "-m", "transportlab.cli", "sweep",
                 "--config", str(config), "--output-dir", str(sweep_out),
                 "--allow-unstable", "--epsilons", "1,1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"],
                env=env, check=True, capture_output=True, timeout=300)
            subprocess.run(
                [sys.executable, "-m", "transportlab.cli", "spectrum", "--rescaled",
                 "--config", str(config), "--output-dir", str(spectrum_out),
                 "--allow-unstable"],
                env=env, check=True, capture_output=True, timeout=300)
            manifest = json.loads((sweep_out / "manifest.json").read_text())
            assert {e["method"] for e in manifest["sweep"]} == {"iterative"}
            assert all(e["matvecs"]["sigma_max"] > 0 < e["matvecs"]["sigma_min"]
                       and e["matvecs"]["symbol"] == 0 for e in manifest["sweep"])
            spectrum = json.loads((spectrum_out / "manifest.json").read_text())["spectrum"]
            assert spectrum["method"] == "iterative"
            assert spectrum["matvecs"]["sigma_max"] > 0 < spectrum["matvecs"]["sigma_min"]
            outputs[threads, run] = [
                (out / name).read_bytes()
                for out, name in ((sweep_out, "sweep.csv"), (sweep_out, "manifest.json"),
                                  (spectrum_out, "spectrum.csv"),
                                  (spectrum_out, "manifest.json"))]
        assert outputs[threads, "a"] == outputs[threads, "b"]
        fourier_out = tmp_path / f"{threads}fourier"
        subprocess.run(
            [sys.executable, "-m", "transportlab.cli", "fourier", "--xi-samples", "8",
             "--config", str(config), "--output-dir", str(fourier_out),
             "--allow-unstable"],
            env=env, check=True, capture_output=True, timeout=300)
        fourier[threads] = [(fourier_out / name).read_bytes()
                            for name in ("symbols.csv", "fourier_norms.csv")]
        counts = json.loads((fourier_out / "manifest.json").read_text())[
            "runtime"]["blas_threads"]
        if threads == "1":
            assert set(counts.values()) <= {1}
    assert fourier["1"] == fourier["2"]


def _run_module(module, argv, threads=None):
    """Run ``python -m module argv`` from this checkout's sources and
    return the completed process."""
    src = str(Path(transportlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          check=True, capture_output=True, timeout=300)


@pytest.mark.parametrize("raw", [
    # order 1024, a one-step block of 64 rows: the symbol's top vector is dense
    {"scheme": "explicit", "epsilon": 0.2, "tau": "auto", "h": 0.05,
     "N": 2, "Nx": 16, "Nt": 16},
    # order 1000, a one-step block of 200 rows > DENSE_CAP: it is ARPACK's
    {"scheme": "explicit", "epsilon": 0.3, "tau": "auto", "h": 0.04,
     "N": 4, "Nx": 25, "Nt": 5},
    # order 40,392, a one-step block of 792 rows: a long explicit row
    {"scheme": "explicit", "epsilon": 0.1, "tau": "auto", "h": 0.01,
     "N": 4, "Nx": 99, "Nt": 51},
], ids=["dense-symbol", "arpack-symbol", "order-40392"])
def test_iterative_spectrum_is_the_same_at_either_thread_count(raw, tmp_path):
    # every ARPACK run is at one thread whatever the process starts with
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        _run_module("transportlab.cli", ["spectrum", "--config", str(config),
                                         "--output-dir", str(out)], threads)
        outputs[threads] = (out / "spectrum.csv").read_bytes()
        spectrum = json.loads((out / "manifest.json").read_text())["spectrum"]
        assert spectrum["method"] == "iterative"
        block_rows = 2 * raw["N"] * raw["Nx"]
        assert (spectrum["matvecs"]["symbol"] > 0) == (block_rows > spectral.DENSE_CAP)
    assert b",ok\n" in outputs["1"]
    assert outputs["1"] == outputs["2"]


def test_fourier_above_order_512_is_the_same_at_either_thread_count(tmp_path):
    # 2 N N_t = 514, just above order 512, up to which a 2-thread OpenBLAS
    # gives L~_eps the same bits as a 1-thread one; the per-frequency SVDs
    # run at one thread at every order
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scheme": "ap", "epsilon": 0.01, "tau": 0.01, "h": 0.11,
        "N": 1, "Nx": 8, "Nt": 257,
    }), encoding="utf-8")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        _run_module("transportlab.cli", ["fourier", "--config", str(config),
                                         "--output-dir", str(out), "--xi-samples", "4"],
                    threads)
        outputs[threads] = (out / "fourier_norms.csv").read_bytes()
    assert outputs["1"].count(b"\n") == 1 + 4
    assert outputs["1"] == outputs["2"]


def test_filtered_spectrum_reruns_are_byte_identical(tmp_path):
    # the benchmark's spectrum case (a): rescaled relaxation, order 8192,
    # whose sigma_max start is Chebyshev-filtered; two fresh runs at either
    # OpenBLAS thread count write the same CSV
    raw = {"scheme": "ap", "epsilon": 1e-6, "tau": 2e-3, "h": 0.1,
           "N": 4, "Nx": 16, "Nt": 64}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    for threads in ("1", "2"):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{threads}{run}"
            _run_module("transportlab.cli", ["spectrum", "--rescaled", "--config",
                                             str(config), "--output-dir", str(out)],
                        threads)
            outputs.append((out / "spectrum.csv").read_bytes())
            spectrum = json.loads((out / "manifest.json").read_text())["spectrum"]
            assert spectrum["method"] == "iterative"
            # the filter alone makes ceil(1.5 * 64) = 96 products
            assert spectrum["matvecs"]["sigma_max"] > 96
        assert b",ok\n" in outputs[0]
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, usage", [
    (["--version"], None),
    (["--help"], "usage: transportlab "),
    (["solve", "--help"], "usage: transportlab solve "),
], ids=["version", "help", "solve-help"])
def test_help_and_version_return_zero(argv, usage, capsys):
    # main returns its exit code; it does not raise SystemExit
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if usage is None:
        assert out == f"{transportlab.__version__}\n"
    else:
        assert out.startswith(usage)


def test_python_dash_m_version():
    done = _run_module("transportlab", ["--version"])
    assert (done.returncode, done.stdout) == (0, f"{transportlab.__version__}\n".encode())


def test_python_dash_m_package_is_the_cli(explicit_config, tmp_path):
    written = {}
    for module in ("transportlab", "transportlab.cli"):
        out = tmp_path / module
        _run_module(module, ["spectrum", "--config", str(explicit_config),
                             "--output-dir", str(out)])
        written[module] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(written["transportlab"]) == {"spectrum.csv", "manifest.json"}
    assert written["transportlab"] == written["transportlab.cli"]


@pytest.mark.parametrize("raw, argv, csv_name", [
    # order 1024, above DENSE_CAP
    ({"scheme": "explicit", "epsilon": 0.2, "tau": "auto", "h": 0.05,
      "N": 2, "Nx": 16, "Nt": 16}, ["spectrum"], "spectrum.csv"),
    # criterion 6's grid: rows of order 1024
    ({"scheme": "ap", "epsilon": 1.0, "tau": 0.01, "h": 0.1, "N": 4, "Nx": 8, "Nt": 16},
     ["sweep", "--mode", "fixed_grid", "--allow-unstable", "--epsilons", "1,1e-3"],
     "sweep.csv"),
], ids=["spectrum", "sweep"])
def test_iterative_spectrum_builds_no_space_time_matrix(raw, argv, csv_name, tmp_path,
                                                        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("space-time matrix built")

    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    outputs = []
    for run in ("plain", "spied"):
        if run == "spied":
            monkeypatch.setattr(assembly, "space_time_matrix", refuse)
        out = tmp_path / run
        assert main([*argv, "--config", str(config), "--output-dir", str(out)]) == 0
        outputs.append((out / csv_name).read_bytes())
    assert b",ok\n" in outputs[0] and b"error" not in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["assemble"], ["spectrum"]])
def test_assemble_and_dense_spectrum_build_the_matrix_once(argv, ap_config, tmp_path,
                                                           monkeypatch):
    calls = []
    original = assembly.space_time_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(assembly, "space_time_matrix", counted)
    assert 2 * 3 * 6 * 4 <= transportlab.spectral.DENSE_CAP  # AP_RAW's order
    assert main([*argv, "--config", str(ap_config),
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
