import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from transportlab import GridConfig, ap_scheme, explicit_scheme
from transportlab.cli import main
from transportlab.schemes import scheme_for

AP_CFG = GridConfig(epsilon=0.5, tau=0.004, h=0.1, N=3, N_x=6, N_t=4)
EXPLICIT_CFG = GridConfig(epsilon=0.4, tau=1e-3, h=0.1, N=3, N_x=6, N_t=4,
                          scheme="explicit")


def _values(level):
    """Interior values of a field as one vector ([r; j] or f)."""
    return np.hstack([getattr(level, name) for name in ("r", "j", "f")
                      if hasattr(level, name)])


@pytest.mark.parametrize("cfg", [AP_CFG, EXPLICIT_CFG], ids=["ap", "explicit"])
def test_rule_matches_the_configured_velocity_count(cfg):
    rule = scheme_for(cfg).rule(cfg)
    assert rule.n_points == cfg.n_velocities()
    assert rule.weights.sum() == pytest.approx(1.0 if cfg.scheme == "ap" else 2.0)


@pytest.mark.parametrize("rescaled", [False, True])
@pytest.mark.parametrize("cfg", [AP_CFG, EXPLICIT_CFG], ids=["ap", "explicit"])
def test_split_space_time_solution_is_the_stepper_trajectory(cfg, rescaled):
    scheme = scheme_for(cfg)
    rule = scheme.rule(cfg)
    initial = scheme.initial(cfg, rule)
    trajectory = scheme.evolve(initial, cfg, rule)
    system = scheme.system(cfg, rule, initial, rescaled, 10**6)
    pieces = scheme.split(system, spla.spsolve(system.L.tocsc(), system.F))
    assert len(pieces) == cfg.N_t
    for level, piece in zip(trajectory.fields[1:], pieces):
        np.testing.assert_allclose(np.hstack(piece), _values(level),
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("module, name, raw", [
    (ap_scheme, "ap_evolve", {"scheme": "ap", "tau": 0.004}),
    (explicit_scheme, "explicit_evolve", {"scheme": "explicit", "tau": "auto"}),
], ids=["ap", "explicit"])
def test_scheme_calls_the_module_binding_at_call_time(monkeypatch, tmp_path,
                                                      module, name, raw):
    # a wrapper installed on the module attribute must see the CLI's call
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(name) or original(*args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(raw, epsilon=0.5, h=0.1, N=2, Nx=4, Nt=2)),
                      encoding="utf-8")
    assert main(["solve", "--config", str(config),
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == [name]
