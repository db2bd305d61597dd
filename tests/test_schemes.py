import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from transportlab import DivergenceError, GridConfig, ap_scheme, cfl_limit, explicit_scheme
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


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["ap", "explicit"]), log_eps=st.floats(-8.0, 0.0),
       N=st.integers(1, 4), N_x=st.integers(1, 8), N_t=st.integers(0, 16),
       # far past the step restriction a run overflows within a few steps
       tau_factor=st.sampled_from([0.5, 1e100]))
def test_streamed_levels_are_the_recorded_levels(scheme, log_eps, N, N_x, N_t,
                                                 tau_factor):
    eps, h = 10.0**log_eps, 0.1
    cfg = GridConfig(epsilon=eps, tau=tau_factor * cfl_limit(scheme, eps, h), h=h,
                     N=N, N_x=N_x, N_t=N_t, scheme=scheme, allow_unstable=True)
    sch = scheme_for(cfg)
    rule = sch.rule(cfg)
    initial = sch.initial(cfg, rule)
    streamed = []

    def on_level(step, level):
        streamed.append((step, _values(level).tobytes()))

    try:
        recorded = sch.evolve(initial, cfg, rule)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as err:
            sch.evolve(initial, cfg, rule, on_level)
        assert err.value.step == exc.step
        assert [step for step, _ in streamed] == list(range(exc.step))
        return
    kept = sch.evolve(initial, cfg, rule, on_level)
    assert streamed == [(step, _values(level).tobytes())
                        for step, level in enumerate(recorded.fields)]
    assert len(streamed) == cfg.N_t + 1
    assert len(kept.fields) == 1
    assert _values(kept.fields[0]).tobytes() == _values(recorded.fields[-1]).tobytes()
    assert kept.cost == recorded.cost
