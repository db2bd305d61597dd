import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from transportlab import (
    DivergenceError,
    GridConfig,
    ap_scheme,
    cfl_limit,
    explicit_scheme,
)
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
    system = scheme.system(cfg, rule, initial, rescaled)
    pieces = system.split(spla.spsolve(system.L.tocsc(), system.F))
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


@pytest.mark.parametrize("raw, steps", [
    ({"scheme": "ap", "tau": 0.004},
     {"relaxation_step": 5, "transport_step": 5, "explicit_step": 0}),
    ({"scheme": "explicit", "tau": "auto"},
     {"relaxation_step": 0, "transport_step": 0, "explicit_step": 5}),
], ids=["ap", "explicit"])
def test_solve_calls_each_step_binding_once_per_step(monkeypatch, tmp_path, raw, steps):
    # the benchmark tracer wraps these module attributes; each must see every step
    calls = dict.fromkeys(steps, 0)
    for module, name in ((ap_scheme, "relaxation_step"), (ap_scheme, "transport_step"),
                         (explicit_scheme, "explicit_step")):
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(raw, epsilon=0.5, h=0.1, N=2, Nx=4, Nt=5)),
                      encoding="utf-8")
    assert main(["solve", "--config", str(config),
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == steps


# peak traced bytes of a run over one level's bytes, measured at N=8,
# N_x=2048: 5.09 for the relaxation scheme (workspace 2.5 levels, the
# previous and the new level, ufunc buffers) and 4.33 for the upwind
# one.  Relaxation steps that allocate a temporary per operation peak
# at 7.02.
PEAK_LEVELS = {"ap": 5.5, "explicit": 4.75}


@pytest.mark.parametrize("scheme", ["ap", "explicit"])
def test_run_peak_memory_is_a_few_levels_whatever_the_step_count(scheme):
    eps, h = 0.5, 0.01
    peaks = {}
    for n_t in (8, 64):
        cfg = GridConfig(epsilon=eps, tau=0.5 * cfl_limit(scheme, eps, h), h=h,
                         N=8, N_x=2048, N_t=n_t, scheme=scheme)
        sch = scheme_for(cfg)
        rule = sch.rule(cfg)
        initial = sch.initial(cfg, rule)
        tracemalloc.start()
        try:
            sch.evolve(initial, cfg, rule, lambda step, level: None)
            peaks[n_t] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    level = _values(initial).nbytes
    assert abs(peaks[64] - peaks[8]) < level
    assert peaks[64] < PEAK_LEVELS[scheme] * level
