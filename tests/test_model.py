import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from transportlab import (
    CflViolationError,
    DivergenceError,
    GridConfig,
    ParityField,
    UnsupportedConfigurationError,
    ap_step_matrices,
    assemble_ap_system,
    assemble_explicit_system,
    assemble_fourier_matrix,
    boundary_forcing,
    boundary_vector,
    cfl_limit,
    density,
    explicit_matrix,
    gauss_rule,
    initial_kinetic_field,
    initial_parity_field,
    model,
    resolve_config,
)
from transportlab.ap_scheme import ApWorkspace
from transportlab.explicit_scheme import ExplicitWorkspace
from transportlab.model import (
    CONFIG_KEYS,
    config_as_dict,
    march,
    read_config,
    write_rows,
)


def ap_cfg(**kw):
    base = dict(epsilon=0.5, tau=0.005, h=0.1, N=4, N_x=8, N_t=4)
    base.update(kw)
    return GridConfig(**base)


# --- validation ---------------------------------------------------------


def test_ap_cfl_pass():
    # within the step restriction: constructs without the override
    assert ap_cfg(tau=0.005, h=0.1).tau == 0.005


def test_explicit_cfl_boundary():
    # limit h*eps^2/(eps+h) = 9.0909e-4 at eps=0.1, h=0.01
    grid = dict(epsilon=0.1, h=0.01, N=2, N_x=4, N_t=2, scheme="explicit")
    assert GridConfig(tau=9e-4, **grid).tau == 9e-4
    # both sides evaluated
    with pytest.raises(CflViolationError,
                       match=r"tau = 0\.001 > h\*eps\^2/\(eps\+h\) = 0\.000909091$"):
        GridConfig(tau=1e-3, **grid)


def test_phi_out_of_range_fails():
    with pytest.raises(CflViolationError,
                       match=r"^relaxation parameter out of range: phi = 2 not in "
                             r"\[0, 1/eps\^2\] = \[0, 1\]$"):
        ap_cfg(epsilon=1.0, phi=2.0)


def test_step_and_phi_violations_share_one_message():
    with pytest.raises(CflViolationError,
                       match=r"^parabolic step restriction violated: tau/h\^2 = 2 > "
                             r"1/\(1\+h\) = 0\.909091; relaxation parameter out of "
                             r"range: phi = 2 not in \[0, 1/eps\^2\] = \[0, 1\]$"):
        ap_cfg(epsilon=1.0, phi=2.0, tau=0.02, h=0.1)


def test_construction_rejects_cfl_violation_without_override():
    with pytest.raises(CflViolationError, match=r"tau/h\^2"):
        ap_cfg(tau=0.02, h=0.1)
    # override admits it
    assert ap_cfg(tau=0.02, h=0.1, allow_unstable=True).allow_unstable


@pytest.mark.parametrize("field,value", [
    ("tau", -1.0), ("tau", float("nan")), ("h", 0.0),
    ("epsilon", -0.1), ("epsilon", float("inf")),
])
def test_invalid_arguments_raise(field, value):
    with pytest.raises(ValueError):
        ap_cfg(**{field: value})


@pytest.mark.parametrize("epsilon, message", [
    (1e-200, r"^epsilon\*\*2 underflows to 0 at epsilon = 1e-200$"),
    (5e-324, r"^epsilon\*\*2 underflows to 0 at epsilon = 5e-324$"),
    (1e200, r"^epsilon\*\*2 overflows at epsilon = 1e\+200$"),
    (1e-160, r"^1/epsilon\*\*2 overflows at epsilon = 1e-160$"),
    (7.4e-155, r"^1/epsilon\*\*2 overflows at epsilon = 7.4e-155$"),
], ids=["underflow", "least-subnormal", "overflow", "reciprocal-overflow",
        "reciprocal-overflow-at-the-edge"])
@pytest.mark.parametrize("allow_unstable", [False, True])
def test_an_epsilon_whose_square_leaves_the_float_range_is_named(
        epsilon, message, allow_unstable):
    with pytest.raises(ValueError, match=message):
        ap_cfg(epsilon=epsilon, allow_unstable=allow_unstable)


def test_an_epsilon_with_a_subnormal_square_constructs():
    # 7.5e-155 squares to a subnormal whose reciprocal is still finite
    assert 0.0 < 7.5e-155**2 < sys.float_info.min
    assert ap_cfg(epsilon=7.5e-155, allow_unstable=True).epsilon == 7.5e-155


def test_cfl_limit_values():
    assert cfl_limit("ap", 1.0, 0.1) == pytest.approx(0.01 / 1.1)
    assert cfl_limit("explicit", 0.1, 0.01) == pytest.approx(1e-4 / 0.11)
    # the overflow guard keeps the relaxation limit's bits, so tau auto too
    for h in (0.01, 1.0 / 3.0, 1e-150, 1e150):
        assert cfl_limit("ap", 0.5, h) == h**2 / (1.0 + h)


@pytest.mark.parametrize("h, message", [
    (1e200, r"^h\*\*2 overflows at h = 1e\+200$"),
    (1e-200, r"^h\*\*2 underflows to 0 at h = 1e-200$"),
], ids=["overflow", "underflow"])
def test_an_h_whose_square_leaves_the_float_range_is_named(h, message):
    with pytest.raises(ValueError, match=message):
        cfl_limit("ap", 0.5, h)
    with pytest.raises(ValueError, match=message):
        resolve_config({"scheme": "ap", "epsilon": 0.5, "tau": "auto", "h": h,
                        "N": 4, "Nx": 8, "Nt": 4})
    # the step restriction's check
    with pytest.raises(ValueError, match=message):
        ap_cfg(h=h)
    # which an unstable run skips
    assert ap_cfg(h=h, allow_unstable=True).h == h
    # the upwind limit squares epsilon, not h
    assert cfl_limit("explicit", 0.5, h) > 0.0


def test_derived_quantities():
    cfg = ap_cfg()
    assert cfg.lam == pytest.approx(0.05)
    assert cfg.gamma == pytest.approx(0.005 / 0.25)
    assert cfg.x_right == pytest.approx(0.9)
    assert cfg.interior_x()[0] == pytest.approx(0.1)
    assert cfg.interior_x()[-1] == pytest.approx(0.8)


# --- density ------------------------------------------------------------


def parity_field(r, N):
    """A parity field with interior values ``r`` (j = 0) and zero ghosts."""
    r = np.asarray(r, dtype=float)
    return ParityField(r, np.zeros_like(r), *np.zeros((4, N)))


def test_density_of_unit_field_is_one():
    rule = gauss_rule(4, 0.0, 1.0)
    field = parity_field(np.ones(4 * 6), 4)
    np.testing.assert_allclose(density(field, rule), np.ones(6), atol=1e-14)


def test_density_degree_one_and_two():
    # analytic integrals of v and v^2 on [0, 1]
    for N in (2, 3, 8):
        rule = gauss_rule(N, 0.0, 1.0)
        r_lin = parity_field(np.repeat(rule.nodes, 5), N)
        np.testing.assert_allclose(density(r_lin, rule), 0.5, rtol=1e-13)
        r_quad = parity_field(np.repeat(rule.nodes**2, 5), N)
        np.testing.assert_allclose(density(r_quad, rule), 1.0 / 3.0, rtol=1e-13)


def test_density_is_linear():
    rng = np.random.default_rng(11)
    rule = gauss_rule(5, 0.0, 1.0)
    r1, r2 = rng.normal(size=(2, 5 * 7))
    lhs = density(parity_field(2.5 * r1 - 1.25 * r2, 5), rule)
    rhs = 2.5 * density(parity_field(r1, 5), rule) - 1.25 * density(parity_field(r2, 5), rule)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_density_size_mismatch():
    rule = gauss_rule(4, 0.0, 1.0)
    with pytest.raises(ValueError, match="field has 3 velocity nodes, rule has 4"):
        density(parity_field(np.zeros(3 * 5), 3), rule)


# --- fields and initial data -------------------------------------------


def test_parity_field_validation():
    with pytest.raises(ValueError):
        ParityField(np.ones(8), np.ones(9), np.zeros(2), np.zeros(2),
                    np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ParityField(np.ones(8), np.ones(8), np.zeros(2), np.zeros(3),
                    np.zeros(2), np.zeros(2))


def test_initial_profiles():
    rule = gauss_rule(3, 0.0, 1.0)
    cfg = ap_cfg(N=3, init="gaussian")
    field = initial_parity_field(cfg, rule)
    R, J = field.blocks()
    assert np.all(J == 0)
    # isotropic: identical across velocity nodes, peaked at the midpoint
    assert np.allclose(R[0], R[2])
    assert R[0].argmax() in (cfg.N_x // 2 - 1, cfg.N_x // 2)

    step = initial_parity_field(ap_cfg(N=3, init="step"), rule)
    values = np.unique(step.blocks()[0])
    assert set(values.tolist()) <= {0.0, 1.0}


def test_initial_kinetic_field_layout():
    cfg = ap_cfg(N=3, scheme="explicit", epsilon=0.5, tau=1e-3, h=0.1,
                 bc_left=0.25)
    rule = gauss_rule(6, -1.0, 1.0)
    field = initial_kinetic_field(cfg, rule)
    assert field.f.size == 6 * cfg.N_x
    # isotropic initial data: every spatial block is constant in v
    F = field.blocks()
    assert np.allclose(F, F[:, :1])
    assert np.all(field.f_left == 0.25)


@pytest.mark.parametrize("scheme, build", [
    ("ap", initial_parity_field),
    ("explicit", initial_kinetic_field),
    ("ap", ap_step_matrices),
    ("explicit", explicit_matrix),
    ("ap", lambda cfg, rule: assemble_fourier_matrix(cfg, rule, 1.0)),
], ids=["parity_field", "kinetic_field", "ap_matrices", "explicit_matrix", "fourier"])
def test_every_rule_size_check_speaks_one_message(scheme, build):
    cfg = ap_cfg(N=3, scheme=scheme, tau=1e-3)
    expected = cfg.n_velocities()
    with pytest.raises(ValueError,
                       match=f"^rule has {expected + 1} points, config expects {expected}$"):
        build(cfg, gauss_rule(expected + 1, 0.0, 1.0))


# every solver entry point; a field argument is None, since the check
# comes before anything reads it
@pytest.mark.parametrize("scheme, build", [
    ("ap", initial_parity_field),
    ("ap", ApWorkspace),
    ("ap", ap_step_matrices),
    ("ap", lambda cfg, rule: boundary_forcing(cfg, rule, None, None)),
    ("ap", lambda cfg, rule: assemble_ap_system(cfg, rule, None)),
    ("ap", lambda cfg, rule: assemble_fourier_matrix(cfg, rule, 1.0)),
    ("explicit", initial_kinetic_field),
    ("explicit", ExplicitWorkspace),
    ("explicit", explicit_matrix),
    ("explicit", lambda cfg, rule: boundary_vector(cfg, rule, None)),
    ("explicit", lambda cfg, rule: assemble_explicit_system(cfg, rule, None)),
], ids=["parity_field", "ap_workspace", "ap_matrices", "ap_forcing", "ap_system", "fourier",
        "kinetic_field", "explicit_workspace", "explicit_matrix", "explicit_boundary",
        "explicit_system"])
def test_every_solver_entry_point_checks_scheme_then_phi_then_rule(scheme, build):
    other, solver = {"ap": ("explicit", "relaxation"), "explicit": ("ap", "upwind")}[scheme]
    cfg = ap_cfg(N=3, scheme=scheme, tau=1e-3, phi=0.5)
    wrong_rule = gauss_rule(cfg.n_velocities() + 1, 0.0, 1.0)
    with pytest.raises(ValueError, match=f"^config scheme must be '{scheme}', got '{other}'$"):
        build(replace(cfg, scheme=other), wrong_rule)
    with pytest.raises(UnsupportedConfigurationError,
                       match=f"^{solver} solver implements phi = 1 only, got phi = 0.5$"):
        build(cfg, wrong_rule)


# each builder with the other scheme's config and the rule of that
# config: the size fits, so only the scheme check can reject it
@pytest.mark.parametrize("scheme, other, build", [
    ("ap", "explicit", initial_parity_field),
    ("explicit", "ap", initial_kinetic_field),
], ids=["parity_field", "kinetic_field"])
def test_an_initial_field_rejects_the_other_scheme_with_a_rule_that_fits_it(
        scheme, other, build):
    cfg = ap_cfg(N=3, scheme=other, tau=1e-3)
    rule = gauss_rule(cfg.n_velocities(), *model.SCHEME_GRIDS[other].rule_interval)
    with pytest.raises(ValueError, match=f"^config scheme must be '{scheme}', got '{other}'$"):
        build(cfg, rule)


ACCEPTANCE_TEXTS = ("config scheme must be", "implements phi = 1 only")


def test_only_model_holds_the_acceptance_check():
    package = Path(model.__file__).parent
    assert all(text in Path(model.__file__).read_text(encoding="utf-8")
               for text in ACCEPTANCE_TEXTS)
    for path in sorted(package.glob("*.py")):
        if path.name != "model.py":
            source = path.read_text(encoding="utf-8")
            assert not any(text in source for text in ACCEPTANCE_TEXTS), path.name


# --- config files -------------------------------------------------------


def config_dict(**kw):
    raw = {"scheme": "ap", "epsilon": 0.5, "phi": 1.0, "tau": 0.005,
           "h": 0.1, "N": 4, "Nx": 8, "Nt": 4, "x_left": 0.0,
           "bc_left": 0.0, "bc_right": 0.0, "init": "gaussian"}
    raw.update(kw)
    return raw


def test_resolve_config_round_trip():
    cfg = resolve_config(config_dict())
    assert cfg == ap_cfg()
    # numeric strings, as command-line overrides arrive
    assert resolve_config(config_dict(tau="0.005", Nt="4")) == ap_cfg()
    with pytest.raises(ValueError, match="tau must be a number or 'auto'"):
        resolve_config(config_dict(tau="fast"))


@pytest.mark.parametrize("key, value", [
    ("N", 3.9), ("Nx", 32.5), ("Nt", True), ("Nt", False), ("Nt", "8.5"),
    ("Nt", "eight"), ("N", float("nan")), ("Nx", None),
])
def test_resolve_config_rejects_counts_that_are_not_whole(key, value, tmp_path):
    with pytest.raises(ValueError, match=f"{key} must be a whole number"):
        resolve_config(config_dict(**{key: value}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_dict(**{key: value})), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{key} must be a whole number"):
        resolve_config(read_config(path))


@pytest.mark.parametrize("value", [True, False, "fast"], ids=repr)
@pytest.mark.parametrize("key", [
    "epsilon", "h", "x_left", "x_right", "tau", "phi", "bc_left", "bc_right"])
def test_resolve_config_rejects_float_keys_that_are_not_numbers(key, value, tmp_path):
    raw = config_dict(**{key: value})
    if key == "x_right":
        del raw["h"]
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        resolve_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        resolve_config(read_config(path))


def test_resolve_config_accepts_integral_counts():
    assert resolve_config(config_dict(N=4.0, Nx="8", Nt=" 4 ")) == ap_cfg()


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ValueError) as err:
        resolve_config(config_dict(bogus=1))
    assert "bogus" in str(err.value) and "scheme" in str(err.value)


def test_resolve_config_auto_tau():
    cfg = resolve_config(config_dict(tau="auto"))
    assert cfg.tau == pytest.approx(0.9 * 0.01 / 1.1)
    cfg2 = resolve_config(config_dict(scheme="explicit", tau="auto", epsilon=0.3))
    assert cfg2.tau == pytest.approx(0.9 * 0.1 * 0.09 / 0.4)


def test_resolve_config_grid_consistency():
    cfg = resolve_config(config_dict(x_right=0.9))
    assert cfg.h == pytest.approx(0.1)
    with pytest.raises(ValueError):
        resolve_config(config_dict(x_right=1.5))
    raw = config_dict(x_right=0.9)
    del raw["h"]
    assert resolve_config(raw).h == pytest.approx(0.1)


def test_read_config_file_resolves(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_dict()), encoding="utf-8")
    assert resolve_config(read_config(path)) == ap_cfg()


@pytest.mark.parametrize("cfg", [
    ap_cfg(),
    GridConfig(epsilon=0.1, tau=9e-4, h=0.01, N=2, N_x=4, N_t=2, scheme="explicit",
               phi=3.0, x_left=-0.5, bc_left=0.25, bc_right=0.75, init="step"),
], ids=["ap", "explicit"])
def test_config_as_dict_speaks_the_config_keys(cfg):
    raw = config_as_dict(cfg)
    assert tuple(raw) == CONFIG_KEYS
    assert resolve_config(raw) == cfg


# --- the march's finiteness check ---------------------------------------


def _march(levels, n_t, handed_on):
    """March through the (r, j) pairs ``levels``, noting each step handed on."""
    march((np.zeros(8), np.zeros(8)), ap_cfg(N_t=n_t), lambda state: next(levels),
          lambda state: state, lambda n, state: handed_on.append(n))


@pytest.mark.parametrize("values", [
    np.full(8, 1e308),
    np.array([1e308] * 4 + [-1e308] * 4),  # partial sums reach inf and -inf
    np.array([1.7e308, 1.7e308, 5e-324, -0.0, 0.0, -1.7e308, 1.0, 2.0]),
], ids=["all_1e308", "both_signs", "mixed"])
def test_march_takes_a_level_whose_sum_overflows_for_finite(values):
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(values.sum())
    handed_on = []
    _march(iter([(np.zeros(8), values), (values, values.copy())]), 2, handed_on)
    assert handed_on == [0, 1, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("array", [0, 1], ids=["r", "j"])
@pytest.mark.parametrize("position", [0, 5, 7])
def test_march_reports_one_non_finite_entry_at_the_step_that_made_it(bad, array,
                                                                      position):
    spoilt = [np.full(8, 1e308), np.ones(8)]
    spoilt[array][position] = bad
    levels = iter([(np.ones(8), np.ones(8)), (np.full(8, -1e308), np.ones(8)),
                   tuple(spoilt), (np.ones(8), np.ones(8))])
    handed_on = []
    with pytest.raises(DivergenceError) as err:
        _march(levels, 4, handed_on)
    assert err.value.step == 3
    assert handed_on == [0, 1, 2]


def test_write_rows_states_the_one_table_format():
    handle = io.StringIO()
    write_rows(handle, [
        ("a", "b", "c", "d"),
        (None, float("nan"), np.float64(0.1), 7),
        (float("inf"), float("-inf"), 1e100, np.int64(-3)),
        ("x,y", 'say "hi"', "two\nlines", ""),
    ])
    assert handle.getvalue() == (
        "a,b,c,d\n"
        ",,0.1,7\n"
        "inf,-inf,1e+100,-3\n"
        '"x,y","say ""hi""","two\nlines",\n'
    )
