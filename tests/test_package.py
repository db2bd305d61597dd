"""The package namespace: every public name, read from its home module.

``transportlab`` resolves its public names lazily, so each must still be
exported, listed and bound by ``import *``, and must always be the home
module's current object.
"""

import importlib
import re
from pathlib import Path

import pytest

import transportlab

HOMES = {
    "quadrature": ["QuadratureRule", "gauss_rule"],
    "model": [
        "AP", "EXPLICIT", "CflViolationError", "DivergenceError", "GridConfig",
        "KineticField", "ParityField", "UnsupportedConfigurationError",
        "cfl_limit", "density", "initial_kinetic_field", "initial_parity_field",
        "resolve_config",
    ],
    "ap_scheme": [
        "ApStepMatrices", "ap_evolve", "ap_step_matrices", "boundary_forcing",
        "relaxation_step", "transport_step",
    ],
    "explicit_scheme": [
        "ExplicitStepMatrix", "boundary_vector", "explicit_evolve",
        "explicit_matrix", "explicit_step",
    ],
    "assembly": [
        "BlockSystem", "FourierMatrix", "FourierSymbols", "assemble_ap_system",
        "assemble_explicit_system", "assemble_fourier_matrix",
        "export_matrix_market", "fourier_symbols", "sparsity",
    ],
    "spectral": [
        "PerturbationReport", "RegressionResult", "SpectrumReport",
        "alpha_bound", "perturbation_check", "scaling_regression",
        "singular_extremes",
    ],
    "complexity": [
        "CSV_HEADER", "ComplexityRow", "classical_cost", "qlsa_queries",
        "rows_to_csv", "sweep_epsilon",
    ],
}

PUBLIC = [(module, name) for module, names in HOMES.items() for name in names]


def test_public_name_count():
    assert len(PUBLIC) == 48
    assert sorted(transportlab.__all__) == sorted(name for _, name in PUBLIC)


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_name_is_the_home_modules_object(module, name):
    assert name in transportlab.__all__
    assert name in dir(transportlab)
    home = importlib.import_module(f"transportlab.{module}")
    assert getattr(transportlab, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from transportlab import *", namespace)
    for module, name in PUBLIC:
        home = importlib.import_module(f"transportlab.{module}")
        assert namespace[name] is getattr(home, name)


# the submodules that declare ``__all__``
SUBMODULES_WITH_ALL = ["quadrature", "ap_scheme", "explicit_scheme", "assembly",
                       "spectral", "complexity", "schemes"]


@pytest.mark.parametrize("module", SUBMODULES_WITH_ALL)
def test_submodule_star_import_binds_its_all(module):
    # a name left in ``__all__`` after its object is gone fails the import
    home = importlib.import_module(f"transportlab.{module}")
    namespace = {}
    exec(f"from transportlab.{module} import *", namespace)
    for name in home.__all__:
        assert namespace[name] is getattr(home, name)


def test_submodules_still_import_from_the_package():
    from transportlab import cli, schemes, spectral

    assert cli is importlib.import_module("transportlab.cli")
    assert schemes is importlib.import_module("transportlab.schemes")
    assert spectral is importlib.import_module("transportlab.spectral")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"^module 'transportlab' has no attribute 'no_such_name'$"):
        transportlab.no_such_name
    assert not hasattr(transportlab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from transportlab import no_such_name", {})


def test_package_reads_the_current_home_binding(monkeypatch):
    def fake(*args, **kwargs):
        raise AssertionError("not called")

    original = transportlab.gauss_rule
    monkeypatch.setattr(transportlab.quadrature, "gauss_rule", fake)
    assert transportlab.gauss_rule is fake
    monkeypatch.undo()
    assert transportlab.gauss_rule is original


def test_readme_quotes_each_constant_at_its_value():
    # "`NAME` = value" in README.md is the value of the module constant NAME
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    quoted = re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d+(?:,\d{3})*(?:\.\d+)?)", readme)
    assert quoted
    modules = [importlib.import_module(f"transportlab.{module}") for module in HOMES]
    for name, value in quoted:
        values = [getattr(module, name) for module in modules if hasattr(module, name)]
        assert values, name
        assert all(v == float(value.replace(",", "")) for v in values), (name, value)
