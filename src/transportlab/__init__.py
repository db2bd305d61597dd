"""Numerical laboratory for the multiscale linear transport equation.

Two finite-difference solvers (an even/odd-parity diffusive relaxation
scheme that stays uniformly stable as the scaling parameter epsilon
vanishes, and a standard explicit upwind scheme), their all-at-once
space-time linear systems, and the spectral/cost analysis machinery used
to compare classical iteration counts with sparse-access quantum
linear-solver query estimates.

``import transportlab`` imports none of its layers.  Each public name
below resolves from its home module when it is read (PEP 562), so a
layer loads the first time one of its names is used: the names of
``model`` and ``quadrature`` need numpy alone, and scipy loads only with
the other layers.  The package never keeps its own copy of a name:
``transportlab.x`` is always the home module's current binding, so a
patch to that binding shows through the package too.  The
``transportlab`` command (``transportlab.cli``) still loads every layer.
"""

import importlib as _importlib

__version__ = "0.1.0"

_HOMES = {
    "quadrature": ("QuadratureRule", "gauss_rule"),
    "model": (
        "AP",
        "EXPLICIT",
        "CflViolationError",
        "DivergenceError",
        "GridConfig",
        "KineticField",
        "ParityField",
        "UnsupportedConfigurationError",
        "cfl_limit",
        "density",
        "initial_kinetic_field",
        "initial_parity_field",
        "resolve_config",
    ),
    "ap_scheme": (
        "ApStepMatrices",
        "ap_evolve",
        "ap_step_matrices",
        "boundary_forcing",
        "relaxation_step",
        "transport_step",
    ),
    "explicit_scheme": (
        "ExplicitStepMatrix",
        "boundary_vector",
        "explicit_evolve",
        "explicit_matrix",
        "explicit_step",
    ),
    "assembly": (
        "BlockSystem",
        "FourierMatrix",
        "FourierSymbols",
        "assemble_ap_system",
        "assemble_explicit_system",
        "assemble_fourier_matrix",
        "export_matrix_market",
        "fourier_symbols",
        "sparsity",
    ),
    "spectral": (
        "PerturbationReport",
        "RegressionResult",
        "SpectrumReport",
        "alpha_bound",
        "perturbation_check",
        "scaling_regression",
        "singular_extremes",
    ),
    "complexity": (
        "CSV_HEADER",
        "ComplexityRow",
        "classical_cost",
        "qlsa_queries",
        "rows_to_csv",
        "sweep_epsilon",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
