"""Problem setup: grid configuration, parity/kinetic fields, boundary and
initial data, and stability validation.

The model problem is the scaled linear transport equation

    eps * df/dt + v * df/dx = (1/eps) * ( (1/2) Int_{-1}^{1} f dv' - f )

on an interval with Dirichlet ghost data at both ends.  The relaxation
solver works on the even/odd parity pair (r, j); the explicit solver on
the kinetic density f itself.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .quadrature import QuadratureRule

AP = "ap"
EXPLICIT = "explicit"

INIT_PROFILES = ("gaussian", "constant", "step")

# keys accepted in config files and CLI overrides, in canonical order
CONFIG_KEYS = (
    "scheme", "epsilon", "phi", "tau", "h", "N", "Nx", "Nt",
    "x_left", "x_right", "bc_left", "bc_right", "init",
)

GAUSSIAN_SHARPNESS = 100.0


class CflViolationError(Exception):
    """The grid violates the scheme's stability restriction."""


class DivergenceError(Exception):
    """A time-stepping run produced NaN/Inf values."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"solution diverged (NaN/Inf) at step {step}")


class UnsupportedConfigurationError(Exception):
    """Configuration is valid but outside what the solvers implement."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the stability/parameter checks for one configuration."""

    ok: bool
    violations: tuple[str, ...]


def _parabolic_violation(epsilon, tau, h) -> str | None:
    lhs = tau / h**2
    rhs = 1.0 / (1.0 + h)
    if lhs > rhs:
        return (f"parabolic step restriction violated: tau/h^2 = {lhs:.6g} "
                f"> 1/(1+h) = {rhs:.6g}")
    return None


def _upwind_violation(epsilon, tau, h) -> str | None:
    limit = h * epsilon**2 / (epsilon + h)
    if tau > limit:
        return (f"upwind step restriction violated: tau = {tau:.6g} "
                f"> h*eps^2/(eps+h) = {limit:.6g}")
    return None


@dataclass(frozen=True)
class SchemeGrid:
    """Grid facts of one scheme.

    The scheme uses ``velocity_factor * N`` velocity nodes, the Gauss
    nodes on ``rule_interval``.  ``cfl_limit(epsilon, h)`` is its largest
    stable time step and ``violation(epsilon, tau, h)`` quotes its step
    restriction with both sides evaluated when the step breaks it.
    """

    velocity_factor: int
    rule_interval: tuple[float, float]
    cfl_limit: Callable[[float, float], float]
    violation: Callable[[float, float, float], str | None]


SCHEME_GRIDS = {
    AP: SchemeGrid(1, (0.0, 1.0), lambda epsilon, h: h**2 / (1.0 + h),
                   _parabolic_violation),
    EXPLICIT: SchemeGrid(2, (-1.0, 1.0), lambda epsilon, h: h * epsilon**2 / (epsilon + h),
                         _upwind_violation),
}
SCHEMES = tuple(SCHEME_GRIDS)


def _stability_violations(scheme, epsilon, phi, tau, h) -> list[str]:
    step = SCHEME_GRIDS[scheme].violation(epsilon, tau, h)
    out = [step] if step else []
    phi_max = 1.0 / epsilon**2
    if phi < 0.0 or phi > phi_max:
        out.append(
            f"relaxation parameter out of range: phi = {phi:.6g} "
            f"not in [0, 1/eps^2] = [0, {phi_max:.6g}]"
        )
    return out


@dataclass(frozen=True)
class GridConfig:
    """Discretization parameters shared by both solvers.

    ``N`` counts velocity nodes on [0, 1] for the parity scheme; the
    explicit scheme uses the symmetric 2N-point rule on [-1, 1].  The
    spatial grid is x_m = x_left + m*h for m = 0..N_x+1, with m = 0 and
    m = N_x+1 the ghost/boundary points, so the domain length is
    (N_x + 1)*h.  Stability restrictions (tau/h^2 <= 1/(1+h) for the
    relaxation scheme, tau <= h*eps^2/(eps+h) for the explicit one, and
    0 <= phi <= 1/eps^2) are enforced at construction unless
    ``allow_unstable`` is set.
    """

    epsilon: float
    tau: float
    h: float
    N: int
    N_x: int
    N_t: int
    scheme: str = AP
    phi: float = 1.0
    x_left: float = 0.0
    bc_left: float = 0.0
    bc_right: float = 0.0
    init: str = "gaussian"
    allow_unstable: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        for name in ("epsilon", "tau", "h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("phi", "x_left", "bc_left", "bc_right"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("N", "N_x"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.N_t < 0:
            raise ValueError(f"N_t must be >= 0, got {self.N_t}")
        if self.init not in INIT_PROFILES:
            raise ValueError(f"init must be one of {INIT_PROFILES}, got {self.init!r}")
        if not self.allow_unstable:
            violations = _stability_violations(
                self.scheme, self.epsilon, self.phi, self.tau, self.h
            )
            if violations:
                raise CflViolationError("; ".join(violations))

    @property
    def lam(self) -> float:
        """Courant ratio tau/h."""
        return self.tau / self.h

    @property
    def gamma(self) -> float:
        """Stiffness ratio tau/eps^2."""
        return self.tau / self.epsilon**2

    @property
    def x_right(self) -> float:
        return self.x_left + (self.N_x + 1) * self.h

    def interior_x(self) -> np.ndarray:
        """Interior grid points x_1..x_{N_x}."""
        return self.x_left + self.h * np.arange(1, self.N_x + 1)

    def n_velocities(self) -> int:
        """Velocity nodes actually used by the configured scheme."""
        return SCHEME_GRIDS[self.scheme].velocity_factor * self.N


def cfl_limit(scheme: str, epsilon: float, h: float) -> float:
    """Largest stable time step for the given scheme and mesh."""
    if scheme not in SCHEME_GRIDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SCHEME_GRIDS[scheme].cfl_limit(epsilon, h)


def validate_config(cfg: GridConfig) -> ValidationReport:
    """Check the scheme-appropriate step restriction and the phi bound.

    Returns a report whose violations quote the failed inequality with
    both sides evaluated.
    """
    violations = _stability_violations(cfg.scheme, cfg.epsilon, cfg.phi, cfg.tau, cfg.h)
    return ValidationReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# fields


@dataclass
class ParityField:
    """Even/odd parity pair on the interior grid, velocity-major.

    ``r`` and ``j`` have length N*N_x with block k holding the values at
    velocity node v_k over x_1..x_{N_x}.  The four ghost arrays carry
    the Dirichlet data at x_0 and x_{N_x+1}, one value per velocity node.
    """

    r: np.ndarray
    j: np.ndarray
    r_left: np.ndarray
    r_right: np.ndarray
    j_left: np.ndarray
    j_right: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.j = np.asarray(self.j, dtype=float)
        n_ghost = None
        for name in ("r_left", "r_right", "j_left", "j_right"):
            g = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, g)
            if n_ghost is None:
                n_ghost = g.size
            elif g.size != n_ghost:
                raise ValueError("ghost arrays must all have length N")
        if self.r.size != self.j.size:
            raise ValueError(
                f"r and j must have equal length, got {self.r.size} and {self.j.size}"
            )
        if n_ghost == 0 or self.r.size % n_ghost != 0:
            raise ValueError(
                f"field length {self.r.size} is not a multiple of the "
                f"ghost count {n_ghost}"
            )

    @property
    def n_velocities(self) -> int:
        return self.r_left.size

    @property
    def n_x(self) -> int:
        return self.r.size // self.n_velocities

    @classmethod
    def zeros(cls, N: int, N_x: int) -> "ParityField":
        z = np.zeros(N * N_x)
        g = np.zeros(N)
        return cls(z, z.copy(), g, g.copy(), g.copy(), g.copy())

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, N_x) views of r and j."""
        N = self.n_velocities
        return self.r.reshape(N, -1), self.j.reshape(N, -1)

    def with_values(self, r: np.ndarray, j: np.ndarray) -> "ParityField":
        """Same ghosts, new interior values."""
        return ParityField(
            np.asarray(r, dtype=float).ravel(),
            np.asarray(j, dtype=float).ravel(),
            self.r_left.copy(), self.r_right.copy(),
            self.j_left.copy(), self.j_right.copy(),
        )


@dataclass
class KineticField:
    """Kinetic density on the interior grid, space-major.

    ``f`` has length 2N*N_x with block m holding the 2N velocity values
    at x_m in increasing velocity order (v_{-N}..v_{-1}, v_1..v_N).
    ``f_left``/``f_right`` are the ghost blocks at x_0 and x_{N_x+1}.
    """

    f: np.ndarray
    f_left: np.ndarray
    f_right: np.ndarray

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.f_left = np.asarray(self.f_left, dtype=float)
        self.f_right = np.asarray(self.f_right, dtype=float)
        if self.f_left.size != self.f_right.size:
            raise ValueError("ghost blocks must have equal length 2N")
        if self.f_left.size == 0 or self.f.size % self.f_left.size != 0:
            raise ValueError(
                f"field length {self.f.size} is not a multiple of the "
                f"velocity count {self.f_left.size}"
            )

    @property
    def n_velocities(self) -> int:
        return self.f_left.size

    @property
    def n_x(self) -> int:
        return self.f.size // self.n_velocities

    @classmethod
    def zeros(cls, two_N: int, N_x: int) -> "KineticField":
        return cls(np.zeros(two_N * N_x), np.zeros(two_N), np.zeros(two_N))

    def blocks(self) -> np.ndarray:
        """(N_x, 2N) view of f; row m-1 holds the values at x_m."""
        return self.f.reshape(-1, self.n_velocities)

    def with_values(self, f: np.ndarray) -> "KineticField":
        return KineticField(
            np.asarray(f, dtype=float).ravel(),
            self.f_left.copy(), self.f_right.copy(),
        )


def check_field(field, cfg: GridConfig):
    """Reject a parity or kinetic field whose size does not fit ``cfg``."""
    if (field.n_velocities, field.n_x) != (cfg.n_velocities(), cfg.N_x):
        raise ValueError(
            f"field has {field.n_velocities} velocity nodes at {field.n_x} points, "
            f"config expects {cfg.n_velocities()} at N_x = {cfg.N_x}"
        )


@dataclass
class Trajectory:
    """The levels the caller asked to keep of a run, plus a cost counter.

    The counter charges N_vel^2 * N_x per step, the nominal work of one
    application of the O(N_vel)-sparse one-step matrices of order N_vel*N_x.
    """

    fields: list
    cost: int

    def __len__(self):
        return len(self.fields)


def march(
    initial,
    cfg: GridConfig,
    step: Callable,
    step_cost: int,
    finite: Callable,
    on_level: Callable | None = None,
) -> Trajectory:
    """Advance ``initial`` by ``cfg.N_t`` applications of ``step``.

    Each level n = 0..N_t goes to ``on_level(n, level)`` as soon as it
    exists; the returned trajectory then keeps only the final level, so
    the run holds one level at a time.  Without a callback it keeps
    every level.  Each step charges ``step_cost``.  A level that fails
    ``finite`` raises :class:`DivergenceError` with its step index,
    before it is handed on.
    """
    kept = []
    sink = on_level if on_level is not None else lambda n, level: kept.append(level)
    sink(0, initial)
    state = initial
    cost = 0
    # divergence is detected and reported; don't warn about the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, cfg.N_t + 1):
            state = step(state)
            cost += step_cost
            if not finite(state):
                raise DivergenceError(n)
            sink(n, state)
    return Trajectory(fields=kept if on_level is None else [state], cost=cost)


# ---------------------------------------------------------------------------
# pointwise operations


def parity_transform(f_plus, f_minus, epsilon: float, direction: str = "forward"):
    """Map between (f(v), f(-v)) and the parity pair (r, j).

    forward: r = (f+ + f-)/2,  j = (f+ - f-)/(2*eps)
    inverse: f+ = r + eps*j,   f- = r - eps*j

    Works elementwise on scalars or arrays; the two directions compose
    to the identity.
    """
    if not (np.isscalar(epsilon) and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if direction == "forward":
        r = 0.5 * (np.asarray(f_plus) + np.asarray(f_minus))
        j = (np.asarray(f_plus) - np.asarray(f_minus)) / (2.0 * epsilon)
        return r, j
    if direction == "inverse":
        r, j = np.asarray(f_plus), np.asarray(f_minus)
        return r + epsilon * j, r - epsilon * j
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def density(r, rule: QuadratureRule) -> np.ndarray:
    """Velocity integral rho_m = sum_k w_k r_{k,m} of an even-parity field.

    ``r`` may be a :class:`ParityField` or a raw velocity-major vector
    whose length is a multiple of the rule size.
    """
    if isinstance(r, ParityField):
        if r.n_velocities != rule.n_points:
            raise ValueError(
                f"field has {r.n_velocities} velocity nodes, rule has {rule.n_points}"
            )
        values = r.r
    else:
        values = np.asarray(r, dtype=float)
    if values.size % rule.n_points != 0:
        raise ValueError(
            f"vector length {values.size} is not a multiple of {rule.n_points}"
        )
    return rule.weights @ values.reshape(rule.n_points, -1)


# ---------------------------------------------------------------------------
# initial and boundary data


def _profile(cfg: GridConfig, x: np.ndarray) -> np.ndarray:
    x_c = 0.5 * (cfg.x_left + cfg.x_right)
    if cfg.init == "gaussian":
        return np.exp(-GAUSSIAN_SHARPNESS * (x - x_c) ** 2)
    if cfg.init == "constant":
        return np.ones_like(x)
    if cfg.init == "step":
        return np.where(x < x_c, 1.0, 0.0)
    raise ValueError(f"unknown initial profile {cfg.init!r}")


def initial_parity_field(cfg: GridConfig, rule: QuadratureRule) -> ParityField:
    """Isotropic initial data for the parity solver: r = profile(x), j = 0.

    Ghost values are the constant Dirichlet inflow per side (r = bc,
    j = 0), the isotropic-state image of constant kinetic inflow.
    """
    if rule.n_points != cfg.N:
        raise ValueError(f"rule has {rule.n_points} points, config expects {cfg.N}")
    profile = _profile(cfg, cfg.interior_x())
    r = np.tile(profile, (cfg.N, 1)).ravel()
    return ParityField(
        r=r,
        j=np.zeros_like(r),
        r_left=np.full(cfg.N, cfg.bc_left),
        r_right=np.full(cfg.N, cfg.bc_right),
        j_left=np.zeros(cfg.N),
        j_right=np.zeros(cfg.N),
    )


def initial_kinetic_field(cfg: GridConfig, rule: QuadratureRule) -> KineticField:
    """Isotropic initial data for the explicit solver: f = profile(x)."""
    if rule.n_points != 2 * cfg.N:
        raise ValueError(
            f"rule has {rule.n_points} points, config expects {2 * cfg.N}"
        )
    profile = _profile(cfg, cfg.interior_x())
    f = np.repeat(profile, 2 * cfg.N)
    return KineticField(
        f=f,
        f_left=np.full(2 * cfg.N, cfg.bc_left),
        f_right=np.full(2 * cfg.N, cfg.bc_right),
    )


# ---------------------------------------------------------------------------
# config files


def resolve_config(raw: dict, allow_unstable: bool = False) -> GridConfig:
    """Build a GridConfig from a flat key/value mapping.

    Accepted keys are exactly ``CONFIG_KEYS``.  ``tau`` may be the
    string ``"auto"``, meaning 0.9 times the largest stable step, or a
    numeric string.  ``h``
    and ``x_right`` are redundant given (x_left, Nx); either may be
    omitted, and if both are present they must agree.
    """
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"unknown config keys {unknown}; valid keys are {list(CONFIG_KEYS)}"
        )
    missing = [k for k in ("scheme", "epsilon", "N", "Nx", "Nt") if k not in raw]
    if missing:
        raise ValueError(f"missing required config keys {missing}")

    scheme = str(raw["scheme"]).lower()
    epsilon = float(raw["epsilon"])
    N_x = int(raw["Nx"])
    x_left = float(raw.get("x_left", 0.0))

    h = raw.get("h")
    x_right = raw.get("x_right")
    if h is None and x_right is None:
        raise ValueError("config must provide h or x_right")
    if h is None:
        h = (float(x_right) - x_left) / (N_x + 1)
    else:
        h = float(h)
        if x_right is not None:
            implied = x_left + (N_x + 1) * h
            if not math.isclose(float(x_right), implied, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(
                    f"inconsistent grid: x_left + (Nx+1)*h = {implied!r} "
                    f"but x_right = {x_right!r}"
                )

    tau = raw.get("tau", "auto")
    if tau == "auto":
        tau = 0.9 * cfl_limit(scheme, epsilon, h)
    else:
        try:
            tau = float(tau)
        except ValueError:
            raise ValueError(f"tau must be a number or 'auto', got {tau!r}") from None

    return GridConfig(
        epsilon=epsilon,
        tau=tau,
        h=h,
        N=int(raw["N"]),
        N_x=N_x,
        N_t=int(raw["Nt"]),
        scheme=scheme,
        phi=float(raw.get("phi", 1.0)),
        x_left=x_left,
        bc_left=float(raw.get("bc_left", 0.0)),
        bc_right=float(raw.get("bc_right", 0.0)),
        init=str(raw.get("init", "gaussian")),
        allow_unstable=allow_unstable,
    )


def read_config(path) -> dict:
    """Read a JSON config file (flat key/value document) as a mapping."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must contain a flat JSON object")
    return raw


@contextmanager
def atomic_open(path):
    """Text handle on a temporary file next to ``path``, renamed onto
    ``path`` when the block ends cleanly and removed when it raises, so
    ``path`` never holds a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_config(path, allow_unstable: bool = False) -> GridConfig:
    """Read and resolve a JSON config file."""
    return resolve_config(read_config(path), allow_unstable=allow_unstable)


def config_as_dict(cfg: GridConfig) -> dict:
    """Flat mapping of a fully resolved configuration (for manifests)."""
    return {
        "scheme": cfg.scheme,
        "epsilon": cfg.epsilon,
        "phi": cfg.phi,
        "tau": cfg.tau,
        "h": cfg.h,
        "N": cfg.N,
        "Nx": cfg.N_x,
        "Nt": cfg.N_t,
        "x_left": cfg.x_left,
        "x_right": cfg.x_right,
        "bc_left": cfg.bc_left,
        "bc_right": cfg.bc_right,
        "init": cfg.init,
    }
