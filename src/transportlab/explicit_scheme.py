"""Standard explicit upwind scheme on the kinetic density f.

One step of the scheme, for velocity node v_k and interior point x_m:

    f^{n+1}_{k,m} = c_k f^n_{k,m} + (lam/eps) v_k^+ f^n_{k,m-1}
                                  - (lam/eps) v_k^- f^n_{k,m+1}
                    + (tau/(2 eps^2)) sum_{k'} w_{k'} f^n_{k',m}

with lam = tau/h, v^+ = max(v, 0), v^- = min(v, 0) and

    c_k = 1 - (lam/eps)(v_k^+ - v_k^-) - tau/eps^2,

nonnegative exactly when tau <= h*eps^2/(eps + h).  The one-step matrix
B is block tridiagonal of order 2N*N_x and splits as B = B1 + alpha*B2
with alpha = tau/eps^2 and B2 idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .model import (
    EXPLICIT,
    GridConfig,
    KineticField,
    Trajectory,
    check_field,
    march,
)
from .quadrature import QuadratureRule

__all__ = [
    "ExplicitStepMatrix",
    "boundary_vector",
    "explicit_evolve",
    "explicit_matrix",
    "explicit_step",
]

# above this order the spectral-norm self-check at construction is skipped
_NORM_CHECK_CAP = 600


def _check_explicit(cfg: GridConfig, rule: QuadratureRule | None = None):
    if cfg.scheme != EXPLICIT:
        raise ValueError(f"config scheme must be {EXPLICIT!r}, got {cfg.scheme!r}")
    if rule is not None and rule.n_points != 2 * cfg.N:
        raise ValueError(
            f"rule has {rule.n_points} points, config expects 2N = {2 * cfg.N}"
        )


def explicit_step(
    field: KineticField, cfg: GridConfig, rule: QuadratureRule
) -> KineticField:
    """Apply one upwind step with Dirichlet ghost blocks at both ends."""
    _check_explicit(cfg, rule)
    check_field(field, cfg)
    eps, tau, lam = cfg.epsilon, cfg.tau, cfg.lam
    v = rule.nodes
    w = rule.weights
    v_plus = np.maximum(v, 0.0)
    v_minus = np.minimum(v, 0.0)
    c = 1.0 - (lam / eps) * (v_plus - v_minus) - tau / eps**2

    F = field.blocks()  # (N_x, 2N)
    Fp = np.vstack([field.f_left, F, field.f_right])
    coll = (tau / (2.0 * eps**2)) * (F @ w)
    F_new = (
        c[None, :] * F
        + (lam / eps) * v_plus[None, :] * Fp[:-2]
        - (lam / eps) * v_minus[None, :] * Fp[2:]
        + coll[:, None]
    )
    return field.with_values(F_new)


@dataclass(frozen=True)
class ExplicitStepMatrix:
    """One-step matrix B of the upwind scheme and its splitting.

    B1 carries the transport part (diag(c) on the diagonal blocks, the upwind
    couplings off-diagonal); B2 = blockdiag(W, ..., W)/2 carries the
    collision average and satisfies B2^2 = B2.  B = B1 + alpha*B2 holds
    entrywise with alpha = tau/eps^2.
    """

    W: np.ndarray
    B: sp.csr_matrix
    B1: sp.csr_matrix
    B2: sp.csr_matrix
    alpha: float
    c: np.ndarray


def explicit_matrix(cfg: GridConfig, rule: QuadratureRule) -> ExplicitStepMatrix:
    """Assemble B, B1, B2 for the configured grid.

    When the step restriction holds and the order is small enough for a
    dense check, sigma_max(B1) <= 1 - tau/eps^2 is verified numerically
    at construction.
    """
    _check_explicit(cfg, rule)
    eps, tau, lam = cfg.epsilon, cfg.tau, cfg.lam
    Nx = cfg.N_x
    two_N = 2 * cfg.N
    v = rule.nodes
    w = rule.weights
    v_plus = np.maximum(v, 0.0)
    v_minus = np.minimum(v, 0.0)
    c = 1.0 - (lam / eps) * (v_plus - v_minus) - tau / eps**2
    alpha = tau / eps**2

    C = np.diag(c)
    W = np.tile(w, (two_N, 1))
    up = sp.diags([np.ones(Nx - 1)], [-1], shape=(Nx, Nx))    # couples to m-1
    down = sp.diags([np.ones(Nx - 1)], [1], shape=(Nx, Nx))   # couples to m+1

    B1 = (
        sp.kron(sp.eye(Nx), sp.csr_matrix(C))
        + (lam / eps) * sp.kron(up, sp.diags(v_plus))
        - (lam / eps) * sp.kron(down, sp.diags(v_minus))
    ).tocsr()
    B2 = sp.kron(sp.eye(Nx), sp.csr_matrix(0.5 * W)).tocsr()
    B = (B1 + alpha * B2).tocsr()

    if np.all(c >= 0.0) and B1.shape[0] <= _NORM_CHECK_CAP:
        top = np.linalg.svd(B1.toarray(), compute_uv=False)[0]
        if top > 1.0 - alpha + 1e-10:
            raise RuntimeError(
                f"transport block norm {top!r} exceeds 1 - tau/eps^2 = "
                f"{1.0 - alpha!r}; assembly is inconsistent"
            )

    return ExplicitStepMatrix(W=W, B=B, B1=B1, B2=B2, alpha=alpha, c=c)


def boundary_vector(
    cfg: GridConfig, rule: QuadratureRule, field: KineticField
) -> np.ndarray:
    """Inflow contribution b of one step, from the Dirichlet ghost blocks."""
    _check_explicit(cfg, rule)
    check_field(field, cfg)
    lam, eps = cfg.lam, cfg.epsilon
    v = rule.nodes
    b = np.zeros((cfg.N_x, 2 * cfg.N))
    b[0] = (lam / eps) * np.maximum(v, 0.0) * field.f_left
    b[-1] += -(lam / eps) * np.minimum(v, 0.0) * field.f_right
    return b.ravel()


def explicit_evolve(
    initial: KineticField,
    cfg: GridConfig,
    rule: QuadratureRule,
    on_level: Callable | None = None,
) -> Trajectory:
    """Run N_t upwind steps through :func:`model.march`.

    Each level n = 0..N_t goes to ``on_level(n, level)`` as it is made.
    Without a callback the trajectory records every level; with one it
    holds only the final level.  The cost counter charges (2N)^2 * N_x
    per step.
    """
    _check_explicit(cfg, rule)
    check_field(initial, cfg)
    # looked up at call time, so a wrapper on explicit_step sees every step
    return march(
        initial, cfg,
        lambda state: explicit_step(state, cfg, rule),
        (2 * cfg.N) ** 2 * cfg.N_x,
        lambda state: np.all(np.isfinite(state.f)),
        on_level,
    )
