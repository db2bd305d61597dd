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
    Workspace,
    check_field,
    check_solver,
    march,
)
from .quadrature import QuadratureRule

__all__ = [
    "ExplicitStepMatrix",
    "ExplicitWorkspace",
    "boundary_vector",
    "explicit_evolve",
    "explicit_matrix",
    "explicit_step",
]


def _upwind_rows(cfg: GridConfig, rule: QuadratureRule):
    """v^+, v^- and the diagonal c of the upwind step, one entry per node."""
    eps, tau, lam = cfg.epsilon, cfg.tau, cfg.lam
    v_plus = np.maximum(rule.nodes, 0.0)
    v_minus = np.minimum(rule.nodes, 0.0)
    c = 1.0 - (lam / eps) * (v_plus - v_minus) - tau / eps**2
    return v_plus, v_minus, c


class ExplicitWorkspace(Workspace):
    """Buffers and coefficients of one upwind run, built once.

    Holds one scratch array, the collision column and the per-run
    coefficients c, (lam/eps)v^+ and (lam/eps)v^-, each of shape
    (N_x, 2N).  c is a full array, so the largest product is one
    contiguous pass; the two upwind rows are broadcast views of one row
    each, since a full copy of every row would raise a run's peak by two
    levels.  The step computes into it through ufunc ``out=`` with the
    same operations, operands and order as the formula in the module
    docstring, so it gives the same bits as that formula.  Each new
    level is a fresh array.
    """

    def __init__(self, cfg: GridConfig, rule: QuadratureRule):
        super().__init__(EXPLICIT, cfg, rule)
        eps, lam = cfg.epsilon, cfg.lam
        v_plus, v_minus, c = _upwind_rows(cfg, rule)
        shape = (cfg.N_x, 2 * cfg.N)
        self.c = np.tile(c, (cfg.N_x, 1))
        self.lam_v_plus = np.broadcast_to((lam / eps) * v_plus, shape)
        self.lam_v_minus = np.broadcast_to((lam / eps) * v_minus, shape)
        self.coll_scale = cfg.tau / (2.0 * eps**2)
        self.coll = np.empty(cfg.N_x)
        self.scratch = np.empty((cfg.N_x, 2 * cfg.N))


def explicit_step(field: KineticField, ws: ExplicitWorkspace) -> KineticField:
    """Apply one upwind step with Dirichlet ghost blocks at both ends.

    The upstream and downstream neighbours of a row are the rows just
    before and after it in the level itself, so each upwind product is
    one pass over N_x - 1 rows plus one over the ghost block at the edge
    row; no padded copy is made.  The new level is a fresh array; the
    run's workspace ``ws`` supplies the grid, the rule, the scratch
    arrays and the coefficients.
    """
    check_field(field, ws.cfg)

    F = field.blocks()  # (N_x, 2N)
    coll = np.matmul(F, ws.rule.weights, out=ws.coll)
    np.multiply(ws.coll_scale, coll, out=coll)

    F_new = np.multiply(ws.c, F, out=np.empty_like(F))
    term = ws.scratch
    np.multiply(ws.lam_v_plus[0], field.f_left, out=term[0])
    np.multiply(ws.lam_v_plus[1:], F[:-1], out=term[1:])
    np.add(F_new, term, out=F_new)
    np.multiply(ws.lam_v_minus[:-1], F[1:], out=term[:-1])
    np.multiply(ws.lam_v_minus[-1], field.f_right, out=term[-1])
    np.subtract(F_new, term, out=F_new)
    np.add(F_new, coll[:, None], out=F_new)
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

    When the step restriction holds (c >= 0), ||B1||_2 <= 1 - tau/eps^2
    is verified at construction, at every order, from B1's own entries:
    every absolute row sum and column sum of B1 is at most
    1 - tau/eps^2, which bounds ||B1||_2 <= sqrt(||B1||_1 ||B1||_inf).
    """
    check_solver(cfg, EXPLICIT, rule)
    eps, tau, lam = cfg.epsilon, cfg.tau, cfg.lam
    Nx = cfg.N_x
    two_N = 2 * cfg.N
    w = rule.weights
    v_plus, v_minus, c = _upwind_rows(cfg, rule)
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

    if np.all(c >= 0.0):
        magnitudes = abs(B1)
        top = float(max(magnitudes.sum(axis=0).max(), magnitudes.sum(axis=1).max()))
        if top > 1.0 - alpha + 1e-10:
            raise RuntimeError(
                f"transport block norm bound {top!r} exceeds 1 - tau/eps^2 = "
                f"{1.0 - alpha!r}; assembly is inconsistent"
            )

    return ExplicitStepMatrix(W=W, B=B, B1=B1, B2=B2, alpha=alpha, c=c)


def boundary_vector(
    cfg: GridConfig, rule: QuadratureRule, field: KineticField
) -> np.ndarray:
    """Inflow contribution b of one step, from the Dirichlet ghost blocks."""
    check_solver(cfg, EXPLICIT, rule)
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

    The run owns one :class:`ExplicitWorkspace`, built here and passed
    to every step: the coefficient rows are computed once per run and a
    step allocates only its new level.
    Each level n = 0..N_t goes to ``on_level(n, level)`` as it is made;
    it is a fresh array that the run never writes again.  Without a
    callback the trajectory records every level; with one it holds only
    the final level.
    """
    ws = ExplicitWorkspace(cfg, rule)
    check_field(initial, cfg)
    # looked up at call time, so a wrapper on explicit_step sees every step
    return march(
        initial, cfg,
        lambda state: explicit_step(state, ws),
        lambda state: (state.f,),
        on_level,
    )
