"""Diffusive relaxation scheme on the parity pair (r, j).

Each time step splits into a stiff relaxation update, solved implicitly
but in closed form because the velocity average rho is preserved, and an
explicit centered transport update.  Both sub-steps combine into four
one-step matrices (B1, A1, B2, A2) acting on the stacked velocity-major
vectors:

    r^{n+1} = B1 r^n - A1 j^n + f~
    j^{n+1} = A2 j^n - B2 r^n + g~

which is the form the all-at-once space-time system is built from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .model import (
    AP,
    GridConfig,
    ParityField,
    Trajectory,
    Workspace,
    check_field,
    check_solver,
    march,
)
from .quadrature import QuadratureRule

__all__ = [
    "ApStepMatrices",
    "ApWorkspace",
    "ap_evolve",
    "ap_step_matrices",
    "boundary_forcing",
    "matrix_step",
    "relaxation_step",
    "transport_step",
]


class ApWorkspace(Workspace):
    """Buffers and coefficients of one relaxation run, built once.

    Holds the starred state, one scratch array, the density row and the
    per-run coefficients gamma*(1-eps^2)*v, 1-lam*v and lam*v/2, each
    repeated along x into a full (N, N_x) array, so that every product
    is one contiguous pass with no broadcast operand.  No padded copy of
    a level is kept: the steps read the ghost values where they need
    them.  The steps compute into it through ufunc ``out=`` with the
    same operations, operands and order as the plain expressions in
    their docstrings, so a step gives the same bits as those
    expressions.  The starred state a step returns lives here and is
    overwritten by the next relaxation step; each new level is a fresh
    array.
    """

    def __init__(self, cfg: GridConfig, rule: QuadratureRule):
        super().__init__(AP, cfg, rule)
        N, Nx = cfg.N, cfg.N_x
        v = rule.nodes[:, None]
        lam_v = cfg.lam * v
        self.drift = np.repeat(cfg.gamma * (1.0 - cfg.epsilon**2) * v, Nx, axis=1)
        self.one_minus_lam_v = np.repeat(1.0 - lam_v, Nx, axis=1)
        self.half_lam_v = np.repeat(0.5 * lam_v, Nx, axis=1)
        self.rho = np.empty(Nx)
        self.r_star = np.empty((N, Nx))
        self.j_star = np.empty((N, Nx))
        self.scratch = np.empty((N, Nx))


def _neighbours_into(out: np.ndarray, op, values: np.ndarray, left: np.ndarray,
                     right: np.ndarray) -> np.ndarray:
    """``op(values_{m+1}, values_{m-1})`` on each row of the (N, N_x)
    ``values``, with the ghost columns ``left`` at m = 0 and ``right`` at
    m = N_x + 1.

    One contiguous pass over the flat rows gets every interior column;
    its two edge columns pair values across rows, so they are then
    written again from the ghosts.  ``out`` is a contiguous workspace
    array, so its flat view writes through.
    """
    flat, flat_out = values.reshape(-1), out.reshape(-1)
    op(flat[2:], flat[:-2], out=flat_out[1:-1])
    if values.shape[1] == 1:
        op(right, left, out=out[:, 0])
    else:
        op(values[:, 1], left, out=out[:, 0])
        op(right, values[:, -2], out=out[:, -1])
    return out


def relaxation_step(state: ParityField, ws: ApWorkspace) -> ParityField:
    """Stiff half-step producing the starred intermediate state.

        r* = (r^n + gamma*rho^n) / (1 + gamma)
        j* = (j^n - gamma*(1-eps^2)*v_k*(r*_{m+1} - r*_{m-1})/(2h)) / (1 + gamma)

    with gamma = tau/eps^2 and central differences using the Dirichlet
    ghost values at m = 0 and m = N_x + 1.  The velocity average rho is
    preserved exactly, which is what makes the implicit update
    explicitly computable.  The grid and rule come from the run's
    workspace ``ws``, whose buffers hold the starred state until the next
    relaxation step and whose scratch array holds the central difference.
    """
    cfg, rule = ws.cfg, ws.rule
    check_field(state, cfg)
    R, J = state.blocks()
    gamma = cfg.gamma

    rho = np.matmul(rule.weights, R, out=ws.rho)
    np.multiply(gamma, rho, out=rho)
    r_star = np.add(R, rho, out=ws.r_star)
    np.divide(r_star, 1.0 + gamma, out=r_star)

    term = _neighbours_into(ws.scratch, np.subtract, r_star, state.r_left, state.r_right)
    np.multiply(ws.drift, term, out=term)
    np.divide(term, 2.0 * cfg.h, out=term)
    j_star = np.subtract(J, term, out=ws.j_star)
    np.divide(j_star, 1.0 + gamma, out=j_star)
    return state.with_values(r_star, j_star)


def _transport_into(out: np.ndarray, own: np.ndarray, own_ghosts, other: np.ndarray,
                    other_ghosts, ws: ApWorkspace) -> np.ndarray:
    """(1-lam*v)*own + (lam*v/2)*(own_{m+1} + own_{m-1})
    - (lam*v/2)*(other_{m+1} - other_{m-1}), each ghost pair (left, right)."""
    np.multiply(ws.one_minus_lam_v, own, out=out)
    term = _neighbours_into(ws.scratch, np.add, own, *own_ghosts)
    np.multiply(ws.half_lam_v, term, out=term)
    np.add(out, term, out=out)
    _neighbours_into(term, np.subtract, other, *other_ghosts)
    np.multiply(ws.half_lam_v, term, out=term)
    return np.subtract(out, term, out=out)


def transport_step(star: ParityField, ws: ApWorkspace) -> ParityField:
    """Centered transport update of the starred state.

        r^{n+1} = (1 - lam*v)r* + (lam*v/2)(r*_{m+1} + r*_{m-1})
                                - (lam*v/2)(j*_{m+1} - j*_{m-1})

    and the same formula with r and j swapped, where lam = tau/h.  Each
    neighbour sum or difference is one pass over the flat rows, with the
    edge columns taken from the ghost values.  The new level is a fresh
    array; the run's workspace ``ws`` supplies the grid, the scratch
    array and the coefficients.
    """
    check_field(star, ws.cfg)
    R, J = star.blocks()
    r_ghosts, j_ghosts = (star.r_left, star.r_right), (star.j_left, star.j_right)
    r_new = _transport_into(np.empty_like(R), R, r_ghosts, J, j_ghosts, ws)
    j_new = _transport_into(np.empty_like(J), J, j_ghosts, R, r_ghosts, ws)
    return star.with_values(r_new, j_new)


# ---------------------------------------------------------------------------
# one-step matrices


@dataclass(frozen=True)
class ApStepMatrices:
    """Sparse one-step operators of the combined relaxation+transport map.

    With A = (lam/2)*Mv and B = I + (lam/2)*Lv, where Mv and Lv are
    diag(v) times the central first and second differences in x, G the
    weight average, gamma = tau/eps^2 and c = (1 - eps^2)/(tau + eps^2):

        B1 = (B + c*A^2)(I + gamma*G)/(1 + gamma)    A1 = A/(1 + gamma)
        B2 = (A + c*B*A)(I + gamma*G)/(1 + gamma)    A2 = B/(1 + gamma)

    The eps -> 0 limit of B2 is (A + B*A/tau)G.  All matrices have
    order N*N_x and act on velocity-major vectors.
    """

    G: sp.csr_matrix
    A: sp.csr_matrix
    B: sp.csr_matrix
    B1: sp.csr_matrix
    A1: sp.csr_matrix
    B2: sp.csr_matrix
    A2: sp.csr_matrix


@functools.lru_cache(maxsize=8)
def _stencils(Nx: int, lam: float, rule: QuadratureRule):
    """The eps-free operators of one grid: G, A, B, A@A and B@A, for
    the velocity nodes and weights of ``rule``.  Built once per grid;
    every caller only reads them."""
    N = rule.n_points
    v, w = np.asarray(rule.nodes, float), np.asarray(rule.weights, float)
    ones = np.ones(Nx - 1)
    Mh = sp.diags([ones, -ones], [1, -1], shape=(Nx, Nx), format="csr")
    Lh = sp.diags([ones, -2.0 * np.ones(Nx), ones], [1, 0, -1],
                  shape=(Nx, Nx), format="csr")
    Dv = sp.diags(v)
    Mv = sp.kron(Dv, Mh, format="csr")
    Lv = sp.kron(Dv, Lh, format="csr")
    W = np.tile(w, (N, 1))
    G = sp.kron(sp.csr_matrix(W), sp.eye(Nx), format="csr")

    A = (0.5 * lam) * Mv
    B = (sp.eye(N * Nx) + (0.5 * lam) * Lv).tocsr()
    return G, A, B, A @ A, B @ A


def ap_step_matrices(cfg: GridConfig, rule: QuadratureRule) -> ApStepMatrices:
    """Assemble the one-step matrices for the configured grid.

    G, A, B and the products A@A and B@A do not depend on eps: they are
    built once per grid (N, N_x, lam and the rule's nodes and weights)
    and kept, so a sweep over eps builds them once.  The eps-dependent
    matrices are formed afresh on each call, and G, A and B are returned
    as copies, so a caller may change any matrix it gets.
    """
    check_solver(cfg, AP, rule)
    N, Nx = cfg.N, cfg.N_x
    lam, gamma, tau = cfg.lam, cfg.gamma, cfg.tau
    eps2 = cfg.epsilon**2
    G, A, B, AA, BA = _stencils(Nx, lam, rule)

    # (I + gamma*G)/(1 + gamma) assembled directly: both coefficients are
    # bounded by 1, so no large intermediates appear even for gamma ~ 1/eps^2
    relax = (1.0 / (1.0 + gamma)) * sp.eye(N * Nx) + (gamma / (1.0 + gamma)) * G
    relax = relax.tocsr()
    c = (1.0 - eps2) / (tau + eps2)

    B1 = ((B + c * AA) @ relax).tocsr()
    A1 = ((1.0 / (1.0 + gamma)) * A).tocsr()
    B2 = ((A + c * BA) @ relax).tocsr()
    A2 = ((1.0 / (1.0 + gamma)) * B).tocsr()
    return ApStepMatrices(G=G.copy(), A=A.copy(), B=B.copy(),
                          B1=B1, A1=A1, B2=B2, A2=A2)


def boundary_forcing(
    cfg: GridConfig,
    rule: QuadratureRule,
    field: ParityField,
    mats: ApStepMatrices,
) -> tuple[np.ndarray, np.ndarray]:
    """Forcing vectors (f~, g~) carrying the ghost data of one step.

    Built from the Dirichlet ghost values on ``field`` (constant in
    time), so the same pair applies at every level of the all-at-once
    system.  Both vanish identically for zero ghost data.  ``mats`` are
    the one-step matrices ``ap_step_matrices(cfg, rule)``.
    """
    check_solver(cfg, AP, rule)
    N, Nx = cfg.N, cfg.N_x
    lam, tau = cfg.lam, cfg.tau
    eps2 = cfg.epsilon**2
    v = rule.nodes

    b_tilde = np.zeros((N, Nx))
    b_tilde[:, 0] = -v * field.r_left
    b_tilde[:, -1] = v * field.r_right
    b_tilde = b_tilde.ravel()

    f_v = np.zeros((N, Nx))
    f_v[:, 0] = v * (field.r_left + field.j_left)
    f_v[:, -1] = v * (field.r_right - field.j_right)
    f_v = f_v.ravel()

    g_v = np.zeros((N, Nx))
    g_v[:, 0] = v * (field.j_left + field.r_left)
    g_v[:, -1] = v * (field.j_right - field.r_right)
    g_v = g_v.ravel()

    scale = lam * (1.0 - eps2) / (2.0 * (tau + eps2))
    f_tilde = scale * (mats.A @ b_tilde) + 0.5 * lam * f_v
    g_tilde = -scale * (mats.B @ b_tilde) + 0.5 * lam * g_v
    return f_tilde, g_tilde


def matrix_step(
    state: ParityField,
    mats: ApStepMatrices,
    forcing: tuple[np.ndarray, np.ndarray],
) -> ParityField:
    """One full step in one-step-matrix form (oracle for the split form)."""
    f_tilde, g_tilde = forcing
    r_new = mats.B1 @ state.r - mats.A1 @ state.j + f_tilde
    j_new = mats.A2 @ state.j - mats.B2 @ state.r + g_tilde
    return state.with_values(r_new, j_new)


# ---------------------------------------------------------------------------
# evolution


def ap_evolve(
    initial: ParityField,
    cfg: GridConfig,
    rule: QuadratureRule,
    on_level: Callable | None = None,
) -> Trajectory:
    """Run N_t relaxation+transport steps through :func:`model.march`.

    The run owns one :class:`ApWorkspace`, built here and passed to
    both steps, so a step allocates only its new level.  Each level n = 0..N_t
    goes to ``on_level(n, level)`` as it is made; it is a fresh array
    that the run never writes again.  Without a callback the trajectory
    records every level; with one it holds only the final level.
    """
    ws = ApWorkspace(cfg, rule)
    check_field(initial, cfg)
    # looked up at call time, so a wrapper on either step function sees every step
    return march(
        initial, cfg,
        lambda state: transport_step(relaxation_step(state, ws), ws),
        lambda state: (state.r, state.j),
        on_level,
    )
