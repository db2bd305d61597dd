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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import (
    AP,
    DivergenceError,
    GridConfig,
    ParityField,
    Trajectory,
    UnsupportedConfigurationError,
    check_field,
)
from .quadrature import QuadratureRule

__all__ = [
    "ApStepMatrices",
    "ap_evolve",
    "ap_step_matrices",
    "boundary_forcing",
    "matrix_step",
    "relaxation_step",
    "transport_step",
]


def _check_ap(cfg: GridConfig, rule: QuadratureRule | None = None):
    if cfg.scheme != AP:
        raise ValueError(f"config scheme must be {AP!r}, got {cfg.scheme!r}")
    if cfg.phi != 1.0:
        raise UnsupportedConfigurationError(
            f"relaxation solver implements phi = 1 only, got phi = {cfg.phi}"
        )
    if rule is not None and rule.n_points != cfg.N:
        raise ValueError(
            f"rule has {rule.n_points} points, config expects N = {cfg.N}"
        )


def _pad(values: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Attach ghost columns at m = 0 and m = N_x + 1."""
    return np.hstack([left[:, None], values, right[:, None]])


def relaxation_step(
    state: ParityField, cfg: GridConfig, rule: QuadratureRule
) -> ParityField:
    """Stiff half-step producing the starred intermediate state.

        r* = (r^n + gamma*rho^n) / (1 + gamma)
        j* = (j^n - gamma*(1-eps^2)*v_k*(r*_{m+1} - r*_{m-1})/(2h)) / (1 + gamma)

    with gamma = tau/eps^2 and central differences using the Dirichlet
    ghost values at m = 0 and m = N_x + 1.  The velocity average rho is
    preserved exactly, which is what makes the implicit update
    explicitly computable.
    """
    _check_ap(cfg, rule)
    check_field(state, cfg)
    R, J = state.blocks()
    gamma = cfg.gamma
    eps2 = cfg.epsilon**2

    rho = rule.weights @ R
    r_star = (R + gamma * rho[None, :]) / (1.0 + gamma)

    padded = _pad(r_star, state.r_left, state.r_right)
    central = padded[:, 2:] - padded[:, :-2]
    v = rule.nodes[:, None]
    j_star = (J - gamma * (1.0 - eps2) * v * central / (2.0 * cfg.h)) / (1.0 + gamma)
    return state.with_values(r_star, j_star)


def transport_step(
    star: ParityField, cfg: GridConfig, rule: QuadratureRule
) -> ParityField:
    """Centered transport update of the starred state.

        r^{n+1} = (1 - lam*v)r* + (lam*v/2)(r*_{m+1} + r*_{m-1})
                                - (lam*v/2)(j*_{m+1} - j*_{m-1})

    and the same formula with r and j swapped, where lam = tau/h.
    """
    _check_ap(cfg, rule)
    check_field(star, cfg)
    Rp = _pad(star.blocks()[0], star.r_left, star.r_right)
    Jp = _pad(star.blocks()[1], star.j_left, star.j_right)
    lam_v = cfg.lam * rule.nodes[:, None]

    sum_r, dif_r = Rp[:, 2:] + Rp[:, :-2], Rp[:, 2:] - Rp[:, :-2]
    sum_j, dif_j = Jp[:, 2:] + Jp[:, :-2], Jp[:, 2:] - Jp[:, :-2]
    r_new = (1.0 - lam_v) * Rp[:, 1:-1] + 0.5 * lam_v * sum_r - 0.5 * lam_v * dif_j
    j_new = (1.0 - lam_v) * Jp[:, 1:-1] + 0.5 * lam_v * sum_j - 0.5 * lam_v * dif_r
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


def ap_step_matrices(cfg: GridConfig, rule: QuadratureRule) -> ApStepMatrices:
    """Assemble the one-step matrices for the configured grid."""
    _check_ap(cfg, rule)
    N, Nx = cfg.N, cfg.N_x
    lam, gamma, tau = cfg.lam, cfg.gamma, cfg.tau
    eps2 = cfg.epsilon**2
    v, w = rule.nodes, rule.weights

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

    # (I + gamma*G)/(1 + gamma) assembled directly: both coefficients are
    # bounded by 1, so no large intermediates appear even for gamma ~ 1/eps^2
    relax = (1.0 / (1.0 + gamma)) * sp.eye(N * Nx) + (gamma / (1.0 + gamma)) * G
    relax = relax.tocsr()
    c = (1.0 - eps2) / (tau + eps2)

    B1 = ((B + c * (A @ A)) @ relax).tocsr()
    A1 = ((1.0 / (1.0 + gamma)) * A).tocsr()
    B2 = ((A + c * (B @ A)) @ relax).tocsr()
    A2 = ((1.0 / (1.0 + gamma)) * B).tocsr()
    return ApStepMatrices(G=G, A=A, B=B, B1=B1, A1=A1, B2=B2, A2=A2)


def boundary_forcing(
    cfg: GridConfig,
    rule: QuadratureRule,
    field: ParityField,
    mats: ApStepMatrices | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forcing vectors (f~, g~) carrying the ghost data of one step.

    Built from the Dirichlet ghost values on ``field`` (constant in
    time), so the same pair applies at every level of the all-at-once
    system.  Both vanish identically for zero ghost data.
    """
    _check_ap(cfg, rule)
    if mats is None:
        mats = ap_step_matrices(cfg, rule)
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
    initial: ParityField, cfg: GridConfig, rule: QuadratureRule
) -> Trajectory:
    """Run N_t relaxation+transport steps, recording every level.

    The cost counter charges N^2 * N_x per step.
    """
    _check_ap(cfg, rule)
    check_field(initial, cfg)
    fields = [initial]
    state = initial
    cost = 0
    # divergence is detected and reported; don't warn about the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.N_t + 1):
            state = transport_step(relaxation_step(state, cfg, rule), cfg, rule)
            cost += cfg.N**2 * cfg.N_x
            if not (np.all(np.isfinite(state.r)) and np.all(np.isfinite(state.j))):
                raise DivergenceError(step)
            fields.append(state)
    return Trajectory(fields=fields, cost=cost)
