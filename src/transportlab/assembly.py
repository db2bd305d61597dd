"""All-at-once space-time systems and per-frequency symbol matrices.

The relaxation scheme's N_t steps stack into L S = F with

    L = [[L11, L12], [L21, L22]],   S = [r^1..r^{N_t}; j^1..j^{N_t}],

where L11/L22 are block lower bidiagonal (identity diagonal, -B1 resp.
-A2 subdiagonal) and L12/L21 carry A1 resp. B2 strictly below the
diagonal.  The rescaled variant substitutes r~ = r/tau, i.e. blocks
[[L11, L12/tau], [tau*L21, L22]], which keeps the system nondegenerate
as eps -> 0.  The explicit scheme stacks into a single block
bidiagonal system with -B below the identity diagonal.

Reordered time-major, either L is unit block lower bidiagonal with the
one-step block -M below the diagonal, so L^{-1} and L^{-H} are a forward
and a backward time march (``BlockSystem.marching_inverse``) and need
no factorization.

A spatial Fourier transform reduces the rescaled relaxation system to
an order-2N*N_t matrix per frequency xi, built from four scalars per
velocity node; its eps = 0 limit and the difference E between the two
drive the perturbation analysis of the conditioning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmwrite

from . import ap_scheme, explicit_scheme
from .model import AP, EXPLICIT, GridConfig, KineticField, ParityField, config_as_dict
from .quadrature import QuadratureRule

__all__ = [
    "BlockSystem",
    "FourierMatrix",
    "FourierSymbols",
    "assemble_ap_system",
    "assemble_explicit_system",
    "assemble_fourier_matrix",
    "export_matrix_market",
    "fourier_symbols",
    "sparsity",
    "split_ap_solution",
    "split_explicit_solution",
]

ORDER_CAP_DEFAULT = 200_000
DENSE_CAP = 4096


def sparsity(A) -> int:
    """Max nonzero count over all rows and all columns of a sparse matrix.

    Stored zeros do not count; the matrix is left as it is.
    """
    A = sp.csr_matrix(A)  # shares a CSR argument's arrays: read them only
    stored = A.data != 0
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    per_row = np.bincount(rows[stored], minlength=A.shape[0])
    per_col = np.bincount(A.indices[stored], minlength=A.shape[1])
    row_max = int(per_row.max()) if per_row.size else 0
    col_max = int(per_col.max()) if per_col.size else 0
    return max(row_max, col_max)


def _check_order(order: int, order_cap: int):
    if order > order_cap:
        raise ValueError(
            f"system order {order} exceeds the cap {order_cap}; raise order_cap "
            "to assemble anyway"
        )


@dataclass
class BlockSystem:
    """Assembled space-time system L S = F with its provenance.

    S stacks ``groups`` unknown groups one after the other ([r; j] for
    the relaxation scheme, f for the upwind one), each holding its N_t
    time levels in order.
    """

    L: sp.csr_matrix
    F: np.ndarray
    scheme: str
    rescaled: bool
    cfg: GridConfig
    groups: int

    @property
    def order(self) -> int:
        return self.L.shape[0]

    def marching_inverse(self) -> spla.LinearOperator:
        """L^{-1} (matvec) and L^{-H} (rmatvec) by time marching.

        Time-major, L has identity diagonal blocks and -M below them,
        with M the one-step block: B for the upwind scheme and
        [[B1, -A1], [-B2, A2]] for the relaxation scheme (off-diagonal
        blocks scaled by 1/tau and tau when rescaled).  So L^{-1}x is
        the forward march X[t] += M X[t-1] and L^{-H}x the backward
        march X[t] += M^H X[t+1].  M is sliced from L once; the operator
        keeps only M and forms no factorization.
        """
        k, N_t = self.groups, self.cfg.N_t
        m = self.order // (k * N_t)

        def level(t):
            """Positions of time level t's unknowns in S."""
            return (np.arange(k)[:, None] * (N_t * m) + t * m + np.arange(m)).ravel()

        if N_t > 1:
            step = -self.L[level(1)][:, level(0)]
        else:
            step = sp.csr_matrix((k * m, k * m), dtype=self.L.dtype)
        step_h = step.conj(copy=False).T

        def march(x, block, levels):
            X = np.moveaxis(np.reshape(x, (k, N_t, m)), 1, 0).reshape(N_t, k * m)
            X = X.astype(np.result_type(block.dtype, X.dtype), copy=True)
            for prev, t in levels:
                X[t] += block @ X[prev]
            return np.moveaxis(X.reshape(N_t, k, m), 0, 1).reshape(-1)

        forward = [(t - 1, t) for t in range(1, N_t)]
        backward = [(t + 1, t) for t in range(N_t - 2, -1, -1)]
        return spla.LinearOperator(
            self.L.shape,
            matvec=lambda x: march(x, step, forward),
            rmatvec=lambda x: march(x, step_h, backward),
            dtype=np.result_type(step.dtype, np.float64),
        )


def _time_shift(N_t: int) -> sp.csr_matrix:
    """Subdiagonal shift P of order N_t (unit spectral norm for N_t >= 2)."""
    return sp.diags([np.ones(N_t - 1)], [-1], shape=(N_t, N_t), format="csr")


def assemble_ap_system(
    cfg: GridConfig,
    rule: QuadratureRule,
    initial: ParityField,
    rescaled: bool = False,
    order_cap: int = ORDER_CAP_DEFAULT,
) -> BlockSystem:
    """Stack the relaxation scheme's one-step relations into L S = F.

    F's first block row carries the initial data (f~ + B1 r^0 - A1 j^0
    and g~ - B2 r^0 + A2 j^0); later rows repeat the boundary forcing.
    With ``rescaled`` the solution layout is [S1/tau; S2].
    """
    if cfg.scheme != AP:
        raise ValueError(f"config scheme must be {AP!r}, got {cfg.scheme!r}")
    n = cfg.N * cfg.N_x
    _check_order(2 * n * cfg.N_t, order_cap)

    mats = ap_scheme.ap_step_matrices(cfg, rule)
    f_tilde, g_tilde = ap_scheme.boundary_forcing(cfg, rule, initial, mats)

    P = _time_shift(cfg.N_t)
    I_t = sp.eye(cfg.N_t)
    I_n = sp.eye(n)
    L11 = sp.kron(I_t, I_n) - sp.kron(P, mats.B1)
    L12 = sp.kron(P, mats.A1)
    L21 = sp.kron(P, mats.B2)
    L22 = sp.kron(I_t, I_n) - sp.kron(P, mats.A2)

    F1 = np.tile(f_tilde, cfg.N_t)
    F2 = np.tile(g_tilde, cfg.N_t)
    F1[:n] += mats.B1 @ initial.r - mats.A1 @ initial.j
    F2[:n] += -(mats.B2 @ initial.r) + mats.A2 @ initial.j

    if rescaled:
        L = sp.bmat([[L11, L12 / cfg.tau], [cfg.tau * L21, L22]], format="csr")
        F = np.concatenate([F1 / cfg.tau, F2])
    else:
        L = sp.bmat([[L11, L12], [L21, L22]], format="csr")
        F = np.concatenate([F1, F2])
    L.sum_duplicates()
    L.eliminate_zeros()
    return BlockSystem(L=L, F=F, scheme=AP, rescaled=rescaled, cfg=cfg, groups=2)


def split_ap_solution(system: BlockSystem, S: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a solution vector into per-level (r^n, j^n) pairs, n = 1..N_t.

    For a rescaled system the first half of S is r~/tau and is mapped
    back to physical r.
    """
    cfg = system.cfg
    n = cfg.N * cfg.N_x
    half = n * cfg.N_t
    S1, S2 = S[:half].copy(), S[half:].copy()
    if system.rescaled:
        S1 *= cfg.tau
    return [
        (S1[i * n:(i + 1) * n], S2[i * n:(i + 1) * n]) for i in range(cfg.N_t)
    ]


def assemble_explicit_system(
    cfg: GridConfig,
    rule: QuadratureRule,
    initial: KineticField,
    order_cap: int = ORDER_CAP_DEFAULT,
) -> BlockSystem:
    """Stack the upwind scheme into the block bidiagonal system L U = F."""
    if cfg.scheme != EXPLICIT:
        raise ValueError(f"config scheme must be {EXPLICIT!r}, got {cfg.scheme!r}")
    n = 2 * cfg.N * cfg.N_x
    _check_order(n * cfg.N_t, order_cap)

    mats = explicit_scheme.explicit_matrix(cfg, rule)
    b = explicit_scheme.boundary_vector(cfg, rule, initial)

    P = _time_shift(cfg.N_t)
    L = (sp.kron(sp.eye(cfg.N_t), sp.eye(n)) - sp.kron(P, mats.B)).tocsr()
    F = np.tile(b, cfg.N_t)
    F[:n] += mats.B @ initial.f
    L.sum_duplicates()
    L.eliminate_zeros()
    return BlockSystem(L=L, F=F, scheme=EXPLICIT, rescaled=False, cfg=cfg,
                       groups=1)


def split_explicit_solution(system: BlockSystem, U: np.ndarray) -> list[np.ndarray]:
    """Split a solution vector into per-level f^n, n = 1..N_t."""
    cfg = system.cfg
    n = 2 * cfg.N * cfg.N_x
    return [U[i * n:(i + 1) * n] for i in range(cfg.N_t)]


# ---------------------------------------------------------------------------
# Fourier symbols and per-frequency matrices


@dataclass(frozen=True)
class FourierSymbols:
    """Per-frequency scalars of the one-step map at one velocity node.

    c1, c2 enter the r-equation and d1, d2 the j-equation of the
    frequency-domain recursion

        r^{n+1} + c1 r^n + c2 j^n + gamma*c1*<w, r^n> = 0
        j^{n+1} + d1 j^n + d2 r^n + gamma*d2*<w, r^n> = 0.

    gamma_c1 and gamma_d2 are gamma*c1 and gamma*d2, and gamma0_c1 and
    gamma0_d2 their finite eps -> 0 limits (the symbols themselves
    vanish in that limit).
    """

    c1: complex
    c2: complex
    d1: complex
    d2: complex
    gamma_c1: complex
    gamma_d2: complex
    gamma0_c1: complex
    gamma0_d2: complex


def fourier_symbols(cfg: GridConfig, v_k: float, xi: float) -> FourierSymbols:
    """Evaluate the four symbols, their gamma products and those
    products' eps -> 0 limits.

    All eps-dependent prefactors are formed as ratios of eps^2 or tau
    and eps^2 + tau, so the evaluation stays finite down to eps ~ 1e-8.
    """
    if cfg.epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tau, lam, h = cfg.tau, cfg.lam, cfg.h
    eps2 = cfg.epsilon**2

    g = (1.0 - lam * v_k) + lam * v_k * np.cos(xi * h)
    s = 1j * lam * v_k * np.sin(xi * h)
    s2 = s * s

    beta = eps2 / (eps2 + tau)                      # 1/(1+gamma)
    beta2_mu = eps2 * (1.0 - eps2) / (eps2 + tau) ** 2
    gbeta = tau / (eps2 + tau)                      # gamma*beta
    gbeta2_mu = tau * (1.0 - eps2) / (eps2 + tau) ** 2

    c1 = -beta * g - beta2_mu * s2
    c2 = beta * s
    d1 = -beta * g
    d2 = beta2_mu * g * s + beta * s

    return FourierSymbols(
        c1=c1, c2=c2, d1=d1, d2=d2,
        # grouped (gbeta2_mu*s)*s on purpose: gbeta2_mu*s2 rounds differently
        gamma_c1=-gbeta * g - gbeta2_mu * s * s,
        gamma_d2=gbeta2_mu * g * s + gbeta * s,
        gamma0_c1=-g - s2 / tau,
        gamma0_d2=g * s / tau + s,
    )


@dataclass
class FourierMatrix:
    """Per-frequency reduction of the rescaled space-time system.

    ``Ltilde`` is the order-2N*N_t coefficient matrix at frequency xi
    (its eps = 0 limit when ``at_epsilon_zero`` was requested),
    ``Ltilde0`` always holds the limit matrix and ``E`` the difference
    between the finite-eps and limit matrices.
    """

    xi: float
    Ltilde: sp.csr_matrix
    Ltilde0: sp.csr_matrix
    E: sp.csr_matrix


def assemble_fourier_matrix(
    cfg: GridConfig,
    rule: QuadratureRule,
    xi: float,
    at_epsilon_zero: bool = False,
) -> FourierMatrix:
    """Build the frequency-domain matrix, its eps = 0 limit, and E.

    The symbols depend on the velocity node, so the Kronecker blocks are
    assembled with per-node diagonal scalings: identity-plus-shift parts
    as blockdiag over k of (I + c1(v_k) P), and the weight-coupling
    parts as (diag(sym(v_k)) @ W) kron P with W the identical-row weight
    matrix.
    """
    if cfg.scheme != AP:
        raise ValueError(f"config scheme must be {AP!r}, got {cfg.scheme!r}")
    if rule.n_points != cfg.N:
        raise ValueError(
            f"rule has {rule.n_points} points, config expects N = {cfg.N}"
        )
    N, N_t, tau = cfg.N, cfg.N_t, cfg.tau
    syms = [fourier_symbols(cfg, v_k, xi) for v_k in rule.nodes]

    P = _time_shift(N_t).astype(complex)
    I_nt = sp.eye(N * N_t, dtype=complex, format="csr")
    W = np.tile(rule.weights, (N, 1)).astype(complex)

    def kron_diag(values):
        return sp.kron(sp.diags(np.asarray(values, dtype=complex)), P)

    def kron_weighted(values):
        D = sp.diags(np.asarray(values, dtype=complex))
        return sp.kron(D @ sp.csr_matrix(W), P)

    c1 = [s.c1 for s in syms]
    c2 = [s.c2 for s in syms]
    d1 = [s.d1 for s in syms]
    d2 = [s.d2 for s in syms]
    gc1 = [s.gamma_c1 for s in syms]
    gd2 = [s.gamma_d2 for s in syms]
    g0c1 = [s.gamma0_c1 for s in syms]
    g0d2 = [s.gamma0_d2 for s in syms]

    L11 = I_nt + kron_diag(c1) + kron_weighted(gc1)
    L12 = kron_diag(c2) / tau
    L21 = tau * (kron_diag(d2) + kron_weighted(gd2))
    L22 = I_nt + kron_diag(d1)
    L_eps = sp.bmat([[L11, L12], [L21, L22]], format="csr")

    zero = sp.csr_matrix((N * N_t, N * N_t), dtype=complex)
    L0 = sp.bmat(
        [[I_nt + kron_weighted(g0c1), zero],
         [tau * kron_weighted(g0d2), I_nt]],
        format="csr",
    )
    E = (L_eps - L0).tocsr()
    for M in (L_eps, L0, E):
        M.sum_duplicates()
        M.eliminate_zeros()

    return FourierMatrix(
        xi=float(xi),
        Ltilde=L0 if at_epsilon_zero else L_eps,
        Ltilde0=L0,
        E=E,
    )


# ---------------------------------------------------------------------------
# export


def export_matrix_market(matrix, path, metadata: dict | None = None) -> Path:
    """Write a matrix or vector in Matrix Market format plus a JSON sidecar.

    The sidecar (same name with ``.json`` appended) records shape,
    nonzeros and any caller-supplied metadata, e.g. the resolved grid
    configuration.
    """
    path = Path(path)
    if sp.issparse(matrix):
        mm = matrix.tocoo()
        nnz = mm.nnz
        shape = mm.shape
        mmwrite(path, mm)
    else:
        arr = np.asarray(matrix)
        if arr.ndim == 1:
            arr = arr[:, None]
        nnz = int(np.count_nonzero(arr))
        shape = arr.shape
        mmwrite(path, arr)
    sidecar = {
        "matrix_market_file": path.name,
        "shape": list(shape),
        "nnz": nnz,
    }
    if metadata:
        sidecar.update(metadata)
    sidecar_path = path.with_name(path.name + ".json")
    sidecar_path.write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return sidecar_path


def system_metadata(system: BlockSystem) -> dict:
    """Sidecar metadata for an assembled system."""
    return {
        "scheme": system.scheme,
        "rescaled": system.rescaled,
        "config": config_as_dict(system.cfg),
    }
