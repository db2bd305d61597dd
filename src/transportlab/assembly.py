"""All-at-once space-time systems and per-frequency symbol matrices.

N_t steps of a scheme with one-step block M stack into L S = F.  In
time-major order L is unit block lower bidiagonal with -M below the
diagonal.  S stacks the unknown groups one after the other, each with
its N_t levels in order: [r^1..r^{N_t}; j^1..j^{N_t}] for the relaxation
scheme, [f^1..f^{N_t}] for the upwind one.  With P the time shift and
M_ab the (a, b) block of M over the groups,

    L = I - [[P kron M_ab]]_{a,b}.

For the relaxation scheme M = [[B1, -A1], [-B2, A2]], for the upwind
scheme M = B.  S may hold group a divided by scale[a]; then block (a, b)
of M is M_ab * scale[b] / scale[a] and group a of F is F_a / scale[a].
The tau-rescaled relaxation system, scale (tau, 1), substitutes
r~ = r/tau: M = [[B1, -A1/tau], [-tau*B2, A2]], which stays
nondegenerate as eps -> 0.

A ``BlockSystem`` holds M, not L, and is itself the operator: it applies
L and L^H as one product with M and M^H over all time levels, and
L^{-1} and L^{-H} as a forward and a backward time march, with no
factorization.  A block of at most ``DENSE_BLOCK_CAP`` rows is applied
as a dense array, a larger one as CSR.  ``space_time_matrix`` is the one
place L is built, and ``BlockSystem.L`` builds it only when asked for.

A spatial Fourier transform reduces the rescaled relaxation system to
an order-2N*N_t matrix I + X kron P per frequency xi, with P the time
shift and X a dense 2N x 2N block of four scalars per velocity node;
the blocks at finite eps and at eps = 0 drive the perturbation analysis
of the conditioning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from . import ap_scheme, explicit_scheme
from .model import AP, EXPLICIT, GridConfig, KineticField, ParityField, check_solver
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
    "frequency_matrix",
    "space_time_matrix",
    "sparsity",
    "system_order",
]

# the largest system order assembled; read at call time
ORDER_CAP = 1_000_000

# the most rows m of a one-step block that ``BlockSystem`` applies as a
# dense array; a larger block is applied as CSR.  Read when a system
# first applies its block.  The measured crossover, on 2-core OpenBLAS at
# one thread (best of 5 or 7, alternating), of the iterative spectrum
# (``spectral.singular_extremes``) with the block dense and with it CSR,
# on rescaled relaxation and upwind systems of N = 2 to 8 and N_t = 16
# to 48: dense takes 0.70 to 0.94 of the CSR time at m = 96, 0.80 to
# 1.15 at 128 (the upwind blocks, at 5 to 9 nonzeros a row, near 1),
# 0.95 to 1.10 at 144, 1.01 to 1.19 at 160 and 1.05 to 1.47 from 176 up.
# A sparse product's cost is mostly fixed per call; a dense one's grows
# like m^2
DENSE_BLOCK_CAP = 128


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


def system_order(cfg: GridConfig) -> int:
    """Order of either scheme's system: N_t levels of N_x cells of two
    groups of N nodes (relaxation) or one of 2N (upwind)."""
    return 2 * cfg.N * cfg.N_x * cfg.N_t


def _check_levels(cfg: GridConfig, kind: str):
    """``GridConfig`` admits N_t = 0, a run that takes no step; a system
    of no time level has no unknown, so building one is refused."""
    if cfg.N_t < 1:
        raise ValueError(f"a {kind} system needs N_t >= 1, got N_t = {cfg.N_t}")


def _check_order(cfg: GridConfig):
    _check_levels(cfg, "space-time")
    order = system_order(cfg)
    if order > ORDER_CAP:
        raise ValueError(f"system order {order} exceeds the cap ORDER_CAP = {ORDER_CAP}")


def _quiet() -> np.errstate:
    """No floating-point warning from a dense product or its update: a
    sparse one raises none, so an overflow shows in the result alone."""
    return np.errstate(over="ignore", invalid="ignore")


def _time_shift(N_t: int) -> sp.csr_matrix:
    """Subdiagonal shift P of order N_t (unit spectral norm for N_t >= 2)."""
    return sp.diags([np.ones(N_t - 1)], [-1], shape=(N_t, N_t), format="csr")


def _canonical(A) -> sp.csr_matrix:
    """A copy of A in canonical CSR: sorted indices, no duplicate and no
    stored zero entries."""
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def space_time_matrix(M, levels: int, groups: int) -> sp.csr_matrix:
    """The CSR matrix L = I - [[P kron M_ab]]_{a,b} of ``levels`` steps
    of the one-step block M, in the group-major layout of S.

    P is the order-``levels`` time shift and M_ab the (a, b) block of M
    over its ``groups`` equal groups.  L is in canonical CSR form.
    """
    m = M.shape[0] // groups
    P = _time_shift(levels)
    blocks = [[sp.kron(P, M[a * m:(a + 1) * m, b * m:(b + 1) * m])
               for b in range(groups)] for a in range(groups)]
    L = (sp.eye(levels * M.shape[0]) - sp.bmat(blocks)).tocsr()
    L.sum_duplicates()
    L.eliminate_zeros()
    return L


@dataclass
class BlockSystem:
    """The space-time system L S = F of ``levels`` = N_t steps of the
    one-step block M.

    S stacks ``groups`` = len(scale) unknown groups one after the other
    ([r; j] for the relaxation scheme, f for the upwind one), each
    holding its N_t time levels in order, group a divided by
    ``scale[a]`` ((tau, 1) when tau-rescaled, else ones).  M has one row
    and column per unknown of a time level; the assemblers give it in
    canonical CSR form.  The system holds no configuration: any block M
    and level count make one, a per-frequency block as well as a
    scheme's, and the caller keeps the provenance.

    The system is the operator L.  Time-major, a vector is an
    (N_t, k*m) array whose row t holds time level t of all k groups, and

        (L X)[t] = X[t] - M X[t-1],      (L^H Y)[t] = Y[t] - M^H Y[t+1].

    So ``apply`` and ``apply_h`` are one product over all levels at
    once, and ``solve`` and ``solve_h`` (L^{-1}, L^{-H}) are the forward
    march X[t] += M X[t-1] and the backward march Y[t] += M^H Y[t+1],
    with no factorization.  The four take and return flat time-major
    vectors; ``to_time_major`` and ``from_time_major`` convert from and
    to the layout of S.

    The four apply M, and M^H, in the storage that the first product
    picks from M as it is then: a dense copy when M has at most
    ``DENSE_BLOCK_CAP`` rows, where the fixed cost of a sparse product
    outweighs its arithmetic, else CSR.  So M must not be changed after
    the first product: a dense copy would not see the change.  Dense
    products round in another order than sparse ones, so results agree
    with the CSR path's to a few ulp, not bit for bit.  Either way an
    overflow or an invalid operation shows as inf or nan in the result
    and raises no floating-point warning.  The CSR matrix ``L`` is built
    from M on first access only.
    """

    M: sp.csr_matrix
    F: np.ndarray
    scale: tuple[float, ...]
    levels: int

    @property
    def groups(self) -> int:
        return len(self.scale)

    @property
    def order(self) -> int:
        return self.levels * self.M.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.M.dtype, np.float64)

    @property
    def rescaled(self) -> bool:
        """Whether some group is stored divided by a scale other than 1."""
        return any(s != 1.0 for s in self.scale)

    @property
    def sparsity(self) -> int:
        """``sparsity(L)``, from M: a row or column of L holds its
        identity entry and, on all but one time level, one row or column
        of M.  M holds no stored zeros, so this is exact."""
        return 1 + sparsity(self.M) if self.levels > 1 else 1

    @cached_property
    def L(self) -> sp.csr_matrix:
        """The CSR matrix of the system, built once, on first access."""
        return space_time_matrix(self.M, self.levels, self.groups)

    @cached_property
    def _block(self):
        """M as the products apply it: dense up to ``DENSE_BLOCK_CAP``
        rows, else the CSR matrix itself."""
        return self.M.toarray() if self.M.shape[0] <= DENSE_BLOCK_CAP else self.M

    @cached_property
    def _block_h(self):
        """M^H in the storage of ``_block``, C-ordered when dense."""
        if sp.issparse(self._block):
            return self._block.conj(copy=False).T.tocsr()
        return self._block.conj().T.copy()

    def _rows(self, x) -> np.ndarray:
        """A writable (N_t, k*m) copy of a flat time-major vector."""
        X = np.reshape(x, (self.levels, -1))
        return X.astype(np.result_type(self.dtype, X.dtype), copy=True)

    def apply(self, x) -> np.ndarray:
        """L x."""
        X = self._rows(x)
        with _quiet():
            X[1:] -= (self._block @ X[:-1].T).T  # the product is formed before the update
        return X.ravel()

    def apply_h(self, y) -> np.ndarray:
        """L^H y."""
        Y = self._rows(y)
        with _quiet():
            Y[:-1] -= (self._block_h @ Y[1:].T).T
        return Y.ravel()

    def solve(self, y) -> np.ndarray:
        """L^{-1} y, marching forward in time."""
        X = self._rows(y)
        with _quiet():
            for t in range(1, self.levels):
                X[t] += self._block @ X[t - 1]
        return X.ravel()

    def solve_h(self, x) -> np.ndarray:
        """L^{-H} x, marching backward in time."""
        Y = self._rows(x)
        with _quiet():
            for t in range(self.levels - 2, -1, -1):
                Y[t] += self._block_h @ Y[t + 1]
        return Y.ravel()

    def to_time_major(self, s) -> np.ndarray:
        """Reorder a vector laid out like S into time-major order."""
        return np.moveaxis(np.reshape(s, (self.groups, self.levels, -1)), 1, 0).ravel()

    def from_time_major(self, x) -> np.ndarray:
        """Reorder a time-major vector into the layout of S."""
        return np.moveaxis(np.reshape(x, (self.levels, self.groups, -1)), 0, 1).ravel()

    def split(self, S) -> list[tuple[np.ndarray, ...]]:
        """Per time level 1..N_t, the tuple of the groups' physical
        values: group a's part of S times scale[a]."""
        parts = np.reshape(S, (self.groups, self.levels, -1))
        return list(zip(*(part * s for part, s in zip(parts, self.scale))))


def _stack(cfg: GridConfig, blocks, forcing, first, scale) -> BlockSystem:
    """The system of N_t steps of the one-step ``blocks`` with each
    group's per-level ``forcing`` and first-level part ``first`` = M x^0,
    all in physical variables, stored under ``scale``: block (a, b) times
    scale[b] / scale[a] where the two differ, group a of F / scale[a]."""
    M = sp.bmat([[blk if sa == sb else blk * sb / sa for sb, blk in zip(scale, row)]
                 for sa, row in zip(scale, blocks)])
    F = []
    for f, x0, s in zip(forcing, first, scale):
        F_a = np.tile(f, cfg.N_t)
        F_a[:f.size] += x0
        F.append(F_a / s)
    return BlockSystem(M=_canonical(M), F=np.concatenate(F), scale=scale, levels=cfg.N_t)


def assemble_ap_system(
    cfg: GridConfig,
    rule: QuadratureRule,
    initial: ParityField,
    rescaled: bool = False,
) -> BlockSystem:
    """Stack the relaxation scheme's one-step relations into L S = F.

    F's first block row carries the initial data (f~ + B1 r^0 - A1 j^0
    and g~ - B2 r^0 + A2 j^0); later rows repeat the boundary forcing.
    With ``rescaled`` the system has scale (tau, 1), and S is [r/tau; j].
    """
    check_solver(cfg, AP, rule)
    _check_order(cfg)

    mats = ap_scheme.ap_step_matrices(cfg, rule)
    forcing = ap_scheme.boundary_forcing(cfg, rule, initial, mats)
    first = (mats.B1 @ initial.r - mats.A1 @ initial.j,
             -(mats.B2 @ initial.r) + mats.A2 @ initial.j)
    blocks = [[mats.B1, -mats.A1], [-mats.B2, mats.A2]]
    return _stack(cfg, blocks, forcing, first, (cfg.tau, 1.0) if rescaled else (1.0, 1.0))


def assemble_explicit_system(
    cfg: GridConfig,
    rule: QuadratureRule,
    initial: KineticField,
) -> BlockSystem:
    """Stack the upwind scheme into the block bidiagonal system L U = F."""
    check_solver(cfg, EXPLICIT, rule)
    _check_order(cfg)

    mats = explicit_scheme.explicit_matrix(cfg, rule)
    b = explicit_scheme.boundary_vector(cfg, rule, initial)
    return _stack(cfg, [[mats.B]], (b,), (mats.B @ initial.f,), (1.0,))


# ---------------------------------------------------------------------------
# Fourier symbols and per-frequency matrices


@dataclass(frozen=True)
class FourierSymbols:
    """Per-frequency scalars of the one-step map, one per velocity node
    and frequency.

    c1, c2 enter the r-equation and d1, d2 the j-equation of the
    frequency-domain recursion

        r^{n+1} + c1 r^n + c2 j^n + gamma*c1*<w, r^n> = 0
        j^{n+1} + d1 j^n + d2 r^n + gamma*d2*<w, r^n> = 0.

    gamma_c1 and gamma_d2 are gamma*c1 and gamma*d2, and gamma0_c1 and
    gamma0_d2 their finite eps -> 0 limits (the symbols themselves
    vanish in that limit).  Every field is an array of the broadcast
    shape of the nodes and frequencies it was evaluated at; d1 is real,
    the others complex.
    """

    c1: np.ndarray
    c2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    gamma_c1: np.ndarray
    gamma_d2: np.ndarray
    gamma0_c1: np.ndarray
    gamma0_d2: np.ndarray


# the symbol fields as a tuple in field order; unlike ``astuple``, which
# deep-copies every field, a plain read
_symbol_fields = attrgetter(*(f.name for f in fields(FourierSymbols)))


def _divide_parts(z: np.ndarray, d: float) -> np.ndarray:
    """z / d for a real d > 0 as CPython divides a complex by a float:
    each part on its own, correctly rounded.  numpy's complex division
    multiplies by 1/d instead, which can differ in the last bit."""
    quotient = np.empty_like(z)
    # CPython's quotient by d + 0j, whose ratio 0/d is 0.0
    quotient.real = (z.real + z.imag * 0.0) / d
    quotient.imag = (z.imag - z.real * 0.0) / d
    return quotient


def fourier_symbols(cfg: GridConfig, v_k, xi) -> FourierSymbols:
    """Evaluate the four symbols, their gamma products and those
    products' eps -> 0 limits at nodes ``v_k`` and frequencies ``xi``.

    Both may be scalars or arrays; they broadcast against each other,
    and each (node, frequency) pair is evaluated once.  Every entry has
    the bits a scalar evaluation of the same pair gets.  All
    eps-dependent prefactors are formed as ratios of eps^2 or tau and
    eps^2 + tau, so the evaluation stays finite down to eps ~ 1e-8.
    """
    if cfg.epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tau, lam, h = cfg.tau, cfg.lam, cfg.h
    eps2 = cfg.epsilon**2
    v = np.asarray(v_k, dtype=float)
    xi = np.asarray(xi, dtype=float)

    g = (1.0 - lam * v) + lam * v * np.cos(xi * h)
    s = 1j * lam * v * np.sin(xi * h)
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
        gamma0_c1=-g - _divide_parts(s2, tau),
        gamma0_d2=g * s / tau + s,
    )


@dataclass(frozen=True)
class FourierMatrix:
    """Per-frequency reduction of the rescaled space-time system.

    Node-major and time-minor, the order-2N*N_t matrix at frequency xi
    is L~_eps = I + X_eps kron P and its eps = 0 limit is
    L~_0 = I + X_zero kron P (``frequency_matrix``), with P the order-N_t
    time shift.  For a 1-D array of n frequencies ``X_eps`` and
    ``X_zero`` are stacks of shape (n, 2N, 2N), one block per xi, and
    every field of ``symbols`` has shape (n, N), one row per xi in node
    order; for a scalar xi the blocks are 2N x 2N, the fields have
    shape (N,) and ``xi`` is a float.
    """

    xi: float | np.ndarray
    symbols: FourierSymbols
    X_eps: np.ndarray
    X_zero: np.ndarray


def assemble_fourier_matrix(
    cfg: GridConfig,
    rule: QuadratureRule,
    xi,
) -> FourierMatrix:
    """Evaluate the symbols at every xi, once per node and frequency, and
    build the dense 2N x 2N blocks; with W the identical-row weight
    matrix,

        X_eps  = [[diag(c1) + diag(gamma c1) W, diag(c2)/tau],
                  [tau (diag(d2) + diag(gamma d2) W), diag(d1)]]
        X_zero = [[diag(gamma0 c1) W, 0], [tau diag(gamma0 d2) W, 0]].

    So E = L~_eps - L~_0 = (X_eps - X_zero) kron P, whose 2-norm is
    ||X_eps - X_zero||_2 ||P||_2 (Horn-Johnson, Topics in Matrix
    Analysis, 4.2).  ``xi`` is a scalar or a 1-D array; an array gives
    stacked blocks, each with the bits of a scalar call at its xi.
    """
    check_solver(cfg, AP, rule)
    _check_levels(cfg, "per-frequency")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim > 1:
        raise ValueError(f"xi must be a scalar or a 1-D array, got shape {xi.shape}")
    tau = cfg.tau
    syms = fourier_symbols(cfg, rule.nodes, xi[..., None])
    c1, c2, d1, d2, gc1, gd2, g0c1, g0d2 = _symbol_fields(syms)
    W = rule.weights  # broadcast as the rows of W
    n = cfg.N
    k = np.arange(n)
    # each block is written into its place in a zeroed stack, entry by
    # entry as np.block of the formulas above gives it: diag(v) @ W as
    # v[..., :, None] * W, one product per entry, +0 off a diagonal
    # block's diagonal, and diag(c) + diag(v) W as 0 + p and c + p
    X_eps = np.zeros(c1.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    top, bottom = X_eps[..., :n, :], X_eps[..., n:, :]
    top[..., k, k] = c1
    top[..., :n] += gc1[..., :, None] * W
    top[..., k, n + k] = c2 / tau
    bottom[..., k, k] = d2
    bottom[..., :n] += gd2[..., :, None] * W
    bottom[..., :n] *= tau
    bottom[..., k, n + k] = d1
    X_zero = np.zeros_like(X_eps)
    X_zero[..., :n, :n] = g0c1[..., :, None] * W
    X_zero[..., n:, :n] = tau * (g0d2[..., :, None] * W)
    return FourierMatrix(xi=float(xi) if xi.ndim == 0 else xi, symbols=syms,
                         X_eps=X_eps, X_zero=X_zero)


def frequency_matrix(X: np.ndarray, N_t: int) -> np.ndarray:
    """The dense order-N_t expansion ``I + X kron P`` of a per-node block,
    P the order-N_t time shift, or of each block of a stack ``(..., n, n)``
    into one stack ``(..., n*N_t, n*N_t)``.

    Built entry by entry: 1 on the diagonal, X_ab + 0.0 at row
    a*N_t + t + 1 and column b*N_t + t, and +0.0 elsewhere.  For finite
    X these are the bits of ``np.eye + np.kron``, with neither
    temporary, and each matrix of a stack has the bits of its block's
    own expansion.
    """
    *stack, n, _ = X.shape
    order = n * N_t
    out = np.zeros((*stack, order, order), dtype=np.result_type(X, float))
    out.reshape(*stack, order * order)[..., ::order + 1] = 1.0
    t = np.arange(N_t - 1)
    out.reshape(*stack, n, N_t, n, N_t)[..., :, t + 1, :, t] = X + 0.0
    return out


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
