"""Singular-value extremes, perturbation bounds, and scaling regressions.

The quantities of interest are sigma_min, sigma_max and their ratio
kappa for the assembled space-time matrices, the explicit perturbation
bound alpha(eps) on the distance between the finite-eps and limit
frequency-domain matrices, and log-log slope fits that turn the
asymptotic scaling claims (sigma_max ~ sqrt(N), 1/sigma_min ~ N_t,
cost ~ 1/eps^3) into testable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import svdvals

from .assembly import DENSE_CAP, assemble_fourier_matrix, sparsity
from .model import GridConfig
from .quadrature import QuadratureRule

__all__ = [
    "PerturbationReport",
    "RegressionResult",
    "SpectrumReport",
    "alpha_bound",
    "perturbation_check",
    "scaling_regression",
    "singular_extremes",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Extreme singular values of one matrix.

    ``residual`` is a backward-error estimate of the extreme
    computation: zero-order machine precision for the dense path, the
    worse relative eigen-residual of the two ARPACK Ritz pairs for the
    iterative path.  ``kappa`` is +inf when the matrix is singular to
    working precision (sigma_min reported as 0).
    """

    sigma_min: float
    sigma_max: float
    kappa: float
    sparsity: int
    method: str
    residual: float


# ARPACK stops once a Ritz pair's eigen-residual is below this fraction
# of its Ritz value
ARPACK_TOL = 1e-12


def _top_eigenpair(apply_op, n: int, dtype) -> tuple[float, float]:
    """Largest eigenvalue of a Hermitian positive operator by ARPACK's
    implicitly restarted Lanczos, started from the normalized all-ones
    vector so results are reproducible, and the relative eigen-residual
    ||op(x) - rho*x|| / rho of its Ritz pair."""
    op = spla.LinearOperator((n, n), matvec=apply_op, dtype=dtype)
    v0 = np.ones(n, dtype=dtype) / np.sqrt(n)
    values, vectors = spla.eigsh(op, k=1, which="LA", v0=v0, tol=ARPACK_TOL)
    rho, x = float(values[0]), vectors[:, 0]
    return rho, float(np.linalg.norm(apply_op(x) - rho * x) / rho)


def _lanczos_extremes(A, inverse=None) -> tuple[float, float, float]:
    """sigma_min, sigma_max and the worse residual, from the top
    eigenvalues of A^H A and of (A^H A)^{-1} = A^{-1} A^{-H}.

    ``inverse`` applies A^{-1} (matvec) and A^{-H} (rmatvec); without
    it both come from one sparse LU factorization of A.
    """
    n = A.shape[1]
    dtype = np.result_type(A.dtype, np.float64)
    At = A.conj(copy=False).T
    lam, res_max = _top_eigenpair(lambda x: At @ (A @ x), n, dtype)
    del At  # not held alive next to the LU factors
    if inverse is None:
        lu = spla.splu(A.tocsc())
        inverse = spla.LinearOperator(
            A.shape, matvec=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="H"), dtype=dtype)
    mu, res_min = _top_eigenpair(
        lambda x: inverse.matvec(inverse.rmatvec(x)), n, dtype)
    return 1.0 / math.sqrt(mu), math.sqrt(lam), max(res_max, res_min)


def singular_extremes(M, method: str = "auto", inverse=None) -> SpectrumReport:
    """Compute sigma_min, sigma_max, kappa and sparsity of a matrix.

    Matrices of order up to ``DENSE_CAP`` are decomposed densely.
    Above it, ARPACK Lanczos on A^H A gives sigma_max, and on
    (A^H A)^{-1} = A^{-1} A^{-H} gives sigma_min.  ``inverse`` is a
    LinearOperator whose matvec applies A^{-1} and whose rmatvec
    applies A^{-H}, such as a space-time system's
    ``BlockSystem.marching_inverse()`` (a time march, no
    factorization); only a bare matrix falls back to one sparse LU
    factorization of A.  The dense path ignores ``inverse``.
    Convergence failure and an exactly singular LU factor raise
    RuntimeError.
    """
    M = sp.csr_matrix(M)
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise ValueError("matrix must be nonempty")
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if inverse is not None and inverse.shape != M.shape:
        raise ValueError(f"inverse has shape {inverse.shape}, matrix {M.shape}")
    if method == "auto":
        method = "dense" if max(M.shape) <= DENSE_CAP else "iterative"
    if method == "iterative" and max(M.shape) < 2:
        raise ValueError("the iterative method needs order >= 2 (ARPACK k < n)")

    s = sparsity(M)
    if method == "dense":
        values = svdvals(M.toarray())
        sigma_max = float(values[0])
        sigma_min = float(values[-1])
        residual = 0.0
    else:
        sigma_min, sigma_max, residual = _lanczos_extremes(M, inverse)

    # singular to working precision: flag rather than divide
    floor = np.finfo(float).eps * max(M.shape) * sigma_max
    if sigma_min <= floor:
        return SpectrumReport(0.0, sigma_max, float("inf"), s, method, residual)
    return SpectrumReport(
        sigma_min, sigma_max, sigma_max / sigma_min, s, method, residual
    )


def alpha_bound(epsilon: float, tau: float, N: int) -> float:
    """Closed-form bound on the frequency-domain perturbation norm.

    Three-term expression in eps, tau and sqrt(N); every term carries a
    factor eps^2, so the bound vanishes as eps -> 0 and is exactly 0 at
    eps = 0.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    e2 = epsilon**2
    root_n = np.sqrt(N)
    term1 = e2 / (tau + e2) * (root_n * tau + root_n + tau + 1.0 / tau)
    term2 = e2 * (1.0 - e2) / (e2 + tau) ** 2 * (1.0 + tau)
    term3 = (
        e2 * (e2 + 2.0 * tau + tau**2) / (tau * (e2 + tau) ** 2)
        * root_n * (1.0 + 1.0 / tau)
    )
    return float(term1 + term2 + term3)


@dataclass
class PerturbationReport:
    """Frequency sweep of the perturbation between L~_eps and its limit.

    Per sampled frequency: the 2-norm of E = L~_eps - L~_0 and the
    extreme singular values of both matrices.  ``max_ratio`` is the
    largest ||E|| / alpha(eps); ``weyl_slack`` the largest violation of
    the singular-value sandwich (nonpositive when it holds exactly).
    """

    epsilon: float
    alpha: float
    xi: np.ndarray
    e_norms: np.ndarray
    sigma_max_eps: np.ndarray
    sigma_min_eps: np.ndarray
    sigma_max_zero: np.ndarray
    sigma_min_zero: np.ndarray
    max_ratio: float
    weyl_slack: float


def perturbation_check(
    cfg: GridConfig,
    rule: QuadratureRule,
    xi_values,
    weyl_tolerance: float = 1e-10,
) -> PerturbationReport:
    """Sweep frequencies, bounding the perturbation and verifying Weyl.

    For each xi the sandwich

        sigma_max(L~_eps) <= sigma_max(L~_0) + ||E||
        sigma_min(L~_eps) >= sigma_min(L~_0) - ||E||

    must hold up to ``weyl_tolerance``; a violation beyond that is a
    solver bug and raises.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    n = xi_values.size
    e_norms = np.empty(n)
    smax_e = np.empty(n)
    smin_e = np.empty(n)
    smax_0 = np.empty(n)
    smin_0 = np.empty(n)

    for i, xi in enumerate(xi_values):
        fm = assemble_fourier_matrix(cfg, rule, xi)
        vals_eps = svdvals(fm.Ltilde.toarray())
        vals_zero = svdvals(fm.Ltilde0.toarray())
        e_norms[i] = svdvals(fm.E.toarray())[0] if fm.E.nnz else 0.0
        smax_e[i], smin_e[i] = vals_eps[0], vals_eps[-1]
        smax_0[i], smin_0[i] = vals_zero[0], vals_zero[-1]

    upper_violation = smax_e - (smax_0 + e_norms)
    lower_violation = (smin_0 - e_norms) - smin_e
    weyl_slack = float(max(upper_violation.max(), lower_violation.max()))
    if weyl_slack > weyl_tolerance:
        raise RuntimeError(
            f"singular-value sandwich violated by {weyl_slack:.3e} "
            f"(tolerance {weyl_tolerance:.1e})"
        )

    alpha = alpha_bound(cfg.epsilon, cfg.tau, cfg.N)
    max_ratio = float((e_norms / alpha).max()) if alpha > 0 else 0.0
    return PerturbationReport(
        epsilon=cfg.epsilon,
        alpha=alpha,
        xi=xi_values,
        e_norms=e_norms,
        sigma_max_eps=smax_e,
        sigma_min_eps=smin_e,
        sigma_max_zero=smax_0,
        sigma_min_zero=smin_0,
        max_ratio=max_ratio,
        weyl_slack=weyl_slack,
    )


@dataclass(frozen=True)
class RegressionResult:
    """Least-squares slope in log-log coordinates with diagnostics."""

    slope: float
    intercept: float
    stderr: float
    r_squared: float

    def __iter__(self):
        return iter((self.slope, self.stderr))


def scaling_regression(points) -> RegressionResult:
    """Fit value ~ C * size^slope from (size, value) pairs.

    Requires at least four points whose sizes span a factor of four, so
    a slope is actually identifiable.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    sizes = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if np.any(sizes <= 0) or np.any(values <= 0):
        raise ValueError("sizes and values must be positive for a log-log fit")
    if sizes.max() / sizes.min() < 4.0:
        raise ValueError(
            f"size parameter must span at least 4x, got "
            f"{sizes.max() / sizes.min():.3g}x"
        )
    lx, ly = np.log(sizes), np.log(values)
    n = lx.size
    x_mean = lx.mean()
    sxx = np.sum((lx - x_mean) ** 2)
    slope = float(np.sum((lx - x_mean) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * x_mean)
    fitted = intercept + slope * lx
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    stderr = float(np.sqrt(ss_res / (n - 2) / sxx)) if n > 2 else 0.0
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RegressionResult(slope=slope, intercept=intercept,
                            stderr=stderr, r_squared=r_squared)
