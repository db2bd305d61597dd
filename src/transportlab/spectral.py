"""Singular-value extremes, perturbation bounds, and scaling regressions.

The quantities of interest are sigma_min, sigma_max and their ratio
kappa for the assembled space-time matrices, the explicit perturbation
bound alpha(eps) on the distance between the finite-eps and limit
frequency-domain matrices, and log-log slope fits that turn the
asymptotic scaling claims (sigma_max ~ sqrt(N), 1/sigma_min ~ N_t,
cost ~ 1/eps^3) into testable numbers.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._blas import one_thread
from .assembly import BlockSystem, FourierSymbols, assemble_fourier_matrix, frequency_matrix
from .model import GridConfig
from .quadrature import QuadratureRule

__all__ = [
    "PerturbationReport",
    "RegressionResult",
    "SpectrumReport",
    "alpha_bound",
    "manifest_entry",
    "perturbation_check",
    "scaling_regression",
    "singular_extremes",
]


@dataclass(frozen=True)
class SpectrumReport:
    """Extreme singular values of one space-time system, and how they
    were measured: the one record of a measurement, which
    ``manifest_entry`` turns into its manifest figures.

    ``method`` is the path that computed them, "dense" or "iterative".
    ``residual`` is a backward-error estimate of the extreme
    computation: zero-order machine precision for the dense path, the
    worse true relative eigen-residual ||Ax - theta x|| / theta of the
    two Lanczos Ritz pairs for the iterative path.  ``kappa`` is +inf
    when the matrix is singular to working precision (sigma_min reported
    as 0).  ``matvecs_max`` counts the applications of L^H L for
    sigma_max: the Chebyshev filter's on its start plus the Lanczos
    run's, the second pass that regenerates the vectors past the kept
    ones included.
    ``matvecs_min`` counts the Lanczos run's applications of
    (L^H L)^{-1} for sigma_min, and ``matvecs_symbol`` those of the
    order-m solve for the start of the sigma_max run (0 when that solve
    is dense).  No count includes the one application of each
    residual.  All three are 0 on the dense path.  ``rescaled`` is the
    system's: whether some group of S is stored divided by a scale
    other than 1.
    """

    sigma_min: float
    sigma_max: float
    kappa: float
    sparsity: int
    method: str
    residual: float
    matvecs_max: int
    matvecs_min: int
    matvecs_symbol: int
    rescaled: bool


def manifest_entry(report: SpectrumReport | None) -> dict:
    """The manifest figures of a measurement: its method, residual,
    matvec counts per stage and whether its system was rescaled, each
    None when ``report`` is None (no system was measured)."""
    if report is None:
        return dict.fromkeys(("method", "residual", "matvecs", "rescaled"))
    return {"method": report.method, "residual": report.residual,
            "matvecs": {"sigma_max": report.matvecs_max,
                        "sigma_min": report.matvecs_min,
                        "symbol": report.matvecs_symbol},
            "rescaled": report.rescaled}


# a Lanczos run stops once its Ritz pair's eigen-residual |beta_k s_k| is
# at most this fraction of its Ritz value: ARPACK's stop test, at the
# tolerance the spectrum ran ARPACK at
LANCZOS_TOL = 1e-12

# the Lanczos vectors a run keeps: ARPACK's default basis size, so a run
# holds the memory an ARPACK run did.  A longer run regenerates the later
# ones for its Ritz vector
LANCZOS_KEPT = 20

# a Lanczos run's step cap per unit of the operator's order, as ARPACK's
# default cap on its restarts
LANCZOS_STEPS_PER_ORDER = 10

# the largest order k of the tridiagonal T whose top eigenpair a stop test
# takes from numpy's dense ``eigh``, O(k^3); above it, from bisection on
# Sturm counts and inverse iteration, O(k) a pass.  The measured crossover,
# one thread, on the T of the sigma_max run of an upwind system of order
# 29,040, bracketed as the run brackets it: eigh takes 0.12, 0.30 and
# 0.40 ms at k = 32, 48 and 63, bisection 0.16, 0.19 and 0.21 ms.  On a
# random T of order 2,000, eigh takes 0.6 s and bisection 13 ms
EIGH_CAP = 48

# the largest order that ``singular_extremes`` decomposes densely: the
# measured crossover, on 2-core OpenBLAS, of one dense SVD against the two
# Lanczos runs with a marching L^{-1}, on relaxation (plain and rescaled)
# and upwind systems; from order 256 up the Lanczos path is faster everywhere
DENSE_CAP = 192

# the degree per time level of the Chebyshev filter on the sigma_max start
# (``_chebyshev_filtered``), and its margin below the start's Rayleigh
# quotient rho_0: it damps [0, (1 - FILTER_MARGIN) rho_0].  The top of the
# spectrum clusters at spacing O(1/N_t^2), and a Chebyshev polynomial's
# growth just outside its interval is exponential in its degree times the
# square root of the distance, so a degree proportional to N_t separates
# the top eigenvalue by about the same factor at every N_t.  Of the
# degrees 0.5, 1, 1.5, 2 and 3 N_t and margins 0.01, 0.03 and 0.1, tried
# on five systems of order 3,072 to 29,040: at 1.5 N_t the margin 0.03
# took the fewest or tied-fewest ARPACK steps on all five.  Under the
# module's own Lanczos, one thread: the raw start took 1.36, 1.06 and 1.33
# of the filtered time on the spectrum benchmark's systems of order 8,192,
# 12,152 and 29,040; on 90 systems of order 224 to 2,816 (both schemes,
# plain and rescaled relaxation, h = 0.05, N 2 to 4, eps 0.7 to 1e-4),
# best of 3, the filtered stage took 0.58 and 0.66 s in total against 0.70
# and 0.80 s raw in two runs, at most 1.3 of the raw time (0.5 ms more)
# on the shortest, of 7 levels, with sigma_max within 8.9e-16 relative
FILTER_DEGREE_PER_LEVEL = 1.5
FILTER_MARGIN = 0.03

# the tolerance of the order-m Lanczos run for the symbol's top singular
# vector, which only seeds the sigma_max run: a loose start serves as well
SYMBOL_TOL = 1e-6


class _NotFinite(RuntimeError):
    """Raised by a Lanczos run whose operator application, or an alpha or
    beta of it, is not finite, before the value is used."""

    def __init__(self, made: int):
        super().__init__(f"application {made} of a Lanczos run's operator, or its "
                         "alpha or beta, is not finite")
        self.made = made  # the run's applications, this one included


def _above_every_eigenvalue(alphas: list, squares: list, x: float) -> bool:
    """Whether x lies above every eigenvalue of the symmetric tridiagonal
    T with diagonal ``alphas`` and squared off-diagonal ``squares``: by
    Sylvester's law of inertia, whether every pivot of the LDL^T
    factorization of T - xI is negative.  It stops at the first pivot
    that is not, which comes at the first leading block of T with an
    eigenvalue at or above x."""
    pivot = alphas[0] - x
    if pivot >= 0.0:
        return False
    for alpha, square in zip(itertools.islice(alphas, 1, None), squares):
        pivot = alpha - x - square / pivot
        if pivot >= 0.0:
            return False
    return True


def _shifted_solve(alphas: list, betas: list, squares: list, x: float,
                   rhs: list) -> np.ndarray:
    """(T - xI)^{-1} rhs by the LDL^T factorization, for x above every
    eigenvalue of T: its pivots are those ``_above_every_eigenvalue``
    found negative, bit for bit, so none is zero."""
    pivot = alphas[0] - x
    pivots, ratios = [pivot], []
    for alpha, beta, square in zip(itertools.islice(alphas, 1, None), betas, squares):
        ratios.append(beta / pivot)
        pivot = alpha - x - square / pivot
        pivots.append(pivot)
    y = [rhs[0]]
    for value, ratio in zip(itertools.islice(rhs, 1, None), ratios):
        y.append(value - ratio * y[-1])
    z = [value / pivot for value, pivot in zip(y, pivots)]
    for i in range(len(z) - 2, -1, -1):
        z[i] -= ratios[i] * z[i + 1]
    return np.array(z)


def _tridiagonal_top(alphas: list, betas: list, guess: float,
                     step: float) -> tuple[float, np.ndarray]:
    """The top eigenvalue of the symmetric tridiagonal T with diagonal
    ``alphas`` and off-diagonal ``betas``, and its unit eigenvector.

    Up to order ``EIGH_CAP``, numpy's ``eigh`` of the dense T.  Above it,
    bisection on ``_above_every_eigenvalue`` down to adjacent floats,
    from a bracket grown in doublings of ``step`` around ``guess``; the
    value is the bracket's upper end, which lies above every eigenvalue,
    so two steps of inverse iteration at that shift, from the all-ones
    vector, give the vector.
    """
    k = len(alphas)
    if k <= EIGH_CAP:
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        values, vectors = np.linalg.eigh(T)
        return float(values[-1]), vectors[:, -1]
    squares = [beta * beta for beta in betas]

    def above(x):
        return _above_every_eigenvalue(alphas, squares, x)

    if above(guess):
        lo, hi = guess - step, guess
        while above(lo):
            step *= 2.0
            lo, hi = guess - step, lo
    else:
        lo, hi = guess, guess + step
        while not above(hi):
            step *= 2.0
            lo, hi = hi, guess + step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    z = np.ones(k)
    for _ in range(2):
        z = _shifted_solve(alphas, betas, squares, hi, (z / np.linalg.norm(z)).tolist())
    return hi, z / np.linalg.norm(z)


def _recurrence(apply_op, v: np.ndarray, previous, beta: float) -> np.ndarray:
    """A v - beta * previous, the first half of a Lanczos step (A v alone
    on the first step, where ``previous`` is None)."""
    w = apply_op(v)
    if previous is not None:
        w -= beta * previous
    return w


def _steps_to_next_test(k: int, residual: float, target: float, tested) -> int:
    """The steps from a failed stop test at step k to the next one: as
    many as the residual's geometric decrease since the last test
    ``tested`` = (step, residual) predicts it needs to reach ``target``,
    at least 1 and at most max(4, k // 8), the most when there is no
    decrease to go by."""
    most = max(4, k // 8)
    if tested is None or not 0.0 < residual < tested[1]:
        return most
    rate = math.log(residual / tested[1]) / (k - tested[0])
    return max(1, min(most, math.ceil(math.log(target / residual) / rate)))


def _top_eigenpair(apply_op, v0: np.ndarray, stage: str,
                   tol: float = LANCZOS_TOL) -> tuple[float, np.ndarray, int]:
    """Largest eigenvalue theta of a Hermitian positive operator A, its
    unit Ritz vector and the applications of A made, by Lanczos from the
    fixed start ``v0`` (normalized here by its 2-norm, so results are
    reproducible).

    The three-term recurrence runs with no restart and no
    reorthogonalization: lost orthogonality makes copies of converged
    Ritz values but does not move the top one (Paige 1976).  After step
    k, with (theta, s) the top eigenpair of the tridiagonal T_k
    (``_tridiagonal_top``), the run stops once |beta_k s_k| <= tol theta.
    That is tested at step 4, then after the steps
    ``_steps_to_next_test`` predicts, and whenever beta_k <= tol times
    the largest alpha, a lower bound of theta; a breakdown beta_k = 0,
    where theta is exact, passes it.  A test soon after convergence
    matters beyond the steps it saves: some steps later lost
    orthogonality makes a copy of theta in T_k, and the top eigenvector
    of T_k may then mix the two into a poor Ritz vector (a run of order
    18 tested every 4 steps passed at step 20 with a true residual of
    0.023; tested at the predicted step 10 it passed at 2.5e-13).  The
    run keeps its first ``LANCZOS_KEPT`` Lanczos vectors.  Its Ritz
    vector sum_j s_j v_j regenerates the later ones from the last two
    kept, with the recorded alphas and betas and the operations that
    first made them, so with the same bits, at one more application
    each; a run of at most ``LANCZOS_KEPT`` steps makes no more.
    Every vector operation runs under ``np.errstate``: an application,
    alpha or beta that is not finite raises ``_NotFinite`` before it is
    used, with no floating-point warning.  A run that reaches
    ``LANCZOS_STEPS_PER_ORDER`` steps per unit of order raises
    RuntimeError naming ``stage``.
    """
    cap = math.ceil(LANCZOS_STEPS_PER_ORDER * v0.size)
    alphas, betas, basis = [], [], []
    v, previous = v0 / np.linalg.norm(v0), None
    theta, residual, next_test, top_alpha = 0.0, 0.0, 4, 0.0
    tested = None  # the step and residual of the last stop test
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if len(basis) < LANCZOS_KEPT:
                basis.append(v)
            w = _recurrence(apply_op, v, previous, betas[-1] if betas else 0.0)
            alpha = float(np.vdot(v, w).real)
            if not math.isfinite(alpha):
                raise _NotFinite(len(alphas) + 1)
            w -= alpha * v
            beta = float(np.linalg.norm(w))
            if beta == math.inf:  # its sum of squares overflowed: scale first
                peak = float(np.max(np.abs(w)))
                beta = peak * float(np.linalg.norm(w / peak))
            if not math.isfinite(beta):
                raise _NotFinite(len(alphas) + 1)
            alphas.append(alpha)
            betas.append(beta)
            top_alpha = max(top_alpha, alpha)
            if len(alphas) >= next_test or beta <= tol * top_alpha:
                theta, s = _tridiagonal_top(alphas, betas[:-1], theta,
                                            max(residual, 4.0 * math.ulp(theta)))
                residual = abs(beta * s[-1])
                if residual <= tol * theta:
                    break
                next_test = len(alphas) + _steps_to_next_test(len(alphas), residual,
                                                              tol * theta, tested)
                tested = (len(alphas), residual)
            if len(alphas) >= cap:
                raise RuntimeError(
                    f"the {stage} Lanczos run did not converge in {cap} steps")
            previous, v = v, w / beta

        x = np.zeros_like(basis[0])
        for weight, vector in zip(s, basis):
            x += weight * vector
        if len(alphas) > len(basis):
            previous, v = basis[-2:]
        for j in range(len(basis), len(alphas)):
            w = _recurrence(apply_op, v, previous, betas[j - 2])
            w -= alphas[j - 1] * v
            previous, v = v, w / betas[j - 1]
            x += s[j] * v
    made = len(alphas) + max(0, len(alphas) - len(basis))
    return theta, x / np.linalg.norm(x), made


def _top_eigenvalue(apply_op, v0: np.ndarray, stage: str) -> tuple[float, float, int]:
    """``_top_eigenpair`` at ``LANCZOS_TOL``: the eigenvalue rho, the
    relative eigen-residual ||op(x) - rho*x|| / rho of its Ritz pair, from
    one more application, and the applications of the run.  A residual
    that overflows is not finite and raises no floating-point warning."""
    rho, x, matvecs = _top_eigenpair(apply_op, v0, stage)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(apply_op(x) - rho * x) / rho
    return rho, float(residual), matvecs


def _symbol_top_vector(M: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """The top right singular vector u of I + M, the symbol
    I - e^{i theta} M of a block Toeplitz L at theta = pi, and the
    operator applications its Lanczos run made: numpy's dense SVD when M
    has at most ``DENSE_CAP`` rows (0 applications), else
    ``_top_eigenpair`` on (I + M)^H (I + M) from the all-ones start at
    ``SYMBOL_TOL``."""
    m = M.shape[0]
    S = sp.identity(m, dtype=M.dtype, format="csr") + M
    if m <= DENSE_CAP:
        return np.linalg.svd(S.toarray())[2][0].conj(), 0
    Sh = S.conj(copy=False).T.tocsr()
    _, u, matvecs = _top_eigenpair(lambda x: Sh @ (S @ x),
                                   np.ones(m, np.result_type(S.dtype, np.float64)),
                                   "symbol", tol=SYMBOL_TOL)
    return u, matvecs


def _chebyshev_filtered(apply_op, v0: np.ndarray, degree: int) -> np.ndarray:
    """The start v0 of a top-eigenvalue run on a Hermitian positive
    operator A, filtered: T_degree(B) v0, with T the Chebyshev polynomial
    and B = A / e - I, e = (1 - FILTER_MARGIN) rho_0 / 2, which maps
    [0, (1 - FILTER_MARGIN) rho_0] onto [-1, 1], rho_0 the Rayleigh
    quotient of v0.  It applies A ``degree`` times: the first
    application gives both rho_0 and B v0.

    rho_0 is at most the top eigenvalue, so the filter keeps every
    eigencomponent below (1 - FILTER_MARGIN) rho_0 at most its size and
    amplifies those above it the more the higher they lie, the top one
    most (Zhou-Saad, Chebyshev-Davidson).  The three-term recurrence runs
    in place on each application's result and is rescaled by the norm
    of its newest term at every step.  A rho_0 or a filtered vector that
    is not finite raises RuntimeError.
    """
    previous = v0 / np.linalg.norm(v0)
    current = apply_op(previous)
    rho0 = float(np.vdot(previous, current).real)
    if not math.isfinite(rho0):
        raise RuntimeError(f"the Rayleigh quotient of the sigma_max start is {rho0}")
    e = (1.0 - FILTER_MARGIN) * rho0 / 2.0
    current /= e
    current -= previous
    for _ in range(degree - 1):
        following = apply_op(current)
        following /= e
        following -= current
        following *= 2.0
        following -= previous
        scale = np.linalg.norm(following)
        current /= scale
        following /= scale
        previous, current = current, following
    if not np.isfinite(current).all():
        raise RuntimeError("the Chebyshev-filtered sigma_max start is not finite")
    return current


def _lanczos_extremes(system: BlockSystem) -> tuple[float, float, float, int, int, int]:
    """sigma_min, sigma_max, the worse residual and the matvec counts of
    the sigma_max, sigma_min and symbol stages, from the top eigenvalues
    of L^H L and of (L^H L)^{-1} = L^{-1} L^{-H}.

    Both stages run on the system's time-major vectors: L^H L from its
    L and L^H products, and the inverse from its two marches.  The top
    singular vectors of a block Toeplitz L with symbol I - e^{i theta} M
    sit near theta = pi (Boettcher-Grudsky), so the sigma_max run starts
    from the time-major vector
    ((-1)^t sin(pi (t+1) / (N_t+1)))_t kron u, u the top right singular
    vector of I + M (``_symbol_top_vector``, whose applications are the
    symbol count), Chebyshev-filtered on L^H L at degree
    ceil(FILTER_DEGREE_PER_LEVEL N_t) (``_chebyshev_filtered``): the
    filter's products separate the top eigenvalue from its cluster, so
    the Lanczos run, at the same tolerance, needs fewer steps, each of
    which also costs a product in the second pass for the Ritz vector.
    The sigma_max count is the filter's applications plus the run's
    (``_top_eigenpair``, both passes).  The sigma_min run starts from
    the all-ones vector; once (L^H L)^{-1} overflows, in an application,
    an alpha, a beta or the residual, that run stops and sigma_min is 0,
    with the sigma_max stage's residual and the applications made.
    ``singular_extremes`` runs the whole path inside
    ``_blas.one_thread``.
    """
    u, mv_symbol = _symbol_top_vector(system.M)
    t = np.arange(system.levels)
    wave = (-1.0) ** t * np.sin(np.pi * (t + 1) / (system.levels + 1))

    def gram(x):
        return system.apply_h(system.apply(x))

    mv_filter = math.ceil(FILTER_DEGREE_PER_LEVEL * system.levels)
    start = _chebyshev_filtered(gram, np.kron(wave, u), mv_filter)
    lam, res_max, mv_max = _top_eigenvalue(gram, start, "sigma_max")
    try:
        mu, res_min, mv_min = _top_eigenvalue(
            lambda x: system.solve(system.solve_h(x)),
            np.ones(system.order, system.dtype), "sigma_min")
    except _NotFinite as exc:
        res_min, mv_min = math.inf, exc.made
    if not math.isfinite(res_min):
        # an overflow of (L^H L)^{-1} or of its residual's norm proves
        # sigma_min < 1e-77, below the singularity flag's bound at every
        # sigma_max >= 1, which the last level's unit columns give
        mu, res_min = math.inf, res_max
    return (1.0 / math.sqrt(mu), math.sqrt(lam), float(np.maximum(res_max, res_min)),
            mv_filter + mv_max, mv_min, mv_symbol)


def singular_extremes(system: BlockSystem) -> SpectrumReport:
    """Compute sigma_min, sigma_max, kappa and sparsity of a space-time
    system's matrix L.

    Systems of order up to ``DENSE_CAP`` (192, the measured cost
    crossover of the two paths) are decomposed densely, by
    ``_singular_values`` of the system's ``L``: numpy's LAPACK, like
    every dense SVD of this module.  Above the cap, the module's own
    no-restart Lanczos (``_top_eigenpair``) on L^H L gives sigma_max,
    started from the symbol's top mode, Chebyshev-filtered, and on
    (L^H L)^{-1} = L^{-1} L^{-H} gives sigma_min (``_lanczos_extremes``):
    L, L^H, L^{-1} and L^{-H} are applied from the one-step block M, so
    this path builds no ``L`` and factors nothing.  Both paths run
    inside ``_blas.one_thread``, every loaded OpenBLAS at one thread, so
    no bit depends on the thread count.  The sparsity comes from M on
    both paths.  A system whose (L^H L)^{-1} overflows is singular to
    working precision.  An argument that is not a ``BlockSystem`` raises
    TypeError, a system of order 0 ValueError, and a Lanczos run that
    reaches its step cap, a filtered start or an application of L^H L
    that is not finite RuntimeError.
    """
    if not isinstance(system, BlockSystem):
        raise TypeError(
            f"singular_extremes takes a BlockSystem, got {type(system).__name__}")
    order = system.order
    if order == 0:
        raise ValueError("system must be nonempty")

    with one_thread():
        if order <= DENSE_CAP:
            method = "dense"
            values = _singular_values(system.L.toarray())
            sigma_min, sigma_max = float(values[-1]), float(values[0])
            residual = 0.0
            matvecs = (0, 0, 0)
        else:
            method = "iterative"
            sigma_min, sigma_max, residual, *matvecs = _lanczos_extremes(system)

    # singular to working precision: flag rather than divide
    if sigma_min <= np.finfo(float).eps * order * sigma_max:
        sigma_min, kappa = 0.0, float("inf")
    else:
        kappa = sigma_max / sigma_min
    return SpectrumReport(sigma_min, sigma_max, kappa, system.sparsity, method,
                          residual, *matvecs, system.rescaled)


def alpha_bound(epsilon: float, tau: float, N: int) -> float:
    """Closed-form bound on the frequency-domain perturbation norm.

    Three-term expression in eps, tau and sqrt(N); every term carries a
    factor eps^2, so the bound vanishes as eps -> 0 and is exactly 0 at
    eps = 0.  Where a term leaves the float range (eps above about 1e77
    at tau ~ 1) it raises ValueError.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    try:
        e2 = epsilon**2
        root_n = np.sqrt(N)
        term1 = e2 / (tau + e2) * (root_n * tau + root_n + tau + 1.0 / tau)
        term2 = e2 * (1.0 - e2) / (e2 + tau) ** 2 * (1.0 + tau)
        term3 = (
            e2 * (e2 + 2.0 * tau + tau**2) / (tau * (e2 + tau) ** 2)
            * root_n * (1.0 + 1.0 / tau)
        )
        alpha = float(term1 + term2 + term3)
    except OverflowError:
        alpha = math.inf
    if not math.isfinite(alpha):
        raise ValueError(f"alpha leaves the float range at epsilon = {epsilon}")
    return alpha


@dataclass
class PerturbationReport:
    """Frequency sweep of the perturbation between L~_eps and its limit.

    Per sampled frequency: the 2-norm of E = L~_eps - L~_0 and the
    extreme singular values of both matrices.  ``symbols`` holds the
    per-node symbols of every frequency, each field of shape (n_xi, N):
    row i is xi[i], in node order.  ``max_ratio`` is the largest
    ||E|| / alpha(eps); ``weyl_slack`` the largest violation of the
    singular-value sandwich (nonpositive when it holds exactly).
    """

    epsilon: float
    alpha: float
    xi: np.ndarray
    symbols: FourierSymbols
    e_norms: np.ndarray
    sigma_max_eps: np.ndarray
    sigma_min_eps: np.ndarray
    sigma_max_zero: np.ndarray
    sigma_min_zero: np.ndarray
    max_ratio: float
    weyl_slack: float


def _real_form(X: np.ndarray) -> np.ndarray:
    """The real block D^H X D, with D = diag(I_N, i I_N), of a 2N x 2N
    block X (or a stack of them) whose diagonal blocks are real and
    whose off-diagonal blocks are purely imaginary:

        D^H X D = [[Re X11, -Im X12], [Im X21, Re X22]].

    D kron I is unitary, so I + (D^H X D) kron P has the singular values
    of I + X kron P.  Raises ValueError if a dropped part is nonzero.
    """
    n = X.shape[-1] // 2
    X11, X12 = X[..., :n, :n], X[..., :n, n:]
    X21, X22 = X[..., n:, :n], X[..., n:, n:]
    if (X11.imag.any() or X22.imag.any()
            or X12.real.any() or X21.real.any()):
        raise ValueError("block is not real on its diagonal blocks and "
                         "imaginary off them")
    out = np.empty(X.shape, dtype=float)
    out[..., :n, :n] = X11.real
    # not np.negative(..., out=...): numpy 2.4.6 writes -0.0 for all but
    # the first block of a stack of 1 x 1 blocks that way
    out[..., :n, n:] = -X12.imag
    out[..., n:, :n] = X21.imag
    out[..., n:, n:] = X22.real
    return out


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """The singular values of every matrix of a stack ``(..., m, n)``, in
    descending order: one ``np.linalg.svd`` gufunc call, which runs
    numpy's LAPACK gesdd on each matrix and, above a small stack size,
    releases the GIL while it does."""
    return np.linalg.svd(stack, compute_uv=False)


# numpy releases the GIL in a ``_singular_values`` call only when the stack
# count times the order exceeds this: measured on numpy 2.4.6, a stack of 4
# at order 128 released it and one of 3 did not, one matrix of order 600
# did and one of order 400 did not, and a stack of 2 at order 250 did not
GIL_RELEASE_SIZE = 500


def _frequency_extremes(blocks: np.ndarray, N_t: int,
                        pool: ThreadPoolExecutor) -> tuple[np.ndarray, np.ndarray]:
    """sigma_max and sigma_min of I + X kron P for every block X of the
    stack ``blocks``, in stack order.

    The blocks are expanded and decomposed in chunks on the workers of
    ``pool``, each chunk one ``frequency_matrix`` stack and one
    ``_singular_values`` call, so each worker holds one chunk of
    matrices at a time.  A chunk is the smallest stack whose
    decomposition releases the GIL (``GIL_RELEASE_SIZE``).
    """
    chunk = GIL_RELEASE_SIZE // (blocks.shape[-1] * N_t) + 1

    def decompose(start):
        return _singular_values(frequency_matrix(blocks[start:start + chunk], N_t))[:, [0, -1]]

    extremes = np.concatenate(list(pool.map(decompose, range(0, blocks.shape[0], chunk))))
    return extremes[:, 0], extremes[:, 1]


def _stacked_blocks(cfg: GridConfig, rule: QuadratureRule, xi_values: np.ndarray):
    """The per-xi work of ``perturbation_check`` below order 2N*N_t, on
    the stack of all xi at once: the symbols, the real forms of the
    X_eps blocks, the ||E|| values and the order-2 reduced limit blocks
    Q^T X_zero Q.  Each complex stack is dropped as soon as its real
    form is made, so no later step holds both."""
    fm = assemble_fourier_matrix(cfg, rule, xi_values)
    symbols, X_eps, X_zero = fm.symbols, fm.X_eps, fm.X_zero
    del fm
    X_eps = _real_form(X_eps)
    X_zero = _real_form(X_zero)
    shift_norm = 1.0 if cfg.N_t > 1 else 0.0
    e_norms = _singular_values(X_eps - X_zero)[:, 0] * shift_norm
    # column 0 of X_zero is u scaled by the weight w_1 > 0
    basis = np.empty(X_zero.shape[:-1] + (2,))
    basis[..., 0] = X_zero[..., 0]
    basis[..., 1] = np.concatenate([rule.weights, np.zeros(cfg.N)])
    Q = np.linalg.qr(basis)[0]
    return symbols, X_eps, e_norms, np.swapaxes(Q, -1, -2) @ X_zero @ Q


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
    solver bug and raises RuntimeError.  ``xi_values`` must be a
    nonempty 1-D array of finite values and ``weyl_tolerance`` finite
    and nonnegative, else ValueError, before any decomposition.

    One ``assemble_fourier_matrix`` call gives the blocks of every xi,
    and the per-block work runs on the whole stack at once.  Both
    blocks are taken to real form by the unitary similarity diag(I, iI)
    (``_real_form``), so every SVD runs in real arithmetic, and
    ||E|| = ||X_eps - X_zero||_2 ||P||_2 comes from the stacked 2N x 2N
    differences, with ||P||_2 = 1 for N_t >= 2 and 0 for N_t = 1.  The
    limit block is rank one, X_zero = u z^T with z = [w; 0]; with Q an
    orthonormal basis of span(u, z), L~_0 maps range(Q kron I) into
    itself and is the identity on its complement, so its singular
    values are those of the order-2*N_t matrix I + (Q^T X_zero Q) kron P,
    plus the value 1 when N >= 2.  Only the frequency matrices, of
    order 2N*N_t and 2*N_t, are built, a chunk of xi at a time on each
    of two pool workers (``_frequency_extremes``), where a stack of
    every xi would grow by a whole matrix per xi; the stacked blocks and
    symbols grow by a few 2N x 2N blocks.  An exception of a worker
    reaches the caller unchanged.  Every SVD runs on numpy's LAPACK
    inside ``_blas.one_thread`` (every OpenBLAS at one thread), entered
    before the pool starts and left once the pool is joined.
    """
    xi_values = np.asarray(xi_values, dtype=float)
    if xi_values.ndim != 1:
        raise ValueError(
            f"xi_values must be a 1-D array, got shape {xi_values.shape}")
    if xi_values.size == 0:
        raise ValueError("xi_values must be nonempty")
    if not np.isfinite(xi_values).all():
        raise ValueError("xi_values must be finite")
    if not (math.isfinite(weyl_tolerance) and weyl_tolerance >= 0):
        raise ValueError(
            f"weyl_tolerance must be finite and nonnegative, got {weyl_tolerance}")

    # parallel across frequencies, not inside BLAS: one thread each
    with one_thread(), ThreadPoolExecutor(2) as pool:
        symbols, X_eps, e_norms, reduced = _stacked_blocks(cfg, rule, xi_values)
        smax_e, smin_e = _frequency_extremes(X_eps, cfg.N_t, pool)
        smax_0, smin_0 = _frequency_extremes(reduced, cfg.N_t, pool)
    if cfg.N > 1:
        # the 1s of the complement; unit triangular up to a permutation,
        # the reduced matrix has singular values multiplying to 1, so
        # this moves an extreme by rounding at most
        np.maximum(smax_0, 1.0, out=smax_0)
        np.minimum(smin_0, 1.0, out=smin_0)

    upper_violation = smax_e - (smax_0 + e_norms)
    lower_violation = (smin_0 - e_norms) - smin_e
    weyl_slack = float(max(upper_violation.max(), lower_violation.max()))
    # a NaN slack fails too
    if not weyl_slack <= weyl_tolerance:
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
        symbols=symbols,
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


def scaling_regression(points) -> RegressionResult:
    """Fit value ~ C * size^slope from (size, value) pairs.

    Requires at least four points, each with a finite size and value,
    whose sizes span a factor of four, so a slope is actually
    identifiable.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points, got {len(pts)}")
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"sizes and values must be finite, got the point ({x!r}, {y!r})")
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
