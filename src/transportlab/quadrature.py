"""Gauss-Legendre quadrature for the velocity variable.

The parity-based relaxation solver integrates over v in [0, 1] with an
N-point rule; the explicit upwind solver integrates over v in [-1, 1]
with a symmetric 2N-point rule.  Both come out of :func:`gauss_rule`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_rule"]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a Gauss-Legendre rule on ``[a, b]``.

    An n-point rule integrates polynomials of degree up to 2n - 1
    exactly.  Nodes are strictly increasing and strictly inside the
    interval; weights are positive and sum to the interval length.
    Rules are equal, and hash alike, when their nodes and weights are
    the same float64 values bit for bit, so a rule can key a cache.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def _key(self) -> tuple[bytes, bytes]:
        return (np.asarray(self.nodes, float).tobytes(),
                np.asarray(self.weights, float).tobytes())

    def __eq__(self, other):
        return self is other or (isinstance(other, QuadratureRule)
                                 and self._key() == other._key())

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n_points(self) -> int:
        return int(self.nodes.size)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of samples taken at the rule's nodes."""
        return float(np.dot(self.weights, values))


def _legendre(n: int, x: float) -> tuple[float, float]:
    """Evaluate P_n and its derivative at x via the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_rule(n_points: int, a: float, b: float) -> QuadratureRule:
    """Build the n-point Gauss-Legendre rule on ``[a, b]``.

    Roots of the Legendre polynomial are found one at a time by Newton
    iteration on Python floats, seeded with the Chebyshev-angle
    estimates; only half the roots are computed and the rest mirrored,
    so rules on symmetric intervals are exactly symmetric
    (v_{-k} = -v_k, w_{-k} = w_k).

    Parameters
    ----------
    n_points : int
        Number of nodes, at least 1; a bool is not a count.
    a, b : float
        Interval endpoints, real and finite, a < b; a bool is not an
        endpoint.

    Raises
    ------
    ValueError
        If ``n_points`` is not an integer or is below 1, an endpoint is
        not a finite real number, ``a >= b``, the length ``b - a`` or
        the sum ``a + b`` overflows, or the rule does not fit the
        interval in float64.
    """
    if not isinstance(n_points, numbers.Integral) or isinstance(n_points, bool):
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    for name, value in (("a", a), ("b", b)):
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(f"endpoint {name} must be a real number, got {value!r}")
    try:
        a, b = float(a), float(b)
    except OverflowError:  # an int or a Fraction beyond the float range
        raise ValueError(f"interval endpoints must be finite, got ({a}, {b})") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval endpoints must be finite, got ({a}, {b})")
    if a >= b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    # the midpoint and half-length below; Python floats give inf, not a warning
    if not (math.isfinite(b - a) and math.isfinite(a + b)):
        raise ValueError(f"the interval [{a}, {b}] leaves the float range: "
                         f"its length or midpoint overflows")

    n = int(n_points)
    ref_nodes = np.empty(n)
    ref_weights = np.empty(n)

    if n == 1:
        ref_nodes[0] = 0.0
        ref_weights[0] = 2.0
    else:
        half = (n + 1) // 2
        for i in range(half):
            z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
            converged = False
            for _ in range(_NEWTON_MAX_ITER):
                p, dp = _legendre(n, z)
                dz = p / dp
                z -= dz
                if abs(dz) <= _NEWTON_TOL:
                    converged = True
                    break
            if not converged:
                raise RuntimeError(
                    f"Legendre root {i} failed to converge for n={n}"
                )
            _, dp = _legendre(n, z)
            w = 2.0 / ((1.0 - z * z) * dp ** 2)
            # z runs from the largest positive root downwards; mirror it
            ref_nodes[i] = -z
            ref_nodes[n - 1 - i] = z
            ref_weights[i] = w
            ref_weights[n - 1 - i] = w

    mid = 0.5 * (a + b)
    scale = 0.5 * (b - a)
    nodes = mid + scale * ref_nodes
    weights = scale * ref_weights
    if not (a < nodes[0] and nodes[-1] < b and (np.diff(nodes) > 0.0).all()
            and (weights > 0.0).all()):
        raise ValueError(f"the interval [{a}, {b}] is too short for n_points = {n} in "
                         f"float64: nodes not strictly increasing inside it, or a weight is 0")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)
