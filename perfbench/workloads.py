"""Seeded inputs of the four benchmark workloads.

Grid sizes are fixed, so the work of a pass does not depend on the seed.
The seed only jitters each nominal epsilon log-uniformly within +-0.1
decade (capped at 1, because phi = 1 needs eps <= 1) and draws the
Dirichlet inflow values bc_left/bc_right from [0, 1).

solve     All time in the two steppers; assembly and spectral do none.
          The relaxation run keeps all 801 levels (about 420 MB), so a
          streaming evolve shows in peak RSS here and nowhere else.
spectrum  Three systems above the dense cap, on the iterative path.
          Case (a) fails today: power iteration misses its 1e-10
          residual in 10k iterations (exit 3).  It stays in at its size
          so the failure is counted, not hidden.
sweep     The kappa-vs-eps table: seven dense SVDs of order 1024 plus a
          counts-only CFL-driven sweep.  The iterative path never runs.
fourier   The only user of the per-frequency layer: 64 frequencies at
          three values of eps.

``smoke=True`` gives the same invocations at tiny sizes, for checking
the harness itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("solve", "spectrum", "sweep", "fourier")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its config file contents and extra arguments.

    ``epsilons`` lists a sweep's values, one operation each.
    """

    label: str
    subcommand: str
    config: dict
    args: tuple = ()
    epsilons: tuple = ()

    @property
    def operations(self) -> int:
        """What the call counts towards ``attempted``."""
        return len(self.epsilons) or 1


class _Draw:
    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def eps(self, nominal: float) -> float:
        return min(1.0, nominal * 10.0 ** self._rng.uniform(-0.1, 0.1))

    def config(self, scheme: str, epsilon: float, **grid) -> dict:
        return {
            "scheme": scheme,
            "epsilon": epsilon,
            "bc_left": self._rng.random(),
            "bc_right": self._rng.random(),
            **grid,
        }


def _solve(draw, smoke):
    ap = dict(N=4, Nx=32, Nt=20) if smoke else dict(N=32, Nx=1024, Nt=800)
    ex = dict(N=2, Nx=31, Nt=50) if smoke else dict(N=8, Nx=399, Nt=4000)
    return [
        Invocation("ap", "solve", draw.config(
            "ap", draw.eps(1e-3), x_left=0.0, x_right=1.0, tau="auto", **ap)),
        Invocation("explicit", "solve", draw.config(
            "explicit", draw.eps(0.05), x_left=0.0, x_right=1.0, tau="auto", **ex)),
    ]


def _spectrum(draw, smoke):
    # (a) is order 8192 (smoke: 4224, which converges), (b) 12152, (c) 29040
    a = dict(N=4, Nx=16, Nt=33 if smoke else 64, h=0.1, tau=2e-3)
    b = dict(N=2, Nx=16, Nt=16, h=0.05) if smoke else dict(N=4, Nx=49, Nt=31, h=0.02)
    c = dict(N=2, Nx=24, Nt=24, h=0.04) if smoke else dict(N=4, Nx=66, Nt=55, h=0.015)
    return [
        Invocation("a", "spectrum", draw.config("ap", draw.eps(1e-6), **a), ("--rescaled",)),
        Invocation("b", "spectrum", draw.config("explicit", draw.eps(0.2), tau="auto", **b)),
        Invocation("c", "spectrum", draw.config("explicit", draw.eps(0.15), tau="auto", **c)),
    ]


def _sweep(draw, smoke):
    fixed_eps = tuple(draw.eps(10.0**-k) for k in range(7))
    cfl_eps = tuple(draw.eps(e) for e in (0.4, 0.2, 0.1, 0.05))
    fixed_grid = dict(N=2, Nx=4, Nt=8) if smoke else dict(N=4, Nx=8, Nt=16)
    fixed = draw.config("ap", fixed_eps[0], h=0.1, tau=9e-3, **fixed_grid)
    cfl = draw.config("explicit", cfl_eps[0], N=4, Nx=24, Nt=8, h=0.04, tau="auto")
    return [
        Invocation("fixed_grid", "sweep", fixed,
                   ("--mode", "fixed_grid", "--epsilons", ",".join(map(repr, fixed_eps))),
                   epsilons=fixed_eps),
        Invocation("cfl_driven", "sweep", cfl,
                   ("--mode", "cfl_driven", "--no-spectrum",
                    "--epsilons", ",".join(map(repr, cfl_eps))),
                   epsilons=cfl_eps),
    ]


def _fourier(draw, smoke):
    grid = dict(N=2, Nx=4, Nt=4) if smoke else dict(N=4, Nx=8, Nt=16)
    samples = "8" if smoke else "64"
    return [
        Invocation(f"eps_{k}", "fourier",
                   draw.config("ap", draw.eps(10.0**-k), h=0.11, tau=1e-2, **grid),
                   ("--xi-samples", samples))
        for k in (2, 3, 4)
    ]


def build(name: str, seed: int, smoke: bool = False) -> list[Invocation]:
    """The invocations of one pass of workload ``name``."""
    builders = {"solve": _solve, "spectrum": _spectrum,
                "sweep": _sweep, "fourier": _fourier}
    return builders[name](_Draw(seed), smoke)
