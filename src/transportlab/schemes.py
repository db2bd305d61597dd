"""One object per time-stepping scheme, fetched once by :func:`scheme_for`.

The methods call the scheme modules' functions through the module at
call time, so a wrapper installed on a module attribute sees every call.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager

from . import ap_scheme, assembly, explicit_scheme, model, quadrature
from .model import AP, EXPLICIT

__all__ = ["SCHEMES", "Scheme", "scheme_for", "trajectory_csv", "write_trajectory_csv"]


class Scheme:
    """What one scheme supplies: its velocity rule, initial field,
    stepper, density, trajectory rows, space-time system and the
    closed-form cost pair of its resolution rule."""

    name: str
    trajectory_header: tuple[str, ...]

    def rule(self, cfg):
        """Gauss rule on the scheme's velocity nodes."""
        grid = model.SCHEME_GRIDS[self.name]
        return quadrature.gauss_rule(grid.velocity_factor * cfg.N, *grid.rule_interval)

    def assemble(self, cfg, rescaled: bool, order_cap: int = assembly.ORDER_CAP_DEFAULT):
        """Space-time system L S = F started from the initial field."""
        rule = self.rule(cfg)
        return self.system(cfg, rule, self.initial(cfg, rule), rescaled, order_cap)

    def closed_form(self, cfg, delta: float):
        """(classical, quantum) cost expressions, or (None, None)."""
        return None, None


class _Relaxation(Scheme):
    name = AP
    trajectory_header = ("step", "k", "m", "r", "j")

    def initial(self, cfg, rule):
        return model.initial_parity_field(cfg, rule)

    def evolve(self, initial, cfg, rule, on_level=None):
        return ap_scheme.ap_evolve(initial, cfg, rule, on_level)

    def density(self, level, rule):
        return model.density(level, rule)

    def trajectory_rows(self, step, level, cfg):
        R, J = level.blocks()
        return ([step, k + 1, m + 1, repr(R[k, m]), repr(J[k, m])]
                for k in range(cfg.N) for m in range(cfg.N_x))

    def system(self, cfg, rule, initial, rescaled, order_cap):
        return assembly.assemble_ap_system(cfg, rule, initial, rescaled=rescaled,
                                           order_cap=order_cap)

    def split(self, system, S):
        return assembly.split_ap_solution(system, S)


class _Upwind(Scheme):
    name = EXPLICIT
    trajectory_header = ("step", "k", "m", "f")

    def initial(self, cfg, rule):
        return model.initial_kinetic_field(cfg, rule)

    def evolve(self, initial, cfg, rule, on_level=None):
        return explicit_scheme.explicit_evolve(initial, cfg, rule, on_level)

    def density(self, level, rule):
        return 0.5 * (level.blocks() @ rule.weights)

    def trajectory_rows(self, step, level, cfg):
        F = level.blocks()
        labels = [*range(-cfg.N, 0), *range(1, cfg.N + 1)]  # velocity labels skip 0
        return ([step, labels[idx], m + 1, repr(F[m, idx])]
                for m in range(cfg.N_x) for idx in range(2 * cfg.N))

    def system(self, cfg, rule, initial, rescaled, order_cap):
        # the tau-rescaling is the relaxation system's; this one has no variant
        return assembly.assemble_explicit_system(cfg, rule, initial, order_cap=order_cap)

    def split(self, system, S):
        return assembly.split_explicit_solution(system, S)

    def closed_form(self, cfg, delta):
        """N^2 eps^-3 delta^-1 and N^2 eps^-2 log2(1/(eps*delta))."""
        return (cfg.N**2 * cfg.epsilon**-3 / delta,
                cfg.N**2 * cfg.epsilon**-2 * math.log2(1.0 / (cfg.epsilon * delta)))


SCHEMES = {scheme.name: scheme for scheme in (_Relaxation(), _Upwind())}


def scheme_for(cfg) -> Scheme:
    """The scheme object of a configuration."""
    return SCHEMES[cfg.scheme]


@contextmanager
def trajectory_csv(cfg, path):
    """An ``on_level(step, level)`` sink that writes each level's rows as
    it arrives.  The rows go to a temporary file next to ``path``, which
    becomes ``path`` only when the block ends cleanly, so a run that
    diverges part way leaves no partial table."""
    scheme = scheme_for(cfg)
    with model.atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(scheme.trajectory_header)
        yield lambda step, level: writer.writerows(scheme.trajectory_rows(step, level, cfg))


def write_trajectory_csv(trajectory, cfg, path) -> None:
    """Dump every recorded level of a run, one row per grid value."""
    with trajectory_csv(cfg, path) as on_level:
        for step, level in enumerate(trajectory.fields):
            on_level(step, level)
