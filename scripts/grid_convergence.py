#!/usr/bin/env python3
"""Observed-order study for the solver against both reference solutions.

Heat eigenmode (p = 2): sup-norm error under joint (h, dt ~ h^2) refinement.
Self-similar profile (p = 3): interior semi-discrete residual under
h-refinement, masked away from the support edge and the central cusp.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plaplab.grids import SpaceTimeGrid  # noqa: E402
from plaplab.solver import (  # noqa: E402
    BoundarySpec,
    SolveConfig,
    SourceSpec,
    barenblatt_support_radius,
    reference_solutions,
    semi_discrete_residual,
    solve,
)


def eigenmode_study(hs=(1 / 32, 1 / 64, 1 / 128, 1 / 256)):
    """Print the sup error at each h; return the errors."""
    print("heat eigenmode, dt = h^2/2, T ~ 0.05")
    errs = []
    for h in hs:
        dt = 0.5 * h * h
        steps = round(0.05 / dt)
        g = SpaceTimeGrid(n=1, extent=1.0, h=h, dt=dt, t_start=0.0, t_end=steps * dt)
        mode = reference_solutions("heat_mode", 2.0, 1, g)
        cfg = SolveConfig(p=2.0, boundary=BoundarySpec(kind="zero"))
        u = solve(g, cfg, SourceSpec(kind="zero"), mode.values[0])
        err = float(np.max(np.abs(u.values[-1] - mode.values[-1])))
        order = f"  order {np.log2(errs[-1] / err):5.2f}" if errs else ""
        print(f"  h = 1/{round(1 / h):4d}   sup error = {err:.3e}{order}")
        errs.append(err)
    return errs


def self_similar_study(hs=(1 / 32, 1 / 64, 1 / 128)):
    """Print the windowed interior residual at each h; return the residuals."""
    print("degenerate self-similar profile (p = 3), interior residual")
    errs = []
    for h in hs:
        g = SpaceTimeGrid(n=1, extent=4.0, h=h, dt=h * h, t_start=1.0, t_end=1.0 + 32 * h * h)
        u = reference_solutions("barenblatt", 3.0, 1, g)
        res = semi_discrete_residual(u, 3.0)
        x = g.axis_nodes()
        rad = barenblatt_support_radius(g.t_start, 3.0, 1)
        window = (np.abs(x) > 0.15 * rad) & (np.abs(x) < 0.8 * rad)
        err = float(np.max(np.abs(res.values[1:-1][:, window])))
        order = f"  order {np.log2(errs[-1] / err):5.2f}" if errs else ""
        print(f"  h = 1/{round(1 / h):4d}   residual  = {err:.3e}{order}")
        errs.append(err)
    return errs


if __name__ == "__main__":
    eigenmode_study()
    self_similar_study()
