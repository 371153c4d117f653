#!/usr/bin/env python3
"""Sharp exponent along the epsilon-layers of the borderline integrability sets.

Prints the degenerate-branch decay to 0 and the singular-branch climb to the
homogeneous ceiling, with the constructed (q, r) for each layer.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from plaplab.exponents import ProblemParams, epsilon_layers  # noqa: E402

SWEEP = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)


def table(params, s, branch):
    """Print the layer table of one branch; return its reports."""
    reps = [epsilon_layers(params, s, eps, branch) for eps in SWEEP]
    print(f"\n{branch} branch  (p={params.p}, n={params.n}, s={s}, alpha_h={params.alpha_h})")
    print(f"{'eps':>7} {'q':>10} {'r':>10} {'alpha_eps':>11} {'closed form':>12}")
    for eps, rep in zip(SWEEP, reps):
        closed = "" if rep.alpha_closed_form is None else f"{rep.alpha_closed_form:12.6f}"
        print(f"{eps:7.3f} {rep.q:10.3f} {rep.r:10.3f} {rep.alpha_eps:11.6f} {closed:>12}")
    return reps


if __name__ == "__main__":
    table(ProblemParams(p=3.0, n=2, q=8.0, r=8.0, alpha_h=1.0), s=0.5, branch="degenerate")
    table(ProblemParams(p=1.5, n=2, q=8.0, r=8.0, alpha_h=1.0), s=0.5, branch="singular")
