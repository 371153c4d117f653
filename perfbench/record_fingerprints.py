"""Write perfbench/fingerprints.json: the final-slice fingerprint of every
benchmark solve at amplitude 1, at full and smoke size.

The stored values are the solver gate: a change to the solver must
reproduce them to within 1e-8. Regenerate them only from a commit whose
solver is the accepted reference, never to make a failing gate pass.

    python3 perfbench/record_fingerprints.py
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from plaplab import solver  # noqa: E402


def main() -> None:
    out = {}
    for smoke in (False, True):
        for name in ("solve-1d", "solve-nd"):
            for case in workloads.solve_cases(name, smoke):
                u = solver.solve(*case.inputs(1.0))
                out[("smoke/" if smoke else "") + case.key] = workloads.fingerprint(u)
    path = HERE / "fingerprints.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(out)} fingerprints to {path}")


if __name__ == "__main__":
    main()
