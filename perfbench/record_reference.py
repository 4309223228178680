"""Record the GFRF reference values the shallow and nested checks compare with.

Usage, from the repository root (takes about half a minute):

    python3 perfbench/record_reference.py

For every shallow and nested formula, at its workload ``max_order`` and the
default fit configuration, writes to ``perfbench/reference.json``: the term
count per order, the coefficient L1 norm per order (the scale of the check
tolerances), H_n at fixed frequency tuples, the workload grids at fixed
indices, and the cut-off scan's ``omega_star``.  The values in the
repository were recorded at the commit that added this benchmark; re-record
only when a change is meant to alter the responses.
"""

from __future__ import annotations

import json
import sys

from run import load_program
from workloads import (
    CUTOFF_ORDER,
    CUTOFF_POINTS,
    CUTOFF_THRESHOLD,
    DT,
    HERE,
    KERNELS,
    NESTED,
    NESTED_GRIDS,
    OMEGA_MAX,
    SHALLOW,
    SHALLOW_GRIDS,
)

OMEGAS = {
    1: [(0.7,), (3.1,), (9.4,)],
    2: [(0.7, 2.2), (3.1, -1.3), (9.4, 5.0)],
    3: [(0.7, 2.2, -1.3), (3.1, 0.4, 5.0)],
    4: [(0.7, 2.2, -1.3, 3.1), (1.5, -0.6, 4.2, 0.9)],
}
GRID_INDICES = {
    1: [(0,), (17,), (64,), (128,)],
    2: [(0, 0), (17, 40), (64, 64), (128, 3)],
    3: [(0, 0, 0), (3, 8, 2), (8, 8, 8), (5, 0, 7)],
}


def pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def record(bbstl, text: str, max_order: int, grids) -> dict:
    kt = bbstl.signals.load_kernel_table(KERNELS, DT)
    cfg = bbstl.volterra.FitConfig(max_order=max_order)
    g = bbstl.compose.build_formula_operator(
        bbstl.logic.parse_formula(text), kt, cfg).gfrf
    orders = g.to_json()["orders"]
    entry = {
        "max_order": max_order,
        "term_counts": {str(n): c for n, c in g.term_counts().items()},
        "coeff_l1": {n: sum(abs(t["coeff"]) for t in terms)
                     for n, terms in orders.items()},
        "h": {str(n): [{"omega": list(w),
                        "value": pair(g.evaluate(n, w if n > 1 else w[0]))}
                       for w in OMEGAS[n]]
              for n in range(1, max_order + 1)},
        "grids": {},
        "omega_star": bbstl.analysis.cutoff_scan(
            g, CUTOFF_THRESHOLD, OMEGA_MAX, CUTOFF_POINTS,
            CUTOFF_ORDER).omega_star,
    }
    for n, points in grids:
        values = bbstl.analysis.gfrf_grid(g, n, OMEGA_MAX, points).values
        entry["grids"][f"{n}x{points}"] = [
            {"index": list(i), "value": pair(values[i])}
            for i in GRID_INDICES[n]]
    return entry


def main() -> int:
    bbstl = load_program()
    out = {}
    for text in SHALLOW:
        out[text] = record(bbstl, text, 4, SHALLOW_GRIDS)
    for text, max_order in NESTED.items():
        out[text] = record(bbstl, text, max_order, NESTED_GRIDS)
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
