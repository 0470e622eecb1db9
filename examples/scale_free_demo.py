#!/usr/bin/env python3
"""Scale-free demonstration: table sizes as the aspect ratio explodes.

The headline property of the paper: previous name-independent schemes store
``Õ(n^{1/k} · log Δ)`` bits per node, so a network whose weights span twelve
orders of magnitude (think: latencies from nanoseconds to minutes) blows up
their tables; the AGM scheme's storage is independent of Δ.

This example takes one topology, rescales its weights to hit increasing
aspect ratios, and prints the measured per-node table size of the AGM scheme
next to the Awerbuch–Peleg-style hierarchical scheme.

Run with ``python examples/scale_free_demo.py``.
"""

from repro.experiments.matrix.kinds import run_scale_free
from repro.experiments.reporting import format_series, format_table


def main() -> None:
    result = run_scale_free(quick=True, seed=0, k=2, deltas=[1e2, 1e4, 1e6, 1e9])
    print(format_table(
        result.rows,
        columns=["scheme", "target_delta", "measured_delta", "max_table_bits",
                 "max_stretch", "failures"],
        title="table size vs aspect ratio"))
    for scheme in ("agm", "awerbuch-peleg"):
        rows = result.filter(scheme=scheme)
        print(format_series(
            [f'{float(r["target_delta"]):.0e}' for r in rows],
            [float(r["max_table_bits"]) for r in rows],
            x_label="aspect ratio", y_label="max table bits",
            title=f"{scheme}"))
    agm = [float(r["max_table_bits"]) for r in result.filter(scheme="agm")]
    ap = [float(r["max_table_bits"]) for r in result.filter(scheme="awerbuch-peleg")]
    print(f"AGM growth across the sweep:             x{agm[-1] / agm[0]:.2f}")
    print(f"Awerbuch-Peleg growth across the sweep:  x{ap[-1] / ap[0]:.2f}")


if __name__ == "__main__":
    main()
