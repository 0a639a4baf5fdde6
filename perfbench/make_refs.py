"""Write the reference values the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run from the root of a checkout.  The references are the exact noisy
(infinite-shot) results of the program on the benchmark grids, with every
float at full precision: `ref/surface_exact.csv` for the surface_exact
workload and `ref/diagonal_exact.csv`, the probabilities that the
diagonal_sampled check draws its 6-sigma bands from.  They were made from
the program as it was when the benchmark was defined; regenerate them only
when the physics is meant to change.
"""

from hardysim.noise import NoiseModel
from hardysim.sweep import (
    diagonal_points,
    diagonal_sweep,
    grid_degrees,
    substitute_singular,
    surface_sweep,
)

import workloads


def write_reference(rows, path) -> None:
    lines = [workloads.CSV_HEADER]
    for r in rows:
        values = (r.theta_deg, r.phi_deg, r.q_theory, r.eps1, r.eps2, r.eps3,
                  r.eps5, r.eps4_estimated, r.stat_err)
        lines.append(",".join(repr(float(v)) for v in values) + "," + r.state_class.kind.value)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    noise = NoiseModel.default_profile()
    # Same grids as the CLI arguments in workloads.SURFACE_ARGS / DIAGONAL_ARGS.
    phis = [float(p) for p in grid_degrees(0.0, 90.0, 5.0)]
    surface = surface_sweep([substitute_singular(p) for p in phis], phis, noise, None)
    diagonal = diagonal_sweep(diagonal_points(0.0, 90.0, 0.25), noise, None)
    workloads.REF_DIR.mkdir(exist_ok=True)
    write_reference(surface, workloads.SURFACE_REF)
    write_reference(diagonal, workloads.DIAGONAL_REF)


if __name__ == "__main__":
    main()
