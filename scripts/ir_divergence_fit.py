#!/usr/bin/env python3
"""Demonstrate the infrared log divergence of the undressed functional.

Descends an IR-cutoff ladder, fits Gamma(lambda) = a + b ln(1/lambda), and
compares b against e^2 I_n / (32 pi^3).  The dressed functional goes
through the same fit and comes out flat.
"""

import argparse

from softdeco import (
    CutoffSet,
    InterferometerGeometry,
    closed_forms,
    divergence_coefficient,
)
from softdeco.numerics import E2_ELECTRON


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--l", type=float, default=0.6)
    ap.add_argument("--tau", type=float, default=3.0)
    ap.add_argument("--omega-uv", type=float, default=15.0)
    ap.add_argument("--lambda-top", type=float, default=1e-4)
    ap.add_argument("--rungs", type=int, default=8)
    args = ap.parse_args()

    g = InterferometerGeometry(args.l, args.tau)
    cut = CutoffSet(omega_uv=args.omega_uv, lambda_ir=args.lambda_top)
    want = closed_forms(g, cut).ir_slope

    full = divergence_coefficient(g, cut, variant="full", n_points=args.rungs)
    dressed = divergence_coefficient(g, cut, variant="dressed", n_points=args.rungs)

    print(f"v = {g.v:.4g}, predicted slope b = {want:.8e}")
    print(
        f"full    : b = {full.coefficient:.8e}  "
        f"(rel dev {abs(full.coefficient / want - 1.0):.2e}, R^2 = {full.r_squared:.12f})"
    )
    print(
        f"dressed : b = {dressed.coefficient:.3e}  (flat to |b| < 1e-4 e^2 v^2 = "
        f"{1e-4 * E2_ELECTRON * g.v**2:.3e})"
    )


if __name__ == "__main__":
    main()
