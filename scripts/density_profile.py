#!/usr/bin/env python3
"""Plot-free profile of the area-ratio density for cuspidal curves.

Prints nu(r) for t -> (t^u, t^v) on a geometric ladder of radii, showing the
monotone approach to the multiplicity u as r -> 0.  Each printed value is
rounded from a certified lower bound within 10^-12 of the true density.
"""

import argparse
from fractions import Fraction

from posbounds.lelong import ParamCurve, lelong_numeric


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--u", type=int, default=2)
    parser.add_argument("--v", type=int, default=3)
    parser.add_argument("--steps", type=int, default=6)
    args = parser.parse_args()

    radii = [Fraction(1, 10**k) for k in range(1, args.steps + 1)]
    curve = ParamCurve(args.u, args.v)
    print(f"curve t -> (t^{args.u}, t^{args.v}), expected multiplicity {args.u}")
    for r, nu in lelong_numeric(curve, radii):
        print(f"  r = {float(r):<8g}  nu(r) = {float(nu):.6f}")


if __name__ == "__main__":
    main()
