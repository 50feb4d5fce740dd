#!/usr/bin/env python3
"""Convergence study of the two jet estimators on the commutator template.

For a family of dyadic base steps the finite-difference jet of the
Martinet commutator curve (off the degenerate plane) is compared against
the derivative-transport value (exact up to integrator roundoff).  Prints a CSV table to stdout:
columns s0, fd_error_j1, fd_error_j2, and the order-2 residual slope.
"""

import numpy as np

from geocon.fields import negate_field, as_point, vector_field
from geocon.variations import (
    bracket_variation,
    residual_slope,
    variation_curve,
    _fd_jets,
    _taylor_jets,
)

XYZ = ("x1", "x2", "x3")


def main():
    X1 = vector_field(XYZ, ["1", "0", "0"])
    X2 = vector_field(XYZ, ["0", "1", "x1^2"])
    x = as_point([0.5, -0.2, 0.05])
    legs = ((X1, -1.0), (negate_field(X2), 1.0), (X1, 1.0), (X2, 1.0))

    def curve(s):
        return variation_curve(legs, x, s, step=1e-2)

    exact = _taylor_jets(curve, 2)
    print("s0,fd_error_j1,fd_error_j2")
    for s0 in (0.2, 0.1, 0.05, 0.025):
        fd = _fd_jets(curve, 2, s0)[0]
        e1 = float(np.linalg.norm(fd[0] - exact[0]))
        e2 = float(np.linalg.norm(fd[1] - exact[1]))
        print(f"{s0},{e1:.3e},{e2:.3e}")

    pv = bracket_variation(X1, X2, x)
    print(f"# order-2 residual slope at {x.coords.tolist()}: {residual_slope(pv):.3f}")


if __name__ == "__main__":
    main()
