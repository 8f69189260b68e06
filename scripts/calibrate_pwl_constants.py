"""Calibrate the piecewise-linear projection constants.

Measures, over a family of smooth functions and a range of mesh widths,
the worst ratios

    C0~ = sup ||P_h w - w||_inf  / (h^(3/2) * max-cell H4 norm of w)
    C1~ = sup ||(P_h w - w)'||_inf / (h^(1/2) * max-cell H4 norm of w)

plus the sharp inverse-inequality constants on the single-ramp extremal.
The printed values (with a 1.5x safety factor on the tilde constants) are
frozen into tracereg.pwl; rerun after changing the projection.
"""

import numpy as np

from tracereg.datagen import cell_sup_norm, squared_running_integrals
from tracereg.func1d import UNIT, GridFunction
from tracereg.pwl import project_L2

FINE_N = 7681   # divisible by every mesh below


def family():
    pi = np.pi
    for k in (1, 2, 3, 4):
        yield (f"sin{k}", lambda s, k=k: np.sin(k * pi * s),
               lambda s, k=k: k * pi * np.cos(k * pi * s),
               [lambda s, k=k, j=j: (k * pi) ** j * np.sin(k * pi * s + j * pi / 2)
                for j in range(2, 5)])
    yield ("cubic", lambda s: s**3 - 0.4 * s,
           lambda s: 3 * s**2 - 0.4,
           [lambda s: 6 * s, lambda s: 6 * np.ones_like(s),
            lambda s: np.zeros_like(s)])
    yield ("wave", lambda s: s + 0.125 / pi * (np.cos(4 * pi * s) - 1),
           lambda s: 1 - 0.5 * np.sin(4 * pi * s),
           [lambda s: -2 * pi * np.cos(4 * pi * s),
            lambda s: 8 * pi**2 * np.sin(4 * pi * s),
            lambda s: 32 * pi**3 * np.cos(4 * pi * s)])


def main():
    s = UNIT.grid(FINE_N)
    worst0, worst1 = 0.0, 0.0
    for n_cells in (8, 16, 32, 64, 128):
        h = 1.0 / n_cells
        for name, f, df, higher in family():
            w = GridFunction(UNIT, f(s))
            p = project_L2(n_cells, w)
            running = squared_running_integrals(
                s, [f(s), df(s)] + [d(s) for d in higher])
            h4 = cell_sup_norm(s, running, n_cells)
            err_sup = np.abs(p(s) - f(s)).max()
            slopes = np.diff(p.values) / p.spacing
            idx = np.clip((s * n_cells).astype(int), 0, n_cells - 1)
            derr_sup = np.abs(slopes[idx] - df(s)).max()
            r0 = err_sup / (h**1.5 * h4)
            r1 = derr_sup / (h**0.5 * h4)
            worst0, worst1 = max(worst0, r0), max(worst1, r1)
    print(f"measured C0~ = {worst0:.4f}  -> freeze {1.5 * worst0:.4f}")
    print(f"measured C1~ = {worst1:.4f}  -> freeze {1.5 * worst1:.4f}")
    print("inverse-inequality sharp constants: C0' = C1' = sqrt(3) =", np.sqrt(3.0))


if __name__ == "__main__":
    main()
