"""Reference implementation of the phase-space line integral, kept as a test oracle.

``radon_line_integral_reference`` is the earlier line integral: it samples
the Wigner map along every line through ``scipy.interpolate``'s
``RegularGridInterpolator`` (bilinear, zero outside the map), sums each
line with ``np.trapezoid``, and clips the values of a flagged map at 0.
The library's Fourier-slice route matches closed forms to rounding, so
the two differ by the oracle's bilinear error, about
(mu^2 dx^2 + nu^2 dp^2)/12 * |R''| for a step well below the map spacing.
"""

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from symtomo.grids import Grid1D
from symtomo.metaplectic import RotationParams
from symtomo.radon import Tomogram, _resolve_x_grid


def radon_line_integral_reference(w, mu, nu, x_grid=None, step_fraction=0.5):
    lam = RotationParams(mu, nu).lam
    gx, gp = w.x_grid, w.p_grid
    base = Grid1D(gx.x_min, gx.n_points, gx.dx, w.hbar)
    start, step, count = _resolve_x_grid(x_grid, lam, base)
    x_out = start + step * np.arange(count)

    ds = step_fraction * min(gx.dx, gp.dx)
    half_diag = 0.5 * np.hypot(gx.x_max - gx.x_min, gp.x_max - gp.x_min)
    n_s = int(np.ceil(2 * half_diag / ds)) + 1
    s = np.linspace(-half_diag, half_diag, n_s)

    interp = RegularGridInterpolator(
        (gx.points, gp.points), w.values, method="linear",
        bounds_error=False, fill_value=0.0,
    )
    values = np.empty(count)
    block = max(1, int(4e6 / n_s))
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        xs = (mu * x_out[lo:hi, None] / lam**2) - (nu / lam) * s[None, :]
        ps = (nu * x_out[lo:hi, None] / lam**2) + (mu / lam) * s[None, :]
        vals = interp(np.stack([xs, ps], axis=-1))
        values[lo:hi] = np.trapezoid(vals, dx=s[1] - s[0], axis=1) / lam
    warn = w.accuracy_warning or w.edge_decay() > 1e-10
    if warn:
        np.clip(values, 0.0, None, out=values)
    return Tomogram(mu, nu, x_out, values, w.hbar,
                    route="line-integral", accuracy_warning=warn)
