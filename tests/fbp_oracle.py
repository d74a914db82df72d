"""Reference implementations kept as test oracles.

``inverse_radon_reference`` is the earlier filtered back-projection: a
per-angle hbar-Fourier ramp filter, a chirp-z (CZT) x4 trigonometric
upsample and ``np.interp`` onto the output window.  ``inverse_radon_affine``
computes the same trigonometric interpolant with one real FFT pair per
angle and gathers it by affine index, one angle and one full map at a
time.  The library's FBP shares one index between four samples (angles
theta and pi - theta, points +-(x, p)), so it agrees with the affine
oracle to rounding.  ``save_wigner_csv_reference``,
``save_tomogram_csv_reference`` and ``save_wavefunction_csv_reference`` are
the earlier CSV writers that format one cell at a time with ``%.17g``.
"""

from pathlib import Path

import numpy as np
from scipy.signal import czt

from symtomo.grids import Grid1D, SampledWavefunction, hbar_fourier
from symtomo.radon import GATHER_BLOCK, PAD_FACTOR, UPSAMPLE, _tapered_ramp
from symtomo.wigner import WignerMap, default_momentum_window


def czt_resample(values, x0, dx, start, step, count):
    n = len(values)
    alpha = 2.0 * np.pi / (n * dx)
    shift = start - x0
    fhat = np.fft.fftshift(np.fft.fft(values))
    q = np.arange(n)
    d = fhat * np.exp(1j * alpha * q * shift)
    out = czt(d, m=count, w=np.exp(1j * alpha * step), a=1.0 + 0.0j)
    k = np.arange(count)
    out = out * np.exp(-1j * alpha * (n / 2) * (shift + k * step)) / n
    pts = start + k * step
    outside = (pts < x0 - 0.5 * dx) | (pts > x0 + (n - 0.5) * dx)
    if outside.any():
        out[outside] = 0.0
    return out


def _ramp_filtered(values, x0, dx, n, hbar, taper_start=0.8, pad_factor=8):
    n_pad = pad_factor * n
    lead = (n_pad - n) // 2
    padded = np.zeros(n_pad, dtype=np.complex128)
    padded[lead:lead + n] = values
    grid = Grid1D(x0 - lead * dx, n_pad, dx, hbar)
    spectrum = hbar_fourier(SampledWavefunction(grid, padded), "inverse")
    r = spectrum.grid.points
    r_max = 0.5 * n_pad * spectrum.grid.dx
    ramp = np.abs(r)
    hi = np.abs(r) > taper_start * r_max
    ramp[hi] *= 0.5 * (1 + np.cos(np.pi * (np.abs(r[hi]) - taper_start * r_max)
                                  / ((1 - taper_start) * r_max)))
    filtered = hbar_fourier(
        SampledWavefunction(spectrum.grid, ramp * spectrum.values), "forward")
    return filtered.values.real, grid.x_min


def inverse_radon_reference(tomos, x_grid, p_grid=None, upsample=4):
    if p_grid is None:
        p_grid = default_momentum_window(x_grid)
    hbar = tomos.hbar
    x = tomos.x
    n = len(x)
    dX = float(x[1] - x[0])
    d_theta = np.pi / len(tomos)
    xs, ps = np.meshgrid(x_grid.points, p_grid.points, indexing="ij")
    out = np.zeros_like(xs)
    fine_dx = dX / upsample
    for theta, t in zip(tomos.angles, tomos):
        filt, pad_x0 = _ramp_filtered(t.values, float(x[0]), dX, n, hbar)
        fine = upsample * len(filt)
        fine_x = pad_x0 + fine_dx * np.arange(fine)
        filt = czt_resample(filt.astype(np.complex128), pad_x0, dX,
                            pad_x0, fine_dx, fine).real
        tval = xs * np.cos(theta) + ps * np.sin(theta)
        out += np.interp(tval, fine_x, filt, left=0.0, right=0.0)
    out *= d_theta / (2.0 * np.pi * hbar)
    return WignerMap(x_grid, p_grid, out, hbar)


def _back_project(out, fine, ux, up):
    """out[i, j] += linear interpolation of ``fine`` at the fractional index
    u = ux[i] + up[j]; zero where u falls outside [0, len(fine) - 1]."""
    last = len(fine) - 1
    slope = np.diff(fine, append=0.0)
    inside = ux.min() + up.min() >= 0.0 and ux.max() + up.max() <= last
    rows = max(1, GATHER_BLOCK // len(up))
    for lo in range(0, len(ux), rows):
        u = np.add.outer(ux[lo:lo + rows], up)
        if not inside:
            outside = (u < 0.0) | (u > last)
            np.clip(u, 0.0, last, out=u)
        k = np.floor(u)
        u -= k
        k = k.astype(np.intp)
        u *= slope.take(k)
        u += fine.take(k)
        if not inside:
            u[outside] = 0.0
        out[lo:lo + rows] += u


def inverse_radon_affine(tomos, x_grid, p_grid=None):
    """Per-angle FBP: ramp filter on the PAD_FACTOR-fold padded row, the
    UPSAMPLE-fold fine grid, and linear interpolation by affine index over
    the whole output window, which may be any uniform window."""
    if p_grid is None:
        p_grid = default_momentum_window(x_grid)
    hbar = tomos.hbar
    x = tomos.x
    n = len(x)
    dX = float(x[1] - x[0])
    n_pad = PAD_FACTOR * n
    lead = (n_pad - n) // 2
    n_fine = UPSAMPLE * n_pad
    fine_dx = dX / UPSAMPLE
    ramp = UPSAMPLE * _tapered_ramp(n_pad, dX, hbar)
    padded = np.zeros(n_pad)
    origin = (float(x[0]) - lead * dX) / fine_dx
    x_idx = x_grid.points / fine_dx
    p_idx = p_grid.points / fine_dx
    out = np.zeros((x_grid.n_points, p_grid.n_points))
    for theta, row in zip(tomos.angles, tomos.values):
        padded[lead:lead + n] = row
        fine = np.fft.irfft(np.fft.rfft(padded) * ramp, n=n_fine)
        fine[n_fine - UPSAMPLE // 2 + 1:] = 0.0
        _back_project(out, fine, x_idx * np.cos(theta) - origin, p_idx * np.sin(theta))
    out *= (np.pi / len(tomos)) / (2.0 * np.pi * hbar)
    return WignerMap(x_grid, p_grid, out, hbar)


def save_wigner_csv_reference(w, path):
    lines = ["x,p,w"]
    xs = w.x_grid.points
    ps = w.p_grid.points
    for i, xi in enumerate(xs):
        row = w.values[i]
        sx = "%.17g" % xi
        for pj, val in zip(ps, row):
            lines.append("%s,%.17g,%.17g" % (sx, pj, val))
    Path(path).write_text("\n".join(lines) + "\n")


def save_tomogram_csv_reference(t, path):
    lines = ["x,value"] + ["%.17g,%.17g" % (xi, v) for xi, v in zip(t.x, t.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def save_wavefunction_csv_reference(psi, path):
    lines = ["x,re,im"] + ["%.17g,%.17g,%.17g" % (xi, v.real, v.imag)
                           for xi, v in zip(psi.grid.points, psi.values)]
    Path(path).write_text("\n".join(lines) + "\n")
