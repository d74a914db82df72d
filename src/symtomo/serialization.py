"""File formats: JSON/CSV wavefunctions, Wigner maps, tomogram-set manifests.

CSV cells use 17-significant-digit formatting so round trips are bit exact
and regression diffs are stable; files are written atomically (temp file +
rename).
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grids import Grid1D, SampledWavefunction
from .radon import Tomogram, TomogramSet, _uniform
from .wigner import WignerMap

__all__ = [
    "save_wavefunction_json",
    "load_wavefunction_json",
    "save_wavefunction_csv",
    "load_wavefunction_csv",
    "save_wigner",
    "load_wigner",
    "save_wigner_csv",
    "save_tomogram_csv",
    "save_tomogram_set",
    "load_tomogram_set",
    "atomic_write_text",
    "atomic_write_bytes",
    "fmt",
]

WAVEFUNCTION_FORMAT = "symtomo.wavefunction.v1"
WIGNER_FORMAT = "symtomo.wigner.v1"
TOMOGRAM_SET_FORMAT = "symtomo.tomogram_set.v1"
MANIFEST_NAME = "manifest.json"


def fmt(value: float) -> str:
    """Full round-trip decimal formatting."""
    return format(float(value), ".17g")


def _atomic_write(path, chunks, mode: str):
    """Write the iterable ``chunks`` to a temp file beside ``path``, then
    rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    _atomic_write(path, (text,), "w")


def atomic_write_bytes(path, data: bytes):
    _atomic_write(path, (data,), "wb")


def _grid_to_dict(grid: Grid1D) -> dict:
    return {"x_min": grid.x_min, "n_points": grid.n_points,
            "dx": grid.dx, "hbar": grid.hbar}


@contextmanager
def _malformed(path, what: str):
    """The one rule for malformed input files: a missing key or a value of the
    wrong type or form (a non-numeric CSV cell, too) becomes a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}: {what} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed {what} ({exc})") from exc


def _read_json(path, fmt_name: str, what: str) -> dict:
    """Parse a JSON document of the format ``fmt_name``; text that is not
    JSON, or a document of another format, is a ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt_name:
        raise ConfigError(f"{path}: not a {what} file")
    return doc


def _grid_from_dict(d: dict) -> Grid1D:
    return Grid1D(float(d["x_min"]), int(d["n_points"]), float(d["dx"]), float(d["hbar"]))


def save_wavefunction_json(psi: SampledWavefunction, path):
    """Grid header plus one interleaved [re, im, re, im, ...] array."""
    interleaved = np.empty(2 * psi.grid.n_points)
    interleaved[0::2] = psi.values.real
    interleaved[1::2] = psi.values.imag
    doc = {
        "format": WAVEFUNCTION_FORMAT,
        "grid": _grid_to_dict(psi.grid),
        "values": interleaved.tolist(),
    }
    atomic_write_text(path, json.dumps(doc))


def load_wavefunction_json(path) -> SampledWavefunction:
    doc = _read_json(path, WAVEFUNCTION_FORMAT, "wavefunction")
    with _malformed(path, "wavefunction"):
        grid = _grid_from_dict(doc["grid"])
        flat = np.asarray(doc["values"], dtype=np.float64)
    if flat.shape != (2 * grid.n_points,):
        raise ConfigError(f"{path}: expected {2 * grid.n_points} interleaved values")
    return SampledWavefunction(grid, flat[0::2] + 1j * flat[1::2])


def save_wavefunction_csv(psi: SampledWavefunction, path):
    rows = (f"{fmt(xi)},{fmt(v.real)},{fmt(v.imag)}\n"
            for xi, v in zip(psi.grid.points, psi.values))
    _atomic_write(path, itertools.chain(["x,re,im\n"], rows), "w")


def load_wavefunction_csv(path, hbar: float = 1.0) -> SampledWavefunction:
    with _malformed(path, "wavefunction CSV"):  # also a row without three columns
        x, re, im = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, unpack=True)
    if len(x) < 2 or not _uniform(x):
        raise ConfigError(f"{path}: x column is not a uniform grid")
    grid = Grid1D(float(x[0]), len(x), float(x[1] - x[0]), hbar)
    return SampledWavefunction(grid, re + 1j * im)


def save_wigner(w: WignerMap, json_path) -> Path:
    """JSON header plus a row-major float64 binary block alongside it."""
    json_path = Path(json_path)
    bin_name = json_path.stem + ".bin"
    doc = {
        "format": WIGNER_FORMAT,
        "hbar": w.hbar,
        "x_grid": _grid_to_dict(w.x_grid),
        "p_grid": _grid_to_dict(w.p_grid),
        "layout": "row-major (x rows, p columns)",
        "dtype": "float64",
        "accuracy_warning": w.accuracy_warning,
        "data_file": bin_name,
    }
    atomic_write_bytes(json_path.parent / bin_name,
                       np.ascontiguousarray(w.values, dtype=np.float64).tobytes())
    atomic_write_text(json_path, json.dumps(doc))
    return json_path


def load_wigner(json_path) -> WignerMap:
    json_path = Path(json_path)
    doc = _read_json(json_path, WIGNER_FORMAT, "Wigner map")
    with _malformed(json_path, "Wigner header"):
        x_grid = _grid_from_dict(doc["x_grid"])
        p_grid = _grid_from_dict(doc["p_grid"])
        data_file = json_path.parent / doc["data_file"]
        hbar = float(doc["hbar"])
    raw = np.fromfile(data_file, dtype=np.float64)
    expected = x_grid.n_points * p_grid.n_points
    if raw.size != expected:
        raise ConfigError(f"{json_path}: binary block has {raw.size} values, expected {expected}")
    values = raw.reshape(x_grid.n_points, p_grid.n_points)
    return WignerMap(x_grid, p_grid, values, hbar,
                     accuracy_warning=bool(doc.get("accuracy_warning", False)))


def save_wigner_csv(w: WignerMap, path):
    """Long format: one (x, p, w) row per sample.

    Each x and p is formatted once: a template holds the lines of one x row
    with the p cells filled in and ``%.17g`` (the same digits as
    :func:`fmt`) for the values.  The file is written one x row at a time,
    so memory stays bounded by one row's text."""
    row_template = "".join(f"{{x}},{fmt(p)},%.17g\n" for p in w.p_grid.points)

    rows = (row_template.replace("{x}", fmt(xi)) % tuple(row.tolist())
            for xi, row in zip(w.x_grid.points, w.values))
    _atomic_write(path, itertools.chain(["x,p,w\n"], rows), "w")


def save_tomogram_csv(t: Tomogram, path):
    rows = (f"{fmt(xi)},{fmt(v)}\n" for xi, v in zip(t.x, t.values))
    _atomic_write(path, itertools.chain(["x,value\n"], rows), "w")


def save_tomogram_set(ts: TomogramSet, out_dir, storage: str = "binary") -> Path:
    """MANIFEST_NAME plus either one binary block or per-angle CSV files."""
    if storage not in ("binary", "csv"):
        raise ConfigError(f"storage must be 'binary' or 'csv', got {storage!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x = ts.x
    doc = {
        "format": TOMOGRAM_SET_FORMAT,
        "hbar": ts.hbar,
        "n_angles": len(ts),
        "angles": ts.angles.tolist(),
        "x": {"start": float(x[0]), "step": float(x[1] - x[0]), "count": len(x)},
        "routes": list(ts.routes),
        "warnings": ts.warnings.tolist(),
        "storage": storage,
    }
    if storage == "binary":
        doc["data_file"] = "tomograms.bin"
        atomic_write_bytes(out_dir / "tomograms.bin", ts.values.tobytes())
    else:
        doc["files"] = [f"tomogram_{k:04d}.csv" for k in range(len(ts))]
        for t, name in zip(ts, doc["files"]):
            save_tomogram_csv(t, out_dir / name)
    manifest = out_dir / MANIFEST_NAME
    atomic_write_text(manifest, json.dumps(doc))
    return manifest


def load_tomogram_set(manifest_path) -> TomogramSet:
    manifest_path = Path(manifest_path)
    doc = _read_json(manifest_path, TOMOGRAM_SET_FORMAT, "tomogram-set manifest")
    with _malformed(manifest_path, "manifest"):
        hbar = float(doc["hbar"])
        n_angles = int(doc["n_angles"])
        angles = np.asarray(doc["angles"], dtype=np.float64)
        xspec = doc["x"]
        x = float(xspec["start"]) + float(xspec["step"]) * np.arange(int(xspec["count"]))
        storage = doc["storage"]
        routes = doc.get("routes") or [""] * n_angles
        # Manifests written before the flags were stored carry no key.
        warnings = doc.get("warnings", [False] * n_angles)
        lengths = {"angles": len(angles), "routes": len(routes), "warnings": len(warnings)}
        if storage == "binary":
            data_file = manifest_path.parent / doc["data_file"]
        elif storage == "csv":
            files = doc["files"]
            lengths["files"] = len(files)
    if not all(isinstance(flag, bool) for flag in warnings):
        raise ConfigError(f"{manifest_path}: warnings must be a list of true/false flags")
    if any(k != n_angles for k in lengths.values()):
        raise ConfigError(
            f"{manifest_path}: n_angles is {n_angles} but the lists have lengths "
            + ", ".join(f"{key}={k}" for key, k in lengths.items()))
    n_x = len(x)
    if storage == "binary":
        raw = np.fromfile(data_file, dtype=np.float64)
        if raw.size != n_angles * n_x:
            raise ConfigError(f"{manifest_path}: binary block size mismatch")
        rows = raw.reshape(n_angles, n_x)
    elif storage == "csv":
        rows = np.empty((n_angles, n_x))
        for k, name in enumerate(files):
            with _malformed(name, "tomogram CSV"):
                data = np.loadtxt(manifest_path.parent / name, delimiter=",", skiprows=1,
                                  ndmin=2)
            if data.shape != (n_x, 2):
                raise ConfigError(f"{name}: expected {n_x} rows of x,value")
            if not np.allclose(data[:, 0], x, rtol=1e-12, atol=1e-12):
                raise ConfigError(f"{name}: x column differs from the manifest's X grid")
            rows[k] = data[:, 1]
    else:
        raise ConfigError(f"{manifest_path}: unknown storage {storage!r}")
    return TomogramSet(angles, x, rows, hbar, tuple(routes), warnings)
