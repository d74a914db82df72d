"""File formats: JSON wavefunctions, Wigner maps and tomogram sets.

Each loader reads only the schema its writer writes and leaves every rule
about the object to the object's constructor; any error in a file names the
file (see :func:`_malformed`).

CSV cells are the text of ``%.17g`` so round trips are bit exact and
regression diffs are stable; a vectorised formatter writes that text a block
of CSV_BLOCK values at a time.  Files are written atomically (temp file +
rename).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, SymtomoError
from .grids import Grid1D, SampledWavefunction
from .radon import Tomogram, TomogramSet, sweep_angles
from .wigner import WignerMap

__all__ = [
    "save_wavefunction_json",
    "load_wavefunction_json",
    "save_wigner",
    "load_wigner",
    "save_wigner_csv",
    "save_tomogram_csv",
    "save_tomogram_set",
    "load_tomogram_set",
    "atomic_write",
]

WAVEFUNCTION_FORMAT = "symtomo.wavefunction.v1"
WIGNER_FORMAT = "symtomo.wigner.v1"
TOMOGRAM_SET_FORMAT = "symtomo.tomogram_set.v1"
MANIFEST_NAME = "manifest.json"

CSV_BLOCK = 8192
"""Values formatted per block by the CSV writers: a writer holds the text of
one block, never that of the whole file."""

# The vectorised %.17g.  A value v is scaled to N = |v| * 10**(16 - e10) with
# e10 = floor(log10|v|), so that N lies in [1e16, 1e17) and N rounded to an
# integer, half to even, is the 17-digit significand.  N is formed as a
# double-double, the exact (Dekker) product of |v| with the head of 10**k plus
# |v| times its tail, which is good to about 1e-15; a value whose fraction of
# N lies within _TIE_BAND of 1/2 (true ties exist) goes through %.17g itself,
# as do non-finite values and |v| outside [_FAST_MIN, _FAST_MAX], where the
# split product would overflow or lose subnormal bits.
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_TIE_BAND = 1e-9
_POW_MIN, _POW_MAX = -280, 308  # 10**k for k = 16 - e10 of every fast value
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter for float64
_N_MIN, _N_MAX = 10**16, 10**17


def _powers_of_ten() -> np.ndarray:
    """Rows head, head_hi, head_lo and tail over k = _POW_MIN.._POW_MAX: head and
    tail are 10**k and 10**k - head correctly rounded, computed in exact
    integer arithmetic; head = head_hi + head_lo is the Veltkamp split."""
    head, tail = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            h = float(10**k)
            t = float(10**k - int(h))
        else:
            q = 10**-k
            h = 1 / q  # int / int is correctly rounded
            num, den = h.as_integer_ratio()
            t = (den - num * q) / (q * den)
        head.append(h)
        tail.append(t)
    head = np.array(head)
    m, e = np.frexp(head)  # split the mantissa, where m * _SPLIT cannot overflow
    c = m * _SPLIT
    m_hi = c - (c - m)
    return np.stack([head, np.ldexp(m_hi, e), np.ldexp(m - m_hi, e), np.array(tail)])


_POW10 = _powers_of_ten()

# Cell assembly.  Each value gets a row of six 8-byte words,
#   "-0.000" d0 "."   four times  d "." d "." d "." d "."   "e" sign ddd NUL*3
# that holds every character any %.17g text of it can use: the sign, the
# "0.000" of fixed notation below 1, each of the 17 digits followed by a
# decimal point, and the exponent.  An AND with the byte mask of the value's
# key (sign, shape, significant digits) zeroes what its text leaves out, and
# dropping the zero bytes leaves the text.  Shapes 0..20 are fixed notation
# for e10 = -4..16, 21 and 22 exponent notation with 2 and 3 exponent digits.
_SHAPES = 23
_CELL_WORDS = 6
_EXP_OFFSET = 400


def _words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint64)


_LEAD_WORDS = _words("".join(f"-0.000{d}." for d in range(10)))
_EXP_WORDS = _words("".join(f"e{e:+04d}\0\0\0" for e in range(-_EXP_OFFSET, _EXP_OFFSET + 1)))


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit chunk c: its word ("1.2.0.0." for 1200) and its count
    of significant digits (2 for 1200, none for 0)."""
    chunks = np.arange(10000, dtype=np.int16)
    words = np.full((10000, 8), ord("."), dtype=np.uint8)
    significant = np.full(10000, 4, dtype=np.int8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        words[:, 2 * i] = chunks // scale % 10 + ord("0")
        significant -= chunks % (10000 // scale) == 0
    return words.view(np.uint64).ravel(), significant


_DIGIT_WORDS, _CHUNK_DIGITS = _digit_tables()


def _cell_masks() -> np.ndarray:
    """The byte mask of each key, as rows of _CELL_WORDS words."""
    masks = bytearray()
    digits = [6 + 2 * i for i in range(17)]  # byte of digit i; its decimal point follows
    for sign, shape, nsig in itertools.product(range(2), range(_SHAPES), range(1, 18)):
        keep = [0] if sign else []
        if shape > 20:
            keep += digits[:nsig] + ([digits[0] + 1] if nsig > 1 else [])
            keep += [40, 41] + ([42] if shape == 22 else []) + [43, 44]
        elif shape < 4:  # "0." and -e10 - 1 zeros, then the digits
            keep += [1, 2] + list(range(3, 3 + 3 - shape)) + digits[:nsig]
        else:
            e10 = shape - 4
            keep += digits[:max(nsig, e10 + 1)] + ([digits[e10] + 1] if nsig > e10 + 1 else [])
        row = bytearray(8 * _CELL_WORDS)
        for i in keep:
            row[i] = 0xFF
        masks += row
    return np.frombuffer(bytes(masks), dtype=np.uint64).reshape(-1, _CELL_WORDS)


_CELL_MASKS = _cell_masks()


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of N = a * 10**(16 - e10)."""
    head, head_hi, head_lo, tail = (row.take(16 - e10 - _POW_MIN) for row in _POW10)
    p = a * head
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # the rounding error of p, exactly, plus a * tail
    s = ((a_hi * head_hi - p) + a_hi * head_lo + a_lo * head_hi) + a_lo * head_lo + a * tail
    whole = np.floor(s)
    return p.astype(np.int64) + whole.astype(np.int64), s - whole


def _g17(values) -> np.ndarray:
    """The bytes of ``b"%.17g" % v`` for each v of a 1-d float64 array: row i
    of the returned uint8 array holds those of ``values[i]`` in order, with
    NUL bytes between and after them."""
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(a, e10)
    # log10 may miss by one next to a power of ten: the integer part decides
    fix = np.flatnonzero((whole < _N_MIN) | (whole >= _N_MAX))
    if fix.size:
        e10[fix] += np.where(whole[fix] < _N_MIN, -1, 1)
        whole[fix], frac[fix] = _scaled(a[fix], e10[fix])
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < _TIE_BAND))
    d = whole + (frac > 0.5)
    carry = d == _N_MAX  # 99999999999999999.5 and up round to 1e17
    d[carry] = _N_MIN
    e10[carry] += 1
    d[zero] = 0
    e10[zero] = 0

    lead, rest = np.divmod(d, 10**16)
    high, low = (half.astype(np.int32) for half in np.divmod(rest, 10**8))
    words = np.empty((len(v), _CELL_WORDS), dtype=np.uint64)
    words[:, 0] = _LEAD_WORDS.take(lead)
    nsig = np.ones(len(v), dtype=np.int64)
    for j, chunk in enumerate((*np.divmod(high, 10**4), *np.divmod(low, 10**4))):
        words[:, 1 + j] = _DIGIT_WORDS.take(chunk)
        nsig = np.where(chunk != 0, 1 + 4 * j + _CHUNK_DIGITS.take(chunk), nsig)
    words[:, 5] = _EXP_WORDS.take(e10 + _EXP_OFFSET)
    shape = np.where((e10 >= -4) & (e10 < 17), e10 + 4, np.where(np.abs(e10) < 100, 21, 22))
    words &= _CELL_MASKS.take((np.signbit(v) * _SHAPES + shape) * 17 + nsig - 1, axis=0)
    cells = words.view(np.uint8)
    for i in slow:
        text = b"%.17g" % v[i]
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _csv_lines(*columns: np.ndarray) -> np.ndarray:
    """The CSV text, as uint8, of columns of cells: the last axis of each
    column holds the bytes of its cells, with NUL bytes anywhere among them,
    and the leading axes broadcast to one line per index, in C order."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    text = np.empty(shape + (sum(c.shape[-1] + 1 for c in columns),), dtype=np.uint8)
    end = 0
    for c in columns:
        text[..., end:end + c.shape[-1]] = c
        end += c.shape[-1] + 1
        text[..., end - 1] = ord(",")
    text[..., -1] = ord("\n")
    text = text.ravel()
    return text.compress(text != 0)


def _csv_rows(header: bytes, *columns):
    """``header``, then one line of cells per index of the columns,
    CSV_BLOCK lines at a time.  A column is 1-d floats, formatted a block at
    a time, or the 2-d cells :func:`_g17` made of them."""
    yield header
    for i in range(0, len(columns[0]), CSV_BLOCK):
        yield _csv_lines(*(c[i:i + CSV_BLOCK] if c.ndim == 2 else _g17(c[i:i + CSV_BLOCK])
                           for c in columns))


def atomic_write(path, chunks):
    """Write the iterable of bytes ``chunks`` to a new file beside ``path``,
    created with mode 0666 less the umask, then rename it over ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grid_to_dict(grid: Grid1D) -> dict:
    return {"x_min": grid.x_min, "n_points": grid.n_points,
            "dx": grid.dx, "hbar": grid.hbar}


@contextmanager
def _malformed(path, what: str):
    """The one rule for errors in an input file, and the one place that names
    the file: an error raised while the file is read, or while the object it
    holds is built, comes out with ``path`` in front of its message.  A
    SymtomoError keeps its type; a missing key, or a value of the wrong type
    or form (a non-numeric CSV cell, too), becomes a ConfigError.  The error's
    ``filename`` is ``path``, as an OSError's is, and an error that already
    has one, such as a tomogram CSV's under its manifest, passes unchanged."""
    try:
        yield
    except (SymtomoError, KeyError, TypeError, ValueError, OverflowError) as exc:
        if hasattr(exc, "filename"):
            raise
        if isinstance(exc, SymtomoError):
            err = type(exc)(f"{path}: {exc}")
        elif isinstance(exc, KeyError):
            err = ConfigError(f"{path}: {what} missing key {exc}")
        else:  # OverflowError: float(10**400)
            err = ConfigError(f"{path}: malformed {what} ({exc})")
        err.filename = str(path)
        raise err from exc


def _read_json(path, fmt_name: str, what: str) -> dict:
    """Parse a JSON document of the format ``fmt_name``; text that is not
    JSON, or a document of another format, is a ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
            raise ConfigError(f"not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt_name:
        raise ConfigError(f"not a {what} file")
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
    atomic_write(path, (json.dumps(doc).encode(),))


def load_wavefunction_json(path) -> SampledWavefunction:
    with _malformed(path, "wavefunction"):
        doc = _read_json(path, WAVEFUNCTION_FORMAT, "wavefunction")
        grid = _grid_from_dict(doc["grid"])
        # Paired as complex128 bit for bit: re + 1j*im would turn a -0.0 real
        # part beside a +0.0 imaginary part into +0.0.
        return SampledWavefunction(
            grid, np.asarray(doc["values"], dtype=np.float64).view(np.complex128))


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
    atomic_write(json_path.parent / bin_name,
                 (np.ascontiguousarray(w.values, dtype=np.float64).tobytes(),))
    atomic_write(json_path, (json.dumps(doc).encode(),))
    return json_path


def load_wigner(json_path) -> WignerMap:
    json_path = Path(json_path)
    with _malformed(json_path, "Wigner map"):
        doc = _read_json(json_path, WIGNER_FORMAT, "Wigner map")
        x_grid, p_grid = _grid_from_dict(doc["x_grid"]), _grid_from_dict(doc["p_grid"])
        hbar = float(doc["hbar"])
        flag = doc["accuracy_warning"]
        if not isinstance(flag, bool):  # as strict as the manifest's warnings
            raise TypeError(f"accuracy_warning must be true or false, got {flag!r}")
        raw = np.fromfile(json_path.parent / doc["data_file"], dtype=np.float64)
        return WignerMap(x_grid, p_grid, raw.reshape(x_grid.n_points, -1), hbar,
                         accuracy_warning=flag)


def save_wigner_csv(w: WignerMap, path):
    """Long format: one (x, p, w) row per sample, each cell the text of
    ``%.17g``.

    Each x and p is formatted once, by ``%.17g`` itself; the values are
    formatted by the vectorised ``%.17g`` and written a block of whole x
    rows, about CSV_BLOCK values, at a time, so memory stays bounded by one
    block's text."""
    xs, ps = (np.array([b"%.17g" % v for v in g.points]).view(np.uint8).reshape(g.n_points, -1)
              for g in (w.x_grid, w.p_grid))
    step = max(1, CSV_BLOCK // len(ps))

    def blocks():
        yield b"x,p,w\n"
        for i in range(0, len(xs), step):
            rows = w.values[i:i + step]
            yield _csv_lines(xs[i:i + step, None], ps[None],
                             _g17(rows.ravel()).reshape(*rows.shape, -1))

    atomic_write(path, blocks())


def save_tomogram_csv(t: Tomogram, path):
    atomic_write(path, _csv_rows(b"x,value\n", t.x, t.values))


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
        "x": {"start": float(x[0]), "step": float(x[1] - x[0]), "count": len(x),
              "values": x.tolist()},
        "routes": list(ts.routes),
        "warnings": ts.warnings.tolist(),
        "storage": storage,
    }
    if storage == "binary":
        doc["data_file"] = "tomograms.bin"
        atomic_write(out_dir / "tomograms.bin", (ts.values.tobytes(),))
    else:
        doc["files"] = [f"tomogram_{k:04d}.csv" for k in range(len(ts))]
        x_cells = _g17(x)
        for row, name in zip(ts.values, doc["files"]):
            atomic_write(out_dir / name, _csv_rows(b"x,value\n", x_cells, row))
    manifest = out_dir / MANIFEST_NAME
    atomic_write(manifest, (json.dumps(doc).encode(),))
    return manifest


def load_tomogram_set(manifest_path) -> TomogramSet:
    """The set that :func:`save_tomogram_set` wrote.  Its ``angles`` must be
    ``n_angles`` long and lie within 1e-9 of the sweep theta_k =
    k*pi/n_angles, which the set then holds exactly: a partial, offset or
    decreasing arc is a ConfigError."""
    manifest_path = Path(manifest_path)
    with _malformed(manifest_path, "manifest"):
        doc = _read_json(manifest_path, TOMOGRAM_SET_FORMAT, "tomogram-set manifest")
        hbar = float(doc["hbar"])
        n_angles = doc["n_angles"]
        if type(n_angles) is not int:  # not a float such as 8.7, nor a bool
            raise TypeError(f"n_angles must be an integer, got {n_angles!r}")
        angles = np.asarray(doc["angles"], dtype=np.float64)
        x = np.asarray(doc["x"]["values"], dtype=np.float64)
        if angles.ndim != 1 or x.ndim != 1:
            raise TypeError("the angles and the X values must be lists of numbers")
        routes, warnings, storage = doc["routes"], doc["warnings"], doc["storage"]
        if not (isinstance(routes, list) and all(isinstance(r, str) for r in routes)):
            raise TypeError("routes must be a list of strings")
        if not (isinstance(warnings, list) and all(isinstance(f, bool) for f in warnings)):
            raise TypeError("warnings must be a list of true/false flags")
        lengths = {"angles": len(angles)}
        if storage == "csv":
            lengths["files"] = len(doc["files"])
        if any(k != n_angles for k in lengths.values()):
            raise ConfigError(f"n_angles is {n_angles} but the lists have lengths "
                              + ", ".join(f"{key}={k}" for key, k in lengths.items()))
        if not np.all(np.abs(angles - sweep_angles(n_angles)) <= 1e-9):
            raise ConfigError(f"the angles are not the sweep theta_k = k*pi/{n_angles} (to 1e-9)")
        n_x = len(x)
        if storage == "binary":
            rows = np.fromfile(manifest_path.parent / doc["data_file"], dtype=np.float64)
            if rows.size != n_angles * n_x:
                raise ConfigError(f"binary block size mismatch: {rows.size} values for "
                                  f"{n_angles} rows of {n_x}")
            rows = rows.reshape(n_angles, n_x)
        elif storage == "csv":
            rows = np.empty((n_angles, n_x))
            for row, name in zip(rows, doc["files"]):
                path = manifest_path.parent / name
                with _malformed(path, "tomogram CSV"), open(path) as fh:
                    fh.readline()  # the header
                    body = fh.read()
                    # Checked here: np.loadtxt warns on a file without rows.
                    if not body.strip():
                        raise ConfigError(f"no x,value rows, expected {n_x}")
                    data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
                    if data.shape != (n_x, 2):
                        raise ConfigError(f"expected {n_x} rows of x,value")
                    if not np.allclose(data[:, 0], x, rtol=1e-12, atol=1e-12):
                        raise ConfigError("x column differs from the manifest's X grid")
                row[:] = data[:, 1]
        else:
            raise ConfigError(f"unknown storage {storage!r}")
        return TomogramSet(x, rows, hbar, tuple(routes), warnings)
