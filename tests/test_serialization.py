import json
import os
import stat
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import HBAR, flagged_chirp_set
from fbp_oracle import save_tomogram_csv_reference, save_wigner_csv_reference

from symtomo import (
    ConfigError,
    DomainError,
    GaussianState,
    Grid1D,
    SampledWavefunction,
    Tomogram,
    gaussian_wavefunction,
    make_grid,
    serialization,
    wigner_transform,
)
from symtomo.cli import main
from symtomo.radon import TomogramSet, compute_tomogram_set
from symtomo.serialization import (
    _g17,
    load_tomogram_set,
    load_wavefunction_json,
    load_wigner,
    save_tomogram_csv,
    save_tomogram_set,
    save_wavefunction_json,
    save_wigner,
    save_wigner_csv,
)
from symtomo.wigner import WignerMap, default_momentum_window


@contextmanager
def raises_naming(path, error=ConfigError, match=None):
    """pytest.raises(error, match=match) for an error whose message begins
    with ``path``, the file at fault."""
    with pytest.raises(error, match=match) as err:
        yield
    assert str(err.value).startswith(f"{path}: "), str(err.value)


@pytest.fixture(scope="module")
def psi(grid):
    return gaussian_wavefunction(GaussianState.from_position_data(1.0, 0.3, HBAR), grid)


def test_wavefunction_json_bit_exact(psi, tmp_path):
    path = tmp_path / "state.json"
    save_wavefunction_json(psi, path)
    back = load_wavefunction_json(path)
    assert back.grid == psi.grid
    assert np.array_equal(back.values, psi.values)


def test_wavefunction_json_interleaved_layout(psi, tmp_path):
    path = tmp_path / "state.json"
    save_wavefunction_json(psi, path)
    doc = json.loads(path.read_text())
    vals = doc["values"]
    assert len(vals) == 2 * psi.grid.n_points
    assert vals[0] == psi.values[0].real and vals[1] == psi.values[0].imag


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("values"),
    lambda d: d.pop("grid"),
    lambda d: d.update(values="abc"),
    lambda d: d.update(grid=[1, 2]),
    lambda d: d["grid"].update(n_points="many"),
], ids=["values-missing", "grid-missing", "values-string", "grid-list", "n-points-string"])
def test_malformed_wavefunction_json_rejected(psi, tmp_path, edit):
    path = tmp_path / "state.json"
    save_wavefunction_json(psi, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with raises_naming(path):
        load_wavefunction_json(path)


def test_json_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("[1, 2, 3]")
    for load in (load_wavefunction_json, load_wigner, load_tomogram_set):
        with raises_naming(path, match="not a"):
            load(path)


def test_wigner_binary_round_trip(psi, tmp_path):
    w = wigner_transform(psi)
    path = save_wigner(w, tmp_path / "wigner.json")
    back = load_wigner(path)
    assert np.array_equal(back.values, w.values)
    assert back.x_grid == w.x_grid and back.p_grid == w.p_grid


@pytest.mark.parametrize("flag, want", [(True, True), (False, False), (None, ConfigError),
                                        ("false", ConfigError), (0, ConfigError)],
                         ids=["true", "false", "missing", "string", "zero"])
def test_wigner_header_flag_is_a_json_boolean(psi, tmp_path, flag, want):
    path = save_wigner(wigner_transform(psi), tmp_path / "wigner.json")
    doc = json.loads(path.read_text())
    doc.pop("accuracy_warning")
    if flag is not None:
        doc["accuracy_warning"] = flag
    path.write_text(json.dumps(doc))
    if want is ConfigError:
        with raises_naming(path, match="accuracy_warning"):
            load_wigner(path)
    else:
        assert load_wigner(path).accuracy_warning is want


@pytest.mark.parametrize("hbar", [-1.0, 0.0, float("nan"), float("inf")])
def test_wigner_header_hbar_must_be_positive_and_finite(tmp_path, hbar):
    grid = ["--grid=-8:8:64", "--state", "gaussian:0.5,0"]
    assert main(["wigner", *grid, "--out", str(tmp_path / "ref")]) == 0
    assert main(["tomogram", *grid, "--angles", "8", "--out", str(tmp_path / "set")]) == 0
    path = tmp_path / "ref" / "wigner.json"
    doc = json.loads(path.read_text())
    doc["hbar"] = hbar
    path.write_text(json.dumps(doc))
    with raises_naming(path, match="hbar"):
        load_wigner(path)
    assert main(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                 "--reference", str(path), "--out", str(tmp_path / "rec")]) == 2
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("key, hbar, loads", [
    ("hbar", 2.0, False), ("x_grid", 2.0, False), ("p_grid", 2.0, False),
    ("p_grid", HBAR * (1 + 1e-13), True)])
def test_wigner_header_hbar_must_match_its_grids(tmp_path, key, hbar, loads):
    """The map's hbar and its grids' agree to 1e-12 relative, or the header
    is refused: no map loads with two values of hbar."""
    grid = make_grid(-4.0, 4.0, 8, HBAR)
    path = save_wigner(WignerMap(grid, grid, np.zeros((8, 8)), HBAR), tmp_path / "wigner.json")
    doc = json.loads(path.read_text())
    (doc if key == "hbar" else doc[key])["hbar"] = hbar
    path.write_text(json.dumps(doc))
    if loads:
        assert load_wigner(path).hbar == HBAR
    else:
        with raises_naming(path, match="differs from the map's hbar"):
            load_wigner(path)


def _grids(n, hbar=st.floats(1e-3, 1e3)):
    """Grids of n points over a wide envelope, hbar included."""
    return st.builds(Grid1D, st.floats(-1e6, 1e6), st.just(n), st.floats(1e-6, 1e3), hbar)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), nx=st.sampled_from([8, 16]), np_=st.sampled_from([8, 32]),
       flag=st.booleans())
def test_wigner_round_trip_is_bit_exact(tmp_path_factory, data, nx, np_, flag):
    """save_wigner/load_wigner give back the values (any finite floats,
    signed zeros and subnormals too), both grids, hbar and the flag bit for
    bit."""
    x_grid = data.draw(_grids(nx))
    p_grid = data.draw(_grids(np_, st.just(x_grid.hbar)))
    values = data.draw(arrays(np.float64, (nx, np_),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    w = WignerMap(x_grid, p_grid, values, x_grid.hbar, accuracy_warning=flag)
    back = load_wigner(save_wigner(w, tmp_path_factory.mktemp("w") / "wigner.json"))
    assert _bits(back.values) == _bits(w.values)
    assert (back.x_grid, back.p_grid, back.hbar) == (w.x_grid, w.p_grid, w.hbar)
    assert back.accuracy_warning is flag


@st.composite
def _wavefunctions(draw):
    """Any finite values on grids of 8, 64 or 512 points whose x_min reaches
    1e6 times their length n*dx."""
    n = draw(st.sampled_from([8, 64, 512]))
    dx = draw(st.floats(1e-3, 1e2))
    grid = Grid1D(draw(st.floats(-1e6, 1e6)) * n * dx, n, dx, draw(st.floats(1e-3, 1e3)))
    parts = draw(arrays(np.float64, (2, n),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    return SampledWavefunction(grid, np.ascontiguousarray(parts.T).view(np.complex128)[:, 0])


@settings(max_examples=40, deadline=None)
@given(psi=_wavefunctions())
@example(psi=SampledWavefunction(Grid1D(0.0, 8, 1.0), np.full(8, complex(-0.0, 0.0))))
def test_wavefunction_round_trip_is_bit_exact(tmp_path_factory, psi):
    """JSON gives back the grid and the values bit for bit, a -0.0 real part
    beside a +0.0 imaginary part too."""
    path = tmp_path_factory.mktemp("psi") / "psi.json"
    save_wavefunction_json(psi, path)
    back = load_wavefunction_json(path)
    assert back.grid == psi.grid and _bits(back.values) == _bits(psi.values)


def test_wigner_csv_layout(psi, tmp_path):
    w = wigner_transform(psi)
    save_wigner_csv(w, tmp_path / "wigner.csv")
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + w.x_grid.n_points * w.p_grid.n_points


def test_wigner_csv_matches_reference_writer(tmp_path):
    grid = make_grid(-4.0, 4.0, 16, HBAR)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((16, 16)) * 10.0 ** rng.uniform(-320, 3, (16, 16))
    values[0, :4] = [0.1, -0.1, -0.0, 5e-324]
    # the row-by-row writer against the per-cell reference, on a square map
    # and on one with more p columns than x rows
    p_wide = make_grid(-1.0, 1.0, 32, HBAR)
    for w in (WignerMap(grid, default_momentum_window(grid), values, HBAR),
              WignerMap(make_grid(-2.0, 2.0, 8, HBAR), p_wide, values.reshape(8, 32), HBAR)):
        save_wigner_csv(w, tmp_path / "new.csv")
        save_wigner_csv_reference(w, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_tomogram_csv(psi, tmp_path):
    from symtomo import radon_metaplectic

    t = radon_metaplectic(psi, 1.0, 1.0)
    save_tomogram_csv(t, tmp_path / "t.csv")
    data = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], t.values)


def test_tomogram_set_round_trip(psi, tmp_path):
    ts = compute_tomogram_set(psi, 16)
    manifest = save_tomogram_set(ts, tmp_path)
    back = load_tomogram_set(manifest)
    assert len(back) == 16
    assert np.allclose(back.angles, ts.angles, rtol=0, atol=1e-15)
    for a, b in zip(ts, back):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.x, b.x)


def test_tomogram_set_round_trip_keeps_warnings(tmp_path):
    ts = flagged_chirp_set()
    assert ts.warnings.tolist() == [False, True, False, False, False, False, False, True]
    back = load_tomogram_set(save_tomogram_set(ts, tmp_path))
    assert np.array_equal(back.warnings, ts.warnings)
    assert back.routes == ts.routes


@settings(max_examples=40, deadline=None)
@given(n_angles=st.integers(1, 40), n_x=st.integers(2, 300), start=st.floats(-20.0, 20.0),
       step=st.floats(0.05, 2.0), decades=st.tuples(st.integers(-330, 260), st.integers(0, 40)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tomogram_set_round_trip_is_bit_exact(tmp_path_factory, n_angles, n_x, start, step,
                                              decades, seed, data):
    """A set gives back the angles, the X grid, the values, the routes and the
    flags bit for bit: an off-lattice X grid, values over up to 40 decades
    (subnormals and zeros too).  So does its manifest with the "storage":
    "binary" entry that older versions wrote."""
    rng = np.random.default_rng(seed)
    lo, span = decades
    values = rng.random((n_angles, n_x)) * 10.0 ** rng.integers(lo, lo + span + 1, (n_angles, n_x))
    values[rng.random(values.shape) < 0.1] = 0.0
    routes = data.draw(st.lists(st.sampled_from(["metaplectic", "chirp-fft", "line-integral"]),
                                min_size=n_angles, max_size=n_angles))
    warnings = data.draw(st.lists(st.booleans(), min_size=n_angles, max_size=n_angles))
    ts = TomogramSet(start + step * np.arange(n_x), values, HBAR, routes, warnings)
    manifest = save_tomogram_set(ts, tmp_path_factory.mktemp("set"))
    written = manifest.read_text()
    old = json.loads(written)
    old["storage"] = "binary"
    for text in (written, json.dumps(old)):
        manifest.write_text(text)
        back = load_tomogram_set(manifest)
        for name in ("angles", "x", "values", "warnings"):
            assert np.array_equal(getattr(back, name), getattr(ts, name)), (text, name)
        assert back.routes == ts.routes


@pytest.mark.parametrize("umask, want", [(0o022, 0o644), (0o077, 0o600)])
def test_files_take_mode_0666_less_umask(tmp_path, umask, want):
    small = gaussian_wavefunction(GaussianState.from_position_data(0.7, 0.2, HBAR),
                                  make_grid(-8.0, 8.0, 64, HBAR))
    old = os.umask(umask)
    try:
        save_wigner(wigner_transform(small), tmp_path / "wigner.json")
        save_wavefunction_json(small, tmp_path / "state.json")
        save_tomogram_set(compute_tomogram_set(small, 4), tmp_path / "set")
    finally:
        os.umask(old)
    files = sorted(tmp_path.glob("*")) + sorted((tmp_path / "set").glob("*"))
    assert [f.name for f in files if f.is_file()] == [
        "state.json", "wigner.bin", "wigner.json", "manifest.json", "tomograms.bin"]
    assert {stat.S_IMODE(f.stat().st_mode) for f in files if f.is_file()} == {want}


def test_atomic_write_leaves_nothing_on_error(tmp_path):
    def chunks():
        yield b"partial"
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError):
        serialization.atomic_write(tmp_path / "out.bin", chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("warnings", [["yes"] * 8, 3], ids=["not-bools", "not-a-list"])
def test_manifest_bad_warnings_rejected(tmp_path, warnings):
    manifest = save_tomogram_set(flagged_chirp_set(), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["warnings"] = warnings
    manifest.write_text(json.dumps(doc))
    with raises_naming(manifest):
        load_tomogram_set(manifest)


# Any JSON value, nested a little.  Floats include NaN and the infinities,
# which json writes and reads back, and integers are unbounded.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _fields(doc, prefix=()):
    """The key path of every field of a manifest, of the fields of its
    nested objects and of every list entry."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))
        elif isinstance(value, list):
            yield from (prefix + (key, k) for k in range(len(value)))


@pytest.fixture(scope="module")
def saved_set(tmp_path_factory):
    """A flagged eight-angle set, with its manifest."""
    manifest = save_tomogram_set(flagged_chirp_set(), tmp_path_factory.mktemp("set"))
    return manifest, json.loads(manifest.read_text())


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, data=st.data())
def test_fuzzed_manifest_loads_or_raises_config_error(saved_set, value, data):
    """One field or list entry of a manifest replaced by any JSON value either
    loads or raises ConfigError or OSError, the errors the CLI maps to
    exit 2; either error names its file (the manifest, or the data file it
    names) by ``filename``, and a ConfigError in front of its message."""
    manifest, doc = saved_set
    doc = json.loads(json.dumps(doc))
    *parents, last = data.draw(st.sampled_from(list(_fields(doc))))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    fuzzed = manifest.with_name("fuzzed.json")
    fuzzed.write_text(json.dumps(doc))
    try:
        ts = load_tomogram_set(fuzzed)
    except ConfigError as exc:
        assert str(exc).startswith(f"{exc.filename}: "), str(exc)
        return
    except OSError as exc:
        assert exc.filename is not None
        return
    assert isinstance(ts, TomogramSet)


@pytest.fixture(scope="module")
def saved_blocks(tmp_path_factory):
    """Each data file the block fuzz edits, with the load of the file that
    names it: an eight-angle set and a Wigner map."""
    out = tmp_path_factory.mktemp("blocks")
    manifest = save_tomogram_set(flagged_chirp_set(), out / "set")
    small = gaussian_wavefunction(GaussianState.from_position_data(0.7, 0.2, HBAR),
                                  make_grid(-8.0, 8.0, 64, HBAR))
    header = save_wigner(wigner_transform(small), out / "map" / "wigner.json")
    return {"tomograms.bin": (out / "set" / "tomograms.bin", lambda: load_tomogram_set(manifest)),
            "wigner.bin": (out / "map" / "wigner.bin", lambda: load_wigner(header))}


BLOCK_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
    st.tuples(st.just("value"), st.integers(0, 2**20), st.floats()))


def _edited(raw, edit):
    """``raw`` with one byte flipped, cut at a byte, lengthened, or with one
    float64 of the block replaced."""
    kind, *args = edit
    if kind == "flip":
        at = args[0] % len(raw)
        return raw[:at] + bytes([raw[at] ^ args[1]]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:args[0] % len(raw)]
    if kind == "extend":
        return raw + args[0]
    at, value = args
    values = np.frombuffer(raw, dtype=np.float64).copy()
    values[at % len(values)] = value
    return values.tobytes()


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["tomograms.bin", "wigner.bin"]),
       edit=BLOCK_EDITS)
@example(name="tomograms.bin", edit=("value", 100, float("nan")))
@example(name="tomograms.bin", edit=("value", 100, -1.0))
def test_fuzzed_data_file_loads_or_names_a_file(saved_blocks, name, edit):
    """A data file edited byte-wise, or with one value replaced (NaN and -1
    pinned), either loads as a valid object or raises ConfigError,
    DomainError or OSError whose message begins with the path of the file
    at fault: the manifest or header."""
    path, load = saved_blocks[name]
    good = path.read_bytes()
    path.write_bytes(_edited(good, edit))
    try:
        loaded = load()
    except (ConfigError, DomainError, OSError) as exc:
        assert str(exc).startswith(str(path.parent)), str(exc)
        return
    finally:
        path.write_bytes(good)
    assert isinstance(loaded, (TomogramSet, WignerMap))


@settings(max_examples=60, deadline=None)
@given(n_angles=st.integers(1, 40), data=st.data())
def test_manifest_angles_near_the_sweep_load_as_the_sweep(tmp_path_factory, n_angles, data):
    """Stored angles each within 1e-9 of theta_k = k*pi/n_angles load as the
    exact sweep; one entry 1e-8 or more off is a ConfigError."""
    ts = TomogramSet(np.linspace(-4.0, 4.0, 16, endpoint=False), np.ones((n_angles, 16)), HBAR)
    manifest = save_tomogram_set(ts, tmp_path_factory.mktemp("set"))
    doc = json.loads(manifest.read_text())
    shifts = data.draw(st.lists(st.floats(-1e-9, 1e-9), min_size=n_angles, max_size=n_angles))
    stored = ts.angles + shifts
    doc["angles"] = stored.tolist()
    manifest.write_text(json.dumps(doc))
    if np.all(np.abs(stored - ts.angles) <= 1e-9):
        assert np.array_equal(load_tomogram_set(manifest).angles, ts.angles)
    else:  # a shift of 1e-9 that rounding took past it
        with raises_naming(manifest, match="sweep"):
            load_tomogram_set(manifest)
    k = data.draw(st.integers(0, n_angles - 1))
    stored[k] = ts.angles[k] + data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
        st.floats(1e-8, 4.0))
    doc["angles"] = stored.tolist()
    manifest.write_text(json.dumps(doc))
    with raises_naming(manifest, match="sweep"):
        load_tomogram_set(manifest)


def test_manifest_contents(psi, tmp_path):
    ts = compute_tomogram_set(psi, 8)
    manifest = save_tomogram_set(ts, tmp_path)
    doc = json.loads(manifest.read_text())
    assert doc["n_angles"] == 8
    assert doc["hbar"] == HBAR
    assert "storage" not in doc
    assert (tmp_path / doc["data_file"]).exists()


def test_malformed_manifest_rejected(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"format": "other"}))
    with raises_naming(bad):
        load_tomogram_set(bad)


def _edit_manifest(psi, tmp_path, edit):
    manifest = save_tomogram_set(compute_tomogram_set(psi, 16), tmp_path)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize("edit", [
    lambda d: d.update(routes=d["routes"][:10]),
    lambda d: d.update(angles=d["angles"][:10]),
    lambda d: d.update(n_angles=10),
    lambda d: d.update(warnings=d["warnings"][:10]),
], ids=["routes", "angles", "n_angles", "warnings"])
def test_manifest_list_length_mismatch_rejected(psi, tmp_path, edit):
    manifest = _edit_manifest(psi, tmp_path, edit)
    with raises_naming(manifest, match="lengths"):
        load_tomogram_set(manifest)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["routes"].__setitem__(3, 1), "routes"),
    (lambda d: d.update(n_angles=16.7), "n_angles"),
    (lambda d: d.update(routes=0), "routes"),
    (lambda d: d.update(routes=False), "routes"),
    (lambda d: d.update(routes=""), "routes"),
    (lambda d: d.update(routes={}), "routes"),
    (lambda d: d.update(routes=[]), "routes"),
], ids=["routes", "n_angles", "routes-zero", "routes-false", "routes-empty-string",
        "routes-empty-object", "routes-empty-list"])
def test_manifest_entry_of_wrong_type_rejected(psi, tmp_path, edit, match):
    manifest = _edit_manifest(psi, tmp_path, edit)
    with raises_naming(manifest, match=match):
        load_tomogram_set(manifest)


@pytest.mark.parametrize("key", ["hbar", "n_angles", "x", "data_file", "routes", "warnings"])
def test_manifest_missing_key_rejected(psi, tmp_path, key):
    manifest = _edit_manifest(psi, tmp_path, lambda d: d.pop(key))
    with raises_naming(manifest, match="missing key"):
        load_tomogram_set(manifest)


def test_manifest_not_json_rejected(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"format": "symtomo.tomogram_set.v1", ')
    with raises_naming(bad, match="not valid JSON"):
        load_tomogram_set(bad)


def test_deterministic_bytes(psi, tmp_path):
    from symtomo import radon_metaplectic

    t = radon_metaplectic(psi, 0.6, 0.8)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_tomogram_csv(t, a)
    save_tomogram_csv(t, b)
    assert a.read_bytes() == b.read_bytes()


def texts(values):
    """What :func:`_g17` writes for each value, NUL bytes dropped."""
    return [row[row != 0].tobytes() for row in _g17(np.asarray(values, dtype=np.float64))]


def reference_texts(values):
    return [b"%.17g" % v for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_g17_matches_percent_g_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    assert texts(values) == reference_texts(values)


def _powers_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    powers = powers[powers > 0]
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def _ties():
    rng = np.random.default_rng(3)
    j = np.concatenate([4 * 10**15 + 1 + 2 * np.arange(500),
                        2 * rng.integers(2 * 10**15, 9 * 10**15 // 2, 2000) + 1])
    return j / 4  # exact: the 17th digit of 10 * j / 4 is followed by exactly 5


def _around(values, ulps=3):
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    for direction in (0.0, np.inf):
        step = values
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def _switches():
    rng = np.random.default_rng(4)
    return np.concatenate([_around([1e-5, 1e-4, 1e16, 1e17, 9.99999999999999e-5,
                                    99999999999999990.0]),
                           10.0 ** rng.uniform(-6, -3, 2000), 10.0 ** rng.uniform(15, 18, 2000)])


PINNED = {
    "subnormal-and-zero": np.concatenate([
        [0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308],
        np.random.default_rng(1).integers(1, 2**52, 500).view(np.float64)]),
    "powers-of-ten": _powers_of_ten(),
    "ties": _ties(),
    "fast-range-edges": _around([1e-290, 1e290], ulps=4),
    "notation-switches": _switches(),
    # the double nearest 1e-14 lies within 2e-18 below it: its 17 digits
    # round up to 10**17
    "carry": np.array([1e-14, 1e98, 1e129, 1e153, 1e220, 1e-79]),
}


@pytest.mark.parametrize("name", PINNED)
def test_g17_matches_percent_g_on_pinned_values(name):
    values = np.concatenate([PINNED[name], -PINNED[name]])
    assert texts(values) == reference_texts(values)


def test_g17_pinned_cases_are_what_they_say():
    j = (4 * _ties()).astype(np.int64)
    assert np.array_equal(j / 4, _ties()) and np.all(j % 2 == 1)
    assert np.all((_ties() >= 1e15) & (_ties() < 1e16))  # so 10 * v is the significand
    for v, e in zip(PINNED["carry"], (-14, 98, 129, 153, 220, -79)):
        assert Fraction(v) < Fraction(10) ** e
        assert b"%.16e" % v == b"1.0000000000000000e%+03d" % e
    assert texts([-0.0, 1e-14, 1000000000000000.25]) == [b"-0", b"1e-14", b"1000000000000000.2"]


def _hostile(rng, n):
    """Values over 600 decades with zeros and subnormals among them."""
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 300, n)
    values[::7] = 0.0
    values[3::11] = rng.integers(1, 2**52, len(values[3::11])).view(np.float64)
    return values


@pytest.mark.parametrize("block", [serialization.CSV_BLOCK, 7, 24])
def test_csv_writers_match_per_cell_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(serialization, "CSV_BLOCK", block)
    rng = np.random.default_rng(6)
    psi = gaussian_wavefunction(GaussianState.from_position_data(0.7, 0.2, HBAR),
                                make_grid(-8.0, 8.0, 64, HBAR))
    n = psi.grid.n_points
    grid16 = make_grid(-4.0, 4.0, 16, HBAR)
    cases = [
        (save_tomogram_csv, save_tomogram_csv_reference, compute_tomogram_set(psi, 8)[3]),
        (save_tomogram_csv, save_tomogram_csv_reference,
         Tomogram(1.0, 0.0, psi.grid.points, np.abs(_hostile(rng, n)), HBAR)),
        (save_wigner_csv, save_wigner_csv_reference, wigner_transform(psi)),
        (save_wigner_csv, save_wigner_csv_reference,
         WignerMap(grid16, make_grid(-1.0, 1.0, 8, HBAR), _hostile(rng, 128).reshape(16, 8), HBAR)),
    ]
    for save, reference, obj in cases:
        save(obj, tmp_path / "new.csv")
        reference(obj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("command, name", [
    (["wigner", "--grid=-8:8:64", "--state", "gaussian:0.7,0.2"], "wigner"),
    (["invert", "--set", "{set}"], "reconstruction"),
])
def test_cli_map_csv_matches_reference_writer(tmp_path, command, name):
    assert main(["tomogram", "--grid=-8:8:64", "--state", "gaussian:0.7,0.2", "--angles", "16",
                 "--out", str(tmp_path / "set")]) == 0
    command = [arg.format(set=tmp_path / "set" / "manifest.json") for arg in command]
    assert main(command + ["--out", str(tmp_path / "out")]) == 0
    save_wigner_csv_reference(load_wigner(tmp_path / "out" / f"{name}.json"), tmp_path / "ref.csv")
    assert (tmp_path / "out" / f"{name}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_wigner_csv_memory_is_one_block(tmp_path):
    grid = make_grid(-16.0, 16.0, 1024, HBAR)
    values = np.random.default_rng(8).standard_normal((1024, 1024)) * 1e-3
    w = WignerMap(grid, default_momentum_window(grid), values, HBAR)
    tracemalloc.start()
    try:
        save_wigner_csv(w, tmp_path / "big.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 50 * 2**20
    assert peak < 8 * 2**20


@pytest.mark.parametrize("order", ["C", "F"])
def test_binary_blocks_are_the_arrays_bytes(psi, tmp_path, order):
    """tomograms.bin and wigner.bin hold the bytes of ``values.tobytes()``
    (row-major), also for a set that adopted a column-major array, and a
    row-major block is written from the array's own buffer: the writer's
    traced peak stays below half a block."""
    ts = compute_tomogram_set(psi, 360)
    w = wigner_transform(psi)
    if order == "F":
        values = np.asfortranarray(ts.values)
        values.setflags(write=False)
        ts = TomogramSet(ts.x, values, ts.hbar, ts.routes, ts.warnings)
        assert ts.values is values
    tracemalloc.start()
    try:
        save_tomogram_set(ts, tmp_path / "set")
        _, set_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save_wigner(w, tmp_path / "wigner.json")
        _, map_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "set" / "tomograms.bin").read_bytes() == ts.values.tobytes()
    assert (tmp_path / "wigner.bin").read_bytes() == w.values.tobytes()
    if order == "C":
        assert set_peak < ts.values.nbytes / 2 and map_peak < w.values.nbytes / 2
