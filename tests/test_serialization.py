import json

import numpy as np
import pytest

from conftest import HBAR, flagged_chirp_set
from fbp_oracle import save_wigner_csv_reference

from symtomo import (
    ConfigError,
    GaussianState,
    gaussian_wavefunction,
    make_grid,
    wigner_transform,
)
from symtomo.radon import compute_tomogram_set
from symtomo.serialization import (
    fmt,
    load_tomogram_set,
    load_wavefunction_csv,
    load_wavefunction_json,
    load_wigner,
    save_tomogram_csv,
    save_tomogram_set,
    save_wavefunction_csv,
    save_wavefunction_json,
    save_wigner,
    save_wigner_csv,
)
from symtomo.wigner import WignerMap, default_momentum_window


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


def test_wavefunction_csv_round_trip(psi, tmp_path):
    path = tmp_path / "state.csv"
    save_wavefunction_csv(psi, path)
    back = load_wavefunction_csv(path, hbar=HBAR)
    assert np.array_equal(back.values, psi.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,re,im"


@pytest.mark.parametrize("row, edit, match", [
    (20, lambda x, re, im: ["123.0", re, im], "uniform"),
    (20, lambda x, re, im: [x, "abc", im], "malformed wavefunction CSV"),
    (33, lambda x, re, im: [x, re, ""], "malformed wavefunction CSV"),
    (5, lambda x, re, im: [x, re], "malformed wavefunction CSV"),
], ids=["x-off-grid", "non-numeric", "empty-cell", "two-columns"])
def test_wavefunction_csv_broken_cell_rejected(tmp_path, row, edit, match):
    path = tmp_path / "psi.csv"
    save_wavefunction_csv(
        gaussian_wavefunction(GaussianState.ground_state(HBAR), make_grid(-8, 8, 64, HBAR)), path)
    lines = path.read_text().splitlines()
    lines[row] = ",".join(edit(*lines[row].split(",")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=match):
        load_wavefunction_csv(path, hbar=HBAR)


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
    with pytest.raises(ConfigError):
        load_wavefunction_json(path)


def test_json_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("[1, 2, 3]")
    for load in (load_wavefunction_json, load_wigner, load_tomogram_set):
        with pytest.raises(ConfigError, match="not a"):
            load(path)


def test_wigner_binary_round_trip(psi, tmp_path):
    w = wigner_transform(psi)
    path = save_wigner(w, tmp_path / "wigner.json")
    back = load_wigner(path)
    assert np.array_equal(back.values, w.values)
    assert back.x_grid == w.x_grid and back.p_grid == w.p_grid


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


@pytest.mark.parametrize("storage", ["binary", "csv"])
def test_tomogram_set_round_trip(psi, tmp_path, storage):
    ts = compute_tomogram_set(psi, 16)
    manifest = save_tomogram_set(ts, tmp_path / storage, storage=storage)
    back = load_tomogram_set(manifest)
    assert len(back) == 16
    assert np.allclose(back.angles, ts.angles, rtol=0, atol=1e-15)
    for a, b in zip(ts, back):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.x, b.x)


@pytest.mark.parametrize("storage", ["binary", "csv"])
def test_tomogram_set_round_trip_keeps_warnings(tmp_path, storage):
    ts = flagged_chirp_set()
    assert ts.warnings.tolist() == [False, True, False, False, False, False, False, True]
    back = load_tomogram_set(save_tomogram_set(ts, tmp_path, storage=storage))
    assert np.array_equal(back.warnings, ts.warnings)
    assert back.routes == ts.routes


def test_manifest_without_warnings_loads_unflagged(tmp_path):
    manifest = save_tomogram_set(flagged_chirp_set(), tmp_path)
    doc = json.loads(manifest.read_text())
    del doc["warnings"]
    manifest.write_text(json.dumps(doc))
    assert not load_tomogram_set(manifest).warnings.any()


@pytest.mark.parametrize("warnings", [["yes"] * 8, 3], ids=["not-bools", "not-a-list"])
def test_manifest_bad_warnings_rejected(tmp_path, warnings):
    manifest = save_tomogram_set(flagged_chirp_set(), tmp_path)
    doc = json.loads(manifest.read_text())
    doc["warnings"] = warnings
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_tomogram_set(manifest)


def test_manifest_contents(psi, tmp_path):
    ts = compute_tomogram_set(psi, 8)
    manifest = save_tomogram_set(ts, tmp_path, storage="binary")
    doc = json.loads(manifest.read_text())
    assert doc["n_angles"] == 8
    assert doc["hbar"] == HBAR
    assert doc["storage"] == "binary"
    assert (tmp_path / doc["data_file"]).exists()


def test_malformed_manifest_rejected(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"format": "other"}))
    with pytest.raises(ConfigError):
        load_tomogram_set(bad)


def _edit_manifest(psi, tmp_path, storage, edit):
    manifest = save_tomogram_set(compute_tomogram_set(psi, 16), tmp_path, storage=storage)
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))
    return manifest


@pytest.mark.parametrize("storage, edit", [
    ("binary", lambda d: d.update(routes=d["routes"][:10])),
    ("binary", lambda d: d.update(angles=d["angles"][:10])),
    ("binary", lambda d: d.update(n_angles=10)),
    ("binary", lambda d: d.update(warnings=d["warnings"][:10])),
    ("csv", lambda d: d.update(files=d["files"][:10])),
], ids=["routes", "angles", "n_angles", "warnings", "files"])
def test_manifest_list_length_mismatch_rejected(psi, tmp_path, storage, edit):
    manifest = _edit_manifest(psi, tmp_path, storage, edit)
    with pytest.raises(ConfigError, match="lengths"):
        load_tomogram_set(manifest)


@pytest.mark.parametrize("key", ["hbar", "n_angles", "x", "storage", "data_file"])
def test_manifest_missing_key_rejected(psi, tmp_path, key):
    manifest = _edit_manifest(psi, tmp_path, "binary", lambda d: d.pop(key))
    with pytest.raises(ConfigError, match="missing key"):
        load_tomogram_set(manifest)


def test_csv_x_column_must_match_manifest(psi, tmp_path):
    manifest = save_tomogram_set(compute_tomogram_set(psi, 8), tmp_path, storage="csv")
    path = tmp_path / "tomogram_0003.csv"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data[:, 0] += 5.0
    np.savetxt(path, data, delimiter=",", header="x,value", comments="", fmt="%.17g")
    with pytest.raises(ConfigError, match="x column"):
        load_tomogram_set(manifest)


def test_manifest_not_json_rejected(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"format": "symtomo.tomogram_set.v1", ')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_tomogram_set(bad)


def test_fmt_round_trip():
    values = [0.1, 1 / 3, np.pi, 1e-300, 123456.789012345678]
    for v in values:
        assert float(fmt(v)) == v


def test_deterministic_bytes(psi, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_wavefunction_csv(psi, a)
    save_wavefunction_csv(psi, b)
    assert a.read_bytes() == b.read_bytes()
