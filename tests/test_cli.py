import json

import numpy as np
import pytest

from conftest import flagged_chirp_set

import symtomo.grids
from symtomo import ConfigError, GaussianState, gaussian_wavefunction, make_grid, wigner_transform
from symtomo.checks import CONTRACT
from symtomo.cli import main
from symtomo.serialization import (
    load_tomogram_set,
    save_tomogram_set,
    save_wavefunction_json,
    save_wigner,
)


def run(args):
    return main(args)


def fails_naming(args, path, capsys):
    """Whether the command exits 2 with an error that begins with ``path``."""
    capsys.readouterr()
    return run(args) == 2 and f"error: {path}: " in capsys.readouterr().err


class TestWignerCommand:
    def test_peak_value(self, tmp_path, capsys):
        code = run(["wigner", "--grid=-12:12:512", "--state", "gaussian:0.5,0",
                    "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "wigner.json").read_text())
        raw = np.fromfile(tmp_path / doc["data_file"], dtype=np.float64)
        assert abs(raw.max() - 1 / np.pi) < 1e-6

    def test_missing_state_file(self, tmp_path, capsys):
        assert run(["wigner", "--grid=-12:12:512",
                    "--state", "file:/does/not/exist.json",
                    "--out", str(tmp_path)]) == 2
        assert "/does/not/exist.json" in capsys.readouterr().err

    def test_non_power_of_two_grid(self, tmp_path):
        assert run(["wigner", "--grid=-12:12:1000", "--state", "gaussian:1,0",
                    "--out", str(tmp_path)]) == 2

    def test_non_finite_state_file(self, tmp_path, capsys):
        path = tmp_path / "psi.json"
        save_wavefunction_json(gaussian_wavefunction(GaussianState.ground_state(1.0),
                                                     make_grid(-8, 8, 64, 1.0)), path)
        doc = json.loads(path.read_text())
        doc["values"][40] = float("nan")
        path.write_text(json.dumps(doc))
        assert fails_naming(["wigner", "--grid=-8:8:64", "--state", f"file:{path}",
                             "--out", str(tmp_path / "out")], path, capsys)
        assert not (tmp_path / "out" / "wigner.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("values"),
        lambda d: d.pop("grid"),
        lambda d: d.update(values="abc"),
    ], ids=["values-missing", "grid-missing", "values-string"])
    def test_malformed_state_file(self, tmp_path, capsys, edit):
        path = tmp_path / "psi.json"
        save_wavefunction_json(gaussian_wavefunction(GaussianState.ground_state(1.0),
                                                     make_grid(-8, 8, 64, 1.0)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert fails_naming(["wigner", "--grid=-8:8:64", "--state", f"file:{path}",
                             "--out", str(tmp_path / "out")], path, capsys)
        assert not (tmp_path / "out").exists()

    def test_bad_grid_spec(self, tmp_path):
        assert run(["wigner", "--grid=nonsense", "--state", "gaussian:1,0",
                    "--out", str(tmp_path)]) == 2


class TestTomogramCommand:
    def test_position_axis_csv(self, tmp_path):
        code = run(["tomogram", "--grid=-16:16:1024", "--state", "gaussian:1,0",
                    "--mu", "1", "--nu", "0", "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "tomogram.csv", delimiter=",", skiprows=1)
        want = np.exp(-data[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(data[:, 1] - want)) < 1e-7

    def test_fine_grid_tomogram(self, tmp_path):
        # lambda*(state grid) for lambda = hypot(1, 0.5): a rounded X grid
        # whose steps differ by 3.3e-12 relative
        code = run(["tomogram", "--grid=-64:64:16384", "--state", "gaussian:1,0.3",
                    "--mu", "1", "--nu", "0.5", "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "tomogram_meta.json").read_text())
        assert meta["accuracy_warning"] is False
        assert abs(meta["mass"] - 1.0) <= 1e-7

    def test_sweep_manifest(self, tmp_path):
        code = run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0.2",
                    "--angles", "36", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["n_angles"] == 36
        assert len(doc["angles"]) == 36

    def test_line_integral_route(self, tmp_path):
        code = run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0",
                    "--mu", "1", "--nu", "1", "--route", "line-integral",
                    "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "tomogram_meta.json").read_text())
        assert meta["route"] == "line-integral"
        data = np.loadtxt(tmp_path / "tomogram.csv", delimiter=",", skiprows=1)
        var = 1.0 + 0.25  # sigma_xx + sigma_pp for gaussian:1,0
        want = np.exp(-data[:, 0] ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(data[:, 1] - want)) < 5e-4

    def test_line_integral_route_uses_alias_free_window(self, tmp_path):
        # The state grid reaches |p| = 16, past the alias-free band
        # |p| <= pi/(2*dx) = 4*pi; the default window ends on the band edge,
        # so the map is not flagged.
        code = run(["tomogram", "--grid=-16:16:256", "--state", "gaussian:0.5,0",
                    "--mu", "1", "--nu", "1", "--route", "line-integral",
                    "--out", str(tmp_path)])
        assert code == 0
        meta = json.loads((tmp_path / "tomogram_meta.json").read_text())
        assert meta["accuracy_warning"] is False
        assert abs(meta["mass"] - 1.0) < 1e-12
        data = np.loadtxt(tmp_path / "tomogram.csv", delimiter=",", skiprows=1)
        var = 0.5 + 0.5  # sigma_xx + sigma_pp for gaussian:0.5,0
        want = np.exp(-data[:, 0] ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(data[:, 1] - want)) < 5e-4

    def test_chirp_route_nu_zero(self, tmp_path, capsys):
        code = run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0",
                    "--mu", "1", "--nu", "0", "--route", "chirp-fft",
                    "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("spec", ["gaussian:nan,0", "gaussian:1,nan", "gaussian:1,0,inf"])
    def test_non_finite_state_rejected(self, tmp_path, spec):
        assert run(["tomogram", "--grid=-12:12:256", "--state", spec,
                    "--angles", "8", "--out", str(tmp_path)]) == 2

    def test_zero_direction(self, tmp_path):
        assert run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0",
                    "--mu", "0", "--nu", "0", "--out", str(tmp_path)]) == 2

    def test_no_threads_option(self, tmp_path, capsys):
        """CPU affinity (taskset) caps the workers of every kernel; the CLI
        has no option of its own for them.  Nor does a sweep take a storage
        option: a set is always a manifest and one binary block."""
        for option, value in (("--threads", "2"), ("--storage", "csv")):
            with pytest.raises(SystemExit) as exc:
                run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0",
                     "--angles", "8", option, value, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert option in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("route", ["metaplectic", "chirp-fft"])
    def test_default_workers_write_the_bytes_of_one(self, tmp_path, monkeypatch, route):
        """A sweep runs on every usable CPU and writes the bytes of a sweep
        that sees one usable CPU."""
        sweep = ["tomogram", "--grid=-16:16:1024", "--state", "gaussian:0.8,0.3",
                 "--angles", "360", "--route", route]
        assert run(sweep + ["--out", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(symtomo.grids, "_usable_cpus", lambda: 1)
        assert run(sweep + ["--out", str(tmp_path / "one")]) == 0
        assert ((tmp_path / "default" / "tomograms.bin").read_bytes()
                == (tmp_path / "one" / "tomograms.bin").read_bytes())

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["tomogram", "--grid=-12:12:512", "--state",
                        "gaussian:0.8,0.1", "--mu", "1", "--nu", "2",
                        "--out", str(out)]) == 0
        assert (a / "tomogram.csv").read_bytes() == (b / "tomogram.csv").read_bytes()


class TestInvertCommand:
    def test_round_trip_with_reference(self, tmp_path):
        grid = "-12:12:512"
        assert run(["wigner", "--grid=" + grid, "--state", "gaussian:0.5,0",
                    "--out", str(tmp_path / "ref")]) == 0
        assert run(["tomogram", "--grid=" + grid, "--state", "gaussian:0.5,0",
                    "--angles", "180", "--out", str(tmp_path / "set")]) == 0
        code = run(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                    "--reference", str(tmp_path / "ref" / "wigner.json"),
                    "--out", str(tmp_path / "rec")])
        assert code == 0
        report = json.loads((tmp_path / "rec" / "report.json").read_text())
        assert report["linf_residual"] <= 1e-3

    def test_default_workers_write_the_bytes_of_one(self, tmp_path, monkeypatch):
        """An inversion runs on every usable CPU and writes the bytes of an
        inversion that sees one usable CPU."""
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:0.8,0.3",
                    "--angles", "90", "--out", str(tmp_path / "set")]) == 0
        invert = ["invert", "--set", str(tmp_path / "set" / "manifest.json")]
        assert run(invert + ["--out", str(tmp_path / "default")]) == 0
        monkeypatch.setattr(symtomo.grids, "_usable_cpus", lambda: 1)
        assert run(invert + ["--out", str(tmp_path / "one")]) == 0
        for name in ("reconstruction.bin", "reconstruction.csv"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "one" / name).read_bytes()), name

    def test_flags_survive_the_set_file(self, tmp_path):
        save_tomogram_set(flagged_chirp_set(), tmp_path / "set")
        assert run(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                    "--out", str(tmp_path / "rec")]) == 0
        doc = json.loads((tmp_path / "rec" / "reconstruction.json").read_text())
        assert doc["accuracy_warning"] is True

    def test_too_few_angles(self, tmp_path):
        assert run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:1,0",
                    "--angles", "4", "--out", str(tmp_path / "set")]) == 0
        assert run(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                    "--out", str(tmp_path / "rec")]) == 2

    def test_reference_grid_mismatch(self, tmp_path):
        assert run(["wigner", "--grid=-8:8:256", "--state", "gaussian:0.5,0",
                    "--out", str(tmp_path / "ref")]) == 0
        assert run(["tomogram", "--grid=-12:12:512", "--state", "gaussian:0.5,0",
                    "--angles", "32", "--out", str(tmp_path / "set")]) == 0
        assert run(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                    "--reference", str(tmp_path / "ref" / "wigner.json"),
                    "--out", str(tmp_path / "rec")]) == 2

    def test_malformed_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{}")
        assert fails_naming(["invert", "--set", str(bad), "--out", str(tmp_path / "rec")],
                            bad, capsys)

    def test_manifest_missing_key(self, tmp_path, capsys):
        """A manifest without its hbar, and one of the per-angle CSV sets of
        older versions (a "files" list in place of "data_file"), each fail
        to load naming the manifest, and invert exits 2 writing nothing."""
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:1,0",
                    "--angles", "8", "--out", str(tmp_path / "set")]) == 0
        manifest = tmp_path / "set" / "manifest.json"
        written = json.loads(manifest.read_text())
        no_hbar = {k: v for k, v in written.items() if k != "hbar"}
        csv_set = {k: v for k, v in written.items() if k != "data_file"}
        csv_set.update(storage="csv", files=[f"tomogram_{k:04d}.csv" for k in range(8)])
        for doc in (no_hbar, csv_set):
            manifest.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match="missing key") as err:
                load_tomogram_set(manifest)
            assert str(err.value).startswith(f"{manifest}: ")
            assert fails_naming(["invert", "--set", str(manifest),
                                 "--out", str(tmp_path / "rec")], manifest, capsys)
            assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("key, value", [("routes", 1), ("n_angles", 8.7)])
    def test_manifest_entry_of_wrong_type(self, tmp_path, capsys, key, value):
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:1,0",
                    "--angles", "8", "--out", str(tmp_path / "set")]) == 0
        manifest = tmp_path / "set" / "manifest.json"
        doc = json.loads(manifest.read_text())
        if isinstance(doc[key], list):
            doc[key][0] = value
        else:
            doc[key] = value
        manifest.write_text(json.dumps(doc))
        assert fails_naming(["invert", "--set", str(manifest), "--out", str(tmp_path / "rec")],
                            manifest, capsys)

    def test_manifest_not_json(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("not json")
        assert fails_naming(["invert", "--set", str(bad), "--out", str(tmp_path / "rec")],
                            bad, capsys)

    def test_non_finite_reference(self, tmp_path, capsys):
        assert run(["wigner", "--grid=-12:12:256", "--state", "gaussian:0.5,0",
                    "--out", str(tmp_path / "ref")]) == 0
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:0.5,0",
                    "--angles", "8", "--out", str(tmp_path / "set")]) == 0
        raw = np.fromfile(tmp_path / "ref" / "wigner.bin")
        raw[1000] = np.nan
        raw.tofile(tmp_path / "ref" / "wigner.bin")
        assert fails_naming(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                             "--reference", str(tmp_path / "ref" / "wigner.json"),
                             "--out", str(tmp_path / "rec")],
                            tmp_path / "ref" / "wigner.json", capsys)
        assert not (tmp_path / "rec").exists()

    def test_reference_with_off_centre_p_grid(self, tmp_path):
        grid = make_grid(-12.0, 12.0, 256)
        psi = gaussian_wavefunction(GaussianState.from_position_data(0.5, 0.0), grid)
        save_wigner(wigner_transform(psi, p_grid=make_grid(-2.0, 4.0, 128)),
                    tmp_path / "ref" / "wigner.json")
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:0.5,0",
                    "--angles", "8", "--out", str(tmp_path / "set")]) == 0
        assert run(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                    "--reference", str(tmp_path / "ref" / "wigner.json"),
                    "--out", str(tmp_path / "rec")]) == 2
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("key", ["data_file", "hbar", "x_grid", "p_grid"])
    def test_reference_missing_key(self, tmp_path, capsys, key):
        assert run(["wigner", "--grid=-12:12:256", "--state", "gaussian:0.5,0",
                    "--out", str(tmp_path / "ref")]) == 0
        assert run(["tomogram", "--grid=-12:12:256", "--state", "gaussian:0.5,0",
                    "--angles", "8", "--out", str(tmp_path / "set")]) == 0
        ref = tmp_path / "ref" / "wigner.json"
        doc = json.loads(ref.read_text())
        del doc[key]
        ref.write_text(json.dumps(doc))
        assert fails_naming(["invert", "--set", str(tmp_path / "set" / "manifest.json"),
                             "--reference", str(ref), "--out", str(tmp_path / "rec")],
                            ref, capsys)


class TestPauliDemoCommand:
    def test_sign_recovered_with_margin(self, tmp_path, capsys):
        code = run(["pauli-demo", "--grid=-16:16:1024", "--state", "gaussian:1,0.4",
                    "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "pauli_report.json").read_text())
        assert report["twin"]["sigma_xp"] == -0.4
        axis = report["axis_tomograms_identical_linf"]
        assert axis["position"] < 1e-10 and axis["momentum"] < 1e-10
        assert report["extra_tomogram"]["twin_separation_linf"] > 1e-3
        rec = report["recovered"]
        assert not rec["sign_moot"]
        assert abs(rec["sigma_xp"] - 0.4) < 1e-4
        assert rec["sign_margin"] > 10 * rec["best_residual"]

    def test_sign_moot_flagged(self, tmp_path):
        code = run(["pauli-demo", "--grid=-16:16:1024", "--state", "gaussian:1,0",
                    "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "pauli_report.json").read_text())
        assert report["recovered"]["sign_moot"]

    def test_unphysical_covariances_rejected(self, tmp_path):
        # explicit sigma_pp with sigma_xx*sigma_pp < hbar^2/4
        assert run(["pauli-demo", "--grid=-16:16:1024",
                    "--state", "gaussian:1,0,0.2", "--out", str(tmp_path)]) == 2

    def test_non_gaussian_spec_rejected(self, tmp_path):
        assert run(["pauli-demo", "--grid=-16:16:1024",
                    "--state", "file:whatever.json", "--out", str(tmp_path)]) == 2


class TestCheckCommand:
    def test_passes_and_prints_table(self, capsys):
        code = run(["check", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
        assert [l.split()[0] for l in lines] == list(CONTRACT)
        assert all("PASS" in l for l in lines)

    def test_seed_determinism(self, capsys):
        assert run(["check", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["check", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_negative_control_fails(self, capsys):
        code = run(["check", "--seed", "1", "--debug-break-fbp"])
        out = capsys.readouterr().out
        assert code == 1
        assert any("fbp_round_trip" in l and "FAIL" in l for l in out.splitlines())
