"""Tests of the benchmark itself: its checkers, its failure accounting, its
span tracer and its seeds.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads as W

sym = run.import_symtomo()
STATE = W.State(1.2, 0.3)


def gaussian_psi(state, grid):
    gs = sym.gaussian.GaussianState(state.sxx, state.spp, state.sxp, W.HBAR)
    return sym.gaussian.gaussian_wavefunction(gs, grid)


# ---- output checks ----------------------------------------------------------

def test_checker_rejects_fbp_scaled_by_debug_constant():
    """1.05 is the constant ``symtomo check --debug-break-fbp`` injects."""
    grid = sym.grids.make_grid(*W.RECON_GRID, W.HBAR)
    ts = sym.radon.compute_tomogram_set(gaussian_psi(STATE, grid), 64, threads=1)
    verdicts = {}
    for scale in (1.0, 1.05):
        recon = sym.radon.inverse_radon(ts, grid, constant_scale=scale)
        checks = W.check_reconstruction(STATE, recon.x_grid.points, recon.p_grid.points,
                                        recon.values)
        verdicts[scale] = all(c.passed for c in checks)
    assert verdicts == {1.0: True, 1.05: False}


def test_checker_rejects_tomogram_shifted_by_1e_6():
    grid = sym.grids.make_grid(-16.0, 16.0, 1024, W.HBAR)
    ts = sym.radon.compute_tomogram_set(gaussian_psi(STATE, grid), 8, threads=1)
    values = np.stack([t.values for t in ts])

    def passes(x, v):
        return all(c.passed for c in W.check_sweep(STATE, ts.angles, x, v, 8, "t"))

    assert passes(ts.x, values)
    lifted = values.copy()
    lifted[3] += 1e-6
    assert not passes(ts.x, lifted)
    assert not passes(ts.x + 1e-6, values)


class Flaky(W.Workload):
    """Op 1 raises, op 2 exits like argparse, op 3 fails its check."""

    def prepare(self, rng):
        pass

    def op(self, i):
        if i == 1:
            raise RuntimeError("boom")
        if i == 2:
            raise SystemExit(2)
        return i

    def check(self, i, result):
        return [W.Check("value", 1.0 if i == 3 else 1e-9, 1e-7)]


def test_failed_ops_are_counted(tmp_path):
    wl = Flaky(sym, tmp_path)
    records = [run.attempt(wl, i) for i in range(5)]
    assert [r.passed for r in records] == [True, False, False, False, True]
    assert "RuntimeError" in records[1].error and "SystemExit" in records[2].error
    e2e, info = run.end_to_end(records, [1.0])
    assert e2e["error_rate"][0] == pytest.approx(3 / 5)
    assert e2e["ops_per_s"][0] == pytest.approx(2 / sum(r.seconds for r in records))
    assert info["ops"] == 5


def test_nonzero_exit_code_fails_the_op():
    assert not W.Check("exit_code", 2.0, 0.0).passed
    assert W.Check("exit_code", 0.0, 0.0).passed


def test_tail_percentile_leaves_ten_ops_beyond():
    times = [float(k) for k in range(40)]
    value, pct, beyond = run.tail(times)
    assert (value, beyond) == (29.0, 10) and pct == pytest.approx(75.0)
    value, pct, beyond = run.tail(times[:6])
    assert value == 3.0 and beyond == 2  # too few ops: the upper median


# ---- tracing ----------------------------------------------------------------

@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two independent traced runs of op 0 per workload, from one seed."""
    out = {}
    for name, cls in W.WORKLOADS.items():
        out[name] = []
        for k in range(2):
            wl = cls(sym, tmp_path_factory.mktemp(f"{name}{k}"))
            wl.prepare(np.random.default_rng(run.DEFAULT_SEED))
            tracer = spans.Tracer(sym)
            record = run.attempt(wl, 0, tracer)
            assert record.passed, record.error or record.checks
            out[name].append((tracer, record))
    return out


def test_wrappers_are_removed_after_an_op(traced):
    assert not hasattr(sym.cli.main, "__wrapped__")
    assert sym.radon.hbar_fourier is sym.grids.hbar_fourier
    assert not hasattr(sym.grids.hbar_fourier, "__wrapped__")


def test_self_times_and_remainder_add_up_to_op_wall(traced):
    for name, runs in traced.items():
        for tracer, record in runs:
            (op,) = tracer.op_ids()
            wall = tracer.op_wall(op)
            assert sum(tracer.op_self_times(op).values()) == pytest.approx(wall, abs=1e-9)
            assert wall == pytest.approx(record.seconds, abs=1e-3 + 0.01 * record.seconds)
            for s in tracer.spans:
                if s.parent >= 0:
                    parent = tracer.spans[s.parent]
                    assert parent.start <= s.start and s.end <= parent.end
                    assert parent.op == s.op


def test_computed_counts_repeat_exactly(traced):
    for name, ((a, _), (b, _)) in traced.items():
        assert a.counts == b.counts, name
        calls = {k: v for k, v in a.per_layer().items() if k.endswith(".calls")}
        assert calls == {k: v for k, v in b.per_layer().items() if k.endswith(".calls")}
    sweep = traced["sweep"][0][0].per_layer()
    assert sweep["radon.chirp_fallback_ratio"] == pytest.approx(41 / 360)
    assert sweep["serialization.save_tomogram_set.bytes"] == 2 * 8 * 360 * 1024
    recon = traced["reconstruct"][0][0].per_layer()
    assert recon["radon.inverse_radon.interp_points"] == 180 * 512 * 512
    assert recon["grids.fft_points"] == 2 * 180 * 4096
    assert traced["phase_space"][0][0].per_layer()["radon.radon_line_integral.samples"] > 0


# Per-call times at n = 1024 from the ROADMAP baseline table (2-core Xeon,
# numpy 2.4.6, scipy 1.17.1).  A traced op must land within a factor of 3.
ROADMAP_MS = {
    "grids.hbar_fourier": 0.11,
    "grids.sample_uniform": 0.49,
    "wigner.wigner_transform": 139.0,
    "radon.radon_metaplectic": (1.4 * 2.3) ** 0.5,
    "radon.radon_chirp_fft": 0.74,
    "radon.radon_line_integral": 1060.0,
}


def test_traced_rows_reproduce_roadmap_baseline(traced):
    rows = {**traced["sweep"][0][0].per_call_rows(),
            **traced["phase_space"][0][0].per_call_rows()}
    for label, baseline_ms in ROADMAP_MS.items():
        measured_ms = 1e3 * rows[f"{label}@n=1024"]["mean_s"]
        assert baseline_ms / 3 <= measured_ms <= baseline_ms * 3, (label, measured_ms)


# ---- seeds and the command line -----------------------------------------

@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_first_ops_pass_on_default_and_held_out_seed(name, seed, tmp_path):
    wl = W.WORKLOADS[name](sym, tmp_path)
    wl.prepare(np.random.default_rng(seed))
    for i in range(2):
        record = run.attempt(wl, i)
        assert record.passed, record.error or [c for c in record.checks if not c.passed]


# Draws where radon_line_integral misses its flat 5e-4 contract: the one
# ``symtomo check --seed 31`` makes for its route_equivalence_line_integral
# check (which fails there too, 1.08e-3), and op 15 of a phase_space run on
# seed 1150971671 before draws were limited by the stencil estimate (7.3e-4).
DEFECT_DRAWS = {
    "check_seed_31": (W.State(1.7584637090650297, -0.5187860851660403),
                      0.12579268512172967, 0.5482361629105801),
    "phase_seed_1150971671_op_15": (W.State(1.8801339165650608, -0.5110038256706949),
                                    0.17404852723933736, 0.8648546436756931),
}


def line_error(state, mu, nu):
    grid = sym.grids.make_grid(*W.PHASE_GRID, W.HBAR)
    square = sym.wigner.wigner_transform(gaussian_psi(state, grid), p_grid=grid)
    line = sym.radon.radon_line_integral(square, mu, nu)
    return W.linf(line.values, W.normal_density(line.x, state.variance(mu, nu)))


@pytest.mark.xfail(strict=True, reason="radon_line_integral misses its flat 5e-4 contract "
                   "where the bilinear stencil error of a narrow tomogram exceeds it")
@pytest.mark.parametrize("draw", list(DEFECT_DRAWS))
def test_line_integral_on_known_defect_draws(draw):
    error = line_error(*DEFECT_DRAWS[draw])
    assert error <= W.LINE_TOL, error


@pytest.mark.parametrize("state, mu, nu", [*DEFECT_DRAWS.values(), (STATE, 0.8, 1.1)])
def test_stencil_estimate_predicts_line_integral_error(state, mu, nu):
    assert line_error(state, mu, nu) == pytest.approx(W.line_stencil_error(state, mu, nu),
                                                      rel=0.05)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED])
def test_phase_draws_exclude_the_known_defect(seed):
    inputs, _ = W.draw_phase_inputs(np.random.default_rng(seed), W.STATE_POOL)
    assert len(inputs) == W.STATE_POOL
    assert max(W.line_stencil_error(st, mu, nu) for st, (mu, nu) in inputs) \
        <= W.LINE_DRAW_MAX * W.LINE_TOL
    assert all(W.line_stencil_error(*d) > W.LINE_TOL for d in DEFECT_DRAWS.values())


def test_fails_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it must exit
    nonzero without printing a result."""
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd]
                          + ["--workload", "sweep", "--seed", "1", "--seconds", "1",
                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
