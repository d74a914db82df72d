"""Command-line front end.

Subcommands compute Wigner maps, tomograms/tomogram sweeps, the filtered
back-projection inverse, a Pauli-reconstruction demonstration, and the
cross-module invariant suite.  Outputs are plot-ready CSV/JSON written
atomically; exit codes: 0 success, 1 failed check, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checks import run_checks
from .errors import SymtomoError
from .gaussian import (
    GaussianState,
    gaussian_wavefunction,
    pauli_reconstruct,
    tomogram_variance,
)
from .grids import Grid1D, make_grid
from .radon import (
    compute_tomogram_set,
    inverse_radon,
    radon_chirp_fft,
    radon_line_integral,
    radon_metaplectic,
)
from .serialization import (
    atomic_write,
    load_tomogram_set,
    load_wavefunction_json,
    load_wigner,
    save_tomogram_csv,
    save_tomogram_set,
    save_wavefunction_json,
    save_wigner,
    save_wigner_csv,
)
from .wigner import wigner_transform

USAGE_ERROR = 2
CHECK_FAILED = 1


def _parse_grid(spec: str, hbar: float) -> Grid1D:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SymtomoError(f"--grid expects MIN:MAX:N, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SymtomoError(f"--grid expects numeric MIN:MAX:N, got {spec!r}") from exc
    return make_grid(lo, hi, n, hbar)


def _parse_state(spec: str, grid: Grid1D, hbar: float):
    """Returns (psi, gaussian_state_or_None)."""
    if spec.startswith("gaussian:"):
        parts = spec[len("gaussian:"):].split(",")
        if len(parts) not in (2, 3):
            raise SymtomoError(
                "--state gaussian expects sigma_xx,sigma_xp[,sigma_pp]")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise SymtomoError(f"non-numeric gaussian parameters in {spec!r}") from exc
        if len(vals) == 2:
            state = GaussianState.from_position_data(vals[0], vals[1], hbar)
        else:
            state = GaussianState(vals[0], vals[2], vals[1], hbar)
        return gaussian_wavefunction(state, grid), state
    if spec.startswith("file:"):
        path = Path(spec[len("file:"):])
        if not path.exists():
            raise SymtomoError(f"state file not found: {path}")
        return load_wavefunction_json(path), None
    raise SymtomoError(f"--state expects gaussian:... or file:PATH, got {spec!r}")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--grid", default="-16:16:1024", metavar="MIN:MAX:N")
    parser.add_argument("--state", required=True, metavar="gaussian:SXX,SXP[,SPP]|file:PATH")
    parser.add_argument("--out", required=True, metavar="DIR")


def cmd_wigner(args) -> int:
    grid = _parse_grid(args.grid, args.hbar)
    psi, _ = _parse_state(args.state, grid, args.hbar)
    w = wigner_transform(psi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_wigner(w, out / "wigner.json")
    save_wigner_csv(w, out / "wigner.csv")
    save_wavefunction_json(psi, out / "state.json")
    print(f"wrote {out / 'wigner.json'} (+.bin) and {out / 'wigner.csv'}")
    return 0


def cmd_tomogram(args) -> int:
    grid = _parse_grid(args.grid, args.hbar)
    psi, _ = _parse_state(args.state, grid, args.hbar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.angles is not None:
        if args.route == "line-integral":
            raise SymtomoError("angle sweeps support the metaplectic and chirp-fft routes")
        ts = compute_tomogram_set(psi, args.angles, route=args.route)
        manifest = save_tomogram_set(ts, out)
        print(f"wrote {len(ts)} tomograms to {manifest}")
        return 0
    if args.mu is None or args.nu is None:
        raise SymtomoError("provide either --angles or both --mu and --nu")
    if args.route == "metaplectic":
        t = radon_metaplectic(psi, args.mu, args.nu)
    elif args.route == "chirp-fft":
        t = radon_chirp_fft(psi, args.mu, args.nu)
    else:
        t = radon_line_integral(wigner_transform(psi), args.mu, args.nu)
    save_tomogram_csv(t, out / "tomogram.csv")
    meta = {
        "mu": t.mu, "nu": t.nu, "hbar": t.hbar, "route": t.route,
        "mass": t.mass(), "accuracy_warning": t.accuracy_warning,
    }
    atomic_write(out / "tomogram_meta.json", (json.dumps(meta).encode(),))
    print(f"wrote {out / 'tomogram.csv'} (route={t.route}, mass={t.mass():.9f})")
    return 0


def cmd_invert(args) -> int:
    manifest = Path(args.set)
    if not manifest.exists():
        raise SymtomoError(f"tomogram-set manifest not found: {manifest}")
    ts = load_tomogram_set(manifest)
    x = ts.x
    n = len(x)
    x_grid = Grid1D(float(x[0]), n, float(x[1] - x[0]), ts.hbar)
    reference = None
    if args.reference is not None:
        reference = load_wigner(args.reference)
        if not (reference.x_grid.close_to(x_grid, tol=1e-9)):
            raise SymtomoError("reference map grid does not match the tomogram X grid")
    p_grid = reference.p_grid if reference is not None else None
    recon = inverse_radon(ts, x_grid, p_grid=p_grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_wigner(recon, out / "reconstruction.json")
    save_wigner_csv(recon, out / "reconstruction.csv")
    report = {"n_angles": len(ts), "hbar": ts.hbar,
              "mass": recon.mass(), "min_value": float(recon.values.min())}
    if reference is not None:
        resid = float(np.max(np.abs(recon.values - reference.values)))
        report["reference"] = str(args.reference)
        report["linf_residual"] = resid
    atomic_write(out / "report.json", (json.dumps(report).encode(),))
    print(json.dumps(report))
    return 0


def cmd_pauli_demo(args) -> int:
    if not args.state.startswith("gaussian:"):
        raise SymtomoError("pauli-demo requires a gaussian state spec")
    grid = _parse_grid(args.grid, args.hbar)
    psi, state = _parse_state(args.state, grid, args.hbar)
    twin = GaussianState(state.sigma_xx, state.sigma_pp, -state.sigma_xp, args.hbar)
    psi_twin = gaussian_wavefunction(twin, grid)

    t_x = radon_metaplectic(psi, 1.0, 0.0)
    t_p = radon_metaplectic(psi, 0.0, 1.0)
    t_x_twin = radon_metaplectic(psi_twin, 1.0, 0.0)
    t_p_twin = radon_metaplectic(psi_twin, 0.0, 1.0)
    mu, nu = args.mu, args.nu
    if mu == 0.0 or nu == 0.0:
        raise SymtomoError("the extra tomogram needs mu*nu != 0")
    t_extra = radon_chirp_fft(psi, mu, nu)
    t_extra_twin = radon_chirp_fft(psi_twin, mu, nu)

    rec = pauli_reconstruct(t_x, t_p, t_extra)
    report = {
        "hbar": args.hbar,
        "input": {"sigma_xx": state.sigma_xx, "sigma_xp": state.sigma_xp,
                  "sigma_pp": state.sigma_pp},
        "twin": {"sigma_xx": twin.sigma_xx, "sigma_xp": twin.sigma_xp,
                 "sigma_pp": twin.sigma_pp},
        "axis_tomograms_identical_linf": {
            "position": float(np.max(np.abs(t_x.values - t_x_twin.values))),
            "momentum": float(np.max(np.abs(t_p.values - t_p_twin.values))),
        },
        "extra_tomogram": {
            "mu": mu, "nu": nu,
            "twin_separation_linf": float(np.max(np.abs(t_extra.values - t_extra_twin.values))),
            "variance_candidates": {
                "plus": tomogram_variance(
                    GaussianState(state.sigma_xx, state.sigma_pp,
                                  abs(state.sigma_xp), args.hbar), mu, nu),
                "minus": tomogram_variance(
                    GaussianState(state.sigma_xx, state.sigma_pp,
                                  -abs(state.sigma_xp), args.hbar), mu, nu),
                "measured": t_extra.moments()[1],
            },
        },
        "recovered": {
            "sigma_xx": rec.state.sigma_xx,
            "sigma_pp": rec.state.sigma_pp,
            "sigma_xp": rec.state.sigma_xp,
            "sigma_pp_measured": rec.sigma_pp_measured,
            "sign_margin": rec.sign_margin,
            "best_residual": rec.best_residual,
            "alternative_residual": rec.alternative_residual,
            "sign_moot": rec.sign_moot,
        },
        "errors": {
            "sigma_xx": abs(rec.state.sigma_xx - state.sigma_xx),
            "sigma_pp": abs(rec.state.sigma_pp - state.sigma_pp),
            "sigma_xp": abs(rec.state.sigma_xp - state.sigma_xp),
        },
    }
    text = json.dumps(report, indent=2)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "pauli_report.json", (text.encode(),))
    print(text)
    return 0


def cmd_check(args) -> int:
    scale = 1.05 if args.debug_break_fbp else 1.0
    outcomes = run_checks(seed=args.seed, hbar=args.hbar, fbp_constant_scale=scale)
    width = max(len(o.name) for o in outcomes)
    for o in outcomes:
        mark = "PASS" if o.passed else "FAIL"
        print(f"{o.name:<{width}}  {mark}  {o.detail}")
    failed = [o for o in outcomes if not o.passed]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed")
    return 0 if not failed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtomo",
        description="Quadrature tomograms of 1-d pure states, their filtered "
                    "back-projection inverse, and Gaussian covariance recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="compute and export a Wigner map")
    _add_common(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("tomogram", help="compute one tomogram or an angle sweep")
    _add_common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--angles", type=int, help="sweep over this many angles in [0, pi)")
    p.add_argument("--route", choices=["metaplectic", "chirp-fft", "line-integral"],
                   default="metaplectic")
    p.set_defaults(func=cmd_tomogram)

    p = sub.add_parser("invert", help="filtered back-projection of a tomogram set")
    p.add_argument("--set", required=True, metavar="MANIFEST")
    p.add_argument("--reference", metavar="WIGNER_JSON",
                   help="reference Wigner map for a residual report")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("pauli-demo",
                       help="show the covariance-sign ambiguity and its resolution")
    _add_common(p)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=1.0)
    p.set_defaults(func=cmd_pauli_demo)

    p = sub.add_parser("check", help="run the cross-module invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--debug-break-fbp", action="store_true",
                   help="negative control: inject a wrong reconstruction constant")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SymtomoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
