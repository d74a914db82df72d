#!/usr/bin/env python3
"""symtomo benchmark.

    python3 perfbench/run.py --workload sweep|reconstruct|phase_space|all \
        [--seed N] [--seconds S] [--trace 0|1]

One process per workload runs a closed loop: one client, one op at a time,
no worker threads.  Set-up (import, input generation, one warm-up op) is
repeated SETUP_REPS times and its median reported as ``setup_s``; then ops
run until ``--seconds`` would be exceeded, each followed by an untimed check
of its output against a Gaussian closed form.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import machine
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1729
DEFAULT_SECONDS = 25
SETUP_REPS = 3
TAIL_BEYOND = 10

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import symtomo.cli; "
                "print(time.perf_counter() - t)")


def import_symtomo():
    """Import symtomo from this checkout's ``src`` and nowhere else."""
    pkg = SRC / "symtomo"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no symtomo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symtomo
    import symtomo.cli
    import symtomo.serialization  # noqa: F401  (module attribute for the tracer)
    if Path(symtomo.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported symtomo from {symtomo.__file__}, not {pkg}")
    return symtomo


def fresh_import_seconds() -> float:
    """Time to import symtomo in a new interpreter (start-up excluded)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


@dataclass
class OpRecord:
    seconds: float
    passed: bool
    traced: bool = False
    checks: list = field(default_factory=list)
    error: str | None = None

    @property
    def headroom(self) -> float | None:
        """The op's accuracy headroom: its worst check, in decades."""
        values = [c.headroom for c in self.checks if c.headroom is not None]
        return min(values) if values else None


def attempt(wl: workloads.Workload, i: int, tracer: spans.Tracer | None = None) -> OpRecord:
    """Run op ``i`` (timed), then check its output (untimed).  An op fails if
    it raises, exits nonzero or fails a check."""
    traced = tracer is not None
    start = time.perf_counter()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                tracer.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            with tracer.op(i) if traced else contextlib.nullcontext():
                result = wl.op(i)
            seconds = time.perf_counter() - start
    except (Exception, SystemExit) as exc:
        return OpRecord(time.perf_counter() - start, False, traced,
                        error=f"{type(exc).__name__}: {exc}")
    try:
        checks = wl.check(i, result)
    except Exception as exc:  # missing or unreadable output fails the op
        return OpRecord(seconds, False, traced, error=f"check: {type(exc).__name__}: {exc}")
    return OpRecord(seconds, all(c.passed for c in checks), traced, checks)


def set_up(wl_class, sym, seed: int, workdir: Path):
    """Set up SETUP_REPS times; returns (workload, set-up seconds, warm-up record)."""
    times = []
    for _ in range(SETUP_REPS):
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        wl = wl_class(sym, workdir)
        wl.prepare(np.random.default_rng(seed))
        prepare_s = time.perf_counter() - t0
        warm = attempt(wl, 0)
        times.append(import_s + prepare_s + warm.seconds)
    return wl, times, warm


def measure(wl, seconds: float, tracer: spans.Tracer | None = None) -> list[OpRecord]:
    """Closed loop until the next op would end past ``seconds``.  With a
    tracer, ops alternate untraced / traced."""
    records: list[OpRecord] = []
    minimum = 2 if tracer is not None else 1
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed + records[-1].seconds > seconds:
            return records
        i = len(records)
        records.append(attempt(wl, i, tracer if tracer is not None and i % 2 else None))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, ops beyond) at the highest percentile with at least
    TAIL_BEYOND ops beyond it; below 2*TAIL_BEYOND + 1 ops, the upper median."""
    s = sorted(times)
    n = len(s)
    idx = max(n - TAIL_BEYOND - 1, n // 2)
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def end_to_end(records: list[OpRecord], setup_times: list[float]) -> dict:
    times = [r.seconds for r in records]
    passed = sum(r.passed for r in records)
    tail_s, tail_pct, beyond = tail(times)
    headrooms = [r.headroom for r in records if r.headroom is not None]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (passed / sum(times), "1/s"),
        "error_rate": ((len(records) - passed) / len(records), "ratio"),
        "accuracy_headroom": (statistics.fmean(headrooms) if headrooms else 0.0, "decades"),
        "accuracy_headroom_min": (min(headrooms) if headrooms else 0.0, "decades"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, {"tail_percentile": tail_pct, "tail_ops_beyond": beyond, "ops": len(times)}


# error_rate is reported by name here and as failed/attempted in the result
# line; it is 0 on every correct run, so it is not a bounded JSON metric.
JSON_END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s",
                   "accuracy_headroom", "peak_rss_mib")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tomo_threads = os.environ.pop("TOMO_THREADS", None)
    env = machine.describe({v: os.environ.get(v) for v in machine.THREAD_VARS})
    env["tomo_threads_cleared"] = tomo_threads
    print("environment " + json.dumps(env), flush=True)

    sym = import_symtomo()
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_times, warm = set_up(workloads.WORKLOADS[name], sym, seed, workdir)
        if wl.note:
            print(wl.note, flush=True)
        tracer = spans.Tracer(sym) if trace else None
        records = measure(wl, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, r in enumerate([warm] + records):
        if not r.passed:
            bad = r.error or ", ".join(f"{c.name}={c.error:.3e}>{c.tol:.0e}"
                                       for c in r.checks if not c.passed)
            print(f"FAILED op {'warm-up' if k == 0 else k - 1}: {bad}", file=sys.stderr)
    failed = sum(not r.passed for r in records)
    result = {"correct": warm.passed and failed == 0, "attempted": len(records),
              "failed": failed, "metrics": {}}

    if not trace:
        e2e, info = end_to_end(records, setup_times)
        print(f"workload={name} seed={seed} ops={info['ops']} "
              f"tail=p{info['tail_percentile']:.1f} ({info['tail_ops_beyond']} ops beyond)")
        for key, (value, unit) in e2e.items():
            print(f"  {key:<18} {value:.6g} {unit}")
        result["metrics"] = {k: {"value": e2e[k][0], "unit": e2e[k][1]}
                             for k in JSON_END_TO_END}
        return result

    traced = [r.seconds for r in records if r.traced]
    plain = [r.seconds for r in records if not r.traced]
    layer = tracer.per_layer()
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out = HERE / "_out" / f"trace-{name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": name, "seed": seed, "environment": env,
                               **tracer.dump()}))
    print(f"workload={name} seed={seed} traced ops={len(traced)} untraced ops={len(plain)}"
          f" spans={len(tracer.spans)} -> {out.relative_to(ROOT)}")
    for row, v in tracer.per_call_rows().items():
        print(f"  {row:<44} calls={v['calls']:<6} mean={1e3 * v['mean_s']:.4g} ms")
    result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return result


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed "
                             f"{HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
