"""Benchmark of the vibronic solvers: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fock-large --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, wall time per unit
of work, peak resident memory); ``--trace 1`` alternates untraced units with
units that have every layer wrapped, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the run
environment and every metric with its unit, ``failed_frac`` included.  A
result file (and, when traced, the spans as JSON lines) is written under
``perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the workloads are single-process and run with
# --threads 1, and a second BLAS thread on a 2-core machine only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import BENCH, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

SETUP_SAMPLES = 5  # fresh processes per run; setup_s is their median
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(args, workdir: Path) -> int:
    """Child process: time ``import vibronic`` and the workload's set-up."""
    t0 = time.perf_counter()
    import vibronic  # noqa: F401

    t1 = time.perf_counter()
    WORKLOADS[args.workload](args.seed, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


def measure_setup(args, workdir: Path):
    """Median over fresh processes of import plus set-up; returns (setup_s, samples)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", "0",
            "--setup-probe", str(workdir / f"setup-{i}"),
        ]
        proc = subprocess.run(
            cmd,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    totals = [s["import_s"] + s["build_s"] for s in samples]
    return statistics.median(totals), samples


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """(library path, thread count) of each OpenBLAS loaded into this process."""
    import ctypes

    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": Path(path).name, "threads": fn()})
                break
    return found


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Measurement


def run_units(unit, seconds: float):
    """Run units until ``seconds`` have passed (at least one); returns times and counts."""
    times = []
    attempted = failed = 0
    end = time.perf_counter() + seconds
    index = 0
    while True:
        t0 = time.perf_counter()
        a, f = unit(index)
        times.append(time.perf_counter() - t0)
        attempted += a
        failed += f
        index += 1
        if time.perf_counter() >= end:
            return times, attempted, failed


def _per_unit(values, n):
    return sum(values) / n


def layer_metrics(tracer: Tracer, first: int, bo_before, n: int) -> dict:
    """Per-layer metrics per traced unit, from the spans recorded after index ``first``."""
    spans = tracer.spans[first:]
    selfs = tracer.self_times()
    layer_of = {s[0]: s[2] for s in tracer.spans}
    bo_calls, bo_s = (x - y for x, y in zip(tracer.counts["bopes.bo_energy"], bo_before))

    def named(name):
        return [s for s in spans if s[1] == name and "raised" not in s[7]]

    def dur(ss):
        return _per_unit([s[4] - s[3] for s in ss], n)

    m = {}
    for name in (
        "fock.ground_state",
        "fock.build_fock_matrix",
        "fock.converge_cutoff",
        "bopes.minimize_bo",
        "graphs.build_resonant_manifold",
        "cli.main",
    ):
        m[f"{name}.calls"] = len(named(name)) / n
        m[f"{name}.s"] = dur(named(name))
    for name in ("fock.converge_cutoff", "bopes.minimize_bo"):
        m[f"{name}.self_s"] = _per_unit([selfs[s[0]] for s in named(name)], n)

    solves = named("fock.converge_cutoff")
    m["fock.stages_per_solve"] = (
        sum(s[7]["stages"] for s in solves) / len(solves) if solves else 0.0
    )
    m["fock.unconverged"] = sum(not s[7]["converged"] for s in solves) / n
    builds = named("fock.build_fock_matrix")
    for key in ("dim", "nnz", "csr_bytes"):
        m[f"fock.{key}_max"] = max((s[7][key] for s in builds), default=0)

    minimizations = named("bopes.minimize_bo")
    m["bopes.bo_energy.calls"] = bo_calls / n
    m["bopes.bo_energy.s"] = bo_s / n
    m["bopes.evals_per_minimize"] = bo_calls / len(minimizations) if minimizations else 0.0
    starts = sum(s[7]["starts"] or 0 for s in minimizations)
    basins = sum(s[7]["basins"] for s in minimizations if s[7]["starts"])
    m["bopes.basin_yield"] = basins / starts if starts else 0.0

    # a layer is entered when a span of it opens under a span of another layer
    for layer in ("assembly", "analytic"):
        entries = [s for s in spans if s[2] == layer and layer_of.get(s[5]) != layer]
        m[f"{layer}.calls"] = len(entries) / n
        m[f"{layer}.s"] = dur(entries)

    for layer in LAYERS + (BENCH,):
        own = [selfs[s[0]] for s in spans if s[2] == layer]
        m[f"{layer}.self_s"] = _per_unit(own, n) + (bo_s / n if layer == "bopes" else 0.0)
    m["cli.artifact_bytes"] = _per_unit([s[7]["artifact_bytes"] for s in named("cli.main")], n)
    return m


def traced_run(args, wl, workdir: Path):
    """Alternate untraced and traced units; returns metrics, counts and the tracer.

    Machine speed drifts over tens of seconds here, so the tracing overhead is
    taken from adjacent pairs, with the order inside a pair alternating.
    """
    tracer = Tracer(args.workload)
    tracer.install()
    try:
        traced_wl = tracer.root("setup", WORKLOADS[args.workload], args.seed, workdir / "traced")
    finally:
        tracer.uninstall()
    setup_span = tracer.spans[-1]
    first = len(tracer.spans)
    bo_before = list(tracer.counts["bopes.bo_energy"])

    def untraced_unit(index):
        t0 = time.perf_counter()
        counts = wl.unit(index)
        return time.perf_counter() - t0, counts

    def traced_unit(index):
        tracer.install()
        try:
            counts = tracer.root("unit", traced_wl.unit, index)
        finally:
            tracer.uninstall()
        return tracer.spans[-1][4] - tracer.spans[-1][3], counts

    untraced, traced = [], []
    attempted = failed = 0
    end = time.perf_counter() + args.seconds
    index = 0
    while True:
        order = (untraced_unit, traced_unit) if index % 2 == 0 else (traced_unit, untraced_unit)
        for run in order:
            seconds, (a, f) = run(index)
            (untraced if run is untraced_unit else traced).append(seconds)
            attempted += a
            failed += f
        index += 1
        if time.perf_counter() >= end:
            break

    m = layer_metrics(tracer, first, bo_before, len(traced))
    m["setup.build_s"] = setup_span[4] - setup_span[3]
    m["trace.untraced_wall_s"] = statistics.median(untraced)
    m["trace.wall_s"] = statistics.median(traced)
    m["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS + (BENCH,))
    # Layer times are declared as shares of the traced unit: an idle layer's
    # time is exactly 0 s on every run, and shares barely move with drift.
    # The seconds stay in the result file.
    for key in [k for k in m if k.endswith(".s") or k.endswith(".self_s")]:
        if not key.startswith(("trace.", "setup.")):
            share = key[: -len("s")] + "share"
            m[share] = m[key] / m["trace.self_sum_s"]
    m["trace.pairs"] = len(traced)
    m["trace.spans_per_unit"] = (len(tracer.spans) - first) / len(traced)
    return m, attempted, failed, tracer


# ---------------------------------------------------------------------------
# Entry point


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args, Path(args.setup_probe))
    try:
        import vibronic
    except ImportError as exc:
        print(f"cannot import vibronic from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(vibronic.__file__).resolve().parents:
        print(f"vibronic imported from {vibronic.__file__}, not this checkout", file=sys.stderr)
        return 2
    units_of = declared_metrics(args.trace)

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment()
        print("env " + json.dumps(env, sort_keys=True), flush=True)
        # set-up time is an end-to-end metric, so a traced run skips it
        setup_s, setup_samples = (None, None) if args.trace else measure_setup(args, workdir)
        wl = WORKLOADS[args.workload](args.seed, workdir / "run")
        if args.trace:
            measured, attempted, failed, tracer = traced_run(args, wl, workdir)
            tracer.write(OUT / f"{tag}-spans.jsonl")
            unit_times = None
        else:
            unit_times, attempted, failed = run_units(wl.unit, args.seconds)
            measured = {
                "setup_s": setup_s,
                "wall_s": statistics.median(unit_times),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units_of.items()}
    failed_frac = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples": setup_samples,
        "unit_times_s": unit_times,
        "failed_frac": failed_frac,
        "metrics": metrics,
        "extra": {k: v for k, v in measured.items() if k not in metrics},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(f"metric failed_frac {failed_frac!r} 1 ({failed} of {attempted} points)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
