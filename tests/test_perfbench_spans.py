import importlib
import json
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # breaks every traced run (perfbench/run.py --trace 1)
    spans = runpy.run_path(str(SPANS))  # compiles from source, writes no bytecode
    targets = spans["SPANNED"] + spans["AGGREGATED"]
    assert targets
    for module_name, func_name in targets:
        module = importlib.import_module(f"vibronic.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_benchmark_cli_argv_still_parses(tmp_path, monkeypatch):
    # the benchmark calls the CLI with a fixed argv, "--threads 1" included,
    # on configs that set solver.frame, and fock-large passes frame="bare" to
    # converge_cutoff; a spelling the program no longer takes would fail
    # every workload
    import vibronic.cli
    from vibronic import fock

    workloads = runpy.run_path(str(SPANS.with_name("workloads.py")))
    monkeypatch.setattr(vibronic.cli, "run", lambda resolved: 0)
    config = tmp_path / "scan.json"
    config.write_text(
        json.dumps(
            {
                "task": "gs-scan-xi",
                "geometry": {"preset": "dumbbell", "d": 1.0},
                "potential": {"type": "explicit", "kappa": 0.3, "xi": 0.0, "nu": 0.1},
                "scan": {"start": 0.0, "stop": 0.5, "samples": 2, "units": "critical"},
            }
        ),
        encoding="utf-8",
    )
    assert workloads["_run_cli"]("gs-scan-xi", config, tmp_path / "out") == 0

    transition = workloads["TransitionScan"](5, tmp_path / "transition")
    oracle = workloads["OracleScan"](5, tmp_path / "oracle")
    configs = {"bopes-scan": transition.config_path, **oracle.paths}
    for task, path in configs.items():
        assert "frame" not in vibronic.cli.load_config(str(path), task)["solver"]
    monkeypatch.setattr(fock, "converge_scan", lambda models, **solver: (solver,))
    assert workloads["FockLarge"](5, tmp_path).solve(0.1) == {"e_tol": 1e-7, "max_cutoff": 16}


def test_every_scan_build_is_a_traced_span():
    # the benchmark's build counters read the spans of fock.build_fock_matrix;
    # a build routed around that module global would leave them at 0
    from vibronic import ExplicitCouplings, PhysicalParams, dumbbell_hamiltonian, fock

    params = PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=0.3)
    rows = [
        dumbbell_hamiltonian(params, ExplicitCouplings(kappa=0.35, xi=xi, nu=0.3))
        for xi in (-0.2, -0.1, 0.0)
    ]
    tracer = runpy.run_path(str(SPANS))["Tracer"]("test")
    tracer.install()
    try:
        reports = fock.converge_scan(rows, e_tol=1e-9, max_cutoff=128)
    finally:
        tracer.uninstall()
    builds = [span for span in tracer.spans if span[1] == "fock.build_fock_matrix"]
    stages = sum(len(report.energy_history) for report in reports)
    assert stages > len(rows)
    assert len(builds) == stages
