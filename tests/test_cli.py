import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vibronic import (
    ConfigError,
    bogoliubov_w,
    converge_cutoff,
    derive_couplings,
    perpendicular_xi_eff,
    wigner,
)
from vibronic.bopes import MIN_SCAN_SAMPLES
from vibronic.cli import _fmt, _write_csv, _write_manifest, load_config, main, run

GRAPH_CONFIG = {
    "task": "graph",
    "geometry": {"preset": "tetrahedron", "d": 1.0},
    "potential": {"type": "power-law", "terms": [{"c": 1.0, "p": 6}]},
    "params": {"omega": 1.0, "Omega": 0.0, "x0": 0.1, "delta": "-3V"},
    "seed": "1110",
}

SCAN_XI_CONFIG = {
    "task": "gs-scan-xi",
    "geometry": {"preset": "dumbbell", "d": 1.0},
    "potential": {"type": "explicit", "kappa": 0.3, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
    "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
    "solver": {"e_tol": 1e-9, "max_cutoff": 128, "frame": "displaced"},
    "scan": {"start": 0.0, "stop": 1.2, "samples": 5, "units": "critical"},
}

WIGNER_CONFIG = {
    "task": "wigner",
    "geometry": {"preset": "tetrahedron", "d": 1.0},
    "potential": {"type": "explicit", "kappa": -1.7678, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
    "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
    "wigner": {"grid_half_width": 5.0, "resolution": 41},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_graph_task_writes_star_artifacts(tmp_path):
    cfg = write_config(tmp_path, GRAPH_CONFIG)
    out = tmp_path / "out"
    assert main(["graph", "--config", cfg, "--out", str(out)]) == 0
    edges = (out / "edges.txt").read_text().strip().split("\n")
    assert len(edges) == 4
    nodes = json.loads((out / "nodes.json").read_text())
    assert nodes["4"] == "1111"
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["results"]["topology"] == "star"
    assert manifest["parameters"]["delta"] == pytest.approx(-3.0)
    assert manifest["tool"] == "vibronic"
    assert set(manifest["outputs"]) == {"edges.txt", "nodes.json"}


def test_scan_xi_rows_and_sentinels(tmp_path):
    cfg = write_config(tmp_path, SCAN_XI_CONFIG)
    out = tmp_path / "out"
    assert main(["gs-scan-xi", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "scan-xi.csv").read_text().strip().split("\n")
    assert lines[0] == "xi,E_numeric,E_analytic,cutoff,converged"
    assert len(lines) == 6
    # stable rows agree with the analytic column; the beyond-critical row is
    # flagged unstable and unconverged but the scan still completes
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(float(first[2]), abs=1e-7)
    last = lines[-1].split(",")
    assert last[2] == "unstable"
    assert last[4] == "false"


def test_scan_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, SCAN_XI_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gs-scan-xi", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gs-scan-xi", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "scan-xi.csv").read_bytes() == (out2 / "scan-xi.csv").read_bytes()
    assert (out1 / "run-manifest.json").read_bytes() == (out2 / "run-manifest.json").read_bytes()


def test_threaded_scan_matches_serial(tmp_path):
    cfg = write_config(tmp_path, SCAN_XI_CONFIG)
    out1, out2 = tmp_path / "serial", tmp_path / "threaded"
    assert main(["gs-scan-xi", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["gs-scan-xi", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "scan-xi.csv").read_bytes() == (out2 / "scan-xi.csv").read_bytes()


def test_wigner_task_grid_and_footer(tmp_path):
    cfg = write_config(tmp_path, WIGNER_CONFIG)
    out = tmp_path / "out"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "wigner.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha_R,alpha_I,W"
    assert lines[-1].startswith("# normalization ")
    assert len(lines) == 2 + 41 * 41
    total = float(lines[-1].split()[-1])
    assert total == pytest.approx(1.0, abs=1e-3)
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["results"]["w"] < 0  # softened mode widens the position axis


def _scalar_wigner_task(resolved, outdir):
    """Reference: the wigner task as a point-by-point loop over the grid."""
    params = resolved["params"]
    coup = derive_couplings(resolved["potential"], params)
    wcfg = resolved["wigner"]
    if wcfg["mode"] == "perpendicular":
        xi_eff = perpendicular_xi_eff(coup.kappa, coup.nu)
    else:
        xi_eff = coup.xi
    solution = bogoliubov_w(params.omega, xi_eff)
    axis = np.linspace(-wcfg["grid_half_width"], wcfg["grid_half_width"], wcfg["resolution"])
    rows = []
    total = 0.0
    cell = (axis[1] - axis[0]) ** 2
    for a_i in axis:
        for a_r in axis:
            val = wigner(solution.w, complex(a_r, a_i))
            rows.append((float(a_r), float(a_i), float(val)))
            total += float(val) * cell
    _write_csv(outdir / "wigner.csv", ["alpha_R", "alpha_I", "W"], rows,
               [f"# normalization {_fmt(total)}"])
    _write_manifest(
        outdir,
        resolved,
        ["wigner.csv"],
        {"w": solution.w, "omega_tilde": solution.omega_tilde, "xi_eff": xi_eff, "normalization": total},
    )


@pytest.mark.parametrize(
    "grid",
    [WIGNER_CONFIG["wigner"], {}, {"mode": "parallel", "resolution": 64}],
    ids=["configured", "default-101", "parallel-64"],
)
def test_wigner_task_matches_scalar_loop_bytewise(tmp_path, grid):
    cfg = write_config(tmp_path, {**WIGNER_CONFIG, "wigner": grid})
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert main(["wigner", "--config", cfg, "--out", str(out)]) == 0
    ref.mkdir()
    _scalar_wigner_task(load_config(cfg, "wigner"), ref)
    for name in ("wigner.csv", "run-manifest.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_wigner_past_its_instability_is_an_error(tmp_path, capsys):
    # xi_eff = nu kappa / sqrt(2) lies below -omega / 4: no bounded ground state
    cfg = dict(WIGNER_CONFIG, potential=dict(WIGNER_CONFIG["potential"], kappa=-5.0))
    out = tmp_path / "out"
    assert main(["wigner", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: no bounded ground state")
    assert not (out / "wigner.csv").exists()


def test_missing_task_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_task_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["explode", "--config", "x.json"])
    assert exc.value.code == 2


def test_load_config_rejects_an_unknown_task(tmp_path):
    # argparse stops a made-up task in main; a library caller meets load_config first
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, GRAPH_CONFIG), "explode")
    assert exc.value.path == "task"


def test_unreadable_config_is_an_error(tmp_path, capsys):
    assert main(["graph", "--config", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "task": "graph",\n  oops\n}', encoding="utf-8")
    assert main(["graph", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_schema_errors_carry_the_key_path(tmp_path):
    cfg = dict(GRAPH_CONFIG)
    cfg["geometry"] = {"preset": "pentagon"}
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), "graph")
    assert exc.value.path == "config.geometry.preset"

    cfg = dict(GRAPH_CONFIG)
    cfg["params"] = {"omega": -2.0}
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), "graph")
    assert exc.value.path == "config.params.omega"

    cfg = json.loads(json.dumps(SCAN_XI_CONFIG))
    del cfg["scan"]["samples"]
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), "gs-scan-xi")
    assert exc.value.path == "config.scan.samples"

    # values that were misread (a bool delta as "-3V", "false" as true), crashed
    # (integers beyond the float range), passed as the non-finite numbers json
    # reads from NaN and Infinity, or reported without a key path (an n_axes
    # of 4, coincident atoms); mass and modes are no longer inputs, so their
    # rows are unknown keys
    for key, value, path in (
        ("params", dict(GRAPH_CONFIG["params"], delta=True), "config.params.delta"),
        ("geometry", {"preset": "dumbbell", "full_3d": "false"}, "config.geometry.full_3d"),
        ("geometry", {"preset": ["dumbbell"]}, "config.geometry.preset"),
        ("out", 5, "config.out"),
        ("params", dict(GRAPH_CONFIG["params"], omega=math.nan), "config.params.omega"),
        ("params", dict(GRAPH_CONFIG["params"], delta=math.nan), "config.params.delta"),
        ("solver", {"e_tol": math.nan}, "config.solver.e_tol"),
        ("params", dict(GRAPH_CONFIG["params"], omega=10**400), "config.params.omega"),
        ("params", dict(GRAPH_CONFIG["params"], delta=-(10**400)), "config.params.delta"),
        ("params", dict(GRAPH_CONFIG["params"], mass=4.0), "config.params.mass"),
        ("params", {"omega": 1e-200, "mass": 1e-200, "delta": "-3V"}, "config.params.mass"),
        ("params", dict(GRAPH_CONFIG["params"], omega=1e-200, mass=1e-200), "config.params.mass"),
        ("geometry", {"positions": [[0, 0, 0], [1, 0, 0]], "n_axes": 4}, "config.geometry.n_axes"),
        ("geometry", {"positions": [[0, 0, 0], [0, 0, 0]]}, "config.geometry.positions"),
        # every other schema check, one row each
        ("params", dict(GRAPH_CONFIG["params"], omega="1"), "config.params.omega"),
        ("solver", {"max_cutoff": 8.5}, "config.solver.max_cutoff"),
        ("solver", {"max_cutoff": 2}, "config.solver.max_cutoff"),
        ("geometry", "dumbbell", "config.geometry"),
        ("geometry", {"positions": []}, "config.geometry.positions"),
        ("geometry", {"positions": [[0, 0]]}, "config.geometry.positions[0]"),
        ("geometry", {"d": 1.0}, "config.geometry"),
        ("potential", "explicit", "config.potential"),
        ("potential", {"type": "power-law", "terms": []}, "config.potential.terms"),
        ("potential", {"type": "power-law", "terms": [6]}, "config.potential.terms[0]"),
        ("potential", {"type": "yukawa"}, "config.potential.type"),
        ("params", [1.0], "config.params"),
        ("solver", 5, "config.solver"),
        ("solver", {"frame": "rotated"}, "config.solver.frame"),
        ("modes", "half", "config.modes"),
    ):
        cfg = dict(GRAPH_CONFIG, **{key: value})
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, cfg), "graph")
        assert exc.value.path == path

    for key, value, path in (
        ("scan", dict(SCAN_XI_CONFIG["scan"], stop=math.inf), "config.scan.stop"),
        ("scan", [0.0, 1.0], "config.scan"),
        ("scan", dict(SCAN_XI_CONFIG["scan"], units="relative"), "config.scan.units"),
    ):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, dict(SCAN_XI_CONFIG, **{key: value})), "gs-scan-xi")
        assert exc.value.path == path

    wigner_cfg = WIGNER_CONFIG["wigner"]
    for value, path in ([5], "config.wigner"), (dict(wigner_cfg, mode="axial"), "config.wigner.mode"):
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, dict(WIGNER_CONFIG, wigner=value)), "wigner")
        assert exc.value.path == path

    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, [GRAPH_CONFIG]), "graph")
    assert exc.value.path == "config"

    # checked when the task runs: a drive has no critical value, so "critical"
    # units once read as "absolute"; a seed must fit the geometry; the kappa
    # scan needs a doubly excited node; compare runs at zero drive only
    kappa_scan = {**SCAN_XI_CONFIG, "task": "gs-scan-kappa", "seed": "10",
                  "params": {"omega": 1.0, "Omega": 0.0, "delta": "-3V"}}
    compare = {key: value for key, value in SCAN_OMEGA_CONFIG.items() if key != "scan"}
    for cfg, path in (
        (dict(SCAN_OMEGA_CONFIG, scan=dict(SCAN_OMEGA_CONFIG["scan"], units="critical")),
         "config.scan.units"),
        (dict(DUMBBELL_BOPES_SCAN, scan=dict(DUMBBELL_BOPES_SCAN["scan"], units="critical")),
         "config.scan.units"),
        (dict(GRAPH_CONFIG, seed="111"), "config.seed"),
        (kappa_scan, "config.seed"),
        (dict(compare, task="compare", params=dict(compare["params"], Omega=0.1)),
         "config.params.Omega"),
    ):
        resolved = load_config(write_config(tmp_path, cfg), cfg["task"])
        resolved["out"] = str(tmp_path / cfg["task"])
        with pytest.raises(ConfigError) as exc:
            run(resolved)
        assert exc.value.path == path

    # json.loads refuses integer literals past Python's digit limit
    path = tmp_path / "long.json"
    path.write_text(json.dumps(GRAPH_CONFIG).replace("1.0", "1" + "0" * 5000, 1))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path), "graph")
    assert exc.value.path == "config"


def test_numeric_delta_is_the_detuning_itself(tmp_path):
    # V(d) = 1 here, so delta = -3.0 is the "-3V" rule of GRAPH_CONFIG
    cfg = dict(GRAPH_CONFIG, params=dict(GRAPH_CONFIG["params"], delta=-3.0))
    out = tmp_path / "out"
    assert main(["graph", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["parameters"]["delta_rule"] == manifest["parameters"]["delta"] == -3.0
    assert manifest["results"]["topology"] == "star"


@pytest.mark.parametrize("seed", [1, "0x1"])
def test_seed_must_be_a_bitstring(tmp_path, capsys, seed):
    cfg = dict(GRAPH_CONFIG, seed=seed)
    assert main(["graph", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: config.seed")


def test_manifold_atom_limit_carries_the_key_path(tmp_path, capsys):
    # checked where the manifold is built: gs-scan-xi and wigner accept such a geometry
    cfg = {key: value for key, value in GRAPH_CONFIG.items() if key != "seed"}
    cfg["geometry"] = {"positions": [[float(k), 0.0, 0.0] for k in range(17)]}
    assert main(["graph", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: config.geometry.positions")


@pytest.mark.parametrize(
    "solver, key",
    [({"e_tol": 1e-6, "eig_tol": 1e-9}, "eig_tol"), ({"etol": 1e-3, "maxcutoff": 8}, "etol")],
)
def test_solver_block_rejects_unknown_keys(tmp_path, capsys, solver, key):
    # misspelt keys once ran silently at the defaults; eig_tol is derived from e_tol
    cfg = dict(GRAPH_CONFIG, solver=solver)
    assert main(["graph", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: config.solver.{key}")


POSITIONS = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]


@pytest.mark.parametrize(
    "cfg, path",
    [
        (dict(GRAPH_CONFIG, sead="1110"), "config.sead"),
        (dict(GRAPH_CONFIG, geometry={"preset": "tetrahedron", "D": 1.0}), "config.geometry.D"),
        (dict(GRAPH_CONFIG, geometry={"positions": POSITIONS, "d": 1.0}), "config.geometry.d"),
        (dict(GRAPH_CONFIG, potential={"type": "power-law", "term": [{"c": 1.0, "p": 6}]}),
         "config.potential.term"),
        (dict(GRAPH_CONFIG, potential={"type": "power-law", "terms": [{"c": 1.0, "P": 6}]}),
         "config.potential.terms[0].P"),
        (dict(SCAN_XI_CONFIG, potential=dict(SCAN_XI_CONFIG["potential"], Xi=0.1)),
         "config.potential.Xi"),
        (dict(GRAPH_CONFIG, params=dict(GRAPH_CONFIG["params"], Omgea=0.1)), "config.params.Omgea"),
        (dict(SCAN_XI_CONFIG, scan=dict(SCAN_XI_CONFIG["scan"], unit="critical")), "config.scan.unit"),
        (dict(WIGNER_CONFIG, wigner=dict(WIGNER_CONFIG["wigner"], modes="parallel")),
         "config.wigner.modes"),
    ],
)
def test_every_config_object_rejects_unknown_keys(tmp_path, cfg, path):
    # each of these once loaded at the defaults, with the misspelt key dropped
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), cfg["task"])
    assert exc.value.path == path


def test_a_misspelt_v_d_is_a_config_error(tmp_path, capsys):
    # "vd" once left v_d at 0, so delta "-V" read -0.0 and the triangle's
    # graph had 8 nodes ("other") instead of the 6-node ring
    potential = {key: value for key, value in TRIANGLE_BOPES_SCAN["potential"].items() if key != "v_d"}
    cfg = {"task": "graph", "geometry": {"preset": "triangle", "d": 1.0},
           "potential": dict(potential, vd=1.0), "params": {"omega": 1.0, "delta": "-V"}}
    out = tmp_path / "out"
    assert main(["graph", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: config.potential.vd")
    assert not out.exists()


def test_tetrahedron_rejects_restricted_motion(tmp_path):
    # the tetrahedron always moves in 3D: "full_3d": false once loaded with
    # three axes; absent (as in the oracle-scan configs) or true still loads
    tetrahedron = {"preset": "tetrahedron", "d": 1.0}
    restricted = dict(GRAPH_CONFIG, geometry=dict(tetrahedron, full_3d=False))
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, restricted), "graph")
    assert exc.value.path == "config.geometry.full_3d"
    for geometry in (tetrahedron, dict(tetrahedron, full_3d=True)):
        cfg = load_config(write_config(tmp_path, dict(GRAPH_CONFIG, geometry=geometry)), "graph")
        assert cfg["geometry"].n_axes == 3


def test_task_mismatch_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, GRAPH_CONFIG), "wigner")


def test_inconsistent_oscillator_length_is_rejected(tmp_path):
    # potential nu implies x0 = 0.1; a given x0 must agree with it, and is kept
    cfg = json.loads(json.dumps(SCAN_XI_CONFIG))
    cfg["params"]["x0"] = 0.7
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), "gs-scan-xi")
    assert exc.value.path == "config.params.x0"
    cfg["params"]["x0"] = 0.1 * (1 + 1e-12)
    assert load_config(write_config(tmp_path, cfg), "gs-scan-xi")["params"].x0 == 0.1 * (1 + 1e-12)


def test_an_oscillator_length_that_underflows_is_a_config_error(tmp_path):
    # both factors of x0 = nu * d are positive and finite, their product is 0
    cfg = dict(
        SCAN_XI_CONFIG,
        geometry={"preset": "dumbbell", "d": 1e-3},
        potential=dict(SCAN_XI_CONFIG["potential"], nu=1e-321),
    )
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, cfg), "gs-scan-xi")
    assert exc.value.path == "config.potential.nu"


def test_mode_space_and_mass_are_not_inputs(tmp_path, capsys):
    # the reduced model is exact for ground energies, and x0 states the mass
    for cfg, path in (
        (dict(SCAN_OMEGA_CONFIG, modes="full"), "config.modes"),
        (dict(SCAN_OMEGA_CONFIG, params={"omega": 1.0, "mass": 100.0}), "config.params.mass"),
    ):
        assert main(["gs-scan-omega", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}:")
    path = write_config(tmp_path, SCAN_OMEGA_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["gs-scan-omega", "--config", path, "--modes", "full"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modes full" in capsys.readouterr().err


def test_wrong_potential_kind_for_xi_scan(tmp_path, capsys):
    cfg = json.loads(json.dumps(SCAN_XI_CONFIG))
    cfg["potential"] = {"type": "power-law", "terms": [{"c": 1.0, "p": 6}]}
    del cfg["params"]["delta"]
    cfg["params"]["x0"] = 0.1
    assert main(["gs-scan-xi", "--config", write_config(tmp_path, cfg)]) == 1
    assert "explicit couplings" in capsys.readouterr().err


def test_scan_kappa_block_oracle(tmp_path):
    cfg = {
        "task": "gs-scan-kappa",
        "geometry": {"preset": "tetrahedron", "d": 1.0},
        "potential": {"type": "explicit", "kappa": -0.1, "xi": 0.0, "nu": 0.5, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-8, "max_cutoff": 32, "frame": "displaced"},
        "scan": {"start": 0.0, "stop": 0.6, "samples": 4, "units": "critical"},
    }
    out = tmp_path / "out"
    assert main(["gs-scan-kappa", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = (out / "scan-kappa.csv").read_text().strip().split("\n")
    assert lines[0] == "kappa,E_numeric,E_analytic,cutoff,converged"
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(float(fields[2]), abs=1e-7)


def test_scan_kappa_past_critical_reads_unstable(tmp_path):
    cfg = {
        "task": "gs-scan-kappa",
        "geometry": {"preset": "tetrahedron", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.0, "xi": 0.05, "nu": 0.25, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-6, "max_cutoff": 16, "frame": "displaced"},
        "scan": {"start": 0.5, "stop": 1.1, "samples": 3, "units": "critical"},
    }
    out = tmp_path / "out"
    assert main(["gs-scan-kappa", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "scan-kappa.csv").read_text().split("\n")[1:-1]]
    assert len(rows) == 3
    assert [row[2] == "unstable" for row in rows] == [False, False, True]
    assert rows[2][4] == "false"


def test_scan_kappa_planar_pair_oracle(tmp_path):
    # the triangle's excited pair has one perpendicular mode, so the closed
    # form is neither epsilon2 (none) nor epsilon4 (two)
    cfg = {
        "task": "gs-scan-kappa",
        "geometry": {"preset": "triangle", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.0, "xi": -0.1, "nu": 0.25, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "seed": "110",
        "solver": {"e_tol": 1e-9, "max_cutoff": 32, "frame": "displaced"},
        "scan": {"start": 0.0, "stop": 0.6, "samples": 4, "units": "critical"},
    }
    out = tmp_path / "out"
    assert main(["gs-scan-kappa", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = (out / "scan-kappa.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 4
    for row in rows:
        _, e_numeric, e_analytic, _, converged = row.split(",")
        assert converged == "true"
        assert float(e_analytic) == pytest.approx(float(e_numeric), abs=1e-6)


def test_sparse_scan_is_deterministic_across_threads(tmp_path):
    # kappa: three collective modes from cutoff 8 on, dim 512 and up; omega:
    # the six-node triangle over four modes, dim 1,536 at cutoff 4.  Both run
    # past the dense solver, so every row uses the warm-started sparse one.
    kappa_c = -1.0 / (2.0 * np.sqrt(2.0) * 0.5)
    configs = {
        "gs-scan-kappa": ("scan-kappa.csv", {
            "geometry": {"preset": "tetrahedron", "d": 1.0},
            "potential": {"type": "explicit", "kappa": -0.1, "xi": -0.1, "nu": 0.5, "v_d": 1.0},
            "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
            "solver": {"e_tol": 1e-8, "max_cutoff": 16, "frame": "displaced"},
            "scan": {"start": 0.2, "stop": 0.6, "samples": 3, "units": "critical"},
        }),
        "gs-scan-omega": ("scan-omega.csv", {
            "geometry": {"preset": "triangle", "d": 1.0},
            "potential": {"type": "explicit", "kappa": 0.5 * kappa_c, "xi": 0.0, "nu": 0.5,
                          "v_d": 1.0},
            "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
            "seed": "001",
            "solver": {"e_tol": 1e-8, "max_cutoff": 8, "frame": "bare"},
            "scan": {"start": 0.05, "stop": 0.25, "samples": 3},
        }),
    }
    runs = [("a", "1"), ("b", "1"), ("c", "2")]
    for task, (csv_name, body) in configs.items():
        cfg = write_config(tmp_path, {"task": task, **body}, name=f"{task}.json")
        for name, threads in runs:
            out = str(tmp_path / task / name)
            assert main([task, "--config", cfg, "--out", out, "--threads", threads]) == 0
        rows = (tmp_path / task / "a" / csv_name).read_text().strip().split("\n")[1:]
        assert all(int(row.split(",")[3]) >= 8 for row in rows)
        for artifact in (csv_name, "run-manifest.json"):
            first = (tmp_path / task / "a" / artifact).read_bytes()
            assert all(
                (tmp_path / task / name / artifact).read_bytes() == first for name, _ in runs[1:]
            )


def test_scan_kappa_rejects_finite_drive(tmp_path, capsys):
    cfg = {
        "task": "gs-scan-kappa",
        "geometry": {"preset": "tetrahedron", "d": 1.0},
        "potential": {"type": "explicit", "kappa": -0.1, "xi": 0.0, "nu": 0.5, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.3, "delta": "-V"},
        "scan": {"start": 0.0, "stop": 0.6, "samples": 4},
    }
    assert main(["gs-scan-kappa", "--config", write_config(tmp_path, cfg)]) == 1
    assert "Omega" in capsys.readouterr().err


SCAN_OMEGA_CONFIG = {
    "task": "gs-scan-omega",
    "geometry": {"preset": "dumbbell", "d": 1.0},
    "potential": {"type": "explicit", "kappa": 0.3, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
    "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
    "solver": {"e_tol": 1e-8, "max_cutoff": 64, "frame": "bare"},
    "scan": {"start": 0.0, "stop": 0.4, "samples": 3},
}


def test_scan_omega_on_the_dumbbell(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, SCAN_OMEGA_CONFIG)
    assert main(["gs-scan-omega", "--config", path, "--out", str(out)]) == 0
    lines = (out / "scan-omega.csv").read_text().strip().split("\n")
    assert lines[0] == "Omega,E_numeric,E_analytic,cutoff,converged"
    assert len(lines) == 4
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies[0] > energies[1] > energies[2]  # drive lowers the ground energy


@pytest.mark.parametrize("task", ["gs-scan-omega", "bopes-scan", "wigner"])
def test_tasks_that_never_read_the_base_drive_reject_one(tmp_path, capsys, task):
    base = {
        "gs-scan-omega": SCAN_OMEGA_CONFIG,
        "bopes-scan": DUMBBELL_BOPES_SCAN,
        "wigner": WIGNER_CONFIG,
    }[task]
    cfg = dict(base, params=dict(base["params"], Omega=0.3))
    out = tmp_path / "out"
    assert main([task, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: config.params.Omega:")
    assert not (out / "run-manifest.json").exists()


def test_zero_drive_closed_form_is_one_cell_in_both_drive_scans(tmp_path):
    # gs-scan-omega and bopes-scan solve the same model: their drive-0 rows
    # carry the same closed form, next to the same exact energy
    cells = {}
    for task, csv_name, samples, column in (
        ("gs-scan-omega", "scan-omega.csv", 3, 2),
        ("bopes-scan", "bopes-scan.csv", MIN_SCAN_SAMPLES, 3),
    ):
        scan = dict(SCAN_OMEGA_CONFIG["scan"], samples=samples)
        cfg = dict(SCAN_OMEGA_CONFIG, task=task, scan=scan)
        out = tmp_path / task
        assert main([task, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        first = (out / csv_name).read_text().split("\n")[1].split(",")
        assert float(first[0]) == 0.0
        cells[task] = first[column]
    assert cells["gs-scan-omega"] == cells["bopes-scan"] != ""
    assert float(cells["gs-scan-omega"]) == pytest.approx(-0.18, abs=1e-12)


DUMBBELL_BOPES_SCAN = {
    "task": "bopes-scan",
    "geometry": {"preset": "dumbbell", "d": 1.0},
    "potential": {"type": "explicit", "kappa": 0.25, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
    "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
    "solver": {"e_tol": 1e-6, "max_cutoff": 16, "frame": "bare"},
    "scan": {"start": 0.0, "stop": 0.4, "samples": 33},
}

# the criterion-11 triangle over 32 drives; its stages are above the dense
# cutover, so every row after the first starts from the rows before it
TRIANGLE_BOPES_SCAN = {
    "task": "bopes-scan",
    "geometry": {"preset": "triangle", "d": 1.0},
    "potential": {
        "type": "explicit",
        "kappa": 0.5 * (-1.0 / (2.0 * math.sqrt(2.0) * 0.5)),  # half the critical coupling
        "xi": 0.0,
        "nu": 0.5,
        "v_d": 1.0,
    },
    "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
    "solver": {"e_tol": 1e-3, "max_cutoff": 8, "frame": "bare"},
    "scan": {"start": 0.06, "stop": 0.30, "samples": 32},
}


def test_bopes_scan_task(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, DUMBBELL_BOPES_SCAN)
    assert main(["bopes-scan", "--config", path, "--out", str(out)]) == 0
    lines = (out / "bopes-scan.csv").read_text().strip().split("\n")
    assert lines[0] == "Omega,E_BO,E_quantum,E_analytic,converged,cutoff"
    assert len(lines) == 34
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert "kink_Omega" in manifest["results"]
    # the exact curve never sits above the clamped-coordinate one here
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[2]) <= float(fields[1]) + 1e-9
    # closed form fills the zero-drive row only
    first, second = lines[1].split(","), lines[2].split(",")
    assert float(first[3]) == pytest.approx(float(first[2]), abs=1e-6)
    assert second[3] == ""


def test_compare_task_on_the_dumbbell(tmp_path):
    cfg = {
        "task": "compare",
        "geometry": {"preset": "dumbbell", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.4, "xi": 0.05, "nu": 0.2, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-9, "max_cutoff": 64, "frame": "displaced"},
    }
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in (out / "compare.csv").read_text().strip().split("\n")[1:]
    )
    measured = float(rows["correction_measured"])
    predicted = float(rows["correction_predicted"])
    assert measured == pytest.approx(predicted, abs=1e-7)
    assert rows["numeric_converged"] == "true"


def test_closed_forms_stay_empty_beyond_one_pair_per_node(tmp_path):
    # at delta = -3V the triangle's manifold is the one node "111", which holds
    # three excited pairs, where the one-pair closed forms do not hold
    kappa_c = -1.0 / (2.0 * math.sqrt(2.0) * 0.5)
    body = {
        "geometry": {"preset": "triangle", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.3 * kappa_c, "xi": 0.0, "nu": 0.5,
                      "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-3V"},
        "solver": {"e_tol": 1e-3, "max_cutoff": 8, "frame": "displaced"},
    }
    out = tmp_path / "compare"
    path = write_config(tmp_path, {"task": "compare", **body}, name="compare.json")
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in (out / "compare.csv").read_text().strip().split("\n")[1:]
    )
    assert rows["correction_predicted"] == ""
    assert float(rows["correction_measured"]) < 0.0
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["results"]["correction_predicted"] is None

    out = tmp_path / "bopes"
    scan = {"start": 0.0, "stop": 0.31, "samples": 32}
    path = write_config(tmp_path, {"task": "bopes-scan", **body, "scan": scan}, name="bopes.json")
    assert main(["bopes-scan", "--config", path, "--out", str(out)]) == 0
    rows = (out / "bopes-scan.csv").read_text().strip().split("\n")[1:]
    assert rows[0].startswith("0.0,")
    assert all(row.split(",")[3] == "" for row in rows)


@pytest.mark.parametrize(
    "delta, seed, kappa",
    [
        ("-3V", "11", 0.05),  # the pair node alone, above zero
        ("-V", "11", 0.05),  # nodes 01, 10 and 11; the pair-free ones are the lowest
        ("-3V", "10", 0.3),  # nodes 01 and 10, no pair
    ],
)
def test_closed_forms_read_the_lowest_node(tmp_path, delta, seed, kappa):
    # the closed form is the lowest of the model's own nodes: 0 for a node
    # with no pair, the pair energy for a node with one
    body = {
        "geometry": {"preset": "dumbbell", "d": 1.0},
        "potential": {"type": "explicit", "kappa": kappa, "xi": 0.1, "nu": 0.3, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": delta},
        "seed": seed,
        "solver": {"e_tol": 1e-9, "max_cutoff": 64, "frame": "displaced"},
    }
    out = tmp_path / "compare"
    path = write_config(tmp_path, {"task": "compare", **body}, name="compare.json")
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in (out / "compare.csv").read_text().strip().split("\n")[1:]
    )
    assert rows["numeric_converged"] == "true"
    predicted = float(rows["correction_predicted"])
    assert predicted == pytest.approx(float(rows["correction_measured"]), abs=1e-7)

    out = tmp_path / "bopes"
    scan = {"start": 0.0, "stop": 0.31, "samples": 32}
    path = write_config(tmp_path, {"task": "bopes-scan", **body, "scan": scan}, name="bopes.json")
    assert main(["bopes-scan", "--config", path, "--out", str(out)]) == 0
    drive, _, e_quantum, e_analytic, converged, _ = (
        (out / "bopes-scan.csv").read_text().split("\n")[1].split(",")
    )
    assert (drive, converged) == ("0.0", "true")
    assert float(e_analytic) == pytest.approx(float(e_quantum), abs=1e-7)


def test_bopes_scan_on_a_manifold_with_no_links(tmp_path):
    # nodes 01 and 10 share no link, so the drive never enters: both curves
    # stay flat at the pair-free nodes' 0 over the whole grid
    cfg = {
        "task": "bopes-scan",
        "geometry": {"preset": "dumbbell", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.3, "xi": 0.1, "nu": 0.3, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-3V"},
        "seed": "10",
        "solver": {"e_tol": 1e-9, "max_cutoff": 64, "frame": "displaced"},
        "scan": {"start": 0.0, "stop": 0.3, "samples": 32},
    }
    out = tmp_path / "out"
    assert main(["bopes-scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "bopes-scan.csv").read_text().split("\n")[1:-1]]
    assert len(rows) == 32
    assert all(row[1:3] == ["0.0", "0.0"] and row[4] == "true" for row in rows)
    assert json.loads((out / "run-manifest.json").read_text())["results"]["bo_second_diff_max"] == 0.0


def test_compare_on_an_unstable_model_is_an_error(tmp_path, capsys):
    # beyond the critical coupling the surface is unbounded below
    kappa_c = -1.0 / (2.0 * math.sqrt(2.0) * 0.5)
    cfg = {
        "task": "compare",
        "geometry": {"preset": "triangle", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 1.1 * kappa_c, "xi": 0.0, "nu": 0.5,
                      "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-3, "max_cutoff": 8, "frame": "bare"},
    }
    out = tmp_path / "out"
    assert main(["compare", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unbounded" in err
    assert not (out / "compare.csv").exists()


def spy_on(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name`` and pass them on."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_bopes_scan_forwards_every_solver_option(tmp_path, monkeypatch):
    import vibronic.bopes

    calls = spy_on(monkeypatch, vibronic.bopes, "converge_scan")
    cfg = {
        "task": "bopes-scan",
        "geometry": {"preset": "dumbbell", "d": 1.0},
        "potential": {"type": "explicit", "kappa": 0.25, "xi": 0.0, "nu": 0.1, "v_d": 1.0},
        "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
        "solver": {"e_tol": 1e-6, "max_cutoff": 16, "frame": "bare"},
        "scan": {"start": 0.0, "stop": 0.4, "samples": 32},
    }
    out = tmp_path / "out"
    assert main(["bopes-scan", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    (args, kwargs), = calls
    assert len(args[0]) == 32
    assert kwargs == {"e_tol": 1e-6, "max_cutoff": 16, "frame": "bare"}
    manifest = json.loads((out / "run-manifest.json").read_text())
    assert manifest["parameters"]["solver"]["eig_tol"] == 1e-9  # stage_tol(1e-6)


def test_bopes_scan_rows_match_independent_solves(tmp_path, monkeypatch):
    import vibronic.bopes

    calls = spy_on(monkeypatch, vibronic.bopes, "converge_scan")
    out = tmp_path / "out"
    path = write_config(tmp_path, DUMBBELL_BOPES_SCAN)
    assert main(["bopes-scan", "--config", path, "--out", str(out)]) == 0
    (args, solver), = calls
    models, = args
    rows = (out / "bopes-scan.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == len(models)
    for row, model in zip(rows, models):
        drive, _, e_quantum, _, converged, cutoff = row.split(",")
        assert float(drive) == model[2].Omega
        alone = converge_cutoff(*model, **solver)
        assert float(e_quantum) == pytest.approx(alone.energy, abs=1e-10)
        assert converged == str(alone.converged).lower()
        assert int(cutoff) == alone.cutoff


def test_scan_omega_rows_match_independent_solves(tmp_path, monkeypatch):
    # the six-node triangle: every stage is sparse, so each row after the
    # first reuses the operators and starts from the rows before it
    import vibronic.cli

    calls = spy_on(monkeypatch, vibronic.cli, "converge_scan")
    cfg = dict(TRIANGLE_BOPES_SCAN, task="gs-scan-omega")
    cfg["scan"] = {"start": 0.05, "stop": 0.25, "samples": 4}
    out = tmp_path / "out"
    assert main(["gs-scan-omega", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    (args, solver), = calls
    models, = args
    rows = (out / "scan-omega.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == len(models) == 4
    for row, model in zip(rows, models):
        drive, e_numeric, _, cutoff, converged = row.split(",")
        assert float(drive) == model[2].Omega
        alone = converge_cutoff(*model, **solver)
        assert float(e_numeric) == pytest.approx(alone.energy, abs=1e-10)
        assert converged == str(alone.converged).lower()
        assert int(cutoff) == alone.cutoff


def test_bopes_scan_is_deterministic(tmp_path):
    path = write_config(tmp_path, TRIANGLE_BOPES_SCAN)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["bopes-scan", "--config", path, "--out", str(out)]) == 0
    for name in ("bopes-scan.csv", "run-manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_triangle_bopes_scan_leaves_scipy_optimize_unloaded(tmp_path):
    # the surface minima come from Newton descents and, at zero drive, from
    # the node forms in closed form: no task loads scipy.optimize
    import vibronic

    src = str(Path(vibronic.__file__).resolve().parents[1])
    compare = {k: v for k, v in TRIANGLE_BOPES_SCAN.items() if k != "scan"}
    code = (
        "import sys\n"
        "from vibronic.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    for task, cfg, artifact in (
        ("bopes-scan", TRIANGLE_BOPES_SCAN, "bopes-scan.csv"),
        ("compare", {**compare, "task": "compare"}, "compare.csv"),
    ):
        path = write_config(tmp_path, cfg, name=f"{task}.json")
        argv = [task, "--config", path, "--out", str(tmp_path / task)]
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src, "PATH": "", "OPENBLAS_NUM_THREADS": "1"},
        )
        assert out.stdout.split() == ["0", "False"]
        assert (tmp_path / task / artifact).is_file()
