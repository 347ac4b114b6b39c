"""Command-line front end: config-driven scans with CSV/JSON artifacts.

Usage::

    vibronic <task> --config <file> [--out DIR]

Tasks: ``graph``, ``gs-scan-xi``, ``gs-scan-kappa``, ``gs-scan-omega``,
``wigner``, ``bopes-scan``, ``compare``, each with its runner and, for a scan,
its fewest samples in the ``TASKS`` table.  The config file is UTF-8 JSON;
every run writes a ``run-manifest.json`` recording the resolved parameters and
tool version alongside the task artifacts.  Outputs are deterministic: identical
configs produce byte-identical files.  Every config object is read through
``_object``, so a key that its block does not know is a config error.

The three ``gs-scan-*`` tasks run through one driver, ``_task_scan``: the
``SCANS`` table gives each its scan variable, CSV name and set-up, and all
rows go to one :func:`fock.converge_scan` call with the configured solver
options.  A drive has no critical value, so ``gs-scan-omega`` and
``bopes-scan`` reject ``"critical"`` scan units.
``gs-scan-omega``, ``bopes-scan`` and ``compare`` build the same molecular
model, reduced to the collective modes its excited pairs move
(:func:`assembly.build_molecular_model`).  Only ``graph`` and ``gs-scan-xi``
read the base drive ``params.Omega``; every other task rejects a nonzero one.

Every closed-form cell follows one rule, ``_closed_form``: read off the node
``state`` of the forms the task solves, a node with no excited pair sits at 0,
one with a pair at ``omega`` times :func:`analytic.pair_epsilon`, and the model
is its lowest node.  ``gs-scan-xi`` (the axial pair model) uses no
perpendicular mode, every other task ``n_perp = geometry.n_axes - 1``.
``compare`` predicts the pair's :func:`analytic.zero_point_correction` less the
pair's rise above the lowest node, or 0 with no pair.  A node with three or
more excitations leaves the cell empty (``null`` in ``compare``'s manifest).
A coupling past its critical value reads ``unstable``, except in ``bopes-scan``,
whose cell stays empty.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    bogoliubov_w,
    critical_points,
    pair_epsilon,
    perpendicular_xi_eff,
    wigner,
    zero_point_correction,
)
from .assembly import (
    assemble_state_hamiltonian,
    build_molecular_model,
    dumbbell_hamiltonian,
    reduce_modes,
)
from .bopes import (
    MIN_SCAN_SAMPLES,
    build_bo_surface,
    minimize_bo,
    transition_scan,
    transition_scan_csv,
)
from .errors import ConfigError, DomainError, InstabilityError, VibronicError
from .fock import converge_cutoff, converge_scan, stage_tol
from .graphs import (
    GEOMETRY_PRESETS,
    MAX_ATOMS,
    Geometry,
    build_resonant_manifold,
    config_from_string,
    export_edge_list,
    export_node_table,
    graph_classify,
)
from .params import (
    ExplicitCouplings,
    PhysicalParams,
    PowerLaw,
    PowerLawSum,
    derive_couplings,
    pair_potential,
)

# ----------------------------------------------------------------------------
# Config parsing and validation


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return cfg[key]


def _finite(value) -> bool:
    """Whether a number is a finite float; json.loads reads NaN, Infinity and any size of int."""
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _number(value, path: str, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not _finite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    if positive and value <= 0:
        raise ConfigError(path, f"expected a positive number, got {value}")
    return float(value)


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected at least {minimum}, got {value}")
    return value


def _object(value, path: str, keys=None) -> dict:
    """``value`` as a config object; with ``keys``, the first other key (sorted) is an error."""
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    unknown = sorted(set(value) - set(value if keys is None else keys))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", f"unknown key; expected one of {list(keys)}")
    return value


def _choice(value, path: str, options) -> str:
    if not isinstance(value, str) or value not in options:
        raise ConfigError(path, f"expected one of {list(options)}, got {value!r}")
    return value


def _parse_geometry(cfg: dict) -> Geometry:
    geo = _object(_require(cfg, "geometry", "config"), "config.geometry")
    if "preset" in geo:
        name = _choice(geo["preset"], "config.geometry.preset", GEOMETRY_PRESETS)
        _object(geo, "config.geometry", ("preset", "d", "full_3d"))
        d = _number(geo.get("d", 1.0), "config.geometry.d", positive=True)
        full_3d = geo.get("full_3d", False)
        if not isinstance(full_3d, bool):
            raise ConfigError("config.geometry.full_3d", f"expected true or false, got {full_3d!r}")
        if name == "tetrahedron":
            if geo.get("full_3d") is False:  # the preset always moves in 3D
                raise ConfigError("config.geometry.full_3d", "the tetrahedron moves in 3D only")
            return GEOMETRY_PRESETS[name](d)
        return GEOMETRY_PRESETS[name](d, full_3d=full_3d)
    if "positions" in geo:
        _object(geo, "config.geometry", ("positions", "n_axes"))
        pos = geo["positions"]
        if not isinstance(pos, list) or not pos:
            raise ConfigError("config.geometry.positions", "expected a nonempty list of [x,y,z]")
        arr = []
        for i, p in enumerate(pos):
            if not isinstance(p, list) or len(p) != 3:
                raise ConfigError(f"config.geometry.positions[{i}]", "expected [x, y, z]")
            arr.append([_number(c, f"config.geometry.positions[{i}][{j}]") for j, c in enumerate(p)])
        n_axes = _integer(geo.get("n_axes", 3), "config.geometry.n_axes", minimum=1)
        if n_axes > 3:
            raise ConfigError("config.geometry.n_axes", f"expected at most 3, got {n_axes}")
        try:  # every other input is checked above; only coincident atoms can fail
            return Geometry(np.array(arr), n_axes=n_axes)
        except DomainError as exc:
            raise ConfigError("config.geometry.positions", str(exc)) from exc
    raise ConfigError("config.geometry", 'expected either "preset" or "positions"')


# potential type -> its keys
POTENTIALS = {"power-law": ("type", "terms"), "explicit": ("type", "kappa", "xi", "nu", "v_d")}


def _parse_potential(cfg: dict):
    pot = _object(_require(cfg, "potential", "config"), "config.potential")
    kind = _choice(_require(pot, "type", "config.potential"), "config.potential.type", POTENTIALS)
    _object(pot, "config.potential", POTENTIALS[kind])
    if kind == "explicit":
        return ExplicitCouplings(
            kappa=_number(_require(pot, "kappa", "config.potential"), "config.potential.kappa"),
            xi=_number(_require(pot, "xi", "config.potential"), "config.potential.xi"),
            nu=_number(_require(pot, "nu", "config.potential"), "config.potential.nu", positive=True),
            v_d=_number(pot.get("v_d", 0.0), "config.potential.v_d"),
        )
    terms_cfg = _require(pot, "terms", "config.potential")
    if not isinstance(terms_cfg, list) or not terms_cfg:
        raise ConfigError("config.potential.terms", "expected a nonempty list")
    terms = []
    for i, t in enumerate(terms_cfg):
        path = f"config.potential.terms[{i}]"
        t = _object(t, path, ("c", "p"))
        c = _number(_require(t, "c", path), f"{path}.c")
        p = _integer(_require(t, "p", path), f"{path}.p", minimum=1)
        terms.append(PowerLaw(c, p))
    return terms[0] if len(terms) == 1 else PowerLawSum(tuple(terms))


def _parse_params(cfg: dict, geometry: Geometry, potential) -> tuple:
    """Returns (PhysicalParams, delta_rule) with x0 resolved."""
    pcfg = _object(cfg.get("params", {}), "config.params", ("omega", "Omega", "x0", "delta"))
    omega = _number(pcfg.get("omega", 1.0), "config.params.omega", positive=True)
    drive = _number(pcfg.get("Omega", 0.0), "config.params.Omega")

    # explicit couplings fix x0 = nu * d; a given x0 is kept and must agree with it
    explicit = isinstance(potential, ExplicitCouplings)
    x0 = potential.nu * geometry.d if explicit else 1.0
    if pcfg.get("x0") is not None:
        given = _number(pcfg["x0"], "config.params.x0", positive=True)
        if explicit and abs(given - x0) > 1e-9 * x0:
            raise ConfigError(
                "config.params.x0",
                f"inconsistent with potential.nu: x0={given} but potential.nu gives {x0}",
            )
        x0 = given
    try:  # every input is checked above; only nu * d can underflow to 0
        params = PhysicalParams(omega=omega, Omega=drive, d=geometry.d, x0=x0)
    except DomainError as exc:
        raise ConfigError("config.potential.nu", str(exc)) from exc

    delta_rule = pcfg.get("delta", "-V")
    is_number = isinstance(delta_rule, (int, float)) and not isinstance(delta_rule, bool)
    if not (delta_rule in ("-V", "-3V") or is_number and _finite(delta_rule)):
        raise ConfigError("config.params.delta", 'expected "-V", "-3V", or a finite number')

    return params, delta_rule


def _resolve_delta(delta_rule, potential, geometry: Geometry) -> float:
    if isinstance(delta_rule, (int, float)) and not isinstance(delta_rule, bool):
        return float(delta_rule)
    v_d = pair_potential(potential, geometry.d, geometry.d)[0]
    return -v_d if delta_rule == "-V" else -3.0 * v_d


def _parse_solver(cfg: dict) -> dict:
    scfg = _object(cfg.get("solver", {}), "config.solver", ("e_tol", "max_cutoff", "frame"))
    frame = _choice(scfg.get("frame", "bare"), "config.solver.frame", ("bare", "displaced"))
    return {
        "e_tol": _number(scfg.get("e_tol", 1e-8), "config.solver.e_tol", positive=True),
        "max_cutoff": _integer(scfg.get("max_cutoff", 256), "config.solver.max_cutoff", minimum=4),
        "frame": frame,
    }


def _parse_scan(cfg: dict, samples_min: int) -> dict:
    scan = _object(cfg.get("scan", {}), "config.scan", ("start", "stop", "samples", "units"))
    return {
        "start": _number(_require(scan, "start", "config.scan"), "config.scan.start"),
        "stop": _number(_require(scan, "stop", "config.scan"), "config.scan.stop"),
        "samples": _integer(
            _require(scan, "samples", "config.scan"), "config.scan.samples", minimum=samples_min
        ),
        "units": _choice(scan.get("units", "absolute"), "config.scan.units", ("absolute", "critical")),
    }


def load_config(path: str, task: str) -> dict:
    """Parse and validate a run configuration for the given task."""
    if task not in TASKS:
        raise ConfigError("task", f"unknown task {task!r}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    _object(cfg, "config", (  # the same keys for every task; each reads only its own blocks
        "task", "geometry", "potential", "params", "seed", "solver", "out", "scan", "wigner"
    ))
    if "task" in cfg and cfg["task"] != task:
        raise ConfigError("config.task", f"config says {cfg['task']!r} but {task!r} was requested")

    geometry = _parse_geometry(cfg)
    potential = _parse_potential(cfg)
    params, delta_rule = _parse_params(cfg, geometry, potential)
    seed = cfg.get("seed")
    if seed is not None and (not isinstance(seed, str) or not seed or set(seed) - {"0", "1"}):
        raise ConfigError("config.seed", f"expected a nonempty bitstring over {{0,1}}, got {seed!r}")
    resolved = {
        "task": task,
        "geometry": geometry,
        "potential": potential,
        "params": params,
        "delta_rule": delta_rule,
        "delta": _resolve_delta(delta_rule, potential, geometry),
        "solver": _parse_solver(cfg),
        "seed": seed,
        "out": cfg.get("out", "."),
    }
    if not isinstance(resolved["out"], str):
        raise ConfigError("config.out", f"expected a directory path, got {resolved['out']!r}")
    samples_min = TASKS[task][1]
    if samples_min is not None:
        resolved["scan"] = _parse_scan(cfg, samples_min)
    if task == "wigner":
        wcfg = _object(cfg.get("wigner", {}), "config.wigner", ("grid_half_width", "resolution", "mode"))
        resolved["wigner"] = {
            "grid_half_width": _number(
                wcfg.get("grid_half_width", 3.0), "config.wigner.grid_half_width", positive=True
            ),
            "resolution": _integer(wcfg.get("resolution", 101), "config.wigner.resolution", minimum=3),
            "mode": _choice(
                wcfg.get("mode", "perpendicular"), "config.wigner.mode", ("perpendicular", "parallel")
            ),
        }
    return resolved


# ----------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value == 0.0:
            value = 0.0  # normalize -0.0
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows, footer_lines=()):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(footer_lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_manifest(outdir: Path, resolved: dict, outputs, results=None):
    manifest = {
        "tool": "vibronic",
        "version": __version__,
        "task": resolved["task"],
        "parameters": {
            "geometry": {
                "name": resolved["geometry"].name,
                "d": resolved["geometry"].d,
                "n_axes": resolved["geometry"].n_axes,
                "positions": resolved["geometry"].positions.tolist(),
            },
            "potential": _jsonable(resolved["potential"]),
            "omega": resolved["params"].omega,
            "Omega": resolved["params"].Omega,
            "x0": resolved["params"].x0,
            "nu": resolved["params"].nu,
            "delta_rule": resolved["delta_rule"],
            "delta": resolved["delta"],
            "solver": {**resolved["solver"], "eig_tol": stage_tol(resolved["solver"]["e_tol"])},
        },
        "outputs": sorted(outputs),
        "results": _jsonable(results or {}),
    }
    path = outdir / "run-manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _default_seed(geometry: Geometry, delta_rule) -> str:
    n = geometry.n_atoms
    if delta_rule == "-3V":
        return "1" * n
    return "1" + "0" * (n - 1)


def _build_graph(resolved):
    geometry = resolved["geometry"]
    if geometry.n_atoms > MAX_ATOMS:  # only the tasks that enumerate a manifold need the bound
        raise ConfigError(
            "config.geometry.positions",
            f"exhaustive enumeration supports 1 to {MAX_ATOMS} atoms, got {geometry.n_atoms}",
        )
    seed_str = resolved["seed"] or _default_seed(geometry, resolved["delta_rule"])
    seed = config_from_string(seed_str)
    if len(seed) != geometry.n_atoms:
        raise ConfigError("config.seed", f"seed has {len(seed)} bits for {geometry.n_atoms} atoms")
    return build_resonant_manifold(
        geometry,
        resolved["delta"],
        resolved["potential"],
        seed,
        omega=resolved["params"].omega,
        Omega=resolved["params"].Omega,
    )


# ----------------------------------------------------------------------------
# Tasks


def _task_graph(resolved, outdir: Path):
    graph = _build_graph(resolved)
    label, degrees = graph_classify(graph)
    (outdir / "edges.txt").write_text(export_edge_list(graph), encoding="utf-8")
    (outdir / "nodes.json").write_text(export_node_table(graph), encoding="utf-8")
    results = {
        "n_nodes": graph.n_nodes,
        "topology": label,
        "degrees": degrees,
        "manifold_energy": graph.manifold_energy,
    }
    _write_manifest(outdir, resolved, ["edges.txt", "nodes.json"], results)
    return 0


def _scan_values(scan: dict, critical_scale) -> np.ndarray:
    """The scan grid; ``critical_scale`` is None for a variable with no critical value."""
    values = np.linspace(scan["start"], scan["stop"], scan["samples"])
    if scan["units"] == "critical":
        if critical_scale is None:
            raise ConfigError("config.scan.units", "a drive has no critical value")
        values = values * critical_scale
    return values


def _molecular_model(resolved):
    """``(graph, forms, basis, couplings)`` of the configured manifold."""
    params = resolved["params"]
    graph = _build_graph(resolved)
    coup = derive_couplings(resolved["potential"], params)
    basis, forms = build_molecular_model(graph, coup, params)
    return graph, forms, basis, coup


def _zero_base_drive(resolved, reason: str):
    if resolved["params"].Omega != 0.0:
        raise ConfigError("config.params.Omega", f"{resolved['task']} {reason}")


def _explicit_couplings(resolved, variable: str) -> ExplicitCouplings:
    potential = resolved["potential"]
    if not isinstance(potential, ExplicitCouplings):
        raise ConfigError(
            "config.potential.type",
            f"{resolved['task']} needs explicit couplings ({variable} is the scan variable)",
        )
    return potential


def _closed_form(forms, coup, params: PhysicalParams, n_perp: int):
    """Zero-drive ``(lowest, pair)`` node energies, read from each form's ``state``.

    A node with no excited pair sits at 0, one with a pair at the pair energy
    (``pair`` is None when no node holds one).  None when a node holds three
    or more excitations, ``"unstable"`` past a critical coupling.
    """
    excitations = [sum(form.state) for form in forms]
    if max(excitations) > 2:
        return None
    pair = None
    if 2 in excitations:
        try:
            pair = params.omega * pair_epsilon(coup.kappa, coup.xi, params.omega, coup.nu, n_perp)
        except InstabilityError:
            return "unstable"
    return min(pair if n == 2 else 0.0 for n in excitations), pair


# Each scan set-up returns (critical scale or None, model_at, manifest
# results), where model_at(value) gives the (graph, forms, params) row of
# converge_scan and the _closed_form (or None) of one row.


def _xi_scan(resolved):
    params = resolved["params"]
    potential = _explicit_couplings(resolved, "xi")
    xi_c, _ = critical_points(params.omega, potential.nu)

    def model_at(xi):
        coup = dataclasses.replace(potential, xi=xi)
        adjacency, forms = dumbbell_hamiltonian(params, coup)
        # the axial pair model has no perpendicular mode, whatever the geometry
        closed = _closed_form(forms, coup, params, 0) if params.Omega == 0.0 else None
        return (adjacency, forms, params), closed

    return xi_c, model_at, {"xi_c": xi_c}


def _kappa_scan(resolved):
    params = resolved["params"]
    potential = _explicit_couplings(resolved, "kappa")
    _zero_base_drive(resolved, "solves one doubly excited block; set Omega = 0")
    _, kappa_c = critical_points(params.omega, potential.nu)
    geometry = resolved["geometry"]
    graph = _build_graph(resolved)
    target = next((c for c in graph.configs if sum(c) == 2), None)
    if target is None:
        raise ConfigError("config.seed", "the manifold contains no doubly excited configuration")

    def model_at(kappa):
        coup = dataclasses.replace(potential, kappa=kappa)
        form = assemble_state_hamiltonian(target, geometry, coup, params)
        _, reduced = reduce_modes([form], params)
        closed = _closed_form(reduced, coup, params, geometry.n_axes - 1)
        return (np.zeros((1, 1)), reduced, params), closed

    return kappa_c, model_at, {"kappa_c": kappa_c}


def _omega_scan(resolved):
    _zero_base_drive(resolved, "takes its drives from the scan; set Omega = 0")
    params = resolved["params"]
    graph, forms, basis, coup = _molecular_model(resolved)
    # a closed form holds at zero drive only
    closed = _closed_form(forms, coup, params, resolved["geometry"].n_axes - 1)

    def model_at(drive):
        row = (graph, forms, dataclasses.replace(params, Omega=drive))
        return row, closed if drive == 0.0 else None

    return None, model_at, {"n_modes": basis.dim}


# task -> (scan variable, CSV name, set-up)
SCANS = {
    "gs-scan-xi": ("xi", "scan-xi.csv", _xi_scan),
    "gs-scan-kappa": ("kappa", "scan-kappa.csv", _kappa_scan),
    "gs-scan-omega": ("Omega", "scan-omega.csv", _omega_scan),
}


def _task_scan(resolved, outdir: Path):
    variable, csv_name, setup = SCANS[resolved["task"]]
    critical_scale, model_at, results = setup(resolved)
    values = _scan_values(resolved["scan"], critical_scale).tolist()
    models, closed_forms = zip(*(model_at(value) for value in values))
    reports = converge_scan(models, **resolved["solver"])
    rows = []
    for value, report, closed in zip(values, reports, closed_forms):
        lowest = closed[0] if isinstance(closed, tuple) else closed
        rows.append((value, report.energy, lowest, report.cutoff, report.converged))
    _write_csv(outdir / csv_name, [variable, "E_numeric", "E_analytic", "cutoff", "converged"], rows)
    _write_manifest(outdir, resolved, [csv_name], results)
    return 0


def _task_wigner(resolved, outdir: Path):
    _zero_base_drive(resolved, "reads the zero-drive mode; set Omega = 0")
    params = resolved["params"]
    potential = resolved["potential"]
    coup = derive_couplings(potential, params)
    wcfg = resolved["wigner"]
    if wcfg["mode"] == "perpendicular":
        xi_eff = perpendicular_xi_eff(coup.kappa, coup.nu)
    else:
        xi_eff = coup.xi
    solution = bogoliubov_w(params.omega, xi_eff)
    if not solution.exists:
        raise InstabilityError(
            f"no bounded ground state at xi_eff = {xi_eff}; the mode is beyond its instability"
        )

    half = wcfg["grid_half_width"]
    n = wcfg["resolution"]
    axis = np.linspace(-half, half, n)
    a_r, a_i = np.meshgrid(axis, axis)  # rows: alpha_I outer, alpha_R inner
    values = wigner(solution.w, a_r + 1j * a_i).ravel().tolist()
    rows = list(zip(a_r.ravel().tolist(), a_i.ravel().tolist(), values))
    total = 0.0
    cell = (axis[1] - axis[0]) ** 2
    for val in values:  # sequential sum in row order keeps the footer bit-stable
        total += val * cell
    footer = [f"# normalization {_fmt(total)}"]
    _write_csv(outdir / "wigner.csv", ["alpha_R", "alpha_I", "W"], rows, footer)
    _write_manifest(
        outdir,
        resolved,
        ["wigner.csv"],
        {"w": solution.w, "omega_tilde": solution.omega_tilde, "xi_eff": xi_eff, "normalization": total},
    )
    return 0


def _task_bopes_scan(resolved, outdir: Path):
    _zero_base_drive(resolved, "takes its drives from the scan; set Omega = 0")
    params = resolved["params"]
    graph, forms, _, coup = _molecular_model(resolved)
    drives = _scan_values(resolved["scan"], None)
    result = transition_scan(graph, forms, params, drives, **resolved["solver"])
    analytic = np.full(drives.size, np.nan)  # a closed form holds at zero drive only
    closed = _closed_form(forms, coup, params, resolved["geometry"].n_axes - 1)
    if isinstance(closed, tuple):
        analytic[drives == 0.0] = closed[0]
    (outdir / "bopes-scan.csv").write_text(
        transition_scan_csv(result, analytic=analytic), encoding="utf-8"
    )
    results = {
        "kink_Omega": result.kink_omega,
        "kink_uncertainty": result.kink_uncertainty,
        "bo_second_diff_max": result.bo_second_diff_max,
        "quantum_second_diff_max": result.quantum_second_diff_max,
    }
    _write_manifest(outdir, resolved, ["bopes-scan.csv"], results)
    return 0


def _task_compare(resolved, outdir: Path):
    _zero_base_drive(resolved, "is a zero-drive consistency check")
    params = resolved["params"]
    graph, forms, _, coup = _molecular_model(resolved)
    # the surface first: an unstable model raises there before any Fock solve
    minima = minimize_bo(build_bo_surface(graph, forms, params))
    report = converge_cutoff(graph, forms, params, **resolved["solver"])
    rows = [
        ("E_numeric", report.energy),
        ("numeric_converged", report.converged),
        ("numeric_cutoff", report.cutoff),
        ("E_BO", minima.global_energy),
        ("BO_degeneracy", minima.degeneracy),
        ("correction_measured", report.energy - minima.global_energy),
    ]
    # the exact energy is the lowest node's, the surface minimum the pair's clamped one
    n_perp = resolved["geometry"].n_axes - 1
    predicted = closed = _closed_form(forms, coup, params, n_perp)  # None or "unstable"
    if isinstance(closed, tuple):
        lowest, pair = closed
        zero_point = zero_point_correction(coup.kappa, coup.xi, params.omega, coup.nu, n_perp)
        predicted = 0.0 if pair is None else zero_point - (pair - lowest)
    rows.append(("correction_predicted", predicted))
    _write_csv(outdir / "compare.csv", ["quantity", "value"], rows)
    _write_manifest(outdir, resolved, ["compare.csv"], dict(rows))
    return 0


# task -> (runner, fewest scan samples, or None for a task with no scan)
TASKS = {
    "graph": (_task_graph, None),
    "gs-scan-xi": (_task_scan, 2),
    "gs-scan-kappa": (_task_scan, 2),
    "gs-scan-omega": (_task_scan, 2),
    "wigner": (_task_wigner, None),
    "bopes-scan": (_task_bopes_scan, MIN_SCAN_SAMPLES),
    "compare": (_task_compare, None),
}


# ----------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibronic",
        description="Vibronic models of laser-coupled atom arrays: graphs, spectra, surfaces.",
    )
    parser.add_argument("task", choices=TASKS, help="what to compute")
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    # Accepted and ignored: perfbench/workloads.py (_run_cli) still passes
    # --threads 1; the flag goes once the benchmark stops passing it.
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    return parser


def run(resolved: dict) -> int:
    """Dispatch a validated configuration to its task."""
    outdir = Path(resolved["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return TASKS[resolved["task"]][0](resolved, outdir)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = load_config(args.config, args.task)
        if args.out is not None:
            resolved["out"] = args.out
        return run(resolved)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VibronicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
