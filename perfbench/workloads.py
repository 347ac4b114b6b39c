"""The benchmark's workloads: set-up, one unit of work, and its correctness check.

A workload object is built by its set-up (models or config files, no solve)
and then runs units until the run's time is up.  ``unit`` returns
``(attempted, failed)`` point counts; a point fails if its solve raises or
its check fails, and a failure is counted, never raised.

The closed forms used by the checks are written out here rather than taken
from ``vibronic.analytic``, so that a defect in the oracle layer shows up as
a failed point instead of agreeing with itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import traceback
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

ENERGY_TOL = 1e-6  # oracle rows: the criterion 3/4 tolerance
REFERENCE_TOL = 1e-8  # pinned energies: the converge_cutoff default e_tol
WIGNER_TOL = 1e-12
NORMALIZATION_TOL = 1e-6
KINK_WINDOW = (0.08, 0.28)  # criterion 11


def _report_failure(where: str):
    print(f"point failed in {where}:", flush=True)
    traceback.print_exc()


def _load_references(name: str):
    """Stored reference values for a workload, or None before they are recorded."""
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8")).get(name)


def _run_cli(task: str, config: Path, out: Path) -> int:
    from vibronic import cli  # looked up per call, so a traced run sees the wrapper

    return cli.main([task, "--config", str(config), "--out", str(out), "--threads", "1"])


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = [line for line in lines[1:] if line.startswith("#")]
    return lines[0].split(","), rows, footer


# ---------------------------------------------------------------------------
# Closed forms (README conventions: xi_c = -omega/4, kappa_c = -omega/(2 sqrt2 nu))


def _epsilon2(kappa, xi, omega):
    xibar = xi / (-omega / 4.0)
    return -(2.0 * kappa**2 / omega**2) / (1.0 - xibar) + 0.5 * math.sqrt(1.0 - xibar) - 0.5


def _epsilon4(kappa, xi, omega, nu):
    xibar = xi / (-omega / 4.0)
    kappabar = kappa / (-omega / (2.0 * math.sqrt(2.0) * nu))
    return (
        -(2.0 * kappa**2 / omega**2) / (1.0 - xibar)
        + 0.5 * math.sqrt(1.0 - xibar)
        + math.sqrt(1.0 - kappabar)
        - 1.5
    )


def _squeezed_wigner(omega, xi_eff, alpha_r, alpha_i):
    """Wigner function of the ground state of omega b'b + xi_eff (b+b')^2."""
    ratio = math.sqrt(1.0 + 4.0 * xi_eff / omega)  # omega_tilde / omega
    return (2.0 / math.pi) * math.exp(-2.0 * ratio * alpha_r**2 - 2.0 / ratio * alpha_i**2)


# ---------------------------------------------------------------------------
# fock-large


class FockLarge:
    """Triangle manifold (6 nodes, 4 modes) solved up to cutoff 16, bare frame.

    Units cycle over four fixed drives near the ROADMAP's Omega = 0.1, so
    consecutive solves never repeat an operator.
    """

    name = "fock-large"
    DRIVES = (0.1, 0.105, 0.11, 0.115)
    NU = 0.5
    MAX_CUTOFF = 16
    E_TOL = 1e-7  # above |E16 - E8| (about 1e-8), below |E8 - E4| (about 4e-4)

    def __init__(self, seed: int, workdir: Path):
        import vibronic as vb

        nu = self.NU
        self.params = vb.PhysicalParams(omega=1.0, Omega=0.0, d=1.0, x0=nu)
        kappa = 0.5 * (-1.0 / (2.0 * math.sqrt(2.0) * nu))
        pot = vb.ExplicitCouplings(kappa=kappa, xi=0.0, nu=nu, v_d=1.0)
        self.graph = vb.build_resonant_manifold(vb.triangle(), -1.0, pot, (0, 0, 1))
        _, self.forms = vb.build_molecular_model(
            self.graph, vb.derive_couplings(pot, self.params), self.params
        )
        self.references = _load_references(self.name)

    def solve(self, drive: float):
        from vibronic import fock

        run = dataclasses.replace(self.params, Omega=drive)
        return fock.converge_cutoff(
            self.graph, self.forms, run, e_tol=self.E_TOL, max_cutoff=self.MAX_CUTOFF, frame="bare"
        )

    def unit(self, index: int):
        drive = self.DRIVES[index % len(self.DRIVES)]
        try:
            report = self.solve(drive)
        except Exception:
            _report_failure(f"{self.name} drive {drive}")
            return 1, 1
        ref = (self.references or {}).get(repr(drive))
        ok = (
            ref is not None
            and report.converged
            and report.cutoff == ref["cutoff"]
            and abs(report.energy - ref["energy"]) <= REFERENCE_TOL
        )
        if not ok:
            print(f"{self.name}: drive {drive} gave {report}, reference {ref}", flush=True)
        return 1, 0 if ok else 1


# ---------------------------------------------------------------------------
# transition-scan


class TransitionScan:
    """CLI ``bopes-scan`` on the criterion-11 model over 32 drives in [0.06, 0.30]."""

    name = "transition-scan"
    NU = 0.5
    SAMPLES = 32  # the CLI's minimum for bopes-scan

    def __init__(self, seed: int, workdir: Path):
        import vibronic.cli  # noqa: F401  (a CLI process imports it before any task)

        nu = self.NU
        self.config = {
            "task": "bopes-scan",
            "geometry": {"preset": "triangle", "d": 1.0},
            "potential": {
                "type": "explicit",
                "kappa": 0.5 * (-1.0 / (2.0 * math.sqrt(2.0) * nu)),
                "xi": 0.0,
                "nu": nu,
                "v_d": 1.0,
            },
            "params": {"omega": 1.0, "Omega": 0.0, "delta": "-V"},
            "seed": "001",
            "solver": {"e_tol": 1e-3, "max_cutoff": 8, "frame": "bare"},
            "scan": {"start": 0.06, "stop": 0.30, "samples": self.SAMPLES, "units": "absolute"},
        }
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "bopes-scan.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.references = _load_references(self.name)

    def run(self, out: Path):
        """Run the CLI task; returns (exit code, csv rows, manifest results)."""
        code = _run_cli("bopes-scan", self.config_path, out)
        if code != 0:
            return code, None, None
        _, rows, _ = _read_csv(out / "bopes-scan.csv")
        manifest = json.loads((out / "run-manifest.json").read_text(encoding="utf-8"))
        return code, rows, manifest["results"]

    def unit(self, index: int):
        points = self.SAMPLES + 1  # every drive row, plus the kink location
        out = self.workdir / f"unit-{index}"
        try:
            code, rows, results = self.run(out)
        except Exception:
            _report_failure(self.name)
            return points, points
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if code != 0 or rows is None:
            print(f"{self.name}: exit code {code}", flush=True)
            return points, points
        failed = 0
        refs = (self.references or {}).get("rows", [])
        for i in range(self.SAMPLES):
            try:
                omega_s, e_bo, e_q, _analytic, converged, _cutoff = rows[i]
                ref = refs[i]
                ok = (
                    float(omega_s) == ref["Omega"]
                    and abs(float(e_bo) - ref["E_BO"]) <= REFERENCE_TOL
                    and abs(float(e_q) - ref["E_quantum"]) <= REFERENCE_TOL
                    and converged == "true"
                )
            except (IndexError, ValueError):
                ok = False
            if not ok:
                failed += 1
                print(f"{self.name}: row {i} {rows[i] if i < len(rows) else None}", flush=True)
        kink = results.get("kink_Omega")
        if not (isinstance(kink, float) and KINK_WINDOW[0] < kink < KINK_WINDOW[1]):
            failed += 1
            print(f"{self.name}: kink {kink} outside {KINK_WINDOW}", flush=True)
        return points, failed


# ---------------------------------------------------------------------------
# oracle-scan


class OracleScan:
    """CLI ``gs-scan-xi``, ``gs-scan-kappa`` and ``wigner`` checked against closed forms.

    The seed draws the couplings inside the stable region (reduced couplings
    below one), where the closed forms hold for any draw; the scan ranges
    are fixed so that the work per unit barely depends on the seed.
    """

    name = "oracle-scan"
    XI_SAMPLES = 200
    XIBAR_RANGE = (-1.0, 0.9)
    KAPPA_SAMPLES = 16
    KAPPABAR_RANGE = (0.0, 0.6)  # every row converges by cutoff 32
    WIGNER_RESOLUTION = 101
    WIGNER_HALF_WIDTH = 5.0

    def __init__(self, seed: int, workdir: Path):
        import numpy as np

        import vibronic.cli  # noqa: F401  (a CLI process imports it before any task)

        # The solver's work depends on |kappa| in the xi scan and on nu and
        # xi in the kappa scan (xi near 0 converges at smaller cutoffs), so
        # those draws stay in narrow bands to keep the cost per unit nearly
        # independent of the seed.
        rng = np.random.default_rng(seed)
        xi_kappa = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.4))
        xi_nu = float(rng.uniform(0.1, 0.5))
        kappa_xibar = float(rng.uniform(-1.0, -0.3))
        kappa_nu = float(rng.uniform(0.2, 0.3))
        wigner_kappabar = float(rng.uniform(0.3, 0.9))
        wigner_nu = float(rng.uniform(0.1, 0.5))

        def explicit(kappa, xi, nu):
            return {"type": "explicit", "kappa": kappa, "xi": xi, "nu": nu, "v_d": 1.0}

        params = {"omega": 1.0, "Omega": 0.0, "delta": "-V"}
        self.configs = {
            "gs-scan-xi": {
                "task": "gs-scan-xi",
                "geometry": {"preset": "dumbbell", "d": 1.0},
                "potential": explicit(xi_kappa, 0.0, xi_nu),
                "params": params,
                "solver": {"e_tol": 1e-9, "max_cutoff": 128, "frame": "displaced"},
                "scan": {
                    "start": self.XIBAR_RANGE[0],
                    "stop": self.XIBAR_RANGE[1],
                    "samples": self.XI_SAMPLES,
                    "units": "critical",
                },
            },
            "gs-scan-kappa": {
                "task": "gs-scan-kappa",
                "geometry": {"preset": "tetrahedron", "d": 1.0},
                "potential": explicit(0.0, -0.25 * kappa_xibar, kappa_nu),
                "params": params,
                "solver": {"e_tol": 1e-9, "max_cutoff": 32, "frame": "displaced"},
                "scan": {
                    "start": self.KAPPABAR_RANGE[0],
                    "stop": self.KAPPABAR_RANGE[1],
                    "samples": self.KAPPA_SAMPLES,
                    "units": "critical",
                },
            },
            "wigner": {
                "task": "wigner",
                "geometry": {"preset": "tetrahedron", "d": 1.0},
                "potential": explicit(
                    wigner_kappabar * (-1.0 / (2.0 * math.sqrt(2.0) * wigner_nu)), 0.0, wigner_nu
                ),
                "params": params,
                "wigner": {
                    "grid_half_width": self.WIGNER_HALF_WIDTH,
                    "resolution": self.WIGNER_RESOLUTION,
                    "mode": "perpendicular",
                },
            },
        }
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for task, cfg in self.configs.items():
            self.paths[task] = self.workdir / f"{task}.json"
            self.paths[task].write_text(json.dumps(cfg), encoding="utf-8")

    CHECKS = {
        "gs-scan-xi": ("scan-xi.csv", "_check_xi", XI_SAMPLES),
        "gs-scan-kappa": ("scan-kappa.csv", "_check_kappa", KAPPA_SAMPLES),
        "wigner": ("wigner.csv", "_check_wigner", 1),  # the grid is one point
    }

    def unit(self, index: int):
        attempted = failed = 0
        for task, (csv_name, check, points) in self.CHECKS.items():
            out = self.workdir / f"unit-{index}" / task
            attempted += points
            try:
                code = _run_cli(task, self.paths[task], out)
                if code != 0:
                    print(f"{self.name}: {task} exit code {code}", flush=True)
                    failed += points
                    continue
                _, rows, footer = _read_csv(out / csv_name)
                failed += getattr(self, check)(self.configs[task], rows, footer)
            except Exception:
                _report_failure(f"{self.name} {task}")
                failed += points
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return attempted, failed

    def _scan_rows(self, cfg, rows, samples, energy):
        """Count rows that disagree with ``energy(value)`` or are missing."""
        failed = max(0, samples - len(rows))
        for i, row in enumerate(rows[:samples]):
            try:
                value, e_num, e_ana, _, converged = row
                target = energy(float(value))
                ok = (
                    e_ana != "unstable"  # every drawn row lies inside the stable region
                    and converged == "true"
                    and abs(float(e_num) - target) < ENERGY_TOL
                    and abs(float(e_ana) - target) < ENERGY_TOL
                )
            except (ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                failed += 1
                print(f"{self.name}: {cfg['task']} row {i} {row}", flush=True)
        return failed

    def _check_xi(self, cfg, rows, footer):
        pot, omega = cfg["potential"], cfg["params"]["omega"]
        return self._scan_rows(
            cfg,
            rows,
            self.XI_SAMPLES,
            lambda xi: omega * min(_epsilon2(pot["kappa"], xi, omega), 0.0),
        )

    def _check_kappa(self, cfg, rows, footer):
        pot, omega = cfg["potential"], cfg["params"]["omega"]
        return self._scan_rows(
            cfg,
            rows,
            self.KAPPA_SAMPLES,
            lambda kappa: omega * _epsilon4(kappa, pot["xi"], omega, pot["nu"]),
        )

    def _check_wigner(self, cfg, rows, footer):
        pot, omega = cfg["potential"], cfg["params"]["omega"]
        xi_eff = pot["nu"] * pot["kappa"] / math.sqrt(2.0)
        n = self.WIGNER_RESOLUTION
        bad = len(rows) != n * n
        for row in rows:
            a_r, a_i, w = (float(x) for x in row)
            if abs(w - _squeezed_wigner(omega, xi_eff, a_r, a_i)) > WIGNER_TOL:
                bad = True
                break
        norm = float(footer[0].split()[-1]) if footer else math.nan
        if not abs(norm - 1.0) < NORMALIZATION_TOL:
            bad = True
        if bad:
            print(f"{self.name}: wigner grid disagrees (normalization {norm})", flush=True)
        return int(bad)


WORKLOADS = {cls.name: cls for cls in (FockLarge, TransitionScan, OracleScan)}
