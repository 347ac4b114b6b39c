"""Ground-state energy of the driven pair approaching the curvature instability.

The excited pair's vibrational mode feels the interaction curvature xi on top
of the trap.  At xi_c = -omega/4 the trap is exactly canceled and the ground
state ceases to exist; numerically this shows up as an energy that keeps
dropping as the Fock cutoff grows.  The scan sweeps xi toward (and past) the
critical value at two drive strengths and writes one CSV per drive.
"""

import csv
import sys

import numpy as np

import vibronic as vb

KAPPA = 0.3
NU = 0.1
DRIVES = (0.0, 0.5)
XI_CRITICAL = -0.25  # at omega = 1


def scan(drive, xibars):
    params = vb.PhysicalParams(omega=1.0, Omega=drive)
    rows = []
    for xibar in xibars:
        xi = xibar * XI_CRITICAL
        model = vb.dumbbell_hamiltonian(params, vb.ExplicitCouplings(KAPPA, xi, NU))
        (report,) = vb.converge_scan([model], e_tol=1e-8, max_cutoff=256)
        analytic = None
        if drive == 0.0:
            try:
                analytic = min(vb.epsilon2(KAPPA, xi, 1.0), 0.0)
            except vb.InstabilityError:
                analytic = "unstable"
        rows.append((xibar, report.energy, analytic, report.cutoff, report.converged))
    return rows


def main():
    xibars = np.linspace(0.0, 1.15, 24)
    for drive in DRIVES:
        rows = scan(drive, xibars)
        name = f"instability-scan-drive{drive:g}.csv"
        with open(name, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["xi_over_xic", "E_numeric", "E_analytic", "cutoff", "converged"])
            writer.writerows(rows)
        print(f"\ndrive = {drive} (wrote {name})")
        print(f"{'xi/xi_c':>9} {'E':>12} {'converged':>10}")
        for xibar, energy, _, _, converged in rows[::4]:
            print(f"{xibar:9.3f} {energy:12.6f} {str(converged):>10}")
        failing = [x for x, _, _, _, conv in rows if not conv]
        if failing:
            print(f"  convergence lost from xi/xi_c = {min(failing):.3f} on")


if __name__ == "__main__":
    sys.exit(main())
