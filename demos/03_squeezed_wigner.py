"""Squeezed vibrational ground states near the linear-coupling instability.

In the four-atom cluster a doubly excited pair softens the two modes
perpendicular to its axis; their effective curvature is nu*kappa/sqrt(2) and
hits the critical value at kappa_c = -omega/(2 sqrt(2) nu).  Approaching it,
the perpendicular ground state becomes strongly squeezed while the atoms stay
close to their equilibrium positions.  Writes a phase-space grid CSV for the
most squeezed case.
"""

import csv

import numpy as np

import vibronic as vb

NU = 0.1
SINGLE = np.zeros((1, 1))


def main():
    omega = 1.0
    _, kappa_c = vb.critical_points(omega, NU)
    print(f"critical linear coupling at nu={NU}: kappa_c = {kappa_c:.5f}")
    print(f"\n{'kappa/kappa_c':>14} {'w':>9} {'width+':>8} {'width-':>8} {'freq':>8}")
    for kappabar in (0.5, 0.9, 0.99):
        xi_eff = vb.perpendicular_xi_eff(kappabar * kappa_c, NU)
        sol = vb.bogoliubov_w(omega, xi_eff)
        w_plus, w_minus = vb.wigner_widths(sol.w)
        print(
            f"{kappabar:14.2f} {sol.w:9.4f} {w_plus:8.3f} {w_minus:8.3f} {sol.omega_tilde:8.4f}"
        )

    # atoms stay nearby even this close to the instability (nu chosen so the
    # bound holds with the curvature term switched off)
    nu_big = 1.5
    params = vb.PhysicalParams(omega=omega, Omega=0.0, d=1.0, x0=nu_big)
    _, kc_big = vb.critical_points(omega, nu_big)
    coup = vb.ExplicitCouplings(kappa=0.99 * kc_big, xi=0.0, nu=nu_big)
    form = vb.assemble_state_hamiltonian((1, 1, 0, 0), vb.tetrahedron(), coup, params)
    basis, reduced = vb.reduce_modes([form], params)
    op = vb.build_fock_matrix(vb.Model.build(SINGLE, reduced, params), cutoff=64)
    _, state = vb.ground_state(op)
    moves = np.linalg.norm(vb.mean_displacements(op, state, basis), axis=1)
    print(f"\nper-atom mean displacement at kappa = 0.99 kappa_c (nu={nu_big}):")
    for i, r in enumerate(moves):
        print(f"  atom {i}: {r / params.x0:.3f} x0")

    # phase-space distribution of the perpendicular mode at 0.99 kappa_c
    sol = vb.bogoliubov_w(omega, vb.perpendicular_xi_eff(0.99 * kappa_c, NU))
    half, n = 6.0, 121
    axis = np.linspace(-half, half, n)
    with open("wigner-grid.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["alpha_R", "alpha_I", "W"])
        for a_i in axis:
            for a_r in axis:
                writer.writerow([a_r, a_i, vb.wigner(sol.w, complex(a_r, a_i))])
    print(f"\nwrote wigner-grid.csv ({n}x{n} points, w = {sol.w:.4f})")


if __name__ == "__main__":
    main()
