"""Symmetry-broken to symmetric transition of the driven triangle.

At zero drive the triangle has three degenerate distorted ground shapes; the
drive restores the symmetric shape beyond a threshold.  The clamped-coordinate
(adiabatic) energy shows a kink at the transition while the exact ground
energy is smooth and shifted by the zero-point correction.  Writes the
two curves to transition.csv.
"""

import numpy as np

import vibronic as vb

NU = 0.5


def main():
    omega = 1.0
    params = vb.PhysicalParams(omega=omega, Omega=0.0, d=1.0, x0=NU)
    _, kappa_c = vb.critical_points(omega, NU)
    kappa = 0.5 * kappa_c
    pot = vb.ExplicitCouplings(kappa=kappa, xi=0.0, nu=NU, v_d=1.0)
    graph = vb.build_resonant_manifold(vb.triangle(), -1.0, pot, (0, 0, 1))
    _, forms = vb.build_molecular_model(graph, vb.derive_couplings(pot, params), params)
    surface = vb.build_bo_surface(graph, forms, params)

    report = vb.minimize_bo(surface)
    print(f"zero drive: {report.degeneracy} degenerate distorted shapes at E = "
          f"{report.global_energy:.6f}")
    print(f"predicted zero-point shift: {vb.quantum_correction(kappa, 0.0, omega, NU):+.6f}")

    result = vb.transition_scan(
        graph,
        forms,
        params,
        np.linspace(0.0, 0.32, 65),
        e_tol=1e-3,
        max_cutoff=8,
        frame="bare",
    )
    from vibronic.bopes import transition_scan_csv

    with open("transition.csv", "w") as handle:
        handle.write(transition_scan_csv(result))
    print(f"\nwrote transition.csv ({result.omegas.size} drive samples)")
    print(f"adiabatic kink at drive = {result.kink_omega:.4f} "
          f"+- {result.kink_uncertainty:.4f}")
    ratio = result.bo_second_diff_max / result.quantum_second_diff_max
    print(f"kink sharpness vs exact-curve curvature: factor {ratio:.1f}")

    print(f"\n{'drive':>7} {'E_adiabatic':>12} {'E_exact':>12}")
    for i in range(0, 65, 8):
        print(f"{result.omegas[i]:7.3f} {result.e_bo[i]:12.6f} {result.e_quantum[i]:12.6f}")


if __name__ == "__main__":
    main()
