"""Certified reduced basis for the two-material thermal block.

Builds the affine full-order model, runs the weak greedy driven by the
residual-based energy bound, then sweeps the certified output bound over a
test grid and reports effectivities.
"""

import numpy as np

from morkit import certification, fom, rb


def main():
    system = fom.assemble_thermal_block(n=32)
    print(f"full-order size N_h = {system.dof_count}, Q_a = {system.q_a}")

    model = certification.build_coercivity_model(system, np.array([0.5]))
    training = list(system.domain.uniform_grid(50))

    # built inline, the estimator and its full-order Riesz data are freed
    # when the greedy returns
    basis = rb.greedy(system, training, tol=1e-6, mu1=np.array([0.5]), n_max=15,
                      estimator=certification.CertifiedErrorEstimator(model=model))
    print("greedy history (N, max bound over training set):")
    for n, delta in basis.history:
        print(f"  N = {n}: {delta:.3e}")
    print(f"selected parameters: {[float(p[0]) for p in basis.selected_parameters]}")

    # the full basis is exact up to round-off, so sweep a deliberately
    # truncated N = 1 model where the bound has something to certify
    small = rb.ReducedBasis(basis=basis.basis[:, :1])
    romsys = rb.project(system, small)
    offline = certification.riesz_offline(system, small)
    print("\ncertified sweep with N = 1 (mu, bound, true output gap,"
          " effectivity):")
    for mu in system.domain.uniform_grid(8):
        truth = fom.fom_solve(system, mu)
        u_n, s_n = rb.rom_solve(romsys, mu)
        _, delta_s = certification.error_bounds(offline, model, system,
                                                romsys, mu)
        gap = truth.output - s_n
        eff = delta_s / gap if gap > 0 else float("inf")
        print(f"  mu = {float(mu[0]):.3f}  Delta_s = {delta_s:.2e}  "
              f"gap = {gap:.2e}  eff = {eff:.2f}")


if __name__ == "__main__":
    main()
