"""Matrix interpolation for a non-affine, nonlinear diffusion problem.

The operator A(mu) depends non-affinely on the parameter through a Gaussian
conductivity, and C(u) depends on the solution itself. Matrix-variant DEIM
builds affine surrogates for both from training snapshots on their sparse
nonzero pattern. The hyper-reduced quasi-Newton solve then evaluates the
coefficients only on the few elements that touch a magic entry; its state
keeps full dimension.
"""

import numpy as np
import scipy.sparse.linalg as spla

from morkit import fom, interpolation


def main():
    problem = fom.NonlinearFom(n=10)
    train = problem.domain.sample(30, 42)

    a_snaps = []
    c_snaps = []
    for mu in train:
        u = fom.nonlinear_solve(problem, mu)
        a, c = problem.operator_snapshot(u, mu)
        a_snaps.append(a)
        c_snaps.append(c)

    a_basis = interpolation.mdeim_build(a_snaps, tol=1e-10, n_max=12)
    c_basis = interpolation.mdeim_build(c_snaps, tol=1e-10, n_max=12)
    print(f"operator bases: {a_basis.basis.shape[1]} terms for A(mu), "
          f"{c_basis.basis.shape[1]} terms for C(u)")

    test = problem.domain.sample(4, 49)
    print("\nreconstruction and hyper-reduced solve at held-out parameters:")
    for mu in test:
        truth = fom.nonlinear_solve(problem, mu)
        a, _ = problem.operator_snapshot(truth, mu)
        a_rec = interpolation.mdeim_reconstruct(a_basis, a)
        mat_err = spla.norm(a - a_rec) / spla.norm(a)
        approx = interpolation.mdeim_nonlinear_solve(problem, a_basis,
                                                     c_basis, mu)
        sol_err = (np.linalg.norm(approx - truth)
                   / np.linalg.norm(truth))
        print(f"  mu = ({mu[0]: .3f}, {mu[1]: .3f})  "
              f"matrix error = {mat_err:.2e}  solution error = {sol_err:.2e}")


if __name__ == "__main__":
    main()
