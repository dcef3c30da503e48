"""Snapshot compression with proper orthogonal decomposition.

Collects thermal-block solutions over a parameter sweep, compresses them
with POD in the discrete H1 inner product, and checks the Frobenius-tail
identity for the projection error.
"""

import numpy as np

from morkit import fom, rb


def main():
    system = fom.assemble_thermal_block(n=32, sigma1=1.0, sigma2=0.2)
    params = list(system.domain.uniform_grid(40))
    snaps = np.column_stack(
        [truth.coefficients for truth in fom.fom_solve_many(system, params)]
    )

    basis = rb.pod(snaps, gram=system.gram, rank=8)
    sigma = basis.singular_values
    print("leading singular values:")
    for k, s in enumerate(sigma[:6]):
        print(f"  sigma_{k + 1} = {s:.3e}")

    # projection error in the gram norm vs the neglected-spectrum tail
    for n in (1, 2, 4):
        v = basis.basis[:, :n]
        proj = v @ (v.T @ (system.gram @ snaps))
        err = np.sqrt(np.sum((snaps - proj)
                             * (system.gram @ (snaps - proj))))
        tail = np.sqrt(np.sum(sigma[n:] ** 2))
        print(f"N = {n}: projection error {err:.3e}, "
              f"tail sqrt(sum sigma^2) {tail:.3e}")


if __name__ == "__main__":
    main()
