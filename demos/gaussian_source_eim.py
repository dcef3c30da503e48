"""Empirical interpolation of a parametrized Gaussian source term.

The forcing g(x; mu) moves its peak with the parameter, so it has no exact
affine decomposition. EIM builds one from snapshots: magic points plus a
nested interpolation basis. The demo shows the greedy error history and the
interpolation quality at held-out parameters.
"""

import numpy as np

from morkit import fom, interpolation


def main():
    system, points, _ = fom.assemble_gaussian_poisson(n=24)
    train = system.domain.sample(100, 42)
    values = np.column_stack([fom.gaussian_forcing(points, mu) for mu in train])

    basis = interpolation.eim_build(values, tol=1e-10, n_max=15)
    print("EIM greedy history (q, sup-norm error over training set):")
    for q, eps in enumerate(basis.error_history, start=1):
        print(f"  q = {q:2d}: {eps:.3e}")

    # held-out parameters never seen by the greedy
    test = system.domain.sample(5, 7)
    print("\nheld-out source interpolation (relative sup-norm error):")
    for mu in test:
        g = fom.gaussian_forcing(points, mu)
        approx = interpolation.eim_interpolate(basis, g[basis.magic_indices])
        err = np.abs(approx - g).max() / np.abs(g).max()
        print(f"  mu = ({mu[0]: .3f}, {mu[1]: .3f})  error = {err:.2e}")


if __name__ == "__main__":
    main()
