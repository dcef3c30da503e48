"""Reduced-basis construction (POD and greedy) and the projected online solver.

The reduced system stores only N-sized data; the online solve never touches
an object of full-order dimension. Serialization writes a JSON manifest plus
an npz payload so a reduced model can be reloaded without the full-order
system.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .fom import THETA_REGISTRY, affine_sum, fom_solve


@dataclass
class ReducedBasis:
    """Orthonormal column basis in the gram inner product.

    ``singular_values`` holds the full spectrum (retained and neglected) on
    the POD path and is empty on the greedy path; ``selected_parameters``
    records the greedy parameter sequence.
    """

    basis: np.ndarray
    singular_values: np.ndarray = field(default_factory=lambda: np.array([]))
    selected_parameters: list = field(default_factory=list)
    history: list = field(default_factory=list)  # greedy (N, max_delta) pairs
    saturated: bool = False

    @property
    def size(self):
        return self.basis.shape[1]


def pod(snapshots, gram=None, rank=None, energy=None):
    """Best low-rank basis of a snapshot matrix in the gram-weighted sense.

    ``snapshots`` is the 2-d matrix S = [u(mu_1) ... u(mu_n)], one column
    per parameter. Computed by the method of snapshots: eigendecomposition
    of the small gram-weighted correlation matrix. Truncation either at a
    fixed ``rank`` or at the smallest N whose plain singular-value sum
    reaches the ``energy`` fraction of the total sum.
    """
    if (rank is None) == (energy is None):
        raise ValueError("exactly one of rank / energy must be given")
    s = linalg.check_matrix(snapshots, "snapshot matrix")
    n_max = s.shape[1]
    if np.abs(s).max() == 0.0:
        raise ValueError("snapshot matrix is identically zero, no basis derivable")
    corr = s.T @ (s if gram is None else gram @ s)
    corr = 0.5 * (corr + corr.T)
    lam, z = linalg.sym_eig(corr)
    lam = np.clip(lam, 0.0, None)
    sigma = np.sqrt(lam)

    if rank is not None:
        if not 1 <= rank <= n_max:
            raise ValueError("rank must be between 1 and the snapshot count")
        n = int(rank)
    else:
        if not 0.0 < energy <= 1.0:
            raise ValueError("energy fraction must lie in (0, 1]")
        ratios = np.cumsum(sigma) / sigma.sum()
        n = int(np.searchsorted(ratios, energy - 1e-15) + 1)
        n = min(n, n_max)
    # drop numerically zero modes that cannot be normalized
    n = min(n, int(np.sum(sigma > 1e-14 * sigma[0])))
    if n == 0:
        raise ValueError("requested basis has no nonzero modes")

    modes = s @ (z[:, :n] / sigma[:n])
    # re-orthonormalize against round-off from the method of snapshots
    basis = np.zeros((s.shape[0], 0))
    for k in range(n):
        col = linalg.orthonormalize(modes[:, k], basis, gram)
        if col is None:
            break
        # deterministic sign: largest-magnitude entry positive
        if col[np.argmax(np.abs(col))] < 0:
            col = -col
        basis = np.column_stack([basis, col])
    return ReducedBasis(basis=basis, singular_values=sigma)


def greedy(system, training_set, tol, mu1, n_max, estimator):
    """Iterative basis enrichment at the worst-estimated parameter.

    ``estimator`` must provide ``delta_function(system, basis)`` returning a
    callable that maps the stacked training points (M x p) to their M error
    bounds. Records the per-iteration (N, max bound) history; stops on
    tolerance, basis size cap or snapshot deflation (saturation).
    """
    if len(training_set) == 0:
        raise ValueError("training set must be nonempty")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    training = np.stack([np.atleast_1d(np.asarray(m, dtype=float)) for m in training_set])
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    gram = system.gram

    u1 = fom_solve(system, mu1).coefficients
    zeta = linalg.orthonormalize(u1, np.zeros((system.dof_count, 0)), gram)
    if zeta is None:
        raise ValueError("initial snapshot is numerically zero")
    basis = ReducedBasis(basis=zeta.reshape(-1, 1), selected_parameters=[mu1])

    while True:
        bounds = np.asarray(estimator.delta_function(system, basis)(training), dtype=float)
        if bounds.shape != (len(training),):
            raise ValueError(f"estimator gave {bounds.shape} bounds for {len(training)} points")
        j_star = int(np.argmax(bounds))  # argmax ties -> smallest index
        max_delta = float(bounds[j_star])
        basis.history.append((basis.size, max_delta))
        if max_delta <= tol or basis.size >= n_max:
            return basis
        mu_star = training[j_star]
        u_star = fom_solve(system, mu_star).coefficients
        zeta = linalg.orthonormalize(u_star, basis.basis, gram)
        if zeta is None:
            basis.saturated = True
            return basis
        basis.basis = np.column_stack([basis.basis, zeta])
        basis.selected_parameters.append(mu_star)


@dataclass
class RomSystem:
    """Galerkin-projected affine system: dense N x N terms, no full-order data.

    ``basis`` is kept only as a reference for lifting; the online solve must
    not read it. The output is compliant, s_N = f_N . u_N, as in the full
    system.
    """

    reduced_matrix_terms: list
    reduced_rhs_terms: list
    theta_a: callable
    theta_f: callable
    basis: ReducedBasis = None
    theta_name: str = None

    @property
    def size(self):
        return self.reduced_matrix_terms[0].shape[0]


def project(system, basis):
    """Precompute the reduced affine terms V^T A_i V and V^T f_i (compliant output)."""
    v = basis.basis
    if v.shape[0] != system.dof_count:
        raise ValueError("basis dimension does not match the system")
    reduced_a = [np.asarray(v.T @ (a @ v)) for a in system.matrix_terms]
    reduced_f = [np.asarray(v.T @ f) for f in system.rhs_terms]
    return RomSystem(
        reduced_matrix_terms=reduced_a,
        reduced_rhs_terms=reduced_f,
        theta_a=system.theta_a,
        theta_f=system.theta_f,
        basis=basis,
        theta_name=system.theta_name,
    )


def rom_solve(rom, mu):
    """Dense N x N online solve; cost independent of the full-order size."""
    a = affine_sum(rom.theta_a, rom.reduced_matrix_terms, mu)
    f = affine_sum(rom.theta_f, rom.reduced_rhs_terms, mu)
    u_n = linalg.solve(a, f)
    return u_n, float(f @ u_n)


def lift(basis, u_n):
    """Expand reduced coefficients to full-order coordinates."""
    u_n = np.asarray(u_n, dtype=float)
    if u_n.shape[0] != basis.size:
        raise ValueError("coefficient length does not match basis size")
    return basis.basis @ u_n


# version 1 payloads also held output terms ("l"), which need not be compliant
ROM_FORMAT_VERSION = 2

# payload key prefix of each group of reduced affine terms
_TERM_GROUPS = (
    ("a", "reduced_matrix_terms"),
    ("f", "reduced_rhs_terms"),
)


def save_rom(rom, directory):
    """Write the reduced model as manifest.json + payload.npz.

    Requires theta maps identified by a registered name so the model can be
    reattached to its parameter dependency on load.
    """
    if rom.theta_name is None or rom.theta_name not in THETA_REGISTRY:
        raise ValueError(
            "serialization requires theta maps registered by name "
            f"(got {rom.theta_name!r})"
        )
    os.makedirs(directory, exist_ok=True)
    basis = rom.basis
    manifest = {
        "format_version": ROM_FORMAT_VERSION,
        "size": rom.size,
        **{f"q_{key}": len(getattr(rom, attr)) for key, attr in _TERM_GROUPS},
        "theta_name": rom.theta_name,
        "selected_parameters": [
            list(map(float, p)) for p in (basis.selected_parameters if basis else [])
        ],
        "singular_values": [
            float(s) for s in (basis.singular_values if basis is not None else [])
        ],
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    payload = {
        f"{key}_{q}": term
        for key, attr in _TERM_GROUPS
        for q, term in enumerate(getattr(rom, attr))
    }
    np.savez(os.path.join(directory, "payload.npz"), **payload)


def load_rom(directory):
    """Load a reduced model saved by :func:`save_rom` (no basis attached)."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != ROM_FORMAT_VERSION:
        raise ValueError("unsupported reduced-model format version")
    name = manifest["theta_name"]
    if name not in THETA_REGISTRY:
        raise ValueError(f"unknown theta registry entry {name!r}")
    theta_a, theta_f = THETA_REGISTRY[name]
    with np.load(os.path.join(directory, "payload.npz")) as payload:
        terms = {
            attr: [payload[f"{key}_{q}"] for q in range(manifest[f"q_{key}"])]
            for key, attr in _TERM_GROUPS
        }
    return RomSystem(
        **terms,
        theta_a=theta_a,
        theta_f=theta_f,
        basis=None,
        theta_name=name,
    )
