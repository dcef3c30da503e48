"""Certified residual-based a posteriori error bounds.

Offline: Riesz representers of the affine residual terms and their gram
cross-products; a coercivity lower bound from the reference-parameter
eigenvalue and the minimum theta ratio. Online: the residual dual norm is a
small quadratic form, so both bounds cost nothing full-order-sized.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import rb
from .fom import affine_weights


class CoercivityError(ValueError):
    """Raised when the minimum-theta lower bound is not applicable."""


@dataclass
class ResidualOffline:
    """Riesz representers of the Q_f + N*Q_a residual terms and their grams.

    Term ordering: load terms first, then for each basis column n the Q_a
    operator terms applied to that column.
    """

    riesz_vectors: np.ndarray  # N_h x (Q_f + N Q_a)
    cross_gram: np.ndarray
    q_f: int
    q_a: int
    basis_size: int

    def __post_init__(self):
        # symmetric factor R with R^T R = cross_gram; evaluating the dual
        # norm as |R c| avoids the cancellation of the raw quadratic form
        lam, w = np.linalg.eigh(self.cross_gram)
        lam = np.clip(lam, 0.0, None)
        self._factor = np.sqrt(lam)[:, None] * w.T


def riesz_offline(system, basis):
    """Solve the gram Riesz problems for every affine residual term."""
    v = basis.basis
    n = v.shape[1]
    raw = [np.asarray(f, dtype=float) for f in system.rhs_terms]
    for k in range(n):
        zeta = v[:, k]
        for a in system.matrix_terms:
            raw.append(np.asarray(a @ zeta))
    raw = np.column_stack(raw) if raw else np.zeros((system.dof_count, 0))
    representers = np.column_stack(
        [system.gram_solve(raw[:, j]) for j in range(raw.shape[1])]
    ) if raw.shape[1] else raw
    cross = representers.T @ raw  # representer_j . gram . representer_k
    cross = 0.5 * (cross + cross.T)
    return ResidualOffline(
        riesz_vectors=representers,
        cross_gram=cross,
        q_f=system.q_f,
        q_a=system.q_a,
        basis_size=n,
    )


def _residual_coefficients(offline, system, mu, u_n):
    u_n = np.asarray(u_n, dtype=float)
    if u_n.shape[0] != offline.basis_size:
        raise ValueError("reduced coefficient length does not match offline data")
    theta_f = affine_weights(system.theta_f, mu, offline.q_f)
    theta_a = affine_weights(system.theta_a, mu, offline.q_a)
    return np.concatenate([theta_f, -np.outer(u_n, theta_a).ravel()])


def residual_dual_norm(offline, system, mu, u_n):
    """Dual norm of the reduced-solution residual via the offline cross gram."""
    c = _residual_coefficients(offline, system, mu, u_n)
    return float(np.linalg.norm(offline._factor @ c))


@dataclass
class CoercivityModel:
    """Reference-parameter data for the minimum-theta coercivity lower bound."""

    mu_bar: np.ndarray
    theta_bar: np.ndarray
    alpha_bar: float


def _arpack_start(n):
    """Fixed ARPACK start vector, so repeated runs give bitwise-equal results.

    Not constant: constants lie in the null space of the half-domain terms.
    """
    return np.random.default_rng(0).random(n)


def _smallest_eig(a, gram=None):
    """Smallest eigenvalue of a x = lambda gram x; gram defaults to the identity.

    Up to 400 unknowns the problem is solved densely. Larger ones use ARPACK
    in shift-invert mode, which finds the eigenvalue nearest the shift, so
    the shift must lie below the spectrum. With ``gram`` (the reference
    operator, SPD) it is 0. Without, ``a`` is an affine term that may be
    singular or indefinite; no eigenvalue of a symmetric matrix lies below
    -||a||_1, so the shift is a little further down. An extremal ("SA")
    iteration cannot resolve the zero eigenvalue of a term that lives on
    half the domain.
    """
    n = a.shape[0]
    if n <= 400:
        import scipy.linalg

        dense_gram = None if gram is None else gram.toarray()
        return float(scipy.linalg.eigh(a.toarray(), dense_gram, eigvals_only=True)[0])
    if gram is None:
        sigma = -1.001 * (spla.norm(a, 1) or 1.0)
    else:
        sigma, gram = 0, sp.csc_matrix(gram)
    vals = spla.eigsh(
        sp.csc_matrix(a), k=1, M=gram, sigma=sigma, which="LM",
        return_eigenvectors=False, v0=_arpack_start(n),
    )
    return float(vals[0])


def build_coercivity_model(system, mu_bar, check_terms=True):
    """Offline setup: smallest reference eigenvalue plus theta positivity.

    ``check_terms`` additionally verifies each affine matrix term is positive
    semidefinite (a requirement of the minimum-theta argument).
    """
    mu_bar = np.atleast_1d(np.asarray(mu_bar, dtype=float))
    theta_bar = affine_weights(system.theta_a, mu_bar, system.q_a)
    if np.any(theta_bar <= 0.0):
        raise CoercivityError("reference theta weights must all be positive")
    if check_terms:
        for q, a in enumerate(system.matrix_terms):
            lam = _smallest_eig(a)
            if lam < -1e-8 * max(_matrix_scale(a), 1.0):
                raise CoercivityError(
                    f"affine matrix term {q} is not positive semidefinite"
                )
    alpha_bar = _smallest_eig(system.assemble_matrix(mu_bar), system.gram)
    if alpha_bar <= 0.0:
        raise CoercivityError("reference matrix is not coercive")
    return CoercivityModel(mu_bar=mu_bar, theta_bar=theta_bar, alpha_bar=alpha_bar)


def _matrix_scale(a):
    return float(np.abs(a.data).max()) if a.nnz else 0.0


def coercivity_lb(model, system, mu):
    """Minimum-theta coercivity lower bound at a parameter point."""
    theta = affine_weights(system.theta_a, mu, system.q_a)
    if np.any(theta <= 0.0):
        raise CoercivityError(
            "minimum-theta bound inapplicable: non-positive theta weight"
        )
    return model.alpha_bar * float(np.min(theta / model.theta_bar))


def error_bounds(offline, model, system, rom, mu):
    """Energy and compliant-output error bounds (Delta_en, Delta_s)."""
    u_n, _ = rb.rom_solve(rom, mu)
    dual = residual_dual_norm(offline, system, mu, u_n)
    alpha = coercivity_lb(model, system, mu)
    delta_en = dual / np.sqrt(alpha)
    delta_s = dual * dual / alpha
    return delta_en, delta_s


@dataclass
class CertifiedErrorEstimator:
    """Error-bound provider for the greedy loop (energy-norm bound)."""

    model: CoercivityModel

    def delta_function(self, system, basis):
        offline = riesz_offline(system, basis)
        romsys = rb.project(system, basis)

        def delta(mu):
            u_n, _ = rb.rom_solve(romsys, mu)
            dual = residual_dual_norm(offline, system, mu, u_n)
            return dual / np.sqrt(coercivity_lb(self.model, system, mu))

        return delta
