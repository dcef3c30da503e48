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

from . import linalg, rb
from .fom import affine_weights, weighted_sum


class CoercivityError(ValueError):
    """Raised when the minimum-theta lower bound is not applicable."""


@dataclass
class ResidualOffline:
    """Cross grams of the Riesz representers of the Q_f + N*Q_a residual terms.

    Term ordering: load terms first, then for each basis column n the Q_a
    operator terms applied to that column. Holds nothing of full-order size.
    """

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


class _RieszTerms:
    """Raw residual terms and their Riesz representers, grown column by column.

    Both are N_h x (Q_f + N Q_a) arrays, laid out as a fresh column stack.
    Owns its gram factorization; a new basis column costs Q_a gram solves.
    """

    def __init__(self, system):
        self.system = system
        self.factor = system.gram_factor()
        self.basis = np.zeros((system.dof_count, 0))
        self.raw = np.zeros((system.dof_count, 0))
        self.reps = self.raw
        self._append([np.asarray(f, dtype=float) for f in system.rhs_terms])

    def _append(self, columns):
        reps = [self.system.gram_solve(col, self.factor) for col in columns]
        self.raw = np.column_stack([self.raw, *columns])
        self.reps = np.column_stack([self.reps, *reps])

    def extends(self, system, v):
        """Whether ``v`` starts with the basis columns already processed."""
        n = self.basis.shape[1]
        return (system is self.system and v.shape[1] >= n
                and np.array_equal(v[:, :n], self.basis))

    def extend(self, v):
        self._append([np.asarray(a @ v[:, k]) for k in range(self.basis.shape[1], v.shape[1])
                      for a in self.system.matrix_terms])
        self.basis = v.copy()

    def offline(self):
        cross = self.reps.T @ self.raw  # representer_j . gram . representer_k
        return ResidualOffline(
            cross_gram=0.5 * (cross + cross.T),
            q_f=self.system.q_f,
            q_a=self.system.q_a,
            basis_size=self.basis.shape[1],
        )


def riesz_offline(system, basis):
    """Solve the gram Riesz problems for every affine residual term."""
    terms = _RieszTerms(system)
    terms.extend(basis.basis)
    return terms.offline()


def _residual_coefficients(theta_f, theta_a, u_n):
    """Residual coefficient rows from stacked weights and reduced solutions."""
    product = u_n[:, :, None] * theta_a[:, None, :]
    return np.concatenate([theta_f, -product.reshape(len(u_n), -1)], axis=1)


def _dual_norms(offline, coefficients):
    # one matrix-vector product per row: a matrix product over the stack
    # would round differently near convergence; sqrt(r.r) is np.linalg.norm
    rows = (offline._factor @ c for c in coefficients)
    return np.array([np.sqrt(r.dot(r)) for r in rows])


def residual_dual_norm(offline, system, mu, u_n):
    """Dual norm of the reduced-solution residual via the offline cross gram."""
    u_n = np.asarray(u_n, dtype=float)
    if u_n.shape[0] != offline.basis_size:
        raise ValueError("reduced coefficient length does not match offline data")
    theta_f = affine_weights(system.theta_f, mu, offline.q_f)
    theta_a = affine_weights(system.theta_a, mu, offline.q_a)
    c = _residual_coefficients(theta_f[None], theta_a[None], u_n[None])
    return float(_dual_norms(offline, c)[0])


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
            scale = float(np.abs(a.data).max()) if a.nnz else 0.0
            if lam < -1e-8 * max(scale, 1.0):
                raise CoercivityError(
                    f"affine matrix term {q} is not positive semidefinite"
                )
    alpha_bar = _smallest_eig(system.assemble_matrix(mu_bar), system.gram)
    if alpha_bar <= 0.0:
        raise CoercivityError("reference matrix is not coercive")
    return CoercivityModel(mu_bar=mu_bar, theta_bar=theta_bar, alpha_bar=alpha_bar)


def _coercivity_lbs(model, theta_a):
    """Minimum-theta lower bounds for stacked weight rows (M x Q_a)."""
    if np.any(theta_a <= 0.0):
        raise CoercivityError(
            "minimum-theta bound inapplicable: non-positive theta weight"
        )
    return model.alpha_bar * np.min(theta_a / model.theta_bar, axis=1)


def coercivity_lb(model, system, mu):
    """Minimum-theta coercivity lower bound at a parameter point.

    Reads only ``system.theta_a``: the term count comes from the model, so an
    online query touches nothing of full-order size.
    """
    theta = affine_weights(system.theta_a, mu, len(model.theta_bar))
    return float(_coercivity_lbs(model, theta[None])[0])


def error_bounds(offline, model, system, rom, mu):
    """Energy and output error bounds (Delta_en, Delta_s).

    Delta_en = ||r||_X' / sqrt(alpha_LB) bounds the energy-norm error and
    Delta_s = ||r||_X'^2 / alpha_LB the output error s - s_N. The output
    bound holds because every output is compliant (s = f . u): then
    s - s_N = |e|_mu^2 >= 0, and no dual problem is needed.
    """
    u_n, _ = rb.rom_solve(rom, mu)
    dual = residual_dual_norm(offline, system, mu, u_n)
    alpha = coercivity_lb(model, system, mu)
    delta_en = dual / np.sqrt(alpha)
    delta_s = dual * dual / alpha
    return delta_en, delta_s


@dataclass
class CertifiedErrorEstimator:
    """Error-bound provider for the greedy loop (energy-norm bound).

    Keeps the raw residual terms, their Riesz representers and its own gram
    factorization between calls, so a basis grown by one column costs Q_a
    gram solves. Another system, or a basis that does not extend the last
    one, starts afresh. ``offline`` is the :class:`ResidualOffline` of the
    last call: after :func:`rb.greedy` it belongs to the final basis and
    equals ``riesz_offline(system, basis)`` bit for bit, so the caller can
    keep it and drop the estimator with its full-order data.
    """

    model: CoercivityModel
    offline: ResidualOffline = field(default=None, init=False, repr=False)
    _riesz: _RieszTerms = field(default=None, init=False, repr=False)

    def delta_function(self, system, basis):
        """Energy bound over a stack of parameter points (M x p) -> (M,)."""
        v = basis.basis
        if self._riesz is None or not self._riesz.extends(system, v):
            self._riesz = _RieszTerms(system)
        self._riesz.extend(v)
        self.offline = offline = self._riesz.offline()
        romsys = rb.project(system, basis)

        def delta(mus):
            theta_f = np.array([affine_weights(system.theta_f, mu, system.q_f) for mu in mus])
            theta_a = np.array([affine_weights(system.theta_a, mu, system.q_a) for mu in mus])
            a = weighted_sum(theta_a, romsys.reduced_matrix_terms)
            b = weighted_sum(theta_f, romsys.reduced_rhs_terms)
            u_n = np.array([linalg.solve(a_m, b_m) for a_m, b_m in zip(a, b)])
            dual = _dual_norms(offline, _residual_coefficients(theta_f, theta_a, u_n))
            return dual / np.sqrt(_coercivity_lbs(self.model, theta_a))

        return delta
