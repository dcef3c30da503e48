"""Geometry parametrization maps: FFD lattice, RBF interpolation, IDW.

All three morphs separate x-dependent weights (precomputable once per point
set) from the parameter-dependent control data, and deform arbitrary point
clouds in 2-d or 3-d.
"""

import math
from dataclasses import dataclass

import numpy as np


class MorphBuildError(ValueError):
    """Raised when a morph cannot be constructed from the given data."""


# ---------------------------------------------------------------------------
# free-form deformation


@dataclass
class FfdLattice:
    """Bernstein control lattice with an affine physical-to-unit map.

    ``origin``/``axes`` define the affine map psi(x) = axes^-1 (x - origin)
    to lattice coordinates in [0,1]^d; ``displacements`` holds the control
    point offsets (lattice-coordinate units resolved through the axes), shape
    (degrees[0]+1, ..., degrees[d-1]+1, d).
    """

    origin: np.ndarray
    axes: np.ndarray
    degrees: tuple
    displacements: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.axes = np.asarray(self.axes, dtype=float)
        if self.origin.ndim != 1:
            raise MorphBuildError(
                f"origin must be a 1-d array, got {self.origin.ndim}-d")
        d = self.origin.shape[0]
        if self.axes.shape != (d, d):
            raise MorphBuildError("axes must be a square matrix matching the origin")
        if abs(np.linalg.det(self.axes)) < 1e-14:
            raise MorphBuildError("lattice affine map is not invertible")
        self.degrees = tuple(int(k) for k in self.degrees)
        if len(self.degrees) != d:
            raise MorphBuildError("one polynomial degree per spatial direction")
        expected = tuple(k + 1 for k in self.degrees) + (d,)
        self.displacements = np.asarray(self.displacements, dtype=float)
        if self.displacements.shape != expected:
            raise MorphBuildError(
                f"displacement array must have shape {expected}, "
                f"got {self.displacements.shape}"
            )
        self._axes_inv = np.linalg.inv(self.axes)

    @property
    def dim(self):
        return self.origin.shape[0]


def _bernstein_weights(t, degree):
    """All Bernstein polynomials of the given degree at points t (1-d array)."""
    k = np.arange(degree + 1)
    binomial = np.array([math.comb(degree, j) for j in range(degree + 1)], dtype=float)
    t = t[:, None]
    return binomial * t ** k * (1.0 - t) ** (degree - k)


def ffd_weights(lattice, points):
    """Per-point tensor-Bernstein weights, reusable across displacements.

    Returns ``(weights, inside)``. ``weights`` is a C-ordered
    (n_points, n_controls) array, one row per point, zero for points outside
    the unit lattice image (those stay fixed); ``inside`` is the boolean row
    mask. :func:`ffd_deform` applies the weights as one matrix product over
    all rows: a product over the inside rows alone is cheaper, but the BLAS
    may round it differently in the last bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    local = (points - lattice.origin) @ lattice._axes_inv.T
    inside = np.all((local >= -1e-12) & (local <= 1.0 + 1e-12), axis=1)
    n_ctrl = int(np.prod([k + 1 for k in lattice.degrees]))
    weights = np.zeros((points.shape[0], n_ctrl))
    if inside.any():
        per_dir = [
            _bernstein_weights(np.clip(local[inside, a], 0.0, 1.0), deg)
            for a, deg in enumerate(lattice.degrees)
        ]
        w = per_dir[0]
        for nxt in per_dir[1:]:
            w = np.einsum("pi,pj->pij", w, nxt).reshape(w.shape[0], -1)
        weights[inside] = w
    return weights, inside


def ffd_deform(lattice, points, weights=None):
    """Deform a point cloud through the Bernstein lattice.

    ``weights`` may be the precomputed output of :func:`ffd_weights` for the
    same point set; otherwise it is computed on the fly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        weights = ffd_weights(lattice, points)
    w, inside = weights
    disp_flat = lattice.displacements.reshape(-1, lattice.dim)
    moved = points + (w @ disp_flat) @ lattice.axes.T
    return np.where(inside[:, None], moved, points)


# ---------------------------------------------------------------------------
# radial basis function interpolation
#
# Each kernel maps an array of distances to kernel values and may overwrite
# the array it is given, so that evaluating n x m distances needs at most
# one more n x m array (thin-plate and wendland-c2 need one, the others none).

def _phi_gaussian(r, radius):
    np.square(r, out=r)
    np.negative(r, out=r)
    r /= radius
    return np.exp(r, out=r)


def _phi_thin_plate(r, radius):
    r /= radius
    positive = r > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.log(r)
        r *= r
        r *= log
    np.copyto(r, 0.0, where=~positive)  # q^2 log q -> 0 as q -> 0
    return r


def _phi_wendland_c2(r, radius):
    q = np.divide(r, radius, out=np.empty_like(r))
    np.subtract(1.0, q, out=q)
    np.clip(q, 0.0, None, out=q)
    np.power(q, 4, out=q)
    r *= 4.0
    r /= radius
    r += 1.0
    q *= r
    return q


def _phi_multiquadric(r, radius):
    np.square(r, out=r)
    r += radius ** 2
    return np.sqrt(r, out=r)


def _phi_inverse_multiquadric(r, radius):
    r = _phi_multiquadric(r, radius)
    return np.divide(1.0, r, out=r)


RBF_KERNELS = {
    "gaussian": _phi_gaussian,
    "thin-plate": _phi_thin_plate,
    "wendland-c2": _phi_wendland_c2,
    "multiquadric": _phi_multiquadric,
    "inverse-multiquadric": _phi_inverse_multiquadric,
}


@dataclass
class RbfMorph:
    """Built RBF deformation: kernel weights plus an affine polynomial part."""

    kernel: str
    radius: float
    control_points: np.ndarray
    weights: np.ndarray  # gamma, one column per spatial component
    poly_const: np.ndarray  # c
    poly_matrix: np.ndarray  # Q, applied as x -> Q x


def _pairwise_distances(a, b):
    """Euclidean distances between the rows of a and b, shape (len(a), len(b)).

    The squared differences are summed one coordinate at a time into one
    array, the order numpy's sum takes over a last axis of fewer than eight
    entries. So for 2-d and 3-d points the result equals
    ``np.sqrt(np.sum((a[:, None] - b[None]) ** 2, axis=2))`` bit for bit,
    without its two (len(a), len(b), d) temporaries.
    """
    dist = np.zeros((a.shape[0], b.shape[0]))
    step = np.empty_like(dist)
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=step)
        np.square(step, out=step)
        dist += step
    return np.sqrt(dist, out=dist)


def bounding_box_diagonal(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def _check_point_arrays(control, deformed):
    """Control and deformed points: 2-d arrays of one shape, a point per row."""
    if control.ndim != 2 or deformed.ndim != 2:
        raise MorphBuildError(
            f"control and deformed points must be 2-d arrays, got "
            f"{control.ndim}-d and {deformed.ndim}-d")
    if control.shape != deformed.shape:
        raise MorphBuildError("control and deformed point arrays must match")


def rbf_build(control_points, deformed_points, kernel="gaussian", radius=None):
    """Solve the constrained interpolation system for an RBF morph.

    The kernel block plus the degree-one polynomial block is completed with
    zero-sum and zero-moment constraint rows; one factorization is shared by
    all spatial components.
    """
    x_c = np.atleast_2d(np.asarray(control_points, dtype=float))
    y_c = np.atleast_2d(np.asarray(deformed_points, dtype=float))
    _check_point_arrays(x_c, y_c)
    n_c, d = x_c.shape
    if n_c < d + 1:
        raise MorphBuildError(f"need at least {d + 1} control points in {d}-d")
    if kernel not in RBF_KERNELS:
        raise MorphBuildError(
            f"unknown kernel {kernel!r}; choose from {sorted(RBF_KERNELS)}"
        )
    if radius is None:
        radius = bounding_box_diagonal(x_c)
    if not radius > 0.0:  # also rejects NaN
        raise MorphBuildError("kernel radius must be positive")

    dist = _pairwise_distances(x_c, x_c)
    if np.any(dist[~np.eye(n_c, dtype=bool)] < 1e-14 * max(radius, 1.0)):
        raise MorphBuildError("duplicate control points make the system singular")

    phi = RBF_KERNELS[kernel](dist, radius)
    poly = np.column_stack([np.ones(n_c), x_c])  # 1, x_1 ... x_d
    size = n_c + d + 1
    system = np.zeros((size, size))
    system[:n_c, :n_c] = phi
    system[:n_c, n_c:] = poly
    system[n_c:, :n_c] = poly.T
    rhs = np.zeros((size, d))
    rhs[:n_c, :] = y_c
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise MorphBuildError(
            "singular interpolation system (degenerate control geometry)"
        ) from exc
    gamma = sol[:n_c, :]
    poly_const = sol[n_c, :]
    poly_matrix = sol[n_c + 1 :, :].T
    return RbfMorph(
        kernel=kernel,
        radius=float(radius),
        control_points=x_c,
        weights=gamma,
        poly_const=poly_const,
        poly_matrix=poly_matrix,
    )


def rbf_deform(morph, points):
    """Evaluate the RBF map on a point cloud."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    phi = RBF_KERNELS[morph.kernel](
        _pairwise_distances(points, morph.control_points), morph.radius
    )
    return morph.poly_const + points @ morph.poly_matrix.T + phi @ morph.weights


# ---------------------------------------------------------------------------
# inverse distance weighting


@dataclass
class IdwMorph:
    """Shepard interpolation of control-point displacements."""

    control_points: np.ndarray
    deformed_points: np.ndarray
    exponent: int = 2

    def __post_init__(self):
        self.control_points = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        self.deformed_points = np.atleast_2d(np.asarray(self.deformed_points, dtype=float))
        _check_point_arrays(self.control_points, self.deformed_points)
        if int(self.exponent) < 1:
            raise MorphBuildError("exponent must be a positive integer")
        self.exponent = int(self.exponent)
        dist = _pairwise_distances(self.control_points, self.control_points)
        n_c = self.control_points.shape[0]
        scale = max(bounding_box_diagonal(self.control_points), 1.0)
        if n_c > 1 and dist[~np.eye(n_c, dtype=bool)].min() < 1e-14 * scale:
            raise MorphBuildError("control points must be pairwise distinct")


def idw_weights(morph, points):
    """Normalized inverse-distance weights, one row per evaluation point.

    Returns a C-ordered (n_points, n_controls) array, built in place from
    the distances; the row sums run along its contiguous rows, and
    :func:`idw_deform` applies it as one matrix product, so both round as
    the broadcast formulas do. Points that coincide with a control point
    (within a bounding-box-scaled threshold) take weight one there and zero
    elsewhere.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = _pairwise_distances(points, morph.control_points)
    scale = max(bounding_box_diagonal(morph.control_points), 1.0)
    exact = weights < 1e-14 * scale
    hit_rows = np.flatnonzero(exact.any(axis=1))
    first_hit = np.argmax(exact[hit_rows], axis=1)
    del exact
    # distances become raw weights d^-p: a zero distance gives inf (its row
    # is a hit row), and an undefined one counts as distance 1
    np.copyto(weights, 1.0, where=np.isnan(weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.power(weights, -morph.exponent, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
    weights[hit_rows] = 0.0
    weights[hit_rows, first_hit] = 1.0
    return weights


def idw_deform(morph, points, weights=None):
    """Evaluate the IDW map; ``weights`` may come from :func:`idw_weights`.

    The weights interpolate the control-point displacement field, so regions
    far from every displaced control still move by the blended displacement
    rather than collapsing onto the control positions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if weights is None:
        weights = idw_weights(morph, points)
    return points + weights @ (morph.deformed_points - morph.control_points)


# ---------------------------------------------------------------------------
# file formats


def read_point_cloud(path):
    """Whitespace-delimited text, one point per line."""
    pts = np.loadtxt(path, ndmin=2)
    return pts


def write_point_cloud(path, points):
    """One point per line, coordinates with 17 significant digits."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    line = " ".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line * n % tuple(points.ravel().tolist()))


def _field(descriptor, key, convert):
    """``convert(descriptor[key])``, or a MorphBuildError naming ``key``."""
    if key not in descriptor:
        raise MorphBuildError(f"missing key {key!r}")
    try:
        return convert(descriptor[key])
    except (TypeError, ValueError) as exc:
        raise MorphBuildError(f"{key}: {exc}") from None


def _float_array(value):
    return np.asarray(value, dtype=float)


def _int_tuple(value):
    return tuple(int(k) for k in value)


def _optional_float(value):
    return None if value is None else float(value)


def morph_from_descriptor(descriptor):
    """Build a morph from a parsed JSON descriptor (dict).

    A missing key, or a value that does not convert to the field's type,
    raises :class:`MorphBuildError` naming the key.
    """
    kind = descriptor.get("type")
    if kind == "ffd":
        return FfdLattice(
            origin=_field(descriptor, "origin", _float_array),
            axes=_field(descriptor, "axes", _float_array),
            degrees=_field(descriptor, "degrees", _int_tuple),
            displacements=_field(descriptor, "displacements", _float_array),
        )
    if kind == "rbf":
        fields = {"kernel": "gaussian", "radius": None, **descriptor}
        return rbf_build(
            control_points=_field(fields, "control_points", _float_array),
            deformed_points=_field(fields, "deformed_points", _float_array),
            kernel=_field(fields, "kernel", str),
            radius=_field(fields, "radius", _optional_float),
        )
    if kind == "idw":
        fields = {"exponent": 2, **descriptor}
        return IdwMorph(
            control_points=_field(fields, "control_points", _float_array),
            deformed_points=_field(fields, "deformed_points", _float_array),
            exponent=_field(fields, "exponent", int),
        )
    raise MorphBuildError(f"unknown morph type {kind!r}")


def deform(morph, points):
    """Dispatch deformation over the three morph kinds.

    Raises :class:`MorphBuildError` when the points and the morph differ in
    dimension.
    """
    if isinstance(morph, FfdLattice):
        dim, apply = morph.dim, ffd_deform
    elif isinstance(morph, RbfMorph):
        dim, apply = morph.control_points.shape[1], rbf_deform
    elif isinstance(morph, IdwMorph):
        dim, apply = morph.control_points.shape[1], idw_deform
    else:
        raise TypeError(f"not a morph: {type(morph)!r}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != dim:
        raise MorphBuildError(
            f"the morph is {dim}-d but the points are {points.shape[1]}-d")
    return apply(morph, points)
