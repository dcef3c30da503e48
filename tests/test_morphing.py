"""Geometry morphs: Bernstein lattice, RBF system, Shepard weights."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import comb

from morkit import morphing


def _naive_rbf_eval(morph, point):
    """Double-loop evaluation oracle for one point."""
    out = morph.poly_const + morph.poly_matrix @ point
    for gamma, center in zip(morph.weights, morph.control_points):
        r = np.linalg.norm(point - center)
        out = out + gamma * morphing.RBF_KERNELS[morph.kernel](np.array(r),
                                                              morph.radius)
    return out


class TestFfd:
    def test_identity_at_zero_displacement(self):
        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(3, 2),
                                      displacements=np.zeros((4, 3, 2)))
        rng = np.random.default_rng(61)
        points = rng.random((200, 2))
        assert np.abs(morphing.ffd_deform(lattice, points) - points).max() < 1e-12

    def test_bilinear_center_weight(self):
        # degree-1 lattice: every corner weight at the center equals 1/4
        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(1, 1),
                                      displacements=np.zeros((2, 2, 2)))
        weights, inside = morphing.ffd_weights(lattice, np.array([[0.5, 0.5]]))
        assert inside[0]
        assert np.allclose(weights[0], 0.25, atol=1e-14)

    def test_single_control_displacement_moves_points(self):
        disp = np.zeros((2, 2, 2))
        disp[1, 1] = [0.1, 0.0]  # control point at lattice corner (1,1)
        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(1, 1), displacements=disp)
        moved = morphing.ffd_deform(lattice, np.array([[0.5, 0.5]]))
        # bilinear weight 1/4 at the center
        assert np.allclose(moved[0], [0.525, 0.5], atol=1e-14)

    def test_points_outside_lattice_unchanged(self):
        disp = np.full((2, 2, 2), 0.3)
        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(1, 1), displacements=disp)
        outside = np.array([[1.5, 0.5], [-0.2, 0.3]])
        assert np.array_equal(morphing.ffd_deform(lattice, outside), outside)

    def test_affine_lattice_map(self):
        # lattice over [1,3]x[2,4]: same relative deformation as the unit case
        disp = np.zeros((2, 2, 2))
        disp[1, 1] = [0.05, 0.05]
        unit = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                   degrees=(1, 1), displacements=disp)
        shifted = morphing.FfdLattice(origin=[1.0, 2.0], axes=2.0 * np.eye(2),
                                      degrees=(1, 1), displacements=disp)
        a = morphing.ffd_deform(unit, np.array([[0.25, 0.75]]))
        b = morphing.ffd_deform(shifted, np.array([[1.5, 3.5]]))
        assert np.allclose((b[0] - [1.0, 2.0]) / 2.0, a[0], atol=1e-13)

    def test_degenerate_axes_rejected(self):
        with pytest.raises(morphing.MorphBuildError):
            morphing.FfdLattice(origin=[0.0, 0.0],
                                axes=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                degrees=(1, 1), displacements=np.zeros((2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(morphing.MorphBuildError):
            morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                degrees=(2, 2), displacements=np.zeros((2, 2, 2)))

    def test_three_dimensional_lattice(self):
        lattice = morphing.FfdLattice(origin=[0.0, 0.0, 0.0], axes=np.eye(3),
                                      degrees=(1, 1, 1),
                                      displacements=np.zeros((2, 2, 2, 3)))
        pts = np.random.default_rng(62).random((20, 3))
        assert np.abs(morphing.ffd_deform(lattice, pts) - pts).max() < 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_bernstein_weights_partition_of_unity(self, x, y):
        lattice = morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2),
                                      degrees=(3, 3),
                                      displacements=np.zeros((4, 4, 2)))
        weights, inside = morphing.ffd_weights(lattice, np.array([[x, y]]))
        assert inside[0]
        assert abs(weights[0].sum() - 1.0) < 1e-12

    def test_bernstein_weights_match_scipy_comb(self):
        # math.comb is exact; scipy.special.comb's floats equal its rounding
        # up to degree 30
        t = np.linspace(0.0, 1.0, 101)[:, None]
        for degree in range(31):
            k = np.arange(degree + 1)
            ref = comb(degree, k) * t ** k * (1.0 - t) ** (degree - k)
            assert np.array_equal(morphing._bernstein_weights(t[:, 0], degree), ref)


def _fresh_python(code):
    """Standard output of ``code`` run by a new interpreter that imports this morkit."""
    src = os.path.dirname(os.path.dirname(morphing.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy_special():
    # the Bernstein coefficients were morkit's only use of scipy.special
    code = "import sys, morkit, morkit.cli; print('scipy.special' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_package_namespace_holds_only_its_modules():
    # each name has one import path: its module's
    code = ("import morkit; print(' '.join(sorted(n for n in vars(morkit) "
            "if not n.startswith('__')))); print(morkit.fom.fom_solve.__module__)")
    names, module = _fresh_python(code).splitlines()
    assert names.split() == ["active_subspaces", "certification", "fom",
                             "interpolation", "linalg", "morphing", "rb"]
    assert module == "morkit.fom"


class TestRbfKernels:
    def test_gaussian_at_zero(self):
        assert morphing.RBF_KERNELS["gaussian"](np.array(0.0), 2.0) == 1.0

    def test_thin_plate_zero_at_origin_and_radius(self):
        phi = morphing.RBF_KERNELS["thin-plate"]
        assert phi(np.array(0.0), 1.5) == 0.0
        assert abs(phi(np.array(1.5), 1.5)) < 1e-15

    def test_wendland_compact_support(self):
        phi = morphing.RBF_KERNELS["wendland-c2"]
        assert phi(np.array(0.0), 1.0) == 1.0
        assert phi(np.array(1.0), 1.0) == 0.0
        assert phi(np.array(2.5), 1.0) == 0.0

    def test_multiquadric_values(self):
        assert morphing.RBF_KERNELS["multiquadric"](np.array(0.0), 2.0) == 2.0
        assert morphing.RBF_KERNELS["inverse-multiquadric"](np.array(0.0), 2.0) == 0.5


class TestRbf:
    def test_interpolates_control_points(self):
        rng = np.random.default_rng(63)
        ctrl = rng.random((12, 2))
        target = ctrl + 0.05 * rng.standard_normal((12, 2))
        for kernel in morphing.RBF_KERNELS:
            morph = morphing.rbf_build(ctrl, target, kernel=kernel)
            rec = morphing.rbf_deform(morph, ctrl)
            assert np.abs(rec - target).max() < 1e-9, kernel

    def test_identity_at_zero_displacement(self):
        rng = np.random.default_rng(64)
        ctrl = rng.random((10, 2))
        morph = morphing.rbf_build(ctrl, ctrl)
        pts = rng.random((100, 2))
        assert np.abs(morphing.rbf_deform(morph, pts) - pts).max() < 1e-12

    def test_constraint_rows_satisfied(self):
        rng = np.random.default_rng(65)
        ctrl = rng.random((15, 2))
        target = ctrl + 0.1 * rng.standard_normal((15, 2))
        morph = morphing.rbf_build(ctrl, target, kernel="thin-plate")
        # zero-sum and zero-first-moment of the kernel weights per component
        assert np.abs(morph.weights.sum(axis=0)).max() < 1e-9
        assert np.abs(ctrl.T @ morph.weights).max() < 1e-9

    def test_matches_naive_double_loop_oracle(self):
        rng = np.random.default_rng(66)
        ctrl = rng.random((8, 2))
        target = ctrl + 0.05 * rng.standard_normal((8, 2))
        morph = morphing.rbf_build(ctrl, target, kernel="multiquadric", radius=0.7)
        for point in rng.random((5, 2)):
            fast = morphing.rbf_deform(morph, point.reshape(1, -1))[0]
            assert np.abs(fast - _naive_rbf_eval(morph, point)).max() < 1e-11

    def test_exactly_reproduces_affine_maps(self):
        # an affine target displacement is absorbed by the polynomial part
        rng = np.random.default_rng(67)
        ctrl = rng.random((9, 2))
        amat = np.array([[1.1, 0.2], [-0.1, 0.9]])
        shift = np.array([0.3, -0.2])
        morph = morphing.rbf_build(ctrl, ctrl @ amat.T + shift)
        pts = rng.random((50, 2))
        assert np.abs(morphing.rbf_deform(morph, pts) - (pts @ amat.T + shift)).max() < 1e-9

    def test_default_radius_is_bbox_diagonal(self):
        ctrl = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        morph = morphing.rbf_build(ctrl, ctrl)
        assert abs(morph.radius - 5.0) < 1e-14

    def test_duplicate_control_points_rejected(self):
        ctrl = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(morphing.MorphBuildError):
            morphing.rbf_build(ctrl, ctrl)

    def test_unknown_kernel_rejected(self):
        ctrl = np.random.default_rng(68).random((5, 2))
        with pytest.raises(morphing.MorphBuildError):
            morphing.rbf_build(ctrl, ctrl, kernel="cubic")

    def test_too_few_control_points_rejected(self):
        with pytest.raises(morphing.MorphBuildError):
            morphing.rbf_build(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]))


class TestIdw:
    def test_exact_at_control_points(self):
        rng = np.random.default_rng(69)
        ctrl = rng.random((10, 2))
        target = ctrl + 0.1 * rng.standard_normal((10, 2))
        morph = morphing.IdwMorph(ctrl, target)
        assert np.abs(morphing.idw_deform(morph, ctrl) - target).max() < 1e-12

    def test_identity_at_zero_displacement(self):
        rng = np.random.default_rng(70)
        ctrl = rng.random((8, 2))
        morph = morphing.IdwMorph(ctrl, ctrl)
        pts = rng.random((100, 2))
        assert np.abs(morphing.idw_deform(morph, pts) - pts).max() < 1e-12

    def test_partition_of_unity(self):
        rng = np.random.default_rng(71)
        morph = morphing.IdwMorph(rng.random((7, 2)), rng.random((7, 2)))
        weights = morphing.idw_weights(morph, rng.random((200, 2)))
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
        assert weights.min() >= 0.0

    def test_midpoint_symmetry(self):
        # two controls with opposite displacements: the midpoint stays put
        ctrl = np.array([[0.0, 0.0], [1.0, 0.0]])
        target = ctrl + np.array([[0.1, 0.0], [-0.1, 0.0]])
        morph = morphing.IdwMorph(ctrl, target)
        mid = morphing.idw_deform(morph, np.array([[0.5, 0.0]]))
        assert np.abs(mid[0] - [0.5, 0.0]).max() < 1e-14

    def test_exponent_sharpens_locality(self):
        ctrl = np.array([[0.0, 0.0], [1.0, 0.0]])
        target = ctrl + np.array([[0.5, 0.0], [0.0, 0.0]])
        probe = np.array([[0.25, 0.0]])
        soft = morphing.idw_deform(morphing.IdwMorph(ctrl, target, exponent=1), probe)
        sharp = morphing.idw_deform(morphing.IdwMorph(ctrl, target, exponent=6), probe)
        # probe is nearer the displaced control: higher exponent moves it more
        assert sharp[0, 0] > soft[0, 0]

    def test_duplicate_control_points_rejected(self):
        ctrl = np.array([[0.2, 0.2], [0.2, 0.2]])
        with pytest.raises(morphing.MorphBuildError):
            morphing.IdwMorph(ctrl, ctrl)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_weights_partition_of_unity_random(self, seed):
        rng = np.random.default_rng(seed)
        morph = morphing.IdwMorph(rng.random((5, 2)), rng.random((5, 2)))
        weights = morphing.idw_weights(morph, rng.random((20, 2)))
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12


class TestPrecomputedWeights:
    """Weights computed for another cloud or morph are refused, not broadcast."""

    def test_ffd_weights_of_another_cloud_rejected(self):
        lattice = morphing.FfdLattice(origin=[0.25, 0.25], axes=0.5 * np.eye(2),
                                      degrees=(3, 3),
                                      displacements=np.full((4, 4, 2), 0.1))
        points = np.random.default_rng(74).random((500, 2))
        points[0] = [0.5, 0.5]
        inside = morphing.ffd_weights(lattice, points)[1]
        rows_of_all = morphing.ffd_weights(lattice, 0.5 * points + 0.25)[0]
        for weights in (morphing.ffd_weights(lattice, points[:1]),  # mask length
                        (rows_of_all, inside)):  # inside row count
            with pytest.raises(morphing.MorphBuildError, match="do not fit"):
                morphing.ffd_deform(lattice, points, weights)
        other = morphing.FfdLattice(origin=[0.25, 0.25], axes=0.5 * np.eye(2),
                                    degrees=(2, 3), displacements=np.zeros((3, 4, 2)))
        with pytest.raises(morphing.MorphBuildError, match="do not fit"):
            morphing.ffd_deform(lattice, points, morphing.ffd_weights(other, points))
        weights = morphing.ffd_weights(lattice, points)
        assert np.array_equal(morphing.ffd_deform(lattice, points, weights),
                              morphing.ffd_deform(lattice, points))

    def test_idw_weights_of_another_cloud_rejected(self):
        rng = np.random.default_rng(75)
        ctrl = rng.random((10, 2))
        morph = morphing.IdwMorph(ctrl, ctrl + 0.1)
        points = rng.random((500, 2))
        fewer = morphing.IdwMorph(ctrl[:9], ctrl[:9])
        for weights in (morphing.idw_weights(morph, points[:1]),
                        morphing.idw_weights(fewer, points)):
            with pytest.raises(morphing.MorphBuildError, match="do not fit"):
                morphing.idw_deform(morph, points, weights)
        weights = morphing.idw_weights(morph, points)
        assert np.array_equal(morphing.idw_deform(morph, points, weights),
                              morphing.idw_deform(morph, points))


class TestIo:
    def test_point_cloud_round_trip(self, tmp_path):
        pts = np.random.default_rng(72).random((30, 3))
        path = tmp_path / "cloud.txt"
        morphing.write_point_cloud(path, pts)
        loaded = morphing.read_point_cloud(path)
        assert np.array_equal(loaded, pts)

    def test_point_cloud_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(73)
        pts = rng.standard_normal((500, 3))
        pts[0] = [-0.0, 5e-324, 1e300]
        pts[1] = [np.nan, np.inf, -np.inf]
        pts[2] = [3.0, -7.0, 2.0 ** 53]
        for cloud in (pts, pts[:, :2], pts[:0]):
            path = tmp_path / "cloud.txt"
            morphing.write_point_cloud(path, cloud)
            expected = "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                               for row in np.atleast_2d(cloud))
            assert path.read_bytes() == expected.encode("utf-8")

    def test_descriptor_dispatch(self):
        ctrl = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        morph = morphing.morph_from_descriptor(
            {"type": "idw", "control_points": ctrl, "deformed_points": ctrl}
        )
        assert isinstance(morph, morphing.IdwMorph)
        morph = morphing.morph_from_descriptor(
            {"type": "rbf", "control_points": ctrl, "deformed_points": ctrl}
        )
        assert isinstance(morph, morphing.RbfMorph)
        morph = morphing.morph_from_descriptor(
            {"type": "ffd", "origin": [0.0, 0.0], "axes": [[1, 0], [0, 1]],
             "degrees": [1, 1],
             "displacements": np.zeros((2, 2, 2)).tolist()}
        )
        assert isinstance(morph, morphing.FfdLattice)

    def test_unknown_type_rejected(self):
        with pytest.raises(morphing.MorphBuildError):
            morphing.morph_from_descriptor({"type": "spline"})


# ---------------------------------------------------------------------------
# reference evaluation, as first written: (n, m, d) difference arrays, out-of-
# place kernels and dense weight rows. The library evaluates the same
# arithmetic in place, so the weights and the RBF deformation must agree with
# it bit for bit. The IDW and FFD deformations are checked bit for bit against
# the reference weights applied in the library's product form, and within a
# bound against the dense n-row products (TestParentProducts).


def _ref_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff ** 2, axis=2))


def _ref_thin_plate(r, radius):
    q = r / radius
    out = np.zeros_like(q)
    mask = q > 0.0
    out[mask] = q[mask] ** 2 * np.log(q[mask])
    return out


def _ref_wendland_c2(r, radius):
    q = np.clip(1.0 - r / radius, 0.0, None)
    return q ** 4 * (4.0 * r / radius + 1.0)


_REF_KERNELS = {
    "gaussian": lambda r, radius: np.exp(-(r ** 2) / radius),
    "thin-plate": _ref_thin_plate,
    "wendland-c2": _ref_wendland_c2,
    "multiquadric": lambda r, radius: np.sqrt(r ** 2 + radius ** 2),
    "inverse-multiquadric": lambda r, radius: 1.0 / np.sqrt(r ** 2 + radius ** 2),
}


def _ref_rbf_deform(morph, points):
    dist = _ref_distances(points, morph.control_points)
    phi = _REF_KERNELS[morph.kernel](dist, morph.radius)
    return morph.poly_const + points @ morph.poly_matrix.T + phi @ morph.weights


def _ref_idw_weights(morph, points):
    dist = _ref_distances(points, morph.control_points)
    scale = max(morphing.bounding_box_diagonal(morph.control_points), 1.0)
    exact = dist < 1e-14 * scale
    with np.errstate(divide="ignore"):
        raw = np.where(dist > 0.0, dist, 1.0) ** (-morph.exponent)
        raw[dist == 0.0] = np.inf
    weights = np.zeros_like(dist)
    hit_rows = exact.any(axis=1)
    if hit_rows.any():
        first_hit = np.argmax(exact[hit_rows], axis=1)
        weights[np.flatnonzero(hit_rows), first_hit] = 1.0
    free = ~hit_rows
    if free.any():
        weights[free] = raw[free] / raw[free].sum(axis=1, keepdims=True)
    return weights


def _ref_ffd_weights(lattice, points):
    """Dense weight rows for every point, zero outside the lattice, and the mask."""
    local = (points - lattice.origin) @ np.linalg.inv(lattice.axes).T
    inside = np.all((local >= -1e-12) & (local <= 1.0 + 1e-12), axis=1)
    weights = np.zeros((points.shape[0], lattice.displacements[..., 0].size))
    if inside.any():
        w = np.ones((int(inside.sum()), 1))
        for a, deg in enumerate(lattice.degrees):
            t = np.clip(local[inside, a], 0.0, 1.0)[:, None]
            k = np.arange(deg + 1)
            b = comb(deg, k) * t ** k * (1.0 - t) ** (deg - k)
            w = np.einsum("pi,pj->pij", w, b).reshape(w.shape[0], -1)
        weights[inside] = w
    return weights, inside


def _cloud_with_hits(rng, n, ctrl):
    """Random points plus every control point, and near misses of two of them."""
    near = ctrl[:2] + 2e-16  # within IDW's hit threshold, but not equal
    return np.vstack([rng.random((n, ctrl.shape[1])), ctrl, near])


@pytest.mark.parametrize("n", [40, 6000])
@pytest.mark.parametrize("d", [2, 3])
class TestBitwiseReference:
    def test_idw(self, d, n):
        rng = np.random.default_rng(100 + 10 * d + n)
        ctrl = rng.random((30, d))
        morph = morphing.IdwMorph(ctrl, ctrl + 0.05 * rng.standard_normal((30, d)))
        points = _cloud_with_hits(rng, n, ctrl)
        weights = morphing.idw_weights(morph, points)
        expected = _ref_idw_weights(morph, points)
        assert np.array_equal(weights, expected)
        assert weights.T.flags.c_contiguous  # stored control-major
        assert (weights == 1.0).sum() >= len(ctrl) + 2  # the hit rows
        # the library's product form, applied to the reference weights
        delta = morph.deformed_points - morph.control_points
        reference = points + (delta.T @ np.ascontiguousarray(expected.T)).T
        assert np.array_equal(morphing.idw_deform(morph, points), reference)
        assert np.array_equal(morphing.idw_deform(morph, points, weights), reference)

    def test_idw_undefined_distance(self, d, n):
        # a nan coordinate counts as distance 1 to every control, as it always has
        rng = np.random.default_rng(200 + 10 * d + n)
        ctrl = rng.random((12, d))
        morph = morphing.IdwMorph(ctrl, ctrl + 0.1)
        points = rng.random((n, d))
        points[n // 2, 0] = np.nan
        with np.errstate(invalid="ignore"):
            expected = _ref_idw_weights(morph, points)
        assert np.array_equal(morphing.idw_weights(morph, points), expected,
                              equal_nan=True)

    @pytest.mark.parametrize("kernel", sorted(morphing.RBF_KERNELS))
    def test_rbf(self, d, n, kernel):
        rng = np.random.default_rng(300 + 10 * d + n)
        ctrl = rng.random((30, d))
        morph = morphing.rbf_build(ctrl, ctrl + 0.05 * rng.standard_normal((30, d)),
                                   kernel=kernel)
        points = _cloud_with_hits(rng, n, ctrl)
        assert np.array_equal(morphing.rbf_deform(morph, points),
                              _ref_rbf_deform(morph, points))

    def test_ffd(self, d, n):
        rng = np.random.default_rng(400 + 10 * d + n)
        lattice = _random_lattice(rng, (3, 2, 4)[:d])
        points = rng.random((n, d)) * 1.5 - 0.25  # part of the cloud lies outside
        points[0] = lattice.origin  # on the lattice boundary
        dense, inside = _ref_ffd_weights(lattice, points)
        weights = morphing.ffd_weights(lattice, points)
        assert np.array_equal(weights[1], inside)
        assert 0 < inside.sum() < n
        assert np.array_equal(weights[0], dense[inside])
        assert weights[0].flags.c_contiguous
        # the library's product form over the inside rows, with the reference weights
        disp = lattice.displacements.reshape(-1, d)
        expected = points.copy()
        expected[inside] = points[inside] + (dense[inside] @ disp) @ lattice.axes.T
        assert np.array_equal(morphing.ffd_deform(lattice, points), expected)
        assert np.array_equal(morphing.ffd_deform(lattice, points, weights), expected)


def _random_lattice(rng, degrees):
    d = len(degrees)
    axes = 0.7 * np.eye(d) + 0.05 * rng.standard_normal((d, d))
    return morphing.FfdLattice(
        origin=np.full(d, 0.1), axes=axes, degrees=degrees,
        displacements=0.05 * rng.standard_normal(tuple(k + 1 for k in degrees) + (d,)),
    )


def _ulps_of_largest(out):
    """The spacing of doubles at each coordinate's largest magnitude."""
    return np.spacing(np.abs(out).max(axis=0))


@pytest.mark.parametrize("n", [40, 500, 6000, 50_000])
@pytest.mark.parametrize("d", [2, 3])
class TestParentProducts:
    """The online products against the ones they replaced: n x m over all rows.

    Both sum the same m terms per coordinate, in an order the BLAS picks, so
    they may differ in the last bit; some of these probes do. A reordered sum
    of weights (each at most 1, summing to 1) times displacements far smaller
    than the coordinates moves by at most about one unit in the last place of
    the largest coordinate, and adding it to the point rounds once more, so
    the two agree within two such units.
    """

    def test_idw(self, d, n):
        for m in (12, 30, 64, 100):
            rng = np.random.default_rng(1000 * d + n + m)
            ctrl = rng.random((m, d))
            morph = morphing.IdwMorph(ctrl, ctrl + 0.05 * rng.standard_normal((m, d)))
            points = rng.random((n, d)) * 1.5 - 0.25
            weights = morphing.idw_weights(morph, points)
            delta = morph.deformed_points - morph.control_points
            parent = points + np.ascontiguousarray(weights) @ delta
            deformed = morphing.idw_deform(morph, points, weights)
            assert np.all(np.abs(deformed - parent) <= 2 * _ulps_of_largest(parent)), m

    def test_ffd(self, d, n):
        lattices = {2: ((1, 2), (3, 3), (7, 7), (9, 9)),
                    3: ((1, 1, 2), (2, 2, 2), (3, 3, 3), (3, 2, 4))}
        for degrees in lattices[d]:
            rng = np.random.default_rng(2000 * d + n + sum(degrees))
            lattice = _random_lattice(rng, degrees)
            points = rng.random((n, d)) * 1.5 - 0.25
            dense, inside = _ref_ffd_weights(lattice, points)
            disp = lattice.displacements.reshape(-1, d)
            parent = np.where(inside[:, None],
                              points + (dense @ disp) @ lattice.axes.T, points)
            deformed = morphing.ffd_deform(lattice, points)
            assert np.array_equal(deformed[~inside], points[~inside])
            assert np.all(np.abs(deformed - parent) <= 2 * _ulps_of_largest(parent)), degrees


class TestEvaluationMemory:
    """Evaluation holds at most three n x m float arrays at once.

    Broadcasting the point-control differences takes two (n, m, d) arrays
    and peaks near 7 n m doubles at d = 3.
    """

    n, m, d = 20_000, 100, 3

    def _peak_per_nm(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (self.n * self.m * 8)

    @pytest.fixture(scope="class")
    def cloud(self):
        rng = np.random.default_rng(110)
        return rng.random((self.m, self.d)), rng.random((self.n, self.d))

    def test_idw_weights(self, cloud):
        # the result plus one block's distances and scratch array: 1 + 2 *
        # 4096 / n, plus the block's masks, read 1.42; one more block would
        # pass 1.6
        ctrl, points = cloud
        morph = morphing.IdwMorph(ctrl, ctrl)
        assert self._peak_per_nm(morphing.idw_weights, morph, points) <= 1.5

    def test_ffd_weights(self, cloud):
        # a lattice over [0.25, 0.75]^3 holds 12.6% of the cloud: the rows of
        # its 64 controls are 0.126 of n * 64 doubles, and the lattice
        # coordinates and the last tensor product's input add about 0.1; a
        # dense n * 64 array would take 1
        _, points = cloud
        lattice = morphing.FfdLattice(origin=[0.25] * 3, axes=0.5 * np.eye(3),
                                      degrees=(3, 3, 3),
                                      displacements=np.zeros((4, 4, 4, 3)))
        weights, inside = morphing.ffd_weights(lattice, points)
        assert weights.shape == (np.count_nonzero(inside), 64)
        assert 0.12 < inside.mean() < 0.13
        per_n_ctrl = self._peak_per_nm(morphing.ffd_weights, lattice, points) * self.m / 64
        assert per_n_ctrl <= 0.3

    @pytest.mark.parametrize("kernel", sorted(morphing.RBF_KERNELS))
    def test_rbf_deform(self, cloud, kernel):
        ctrl, points = cloud
        morph = morphing.rbf_build(ctrl, ctrl, kernel=kernel)
        assert self._peak_per_nm(morphing.rbf_deform, morph, points) <= 3.0


_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("call, error, message", [
    (lambda: morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(3), degrees=[1, 1],
                                 displacements=np.zeros((2, 2, 2))),
     morphing.MorphBuildError, "axes must be a square matrix matching the origin"),
    (lambda: morphing.FfdLattice(origin=[0.0, 0.0], axes=np.eye(2), degrees=[1],
                                 displacements=np.zeros((2, 2))),
     morphing.MorphBuildError, "one polynomial degree per spatial direction"),
    (lambda: morphing.IdwMorph(_TRIANGLE, _TRIANGLE, exponent=0),
     morphing.MorphBuildError, "exponent must be a positive integer"),
    (lambda: morphing.IdwMorph(_TRIANGLE, _TRIANGLE[:2]),
     morphing.MorphBuildError, "control and deformed point arrays must match"),
    (lambda: morphing.deform({"type": "idw"}, np.zeros((2, 2))),
     TypeError, "not a morph: <class 'dict'>"),
], ids=["ffd-axes", "ffd-degrees", "idw-exponent", "idw-shapes", "not-a-morph"])
def test_input_check_raises(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
