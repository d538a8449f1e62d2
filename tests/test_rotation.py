import math

import numpy as np
import pytest

from rotmole.numkit import ConfigError, Rng, l2_norm
from rotmole.rotation import (
    DEGENERATE_EPS,
    apply_rotation,
    build_plane,
    build_planes,
    decompose_transform,
    rotation_matrix_2d,
    rotation_matrix_r,
)


def test_build_plane_already_orthonormal():
    plane = build_plane(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert not plane.degenerate
    assert np.allclose(plane.e1, [1, 0, 0])
    assert np.allclose(plane.e2, [0, 1, 0])


def test_build_plane_gram_schmidt():
    plane = build_plane(np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert np.allclose(plane.e1, [1, 0, 0])
    assert np.allclose(plane.e2, [0, 1, 0])


def test_build_plane_parallel_is_degenerate():
    plane = build_plane(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))
    assert plane.degenerate


def test_build_plane_zero_input_is_degenerate():
    assert build_plane(np.zeros(3), np.array([1.0, 0.0, 0.0])).degenerate
    assert build_plane(np.array([1.0, 0.0, 0.0]), np.zeros(3)).degenerate


def test_planes_exactly_at_the_threshold_are_degenerate():
    # A plane is degenerate when |u|, or the anchor's residual off u, is at
    # most DEGENERATE_EPS: exactly at it included, one ulp above it not.
    above = np.nextafter(DEGENERATE_EPS, 1.0)
    us = np.array([[DEGENERATE_EPS, 0.0, 0.0], [1.0, 0.0, 0.0], [above, 0.0, 0.0], [1.0, 0.0, 0.0]])
    qs = np.array([[0.0, 1.0, 0.0], [5.0, DEGENERATE_EPS, 0.0], [0.0, 1.0, 0.0], [5.0, above, 0.0]])
    assert l2_norm(us[0]) == DEGENERATE_EPS
    assert l2_norm(qs[1] - (qs[1] @ us[1]) * us[1]) == DEGENERATE_EPS
    expected = [True, True, False, False]
    assert [build_plane(u, q).degenerate for u, q in zip(us, qs)] == expected
    planes = build_planes(us, qs)
    assert planes.u_norm[0] == DEGENERATE_EPS and planes.resid_norm[1] == DEGENERATE_EPS
    assert planes.degenerate.tolist() == expected


def test_build_plane_rejects_dim_one():
    with pytest.raises(ConfigError):
        build_plane(np.array([1.0]), np.array([1.0]))


def test_build_plane_orthonormal_property():
    rng = Rng(31)
    for trial in range(300):
        r = 2 + trial % 7
        plane = build_plane(rng.normals(r), rng.normals(r))
        if plane.degenerate:
            continue
        assert abs(np.linalg.norm(plane.e1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(plane.e2) - 1.0) < 1e-12
        assert abs(float(plane.e1 @ plane.e2)) < 1e-10


def test_rotation_matrix_2d_cases():
    assert np.allclose(rotation_matrix_2d(0.0), np.eye(2), atol=0)
    assert np.allclose(rotation_matrix_2d(math.pi / 2) @ [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(
        rotation_matrix_2d(math.pi / 4) @ [1.0, 1.0], [0.0, math.sqrt(2.0)]
    )


def test_rotation_matrix_r_identity_at_zero():
    plane = build_plane(np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 0.2]))
    assert np.allclose(rotation_matrix_r(plane, 0.0), np.eye(3), atol=1e-15)


def test_rotation_matrix_r_reduces_to_2d():
    plane = build_plane(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for theta in (-2.0, 0.3, 1.7):
        assert np.allclose(
            rotation_matrix_r(plane, theta), rotation_matrix_2d(theta), atol=1e-14
        )


def test_rotation_matrix_r_explicit_3d():
    # quarter turn in the xy-plane of R^3: x -> y, z fixed
    plane = build_plane(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    r = rotation_matrix_r(plane, math.pi / 2)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, expected, atol=1e-15)


def test_rotation_matrix_r_rejects_degenerate():
    with pytest.raises(ValueError):
        rotation_matrix_r(build_plane(np.zeros(3), np.ones(3)), 0.5)


def test_rotation_algebra_random():
    rng = Rng(77)
    for trial in range(400):
        r = 2 + trial % 7
        u, q = rng.normals(r), rng.normals(r)
        theta = rng.uniform(-math.pi, math.pi)
        plane = build_plane(u, q)
        if plane.degenerate:
            continue
        rot = rotation_matrix_r(plane, theta)
        assert np.abs(rot.T @ rot - np.eye(r)).max() < 1e-10
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10
        # fixes the orthogonal complement
        w = rng.normals(r)
        w -= float(w @ plane.e1) * plane.e1 + float(w @ plane.e2) * plane.e2
        assert np.abs(rot @ w - w).max() < 1e-10
        # matrix-free application agrees with the full matrix
        assert np.abs(rot @ u - apply_rotation(u, plane, theta)).max() < 1e-10


def test_rotation_composition():
    rng = Rng(13)
    for _ in range(100):
        u, q = rng.normals(4), rng.normals(4)
        plane = build_plane(u, q)
        a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = rotation_matrix_r(plane, a) @ rotation_matrix_r(plane, b)
        rhs = rotation_matrix_r(plane, a + b)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_apply_rotation_cases():
    u = np.array([1.0, 0.0, 0.0])
    plane = build_plane(u, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(apply_rotation(u, plane, math.pi / 2), [0.0, 1.0, 0.0])
    assert np.array_equal(apply_rotation(u, plane, 0.0), u)
    plane_z = build_plane(u, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(apply_rotation(u, plane_z, math.pi), [-1.0, 0.0, 0.0])


def test_apply_rotation_degenerate_returns_input():
    u = np.array([1.0, 2.0, 3.0])
    plane = build_plane(u, 2.0 * u)  # parallel anchor
    assert plane.degenerate
    assert np.array_equal(apply_rotation(u, plane, 1.234), u)


def test_decompose_axis_aligned():
    scale, angle, _ = decompose_transform(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    assert abs(scale - 2.0) < 1e-12
    assert abs(angle - math.pi / 2) < 1e-12


def test_decompose_identity():
    v = np.array([3.0, 4.0])
    scale, angle, _ = decompose_transform(v, v)
    assert abs(scale - 1.0) < 1e-12
    assert angle == 0.0


def test_decompose_antiparallel():
    u = np.array([1.0, 1.0, 0.0])
    scale, angle, plane = decompose_transform(u, -2.0 * u)
    assert abs(scale - 2.0) < 1e-12
    assert angle == math.pi
    rec = scale * apply_rotation(u, plane, angle)
    assert np.abs(rec - (-2.0 * u)).max() < 1e-10


def test_decompose_rejects_zero_input():
    with pytest.raises(ValueError):
        decompose_transform(np.zeros(3), np.ones(3))


def test_decompose_reconstruction_random():
    rng = Rng(2718)
    for trial in range(1000):
        dim = 2 + trial % 5
        u, v = rng.normals(dim), rng.normals(dim)
        scale, angle, plane = decompose_transform(u, v)
        assert 0.0 <= angle <= math.pi
        rec = scale * apply_rotation(u, plane, angle)
        assert np.abs(rec - v).max() < 1e-10
