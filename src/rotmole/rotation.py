"""Single-plane rotations in r dimensions.

A rotation sub-plane is an orthonormal pair (e1, e2) obtained by Gram-Schmidt
from an input vector u and an anchor vector q. Rotations act by the angle
theta inside that plane and as the identity on its orthogonal complement, so
theta = 0 is always the identity map. Planes whose construction is numerically
ill-posed (u near zero, or q near parallel to u) are flagged degenerate and
rotate as the identity.

`build_planes`, `apply_rotations` and `rotation_matrices_2d` are the row-wise
forms used by the batched paths: row for row they give the bits of the
one-vector functions, which stay as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numkit import ConfigError, Matrix, Vector, l2_norm, rowwise_dot


@dataclass(frozen=True)
class RotationPlane:
    """Orthonormal basis of the rotation sub-plane, plus construction byproducts.

    When `degenerate` is true the basis fields are None and any rotation on
    this plane is the identity. `u_norm`, `q_dot_e1` and `resid_norm` are the
    intermediates of the Gram-Schmidt construction; the backward pass reuses
    them instead of recomputing.
    """

    e1: Vector | None
    e2: Vector | None
    degenerate: bool
    u_norm: float = 0.0
    q_dot_e1: float = 0.0
    resid_norm: float = 0.0


class PlanarCoords(NamedTuple):
    c1: float
    c2: float


# A plane whose |u| or anchor residual is at most this is degenerate. Fixed:
# the layer, the task targets and the gradient checker all rely on this value.
DEGENERATE_EPS = 1e-8


def build_plane(u: Vector, q: Vector) -> RotationPlane:
    """Orthonormalize (u, q) into a plane basis: e1 along u, e2 the q residual.

    Returns a degenerate plane when ||u|| <= DEGENERATE_EPS or when q has no
    residual component orthogonal to u (||q - (q.e1)e1|| <= DEGENERATE_EPS).
    """
    if u.shape[0] < 2:
        raise ConfigError(f"build_plane: need dimension >= 2, got {u.shape[0]}")
    u_norm = l2_norm(u)
    if u_norm <= DEGENERATE_EPS:
        return RotationPlane(None, None, True)
    e1 = u / u_norm
    proj = float(q @ e1)
    resid = q - proj * e1
    resid_norm = l2_norm(resid)
    if resid_norm <= DEGENERATE_EPS:
        return RotationPlane(None, None, True, u_norm=u_norm, q_dot_e1=proj)
    return RotationPlane(e1, resid / resid_norm, False, u_norm, proj, resid_norm)


@dataclass(frozen=True)
class PlaneBatch:
    """The planes of many inputs u, each against its anchor q, one row per
    input.

    Fields hold what `build_plane` computes for each row. Rows flagged in
    `degenerate` rotate as the identity; their basis rows are meaningless.
    """

    e1: Matrix  # (m, r)
    e2: Matrix  # (m, r)
    degenerate: np.ndarray  # (m,) bool
    u_norm: Vector
    q_dot_e1: Vector
    resid_norm: Vector


def build_planes(us: Matrix, qs: np.ndarray) -> PlaneBatch:
    """`build_plane(us[j], qs[j])` for every row j, as arrays.

    `qs` holds each row's anchor, shaped like `us`, or is one anchor of
    shape (r,) that every row shares. Degenerate rows are masked before any
    division, so they raise no floating-point warning.
    """
    if us.ndim != 2 or us.shape[1] < 2 or qs.shape not in (us.shape, us.shape[1:]):
        raise ConfigError(
            f"build_planes: need rows of dimension >= 2 and an anchor per row or one "
            f"for all, got {us.shape} and {qs.shape}"
        )
    u_norm = np.sqrt(rowwise_dot(us, us))
    short = u_norm <= DEGENERATE_EPS
    e1 = us / np.where(short, 1.0, u_norm)[:, None]
    proj = np.matmul(qs[..., None, :], e1[:, :, None])[:, 0, 0]  # q @ e1 per row, as build_plane
    resid = qs - proj[:, None] * e1
    resid_norm = np.sqrt(rowwise_dot(resid, resid))
    degenerate = short | (resid_norm <= DEGENERATE_EPS)
    e2 = resid / np.where(degenerate, 1.0, resid_norm)[:, None]
    return PlaneBatch(e1, e2, degenerate, u_norm, proj, resid_norm)


def apply_rotations(us: Matrix, planes: PlaneBatch, cos: Vector, sin: Vector) -> Matrix:
    """`apply_rotation(us[j], plane j, theta_j)` for every row j, given
    cos(theta_j) and sin(theta_j); degenerate rows come back unchanged."""
    turned = cos[:, None] * us + (sin * planes.u_norm)[:, None] * planes.e2
    return np.where(planes.degenerate[:, None], us, turned)


def rotation_matrices_2d(cos: Vector, sin: Vector) -> np.ndarray:
    """Stack of `rotation_matrix_2d(theta_j)`, (m, 2, 2), from cos and sin of each angle."""
    mats = np.empty((cos.shape[0], 2, 2))
    mats[:, 0, 0] = cos
    mats[:, 0, 1] = -sin
    mats[:, 1, 0] = sin
    mats[:, 1, 1] = cos
    return mats


def planar_coords(v: Vector, plane: RotationPlane) -> PlanarCoords:
    """Components of v along (e1, e2)."""
    return PlanarCoords(float(v @ plane.e1), float(v @ plane.e2))


def rotation_matrix_2d(theta: float) -> Matrix:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation_matrix_r(plane: RotationPlane, theta: float) -> Matrix:
    """Full r x r rotation matrix: turns by theta in the plane, fixes its complement.

    R = I + (cos t - 1)(e1 e1^T + e2 e2^T) + sin t (e2 e1^T - e1 e2^T).
    """
    if plane.degenerate:
        raise ValueError("rotation_matrix_r: degenerate plane has no basis")
    e1, e2 = plane.e1, plane.e2
    c, s = math.cos(theta), math.sin(theta)
    r = np.eye(e1.shape[0])
    r += (c - 1.0) * (np.outer(e1, e1) + np.outer(e2, e2))
    r += s * (np.outer(e2, e1) - np.outer(e1, e2))
    return r


def apply_rotation(u: Vector, plane: RotationPlane, theta: float) -> Vector:
    """Rotate u by theta in its own plane without forming the matrix.

    Valid when the plane was built from this u (so e1 = u/||u||), in which case
    R u = cos(theta) u + sin(theta) ||u|| e2. Degenerate planes return u.
    """
    if plane.degenerate:
        return u
    return math.cos(theta) * u + (math.sin(theta) * plane.u_norm) * plane.e2


def _orthogonal_unit(e1: Vector) -> Vector:
    """Some unit vector orthogonal to e1 (Gram-Schmidt of the flattest axis)."""
    axis = int(np.argmin(np.abs(e1)))
    v = np.zeros_like(e1)
    v[axis] = 1.0
    v = v - float(v @ e1) * e1
    return v / l2_norm(v)


def decompose_transform(u: Vector, v: Vector) -> tuple[float, float, RotationPlane]:
    """Split the map u -> v into (scale, in-plane angle, plane).

    scale * apply_rotation(u, plane, angle) reconstructs v. The angle sign
    comes from two-argument arctangent over the planar coordinates, so the
    result lies in (-pi, pi]. Anti-parallel inputs get angle pi on an
    arbitrary plane through u.
    """
    nu, nv = l2_norm(u), l2_norm(v)
    if nu <= DEGENERATE_EPS or nv <= DEGENERATE_EPS:
        raise ValueError("decompose_transform: inputs must have nonzero length")
    plane = build_plane(u, v)
    if plane.degenerate:
        # v is (anti-)parallel to u: pure scaling, or scaling plus a half turn.
        e1 = u / nu
        if float(v @ e1) > 0.0:
            return nv / nu, 0.0, plane
        e2 = _orthogonal_unit(e1)
        half_turn = RotationPlane(e1, e2, False, u_norm=nu, q_dot_e1=float(v @ e1))
        return nv / nu, math.pi, half_turn
    u_p = planar_coords(u, plane)
    v_p = planar_coords(v, plane)
    theta_u = math.atan2(u_p.c2, u_p.c1)
    theta_v = math.atan2(v_p.c2, v_p.c1)
    angle = theta_v - theta_u
    if angle <= -math.pi:
        angle += 2.0 * math.pi
    elif angle > math.pi:
        angle -= 2.0 * math.pi
    scale = math.hypot(v_p.c1, v_p.c2) / math.hypot(u_p.c1, u_p.c2)
    return scale, angle, plane
