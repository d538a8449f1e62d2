"""Dense float64 helpers, a portable deterministic PRNG, and weight initialization.

Arrays are plain numpy ndarrays (row-major, 64-bit floats); matrices are 2-D,
vectors 1-D. Everything here is desk-scale plumbing: correctness and
reproducibility over speed.
"""

from __future__ import annotations

import math

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class ConfigError(ValueError):
    """A configuration value violates its constraints."""


# ---------------------------------------------------------------------------
# SplitMix64 PRNG
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 stream.

    The algorithm is fixed bit-for-bit so that equal seeds reproduce equal
    draw sequences on every platform. Instances are stateful and must not be
    shared across concurrent callers.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform in [0, 1) using the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes two uniform draws."""
        return float(self.normals(1)[0])

    def floats(self, count: int) -> Vector:
        """Vector of uniforms in [0, 1); bit-identical to `count` next_float calls."""
        # In-place steps keep large draws to two arrays at a time.
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        out = z.astype(np.float64)
        out *= 2.0**-53
        return out

    def uniforms(self, count: int, lo: float, hi: float) -> Vector:
        return lo + (hi - lo) * self.floats(count)

    def normals(self, count: int) -> Vector:
        """Vector of standard normals; bit-identical to `count` normal() calls.

        Each value consumes two consecutive uniforms, so normals(a) followed
        by normals(b) draws exactly normals(a + b).
        """
        u = self.floats(2 * count)
        radius = np.log(1.0 - u[0::2])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        turn = 2.0 * np.pi * u[1::2]
        np.cos(turn, out=turn)
        radius *= turn
        return radius


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def zeros(rows: int, cols: int) -> Matrix:
    return np.zeros((rows, cols))


def identity(n: int) -> Matrix:
    return np.eye(n)


def matvec(m: Matrix, v: Vector) -> Vector:
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: {m.shape} incompatible with {v.shape}")
    return m @ v


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} incompatible with {b.shape}")
    return a @ b


def transpose(m: Matrix) -> Matrix:
    return m.T


def dot(a: Vector, b: Vector) -> float:
    if a.shape != b.shape:
        raise ShapeError(f"dot: {a.shape} incompatible with {b.shape}")
    return float(a @ b)


def l2_norm(v: Vector) -> float:
    return float(np.sqrt(v @ v))


def axpy(alpha: float, x: Vector, y: Vector) -> Vector:
    if x.shape != y.shape:
        raise ShapeError(f"axpy: {x.shape} incompatible with {y.shape}")
    return alpha * x + y


# Row-wise forms of the products above. Each gives, row for row, the bits of
# the one-vector product it replaces: numpy runs a stacked matmul as one BLAS
# call per row with the same shapes and strides, whereas `xs @ m.T` or einsum
# would block the sums differently.


def rowwise_matvec(m: Matrix, xs: Matrix) -> Matrix:
    """Row j is `m @ xs[j]`."""
    return np.matmul(m, xs[:, :, None])[:, :, 0]


def rowwise_vecmat(xs: Matrix, m: Matrix) -> Matrix:
    """Row j is `xs[j] @ m`; with a one-column m, also the strided dot `xs[j] @ m[:, 0]`."""
    return np.matmul(xs[:, None, :], m)[:, 0, :]


def rowwise_dot(a: Matrix, b: Matrix) -> Vector:
    """Entry j is `a[j] @ b[j]`."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis, added in row order starting from zero.

    Equal bit for bit to `acc = zeros; for t in terms: acc += t`. numpy adds
    the rows of a C-contiguous stack one after another when each row holds at
    least two entries; rows of one entry it would sum pairwise, so those take
    a running sum instead.
    """
    acc = np.zeros(terms.shape[1:])
    if terms.shape[0] == 0:
        return acc
    if acc.size >= 2:
        return acc + np.add.reduce(np.ascontiguousarray(terms), axis=0)
    return acc + np.cumsum(terms, axis=0)[-1]


def softmax(logits: Vector) -> Vector:
    """Stable softmax: subtract the max before exponentiating."""
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def row_softmax(logits: Matrix) -> Matrix:
    """`softmax` of every row, bit for bit."""
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def sigmoid(x: float) -> float:
    """Numerically stable logistic function; exact 0.5 at x = 0."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def kaiming_uniform(rows: int, cols: int, rng: Rng) -> Matrix:
    """Uniform draws on [-b, b] with b = sqrt(6 / fan_in), fan_in = cols.

    Entries are drawn in row-major order from `rng`.
    """
    if rows < 1 or cols < 1:
        raise ConfigError(f"kaiming_uniform: rows={rows}, cols={cols} must be >= 1")
    bound = math.sqrt(6.0 / cols)
    return rng.uniforms(rows * cols, -bound, bound).reshape(rows, cols)


def check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
