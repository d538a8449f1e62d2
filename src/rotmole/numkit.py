"""Dense float64 helpers, a portable deterministic PRNG, weight initialization,
and the JSON readers of configs and files (`from_doc`, `from_json`, `read_json`).

Arrays are plain numpy ndarrays (row-major, 64-bit floats); matrices are 2-D,
vectors 1-D. Everything here is desk-scale plumbing: correctness and
reproducibility over speed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray


class ShapeError(ValueError):
    """Operand dimensions do not match."""


class ConfigError(ValueError):
    """A configuration value violates its constraints."""


_KINDS = {int: "a whole number", float: "a finite number", str: "a string"}


def from_doc(cls, doc, where: str = ""):
    """Build the config dataclass `cls` from the JSON object `doc`.

    Field names, defaults and types all come from `cls`. Unknown and missing
    keys are rejected; an int field takes a whole number and never a bool, a
    float field a finite number, and a dataclass field a nested object read
    the same way. `where` is the dotted name of `doc`: every error names the
    dotted field, and range errors raised by `cls.__post_init__` get it as a
    prefix.
    """
    prefix = f"{where}." if where else ""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise ConfigError(f"unknown field '{prefix}{key}'")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, f in fields.items():
        if name in doc:
            values[name] = from_json(hints[name], doc[name], prefix + name)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing field '{prefix}{name}'")
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"{prefix}{e}") from None


def is_finite_number(value) -> bool:
    """True for a JSON number that a float64 holds finitely: not a bool, NaN,
    an infinity or an int past the float range."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def from_json(tp, value, name: str):
    """`value` checked against the field type `tp` (int, float, str, a config
    dataclass, or one of these or None); `name` is the field's dotted name."""
    if dataclasses.is_dataclass(tp):
        return from_doc(tp, value, name)
    options = typing.get_args(tp) or (tp,)
    if value is None and type(None) in options:
        return None
    kind = next(t for t in options if t is not type(None))
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = is_finite_number(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = _KINDS[kind] + (" or null" if type(None) in options else "")
        raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)}")
    return value


def read_json(path, kind: str = "", *, lines: bool = False):
    """The JSON document in the UTF-8 file `path`; with `lines`, the (line
    number, document) of each non-blank line. A file that cannot be read, is
    not UTF-8 or not JSON raises a one-line ConfigError naming "<kind> <path>"."""
    name = f"{kind} {path}" if kind else str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {name}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{name} is not valid UTF-8: {e}")
    if not lines:
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{name} is not valid JSON: {e}")
    docs = []
    for ln, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                docs.append((ln, json.loads(line)))
            except json.JSONDecodeError as e:
                raise ConfigError(f"{name}:{ln}: invalid JSON: {e}")
    return docs


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

    Equal seeds give equal u64 and uniform draws on every platform. The last
    bits of a normal follow numpy's SIMD dispatch of np.log: with its AVX-512
    targets off, about 1.6 in 1000 normals moved by 1-2 ulp. np.cos did not
    move: it runs scalar libm, at 15-23 ns a value against 1.3 ns for np.log,
    and takes about half the time of `normals`; `floats` takes the rest.
    Instances are stateful and must not be shared across concurrent callers.
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
        """Vector of standard normals by Box-Muller.

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


def matvec(m: Matrix, v: Vector) -> Vector:
    if m.ndim != 2 or v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: {m.shape} incompatible with {v.shape}")
    return m.dot(v)


def l2_norm(v: Vector) -> float:
    return math.sqrt(v.dot(v))  # rounds as np.sqrt does: both are IEEE square roots


# Row-wise forms of the one-vector products `m.dot(x)`, `x.dot(m)` and
# `a.dot(b)`. Each gives, row for row, the bits of the one-vector product it
# replaces: numpy runs a stacked matmul as one BLAS call per row with the same
# shapes and strides, whereas `xs @ m.T` or einsum would block the sums
# differently. `.dot` and `@` make the same BLAS call, so they agree, for
# vectors of any stride and C- or F-contiguous matrices (tests/test_numkit.py);
# on a matrix strided on both axes or along its columns, `@` skips BLAS.


def rowwise_matvec(m: Matrix, xs: Matrix) -> Matrix:
    """Row j is `m.dot(xs[j])`."""
    return np.matmul(m, xs[:, :, None])[:, :, 0]


def rowwise_vecmat(xs: Matrix, m: Matrix) -> Matrix:
    """Row j is `xs[j].dot(m)`; with a one-column m, also the strided dot
    `xs[j].dot(m[:, 0])`."""
    return np.matmul(xs[:, None, :], m)[:, 0, :]


def rowwise_dot(a: Matrix, b: Matrix) -> Vector:
    """Entry j is `a[j].dot(b[j])`."""
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
    """Stable softmax: subtract the max before exponentiating.

    `.max()` and `.sum()` run the same reductions as `np.max` and `np.sum`,
    without their Python wrappers.
    """
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


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

