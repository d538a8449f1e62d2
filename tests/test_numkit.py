import math

import numpy as np
import pytest

from rotmole.adapter import AdapterConfig, mlp_hidden_dim
from rotmole.numkit import (
    ConfigError,
    Rng,
    ShapeError,
    kaiming_uniform,
    l2_norm,
    matvec,
    rowwise_dot,
    rowwise_matvec,
    rowwise_vecmat,
    sigmoid,
    softmax,
    sum_rows,
)


def test_rng_same_seed_identical():
    a = Rng(12345)
    b = Rng(12345)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_rng_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_rng_state_advances_by_fixed_increment():
    # SplitMix64 is counter-based: draw k is mix(seed + k * gamma), so skipping
    # ahead via the vector path must land on the same stream.
    rng = Rng(999)
    skipped = rng.floats(10)
    tail = rng.next_float()
    rng2 = Rng(999)
    expected = [rng2.next_float() for _ in range(11)]
    assert list(skipped) == expected[:10]
    assert tail == expected[10]


def test_rng_float_range():
    rng = Rng(42)
    vals = rng.floats(10_000)
    assert np.all(vals >= 0.0) and np.all(vals < 1.0)


def test_rng_normals_match_scalar_path():
    a, b = Rng(7), Rng(7)
    vec = a.normals(10_000)
    scalars = np.array([b.normals(1)[0] for _ in range(10_000)])
    assert np.array_equal(vec, scalars)


def test_rng_normals_split_draws_equal_one_draw():
    one = Rng(8)
    whole = one.normals(1000)
    after = one.next_u64()
    for a, b in ((1, 999), (17, 983), (500, 500)):
        rng = Rng(8)
        parts = np.concatenate([rng.normals(a), rng.normals(b)])
        assert np.array_equal(parts, whole)
        assert rng.next_u64() == after


def test_sum_rows_adds_in_row_order():
    rng = Rng(9)
    for shape in ((100, 1), (100, 2), (40, 3, 5), (64, 16, 1), (70, 1, 1), (0, 3)):
        terms = rng.normals(int(np.prod(shape))).reshape(shape) * 10.0 ** rng.normals(1)[0]
        acc = np.zeros(shape[1:])
        for t in terms:
            acc += t
        assert np.array_equal(sum_rows(terms), acc), shape


def test_rng_uniform_bounds():
    rng = Rng(3)
    vals = rng.uniforms(1000, -2.5, 0.5)
    assert np.all(vals >= -2.5) and np.all(vals < 0.5)


def test_matvec_identity():
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(matvec(np.eye(3), v), v)


def test_matvec_zero_matrix():
    assert np.array_equal(matvec(np.zeros((2, 3)), np.ones(3)), np.zeros(2))


def test_matvec_hand_case():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matvec(m, np.array([1.0, 1.0])), np.array([3.0, 7.0]))


def test_matvec_shape_mismatch():
    with pytest.raises(ShapeError):
        matvec(np.zeros((2, 3)), np.ones(2))


# The per-sample path writes its one-vector products as `.dot`, the batched
# path as the `rowwise_*` forms, and both must give the bits of `@`. They do
# for vectors of any stride and for C- or F-contiguous matrices. On a matrix
# strided on both axes, or along its columns (`m[:, ::2]`), `@` runs numpy's
# own loop, not BLAS, and may sum in another order. So the tests below cover
# C and F order, which is all the package makes (test_trainer.py checks
# that), with vectors of stride 1 and 2.
DOT_N = 8  # experts, as at wide-train


def assert_same_bits(*values):
    first = np.asarray(values[0]).view(np.uint64)
    for value in values[1:]:
        assert np.array_equal(np.asarray(value).view(np.uint64), first)


def strided_rows(rng, count, size, stride):
    """`count` vectors of `size` normals, each `stride` entries apart."""
    return rng.normals(count * size * stride).reshape(count, size * stride)[:, ::stride]


LAYOUTS = pytest.mark.parametrize(
    "d, r, order", [(d, r, o) for d in (2, 16, 32, 256) for r in (2, 3, 4) for o in "CF"]
)


@LAYOUTS
def test_dot_matrix_vector_bits_match_matmul_and_rowwise(d, r, order):
    rng = Rng(d * 10 + r)
    # A x, B u, W0 x and a 2-D rotation of u
    for rows, cols in ((r, d), (d, r), (d, d), (2, 2)):
        m = np.asarray(rng.normals(rows * cols).reshape(rows, cols), order=order)
        for stride in (1, 2):
            xs = strided_rows(rng, 3, cols, stride)
            for x, row in zip(xs, rowwise_matvec(m, xs)):
                assert_same_bits(m.dot(x), m @ x, matvec(m, x), row)


@LAYOUTS
def test_dot_vector_matrix_bits_match_matmul_and_rowwise(d, r, order):
    rng = Rng(d * 10 + r)
    h = mlp_hidden_dim(AdapterConfig(d=d, r=r, n=DOT_N, k=2))
    # x w_g, x mlp_w1 and hidden mlp_w2
    for rows, cols in ((d, DOT_N), (d, h), (h, DOT_N)):
        m = np.asarray(rng.normals(rows * cols).reshape(rows, cols), order=order)
        for stride in (1, 2):
            xs = strided_rows(rng, 3, rows, stride)
            for x, row in zip(xs, rowwise_vecmat(xs, m)):
                assert_same_bits(x.dot(m), x @ m, row)


@LAYOUTS
def test_dot_vector_vector_bits_match_matmul_and_rowwise(d, r, order):
    rng = Rng(d * 10 + r)
    for size in (r, d):
        for stride in (1, 2):
            a, b = strided_rows(rng, 3, size, stride), strided_rows(rng, 3, size, stride)
            for u, v, entry in zip(a, b, rowwise_dot(a, b)):
                assert_same_bits(u.dot(v), u @ v, entry)
    # the angle-gate logit: x against the column w_theta[:, i], strided in C order
    w_theta = np.asarray(rng.normals(d * DOT_N).reshape(d, DOT_N), order=order)
    xs = strided_rows(rng, 3, d, 1)
    for i in range(DOT_N):
        for x, entry in zip(xs, rowwise_vecmat(xs, w_theta[:, i : i + 1])[:, 0]):
            assert_same_bits(x.dot(w_theta[:, i]), x @ w_theta[:, i], entry)


def test_l2_norm_zero_iff_zero_vector():
    assert l2_norm(np.zeros(4)) == 0.0
    rng = Rng(5)
    for _ in range(50):
        v = rng.normals(4)
        assert l2_norm(v) > 0.0


def test_softmax_uniform():
    out = softmax(np.zeros(3))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_saturation_no_overflow():
    out = softmax(np.array([1000.0, 0.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0] - 1.0) < 1e-12


def test_softmax_hand_case():
    out = softmax(np.array([1.0, 2.0]))
    e = math.exp(1.0)
    assert abs(out[0] - 1 / (1 + e)) < 1e-12
    assert abs(out[1] - e / (1 + e)) < 1e-12


def test_softmax_sums_to_one_large_dim():
    rng = Rng(17)
    for _ in range(5):
        logits = rng.uniforms(10_000, -300.0, 300.0)
        assert abs(float(softmax(logits).sum()) - 1.0) < 1e-12


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(math.log(3.0)) - 0.75) < 1e-15
    assert 0.0 < sigmoid(-50.0) < 1e-20
    assert sigmoid(-1000.0) >= 0.0  # no underflow exception


def test_kaiming_bound():
    # fan_in = 6 gives b = 1, so every entry lies in [-1, 1]
    m = kaiming_uniform(1, 6, Rng(11))
    assert np.all(np.abs(m) <= 1.0)


def test_kaiming_deterministic():
    assert np.array_equal(kaiming_uniform(5, 7, Rng(3)), kaiming_uniform(5, 7, Rng(3)))


def test_kaiming_mean_statistic():
    # mean of U[-b, b] is 0 with standard error b / sqrt(3 N)
    sample = kaiming_uniform(100_000, 6, Rng(1234))
    stderr = 1.0 / math.sqrt(3.0 * sample.size)  # bound is 1 for fan_in = 6
    assert abs(float(sample.mean())) < 3.0 * stderr


def test_kaiming_rejects_bad_shape():
    with pytest.raises(ConfigError):
        kaiming_uniform(0, 3, Rng(1))
