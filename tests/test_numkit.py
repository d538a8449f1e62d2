import math

import numpy as np
import pytest

from rotmole.numkit import (
    ConfigError,
    Rng,
    ShapeError,
    kaiming_uniform,
    l2_norm,
    matvec,
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
