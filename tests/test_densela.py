"""Tests for the symmetric eigensolver and its typed errors."""

import numpy as np
import pytest

from ergofilt import densela


def test_eigen_diagonal():
    w, v = densela.symmetric_eigen(np.diag([2.0, 1.0, 3.0]))
    assert w == pytest.approx([1.0, 2.0, 3.0])
    # columns pick out the axis of each sorted diagonal entry (up to sign)
    assert np.abs(v) == pytest.approx(np.eye(3)[:, [1, 0, 2]], abs=1e-12)


def test_eigen_two_state_swap():
    w, v = densela.symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert w == pytest.approx([-1.0, 1.0])
    assert v.T @ v == pytest.approx(np.eye(2), abs=1e-12)


def test_eigen_rejects_nonsquare():
    with pytest.raises(densela.DenseLAError):
        densela.symmetric_eigen(np.ones((2, 3)))


def test_eigen_circulant_band_matrix():
    # two-band circulant with weight c on both neighbors has eigenvalues
    # 2 c cos(2 pi k / n); at c = tanh(0.4)/2 the largest is tanh(0.4)
    c = np.tanh(0.4) / 2.0
    m = np.zeros((4, 4))
    for i in range(4):
        m[i, (i - 1) % 4] = c
        m[i, (i + 1) % 4] = c
    w, _ = densela.symmetric_eigen(m)
    assert w[-1] == pytest.approx(np.tanh(0.4), abs=1e-12)
    expected = np.sort(2.0 * c * np.cos(2.0 * np.pi * np.arange(4) / 4.0))
    assert w == pytest.approx(expected, abs=1e-12)


def test_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        base = rng.standard_normal((n, n))
        m = (base + base.T) / 2.0
        w, v = densela.symmetric_eigen(m)
        scale = np.abs(m).max()
        assert np.abs(v @ np.diag(w) @ v.T - m).max() <= 1e-8 * scale
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-8
        assert np.all(np.diff(w) >= -1e-12)


def test_eigen_residual_and_determinism():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((16, 16))
    m = (base + base.T) / 2.0
    w1, v1 = densela.symmetric_eigen(m)
    w2, v2 = densela.symmetric_eigen(m.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)
    residual = np.abs(m @ v1 - v1 * w1[None, :]).max()
    assert residual <= 1e-10 * max(1.0, float(np.abs(m).max()))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_rejects_non_finite(bad):
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(densela.DenseLAError):
        densela.symmetric_eigen(m)
