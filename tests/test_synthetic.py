import numpy as np
import pytest

from fadefilt.synthetic import add_gaussian_blob, translating_plaid


def test_plaid_shape_and_range():
    frames = translating_plaid(5, 32, 48, (0.5, -0.25))
    assert frames.shape == (5, 32, 48)
    assert frames.min() >= 0.0 and frames.max() <= 1.0


def test_plaid_translates_by_velocity():
    # integer velocity: frame k+1 sampled at x equals frame k at x - v
    frames = translating_plaid(3, 40, 40, (1.0, -2.0))
    # frame 1 at (y, x) shows frame 0 at (y - vy, x - vx)
    assert np.allclose(frames[1][5:-5, 5:-5], frames[0][7:-3, 4:-6], atol=1e-12)


def test_plaid_is_deterministic():
    a = translating_plaid(4, 16, 16, (0.3, 0.1))
    b = translating_plaid(4, 16, 16, (0.3, 0.1))
    assert np.array_equal(a, b)


def test_blob_moves_and_brightens():
    base = translating_plaid(6, 64, 64, (0.0, 0.0), amplitude=0.1)
    frames = add_gaussian_blob(base, (2.0, 0.0), (20.0, 32.0), radius=4.0, amplitude=0.5)
    assert frames.shape == base.shape
    assert frames.min() >= 0.0 and frames.max() <= 1.0
    # the brightened spot follows the requested velocity
    for t in (0, 3, 5):
        delta = frames[t] - base[t]
        y, x = np.unravel_index(np.argmax(delta), delta.shape)
        assert x == pytest.approx(20 + 2 * t, abs=1)
        assert y == pytest.approx(32, abs=1)


def test_blob_does_not_mutate_input():
    base = translating_plaid(2, 16, 16, (0.0, 0.0))
    before = base.copy()
    add_gaussian_blob(base, (1.0, 0.0), (8.0, 8.0))
    assert np.array_equal(base, before)
