import numpy as np
import pytest

from pfmix.grid import PeriodicGrid1D

from conftest import derivatives, dx1, dx2


def reference_derivative(grid, f, order):
    """One row at a time, written out: the spectral symbol (ik)^p."""
    k = grid.wavenumbers
    symbol = 1j * k if order == 1 else -(k**2)
    return np.fft.irfft(symbol * np.fft.rfft(f), n=grid.n)


class TestBatchedDerivatives:
    @pytest.mark.parametrize("n", [32, 1024])
    def test_mixed_orders_match_row_by_row(self, n, rng):
        grid = PeriodicGrid1D(2 * np.pi, n)
        orders = (2, 1, 1, 2, 1, 2, 2, 1)
        stack = rng.normal(size=(len(orders), n))
        out = derivatives(grid, stack, orders)
        assert out.shape == stack.shape
        for row, order, got in zip(stack, orders, out):
            one = dx1(grid, row) if order == 1 else dx2(grid, row)
            assert np.array_equal(got, one)
            assert np.array_equal(got, reference_derivative(grid, row, order))

    def test_spectral_derivative_of_a_mode(self):
        grid = PeriodicGrid1D(2 * np.pi, 64)
        f = np.sin(3 * grid.x)
        d = derivatives(grid, np.stack([f, f]), (1, 2))
        assert np.allclose(d[0], 3 * np.cos(3 * grid.x), atol=1e-12)
        assert np.allclose(d[1], -9 * f, atol=1e-12)


def test_mode_amplitude_convention():
    grid = PeriodicGrid1D(2 * np.pi, 64)
    assert grid.mode_amplitude(0.3 * np.cos(3 * grid.x), 3) == pytest.approx(0.3)
    assert grid.mode_amplitude(0.3 * np.sin(3 * grid.x), 3) == pytest.approx(-0.3j)
    assert grid.mode_amplitude(0.7 + 0.0 * grid.x, 0) == pytest.approx(0.7)


class TestEquality:
    def test_equal_grids_compare_and_hash_equal(self):
        a, b = PeriodicGrid1D(1.0, 8), PeriodicGrid1D(1.0, 8)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [PeriodicGrid1D(1.0, 16)])
    def test_different_n_or_scheme_differ(self, other):
        grid = PeriodicGrid1D(1.0, 8)
        assert grid != other
        assert hash(grid) != hash(other)
