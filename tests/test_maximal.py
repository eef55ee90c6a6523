"""Discrete maximal operator and the L log L quasinorm built on it."""

import numpy as np
import pytest

from expcap.grids import build_grid
from expcap.maximal import llnl_norm, maximal_function, maximal_interior

LLNL_CONST_N16 = 1.3333818167412912


def test_dominates_the_field(ks16, rng):
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    M = maximal_interior(f, grid)
    assert np.all(M >= np.abs(f) - 1e-12)


def test_sublinear_and_homogeneous(ks16, rng):
    grid = ks16.grid
    f = rng.standard_normal(grid.n_interior)
    g = rng.standard_normal(grid.n_interior)
    Mf = maximal_interior(f, grid)
    Mg = maximal_interior(g, grid)
    assert np.all(maximal_interior(f + g, grid) <= Mf + Mg + 1e-12)
    assert np.allclose(maximal_interior(-3.0 * f, grid), 3.0 * Mf)


def test_constant_field_saturates(ks16):
    grid = ks16.grid
    M = maximal_interior(np.ones(grid.n_interior), grid)
    assert np.allclose(M, 1.0, atol=1e-12)


def test_llnl_norm_anchor_and_scaling(ks16, rng):
    grid = ks16.grid
    assert abs(llnl_norm(np.ones(grid.n_interior), grid)
               - LLNL_CONST_N16) < 1e-12
    f = rng.standard_normal(grid.n_interior)
    assert llnl_norm(np.zeros(grid.n_interior), grid) == 0.0
    assert llnl_norm(2.0 * f, grid) == pytest.approx(2.0 * llnl_norm(f, grid),
                                                     rel=1e-12)
    # the rho weight never exceeds the Lebesgue one on the unit square
    assert llnl_norm(f, grid, weight="rho") <= llnl_norm(f, grid) + 1e-12
    with pytest.raises(ValueError):
        llnl_norm(f, grid, weight="nope")


def _brute_force_maximal(full, divide=False):
    """Max average of |f| over every square (interval in 1D) inside the
    padded cube that contains each cell, by enumeration.  An average is
    sum * fl(1/s^d), as the cascade takes it, or sum / s^d if `divide`."""
    N = full.shape[0]
    M = full.copy()
    for s in range(2, N + 1):
        for a in np.ndindex(*(N - s + 1,) * full.ndim):
            box = tuple(slice(i, i + s) for i in a)
            total = full[box].sum()
            avg = total / s ** full.ndim if divide else total * (1.0 / s ** full.ndim)
            M[box] = np.maximum(M[box], avg)
    return M


def _padded(grid, f):
    """|f| on the grid's lattice padded by one cell: the cube Q0."""
    m = grid.n + 2
    if grid.ndim == 1:
        full = np.zeros(m + 2)
        full[grid.interior_lattice + 1] = np.abs(f)
        return full
    full = np.zeros((m + 2, m + 2))
    full[grid.interior_lattice // m + 1, grid.interior_lattice % m + 1] = np.abs(f)
    return full


@pytest.mark.parametrize("shape,n", [("square", n) for n in range(3, 9)]
                         + [("square", 12), ("square", 20), ("disk", 8), ("disk", 21),
                            ("interval", 9), ("interval", 33), ("interval", 41)])
def test_cascade_matches_every_square(shape, n, rng):
    # Integer data keep every box sum exact, so the enumeration's averages
    # are the same doubles as the summed-area ones and the maxima must agree
    # bit for bit; Gaussian data check the same up to rounding.  The larger
    # grids run deep cascades whose early sizes are mostly junk anchors
    # between rows of the flat layout; a field of two spikes leaves most
    # true averages small, so a junk anchor read in place of a fenced one
    # would show.  The dyadic field is not integer but its sums are still
    # exact (multiples of 2^-15 below 2^12, 37 bits for the largest cube),
    # and its magnitudes spread over sixteen octaves.  On the same exact
    # sums the product by fl(1/s^d) stays within two ulps of the quotient.
    grid = build_grid(shape, n)
    signed = rng.integers(-9, 10, grid.n_interior).astype(float)
    sparse = signed * (rng.random(grid.n_interior) < 0.3)
    spikes = np.zeros(grid.n_interior)
    spikes[rng.choice(grid.n_interior, 2, replace=False)] = rng.integers(1, 10, 2)
    dyadic = (rng.integers(-2 ** 12, 2 ** 12, grid.n_interior)
              * 2.0 ** -rng.integers(0, 16, grid.n_interior))
    for f in (signed, sparse, spikes, dyadic):
        got = maximal_function(f, grid)
        assert np.array_equal(got, _brute_force_maximal(_padded(grid, f)))
        quotient = _brute_force_maximal(_padded(grid, f), divide=True)
        assert np.all(np.abs(got - quotient) <= 2 * np.spacing(quotient))
    g = rng.standard_normal(grid.n_interior)
    assert np.allclose(maximal_function(g, grid),
                       _brute_force_maximal(_padded(grid, g)),
                       rtol=1e-13, atol=0.0)
