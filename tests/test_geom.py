import numpy as np
import pytest

from tranship.errors import ValidationError
from tranship.geom import (
    Domain,
    Grid,
    dist,
    dists,
    gauss_legendre,
    ordered_sum,
    segment_cell_intervals,
    segment_quadrature,
)


def test_ordered_sum_has_the_bits_of_a_left_to_right_loop():
    rng = np.random.default_rng(17)
    terms = rng.uniform(0.0, 1.0, 40) * 10.0 ** rng.integers(-6, 6, 40)
    loop = 0.0
    for t in terms.tolist():
        loop += t
    assert ordered_sum(terms) == loop and type(ordered_sum(terms)) is float
    # np.sum adds more than 8 terms pairwise, which rounds differently here
    assert float(np.sum(terms)) != loop
    assert ordered_sum([]) == 0.0 and ordered_sum([2.5]) == 2.5


def test_domain_requires_strict_box():
    with pytest.raises(ValidationError):
        Domain([0.0, 0.0], [1.0, 0.0])


def test_domain_from_geometry_pads_degenerate_axes():
    dom = Domain.from_geometry(np.array([[0.0, 0.5], [1.0, 0.5]]))
    assert dom.contains([0.0, 0.5]) and dom.contains([1.0, 0.5])
    assert dom.lower[1] < 0.5 < dom.upper[1]


def test_cell_index_boundary_ties_go_low():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (4, 4))
    # the first point lies exactly on the 0/1 boundary
    flat = grid.cell_indices([[0.25, 0.1], [0.26, 0.1], [1.0, 1.0], [0.0, 0.0]])
    assert flat.tolist() == np.ravel_multi_index(([0, 1, 3, 0], [0, 0, 3, 0]), grid.shape).tolist()


def test_grid_centers_order_is_c_major():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    centers = grid.centers()
    assert np.allclose(centers[0], [0.25, 0.25])
    assert np.allclose(centers[1], [0.25, 0.75])  # axis 0 major
    assert np.ravel_multi_index((1, 0), grid.shape) == 2


def test_gauss_legendre_degree_exactness():
    # 8 nodes integrate x^15 on [-1,1] exactly (odd: zero) and x^14 to roundoff
    nodes, weights = gauss_legendre(8)
    assert abs(np.sum(weights * nodes**15)) < 1e-14
    exact = 2.0 / 15.0
    assert abs(np.sum(weights * nodes**14) - exact) < 1e-14


def test_segment_quadrature_weights_sum_to_length(rng):
    for _ in range(20):
        a = rng.uniform(-1, 1, size=2)
        b = rng.uniform(-1, 1, size=2)
        if dist(a, b) == 0.0:
            continue
        _, w = segment_quadrature(a, b)
        assert abs(w.sum() - dist(a, b)) < 1e-13


def test_clipping_fractions_sum_to_one(rng):
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (16, 16))
    for _ in range(100):
        a = rng.uniform(0, 1, size=2)
        b = rng.uniform(0, 1, size=2)
        segment, flat, frac = segment_cell_intervals(grid, a[None], b[None])
        assert np.all(segment == 0)
        assert abs(frac.sum() - 1.0) <= 1e-12
        assert np.all(frac > 0)
        assert np.all((flat >= 0) & (flat < grid.n_cells))


def test_clipping_on_a_cell_face_goes_to_lower_cell():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    _, flat, frac = segment_cell_intervals(grid, [[0.1, 0.5]], [[0.4, 0.5]])
    # runs along the j=0/1 face: assigned to j=0
    assert flat.tolist() == [np.ravel_multi_index((0, 0), grid.shape)]
    assert abs(frac.sum() - 1.0) <= 1e-15


def test_clipping_rejects_outside_endpoint():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    with pytest.raises(ValidationError):
        segment_cell_intervals(grid, [[0.5, 0.5]], [[1.5, 0.5]])


def _reference_dist(a, b) -> float:
    d = a - b
    return np.sqrt(np.dot(d, d))


@pytest.mark.parametrize("dim", [2, 3])
def test_dists_is_bit_identical_to_per_pair_dot(dim):
    # spread magnitudes so that summation order would show in the last bit
    rng = np.random.default_rng(20 + dim)
    a = rng.uniform(-1.0, 1.0, (40, dim)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
    b = rng.uniform(-1.0, 1.0, (30, dim)) * 10.0 ** rng.uniform(-3, 3, (30, 1))
    expected = np.array([[_reference_dist(p, q) for q in b] for p in a])
    all_pairs = dists(a[:, None], b[None])
    assert all_pairs.shape == (40, 30)
    assert np.array_equal(all_pairs, expected)
    assert np.array_equal(dists(a[:30], b), np.diag(expected))
    for i in range(30):
        assert dist(a[i], b[i]) == expected[i, i]
        assert dists(a[i], b[i]) == expected[i, i]


def test_dists_shapes():
    assert dists(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
    assert dists([3.0, 4.0], np.zeros((5, 2))).tolist() == [5.0] * 5
    assert isinstance(dist([0.0, 0.0], [3.0, 4.0]), float)
