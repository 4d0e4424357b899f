"""The batched segment rasterizer and point binning against a per-item
reference: one segment at a time through ``np.add.at``, one atom at a time
with its own copy of the lower-face tie rule.  The batched kernel must give
the same float64 bytes, which pins the accumulation order and the tie rule."""

import json

import numpy as np
import pytest

from tranship.beckmann import complete_network, grid_network, solve_beckmann
from tranship.cli import _flow_balance_residual, run
from tranship.density import rasterize_plan, rasterize_vector_measure
from tranship.errors import ValidationError
from tranship.geom import Domain, Grid, dist, segment_cell_intervals, vec_norm
from tranship.matchnorm import Matching
from tranship.measures import SignedAtomMeasure, StructuredVectorMeasure
from tranship.mincostflow import ZERO_SUPPLY_RTOL
from tranship.testing import random_balanced_measure


def _reference_cell(grid, point) -> int:
    s = (point - grid.domain.lower) / grid.cell_size
    idx = np.floor(s).astype(int)
    on_lower_face = (s == idx) & (idx > 0)
    idx[on_lower_face] -= 1
    np.clip(idx, 0, np.asarray(grid.shape) - 1, out=idx)
    return int(np.ravel_multi_index(tuple(idx), grid.shape))


def _reference_intervals(grid, a, b):
    """One segment: cut parameters of every crossed grid plane, then the
    midpoint of each nonempty piece binned on its own."""
    delta = b - a
    cuts = [np.array([0.0, 1.0])]
    for k in range(grid.dim):
        if delta[k] == 0.0:
            continue
        planes = grid.domain.lower[k] + grid.cell_size[k] * np.arange(1, grid.shape[k])
        t = (planes - a[k]) / delta[k]
        cuts.append(t[(t > 0.0) & (t < 1.0)])
    ts = np.unique(np.concatenate(cuts))
    frac = np.diff(ts)
    keep = frac > 0.0
    mids = a + (0.5 * (ts[:-1] + ts[1:]))[keep][:, None] * delta
    return np.array([_reference_cell(grid, m) for m in mids], dtype=int), frac[keep]


def _reference_deposit(acc, grid, a, b, mass):
    flat, frac = _reference_intervals(grid, a, b)
    np.add.at(acc, flat, mass * frac)


def _reference_plan(matching, grid):
    acc = np.zeros(grid.n_cells)
    for (i, j), mass in zip(matching.edges, matching.masses):
        source, target = matching.points[i], matching.points[j]
        _reference_deposit(acc, grid, source, target, mass * dist(source, target))
    return acc


def _reference_vector_measure(nu, grid):
    acc = np.zeros(grid.n_cells)
    for a, b, density, length in zip(nu.seg_a, nu.seg_b, nu.seg_density, nu.segment_lengths):
        _reference_deposit(acc, grid, a, b, vec_norm(density) * length)
    tail = np.zeros(grid.n_cells)
    for point, vector in zip(nu.atom_points, nu.atom_vectors):
        tail[_reference_cell(grid, point)] += vec_norm(vector)
    return acc + tail


def _reference_supply(f, grid):
    supply = np.zeros(grid.n_cells)
    for p, m in zip(f.points, f.masses):
        supply[_reference_cell(grid, p)] += m
    supply[np.abs(supply) <= ZERO_SUPPLY_RTOL * f.mass_scale] = 0.0
    return supply


def _random_grid(rng, dim, min_cells=1):
    lower = rng.uniform(-2.0, 1.0, dim)
    while True:
        shape = tuple(int(s) for s in rng.integers(1, 12, dim))
        if max(shape) >= min_cells:
            break
    # some axes have one cell: no interior planes along them
    return Grid(Domain(lower, lower + rng.uniform(0.5, 3.0, dim)), shape)


def _random_points(rng, grid, n):
    """Uniform points with some coordinates on grid planes (boundary planes
    included) and some points on grid corners."""
    lo, hi = grid.domain.lower, grid.domain.upper
    pts = rng.uniform(lo, hi, (n, grid.dim))
    k = rng.integers(0, np.asarray(grid.shape) + 1, (n, grid.dim))
    planes = np.clip(lo + grid.cell_size * k, lo, hi)
    snap = rng.random((n, grid.dim)) < 0.3
    snap[rng.random(n) < 0.15] = True
    return np.where(snap, planes, pts)


def _random_segments(rng, grid, n):
    """Segments mixing general, axis-parallel and zero-length ones."""
    a = _random_points(rng, grid, n)
    b = _random_points(rng, grid, n)
    kind = rng.integers(0, 4, n)
    axis = rng.integers(0, grid.dim, n)
    parallel = kind == 1
    moved = b[parallel, axis[parallel]]
    b[parallel] = a[parallel]
    b[parallel, axis[parallel]] = moved
    b[kind == 2] = a[kind == 2]
    return a, b


@pytest.mark.parametrize("dim", [2, 3])
def test_plan_raster_matches_per_segment_loop(dim):
    rng = np.random.default_rng(6000 + dim)
    for _ in range(40):
        grid = _random_grid(rng, dim)
        a, b = _random_segments(rng, grid, int(rng.integers(1, 40)))
        masses = rng.uniform(0.1, 2.0, len(a))
        k = np.arange(len(a))
        matching = Matching(np.vstack([a, b]), np.column_stack([k, len(a) + k]), masses, 0.0)
        got = rasterize_plan(matching, grid).masses
        assert got.tobytes() == _reference_plan(matching, grid).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_vector_measure_raster_matches_per_item_loop(dim):
    rng = np.random.default_rng(6020 + dim)
    for _ in range(40):
        grid = _random_grid(rng, dim)
        a, b = _random_segments(rng, grid, int(rng.integers(1, 40)))
        moving = np.any(a != b, axis=1)  # vector measures reject zero-length segments
        densities = rng.normal(size=(len(a), dim)) * rng.uniform(0.1, 3.0, (len(a), 1))
        atom_points = _random_points(rng, grid, int(rng.integers(0, 30)))
        atom_vectors = rng.normal(size=atom_points.shape)
        nu = StructuredVectorMeasure(
            dim, atom_points, atom_vectors, a[moving], b[moving], densities[moving], validate=False
        )
        got = rasterize_vector_measure(nu, grid).masses
        assert got.tobytes() == _reference_vector_measure(nu, grid).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_grid_network_supply_matches_per_atom_loop(dim):
    rng = np.random.default_rng(6030 + dim)
    for _ in range(40):
        grid = _random_grid(rng, dim, min_cells=2)
        points = _random_points(rng, grid, int(rng.integers(2, 60)))
        masses = rng.uniform(-1.0, 1.0, len(points))
        masses[-1] = -np.sum(masses[:-1])
        f = SignedAtomMeasure(points, masses)
        net = grid_network(grid.domain, grid.shape, f)
        assert net.supply.tobytes() == _reference_supply(f, grid).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_pieces_match_per_segment_split(dim):
    rng = np.random.default_rng(6010 + dim)
    for _ in range(20):
        grid = _random_grid(rng, dim)
        a, b = _random_segments(rng, grid, int(rng.integers(1, 30)))
        segment, flat, frac = segment_cell_intervals(grid, a, b)
        assert np.all(np.diff(segment) >= 0)
        for i in range(len(a)):
            ref_flat, ref_frac = _reference_intervals(grid, a[i], b[i])
            assert flat[segment == i].tolist() == ref_flat.tolist()
            assert frac[segment == i].tobytes() == ref_frac.tobytes()


def test_cell_indices_tie_rule_and_scalar_case():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (4, 4))
    points = np.array([[0.25, 0.1], [0.26, 0.1], [1.0, 1.0], [0.0, 0.0], [0.5, 0.75]])
    flat = grid.cell_indices(points)
    assert flat.tolist() == [0, 4, 15, 0, 6]
    for p, expected in zip(points, flat):
        assert grid.flat_index(grid.cell_index(p)) == expected


def test_zero_length_segment_is_one_piece():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    segment, flat, frac = segment_cell_intervals(grid, [[0.5, 0.5]], [[0.5, 0.5]])
    assert segment.tolist() == [0]
    assert flat.tolist() == [0]
    assert frac.tolist() == [1.0]


def test_no_segments():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (3, 2))
    segment, flat, frac = segment_cell_intervals(grid, np.zeros((0, 2)), np.zeros((0, 2)))
    assert segment.size == flat.size == frac.size == 0


def test_first_outside_endpoint_is_named():
    grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
    a = np.array([[0.1, 0.1], [0.2, 0.2], [1.5, 0.5]])
    b = np.array([[0.3, 0.3], [0.2, 2.5], [0.5, 0.5]])
    with pytest.raises(ValidationError, match=r"segment endpoint \[0\.2, 2\.5\] outside grid domain"):
        segment_cell_intervals(grid, a, b)


# atoms that cancel inside one cell of a 2x2 grid: their sum is 5.55e-17
CANCELLING_ATOMS = [((0.1, 0.1), 0.1), ((0.12, 0.1), 0.2), ((0.15, 0.1), -0.3)]


def test_grid_network_clears_cancelled_cells():
    f = SignedAtomMeasure.from_atoms(CANCELLING_ATOMS)
    assert float(np.sum(f.masses)) != 0.0
    net = grid_network(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2), f)
    assert net.supply.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_beckmann_grid_accepts_cancelling_atoms(tmp_path, capsys):
    doc = {
        "version": 1,
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "atoms": [{"point": list(p), "mass": m} for p, m in CANCELLING_ATOMS],
    }
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps(doc))
    assert run(["beckmann", str(path), "--grid", "2x2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["values"]["cost"] == 0.0
    assert report["residuals"]["node_balance"] == 0.0


def _reference_balance(net, flow):
    balance = -net.supply.copy()
    for (i, j), v in zip(net.edges, flow.edge_flows):
        balance[i] += v
        balance[j] -= v
    return float(np.max(np.abs(balance))) if balance.size else 0.0


def test_flow_balance_residual_matches_edge_loop():
    rng = np.random.default_rng(6100)
    for trial in range(8):
        f = random_balanced_measure(rng, max_pairs=12)
        if trial % 2:
            net = complete_network(f)
        else:
            net = grid_network(Domain.from_geometry(f.points), (9, 7), f, diagonals=trial % 4 == 0)
        flow = solve_beckmann(net)
        assert _flow_balance_residual(net, flow) == _reference_balance(net, flow)
