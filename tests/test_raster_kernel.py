"""The batched segment rasterizer, cell-field resampler and point binning
against a per-item reference: one segment at a time through ``np.add.at``,
one atom at a time with its own copy of the lower-face tie rule, and one
source cell at a time (:func:`reference_resample`).  The batched kernels must
give the same float64 bytes, which pins the accumulation order and the tie
rule."""

import json

import numpy as np
import pytest

from tranship.beckmann import complete_network, grid_network, solve_beckmann
from tranship.cli import _flow_balance_residual, run
from tranship.density import rasterize_plan, rasterize_vector_measure
from tranship.errors import ValidationError
from tranship.geom import Domain, Grid, dist, segment_cell_intervals, vec_norm
from tranship.matchnorm import Matching
from tranship.measures import CellField, SignedAtomMeasure, StructuredVectorMeasure
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


def reference_resample(acc, nu, grid):
    """One nonzero source cell at a time: its overlap lengths with the target
    cells from floor(lo) to ceil(hi) - 1 on each axis, their outer product,
    and ``np.add.at`` of |vector| * volume in C order onto the float `acc`."""
    src = nu.cells.grid
    for flat in range(src.n_cells):
        vector = nu.cells.vectors[flat]
        norm = vec_norm(vector)
        if norm == 0.0:
            continue
        multi = np.unravel_index(flat, src.shape)
        lo = src.domain.lower + np.asarray(multi, dtype=float) * src.cell_size
        hi = lo + src.cell_size
        axis_weights = []
        axis_indices = []
        for k in range(grid.dim):
            cell = grid.cell_size[k]
            base = grid.domain.lower[k]
            i0 = max(0, int(np.floor((lo[k] - base) / cell)))
            i1 = min(grid.shape[k] - 1, int(np.ceil((hi[k] - base) / cell)) - 1)
            idx = np.arange(i0, i1 + 1)
            left = np.maximum(lo[k], base + idx * cell)
            right = np.minimum(hi[k], base + (idx + 1) * cell)
            w = np.maximum(right - left, 0.0)
            keep = w > 0.0
            axis_indices.append(idx[keep])
            axis_weights.append(w[keep])
        vol = axis_weights[0]
        for k in range(1, grid.dim):
            vol = np.multiply.outer(vol, axis_weights[k])
        mesh = np.meshgrid(*axis_indices, indexing="ij")
        flat_targets = np.ravel_multi_index([m.ravel() for m in mesh], grid.shape)
        np.add.at(acc, flat_targets, norm * vol.ravel())


def _reference_vector_measure(nu, grid):
    acc = np.zeros(grid.n_cells)
    for a, b, density, length in zip(nu.seg_a, nu.seg_b, nu.seg_density, nu.segment_lengths):
        _reference_deposit(acc, grid, a, b, vec_norm(density) * length)
    tail = np.zeros(grid.n_cells)
    for point, vector in zip(nu.atom_points, nu.atom_vectors):
        tail[_reference_cell(grid, point)] += vec_norm(vector)
    if nu.cells is not None:
        reference_resample(tail, nu, grid)
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


def _random_cell_field(rng, grid):
    """A cell field whose cells are 1 to 3 target cells wide along each axis,
    on the whole target domain or on a box offset inside it (by whole target
    cells or not), with zero-vector cells; sometimes every vector is zero."""
    n = np.asarray(grid.shape)
    if rng.random() < 0.25:
        shape = rng.integers(1, n + 1)
        lower, upper = grid.domain.lower, grid.domain.upper
    else:
        # cell widths and offsets in target cells
        width = np.where(rng.random(grid.dim) < 0.2, 1.0, rng.uniform(1.0, np.minimum(3.0, n)))
        shape = rng.integers(1, np.floor(n / width).astype(int) + 1)
        room = rng.uniform(0.0, np.maximum(n - shape * width, 0.0))
        offset = np.where(rng.random(grid.dim) < 0.5, np.floor(room), room)
        lower = grid.domain.lower + offset * grid.cell_size
        upper = lower + shape * width * grid.cell_size
    vectors = rng.normal(size=(int(np.prod(shape)), grid.dim))
    vectors[rng.random(len(vectors)) < 0.3] = 0.0
    if rng.random() < 0.1:
        vectors[:] = 0.0
    return CellField(Grid(Domain(lower, upper), tuple(shape)), vectors)


def _cell_measure(rng, grid, cells, n_atoms, n_segments):
    """Vector atoms and segments on `grid`, plus the cell field `cells`."""
    a, b = _random_segments(rng, grid, n_segments)
    moving = np.any(a != b, axis=1)  # vector measures reject zero-length segments
    densities = rng.normal(size=a.shape)
    atom_points = _random_points(rng, grid, n_atoms)
    return StructuredVectorMeasure(
        grid.dim, atom_points, rng.normal(size=atom_points.shape),
        a[moving], b[moving], densities[moving], cells=cells, validate=False,
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_cell_field_raster_matches_per_cell_loop(dim):
    rng = np.random.default_rng(6040 + dim)
    for trial in range(80):
        grid = _random_grid(rng, dim)
        cells = _random_cell_field(rng, grid)
        # cells alone, with atoms, with segments, and with both
        n_atoms = int(rng.integers(1, 20)) if trial % 2 else 0
        n_segments = int(rng.integers(1, 20)) if trial % 4 >= 2 else 0
        nu = _cell_measure(rng, grid, cells, n_atoms, n_segments)
        got = rasterize_vector_measure(nu, grid).masses
        assert got.tobytes() == _reference_vector_measure(nu, grid).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_segments", [0, 12], ids=["cells-only", "cells-and-segments"])
def test_cell_field_without_atoms_keeps_its_total_variation(dim, n_segments):
    rng = np.random.default_rng([6050, dim, n_segments])
    for _ in range(30):
        grid = _random_grid(rng, dim)
        nu = _cell_measure(rng, grid, _random_cell_field(rng, grid), 0, n_segments)
        total = rasterize_vector_measure(nu, grid).total
        assert abs(total - nu.total_variation) <= 1e-12 * nu.total_variation


def test_unit_cell_field_is_not_truncated(tmp_path, capsys):
    # the 1x1 field [0.9, 0] on the unit box spreads 0.1 over each of 3x3
    # cells, alone and beside a segment of mass 0.8
    unit = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    cells = {"resolution": [1, 1], "vectors": [[0.9, 0.0]], "domain": unit}
    segment = {"a": [0.1, 0.5], "b": [0.9, 0.5], "density": [1.0, 0.0]}
    for segments, total in (([], 0.9), ([segment], 1.7)):
        doc = {"version": 1, "domain": unit, "cells": cells, "segments": segments}
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(doc))
        assert run(["density", str(path), "--grid", "3x3", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        masses = [float(row.split(",")[-1]) for row in rows]
        assert len(masses) == 9 and abs(sum(masses) - total) <= 1e-12 * total
        assert min(masses) >= 0.1 - 1e-15


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
        assert grid.cell_indices(p) == expected


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
