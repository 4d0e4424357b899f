import numpy as np
import pytest

from tranship.density import (
    _ASCII_RAMP,
    GridDensity,
    export,
    rasterize_plan,
    rasterize_vector_measure,
)
from tranship.errors import ValidationError
from tranship.genplan import plan_from_matching, split, to_vector_measure
from tranship.geom import Domain, Grid, dist
from tranship.matchnorm import Matching, minimal_connection
from tranship.measures import CellField, SignedAtomMeasure, StructuredVectorMeasure
from tranship.testing import random_balanced_measure

UNIT_GRID_2x1 = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 1))


def edge_matching(source, target, mass):
    points = np.array([source, target], dtype=float)
    return Matching(points, np.array([[0, 1]]), np.array([mass]), mass * dist(source, target))


class TestRasterizePlan:
    def test_halved_edge(self):
        density = rasterize_plan(edge_matching((0.0, 0.0), (1.0, 0.0), 2.0), UNIT_GRID_2x1)
        assert density.masses.tolist() == [1.0, 1.0]

    def test_edge_within_one_cell(self):
        density = rasterize_plan(edge_matching((0.1, 0.1), (0.4, 0.2), 3.0), UNIT_GRID_2x1)
        expected = 3.0 * dist((0.1, 0.1), (0.4, 0.2))
        assert abs(density.masses[0] - expected) <= 1e-15
        assert density.masses[1] == 0.0

    def test_empty_matching(self):
        empty = Matching(np.zeros((0, 2)), np.zeros((0, 2), dtype=int), np.zeros(0), 0.0)
        density = rasterize_plan(empty, UNIT_GRID_2x1)
        assert density.total == 0.0

    def test_mass_cost_identity(self, rng):
        grid = Grid(Domain([-0.1, -0.1], [1.1, 1.1]), (64, 64))
        for _ in range(20):
            f = random_balanced_measure(rng, max_pairs=10)
            matching = minimal_connection(f)
            density = rasterize_plan(matching, grid)
            assert abs(density.total - matching.cost) <= 1e-12 * max(1.0, matching.cost)

    def test_refinement_preserves_total(self, rng):
        f = random_balanced_measure(rng, max_pairs=8)
        matching = minimal_connection(f)
        dom = Domain([-0.1, -0.1], [1.1, 1.1])
        totals = [
            rasterize_plan(matching, Grid(dom, (n, n))).total for n in (16, 32, 64, 128)
        ]
        for t in totals[1:]:
            assert abs(t - totals[0]) <= 1e-12 * max(1.0, totals[0])

    def test_endpoint_outside_grid_fails(self):
        with pytest.raises(ValidationError):
            rasterize_plan(edge_matching((0.0, 0.0), (2.0, 0.0), 1.0), UNIT_GRID_2x1)


class TestRasterizeVectorMeasure:
    def test_tangential_unit_segment(self):
        nu = StructuredVectorMeasure.build(
            2, segments=[((0.0, 0.5), (1.0, 0.5), (2.0, 0.0))]
        )
        density = rasterize_vector_measure(nu, UNIT_GRID_2x1)
        assert density.masses.tolist() == [1.0, 1.0]

    def test_atom_deposits_into_containing_cell(self):
        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
        nu = StructuredVectorMeasure.build(2, atoms=[((0.25, 0.25), (0.0, 3.0))])
        density = rasterize_vector_measure(nu, grid)
        assert density.masses[grid.flat_index((0, 0))] == 3.0
        assert density.total == 3.0

    def test_zero_measure(self):
        density = rasterize_vector_measure(StructuredVectorMeasure.empty(2), UNIT_GRID_2x1)
        assert density.total == 0.0

    def test_total_equals_variation(self, rng):
        nu = StructuredVectorMeasure.build(
            2,
            atoms=[((0.2, 0.8), (1.0, 1.0))],
            segments=[((0.1, 0.1), (0.9, 0.4), (0.3, -1.2))],
        )
        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (16, 16))
        density = rasterize_vector_measure(nu, grid)
        assert abs(density.total - nu.total_variation) <= 1e-12 * nu.total_variation

    def test_matches_plan_raster_cell_by_cell(self, rng):
        grid = Grid(Domain([-0.1, -0.1], [1.1, 1.1]), (32, 32))
        for _ in range(5):
            f = random_balanced_measure(rng, max_pairs=6)
            matching = minimal_connection(f)
            from_plan = rasterize_plan(matching, grid)
            plan = plan_from_matching(matching)
            _, rays = split(plan)
            nu = to_vector_measure(rays)
            from_nu = rasterize_vector_measure(nu, grid)
            assert np.max(np.abs(from_plan.masses - from_nu.masses)) <= 1e-12 * max(
                1.0, matching.cost
            )

    def test_cell_field_resampled_by_overlap(self):
        coarse = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (1, 1))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=coarse, vectors=np.array([[2.0, 0.0]]))
        )
        density = rasterize_vector_measure(nu, UNIT_GRID_2x1)
        assert np.allclose(density.masses, [1.0, 1.0])
        assert abs(density.total - nu.total_variation) <= 1e-12

    def test_finer_cells_than_grid_rejected(self):
        fine = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (8, 8))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=fine, vectors=np.tile([1.0, 0.0], (64, 1)))
        )
        with pytest.raises(ValidationError):
            rasterize_vector_measure(nu, Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2)))


class TestExport:
    def test_csv_two_rows(self):
        density = GridDensity(grid=UNIT_GRID_2x1, masses=np.array([1.0, 1.0]))
        body = export(density, "csv").decode()
        lines = body.strip().split("\n")
        assert lines[0] == "i,j,mass"
        assert len(lines) == 3
        assert lines[1] == "0,0,1.0"

    def test_zero_density_ascii_blank(self):
        density = GridDensity(grid=UNIT_GRID_2x1, masses=np.zeros(2))
        body = export(density, "ascii").decode()
        assert set(body.strip("\n")) <= {" "}

    def test_svg_shading_scale_invariant(self):
        density = GridDensity(grid=UNIT_GRID_2x1, masses=np.array([0.25, 1.0]))
        scaled = GridDensity(grid=UNIT_GRID_2x1, masses=np.array([1.25, 5.0]))
        assert export(density, "svg") == export(scaled, "svg")

    def test_three_d_csv_only(self):
        grid = Grid(Domain([0.0] * 3, [1.0] * 3), (2, 2, 2))
        density = GridDensity(grid=grid, masses=np.ones(8))
        body = export(density, "csv").decode()
        assert body.splitlines()[0] == "i,j,k,mass"
        with pytest.raises(ValidationError):
            export(density, "svg")
        with pytest.raises(ValidationError):
            export(density, "ascii")

    def test_ascii_renders_ramp(self):
        density = GridDensity(grid=UNIT_GRID_2x1, masses=np.array([0.0, 1.0]))
        body = export(density, "ascii").decode()
        assert body == " @\n"

    def test_bytes_equal_the_cell_loops(self):
        rng = np.random.default_rng(20261018)
        box = Domain([0.0, 0.0], [1.0, 1.0])
        densities = []
        for shape in ((7, 5), (1, 9), (16, 16)):
            n = shape[0] * shape[1]
            sparse = rng.uniform(size=n) * (rng.uniform(size=n) < 0.3)
            for masses in (rng.uniform(size=n), sparse, np.zeros(n)):
                densities.append(GridDensity(grid=Grid(box, shape), masses=masses))
        # shades and levels that fall exactly on a rounding or truncation edge
        ties = np.array([0.0, 0.5, 1.0, 0.25, 0.1, 0.3, 0.7, 1.0 / 255, 0.5 / 255, 1.5 / 255])
        densities.append(GridDensity(grid=Grid(box, (5, 2)), masses=ties))
        for density in densities:
            for fmt, reference in (("csv", csv_loop), ("svg", svg_loop), ("ascii", ascii_loop)):
                assert export(density, fmt) == reference(density), fmt
        grid = Grid(Domain([0.0] * 3, [1.0] * 3), (3, 4, 2))
        density = GridDensity(grid=grid, masses=rng.uniform(size=24))
        assert export(density, "csv") == csv_loop(density)

    def test_negative_masses_rejected(self):
        with pytest.raises(ValidationError):
            GridDensity(grid=UNIT_GRID_2x1, masses=np.array([-1.0, 0.0]))


# The exporters as they were written cell by cell; the exporters must keep
# their bytes.


def csv_loop(density):
    grid = density.grid
    header = ",".join(["i", "j", "k"][: grid.dim] + ["mass"])
    lines = [header]
    arr = density.as_array()
    for multi in np.ndindex(*grid.shape):
        idx = ",".join(str(i) for i in multi)
        lines.append(f"{idx},{float(arr[multi])!r}")
    return ("\n".join(lines) + "\n").encode()


def svg_loop(density, cell_px=16):
    nx, ny = density.grid.shape
    arr = density.as_array()
    peak = float(arr.max())
    width, height = nx * cell_px, ny * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i in range(nx):
        for j in range(ny):
            shade = 0.0 if peak == 0.0 else arr[i, j] / peak
            level = 255 - int(round(255 * shade))
            x = i * cell_px
            y = (ny - 1 - j) * cell_px
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
                f'fill="rgb({level},{level},{level})"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def ascii_loop(density):
    nx, ny = density.grid.shape
    arr = density.as_array()
    peak = float(arr.max())
    lines = []
    for j in range(ny - 1, -1, -1):
        chars = []
        for i in range(nx):
            if peak == 0.0:
                chars.append(" ")
            else:
                level = min(len(_ASCII_RAMP) - 1, int(len(_ASCII_RAMP) * arr[i, j] / peak))
                chars.append(_ASCII_RAMP[level])
        lines.append("".join(chars))
    return ("\n".join(lines) + "\n").encode()
