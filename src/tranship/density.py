"""Transport densities on regular grids: rasterization and export.

The transport density of a matching is the superposition of arc-length
measures along its transport segments; rasterization clips the segments
against the grid analytically, so total mass equals transport cost up to
roundoff.  One :func:`~tranship.geom.segment_cell_intervals` call cuts all
segments and one :func:`~tranship.geom.bin_sums` adds the pieces in segment
order; points go through :meth:`~tranship.geom.Grid.cell_indices`, the one
binning rule.  Cell fields are resampled in one array pass; sums are float64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .geom import Grid, bin_sums, dists, segment_cell_intervals
from .measures import StructuredVectorMeasure

if TYPE_CHECKING:
    from .matchnorm import Matching

__all__ = ["Grid", "GridDensity", "rasterize_plan", "rasterize_vector_measure", "export"]

_ASCII_RAMP = " .:-=+*#%@"
_SVG_CELL_PX = 16  # side of one cell in the SVG export


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative mass per grid cell (flat C-order array)."""

    grid: Grid
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float).ravel()
        if m.size != self.grid.n_cells:
            raise ValidationError("cell masses do not match the grid size")
        if np.any(m < 0.0):
            raise ValidationError("cell masses must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total(self) -> float:
        return float(np.sum(self.masses))

    def as_array(self) -> np.ndarray:
        return self.masses.reshape(self.grid.shape)


def _segment_masses(grid: Grid, a, b, masses) -> np.ndarray:
    """Spread masses[i] over the cells crossed by [a[i], b[i]], by length
    fraction, adding the pieces in segment order."""
    segment, flat, frac = segment_cell_intervals(grid, a, b)
    return bin_sums(flat, masses[segment] * frac, grid.n_cells)


def rasterize_plan(matching: Matching, grid: Grid) -> GridDensity:
    """Deposit mass * (length of segment inside each cell) for every edge.

    The total equals the matching cost to roundoff.
    """
    a = matching.points[matching.edges[:, 0]]
    b = matching.points[matching.edges[:, 1]]
    masses = matching.masses * dists(a, b)
    return GridDensity(grid=grid, masses=_segment_masses(grid, a, b, masses))


def rasterize_vector_measure(nu: StructuredVectorMeasure, grid: Grid) -> GridDensity:
    """Rasterize the total variation of a structured vector measure.

    Segments deposit |density| * length by clipping, atoms deposit |vector|
    into their containing cell, and cell fields are resampled onto the target
    grid by overlap volume (they must not be finer than the target grid), in
    one array pass.  Atoms and cells accumulate in a separate float64 tail
    that is added to the segment sums at the end, which fixes how the cell
    totals are rounded; the total is the total variation up to roundoff.
    """
    if nu.cells is not None:
        src = nu.cells.grid
        if np.any(src.cell_size < grid.cell_size - 1e-12 * grid.cell_size):
            raise ValidationError("cell field is finer than the target grid")
    # |density| and |vector| per row: distances from the origin
    masses = dists(nu.seg_density, 0.0) * nu.segment_lengths
    acc = _segment_masses(grid, nu.seg_a, nu.seg_b, masses)
    grid.domain.require_inside(nu.atom_points, "vector atom at {} outside the grid domain")
    atom_cells = grid.cell_indices(nu.atom_points)
    tail = bin_sums(atom_cells, dists(nu.atom_vectors, 0.0), grid.n_cells)
    if nu.cells is not None:
        _resample_cells(tail, nu, grid)
    return GridDensity(grid=grid, masses=acc + tail)


def _resample_cells(acc: np.ndarray, nu: StructuredVectorMeasure, grid: Grid):
    """Add |vector| * overlap volume of every nonzero source cell onto `acc`,
    source cells in C order, and each cell's target cells in C order."""
    src = nu.cells.grid
    grid.domain.require_inside(
        np.vstack([src.domain.lower, src.domain.upper]),
        "cell field extends outside the target grid domain",
    )
    norms = dists(nu.cells.vectors, 0.0)
    cells = np.flatnonzero(norms)
    # per nonzero cell and target cell (one array axis per grid axis): the
    # overlap volume and the target's flat index
    vol, target = np.ones(cells.size), np.zeros(cells.size, dtype=int)
    for k, j in enumerate(np.unravel_index(cells, src.shape)):
        # per source interval, the target cells from floor(lo) to ceil(hi) - 1
        cell, base = grid.cell_size[k], grid.domain.lower[k]
        lo = src.domain.lower[k] + np.arange(src.shape[k]) * src.cell_size[k]
        hi = lo + src.cell_size[k]
        i0 = np.maximum(0, np.floor((lo - base) / cell).astype(int))
        i1 = np.minimum(grid.shape[k] - 1, np.ceil((hi - base) / cell).astype(int) - 1)
        idx = i0[:, None] + np.arange(np.max(i1 - i0, initial=0) + 1)
        left = np.maximum(lo[:, None], base + idx * cell)
        right = np.minimum(hi[:, None], base + (idx + 1) * cell)
        w = np.maximum(right - left, 0.0) * (idx <= i1[:, None])
        shape = (cells.size,) + (1,) * k + idx.shape[1:]
        vol = vol[..., None] * w[j].reshape(shape)
        target = target[..., None] * grid.shape[k] + idx[j].reshape(shape)
    hit = vol > 0.0  # a zero volume would add nothing
    np.add.at(acc, target[hit], (norms[cells] * vol.T).T[hit])


def check_format(fmt: str, dim: int):
    """Raise unless `fmt` can be written for a `dim`-d grid: csv takes any
    dimension, every other format a 2-d grid."""
    if fmt != "csv" and dim != 2:
        raise ValidationError(f"{fmt} export requires a 2-d grid")


def export(density: GridDensity, fmt: str) -> bytes:
    """Serialize as csv (any dimension), or svg heat map / ascii ramp (2-d only)."""
    check_format(fmt, density.grid.dim)
    if fmt == "csv":
        return _export_csv(density)
    if fmt == "svg":
        return _export_svg(density)
    if fmt == "ascii":
        return _export_ascii(density)
    raise ValidationError(f"unknown export format {fmt!r}")


def _export_csv(density: GridDensity) -> bytes:
    grid = density.grid
    header = ",".join(["i", "j", "k"][: grid.dim] + ["mass"])
    # itertools.product walks the indices in C order, the order of `masses`
    axes = [[str(i) for i in range(n)] for n in grid.shape]
    cells = map(",".join, itertools.product(*axes))
    lines = [header] + [f"{idx},{mass!r}" for idx, mass in zip(cells, density.masses.tolist())]
    return ("\n".join(lines) + "\n").encode()


def _export_svg(density: GridDensity) -> bytes:
    nx, ny = density.grid.shape
    arr = density.as_array()
    peak = float(arr.max())
    shade = arr / peak if peak != 0.0 else np.zeros_like(arr)
    # np.rint rounds half to even, as Python's round does
    levels = (255 - np.rint(255 * shade)).astype(int).tolist()
    width, height = nx * _SVG_CELL_PX, ny * _SVG_CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i, column in enumerate(levels):
        x = i * _SVG_CELL_PX
        for j, level in enumerate(column):
            y = (ny - 1 - j) * _SVG_CELL_PX
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_SVG_CELL_PX}" height="{_SVG_CELL_PX}" '
                f'fill="rgb({level},{level},{level})"/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def _export_ascii(density: GridDensity) -> bytes:
    nx, ny = density.grid.shape
    arr = density.as_array()
    peak = float(arr.max())
    if peak == 0.0:
        return ("\n".join([" " * nx] * ny) + "\n").encode()
    # astype(int) truncates toward zero, as int() does
    levels = np.minimum(len(_ASCII_RAMP) - 1, (len(_ASCII_RAMP) * arr / peak).astype(int))
    # top line first: row j holds the cells (0, j) .. (nx - 1, j)
    rows = levels.T[::-1].tolist()
    return ("\n".join("".join(_ASCII_RAMP[v] for v in row) for row in rows) + "\n").encode()
