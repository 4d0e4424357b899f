"""Points, boxes, regular grids and quadrature helpers.

Every distance in the package comes from :func:`dists`, the single source of
truth: :func:`dist` is its scalar case, and all-pairs or row-wise distances
are the same kernel broadcast over leading axes.  Values compared for exact
equality elsewhere (oracle tests, conservation checks) are therefore
computed bit for bit the same way, whichever shape asked for them.
Likewise :meth:`Grid.cell_indices` is the one binning rule (a point on a
cell face goes to the lower-index cell); :func:`segment_cell_intervals`
bins through it.  Containment has one rule too: a point lies in a
:class:`Domain` when it is inside the box padded by
``GEOMETRY_RTOL * max(extent, 1)`` per axis.  Documents, grids, rasterizers
and cell-field resampling all check through :meth:`Domain.require_inside`
(:meth:`Domain.contains` is its boolean form), so whatever a document
accepts a grid accepts too, binned into the boundary cell.
:func:`bin_sums` is the one binned sum, always float64.  :func:`row_blocks`
splits a row-wise kernel into blocks of ``_BLOCK_BYTES``; :func:`pair_costs`,
the one sources-by-sinks cost build, :func:`c_transform`, the one
c-transform, the cell pairing of :func:`~tranship.measures.pair` and the
modulus check of :func:`~tranship.sharpspace.verify_modulus_bound` run
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# geometry may lie this far outside the domain, relative to max(extent, 1)
# per axis, and still count as inside; grids bin such points into the
# boundary cell
GEOMETRY_RTOL = 1e-12
# Domain.from_geometry pads the bounding box by this share of its extent per side
_GEOMETRY_PAD = 0.05
# Gauss-Legendre nodes per segment in segment_quadrature
_SEGMENT_NODES = 8

__all__ = [
    "GEOMETRY_RTOL",
    "as_point",
    "bin_sums",
    "c_transform",
    "dist",
    "dists",
    "ordered_sum",
    "pair_costs",
    "row_blocks",
    "vec_norm",
    "Domain",
    "Grid",
    "gauss_legendre",
    "segment_quadrature",
    "segment_cell_intervals",
]


def as_point(coords) -> np.ndarray:
    """Coerce to an immutable float64 coordinate array."""
    p = np.array(coords, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(f"point must be a 1-d coordinate sequence, got {coords!r}")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"point has non-finite coordinates: {coords!r}")
    p.setflags(write=False)
    return p


def vec_norm(v) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.dot(v, v)))


def dists(a, b) -> np.ndarray:
    """Euclidean distances along the last axis, broadcasting the leading axes.

    ``dists(A[:, None], B[None])`` is the all-pairs matrix and ``dists(A, B)``
    the row-wise distances.  ``np.vecdot`` runs the same BLAS dot as
    ``np.dot``, so every entry equals ``sqrt(dot(a - b, a - b))`` exactly;
    ``(d * d).sum(-1)`` would round differently on some pairs.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.sqrt(np.vecdot(d, d))


def dist(a, b) -> float:
    """Euclidean distance between two points: the scalar case of :func:`dists`."""
    return float(dists(a, b))


# bytes of the arrays of one block of a row-wise kernel (:func:`row_blocks`)
_BLOCK_BYTES = 1 << 22


def row_blocks(n_rows: int, row_bytes: int):
    """Slices covering ``range(n_rows)`` in order, each of as many rows as
    fit in ``_BLOCK_BYTES`` at `row_bytes` per row (at least one).  A kernel
    that computes each row on its own keeps its bits whatever the block."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(start, start + rows) for start in range(0, n_rows, rows)]


def pair_costs(sources, sinks, metric=dists, out=None) -> np.ndarray:
    """The (sources, sinks) matrix of ``metric(x, t)`` over the rows x of
    `sources` and t of `sinks`, with `metric` broadcasting like
    :func:`dists`, in :func:`row_blocks` whose (rows, sinks, dim) arrays take
    ``_BLOCK_BYTES``; written into `out` when given."""
    if out is None:
        out = np.empty((len(sources), len(sinks)))
    if len(sinks):
        for rows in row_blocks(len(sources), 8 * sinks.size):
            out[rows] = metric(sources[rows][:, None], sinks[None])
    return out


def c_transform(points, sinks, values, metric=dists) -> np.ndarray:
    """``phi(x) = min_t (values_t + metric(x, t))`` at the rows x of `points`
    over the rows t of `sinks` (0 when there are none), with `metric`
    broadcasting like :func:`dists`, in :func:`row_blocks` whose
    (rows, sinks, dim) arrays take ``_BLOCK_BYTES``."""
    phi = np.zeros(len(points))
    if len(sinks):
        for rows in row_blocks(len(points), 8 * sinks.size):
            phi[rows] = np.min(metric(points[rows][:, None], sinks[None]) + values, axis=1)
    return phi


def bin_sums(bins, weights, n: int) -> np.ndarray:
    """Float64 sums of `weights` per bin in ``range(n)``, each bin's weights
    added in input order from 0.0.  ``np.bincount`` returns int64 zeros when
    there is nothing to bin; this returns float64 zeros."""
    return np.bincount(bins, weights=weights, minlength=n).astype(float, copy=False)


def ordered_sum(terms) -> float:
    """Sum of `terms` added left to right from 0.0.

    ``np.cumsum`` adds strictly in order, so its last entry plus 0.0 has the
    bits of the loop ``total = 0.0; for t in terms: total += t`` (the 0.0
    turns an all -0.0 sum into +0.0, as the loop's start does); ``np.sum``
    adds pairwise and rounds differently on longer inputs.
    """
    terms = np.asarray(terms, dtype=float)
    return float(np.cumsum(terms)[-1]) + 0.0 if terms.size else 0.0


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box containing all geometry of a problem instance."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValidationError("domain corners have mismatched dimensions")
        if self.dim not in (2, 3):
            raise ValidationError(f"domain dimension must be 2 or 3, got {self.dim}")
        if not np.all(self.lower < self.upper):
            raise ValidationError("domain requires lower < upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def extent(self) -> np.ndarray:
        return self.upper - self.lower

    def _inside(self, points) -> np.ndarray:
        """Row mask of `points` as an (n, dim) array: inside the box padded by
        ``GEOMETRY_RTOL * max(extent, 1)`` per axis."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        pad = GEOMETRY_RTOL * np.maximum(self.extent, 1.0)
        return np.all((pts >= self.lower - pad) & (pts <= self.upper + pad), axis=1)

    def contains(self, points) -> bool:
        """True when every point (last axis of `points`) lies in the domain."""
        return bool(np.all(self._inside(points)))

    def require_inside(self, points, message: str):
        """Raise ValidationError(message.format(p)) for the first point p
        outside the domain."""
        outside = ~self._inside(points)
        if np.any(outside):
            p = np.asarray(points, dtype=float).reshape(-1, self.dim)[np.argmax(outside)]
            raise ValidationError(message.format(p.tolist()))

    @staticmethod
    def from_geometry(points) -> "Domain":
        """Bounding box of `points`, padded by ``_GEOMETRY_PAD`` of the extent
        per side."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValidationError("cannot build a domain from empty geometry")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        diag = vec_norm(hi - lo)
        widths = hi - lo
        margin = _GEOMETRY_PAD * np.where(widths > 0, widths, max(diag, 1.0))
        return Domain(lo - margin, hi + margin)


@dataclass(frozen=True)
class Grid:
    """Regular grid tiling a domain; cells indexed in C order (axis 0 major)."""

    domain: Domain
    shape: tuple

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != self.domain.dim:
            raise ValidationError("grid shape does not match domain dimension")
        if any(s < 1 for s in shape):
            raise ValidationError("grid needs at least one cell per axis")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_size(self) -> np.ndarray:
        return self.domain.extent / np.asarray(self.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_size))

    def cell_indices(self, points) -> np.ndarray:
        """Flat (C-order) index of the cell containing each point (last axis
        of `points`); a point on a cell face goes to the lower-index cell.
        Points outside the domain are clipped to the nearest cell."""
        s = (np.asarray(points, dtype=float) - self.domain.lower) / self.cell_size
        idx = np.floor(s).astype(int)
        on_lower_face = (s == idx) & (idx > 0)
        idx[on_lower_face] -= 1
        np.clip(idx, 0, np.asarray(self.shape) - 1, out=idx)
        return np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), self.shape)

    def centers(self) -> np.ndarray:
        """All cell centers, shape (n_cells, dim), C order."""
        axes = [
            self.domain.lower[k] + (np.arange(self.shape[k]) + 0.5) * self.cell_size[k]
            for k in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes/weights on [-1, 1] (exact for degree <= 2n-1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def segment_quadrature(a, b):
    """Gauss-Legendre points ``(..., n, dim)`` on the segments [a, b] and
    weights ``(..., n)`` summing to their lengths, broadcast like :func:`dists`,
    with ``n = _SEGMENT_NODES``."""
    a = np.asarray(a, dtype=float)[..., None, :]
    b = np.asarray(b, dtype=float)[..., None, :]
    nodes, weights = gauss_legendre(_SEGMENT_NODES)
    points = a + (0.5 * (nodes + 1.0))[:, None] * (b - a)
    return points, 0.5 * weights * dists(a, b)


def segment_cell_intervals(grid: Grid, a, b):
    """Split the segments [a[i], b[i]] ((n, dim) arrays) by the grid planes.

    Returns (segment, flat_cell, fraction) per piece, in segment order and
    from a to b: the parameter-length fraction of that segment inside that
    cell.  A segment's fractions sum to 1 up to roundoff; zero-length pieces
    are dropped.  Pieces are binned by midpoint with :meth:`Grid.cell_indices`,
    so one running along a cell face goes to the lower-index cell.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    grid.domain.require_inside(np.stack([a, b], axis=1), "segment endpoint {} outside grid domain")
    delta = b - a
    # one column per interior grid plane, axis by axis
    axis = np.repeat(np.arange(grid.dim), np.asarray(grid.shape) - 1)
    step = np.concatenate([np.arange(1, s) for s in grid.shape])
    planes = grid.domain.lower[axis] + grid.cell_size[axis] * step
    moving = delta[:, axis] != 0.0
    t = np.divide(planes - a[:, axis], delta[:, axis], out=np.ones(moving.shape), where=moving)
    # cuts outside (0, 1) become 1.0: sorted, they add only zero-length pieces
    t[(t <= 0.0) | (t >= 1.0)] = 1.0
    ts = np.sort(np.column_stack([np.zeros(len(a)), t, np.ones(len(a))]), axis=1)
    frac = np.diff(ts, axis=1)
    keep = frac > 0.0
    segment = np.nonzero(keep)[0]
    mid_t = (0.5 * (ts[:, :-1] + ts[:, 1:]))[keep]
    mids = a[segment] + mid_t[:, None] * delta[segment]
    return segment, grid.cell_indices(mids), frac[keep]
