"""Points, boxes, regular grids and quadrature helpers.

Every distance in the package comes from :func:`dists`, the single source of
truth: :func:`dist` is its scalar case, and all-pairs or row-wise distances
are the same kernel broadcast over leading axes.  Values compared for exact
equality elsewhere (oracle tests, conservation checks) are therefore
computed bit for bit the same way, whichever shape asked for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_point",
    "dist",
    "dists",
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

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        pad = tol * np.maximum(self.extent, 1.0)
        return bool(np.all(p >= self.lower - pad) and np.all(p <= self.upper + pad))

    @staticmethod
    def from_geometry(points, pad: float = 0.05) -> "Domain":
        """Bounding box of `points`, padded by `pad` of the extent per side."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValidationError("cannot build a domain from empty geometry")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        diag = vec_norm(hi - lo)
        widths = hi - lo
        margin = pad * np.where(widths > 0, widths, max(diag, 1.0))
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

    def cell_index(self, point) -> tuple:
        """Multi-index of the cell containing `point`; boundary ties go to the
        lower-index cell."""
        p = np.asarray(point, dtype=float)
        if not self.domain.contains(p):
            raise ValidationError(f"point {p.tolist()} lies outside the grid domain")
        s = (p - self.domain.lower) / self.cell_size
        idx = np.floor(s).astype(int)
        on_lower_face = (s == idx) & (idx > 0)
        idx[on_lower_face] -= 1
        np.clip(idx, 0, np.asarray(self.shape) - 1, out=idx)
        return tuple(int(i) for i in idx)

    def flat_index(self, multi_index) -> int:
        return int(np.ravel_multi_index(multi_index, self.shape))

    def center(self, multi_index) -> np.ndarray:
        idx = np.asarray(multi_index, dtype=float)
        return self.domain.lower + (idx + 0.5) * self.cell_size

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


def segment_quadrature(a, b, n: int = 8):
    """Quadrature points on the segment [a, b] with weights summing to its length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nodes, weights = gauss_legendre(n)
    ts = 0.5 * (nodes + 1.0)
    points = a[None, :] + ts[:, None] * (b - a)[None, :]
    w = 0.5 * weights * dist(a, b)
    return points, w


def segment_cell_intervals(grid: Grid, a, b):
    """Split segment [a, b] by the grid planes.

    Returns (flat_cell_indices, fractions): the parameter-length fraction of
    the segment inside each crossed cell.  Fractions sum to 1 up to roundoff;
    zero-length slivers are dropped.  A segment running along a cell face is
    credited to the lower-index cell, matching :meth:`Grid.cell_index`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for p in (a, b):
        if not grid.domain.contains(p):
            raise ValidationError(f"segment endpoint {p.tolist()} outside grid domain")
    delta = b - a
    cuts = [np.array([0.0, 1.0])]
    lower = grid.domain.lower
    cell = grid.cell_size
    for k in range(grid.dim):
        if delta[k] == 0.0:
            continue
        planes = lower[k] + cell[k] * np.arange(1, grid.shape[k])
        t = (planes - a[k]) / delta[k]
        cuts.append(t[(t > 0.0) & (t < 1.0)])
    ts = np.unique(np.concatenate(cuts))
    ts = ts[(ts >= 0.0) & (ts <= 1.0)]
    frac = np.diff(ts)
    keep = frac > 0.0
    frac = frac[keep]
    mids = a[None, :] + (0.5 * (ts[:-1] + ts[1:]))[keep][:, None] * delta[None, :]
    if frac.size == 0:
        # degenerate segment: all mass in the containing cell
        return np.array([grid.flat_index(grid.cell_index(a))]), np.array([1.0])
    s = (mids - lower[None, :]) / cell[None, :]
    idx = np.floor(s).astype(int)
    on_face = (s == idx) & (idx > 0)
    idx[on_face] -= 1
    np.clip(idx, 0, np.asarray(grid.shape) - 1, out=idx)
    flat = np.ravel_multi_index(idx.T, grid.shape)
    return flat, frac
