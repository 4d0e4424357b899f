"""Signed atom measures, dipole chains, vector measures and their pairings.

A first-order distribution is stored as ``measure_part - div(divergence_part)``
and paired against a test function by

    <f, phi> = sum_i m_i phi(x_i) + integral of grad(phi) . d(divergence_part)

The vector-measure integral is evaluated exactly for atoms, by Gauss-Legendre
quadrature along segments (8 nodes, exact through polynomial degree 16) and
by tensor quadrature on cell fields (4 nodes per axis, exact through total
degree 8).
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import TailBoundError, UnbalancedMeasureError, ValidationError
from .funcs import TestFunction
from .geom import (
    Grid,
    as_point,
    bin_sums,
    dists,
    gauss_legendre,
    ordered_sum,
    row_blocks,
    segment_quadrature,
    vec_norm,
)

__all__ = [
    "SignedAtomMeasure",
    "DipoleChain",
    "CellField",
    "StructuredVectorMeasure",
    "Distribution",
    "NotAMeasure",
    "pair",
    "segment_projection",
    "divergence_as_measure",
    "from_dipoles",
    "QuadratureDegreeWarning",
]

BALANCE_RTOL = 1e-9
MERGE_RTOL = 1e-9
PARALLEL_RTOL = 1e-12
# two segments overlap when their directions are parallel (1 - cos^2 at most
# OVERLAP_SIN2), their lines meet and they share a piece longer than
# OVERLAP_RTOL times the longest segment (at least 1), and their densities are
# not aligned within OVERLAP_RTOL.  1 - cos^2 is 0 or a few multiples of
# 1.1e-16 for exactly parallel directions, so a threshold below that would
# miss tilted collinear pairs
OVERLAP_SIN2 = 1e-14
OVERLAP_RTOL = 1e-9

SEGMENT_EXACT_DEGREE = 16  # 8-node Gauss-Legendre integrates degree-15 integrands
CELL_EXACT_DEGREE = 8  # 4 nodes per axis
_CELL_NODES = 4  # Gauss-Legendre nodes per axis of a cell


class QuadratureDegreeWarning(UserWarning):
    """Polynomial degree exceeds the quadrature exactness guarantee."""


def _merge_atoms(points, masses):
    """Identify atoms within MERGE_RTOL of the instance diameter; drop zeros.

    First fit: an atom joins the first kept atom within the tolerance, and
    masses are added in input order.  Kept atoms are hashed into cells of
    twice the tolerance, so an atom's candidates are the kept atoms of its
    own cell and its 3**dim - 1 neighbours, and a cell index rounded across
    a cell face cannot hide a pair at exactly the tolerance.  A zero
    tolerance puts every atom in one cell.
    """
    if len(points) == 0:
        return points, masses
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    diameter = vec_norm(hi - lo)
    if not np.isfinite(diameter):
        raise ValidationError(
            "atoms lie too far apart: the diagonal of their bounding box overflows"
        )
    tol = MERGE_RTOL * diameter
    if tol > 0.0:
        cells = np.floor((points - lo) / (2.0 * tol)).astype(np.int64) + 1
    else:
        cells = np.ones(points.shape, dtype=np.int64)
    # a cell's key is its index digits (all >= 1) in a base above every
    # digit, as a Python int; a neighbour's key is the key plus a shift's
    place = (int(cells.max()) + 2) ** np.arange(points.shape[1] - 1, -1, -1).astype(object)
    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=points.shape[1])))
    neighbours = (shifts.astype(object) @ place).tolist()
    kept = []  # input index of each kept atom
    kept_in = {}  # cell key -> positions in `kept`, ascending
    joins = np.empty(len(points), dtype=int)  # position in `kept` each atom adds to
    for a, key in enumerate((cells.astype(object) @ place).tolist()):
        near = sorted(k for shift in neighbours for k in kept_in.get(key + shift, ()))
        if near:
            hit = np.flatnonzero(dists(points[a], points[[kept[k] for k in near]]) <= tol)
            if hit.size:
                joins[a] = near[hit[0]]
                continue
        joins[a] = len(kept)
        kept_in.setdefault(key, []).append(len(kept))
        kept.append(a)
    # each atom's mass is added in input order, from 0.0
    kept_mass = bin_sums(joins, masses, len(kept))
    nonzero = kept_mass != 0.0
    return points[kept][nonzero], kept_mass[nonzero]


@dataclass(frozen=True)
class SignedAtomMeasure:
    """Finite signed measure sum_i m_i delta_{x_i}, atoms merged on construction."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        ms = np.asarray(self.masses, dtype=float).ravel()
        if pts.size == 0:
            pts = pts.reshape(0, max(pts.shape[1] if pts.ndim == 2 else 2, 2))
        if pts.shape[0] != ms.size:
            raise ValidationError("points and masses length mismatch")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ms))):
            raise ValidationError("atom coordinates and masses must be finite")
        if np.any(ms == 0.0):
            raise ValidationError("atom masses must be nonzero")
        pts, ms = _merge_atoms(pts, ms)
        pts.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @staticmethod
    def empty(dim: int = 2) -> "SignedAtomMeasure":
        return SignedAtomMeasure(np.zeros((0, dim)), np.zeros(0))

    @staticmethod
    def from_atoms(atoms, dim: Optional[int] = None) -> "SignedAtomMeasure":
        """Build from an iterable of (point, mass)."""
        atoms = list(atoms)
        if not atoms:
            return SignedAtomMeasure.empty(dim or 2)
        pts = np.array([as_point(p) for p, _ in atoms])
        ms = np.array([float(m) for _, m in atoms])
        return SignedAtomMeasure(pts, ms)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total(self) -> float:
        return float(np.sum(self.masses))

    @property
    def mass_scale(self) -> float:
        return float(np.sum(np.abs(self.masses)))

    @property
    def balanced(self) -> bool:
        return abs(self.total) <= BALANCE_RTOL * self.mass_scale

    def require_balanced(self):
        if not self.balanced:
            raise UnbalancedMeasureError(self.total, self.mass_scale, BALANCE_RTOL)

    def scaled(self, factor: float) -> "SignedAtomMeasure":
        if factor == 0.0:
            return SignedAtomMeasure.empty(self.dim)
        return SignedAtomMeasure(self.points, factor * self.masses)

    def __add__(self, other: "SignedAtomMeasure") -> "SignedAtomMeasure":
        if len(self) == 0:
            return other
        if len(other) == 0:
            return self
        return SignedAtomMeasure(
            np.vstack([self.points, other.points]),
            np.concatenate([self.masses, other.masses]),
        )

    def positive_part(self):
        keep = self.masses > 0
        return self.points[keep], self.masses[keep]

    def negative_part(self):
        keep = self.masses < 0
        return self.points[keep], -self.masses[keep]


@dataclass(frozen=True, eq=False)
class DipoleChain:
    """Ordered dipole pairs (p_i, n_i), optionally with a guaranteed geometric
    bound ``sum_{i>k} |p_i - n_i| <= first_term * ratio^k`` for the unlisted
    remainder (valid for every k >= number of listed pairs).  ``pairs`` is one
    read-only ``(m, 2, dim)`` array: p_i at ``[i, 0]``, n_i at ``[i, 1]``."""

    pairs: np.ndarray
    tail: Optional[tuple] = None  # (ratio, first_term)

    def __post_init__(self):
        try:
            pairs = np.array(self.pairs, float) if len(self.pairs) else np.zeros((0, 2, 2))
        except ValueError as exc:
            raise ValidationError("dipole endpoints have mismatched dimensions") from exc
        if pairs.ndim != 3 or pairs.shape[1] != 2 or not pairs.shape[2]:
            raise ValidationError(f"dipoles must be (p, n) point pairs, got shape {pairs.shape}")
        if not np.all(np.isfinite(pairs)):
            i, j = np.argwhere(~np.isfinite(pairs).all(axis=2))[0]
            raise ValidationError(f"point has non-finite coordinates: {self.pairs[i][j]!r}")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        if self.tail is not None:
            ratio, first = float(self.tail[0]), float(self.tail[1])
            if not (0.0 < ratio < 1.0):
                raise ValidationError(f"tail ratio must lie in (0, 1), got {ratio}")
            if not first > 0.0:
                raise ValidationError(f"tail first_term must be positive, got {first}")
            object.__setattr__(self, "tail", (ratio, first))

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def dim(self) -> int:
        return self.pairs.shape[2]

    def lengths(self) -> np.ndarray:
        return dists(self.pairs[:, 0], self.pairs[:, 1])

    def tail_bound(self, k: int) -> float:
        """Certified bound on sum_{i>k} |p_i - n_i| (listed suffix + analytic tail)."""
        if k < 0:
            raise ValidationError("tail index must be nonnegative")
        m = len(self.pairs)
        analytic = 0.0
        if self.tail is not None:
            ratio, first = self.tail
            analytic = first * ratio ** max(k, m)
        if k >= m:
            return analytic
        # right to left from the analytic term keeps dyadic sums exact
        return ordered_sum(np.concatenate([[analytic], self.lengths()[k:][::-1]]))

    def pair_with(self, func) -> float:
        """sum_i u(p_i) - u(n_i) over the listed pairs, added in order."""
        values = func.value(self.pairs)
        return ordered_sum(values[:, 0] - values[:, 1])


@dataclass(frozen=True)
class CellField:
    """Constant vector density per grid cell, taken w.r.t. volume."""

    grid: Grid
    vectors: np.ndarray  # (n_cells, dim), C order

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.shape != (self.grid.n_cells, self.grid.dim):
            raise ValidationError(
                f"cell vectors must have shape {(self.grid.n_cells, self.grid.dim)}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("cell vectors must be finite")
        # as for a vector measure's vectors: a norm that overflows would make
        # the total variation and the rasterized masses infinite
        if not np.all(np.isfinite(dists(v, 0.0))):
            raise ValidationError("cell vectors must have finite norms")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def total_variation(self) -> float:
        return float(np.sum(dists(self.vectors, 0.0)) * self.grid.cell_volume)


@dataclass(frozen=True)
class StructuredVectorMeasure:
    """Vector measure built from point atoms, constant-density polyline segments
    and an optional grid cell field.

    Total variation is the sum of component variations; overlapping collinear
    segments are rejected at validation unless their densities are aligned
    (in which case variations genuinely add).
    """

    dim: int
    atom_points: np.ndarray
    atom_vectors: np.ndarray
    seg_a: np.ndarray
    seg_b: np.ndarray
    seg_density: np.ndarray
    cells: Optional[CellField] = None
    validate: bool = True

    def __post_init__(self):
        dim = int(self.dim)
        ap = np.asarray(self.atom_points, dtype=float).reshape(-1, dim)
        av = np.asarray(self.atom_vectors, dtype=float).reshape(-1, dim)
        sa = np.asarray(self.seg_a, dtype=float).reshape(-1, dim)
        sb = np.asarray(self.seg_b, dtype=float).reshape(-1, dim)
        sd = np.asarray(self.seg_density, dtype=float).reshape(-1, dim)
        if ap.shape != av.shape or not (sa.shape == sb.shape == sd.shape):
            raise ValidationError("vector measure component arrays are inconsistent")
        for arr in (ap, av, sa, sb, sd):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("vector measure data must be finite")
            arr.setflags(write=False)
        # a norm that overflows would make the total variation infinite and
        # segment_projection take a normal density for a parallel one
        norms = dists(sd, 0.0)
        if not (np.all(np.isfinite(dists(av, 0.0))) and np.all(np.isfinite(norms))):
            raise ValidationError("vector measure vectors must have finite norms")
        if self.cells is not None and self.cells.grid.dim != dim:
            raise ValidationError("cell field dimension mismatch")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "atom_points", ap)
        object.__setattr__(self, "atom_vectors", av)
        object.__setattr__(self, "seg_a", sa)
        object.__setattr__(self, "seg_b", sb)
        object.__setattr__(self, "seg_density", sd)
        lengths = dists(sa, sb)
        lengths.setflags(write=False)
        object.__setattr__(self, "_lengths", lengths)
        if np.any(lengths == 0.0):
            raise ValidationError("segments must have positive length")
        if not np.all(np.isfinite(lengths)):
            raise ValidationError("segment lengths must be finite")
        if self.validate and len(sa) > 1:
            tol = OVERLAP_RTOL * max(float(np.max(lengths)), 1.0)
            units = (sb - sa) / lengths[:, None]
            for i in range(len(sa) - 1):
                # the segments j > i parallel to i, then the array form of
                # the scalar tests: same line, overlap length, alignment
                cos = np.vecdot(units[i], units[i + 1 :])
                j = i + 1 + np.flatnonzero(np.maximum(0.0, 1.0 - cos * cos) <= OVERLAP_SIN2)
                if not j.size:
                    continue
                u, w, lu = sb[i] - sa[i], sa[j] - sa[i], lengths[i]
                off = w - np.vecdot(w, units[i])[:, None] * units[i]
                ta, tb = np.vecdot(w, u) / (lu * lu), np.vecdot(sb[j] - sa[i], u) / (lu * lu)
                lo = np.maximum(0.0, np.minimum(ta, tb))
                hi = np.minimum(1.0, np.maximum(ta, tb))
                n1, n2 = norms[i], norms[j]
                dot = np.vecdot(sd[i], sd[j])
                aligned = (dot > 0) & (np.abs(np.abs(dot) - n1 * n2) <= OVERLAP_RTOL * n1 * n2)
                overlap = (dists(off, 0.0) <= tol) & ((hi - lo) * lu > tol)
                hits = j[overlap & (n1 != 0.0) & (n2 != 0.0) & ~aligned]
                if hits.size:
                    raise ValidationError(
                        f"segments {i} and {hits[0]} overlap with non-aligned densities"
                    )

    @staticmethod
    def empty(dim: int = 2) -> "StructuredVectorMeasure":
        z = np.zeros((0, dim))
        return StructuredVectorMeasure(dim, z, z, z, z, z)

    @staticmethod
    def build(dim: int, atoms=(), segments=(), cells=None, validate=True):
        """Build from iterables of (point, vector) and (a, b, density)."""
        atoms = list(atoms)
        segments = list(segments)
        z = np.zeros((0, dim))
        ap = np.array([as_point(p) for p, _ in atoms]) if atoms else z
        av = np.array([np.asarray(v, float) for _, v in atoms]) if atoms else z
        sa = np.array([as_point(a) for a, _, _ in segments]) if segments else z
        sb = np.array([as_point(b) for _, b, _ in segments]) if segments else z
        sd = np.array([np.asarray(d, float) for _, _, d in segments]) if segments else z
        return StructuredVectorMeasure(dim, ap, av, sa, sb, sd, cells, validate)

    @property
    def segment_lengths(self) -> np.ndarray:
        return self._lengths

    @property
    def n_atoms(self) -> int:
        return self.atom_points.shape[0]

    @property
    def n_segments(self) -> int:
        return self.seg_a.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.n_atoms == 0 and self.n_segments == 0 and self.cells is None

    @property
    def total_variation(self) -> float:
        terms = [dists(self.atom_vectors, 0.0), dists(self.seg_density, 0.0) * self._lengths]
        if self.cells is not None:
            terms.append([self.cells.total_variation])
        return ordered_sum(np.concatenate(terms))

    def __add__(self, other: "StructuredVectorMeasure") -> "StructuredVectorMeasure":
        if self.dim != other.dim:
            raise ValidationError("cannot combine vector measures of different dimension")
        if self.cells is not None and other.cells is not None:
            raise ValidationError("cannot combine two cell fields")
        return StructuredVectorMeasure(
            self.dim,
            np.vstack([self.atom_points, other.atom_points]),
            np.vstack([self.atom_vectors, other.atom_vectors]),
            np.vstack([self.seg_a, other.seg_a]),
            np.vstack([self.seg_b, other.seg_b]),
            np.vstack([self.seg_density, other.seg_density]),
            self.cells if self.cells is not None else other.cells,
            validate=False,
        )


@dataclass(frozen=True)
class NotAMeasure:
    """Outcome marker: the divergence is a genuine first-order distribution."""

    reason: str


@dataclass(frozen=True)
class Distribution:
    """First-order distribution f = measure_part - div(divergence_part)."""

    measure_part: SignedAtomMeasure
    divergence_part: StructuredVectorMeasure

    def __post_init__(self):
        if len(self.measure_part) and not self.divergence_part.is_empty:
            if self.measure_part.dim != self.divergence_part.dim:
                raise ValidationError("distribution parts have mismatched dimensions")

    @property
    def dim(self) -> int:
        if len(self.measure_part):
            return self.measure_part.dim
        return self.divergence_part.dim

    @staticmethod
    def from_measure(m: SignedAtomMeasure) -> "Distribution":
        return Distribution(m, StructuredVectorMeasure.empty(m.dim))

    @staticmethod
    def from_divergence(nu: StructuredVectorMeasure) -> "Distribution":
        return Distribution(SignedAtomMeasure.empty(nu.dim), nu)


def _cell_quadrature(grid: Grid, flat):
    """Tensor Gauss-Legendre points ``(k, n**dim, dim)`` in the cells `flat`
    (C-order indices) and the weights ``(n**dim,)`` they all share, with
    ``n = _CELL_NODES``."""
    nodes, weights = gauss_legendre(_CELL_NODES)
    h = grid.cell_size
    offsets = np.meshgrid(*((0.5 * (nodes + 1.0))[:, None] * h).T, indexing="ij")
    axis_weights = np.meshgrid(*((0.5 * weights)[:, None] * h).T, indexing="ij")
    w = functools.reduce(np.multiply, axis_weights)
    lower = grid.domain.lower + np.stack(np.unravel_index(flat, grid.shape), axis=-1) * h
    return lower[:, None] + np.stack(offsets, axis=-1).reshape(-1, grid.dim), w.ravel()


def _check_quadrature_degree(func, has_segments: bool, has_cells: bool):
    degree = getattr(func, "degree", None)
    if degree is None:
        return
    if has_cells and degree > CELL_EXACT_DEGREE:
        warnings.warn(
            f"polynomial degree {degree} exceeds cell quadrature exactness "
            f"(degree {CELL_EXACT_DEGREE})",
            QuadratureDegreeWarning,
            stacklevel=3,
        )
    elif has_segments and degree > SEGMENT_EXACT_DEGREE:
        warnings.warn(
            f"polynomial degree {degree} exceeds segment quadrature exactness "
            f"(degree {SEGMENT_EXACT_DEGREE})",
            QuadratureDegreeWarning,
            stacklevel=3,
        )


def _quadrature_sums(func, vectors, points, weights) -> np.ndarray:
    """Per row, sum_q weights[q] * (vectors . grad func(points[q])) added in
    node order: `points` ``(k, n, dim)``, `vectors` ``(k, dim)``."""
    terms = weights * np.vecdot(vectors[:, None], func.gradient(points))
    return np.cumsum(terms, axis=1)[:, -1]


def pair(f: Distribution, func: TestFunction) -> float:
    """Evaluate <f, func>.

    The measure part contributes point values; the divergence part pairs the
    gradient of `func` against the vector measure.  `func` is called on the
    point arrays of each part (:mod:`tranship.funcs`); the terms are added in
    order: measure part, vector atoms, segments, nonzero cells.  Cells go in
    :func:`~tranship.geom.row_blocks`, each cell on its own, so the block
    size bounds the memory without changing the bits.
    """
    nu = f.divergence_part
    _check_quadrature_degree(func, nu.n_segments > 0, nu.cells is not None)
    m = f.measure_part
    terms = [
        [np.sum(m.masses * func.value(m.points))] if len(m) else [],
        np.vecdot(nu.atom_vectors, func.gradient(nu.atom_points)),
        _quadrature_sums(func, nu.seg_density, *segment_quadrature(nu.seg_a, nu.seg_b)),
    ]
    if nu.cells is not None:
        grid = nu.cells.grid
        flat = np.flatnonzero(np.any(nu.cells.vectors, axis=1))
        # in blocks of cells: one cell's quadrature points take a row
        for rows in row_blocks(flat.size, 8 * _CELL_NODES**grid.dim * grid.dim):
            points, weights = _cell_quadrature(grid, flat[rows])
            terms.append(_quadrature_sums(func, nu.cells.vectors[flat[rows]], points, weights))
    return ordered_sum(np.concatenate(terms))


def segment_projection(nu: StructuredVectorMeasure):
    """Project every segment density onto its segment's direction.

    Returns ``(tangent, theta, normal, parallel)``: the unit tangents
    ``(b - a) / length`` (rows), the tangential densities ``theta = density .
    tangent``, the normal remainders ``density - theta * tangent`` and the
    row mask of densities parallel to their segment, those whose normal
    remainder is at most ``PARALLEL_RTOL`` times their norm.  This is the one
    parallel test: :func:`divergence_as_measure` needs every segment parallel,
    and :func:`~tranship.sharpspace.tangential_split` snaps parallel rows to
    purely tangential.
    """
    tangent = (nu.seg_b - nu.seg_a) / nu.segment_lengths[:, None]
    theta = np.vecdot(nu.seg_density, tangent)
    normal = nu.seg_density - theta[:, None] * tangent
    # |normal| and |density| per row: distances from the origin
    parallel = dists(normal, 0.0) <= PARALLEL_RTOL * np.maximum(dists(nu.seg_density, 0.0), 1e-300)
    return tangent, theta, normal, parallel


def divergence_as_measure(
    nu: StructuredVectorMeasure,
) -> Union[SignedAtomMeasure, NotAMeasure]:
    """Return -div(nu) as an atom measure when that divergence is a measure.

    A segment [a, b] whose density is theta times the unit tangent (pointing
    a -> b) contributes theta*(delta_b - delta_a), consistently with the
    pairing convention <-div nu, phi> = integral grad(phi) . d(nu).  Atom
    components and non-tangential segment densities (see
    :func:`segment_projection`) make the divergence a genuine first-order
    distribution, reported as :class:`NotAMeasure`.
    """
    if nu.cells is not None:
        raise ValidationError("divergence_as_measure does not accept cell fields")
    if nu.n_atoms:
        return NotAMeasure("vector atoms have tangent space {0}: -div is first order")
    _tangent, theta, _normal, parallel = segment_projection(nu)
    if not np.all(parallel):
        return NotAMeasure("segment density has a normal component: -div is first order")
    keep = theta != 0.0
    # atoms (b, theta), (a, -theta) segment after segment
    points = np.stack([nu.seg_b[keep], nu.seg_a[keep]], axis=1).reshape(-1, nu.dim)
    masses = np.stack([theta[keep], -theta[keep]], axis=1).ravel()
    return SignedAtomMeasure(points, masses)


def from_dipoles(chain: DipoleChain, truncation_eps: float = 0.0):
    """Truncate a dipole chain to its listed pairs.

    Returns ``(f, error_bound)`` where `f` is the atom measure of the listed
    pairs and `error_bound` certifies ``|W1(full chain) - W1(f)| <=
    error_bound`` (each dropped dipole moves the norm by at most its length).
    Fails when the analytic tail bound cannot be brought under
    `truncation_eps` using the listed pairs alone.
    """
    error_bound = 0.0
    if chain.tail is not None:
        if not truncation_eps > 0.0:
            raise ValidationError(
                "a chain with an analytic tail requires truncation_eps > 0"
            )
        ratio, first = chain.tail
        error_bound = first * ratio ** len(chain)
        if error_bound > truncation_eps:
            raise TailBoundError(
                f"tail bound {error_bound!r} exceeds truncation_eps "
                f"{truncation_eps!r}; the achievable floor with the listed "
                f"pairs is {error_bound!r}"
            )
    points = chain.pairs.reshape(-1, chain.dim)  # p_0, n_0, p_1, n_1, ...
    measure = SignedAtomMeasure(points, np.tile([1.0, -1.0], len(chain)))
    return Distribution.from_measure(measure), error_bound
