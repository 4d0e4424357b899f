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

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import TailBoundError, UnbalancedMeasureError, ValidationError
from .funcs import TestFunction
from .geom import Grid, as_point, dists, gauss_legendre, ordered_sum, segment_quadrature, vec_norm

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

SEGMENT_EXACT_DEGREE = 16  # 8-node Gauss-Legendre integrates degree-15 integrands
CELL_EXACT_DEGREE = 8  # 4 nodes per axis


class QuadratureDegreeWarning(UserWarning):
    """Polynomial degree exceeds the quadrature exactness guarantee."""


def _merge_atoms(points, masses):
    """Identify atoms within MERGE_RTOL of the instance diameter; drop zeros.

    First fit: an atom joins the first kept atom within the tolerance, and
    masses are added in input order.
    """
    if len(points) == 0:
        return points, masses
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    tol = MERGE_RTOL * vec_norm(hi - lo)
    kept_pts = np.empty_like(points)
    kept_mass = np.empty(len(points))
    n_kept = 0
    for p, m in zip(points, masses):
        near = np.flatnonzero(dists(p, kept_pts[:n_kept]) <= tol)
        if near.size:
            kept_mass[near[0]] += m
        else:
            kept_pts[n_kept] = p
            kept_mass[n_kept] = m
            n_kept += 1
    nonzero = kept_mass[:n_kept] != 0.0
    return kept_pts[:n_kept][nonzero], kept_mass[:n_kept][nonzero]


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


@dataclass(frozen=True)
class DipoleChain:
    """Ordered dipole pairs (p_i, n_i), optionally with a guaranteed geometric
    bound ``sum_{i>k} |p_i - n_i| <= first_term * ratio^k`` for the unlisted
    remainder (valid for every k >= number of listed pairs)."""

    pairs: tuple
    tail: Optional[tuple] = None  # (ratio, first_term)

    def __post_init__(self):
        pairs = tuple((as_point(p), as_point(n)) for p, n in self.pairs)
        if len({q.shape for pair in pairs for q in pair}) > 1:
            raise ValidationError("dipole endpoints have mismatched dimensions")
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
        return self.pairs[0][0].size if self.pairs else 2

    def lengths(self) -> np.ndarray:
        ends = np.array(self.pairs).reshape(-1, 2, self.dim)
        return dists(ends[:, 0], ends[:, 1])

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
        """sum_i u(p_i) - u(n_i) over the listed pairs."""
        total = 0.0
        for p, n in self.pairs:
            total += func.value(p) - func.value(n)
        return total


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
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def total_variation(self) -> float:
        norms = np.sqrt((self.vectors**2).sum(axis=1))
        return float(np.sum(norms) * self.grid.cell_volume)


def _segments_overlap(a1, b1, d1, a2, b2, d2, scale):
    """True when two segments share a set of positive length on a common line
    and their densities are not aligned there (total variation would not add)."""
    u = b1 - a1
    v = b2 - a2
    lu = vec_norm(u)
    lv = vec_norm(v)
    cos = float(np.dot(u / lu, v / lv))
    sin2 = max(0.0, 1.0 - cos * cos)
    # 1 - cos^2 is 0 or a few multiples of 1.1e-16 for exactly parallel
    # directions, so a threshold below that would miss tilted collinear pairs
    if sin2 > 1e-14:
        return False
    # same supporting line?
    w = a2 - a1
    off = w - np.dot(w, u / lu) * (u / lu)
    if vec_norm(off) > 1e-9 * max(scale, 1.0):
        return False
    t2a = float(np.dot(a2 - a1, u) / (lu * lu))
    t2b = float(np.dot(b2 - a1, u) / (lu * lu))
    lo = max(0.0, min(t2a, t2b))
    hi = min(1.0, max(t2a, t2b))
    if (hi - lo) * lu <= 1e-9 * max(scale, 1.0):
        return False
    # overlapping on a positive-length piece: densities must be aligned
    n1 = vec_norm(d1)
    n2 = vec_norm(d2)
    if n1 == 0.0 or n2 == 0.0:
        return False
    dot = float(np.dot(d1, d2))
    aligned = dot > 0 and abs(abs(dot) - n1 * n2) <= 1e-9 * n1 * n2
    return not aligned


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
        if self.validate and len(sa) > 1:
            scale = float(np.max(lengths))
            units = (sb - sa) / lengths[:, None]
            for i in range(len(sa) - 1):
                cos = np.vecdot(units[i], units[i + 1 :])
                # only near-parallel pairs can overlap; the prefilter is looser
                # than the 1e-14 of _segments_overlap, so a last-bit difference
                # in cos cannot skip a pair that test would flag
                near = np.flatnonzero(np.maximum(0.0, 1.0 - cos * cos) <= 1e-12)
                for j in (i + 1 + near).tolist():
                    if _segments_overlap(
                        sa[i], sb[i], sd[i], sa[j], sb[j], sd[j], scale
                    ):
                        raise ValidationError(
                            f"segments {i} and {j} overlap with non-aligned densities"
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


def _cell_quadrature(grid: Grid, multi_index, n: int = 4):
    nodes, weights = gauss_legendre(n)
    lo = grid.domain.lower + np.asarray(multi_index, dtype=float) * grid.cell_size
    axes_pts = []
    axes_w = []
    for k in range(grid.dim):
        h = grid.cell_size[k]
        axes_pts.append(lo[k] + 0.5 * (nodes + 1.0) * h)
        axes_w.append(0.5 * weights * h)
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    w = axes_w[0]
    for k in range(1, grid.dim):
        w = np.multiply.outer(w, axes_w[k])
    return pts, w.ravel()


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


def pair(f: Distribution, func: TestFunction) -> float:
    """Evaluate <f, func>.

    The measure part contributes point values; the divergence part pairs the
    gradient of `func` against the vector measure.
    """
    nu = f.divergence_part
    _check_quadrature_degree(func, nu.n_segments > 0, nu.cells is not None)
    total = 0.0
    m = f.measure_part
    if len(m):
        values = np.array([func.value(p) for p in m.points])
        total += float(np.sum(m.masses * values))
    for point, vector in zip(nu.atom_points, nu.atom_vectors):
        total += float(np.dot(vector, func.gradient(point)))
    for a, b, density in zip(nu.seg_a, nu.seg_b, nu.seg_density):
        pts, w = segment_quadrature(a, b)
        acc = 0.0
        for q, wq in zip(pts, w):
            acc += wq * float(np.dot(density, func.gradient(q)))
        total += acc
    if nu.cells is not None:
        grid = nu.cells.grid
        for flat in range(grid.n_cells):
            vector = nu.cells.vectors[flat]
            if not np.any(vector):
                continue
            multi = np.unravel_index(flat, grid.shape)
            pts, w = _cell_quadrature(grid, multi)
            acc = 0.0
            for q, wq in zip(pts, w):
                acc += wq * float(np.dot(vector, func.gradient(q)))
            total += acc
    return total


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
    atoms = []
    for p, n in chain.pairs:
        atoms.append((p, 1.0))
        atoms.append((n, -1.0))
    measure = SignedAtomMeasure.from_atoms(atoms, dim=chain.dim)
    return Distribution.from_measure(measure), error_bound
