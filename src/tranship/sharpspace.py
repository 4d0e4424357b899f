"""Tangential/normal structure of vector measures and distances to the
closure of balanced measures.

On the structured class the tangent space of the total variation is known
cell by cell: atoms carry tangent space {0}, segments the span of their
direction, volume cells all of R^N.  Splitting a vector measure accordingly
gives the distance from -div(nu) to the space of divergences of tangential
measures as the plain normal mass, and the same number falls out of the
flux part of any generalized plan built over the instance -- both are
computed here and cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, VerificationError
from .genplan import plan_from_matching, plan_from_vector_measure, split
from .geom import dist, dists, vec_norm
from .matchnorm import Matching, minimal_connection
from .measures import (
    Distribution,
    DipoleChain,
    NotAMeasure,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    divergence_as_measure,
    pair,
    segment_projection,
)

__all__ = [
    "TangentialSplit",
    "tangential_split",
    "distance_to_sharp",
    "Decomposition",
    "decompose",
    "sharp_distance_via_plan",
    "ModulusCurve",
    "modulus",
    "verify_modulus_bound",
    "ConePiece",
    "SupportCones",
    "LipschitzWitness",
    "normal_witness",
    "additivity_witness",
    "tangential_cycle",
]


@dataclass(frozen=True)
class TangentialSplit:
    """Componentwise split nu = tangential + normal.

    Segment densities are split by :func:`~tranship.measures.segment_projection`
    into their projection onto the segment direction and the remainder; a
    density parallel to its segment there (normal remainder within
    ``PARALLEL_RTOL`` of its norm) is kept whole as tangential, so purely
    tangential inputs produce an exactly zero normal mass.  Atoms are
    entirely normal, volume cells entirely tangential.  ``normal_mass`` is
    the total variation of the normal part.
    """

    tangential: StructuredVectorMeasure
    normal: StructuredVectorMeasure
    normal_mass: float


def tangential_split(nu: StructuredVectorMeasure) -> TangentialSplit:
    tangent, theta, normal_density, parallel = segment_projection(nu)
    snap = parallel[:, None]
    zeros = np.zeros((0, nu.dim))
    tangential = StructuredVectorMeasure(
        nu.dim, zeros, zeros, nu.seg_a, nu.seg_b,
        np.where(snap, nu.seg_density, theta[:, None] * tangent), nu.cells, validate=False,
    )
    normal = StructuredVectorMeasure(
        nu.dim, nu.atom_points, nu.atom_vectors, nu.seg_a, nu.seg_b,
        np.where(snap, 0.0, normal_density), None, validate=False,
    )
    return TangentialSplit(tangential=tangential, normal=normal, normal_mass=normal.total_variation)


def distance_to_sharp(nu: StructuredVectorMeasure) -> float:
    """Distance from -div(nu) to the closure of balanced measures.

    Equals the normal mass of any splitting of any representing measure; the
    representation independence is exercised in tests by augmenting with
    divergence-free tangential cycles.
    """
    return tangential_split(nu).normal_mass


# ---------------------------------------------------------------------------
# Lipschitz witnesses: max-combinations of exactly 1-Lipschitz pieces.


@dataclass(frozen=True)
class ConePiece:
    """Downward unit cone height - |x - apex|; 1-Lipschitz, smooth off the apex."""

    apex: np.ndarray
    height: float

    def value(self, point) -> float:
        return self.height - dist(point, self.apex)

    def gradient(self, point) -> np.ndarray:
        d = np.asarray(point, dtype=float) - self.apex
        r = vec_norm(d)
        if r == 0.0:
            return np.zeros(self.apex.size)
        return -d / r


@dataclass(frozen=True)
class SupportCones:
    """Largest function below given support values with Lipschitz constant 1:
    max_i (values_i - |x - points_i|)."""

    points: np.ndarray
    values: np.ndarray

    def _cones(self, point) -> np.ndarray:
        return self.values - dists(point, self.points)

    def value(self, point) -> float:
        return np.max(self._cones(point), initial=-np.inf)

    def gradient(self, point) -> np.ndarray:
        arg = self.points[np.argmax(self._cones(point))]
        d = np.asarray(point, dtype=float) - arg
        r = vec_norm(d)
        if r == 0.0:
            return np.zeros(d.size)
        return -d / r


@dataclass(frozen=True)
class LipschitzWitness:
    """max(0, pieces...): 1-Lipschitz by construction.

    The gradient is the gradient of the winning piece (zero where the floor
    wins); it is only meant to be evaluated where the winner is locally
    smooth, which the constructions below arrange.
    """

    pieces: tuple

    def value(self, point) -> float:
        best = 0.0
        for piece in self.pieces:
            best = max(best, piece.value(point))
        return best

    def gradient(self, point) -> np.ndarray:
        best = 0.0
        winner = None
        for piece in self.pieces:
            cand = piece.value(point)
            if cand > best:
                best = cand
                winner = piece
        if winner is None:
            return np.zeros(np.asarray(point, dtype=float).size)
        return winner.gradient(point)


def _cone_for_atom(point, vector, radius: float) -> ConePiece:
    direction = vector / vec_norm(vector)
    apex = point + 0.5 * radius * direction
    return ConePiece(apex=apex, height=float(radius))


def normal_witness(nu_normal: StructuredVectorMeasure, radius: float) -> LipschitzWitness:
    """Witness with unit gradient aligned to each normal atom's vector.

    Each atom gets a cone whose apex sits `radius`/2 along the atom vector, so
    the gradient at the atom is the unit vector of its density; the cone is
    positive only within 1.5 * radius of the atom.
    """
    pieces = [
        _cone_for_atom(p, v, radius)
        for p, v in zip(nu_normal.atom_points, nu_normal.atom_vectors)
    ]
    return LipschitzWitness(pieces=tuple(pieces))


def additivity_witness(potential_points, potential_values, normal_atoms, radius: float):
    """Witness achieving the matching value on the support and |vector| at each
    separated normal atom, with Lipschitz constant 1 by construction."""
    pieces = []
    pts = np.atleast_2d(np.asarray(potential_points, dtype=float))
    if pts.size:
        pieces.append(SupportCones(points=pts, values=np.asarray(potential_values, dtype=float)))
    for point, vector in normal_atoms:
        pieces.append(_cone_for_atom(np.asarray(point, dtype=float), np.asarray(vector, dtype=float), radius))
    return LipschitzWitness(pieces=tuple(pieces))


# ---------------------------------------------------------------------------
# Decomposition f = f_T + f_N with optional optimality certification.


@dataclass(frozen=True)
class Decomposition:
    tangential: Distribution  # -div of the tangential part
    normal: Distribution  # -div of the normal part
    normal_mass: float
    certified: bool
    witness_value: Optional[float] = None
    claimed_value: Optional[float] = None


def decompose(nu: StructuredVectorMeasure, certify: bool = True) -> Decomposition:
    """Split -div(nu) into tangential and normal summands.

    The split itself is always defined.  The additivity of the transport norms
    of the two summands additionally requires `nu` to be a norm-optimal
    representation; when `certify` is set, a 1-Lipschitz dual witness is
    built (matching potential on the tangential support, aligned cones at the
    normal atoms) and the result is tagged certified only if the witness value
    reaches the claimed total.  Uncertified results are still returned.
    """
    parts = tangential_split(nu)
    tangential = Distribution.from_divergence(parts.tangential)
    normal = Distribution.from_divergence(parts.normal)
    if not certify:
        return Decomposition(tangential, normal, parts.normal_mass, certified=False)
    witness_value, claimed = _try_certify(parts)
    certified = (
        witness_value is not None
        and abs(witness_value - claimed) <= 1e-8 * max(1.0, abs(claimed))
    )
    return Decomposition(
        tangential,
        normal,
        parts.normal_mass,
        certified=certified,
        witness_value=witness_value,
        claimed_value=claimed,
    )


def _try_certify(parts: TangentialSplit):
    if parts.tangential.cells is not None:
        return None, None
    if np.any(dists(parts.normal.seg_density, 0.0) * parts.normal.segment_lengths > 0):
        return None, None  # cone witnesses only cover atomic normal parts
    converted = divergence_as_measure(parts.tangential)
    if isinstance(converted, NotAMeasure):
        return None, None
    matching = minimal_connection(converted)
    if len(converted):
        pot_pts = converted.points
        pot_vals = matching.potential
    else:
        pot_pts = np.zeros((0, parts.tangential.dim))
        pot_vals = np.zeros(0)
    normal_atoms = list(zip(parts.normal.atom_points, parts.normal.atom_vectors))
    radius = _separation_radius(pot_pts, normal_atoms)
    if normal_atoms and radius <= 0.0:
        return None, None
    witness = additivity_witness(pot_pts, pot_vals, normal_atoms, radius)
    f = Distribution(
        measure_part=converted if len(converted) else SignedAtomMeasure.empty(parts.normal.dim),
        divergence_part=StructuredVectorMeasure.build(
            parts.normal.dim, atoms=normal_atoms, validate=False
        ),
    )
    witness_value = pair(f, witness)
    claimed = matching.cost + parts.normal_mass
    return witness_value, claimed


def _separation_radius(support_points, normal_atoms) -> float:
    if not normal_atoms:
        return 1.0
    pts = np.array([p for p, _ in normal_atoms])
    i, j = np.triu_indices(len(pts), 1)
    d_min = float(min(
        np.min(dists(pts[i], pts[j]), initial=np.inf),
        np.min(dists(pts[:, None], support_points[None]), initial=np.inf),
    ))
    if not np.isfinite(d_min):
        return 1.0
    return d_min / 4.0


def sharp_distance_via_plan(matching: Matching, normal_part: StructuredVectorMeasure) -> float:
    """Mass of the flux part of the plan built from a certified pair.

    The matching embeds as rays (t > 0), the normal part as flux elements
    (t = 0); the flux mass equals :func:`distance_to_sharp` of the combined
    vector-measure representation, exactly on atomic normal parts.
    """
    plan = plan_from_matching(matching) + plan_from_vector_measure(normal_part)
    flux, _rays = split(plan)
    return flux.total_variation


def tangential_cycle(vertices, circulation: float) -> StructuredVectorMeasure:
    """Closed polygon carrying constant tangential circulation.

    Divergence-free and purely tangential: adding it to any vector measure
    changes neither the represented distribution nor the normal mass.
    """
    verts = [np.asarray(v, dtype=float) for v in vertices]
    if len(verts) < 3:
        raise ValidationError("a cycle needs at least 3 vertices")
    dim = verts[0].size
    segments = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        length = dist(a, b)
        if length == 0.0:
            raise ValidationError("cycle vertices must be distinct")
        segments.append((a, b, circulation * (b - a) / length))
    return StructuredVectorMeasure.build(dim, segments=segments, validate=False)


# ---------------------------------------------------------------------------
# Moduli certifying membership in the closure of balanced measures.


@dataclass(frozen=True)
class ModulusCurve:
    """Samples (eps, c, k): |<T, u>| <= c ||u||_inf + eps Lip(u) with c = 2k.

    ``verified_margin`` is the worst empirical violation observed when the
    curve was checked against sampled Lipschitz functions (nonpositive means
    the bound held), or None when verification was skipped.
    """

    samples: tuple
    verified_margin: Optional[float] = None


def modulus(
    chain: DipoleChain,
    eps_list,
    verify_samples: int = 100,
    seed: int = 0,
) -> ModulusCurve:
    """For each eps, the smallest k whose certified tail is below eps.

    The first k dipoles are absorbed into the uniform term (2 per dipole),
    the remainder into the Lipschitz term.  With an analytic tail any
    positive eps is certifiable (k may exceed the listed pairs); without one
    the whole chain fits already at eps = 0.  Unless `verify_samples` is 0,
    the certified bound is spot-checked on sampled Lipschitz functions with
    known norms; a violation raises, since it would mean the certificate
    itself is wrong.
    """
    m = len(chain)
    samples = []
    for eps in eps_list:
        eps = float(eps)
        if np.isnan(eps):
            raise ValidationError("eps must be a number, got nan")
        if eps < 0.0 or (eps == 0.0 and chain.tail is not None):
            floor = "any eps > 0" if chain.tail is not None else "eps >= 0"
            raise ValidationError(
                f"eps {eps!r} is below the certifiable floor ({floor} for this chain)"
            )
        k = None
        for cand in range(m + 1):
            if chain.tail_bound(cand) <= eps:
                k = cand
                break
        if k is None:
            ratio, first = chain.tail
            cand = m + 1
            while first * ratio**cand > eps:
                cand += 1
            k = cand
        samples.append((eps, 2 * k, k))
    curve = ModulusCurve(samples=tuple(samples))
    if verify_samples > 0 and m > 0:
        margin = verify_modulus_bound(chain, curve, n_samples=verify_samples, seed=seed)
        if margin > 1e-12:
            raise VerificationError(
                f"modulus bound violated by {margin!r} on a sampled function"
            )
        curve = ModulusCurve(samples=curve.samples, verified_margin=margin)
    return curve


class _ClippedAffine:
    """clip(w . x + b, -cap, cap): known sup norm and Lipschitz constant on a box."""

    def __init__(self, w, b, cap, box_lo, box_hi):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self.cap = float(cap)
        corners = _box_corners(np.asarray(box_lo, float), np.asarray(box_hi, float))
        affine = corners @ self.w + self.b
        lo, hi = float(affine.min()), float(affine.max())
        self.sup = max(abs(self._clip(lo)), abs(self._clip(hi)))
        flat = hi <= -self.cap or lo >= self.cap or not np.any(self.w)
        self.lip = 0.0 if flat else vec_norm(self.w)

    def _clip(self, v: float) -> float:
        return max(-self.cap, min(self.cap, v))

    def value(self, point) -> float:
        return self._clip(float(np.dot(self.w, np.asarray(point, dtype=float)) + self.b))


def _box_corners(lo, hi):
    dim = lo.size
    corners = []
    for mask in range(1 << dim):
        corners.append([hi[k] if mask >> k & 1 else lo[k] for k in range(dim)])
    return np.array(corners)


def verify_modulus_bound(
    chain: DipoleChain,
    curve: ModulusCurve,
    n_samples: int = 1000,
    seed: int = 0,
) -> float:
    """Empirically check every modulus sample on random clipped-affine functions.

    Returns the worst violation of
    |<T, u>| + (analytic remainder) * Lip(u) <= c ||u||_inf + eps Lip(u);
    nonpositive means the bound held everywhere (up to the stated slack).
    """
    rng = np.random.default_rng(seed)
    pts = np.array([q for p, n in chain.pairs for q in (p, n)])
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    remainder = chain.tail_bound(len(chain))
    worst = -np.inf
    for eps, c_const, _k in curve.samples:
        for _ in range(n_samples):
            w = rng.normal(size=pts.shape[1])
            w *= rng.uniform(0.5, 2.0) / max(vec_norm(w), 1e-12)
            b = rng.uniform(-1.0, 1.0)
            span = float(np.abs(_box_corners(lo, hi) @ w + b).max())
            cap = rng.uniform(0.3, 0.9) * max(span, 1e-6)
            u = _ClippedAffine(w, b, cap, lo, hi)
            lhs = abs(chain.pair_with(u)) + remainder * u.lip
            rhs = c_const * u.sup + eps * u.lip
            worst = max(worst, lhs - rhs)
    return float(worst)
