"""Tangential/normal structure of vector measures and distances to the
closure of balanced measures.

On the structured class the tangent space of the total variation is known
cell by cell: atoms carry tangent space {0}, segments the span of their
direction, volume cells all of R^N.  Splitting a vector measure accordingly
gives the distance from -div(nu) to the space of divergences of tangential
measures as the plain normal mass, and the same number falls out of the
flux part of any generalized plan built over the instance -- both are
computed here and cross-checked in the tests.

:func:`decompose` certifies that the transport norms of the two summands add
by pairing with one explicit 1-Lipschitz witness, a :class:`ConeWitness`: the
positive part of an upper envelope of unit cones, one per support point of
the tangential divergence (its matching potential) and one per normal atom.
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
    "ConeWitness",
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
# Lipschitz witnesses: the positive part of an upper envelope of unit cones.


@dataclass(frozen=True)
class ConeWitness:
    """max(0, max_i (heights_i - |x - apexes_i|)): 1-Lipschitz by construction.

    ``apexes`` is ``(n, dim)`` and ``heights`` ``(n,)``.  The gradient is
    that of the first maximal cone, or zero where the floor wins or at that
    cone's apex; it is only meant to be evaluated where the winner is locally
    smooth, which the constructions below arrange.
    """

    apexes: np.ndarray
    heights: np.ndarray

    def _cones(self, point) -> np.ndarray:
        return self.heights - dists(point, self.apexes)

    def value(self, point) -> float:
        return max(0.0, float(np.max(self._cones(point), initial=-np.inf)))

    def gradient(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        cones = self._cones(point)
        if not np.any(cones > 0.0):
            return np.zeros(point.size)
        d = point - self.apexes[np.argmax(cones)]
        r = vec_norm(d)
        if r == 0.0:
            return np.zeros(point.size)
        return -d / r


def _coned_atoms(atom_points, atom_vectors):
    """The atoms that get a witness cone: a zero vector pairs to 0 with any
    gradient, so its atom needs no cone and no room for one."""
    nonzero = np.any(atom_vectors != 0.0, axis=1)
    return atom_points[nonzero], atom_vectors[nonzero]


def _atom_cones(atom_points, atom_vectors, radius: float):
    """Apexes `radius`/2 along each atom's unit vector, all of height `radius`;
    zero-vector atoms get no cone (:func:`_coned_atoms`)."""
    points, vectors = _coned_atoms(atom_points, atom_vectors)
    direction = vectors / dists(vectors, 0.0)[:, None]
    apexes = points + 0.5 * radius * direction
    return apexes, np.full(len(apexes), float(radius))


def normal_witness(nu_normal: StructuredVectorMeasure, radius: float) -> ConeWitness:
    """Witness with unit gradient aligned to each normal atom's vector.

    Each atom gets a cone whose apex sits `radius`/2 along the atom vector, so
    the gradient at the atom is the unit vector of its density; the cone is
    positive only within 1.5 * radius of the atom.
    """
    return ConeWitness(*_atom_cones(nu_normal.atom_points, nu_normal.atom_vectors, radius))


def additivity_witness(
    potential_points, potential_values, atom_points, atom_vectors, radius: float
) -> ConeWitness:
    """Witness achieving the matching value on the support and |vector| at each
    separated normal atom, with Lipschitz constant 1 by construction.

    The support cones come first, so they win ties with the atom cones.
    """
    apexes, heights = _atom_cones(atom_points, atom_vectors, radius)
    return ConeWitness(
        np.concatenate([potential_points, apexes]),
        np.concatenate([potential_values, heights]),
    )


# ---------------------------------------------------------------------------
# Decomposition f = f_T + f_N with an optimality certificate.


@dataclass(frozen=True)
class Decomposition:
    tangential: Distribution  # -div of the tangential part
    normal: Distribution  # -div of the normal part
    normal_mass: float
    certified: bool
    witness_value: Optional[float] = None
    claimed_value: Optional[float] = None


def decompose(nu: StructuredVectorMeasure) -> Decomposition:
    """Split -div(nu) into tangential and normal summands.

    The split itself is always defined.  The additivity of the transport norms
    of the two summands additionally requires `nu` to be a norm-optimal
    representation: a 1-Lipschitz dual witness is built (matching potential
    on the tangential support, aligned cones at the normal atoms) and the
    result is tagged certified only if the witness value reaches the claimed
    total.  Uncertified results are still returned.
    """
    parts = tangential_split(nu)
    witness_value, claimed = _try_certify(parts)
    certified = (
        witness_value is not None
        and abs(witness_value - claimed) <= 1e-8 * max(1.0, abs(claimed))
    )
    return Decomposition(
        Distribution.from_divergence(parts.tangential),
        Distribution.from_divergence(parts.normal),
        parts.normal_mass,
        certified=certified,
        witness_value=witness_value,
        claimed_value=claimed,
    )


def _try_certify(parts: TangentialSplit):
    if parts.tangential.cells is not None:
        return None, None
    normal = parts.normal
    if np.any(dists(normal.seg_density, 0.0) * normal.segment_lengths > 0):
        return None, None  # cone witnesses only cover atomic normal parts
    converted = divergence_as_measure(parts.tangential)
    if isinstance(converted, NotAMeasure):
        return None, None
    matching = minimal_connection(converted)
    radius = _separation_radius(
        converted.points, _coned_atoms(normal.atom_points, normal.atom_vectors)[0]
    )
    if radius <= 0.0:
        return None, None
    witness = additivity_witness(
        converted.points, matching.potential, normal.atom_points, normal.atom_vectors, radius
    )
    zeros = np.zeros((0, normal.dim))
    atoms = StructuredVectorMeasure(
        normal.dim, normal.atom_points, normal.atom_vectors, zeros, zeros, zeros, validate=False
    )
    witness_value = pair(Distribution(converted, atoms), witness)
    claimed = matching.cost + parts.normal_mass
    return witness_value, claimed


def _separation_radius(support_points, atom_points) -> float:
    i, j = np.triu_indices(len(atom_points), 1)
    d_min = float(min(
        np.min(dists(atom_points[i], atom_points[j]), initial=np.inf),
        np.min(dists(atom_points[:, None], support_points[None]), initial=np.inf),
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
    the bound held), or None for an empty chain, which pairs to zero.
    """

    samples: tuple
    verified_margin: Optional[float] = None


def modulus(chain: DipoleChain, eps_list, seed: int = 0) -> ModulusCurve:
    """For each eps, the smallest k whose certified tail is below eps.

    The first k dipoles are absorbed into the uniform term (2 per dipole),
    the remainder into the Lipschitz term.  With an analytic tail any
    positive eps is certifiable (k may exceed the listed pairs); without one
    the whole chain fits already at eps = 0.  The certified bound is
    spot-checked on sampled Lipschitz functions with known norms; a violation
    raises, since it would mean the certificate itself is wrong.
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
        k = 0
        while chain.tail_bound(k) > eps:
            k += 1
        samples.append((eps, 2 * k, k))
    curve = ModulusCurve(samples=tuple(samples))
    if m > 0:
        margin = verify_modulus_bound(chain, curve, n_samples=100, seed=seed)
        if margin > 1e-12:
            raise VerificationError(
                f"modulus bound violated by {margin!r} on a sampled function"
            )
        curve = ModulusCurve(samples=curve.samples, verified_margin=margin)
    return curve


class _ClippedAffine:
    """clip(w . x + b, -cap, cap): known sup norm and Lipschitz constant on the
    box whose ``corners`` (rows) are given."""

    def __init__(self, w, b, cap, corners):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self.cap = float(cap)
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
    corners = _box_corners(lo, hi)
    remainder = chain.tail_bound(len(chain))
    worst = -np.inf
    for eps, c_const, _k in curve.samples:
        for _ in range(n_samples):
            w = rng.normal(size=pts.shape[1])
            w *= rng.uniform(0.5, 2.0) / max(vec_norm(w), 1e-12)
            b = rng.uniform(-1.0, 1.0)
            span = float(np.abs(corners @ w + b).max())
            cap = rng.uniform(0.3, 0.9) * max(span, 1e-6)
            u = _ClippedAffine(w, b, cap, corners)
            lhs = abs(chain.pair_with(u)) + remainder * u.lip
            rhs = c_const * u.sup + eps * u.lip
            worst = max(worst, lhs - rhs)
    return float(worst)
