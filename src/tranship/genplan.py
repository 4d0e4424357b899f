"""Generalized transport plans: positive measures on (base, direction, length).

A plan atom (x, v, t, m) pairs with a test function through the ray quotient
(phi(x + t v) - phi(x)) / t, degenerating to the directional derivative at
t = 0.  Plans embed both classical transport plans (t > 0 rays) and flux
measures (t = 0 atoms), and convert back to structured vector measures whose
distributional divergence reproduces the same pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ValidationError
from .funcs import TestFunction
from .geom import as_point, dists, ordered_sum, segment_quadrature, vec_norm
from .matchnorm import Matching
from .measures import Distribution, StructuredVectorMeasure, pair

__all__ = [
    "PlanAtom",
    "GeneralizedPlan",
    "ray_quotient",
    "pair_plan",
    "ProjectionReport",
    "verify_projection",
    "plan_from_matching",
    "plan_from_vector_measure",
    "to_vector_measure",
    "split",
]

UNIT_DIR_TOL = 1e-12

FINITE_FAMILY_NOTE = (
    "finite test family: residuals are necessary evidence only, "
    "not a proof of the projection identity"
)


@dataclass(frozen=True)
class PlanAtom:
    """Mass at (base, dir, t): a transport ray for t > 0, a flux element at t = 0."""

    base: np.ndarray
    dir: np.ndarray
    t: float
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "base", as_point(self.base))
        object.__setattr__(self, "dir", as_point(self.dir))
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "mass", float(self.mass))
        if self.base.shape != self.dir.shape:
            raise ValidationError("plan atom base and direction dimension mismatch")
        if abs(vec_norm(self.dir) - 1.0) > UNIT_DIR_TOL:
            raise ValidationError(f"plan atom direction must be unit, |v| = {vec_norm(self.dir)!r}")
        if self.t < 0.0:
            raise ValidationError("plan atom t must be nonnegative")
        if not self.mass > 0.0:
            raise ValidationError("plan atom mass must be positive")

    @property
    def head(self) -> np.ndarray:
        return self.base + self.t * self.dir


@dataclass(frozen=True)
class GeneralizedPlan:
    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __len__(self):
        return len(self.atoms)

    def __add__(self, other: "GeneralizedPlan") -> "GeneralizedPlan":
        return GeneralizedPlan(self.atoms + other.atoms)

    @property
    def total_variation(self) -> float:
        return ordered_sum([atom.mass for atom in self.atoms])


def ray_quotient(func: TestFunction, atom: PlanAtom) -> float:
    """(phi(base + t dir) - phi(base)) / t, or the directional derivative at t = 0."""
    if atom.t == 0.0:
        return float(np.dot(func.gradient(atom.base), atom.dir))
    return (func.value(atom.head) - func.value(atom.base)) / atom.t


def pair_plan(plan: GeneralizedPlan, func: TestFunction) -> float:
    total = 0.0
    for atom in plan.atoms:
        total += atom.mass * ray_quotient(func, atom)
    return total


@dataclass(frozen=True)
class ProjectionReport:
    max_residual: float
    residuals: tuple
    tol: float
    passed: bool
    note: str = FINITE_FAMILY_NOTE


def verify_projection(
    plan: GeneralizedPlan,
    f: Distribution,
    family,
    tol: float,
) -> ProjectionReport:
    """Compare the plan pairing against <f, phi> over a finite test family.

    A passing report is necessary-only evidence for the projection identity;
    it never proves it, and says so.
    """
    family = tuple(family)
    if not family:
        raise ValidationError("verify_projection requires a nonempty test family")
    residuals = tuple(
        abs(pair_plan(plan, func) - pair(f, func)) for func in family
    )
    worst = max(residuals)
    return ProjectionReport(
        max_residual=worst, residuals=residuals, tol=float(tol), passed=worst <= tol
    )


def plan_from_matching(matching: Matching) -> GeneralizedPlan:
    """Embed a transport matching as a plan of rays.

    Each edge from source x to target y with mass m becomes an atom based at
    y, pointing back toward x, with length |x - y| and mass m |x - y|; this
    makes the plan pairing reproduce sum m (phi(x) - phi(y)) identically,
    and the plan's total variation equal the matching cost.
    """
    sources = matching.points[matching.edges[:, 0]]
    targets = matching.points[matching.edges[:, 1]]
    lengths = dists(sources, targets).tolist()
    atoms = []
    for source, target, mass, length in zip(sources, targets, matching.masses.tolist(), lengths):
        if length == 0.0:
            continue
        direction = (source - target) / length
        atoms.append(PlanAtom(base=target, dir=direction, t=length, mass=mass * length))
    return GeneralizedPlan(tuple(atoms))


def plan_from_vector_measure(nu: StructuredVectorMeasure) -> GeneralizedPlan:
    """Embed a vector measure as a plan supported on t = 0.

    Atoms map to flux elements along their direction; segments are sampled at
    the shared quadrature nodes so pairing identities stay exact on the
    polynomial family.  Zero vector atoms are rejected (no direction).
    """
    if nu.cells is not None:
        raise ValidationError("plan embedding does not accept cell fields")
    atoms = []
    for point, vector in zip(nu.atom_points, nu.atom_vectors):
        norm = vec_norm(vector)
        if norm == 0.0:
            raise ValidationError("zero-vector atom has no direction")
        atoms.append(PlanAtom(base=point, dir=vector / norm, t=0.0, mass=norm))
    for a, b, density in zip(nu.seg_a, nu.seg_b, nu.seg_density):
        norm = vec_norm(density)
        if norm == 0.0:
            continue
        direction = density / norm
        pts, w = segment_quadrature(a, b)
        for q, wq in zip(pts, w):
            atoms.append(PlanAtom(base=q, dir=direction, t=0.0, mass=norm * wq))
    return GeneralizedPlan(tuple(atoms))


def to_vector_measure(plan: GeneralizedPlan) -> StructuredVectorMeasure:
    """Vector measure nu with -div nu reproducing the plan pairing.

    Rays (t > 0) become segments from base to head with tangential density
    (mass / t) dir; flux atoms (t = 0) become vector atoms mass * dir.  The
    total variation never exceeds the plan's, with equality when the plan
    comes from an optimal matching.
    """
    atoms = []
    segments = []
    for atom in plan.atoms:
        if atom.t == 0.0:
            atoms.append((atom.base, atom.mass * atom.dir))
        else:
            segments.append((atom.base, atom.head, (atom.mass / atom.t) * atom.dir))
    dim = plan.atoms[0].base.size if plan.atoms else 2
    return StructuredVectorMeasure.build(dim, atoms=atoms, segments=segments, validate=False)


def split(plan: GeneralizedPlan):
    """Partition into (flux part at t = 0, ray part at t > 0); order preserved."""
    flux = tuple(a for a in plan.atoms if a.t == 0.0)
    rays = tuple(a for a in plan.atoms if a.t != 0.0)
    return GeneralizedPlan(flux), GeneralizedPlan(rays)
