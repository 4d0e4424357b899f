"""Generalized transport plans: positive measures on (base, direction, length).

A plan atom (x, v, t, m) pairs with a test function through the ray quotient
(phi(x + t v) - phi(x)) / t, degenerating to the directional derivative at
t = 0.  Plans embed both classical transport plans (t > 0 rays) and flux
measures (t = 0 atoms), and convert back to structured vector measures whose
distributional divergence reproduces the same pairing.  A plan is stored as
columns, one row per atom, like :class:`~tranship.matchnorm.Matching`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ValidationError
from .funcs import TestFunction
from .geom import dists, ordered_sum, segment_quadrature, vec_norm
from .measures import Distribution, StructuredVectorMeasure, pair

if TYPE_CHECKING:
    from .matchnorm import Matching

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


class PlanAtom(NamedTuple):
    """One plan row: a transport ray for t > 0, a flux element at t = 0."""

    base: np.ndarray
    dir: np.ndarray
    t: float
    mass: float


@dataclass(frozen=True, eq=False)
class GeneralizedPlan:
    """Atom i at ``(base[i], dir[i], t[i], mass[i])``: read-only ``(n, dim)`` points
    and directions, ``(n,)`` lengths and masses.  Bases must be finite,
    directions unit, t finite and nonnegative and masses finite and positive;
    the first atom that breaks a rule names it."""

    base: np.ndarray
    dir: np.ndarray
    t: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        base, direction, t, mass = (np.array(c, dtype=float) for c in self._columns())
        if not (base.ndim == 2 and direction.shape == base.shape
                and t.shape == mass.shape == base.shape[:1]):
            raise ValidationError("plan atom base and direction dimension mismatch")
        norms = dists(direction, 0.0)
        failed = np.stack([~np.isfinite(base).all(axis=1), ~(np.abs(norms - 1.0) <= UNIT_DIR_TOL),
                           ~(np.isfinite(t) & (t >= 0.0)), ~(np.isfinite(mass) & (mass > 0.0))],
                          axis=1)
        if failed.any():
            i, rule = np.argwhere(failed)[0]
            raise ValidationError((
                f"point has non-finite coordinates: {base[i].tolist()!r}",
                f"plan atom direction must be unit, |v| = {vec_norm(direction[i])!r}",
                f"plan atom t must be nonnegative and finite, got {t[i].item()!r}",
                f"plan atom mass must be positive and finite, got {mass[i].item()!r}",
            )[rule])
        for name, column in zip(("base", "dir", "t", "mass"), (base, direction, t, mass)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @staticmethod
    def from_atoms(atoms, dim: int) -> "GeneralizedPlan":
        """The plan of (base, dir, t, mass) rows such as :class:`PlanAtom`s,
        in `dim` dimensions."""
        base, direction, t, mass = tuple(zip(*atoms)) or ((),) * 4
        try:
            points = [np.array(c, float).reshape(len(c), dim) for c in (base, direction)]
        except ValueError as exc:
            raise ValidationError(f"plan atoms need {dim}-d base and direction") from exc
        return GeneralizedPlan(*points, t, mass)

    def _columns(self) -> tuple:
        return self.base, self.dir, self.t, self.mass

    @property
    def atoms(self) -> tuple:
        """The rows as :class:`PlanAtom`s, with Python-float t and mass."""
        return tuple(map(PlanAtom, self.base, self.dir, self.t.tolist(), self.mass.tolist()))

    def __len__(self):
        return len(self.t)

    def __add__(self, other: "GeneralizedPlan") -> "GeneralizedPlan":
        return GeneralizedPlan(*map(np.concatenate, zip(self._columns(), other._columns())))

    @property
    def total_variation(self) -> float:
        return ordered_sum(self.mass)


def _ray_quotients(func: TestFunction, plan: GeneralizedPlan) -> np.ndarray:
    """The ray quotient of every atom, from one call of `func` per kind."""
    flux = plan.t == 0.0
    quotients = np.empty(len(plan))
    quotients[flux] = np.vecdot(func.gradient(plan.base[flux]), plan.dir[flux])
    base, direction, t = plan.base[~flux], plan.dir[~flux], plan.t[~flux]
    quotients[~flux] = (func.value(base + t[:, None] * direction) - func.value(base)) / t
    return quotients


def ray_quotient(func: TestFunction, atom: PlanAtom) -> float:
    """(phi(base + t dir) - phi(base)) / t, or the directional derivative at t = 0."""
    return float(_ray_quotients(func, GeneralizedPlan.from_atoms((atom,), len(atom.base)))[0])


def pair_plan(plan: GeneralizedPlan, func: TestFunction) -> float:
    """sum of mass * ray quotient over the plan's atoms, added in order."""
    return ordered_sum(plan.mass * _ray_quotients(func, plan)) if len(plan) else 0.0


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
    and the plan's total variation equal the matching cost.  Zero-length
    edges are dropped.
    """
    lengths = dists(*matching.points[matching.edges.T])
    keep = lengths != 0.0
    sources, targets = matching.points[matching.edges[keep].T]
    lengths = lengths[keep]
    direction = (sources - targets) / lengths[:, None]
    return GeneralizedPlan(targets, direction, lengths, matching.masses[keep] * lengths)


def plan_from_vector_measure(nu: StructuredVectorMeasure) -> GeneralizedPlan:
    """Embed a vector measure as a plan supported on t = 0.

    Atoms map to flux elements along their direction; segments are sampled at
    the shared quadrature nodes so pairing identities stay exact on the
    polynomial family.  Zero vector atoms are rejected (no direction).
    """
    if nu.cells is not None:
        raise ValidationError("plan embedding does not accept cell fields")
    norms = dists(nu.atom_vectors, 0.0)
    if np.any(norms == 0.0):
        raise ValidationError("zero-vector atom has no direction")
    seg_norms = dists(nu.seg_density, 0.0)
    live = seg_norms != 0.0  # a zero density carries no mass
    points, weights = segment_quadrature(nu.seg_a[live], nu.seg_b[live])
    directions = np.repeat(nu.seg_density[live] / seg_norms[live, None], weights.shape[1], axis=0)
    return GeneralizedPlan(
        np.concatenate([nu.atom_points, points.reshape(-1, nu.dim)]),
        np.concatenate([nu.atom_vectors / norms[:, None], directions]),
        np.zeros(len(norms) + weights.size),
        np.concatenate([norms, (seg_norms[live, None] * weights).ravel()]),
    )


def to_vector_measure(plan: GeneralizedPlan) -> StructuredVectorMeasure:
    """Vector measure nu with -div nu reproducing the plan pairing.

    Rays (t > 0) become segments from base to head with tangential density
    (mass / t) dir; flux atoms (t = 0) become vector atoms mass * dir.  The
    total variation never exceeds the plan's, with equality when the plan
    comes from an optimal matching.
    """
    flux, rays = split(plan)
    t = rays.t[:, None]
    return StructuredVectorMeasure(
        plan.base.shape[1], flux.base, flux.mass[:, None] * flux.dir,
        rays.base, rays.base + t * rays.dir, (rays.mass[:, None] / t) * rays.dir, validate=False,
    )


def split(plan: GeneralizedPlan):
    """Partition into (flux part at t = 0, ray part at t > 0); order preserved."""
    flux = plan.t == 0.0
    return tuple(GeneralizedPlan(*(c[keep] for c in plan._columns())) for keep in (flux, ~flux))
