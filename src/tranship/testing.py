"""Seeded instance generators shared by the self-test suites and the tests,
and the built-in verification suites that ``tranship selftest`` runs."""

from __future__ import annotations

import numpy as np

from .beckmann import complete_network, solve_beckmann
from .density import rasterize_plan
from .funcs import polynomial_family
from .genplan import plan_from_matching, to_vector_measure
from .geom import Domain, Grid, dist
from .matchnorm import brute_force_connection, dual_potential, minimal_connection
from .measures import Distribution, SignedAtomMeasure, StructuredVectorMeasure, pair

__all__ = [
    "random_balanced_measure",
    "random_unit_dipole_measure",
    "random_dipole",
    "certified_instance",
    "GOLDEN",
    "SUITES",
]

# normal vector atoms in a certified_instance
_N_NORMAL = 3


def random_balanced_measure(rng: np.random.Generator, max_pairs: int = 15) -> SignedAtomMeasure:
    """Balanced measure with distinct random masses in the unit box."""
    n_pos = int(rng.integers(1, max_pairs + 1))
    n_neg = int(rng.integers(1, max_pairs + 1))
    pos_mass = rng.uniform(0.05, 1.0, size=n_pos)
    neg_mass = rng.uniform(0.05, 1.0, size=n_neg)
    neg_mass *= pos_mass.sum() / neg_mass.sum()
    points = rng.uniform(0.0, 1.0, size=(n_pos + n_neg, 2))
    return SignedAtomMeasure(points, np.concatenate([pos_mass, -neg_mass]))


def random_unit_dipole_measure(rng: np.random.Generator, max_pairs: int = 7) -> SignedAtomMeasure:
    """Unit-mass dipole collection in the unit box."""
    k = int(rng.integers(1, max_pairs + 1))
    points = rng.uniform(0.0, 1.0, size=(2 * k, 2))
    masses = np.concatenate([np.ones(k), -np.ones(k)])
    return SignedAtomMeasure(points, masses)


def random_dipole(rng: np.random.Generator, max_distance: float = 5.0):
    """A single +/- pair at controlled separation; returns (measure, distance)."""
    p = rng.uniform(0.0, 1.0, size=2)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    r = rng.uniform(1e-3, max_distance)
    n = p + r * np.array([np.cos(angle), np.sin(angle)])
    f = SignedAtomMeasure(np.array([p, n]), np.array([1.0, -1.0]))
    return f, dist(p, n)


def certified_instance(rng: np.random.Generator, max_pairs: int = 6):
    """Tangential transport plus well-separated normal atoms.

    Returns (nu, matching, normal_part): `nu` combines the optimal transport
    segments of a random balanced measure with far-away vector atoms, so the
    norm additivity of the tangential/normal decomposition is certifiable by
    an explicit Lipschitz witness.  The ``_N_NORMAL`` normal atoms sit on a
    line at x >= 4, farther from the unit box than any potential value can
    reach, and 10 bump radii apart from each other.
    """
    f = random_balanced_measure(rng, max_pairs=max_pairs)
    matching = minimal_connection(f)
    nu_t = to_vector_measure(plan_from_matching(matching))
    atoms = []
    for k in range(_N_NORMAL):
        z = np.array([4.0 + 2.0 * k, rng.uniform(0.0, 1.0)])
        vec = rng.normal(size=2)
        vec *= rng.uniform(0.5, 2.0) / np.sqrt(np.dot(vec, vec))
        atoms.append((z, vec))
    normal_part = StructuredVectorMeasure.build(2, atoms=atoms, validate=False)
    nu = nu_t + normal_part
    return nu, matching, normal_part


# ---------------------------------------------------------------------------
# Built-in verification suites.  Each takes a seed and the golden values and
# returns a JSON-ready dict with a "passed" entry.

GOLDEN = {
    "reconnection_cost": 2.0,
    "unit_dipole_cost": 1.0,
}


def suite_duality(seed: int, golden: dict) -> dict:
    """Matching, dual LP and complete-graph flow agree on random measures."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        f = random_balanced_measure(rng, max_pairs=8)
        matching = minimal_connection(f)
        _, dual_value = dual_potential(f)
        flow = solve_beckmann(complete_network(f))
        scale = max(1.0, matching.cost)
        worst = max(
            worst,
            abs(matching.cost - dual_value) / scale,
            abs(matching.cost - flow.cost) / scale,
        )
    rec = minimal_connection(reconnection_measure())
    gap = abs(rec.cost - golden["reconnection_cost"])
    return {"max_rel_gap": worst, "golden_gap": gap, "passed": worst <= 1e-7 and gap <= 1e-12}


def reconnection_measure() -> SignedAtomMeasure:
    """Two unit dipoles 10 apart whose optimal connection reconnects them."""
    return SignedAtomMeasure.from_atoms(
        [((0.0, 0.0), 1.0), ((10.0, 0.0), -1.0), ((10.0, 1.0), 1.0), ((0.0, 1.0), -1.0)]
    )


def suite_oracle(seed: int, golden: dict) -> dict:
    """The flow's cost equals brute-force matching on unit-mass measures."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(50):
        f = random_unit_dipole_measure(rng, max_pairs=6)
        if minimal_connection(f).cost != brute_force_connection(f):
            mismatches += 1
    single = minimal_connection(unit_dipole_measure()).cost
    gap = abs(single - golden["unit_dipole_cost"])
    return {"mismatches": mismatches, "golden_gap": gap, "passed": mismatches == 0 and gap <= 1e-12}


def unit_dipole_measure() -> SignedAtomMeasure:
    return SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((1.0, 0.0), -1.0)])


def suite_raster(seed: int, golden: dict) -> dict:
    """The rasterized transport density's total mass equals the cost."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        f = random_balanced_measure(rng, max_pairs=8)
        matching = minimal_connection(f)
        grid = Grid(Domain.from_geometry(f.points), (32, 32))
        result = rasterize_plan(matching, grid)
        worst = max(worst, abs(result.total - matching.cost) / max(1.0, matching.cost))
    return {"max_rel_gap": worst, "passed": worst <= 1e-12}


def suite_roundtrip(seed: int, golden: dict) -> dict:
    """The optimal plan's vector measure has the measure as its divergence."""
    rng = np.random.default_rng(seed)
    family = polynomial_family(2, 3)
    worst = 0.0
    for _ in range(10):
        f = random_balanced_measure(rng, max_pairs=6)
        matching = minimal_connection(f)
        plan = plan_from_matching(matching)
        nu = to_vector_measure(plan)
        f_dist = Distribution.from_measure(f)
        div_dist = Distribution.from_divergence(nu)
        for func in family:
            worst = max(worst, abs(pair(div_dist, func) - pair(f_dist, func)))
    return {"max_residual": worst, "passed": worst <= 1e-10}


SUITES = {
    "duality": suite_duality,
    "oracle": suite_oracle,
    "raster": suite_raster,
    "roundtrip": suite_roundtrip,
}
