import math

import numpy as np
import pytest

from tranship.beckmann import complete_network, flow_to_vector_measure, solve_beckmann
from tranship.errors import ValidationError
from tranship.funcs import Coordinate, Polynomial, polynomial_family
from tranship.genplan import (
    GeneralizedPlan,
    PlanAtom,
    pair_plan,
    plan_from_matching,
    plan_from_vector_measure,
    ray_quotient,
    split,
    to_vector_measure,
    verify_projection,
)
from tranship.matchnorm import dual_potential, minimal_connection
from tranship.measures import (
    Distribution,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    pair,
)
from tranship.testing import random_balanced_measure

X = Coordinate(0, dim=2)


def atom(base, direction, t, mass):
    return PlanAtom(base=np.array(base), dir=np.array(direction), t=t, mass=mass)


class TestRayQuotient:
    def test_ray_against_coordinate(self):
        assert ray_quotient(X, atom((0.0, 0.0), (1.0, 0.0), 2.0, 1.0)) == 1.0

    def test_flux_against_coordinate(self):
        assert ray_quotient(X, atom((0.0, 0.0), (1.0, 0.0), 0.0, 1.0)) == 1.0

    def test_quadratic_closed_form(self):
        phi = Polynomial({(2, 0): 1.0}, dim=2)
        got = ray_quotient(phi, atom((1.0, 0.0), (1.0, 0.0), 1.0, 1.0))
        assert got == 3.0  # (4 - 1) / 1

    def test_continuity_at_zero_ray_length(self, rng):
        phi = Polynomial({(2, 1): 1.0, (1, 0): -0.5, (0, 3): 2.0}, dim=2)
        for _ in range(20):
            base = rng.uniform(-1, 1, size=2)
            d = rng.normal(size=2)
            d /= math.sqrt(float(np.dot(d, d)))
            at_zero = ray_quotient(phi, PlanAtom(base, d, 0.0, 1.0))
            for t in (1e-3, 1e-5, 1e-7):
                near = ray_quotient(phi, PlanAtom(base, d, t, 1.0))
                assert abs(near - at_zero) <= 50.0 * t


class TestPairPlan:
    def test_single_ray(self):
        plan = GeneralizedPlan((atom((0.0, 0.0), (1.0, 0.0), 2.0, 2.0),))
        assert pair_plan(plan, X) == 2.0

    def test_empty_plan(self):
        assert pair_plan(GeneralizedPlan(()), X) == 0.0

    def test_unit_dipole_embedding_sign(self, unit_dipole):
        # <f, x> = phi(0,0) - phi(1,0) = -1
        plan = plan_from_matching(minimal_connection(unit_dipole))
        assert pair_plan(plan, X) == -1.0
        assert pair_plan(plan, X) == pair(Distribution.from_measure(unit_dipole), X)


class TestFromMatching:
    def test_edge_becomes_backward_ray(self, unit_dipole):
        plan = plan_from_matching(minimal_connection(unit_dipole))
        assert len(plan) == 1
        a = plan.atoms[0]
        assert a.base.tolist() == [1.0, 0.0]
        assert a.dir.tolist() == [-1.0, 0.0]
        assert a.t == 1.0 and a.mass == 1.0

    def test_diagonal_edge_mass(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 2.0), ((1.0, 1.0), -2.0)])
        plan = plan_from_matching(minimal_connection(f))
        a = plan.atoms[0]
        assert abs(a.mass - 2.0 * math.sqrt(2.0)) <= 1e-15
        assert abs(a.t - math.sqrt(2.0)) <= 1e-16

    def test_optimal_plan_total_variation_is_the_norm(self, reconnection):
        matching = minimal_connection(reconnection)
        plan = plan_from_matching(matching)
        assert plan.total_variation == matching.cost == 2.0

    def test_embedding_identity_on_random_instances(self, rng):
        family = polynomial_family(2, 3)
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=6)
            matching = minimal_connection(f)
            plan = plan_from_matching(matching)
            for func in family:
                expected = 0.0
                for (i, j), mass in zip(matching.edges, matching.masses):
                    s, t = matching.points[i], matching.points[j]
                    expected += mass * (func.value(s) - func.value(t))
                got = pair_plan(plan, func)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_admissible_plans_dominate_the_dual_value(self, rng):
        # every admissible plan's mass is at least the dual value; the one from
        # the optimal matching attains it
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=5)
            _, value = dual_potential(f)
            optimal = plan_from_matching(minimal_connection(f))
            assert optimal.total_variation >= value - 1e-7 * max(1.0, value)
            assert abs(optimal.total_variation - value) <= 1e-7 * max(1.0, value)
            net = complete_network(f)
            sigma_flow = plan_from_vector_measure(
                flow_to_vector_measure(net, solve_beckmann(net))
            )
            assert sigma_flow.total_variation >= value - 1e-7 * max(1.0, value)


class TestFromVectorMeasure:
    def test_atom_embedding(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        plan = plan_from_vector_measure(nu)
        assert len(plan) == 1
        a = plan.atoms[0]
        assert a.t == 0.0 and a.mass == 2.0
        assert a.dir.tolist() == [0.0, 1.0]

    def test_segment_masses_sum_to_variation(self):
        nu = StructuredVectorMeasure.build(
            2, segments=[((0.0, 0.0), (1.0, 0.0), (1.0, 0.0))]
        )
        plan = plan_from_vector_measure(nu)
        assert len(plan) == 8
        assert all(a.t == 0.0 for a in plan.atoms)
        assert abs(plan.total_variation - 1.0) <= 1e-13

    def test_zero_vector_atom_rejected(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 0.0))])
        with pytest.raises(ValidationError):
            plan_from_vector_measure(nu)

    def test_beckmann_flow_embeds_as_flux_only_plan(self, rng):
        f = random_balanced_measure(rng, max_pairs=5)
        net = complete_network(f)
        flow = solve_beckmann(net)
        plan = plan_from_vector_measure(flow_to_vector_measure(net, flow))
        flux, rays = split(plan)
        assert len(rays) == 0
        expected = minimal_connection(f).cost
        assert abs(plan.total_variation - expected) <= 1e-7 * max(1.0, expected)
        # and the pairing matches <f, phi> on the family
        f_dist = Distribution.from_measure(f)
        for func in polynomial_family(2, 3):
            assert abs(pair_plan(plan, func) - pair(f_dist, func)) <= 1e-9


class TestToVectorMeasure:
    def test_ray_becomes_tangential_segment(self):
        plan = GeneralizedPlan((atom((0.0, 0.0), (1.0, 0.0), 2.0, 2.0),))
        nu = to_vector_measure(plan)
        assert nu.n_segments == 1 and nu.n_atoms == 0
        assert nu.seg_a[0].tolist() == [0.0, 0.0]
        assert nu.seg_b[0].tolist() == [2.0, 0.0]
        assert nu.seg_density[0].tolist() == [1.0, 0.0]
        assert abs(nu.total_variation - 2.0) <= 1e-15

    def test_flux_becomes_vector_atom(self):
        plan = GeneralizedPlan((atom((1.0, 1.0), (0.0, 1.0), 0.0, 3.0),))
        nu = to_vector_measure(plan)
        assert nu.n_atoms == 1 and nu.n_segments == 0
        assert nu.atom_points[0].tolist() == [1.0, 1.0]
        assert nu.atom_vectors[0].tolist() == [0.0, 3.0]

    def test_round_trip_through_optimal_matching(self, rng):
        family = polynomial_family(2, 3)
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=6)
            matching = minimal_connection(f)
            plan = plan_from_matching(matching)
            nu = to_vector_measure(plan)
            assert abs(nu.total_variation - matching.cost) <= 1e-9 * max(1.0, matching.cost)
            f_dist = Distribution.from_measure(f)
            nu_dist = Distribution.from_divergence(nu)
            for func in family:
                assert abs(pair(nu_dist, func) - pair(f_dist, func)) <= 1e-10

    def test_variation_never_exceeds_plan_mass(self, rng):
        for _ in range(20):
            atoms = []
            for _k in range(int(rng.integers(1, 6))):
                d = rng.normal(size=2)
                d /= math.sqrt(float(np.dot(d, d)))
                atoms.append(
                    PlanAtom(
                        rng.uniform(0, 1, size=2),
                        d,
                        float(rng.choice([0.0, rng.uniform(0.1, 1.0)])),
                        float(rng.uniform(0.1, 2.0)),
                    )
                )
            plan = GeneralizedPlan(tuple(atoms))
            nu = to_vector_measure(plan)
            assert nu.total_variation <= plan.total_variation * (1.0 + 1e-12)


class TestSplit:
    def test_mixed_plan(self):
        plan = GeneralizedPlan(
            (
                atom((0.0, 0.0), (1.0, 0.0), 0.0, 1.5),
                atom((0.0, 0.0), (1.0, 0.0), 2.0, 2.5),
            )
        )
        flux, rays = split(plan)
        assert len(flux) == 1 and len(rays) == 1
        assert flux.total_variation + rays.total_variation == 4.0

    def test_all_rays(self):
        plan = GeneralizedPlan((atom((0.0, 0.0), (1.0, 0.0), 1.0, 1.0),))
        flux, rays = split(plan)
        assert len(flux) == 0 and len(rays) == 1


class TestVerifyProjection:
    def test_matched_pair_passes(self, rng):
        family = polynomial_family(2, 3)
        f = random_balanced_measure(rng, max_pairs=5)
        plan = plan_from_matching(minimal_connection(f))
        report = verify_projection(plan, Distribution.from_measure(f), family, tol=1e-10)
        assert report.passed
        assert report.max_residual <= 1e-10
        assert "necessary" in report.note

    def test_perturbed_mass_fails(self, unit_dipole):
        matching = minimal_connection(unit_dipole)
        plan = plan_from_matching(matching)
        bad = GeneralizedPlan(
            (PlanAtom(plan.atoms[0].base, plan.atoms[0].dir, plan.atoms[0].t, plan.atoms[0].mass + 0.1),)
        )
        family = polynomial_family(2, 3)
        report = verify_projection(bad, Distribution.from_measure(unit_dipole), family, tol=1e-10)
        assert not report.passed
        assert report.max_residual >= 0.1 * 0.999  # the coordinate monomial sees it

    def test_zero_against_zero_passes(self):
        report = verify_projection(
            GeneralizedPlan(()),
            Distribution.from_measure(SignedAtomMeasure.empty()),
            polynomial_family(2, 2),
            tol=0.0,
        )
        assert report.passed and report.max_residual == 0.0

    def test_empty_family_rejected(self, unit_dipole):
        with pytest.raises(ValidationError):
            verify_projection(
                GeneralizedPlan(()),
                Distribution.from_measure(unit_dipole),
                (),
                tol=1e-9,
            )


class TestPlanAtomValidation:
    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValidationError):
            PlanAtom(np.zeros(2), np.array([1.0, 1.0]), 1.0, 1.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValidationError):
            PlanAtom(np.zeros(2), np.array([1.0, 0.0]), -1.0, 1.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValidationError):
            PlanAtom(np.zeros(2), np.array([1.0, 0.0]), 1.0, 0.0)
