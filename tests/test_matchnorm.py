import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tranship.errors import UnbalancedMeasureError, ValidationError
from tranship.geom import dist, dists
from tranship.matchnorm import (
    _pair_constraints,
    brute_force_connection,
    dual_potential,
    flat_norm,
    minimal_connection,
)
from tranship.measures import SignedAtomMeasure
from tranship.testing import random_balanced_measure, random_unit_dipole_measure


def flat_norm_dipole_oracle(d, convention="max"):
    """Exact LP optimum for a single dipole by vertex enumeration.

    max-form feasible set: |u_p| <= 1, |u_n| <= 1, |u_p - u_n| <= d.
    All vertices are intersections of two active constraints; enumerate and
    take the best feasible one.
    """
    if convention == "max":
        cons = [
            ("up", 1.0),
            ("up", -1.0),
            ("un", 1.0),
            ("un", -1.0),
            ("diff", d),
            ("diff", -d),
        ]
        cands = []
        for (ka, va), (kb, vb) in itertools.combinations(cons, 2):
            sol = _solve_two(ka, va, kb, vb)
            if sol is not None:
                cands.append(sol)
        best = -np.inf
        for up, un in cands:
            if abs(up) <= 1 + 1e-12 and abs(un) <= 1 + 1e-12 and abs(up - un) <= d + 1e-12:
                best = max(best, up - un)
        return best
    raise NotImplementedError


def _solve_two(ka, va, kb, vb):
    # constraints as equalities: up = va / un = va / up - un = va
    eqs = {ka: va, kb: vb}
    if ka == kb:
        return None
    up = eqs.get("up")
    un = eqs.get("un")
    diff = eqs.get("diff")
    if up is not None and un is not None:
        return up, un
    if up is not None and diff is not None:
        return up, up - diff
    if un is not None and diff is not None:
        return un + diff, un
    return None


class TestMinimalConnection:
    def test_unit_dipole(self, unit_dipole):
        m = minimal_connection(unit_dipole)
        assert m.cost == 1.0
        assert len(m.edges) == 1

    def test_reconnection_beats_given_pairing(self, reconnection):
        # oracle first: both pairings enumerated give min(20, 2) = 2
        d_given = dist((0.0, 0.0), (10.0, 0.0)) + dist((10.0, 1.0), (0.0, 1.0))
        d_cross = dist((0.0, 0.0), (0.0, 1.0)) + dist((10.0, 1.0), (10.0, 0.0))
        assert (d_given, d_cross) == (20.0, 2.0)
        m = minimal_connection(reconnection)
        assert m.cost == 2.0
        targets = {tuple(e[1]) for e in m.edges}
        assert targets == {(0.0, 1.0), (10.0, 0.0)}

    def test_mass_two_dipole(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 2.0), ((3.0, 4.0), -2.0)])
        m = minimal_connection(f)
        assert m.cost == 10.0

    def test_unbalanced_rejected(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((1.0, 0.0), -0.5)])
        with pytest.raises(UnbalancedMeasureError):
            minimal_connection(f)

    def test_empty_measure(self):
        m = minimal_connection(SignedAtomMeasure.empty())
        assert m.cost == 0.0 and len(m.edges) == 0

    def test_edge_conservation_general_masses(self, rng):
        for _ in range(20):
            f = random_balanced_measure(rng, max_pairs=6)
            m = minimal_connection(f)
            out = {}
            inc = {}
            for s, t, mass in m.edges:
                assert mass > 0
                out[tuple(s)] = out.get(tuple(s), 0.0) + mass
                inc[tuple(t)] = inc.get(tuple(t), 0.0) + mass
            for p, mass in zip(f.points, f.masses):
                if mass > 0:
                    assert abs(out[tuple(p)] - mass) <= 1e-9 * max(1.0, mass)
                else:
                    assert abs(inc[tuple(p)] + mass) <= 1e-9 * max(1.0, -mass)

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(100):
            f = random_unit_dipole_measure(rng, max_pairs=6)
            assert minimal_connection(f).cost == brute_force_connection(f)


def certificate_instance(kind: str) -> SignedAtomMeasure:
    rng = np.random.default_rng({"distinct": 31, "equal": 32, "3d": 33, "large": 34}[kind])
    if kind == "distinct":
        return random_balanced_measure(rng, max_pairs=12)
    if kind == "equal":
        return random_unit_dipole_measure(rng, max_pairs=12)
    n_pos, n_neg, dim = {"3d": (9, 14, 3), "large": (110, 100, 2)}[kind]
    pos_mass = rng.uniform(0.05, 1.0, size=n_pos)
    neg_mass = rng.uniform(0.05, 1.0, size=n_neg)
    neg_mass *= pos_mass.sum() / neg_mass.sum()
    points = rng.uniform(0.0, 1.0, size=(n_pos + n_neg, dim))
    return SignedAtomMeasure(points, np.concatenate([pos_mass, -neg_mass]))


class TestConnectionPotential:
    """The potential minimal_connection returns certifies its cost offline."""

    @pytest.mark.parametrize("kind", ["distinct", "equal", "3d", "large"])
    def test_potential_certifies_the_cost(self, kind):
        f = certificate_instance(kind)
        m = minimal_connection(f)
        u = m.potential
        pts = f.points
        assert u.shape == (len(f),) and u.min() == 0.0
        d = dists(pts[:, None], pts[None])
        assert np.max(u[:, None] - u[None] - d) <= 1e-12
        scale = max(1.0, float(d.max()))
        index = {tuple(p): k for k, p in enumerate(pts)}
        for s, t, _mass in m.edges:
            drop = u[index[tuple(s)]] - u[index[tuple(t)]]
            assert abs(drop - dist(s, t)) <= 1e-12 * scale
        value = float(np.sum(f.masses * u))
        assert abs(value - m.cost) <= 1e-12 * m.cost
        _, lp_value = dual_potential(f)
        assert abs(value - lp_value) <= 1e-9 * lp_value

    def test_instances_have_the_intended_shape(self):
        assert len(certificate_instance("large")) >= 200
        assert certificate_instance("3d").dim == 3
        _, pos_mass = certificate_instance("equal").positive_part()
        assert len(pos_mass) > 1 and np.all(pos_mass == 1.0)
        _, pos_mass = certificate_instance("distinct").positive_part()
        assert len(np.unique(pos_mass)) == len(pos_mass) > 1

    def test_potential_is_read_only_and_empty_for_empty_measure(self, rng):
        m = minimal_connection(random_balanced_measure(rng, max_pairs=4))
        with pytest.raises(ValueError):
            m.potential[0] = 1.0
        assert minimal_connection(SignedAtomMeasure.empty()).potential.shape == (0,)


class TestBruteForceProperty:
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=2,
            max_size=8,
        ).filter(lambda pts: len(set(pts)) == len(pts) and len(pts) % 2 == 0)
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_oracle_on_integer_grids(self, pts):
        # integer coordinates provoke exact distance ties; sums stay exact,
        # so the solver and the oracle must still agree to the last bit
        k = len(pts) // 2
        masses = np.concatenate([np.ones(k), -np.ones(k)])
        f = SignedAtomMeasure(np.array(pts, dtype=float), masses)
        assert minimal_connection(f).cost == brute_force_connection(f)


class TestBruteForce:
    def test_single_dipole(self, unit_dipole):
        assert brute_force_connection(unit_dipole) == 1.0

    def test_reconnection(self, reconnection):
        assert brute_force_connection(reconnection) == 2.0

    def test_nested_collinear_dipoles(self):
        # p = 0,1,2 and n = 5,4,3 on a line: every permutation costs 9
        f = SignedAtomMeasure.from_atoms(
            [
                ((0.0, 0.0), 1.0),
                ((1.0, 0.0), 1.0),
                ((2.0, 0.0), 1.0),
                ((5.0, 0.0), -1.0),
                ((4.0, 0.0), -1.0),
                ((3.0, 0.0), -1.0),
            ]
        )
        perm_costs = set()
        pos = [0.0, 1.0, 2.0]
        neg = [5.0, 4.0, 3.0]
        for perm in itertools.permutations(range(3)):
            perm_costs.add(sum(abs(pos[i] - neg[perm[i]]) for i in range(3)))
        assert perm_costs == {9.0}
        assert brute_force_connection(f) == 9.0
        assert minimal_connection(f).cost == 9.0

    def test_size_limit(self, rng):
        f = random_unit_dipole_measure(rng, max_pairs=8)
        while len(f) < 16:
            f = random_unit_dipole_measure(rng, max_pairs=8)
        with pytest.raises(ValidationError):
            brute_force_connection(f)

    def test_non_unit_masses_rejected(self, rng):
        f = SignedAtomMeasure.from_atoms(
            [((0.0, 0.0), 1.0), ((0.5, 0.5), 2.0), ((1.0, 0.0), -3.0)]
        )
        with pytest.raises(ValidationError):
            brute_force_connection(f)


class TestDualPotential:
    def test_pair_constraint_rows_in_pair_order(self, rng):
        points = rng.uniform(size=(5, 2))
        a_ub, b_ub = _pair_constraints(points)
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        expected = np.zeros((len(pairs), 5))
        for row, (i, j) in enumerate(pairs):
            expected[row, i] = 1.0
            expected[row, j] = -1.0
        assert np.array_equal(a_ub, expected)
        assert b_ub.tolist() == [dist(points[i], points[j]) for i, j in pairs]
        assert _pair_constraints(points[:1])[0].shape == (0, 1)

    def test_unit_dipole_values(self, unit_dipole):
        pot, value = dual_potential(unit_dipole)
        assert value == 1.0
        assert unit_dipole.points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert pot.values[0] == 1.0
        assert pot.values[1] == 0.0

    def test_potential_min_is_zero(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=6)
            pot, _ = dual_potential(f)
            assert pot.values.min() == 0.0

    def test_reconnection_value(self, reconnection):
        _, value = dual_potential(reconnection)
        assert abs(value - 2.0) <= 1e-9

    def test_homogeneity(self, rng):
        f = random_balanced_measure(rng, max_pairs=5)
        _, value = dual_potential(f)
        for alpha in (0.25, 3.0):
            _, scaled = dual_potential(f.scaled(alpha))
            assert abs(scaled - alpha * value) <= 1e-10 * max(1.0, abs(scaled))

    def test_unbalanced_rejected(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0)])
        with pytest.raises(UnbalancedMeasureError):
            dual_potential(f)

    def test_strong_duality_and_feasibility(self, rng):
        for trial in range(25):
            # alternate between general masses and unit masses: strong
            # duality must hold for both
            if trial % 2:
                f = random_unit_dipole_measure(rng, max_pairs=15)
            else:
                f = random_balanced_measure(rng, max_pairs=15)
            m = minimal_connection(f)
            pot, value = dual_potential(f)
            assert abs(m.cost - value) <= 1e-7 * max(1.0, m.cost)
            assert pot.lip_bound <= 1.0 + 1e-9
            # feasibility with slack >= -1e-9 on every support pair
            pts = f.points
            for i in range(len(pts)):
                for j in range(len(pts)):
                    if i == j:
                        continue
                    u_i = pot.values[i]
                    u_j = pot.values[j]
                    assert dist(pts[i], pts[j]) - (u_i - u_j) >= -1e-9

    def test_complementary_slackness_across_solvers(self, rng):
        for _ in range(25):
            f = random_balanced_measure(rng, max_pairs=10)
            m = minimal_connection(f)
            pot, _ = dual_potential(f)
            index = {tuple(p): i for i, p in enumerate(f.points)}
            for s, t, _mass in m.edges:
                drop = pot.values[index[tuple(s)]] - pot.values[index[tuple(t)]]
                assert abs(drop - dist(s, t)) <= 1e-7


class TestNormAxioms:
    @given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity_under_scaling(self, alpha, seed):
        rng = np.random.default_rng(seed)
        f = random_balanced_measure(rng, max_pairs=4)
        base = minimal_connection(f).cost
        scaled = minimal_connection(f.scaled(alpha)).cost
        assert abs(scaled - alpha * base) <= 1e-10 * max(1.0, scaled)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        f = random_balanced_measure(rng, max_pairs=4)
        g = random_balanced_measure(rng, max_pairs=4)
        lhs = minimal_connection(f + g).cost
        rhs = minimal_connection(f).cost + minimal_connection(g).cost
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_zero_iff_zero(self):
        assert minimal_connection(SignedAtomMeasure.empty()).cost == 0.0
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((0.5, 0.0), -1.0)])
        assert minimal_connection(f).cost > 0.0


class TestFlatNorm:
    def test_long_dipole_caps_at_two(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((3.0, 0.0), -1.0)])
        oracle = flat_norm_dipole_oracle(3.0)
        assert abs(oracle - 2.0) <= 1e-12
        assert abs(flat_norm(f, "max") - 2.0) <= 1e-9

    def test_short_dipole_transports(self):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((0.5, 0.0), -1.0)])
        oracle = flat_norm_dipole_oracle(0.5)
        assert abs(oracle - 0.5) <= 1e-12
        assert abs(flat_norm(f, "max") - 0.5) <= 1e-9

    def test_single_unmatched_atom(self):
        f = SignedAtomMeasure.from_atoms([((0.7, 0.3), 1.0)])
        assert abs(flat_norm(f, "max") - 1.0) <= 1e-9

    def test_dipole_property_min_d_2(self, rng):
        for _ in range(50):
            d = float(rng.uniform(0.01, 5.0))
            f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((d, 0.0), -1.0)])
            expected = flat_norm_dipole_oracle(d)
            assert abs(expected - min(d, 2.0)) <= 1e-12
            assert abs(flat_norm(f, "max") - expected) <= 1e-9

    def test_sum_form_dipole_closed_form(self, rng):
        # single dipole at distance d: the budget split L = 2/(d+2) equalizes
        # the transport branch L*d and the cancellation branch 2*(1-L),
        # giving 2d/(d+2)
        for _ in range(25):
            d = float(rng.uniform(0.05, 6.0))
            f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((d, 0.0), -1.0)])
            expected = 2.0 * d / (d + 2.0)
            assert abs(flat_norm(f, "sum") - expected) <= 1e-9

    def test_sum_form_is_tighter(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=4)
            assert flat_norm(f, "sum") <= flat_norm(f, "max") + 1e-9

    def test_flat_below_gradient_only_dual(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=4)
            _, dual_value = dual_potential(f)
            assert flat_norm(f, "max") <= dual_value + 1e-7 * max(1.0, dual_value)

    def test_unknown_convention_rejected(self, unit_dipole):
        with pytest.raises(ValidationError):
            flat_norm(unit_dipole, "median")
