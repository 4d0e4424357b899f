import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tranship.errors import UnbalancedMeasureError, ValidationError
from tranship.geom import dist, dists
from tranship import matchnorm
from tranship.matchnorm import (
    LP_FEASIBILITY_TOL,
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
        targets = {tuple(m.points[j]) for j in m.edges[:, 1]}
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
            assert np.all(m.masses > 0)
            out = np.bincount(m.edges[:, 0], weights=m.masses, minlength=len(f))
            inc = np.bincount(m.edges[:, 1], weights=m.masses, minlength=len(f))
            for k, mass in enumerate(f.masses):
                if mass > 0:
                    assert abs(out[k] - mass) <= 1e-9 * max(1.0, mass) and inc[k] == 0.0
                else:
                    assert abs(inc[k] + mass) <= 1e-9 * max(1.0, -mass) and out[k] == 0.0

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


def reference_cost(m):
    """The edge loop minimal_connection's cost replaced: mass * distance per
    edge, in edge order, added from 0.0."""
    cost = 0.0
    for (i, j), mass in zip(m.edges.tolist(), m.masses.tolist()):
        cost += mass * dist(m.points[i], m.points[j])
    return cost


class TestMatchingArrays:
    """Edges index the measure's own atoms; the cost keeps the loop's bits."""

    @pytest.mark.parametrize("kind", ["distinct", "equal", "3d", "large"])
    def test_edges_index_the_atoms_in_lexicographic_order(self, kind):
        f = certificate_instance(kind)
        m = minimal_connection(f)
        assert m.points is f.points
        assert m.edges.dtype.kind == "i" and m.edges.shape == (len(m), 2)
        assert m.masses.shape == (len(m),) and np.all(m.masses > 0.0)
        i, j = m.edges.T
        assert np.all(f.masses[i] > 0.0) and np.all(f.masses[j] < 0.0)
        assert np.all(np.diff(i * len(f) + j) > 0)  # sorted, no repeats
        for arr in (m.points, m.edges, m.masses, m.potential):
            assert not arr.flags.writeable

    def test_empty_measure_has_no_edges(self):
        m = minimal_connection(SignedAtomMeasure.empty(3))
        assert m.edges.shape == (0, 2) and m.masses.shape == (0,) and m.points.shape == (0, 3)

    def test_cost_has_the_bits_of_the_edge_loop(self):
        rng = np.random.default_rng(1301)
        for trial in range(60):
            if trial % 3 == 0:
                f = random_unit_dipole_measure(rng, max_pairs=12)
            else:
                f = random_balanced_measure(rng, max_pairs=15)
            m = minimal_connection(f)
            assert m.cost == reference_cost(m)
        for kind in ("3d", "large"):
            m = minimal_connection(certificate_instance(kind))
            assert len(m) > 8 and m.cost == reference_cost(m)


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
        for i, j in m.edges:
            assert abs(u[i] - u[j] - dist(pts[i], pts[j])) <= 1e-12 * scale
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


class TestLatticeOracle:
    def test_tied_matchings_stay_within_two_ulps_above_the_oracle(self):
        # lattice points scaled by 0.1 or 0.37 tie optimal matchings whose
        # rounded costs differ; the solver may return any of them, never one
        # below the oracle's minimum and at most 2 ulps above it
        rng = np.random.default_rng(606)
        lattice = np.indices((6, 6)).reshape(2, -1).T.astype(float)
        for _ in range(1000):
            k = int(rng.integers(1, 8))
            pts = lattice[rng.choice(36, size=2 * k, replace=False)] * rng.choice([0.1, 0.37])
            f = SignedAtomMeasure(pts, np.concatenate([np.ones(k), -np.ones(k)]))
            oracle = brute_force_connection(f)
            gap = minimal_connection(f).cost - oracle
            assert 0.0 <= gap <= 2 * np.spacing(oracle)


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
        a_ub, b_ub = _pair_constraints(points, *np.nonzero(~np.eye(5, dtype=bool)))
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        expected = np.zeros((len(pairs), 5))
        for row, (i, j) in enumerate(pairs):
            expected[row, i] = 1.0
            expected[row, j] = -1.0
        assert np.array_equal(a_ub, expected)
        assert b_ub.tolist() == [dist(points[i], points[j]) for i, j in pairs]
        assert _pair_constraints(points[:1], *np.nonzero(~np.eye(1, dtype=bool)))[0].shape == (0, 1)

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
            for i, j in m.edges:
                drop = pot.values[i] - pot.values[j]
                assert abs(drop - dist(f.points[i], f.points[j])) <= 1e-7


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

    def test_max_potential_is_centred(self):
        # a balanced measure's potential is fixed only up to a constant; the
        # reported one has max u == -min u (up to the shift's roundoff) and
        # still meets the offline check's feasibility rule for `max`
        rng = np.random.default_rng(20261018)
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=12)
            value, u = matchnorm._flat_norm_lp(f, "max")
            top, bottom = float(np.max(u)), float(np.min(u))
            assert abs(top + bottom) <= 4 * np.finfo(float).eps, (top, bottom)
            tol = 1e-9 + 1e-7 * max(1.0, abs(value))
            d = dists(f.points[:, None], f.points[None])
            off = d > 0.0
            assert np.max(np.abs(u)) <= 1.0 + tol
            assert np.max(np.abs(u[:, None] - u[None])[off] / d[off]) <= 1.0 + tol
            assert abs(float(np.dot(f.masses, u)) - value) <= tol

    def test_unknown_convention_rejected(self, unit_dipole):
        with pytest.raises(ValidationError):
            flat_norm(unit_dipole, "median")


def _record_rows(monkeypatch):
    """Rows of every LP solved from now on, one entry per round."""
    rows = []
    solve = matchnorm.linprog

    def counting(*args, **kwargs):
        rows.append(kwargs["A_ub"].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(matchnorm, "linprog", counting)
    return rows


def _all_pairs_value(f, kind):
    """The LP over every ordered pair, built here from `_pair_constraints`."""
    from scipy.optimize import linprog

    n = len(f)
    a, b = _pair_constraints(f.points, *np.nonzero(~np.eye(n, dtype=bool)))
    if kind == "dual":
        lp = dict(c=-f.masses[1:], A_ub=a[:, 1:], b_ub=b, bounds=[(None, None)] * (n - 1))
    elif kind == "max":
        lp = dict(c=-f.masses, A_ub=a, b_ub=b, bounds=[(-1.0, 1.0)] * n)
    else:
        eye = np.eye(n)
        box = np.ones((n, 1))
        lp = dict(
            c=np.concatenate([-f.masses, [0.0]]),
            A_ub=np.block([[a, -b[:, None]], [eye, box], [-eye, box]]),
            b_ub=np.concatenate([np.zeros(len(b)), np.ones(2 * n)]),
            bounds=[(None, None)] * n + [(0.0, 1.0)],
        )
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(**lp, method="highs", options=options)
    assert res.success
    return -res.fun


def _row_generated_value(f, kind):
    return dual_potential(f)[1] if kind == "dual" else flat_norm(f, kind)


def _row_generated_values(f):
    return {kind: _row_generated_value(f, kind) for kind in ("dual", "max", "sum")}


def _distinct_masses(rng, points):
    n = len(points)
    pos = rng.uniform(0.5, 1.5, size=n // 2)
    neg = rng.uniform(0.5, 1.5, size=n - n // 2)
    neg *= pos.sum() / neg.sum()
    return SignedAtomMeasure(points, np.concatenate([pos, -neg]))


class TestRowGeneration:
    """The dual and flat-norm LPs start from nearest-neighbour pairs and add
    violated pairs until the optimum is feasible for every pair."""

    def test_rounds_add_rows_and_values_match_all_pairs(self, monkeypatch):
        rng = np.random.default_rng(9)
        f = _distinct_masses(rng, rng.uniform(size=(200, 2)))
        n = len(f)
        for kind in ("dual", "max", "sum"):
            rows = _record_rows(monkeypatch)
            value = _row_generated_value(f, kind)
            assert len(rows) >= 2, kind
            assert all(a < b for a, b in zip(rows, rows[1:])), (kind, rows)
            assert rows[-1] < n * (n - 1) // 2, (kind, rows)
            monkeypatch.undo()
            expected = _all_pairs_value(f, kind)
            assert abs(value - expected) <= 1e-12 * abs(expected), kind

    def test_potential_is_feasible_on_every_pair(self, rng):
        f = _distinct_masses(rng, rng.uniform(size=(200, 2)))
        pot, value = dual_potential(f)
        d = dists(f.points[:, None], f.points[None])
        u = pot.values
        assert np.max(u[:, None] - u[None] - d) <= LP_FEASIBILITY_TOL
        assert pot.lip_bound <= 1.0 + 1e-9
        cost = minimal_connection(f).cost
        assert abs(value - cost) <= 1e-12 * cost

    def test_disconnected_neighbour_graph(self):
        # two clusters 100 apart: no atom's 8 nearest neighbours cross the
        # gap, and the star through atom 0 keeps the first LP bounded
        rng = np.random.default_rng(3)
        points = rng.uniform(size=(40, 2))
        points[20:, 0] += 100.0
        # each cluster is unbalanced by 10, so mass 10 crosses the gap
        masses = np.repeat([1.0, -1.0, 1.0, -1.0], [15, 5, 5, 15])
        f = SignedAtomMeasure(points, masses)
        active = matchnorm._candidate_pairs(dists(f.points[:, None], f.points[None]))
        assert np.array_equal(active, active.T)
        cross = active.copy()
        cross[:20, :20] = cross[20:, 20:] = False
        assert np.array_equal(np.argwhere(cross[1:]), [[j - 1, 0] for j in range(20, 40)])
        values = _row_generated_values(f)
        for kind, value in values.items():
            expected = _all_pairs_value(f, kind)
            assert abs(value - expected) <= 1e-12 * abs(expected), kind
        cost = minimal_connection(f).cost
        assert cost > 1000.0
        assert abs(values["dual"] - cost) <= 1e-12 * cost

    def test_two_atoms(self, monkeypatch):
        f = SignedAtomMeasure.from_atoms([((0.0, 0.0), 1.0), ((3.0, 4.0), -1.0)])
        rows = _record_rows(monkeypatch)
        values = _row_generated_values(f)
        assert rows == [2, 2, 6]  # one round per LP: both pairs (and the sum form's box rows)
        assert values["dual"] == 5.0
        assert abs(values["max"] - 2.0) <= 1e-12
        assert abs(values["sum"] - 2.0 * 5.0 / 7.0) <= 1e-12

    def test_three_d_unit_masses_match_minimal_connection(self, monkeypatch):
        rng = np.random.default_rng(17)
        points = rng.uniform(size=(200, 3))
        f = SignedAtomMeasure(points, np.concatenate([np.ones(100), -np.ones(100)]))
        rows = _record_rows(monkeypatch)
        _, value = dual_potential(f)
        assert len(rows) >= 2 and rows[-1] < 200 * 199 // 2
        cost = minimal_connection(f).cost
        assert abs(value - cost) <= 1e-12 * cost
