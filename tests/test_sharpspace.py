import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tranship.beckmann import complete_network, flow_to_vector_measure, solve_beckmann
from tranship.errors import ValidationError
from tranship.funcs import polynomial_family
from tranship.geom import dist, dists, vec_norm
from tranship.genplan import plan_from_matching, to_vector_measure
from tranship.matchnorm import minimal_connection
from tranship.measures import (
    DipoleChain,
    Distribution,
    NotAMeasure,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    divergence_as_measure,
    pair,
)
from tranship.sharpspace import (
    ModulusCurve,
    _separation_radius,
    additivity_witness,
    decompose,
    distance_to_sharp,
    modulus,
    normal_witness,
    sharp_distance_via_plan,
    tangential_cycle,
    tangential_split,
    verify_modulus_bound,
)
from tranship.testing import certified_instance, random_balanced_measure


def geometric_chain(n_listed=10):
    pairs = tuple(((0.0, float(i)), (2.0**-i, float(i))) for i in range(1, n_listed + 1))
    return DipoleChain(pairs, tail=(0.5, 1.0))


class TestTangentialSplit:
    def test_mixed_density_projects(self):
        nu = StructuredVectorMeasure.build(
            2, segments=[((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))]
        )
        parts = tangential_split(nu)
        assert parts.tangential.seg_density[0].tolist() == [1.0, 0.0]
        assert parts.normal.seg_density[0].tolist() == [0.0, 1.0]
        assert parts.normal_mass == 1.0

    def test_atom_is_fully_normal(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        parts = tangential_split(nu)
        assert parts.normal_mass == 2.0
        assert parts.tangential.is_empty

    def test_cells_are_fully_tangential(self):
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=grid, vectors=np.tile([1.0, 2.0], (4, 1)))
        )
        parts = tangential_split(nu)
        assert parts.normal_mass == 0.0
        assert parts.tangential.cells is not None

    def test_split_reconstructs_componentwise(self, rng):
        for _ in range(20):
            segs = []
            for _k in range(int(rng.integers(1, 5))):
                a = rng.uniform(0, 1, size=2)
                b = a + rng.uniform(0.1, 1.0) * _unit(rng)
                segs.append((a, b, rng.normal(size=2)))
            nu = StructuredVectorMeasure.build(2, segments=segs, validate=False)
            parts = tangential_split(nu)
            back = parts.tangential.seg_density + parts.normal.seg_density
            scale = max(1.0, float(np.max(np.abs(nu.seg_density))))
            assert np.max(np.abs(back - nu.seg_density)) <= 1e-12 * scale

    def test_resplit_is_idempotent(self, rng):
        a = rng.uniform(0, 1, size=2)
        b = a + _unit(rng)
        nu = StructuredVectorMeasure.build(2, segments=[(a, b, rng.normal(size=2))])
        parts = tangential_split(nu)
        again = tangential_split(parts.tangential)
        assert again.normal_mass == 0.0


def _unit(rng):
    d = rng.normal(size=2)
    return d / math.sqrt(float(np.dot(d, d)))


class TestDistanceToSharp:
    def test_normal_atom(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        assert distance_to_sharp(nu) == 2.0

    def test_beckmann_output_is_sharp(self, rng):
        f = random_balanced_measure(rng, max_pairs=6)
        net = complete_network(f)
        nu = flow_to_vector_measure(net, solve_beckmann(net))
        assert distance_to_sharp(nu) == 0.0

    def test_tangential_cycle_changes_nothing(self, rng):
        nu, _matching, _normal = certified_instance(rng)
        base = distance_to_sharp(nu)
        family = polynomial_family(2, 3)
        base_pairing = [pair(Distribution.from_divergence(nu), f) for f in family]
        augmented = nu
        for _ in range(10):
            center = rng.uniform(0.2, 0.8, size=2)
            k = int(rng.integers(3, 7))
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
            verts = [center + rng.uniform(0.05, 0.2) * np.array([np.cos(t), np.sin(t)]) for t in angles]
            augmented = augmented + tangential_cycle(verts, float(rng.uniform(0.2, 2.0)))
        assert distance_to_sharp(augmented) == base  # exact
        for f, expected in zip(family, base_pairing):
            got = pair(Distribution.from_divergence(augmented), f)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_cycle_is_divergence_free(self, rng):
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cycle = tangential_cycle(verts, 1.5)
        m = divergence_as_measure(cycle)
        assert not isinstance(m, NotAMeasure)
        assert len(m) == 0


class TestDecompose:
    def test_purely_tangential(self, rng):
        f = random_balanced_measure(rng, max_pairs=4)
        nu = to_vector_measure(plan_from_matching(minimal_connection(f)))
        result = decompose(nu)
        assert result.normal_mass == 0.0
        assert result.certified
        assert result.normal.divergence_part.n_atoms == 0

    def test_purely_normal(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        result = decompose(nu)
        assert result.normal_mass == 2.0
        assert result.certified
        assert result.tangential.divergence_part.n_segments == 0

    def test_certified_instance_additivity(self, rng):
        for _ in range(10):
            nu, matching, normal_part = certified_instance(rng)
            result = decompose(nu)
            assert result.certified
            claimed = matching.cost + result.normal_mass
            assert abs(result.witness_value - claimed) <= 1e-7 * max(1.0, claimed)
            # norm of the tangential summand via the matching route
            m_t = divergence_as_measure(result.tangential.divergence_part)
            assert not isinstance(m_t, NotAMeasure)
            w1_t = minimal_connection(m_t).cost
            assert abs(w1_t - matching.cost) <= 1e-9 * max(1.0, matching.cost)

    def test_pairing_splits_additively(self, rng):
        nu, _matching, _normal = certified_instance(rng)
        result = decompose(nu)
        f = Distribution.from_divergence(nu)
        for func in polynomial_family(2, 3):
            got = pair(result.tangential, func) + pair(result.normal, func)
            expected = pair(f, func)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_unit_segment_plus_far_normal_atom(self):
        # tangential unit segment (W1 of its divergence = 1) plus a normal
        # atom of size 2 far away: the norms add to 3 = ||nu||
        nu = StructuredVectorMeasure.build(
            2,
            segments=[((0.0, 0.0), (1.0, 0.0), (1.0, 0.0))],
            atoms=[((5.0, 0.0), (0.0, 2.0))],
        )
        assert nu.total_variation == 3.0
        result = decompose(nu)
        assert result.certified
        assert result.normal_mass == 2.0
        m_t = divergence_as_measure(result.tangential.divergence_part)
        assert minimal_connection(m_t).cost == 1.0
        assert abs(result.witness_value - 3.0) <= 1e-9

    def test_uncertified_when_atoms_collide(self):
        # two normal atoms at the same point: no separation, witness falls short
        nu = StructuredVectorMeasure.build(
            2,
            atoms=[((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (-1.0, 0.0))],
        )
        result = decompose(nu)
        assert not result.certified
        assert result.normal_mass == 2.0


class TestNormalWitness:
    def test_achieves_normal_mass_on_separated_atoms(self, rng):
        radius = 0.1
        atoms = []
        for k in range(4):
            vec = rng.normal(size=2)
            vec *= rng.uniform(0.5, 2.0) / math.sqrt(float(np.dot(vec, vec)))
            atoms.append((np.array([2.0 * k, 0.0]), vec))  # 20 radii apart
        nu = StructuredVectorMeasure.build(2, atoms=atoms, validate=False)
        witness = normal_witness(nu, radius)
        value = pair(Distribution.from_divergence(nu), witness)
        assert value >= (1.0 - 1e-6) * nu.total_variation

    def test_witness_is_one_lipschitz(self, rng):
        atoms = [((0.0, 0.0), (1.0, 1.0)), ((3.0, 0.0), (0.5, -0.25))]
        nu = StructuredVectorMeasure.build(2, atoms=atoms, validate=False)
        witness = normal_witness(nu, 0.2)
        for _ in range(200):
            x = rng.uniform(-1, 4, size=2)
            y = rng.uniform(-1, 4, size=2)
            d = math.sqrt(float(np.sum((x - y) ** 2)))
            if d == 0.0:
                continue
            assert abs(witness.value(x) - witness.value(y)) <= d * (1.0 + 1e-12)


def _reference_pieces(support_points, support_values, atom_points, atom_vectors, radius):
    """The witness piece by piece, as (value, apex of the winner) callables:
    one piece for all support cones (ties go to the first point), then one
    cone per nonzero atom, its apex `radius`/2 along the atom's unit vector."""
    pieces = []
    if len(support_points):
        def support(x):
            cones = support_values - dists(x, support_points)
            return np.max(cones, initial=-np.inf), support_points[np.argmax(cones)]
        pieces.append(support)
    for point, vector in zip(atom_points, atom_vectors):
        if not np.any(vector):
            continue
        apex = point + 0.5 * radius * (vector / vec_norm(vector))
        pieces.append(lambda x, apex=apex: (float(radius) - dist(x, apex), apex))
    return pieces


def _reference_value(pieces, x):
    best = 0.0
    for piece in pieces:
        best = max(best, piece(x)[0])
    return best


def _reference_gradient(pieces, x):
    # a strict > keeps the earlier piece on ties; the floor 0 wins over none
    best, winner = 0.0, None
    for piece in pieces:
        cand, apex = piece(x)
        if cand > best:
            best, winner = cand, apex
    x = np.asarray(x, dtype=float)
    if winner is None:
        return np.zeros(x.size)
    d = x - winner
    r = vec_norm(d)
    return np.zeros(x.size) if r == 0.0 else -d / r


class TestConeWitness:
    def _assert_matches_reference(self, args, points):
        witness = additivity_witness(*args)
        pieces = _reference_pieces(*args)
        for x in points:
            assert witness.value(x) == _reference_value(pieces, x), x
            got = witness.gradient(x)
            assert got.tobytes() == _reference_gradient(pieces, x).tobytes(), x

    def test_certified_instances_match_piecewise_maximum(self, rng):
        for _ in range(20):
            nu, _matching, _normal = certified_instance(rng)
            parts = tangential_split(nu)
            converted = divergence_as_measure(parts.tangential)
            normal = parts.normal
            radius = _separation_radius(converted.points, normal.atom_points)
            args = (
                converted.points,
                minimal_connection(converted).potential,
                normal.atom_points,
                normal.atom_vectors,
                radius,
            )
            random_points = np.column_stack(
                [rng.uniform(-1.0, 10.0, size=50), rng.uniform(-1.0, 2.0, size=50)]
            )
            self._assert_matches_reference(
                args, [*converted.points, *normal.atom_points, *random_points]
            )

    def test_ties_and_floor_match_piecewise_maximum(self):
        # the atom (3, 0) with vector (1, 0) and radius 1 has its cone apex at
        # (3.5, 0); the support value 3.5 ties it at the atom (both 0.5, with
        # opposite gradients) and the value 4.5 at the apex (both 1.0, where
        # the atom cone's gradient is 0)
        atoms = np.array([[3.0, 0.0], [0.0, 5.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])
        probes = [(3.0, 0.0), (3.5, 0.0), (1.0, 0.0), (0.0, 0.0), (100.0, 100.0), (0.0, 5.0)]
        for value in (3.5, 4.5, 1.0):
            args = (np.array([[0.0, 0.0]]), np.array([value]), *atoms, 1.0)
            self._assert_matches_reference(args, probes)
        witness = additivity_witness(np.array([[0.0, 0.0]]), np.array([3.5]), *atoms, 1.0)
        assert witness.gradient((3.0, 0.0)).tolist() == [-1.0, 0.0]  # support wins
        assert witness.value((100.0, 100.0)) == 0.0  # the floor wins
        assert witness.gradient((100.0, 100.0)).tolist() == [0.0, 0.0]
        # support value 1 reaches 0 exactly at (1, 0): the floor keeps it
        witness = additivity_witness(np.array([[0.0, 0.0]]), np.array([1.0]), *atoms, 1.0)
        assert witness.value((1.0, 0.0)) == 0.0
        assert witness.gradient((1.0, 0.0)).tolist() == [0.0, 0.0]


class TestSigmaZeroCrossCheck:
    def test_matches_distance_exactly(self, rng):
        for _ in range(10):
            nu, matching, normal_part = certified_instance(rng)
            via_plan = sharp_distance_via_plan(matching, normal_part)
            assert via_plan == distance_to_sharp(nu)

    def test_pure_normal_atom(self):
        from tranship.matchnorm import Matching

        normal_part = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        empty = Matching(np.zeros((0, 2)), np.zeros((0, 2), dtype=int), np.zeros(0), 0.0)
        assert sharp_distance_via_plan(empty, normal_part) == 2.0

    def test_pure_matching(self, rng):
        f = random_balanced_measure(rng, max_pairs=4)
        matching = minimal_connection(f)
        assert sharp_distance_via_plan(matching, StructuredVectorMeasure.empty(2)) == 0.0


def reference_modulus_k(chain, eps):
    """The search modulus replaced: the listed pairs first, then the analytic
    tail alone."""
    m = len(chain)
    for k in range(m + 1):
        if chain.tail_bound(k) <= eps:
            return k
    ratio, first = chain.tail
    k = m + 1
    while first * ratio**k > eps:
        k += 1
    return k


class TestModulus:
    def test_k_equals_the_two_stage_search(self):
        rng = np.random.default_rng(1305)
        for trial in range(10):
            m = int(rng.integers(1, 12))
            pairs = tuple((p, p + rng.normal(size=2)) for p in rng.uniform(0.0, 1.0, (m, 2)))
            tail = (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 2.0)))
            chain = DipoleChain(pairs, tail=tail if trial % 2 else None)
            total = chain.tail_bound(0)
            eps = [total * 2.0**-e for e in range(0, 14, 2)] + [2.0 * total]
            curve = modulus(chain, eps)
            assert [k for _, _, k in curve.samples] == [reference_modulus_k(chain, e) for e in eps]

    def test_total_variations_have_the_bits_of_their_loops(self):
        rng = np.random.default_rng(1306)
        for _ in range(20):
            nu, matching, _ = certified_instance(rng, max_pairs=10)
            loop = 0.0
            for v in nu.atom_vectors:
                loop += vec_norm(v)
            for d, length in zip(nu.seg_density, nu.segment_lengths):
                loop += vec_norm(d) * length
            assert nu.total_variation == loop
            plan = plan_from_matching(matching)
            loop = 0.0
            for atom in plan.atoms:
                loop += atom.mass
            assert plan.total_variation == loop

    def test_geometric_quarter(self):
        curve = modulus(geometric_chain(), [0.25])
        assert curve.samples == ((0.25, 4, 2),)

    def test_whole_chain_in_lipschitz_term(self):
        pairs = (((0.0, 0.0), (0.5, 0.0)), ((0.0, 1.0), (0.25, 1.0)), ((0.0, 2.0), (0.125, 2.0)))
        chain = DipoleChain(pairs)
        total = sum(chain.lengths())
        curve = modulus(chain, [total])
        assert curve.samples == ((total, 0, 0),)

    def test_zero_eps_needs_all_pairs(self):
        pairs = (((0.0, 0.0), (0.5, 0.0)), ((0.0, 1.0), (0.25, 1.0)))
        chain = DipoleChain(pairs)
        curve = modulus(chain, [0.0])
        assert curve.samples == ((0.0, 4, 2),)

    def test_zero_eps_with_tail_fails_naming_floor(self):
        with pytest.raises(ValidationError, match="floor"):
            modulus(geometric_chain(), [0.0])

    def test_tail_allows_k_beyond_listed_pairs(self):
        curve = modulus(geometric_chain(4), [2.0**-8])
        assert curve.samples == ((2.0**-8, 16, 8),)

    def test_monotone_in_eps(self):
        eps = [2.0**-k for k in range(1, 11)]
        curve = modulus(geometric_chain(), eps)
        ks = [k for _, _, k in curve.samples]
        assert ks == list(range(1, 11))
        cs = [c for _, c, _ in curve.samples]
        assert cs == [2 * k for k in range(1, 11)]

    def test_empirical_bound_holds(self):
        chain = geometric_chain()
        curve = modulus(chain, [2.0**-k for k in range(1, 6)])
        worst = verify_modulus_bound(chain, curve, n_samples=200, seed=7)
        assert worst <= 1e-12


class TestDualAttainmentAndContinuity:
    def test_dual_supremum_is_attained_by_a_feasible_potential(self, rng):
        # the discrete dual always returns an explicit maximizer: a feasible
        # potential whose objective equals the optimal value
        from tranship.matchnorm import dual_potential
        from tranship.geom import dist as euclid

        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=6)
            pot, value = dual_potential(f)
            achieved = float(np.sum(f.masses * pot.values))
            assert abs(achieved - value) <= 1e-12 * max(1.0, abs(value))
            for i, p in enumerate(f.points):
                for j in range(i + 1, len(f.points)):
                    assert abs(pot.values[i] - pot.values[j]) <= (
                        euclid(p, f.points[j]) + 1e-9
                    )

    def test_pairing_vanishes_on_uniformly_small_bounded_lipschitz_sequences(self):
        # a modulus certificate forces <T, u_n> -> 0 whenever u_n -> 0
        # uniformly with bounded Lipschitz constant: |<T, u_n>| is squeezed by
        # min_k (2k ||u_n||_inf + eps_k * L)
        chain = geometric_chain()
        eps_list = [2.0**-k for k in range(1, 11)]
        curve = modulus(chain, eps_list)
        lip = 1.0
        for n in (1, 10, 100, 1000, 10000):
            sup = 1.0 / n

            class Scaled:
                def value(self, points):
                    # 1-Lipschitz ramp in x[0] capped at sup: known norms
                    return np.clip(np.asarray(points)[..., 0] - 0.25, -sup, sup)

            observed = abs(chain.pair_with(Scaled())) + chain.tail_bound(len(chain)) * lip
            envelope = min(c * sup + eps * lip for eps, c, _k in curve.samples)
            assert observed <= envelope + 1e-12
        # and the envelope itself vanishes along the sequence
        assert min(c * 1e-4 + eps for eps, c, _k in curve.samples) < 0.01


class TestSplitProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1, max_value=1),
                st.floats(min_value=-1, max_value=1),
                st.floats(min_value=-2, max_value=2),
                st.floats(min_value=-2, max_value=2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_normal_mass_bounded_by_variation(self, raw):
        segs = []
        for k, (x, y, dx, dy) in enumerate(raw):
            a = np.array([x, y + 3.0 * k])
            b = a + np.array([1.0, 0.5])
            segs.append((a, b, np.array([dx, dy])))
        nu = StructuredVectorMeasure.build(2, segments=segs, validate=False)
        parts = tangential_split(nu)
        assert -1e-15 <= parts.normal_mass <= nu.total_variation * (1 + 1e-12)


# margins of verify_modulus_bound(chain, curve, n_samples=40, seed) for seeds
# 0, 1, 2 on the chain below, recorded before the sampled functions were
# evaluated in blocks
BLOCKED_MARGINS = ["-0x1.d980aa7d98b05p+3", "-0x1.571ac07644664p+4", "-0x1.a6ebc85287ed5p+3"]


def test_modulus_check_keeps_its_bits_in_blocks_of_one_function(monkeypatch):
    # each sampled function's pairing is its own in-order sum, so the check
    # evaluates them in geom.row_blocks; one-byte blocks (one function per
    # block) must give the bits of the whole (pairs, 2, functions) array
    from tranship import geom

    rng = np.random.default_rng(20261020)
    points = rng.uniform(size=(300, 2))
    steps = 0.2 * 0.9 ** np.arange(300)[:, None] * rng.normal(size=(300, 2))
    chain = DipoleChain(tuple(zip(points, points + steps)), tail=(0.9, 2.0))
    curve = ModulusCurve(samples=((0.3, 38, 19), (0.01, 106, 53), (1e-4, 190, 95)))
    margins = [verify_modulus_bound(chain, curve, n_samples=40, seed=s).hex() for s in range(3)]
    assert margins == BLOCKED_MARGINS
    monkeypatch.setattr(geom, "_BLOCK_BYTES", 1)
    assert len(geom.row_blocks(120, 8 * chain.pairs.size)) == 120
    margins = [verify_modulus_bound(chain, curve, n_samples=40, seed=s).hex() for s in range(3)]
    assert margins == BLOCKED_MARGINS
