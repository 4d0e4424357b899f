import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tranship.errors import TailBoundError, ValidationError
from tranship.funcs import Coordinate, Polynomial, polynomial_family
from tranship.geom import dists, vec_norm
from tranship.measures import (
    MERGE_RTOL,
    DipoleChain,
    Distribution,
    NotAMeasure,
    QuadratureDegreeWarning,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    divergence_as_measure,
    _merge_atoms,
    from_dipoles,
    pair,
)


def dirac_pair(p, n):
    return Distribution.from_measure(
        SignedAtomMeasure.from_atoms([(p, 1.0), (n, -1.0)])
    )


def line_integral_oracle(a, b, density, coeffs, dim=2):
    """Closed-form integral of density . grad(phi) along [a, b] via sympy."""
    t = sympy.Symbol("t")
    xs = sympy.symbols(f"x0:{dim}")
    phi = sum(c * sympy.prod([x**e for x, e in zip(xs, exps)]) for exps, c in coeffs.items())
    subs = {x: ai + t * (bi - ai) for x, ai, bi in zip(xs, a, b)}
    integrand = sum(
        d * sympy.diff(phi, x).subs(subs) for d, x in zip(density, xs)
    )
    length = sympy.sqrt(sum((bi - ai) ** 2 for ai, bi in zip(a, b)))
    return float(sympy.integrate(integrand, (t, 0, 1)) * length)


class TestPair:
    def test_dipole_against_coordinate(self):
        f = dirac_pair((1.0, 0.0), (0.0, 0.0))
        assert pair(f, Coordinate(0, dim=2)) == 1.0

    def test_vector_atom_against_coordinate(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (0.0, 2.0))])
        f = Distribution.from_divergence(nu)
        assert pair(f, Coordinate(1, dim=2)) == 2.0

    def test_segment_against_xy_matches_line_integral(self):
        # oracle: int_0^1 (1,1).(y, x) dx along y=0 is int_0^1 x dx = 1/2
        coeffs = {(1, 1): 1.0}
        expected = line_integral_oracle((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), coeffs)
        assert expected == 0.5
        nu = StructuredVectorMeasure.build(
            2, segments=[((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))]
        )
        f = Distribution.from_divergence(nu)
        got = pair(f, Polynomial(coeffs, dim=2))
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_segment_quadrature_matches_oracle_on_random_cubics(self, rng):
        for _ in range(10):
            a = tuple(rng.uniform(-1, 1, size=2))
            b = tuple(rng.uniform(-1, 1, size=2))
            density = tuple(rng.uniform(-2, 2, size=2))
            coeffs = {
                (int(i), int(j)): float(rng.uniform(-1, 1))
                for i in range(4)
                for j in range(4)
                if i + j <= 3
            }
            expected = line_integral_oracle(a, b, density, coeffs)
            nu = StructuredVectorMeasure.build(2, segments=[(a, b, density)])
            got = pair(Distribution.from_divergence(nu), Polynomial(coeffs, dim=2))
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_pair_is_linear(self, rng):
        nu = StructuredVectorMeasure.build(
            2,
            atoms=[((0.3, 0.4), (1.0, -0.5))],
            segments=[((0.0, 0.0), (0.7, 0.2), (0.5, 1.0))],
        )
        measure = SignedAtomMeasure.from_atoms([((0.1, 0.9), 2.0), ((0.6, 0.1), -2.0)])
        f = Distribution(measure, nu)
        phi = Polynomial({(1, 0): 1.0, (1, 1): -0.5}, dim=2)
        psi = Polynomial({(0, 2): 1.0, (2, 1): 0.25}, dim=2)
        for _ in range(25):
            alpha, beta = rng.uniform(-3, 3, size=2)
            combo = Polynomial(
                {
                    exps: alpha * phi.coeffs.get(exps, 0.0) + beta * psi.coeffs.get(exps, 0.0)
                    for exps in set(phi.coeffs) | set(psi.coeffs)
                },
                dim=2,
            )
            lhs = pair(f, combo)
            rhs = alpha * pair(f, phi) + beta * pair(f, psi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_constant_pairs_to_measure_total_exactly(self, rng):
        masses = rng.uniform(-1, 1, size=7)
        masses[masses == 0.0] = 0.5
        m = SignedAtomMeasure(rng.uniform(0, 1, size=(7, 2)), masses)
        f = Distribution.from_measure(m)
        one = Polynomial({(0, 0): 1.0}, dim=2)
        assert pair(f, one) == m.total

    def test_cell_field_pairs_like_the_volume_integral(self):
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (2, 2))
        vectors = np.tile([1.0, 0.0], (4, 1))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=grid, vectors=vectors)
        )
        # int over the unit square of d(x*y)/dx = int y = 1/2
        got = pair(Distribution.from_divergence(nu), Polynomial({(1, 1): 1.0}, dim=2))
        assert abs(got - 0.5) < 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cell_blocks_keep_the_bits(self, dim, monkeypatch):
        # the cells are summed in geom.row_blocks; one cell per block must
        # give the bits of the default budget
        from tranship import geom
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        rng = np.random.default_rng(7 + dim)
        grid = Grid(Domain(np.zeros(dim), np.ones(dim)), (5,) * dim)
        vectors = rng.normal(size=(grid.n_cells, dim))
        vectors[::3] = 0.0
        nu = StructuredVectorMeasure.build(dim, cells=CellField(grid=grid, vectors=vectors))
        f = Distribution.from_divergence(nu)
        func = Polynomial({(1,) * dim: 0.7, (3,) + (0,) * (dim - 1): -1.2}, dim=dim)
        want = pair(f, func)
        monkeypatch.setattr(geom, "_BLOCK_BYTES", 1)
        assert pair(f, func).hex() == want.hex()

    def test_degree_warning_on_segments(self):
        nu = StructuredVectorMeasure.build(
            2, segments=[((0.0, 0.0), (1.0, 0.0), (1.0, 0.0))]
        )
        f = Distribution.from_divergence(nu)
        with pytest.warns(QuadratureDegreeWarning):
            pair(f, Polynomial({(17, 0): 1.0}, dim=2))
        # within the guarantee: no warning
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            pair(f, Polynomial({(16, 0): 1.0}, dim=2))

    def test_degree_warning_on_cells(self):
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (1, 1))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=grid, vectors=np.array([[1.0, 0.0]]))
        )
        f = Distribution.from_divergence(nu)
        high = Polynomial({(9, 0): 1.0}, dim=2)
        with pytest.warns(QuadratureDegreeWarning):
            pair(f, high)


class TestCellField:
    @pytest.mark.parametrize("vector", [(0.1, 0.4), (0.1, 1.7, 0.7)])
    def test_total_variation_has_the_bits_of_vec_norm(self, vector):
        # every distance comes from `geom.dists`, so a cell's norm has the bits
        # of `vec_norm`, as the resampler's norms do; `sqrt(sum(v**2))` can round
        # differently, as it does for these two vectors with OpenBLAS's dot
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        dim = len(vector)
        grid = Grid(Domain(np.zeros(dim), np.full(dim, 2.0)), (1,) * dim)
        cells = CellField(grid=grid, vectors=np.array([vector]))
        assert cells.total_variation == vec_norm(vector) * grid.cell_volume


def reference_merge(points, masses):
    """The first-fit loop: each atom is compared with every kept atom."""
    lo, hi = points.min(axis=0), points.max(axis=0)
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


class TestAtomMeasure:
    def test_merging_and_zero_drop(self):
        m = SignedAtomMeasure.from_atoms(
            [((0.0, 0.0), 1.0), ((0.0, 0.0), 1.5), ((1.0, 0.0), -2.5)]
        )
        assert len(m) == 2
        assert m.balanced

    def test_merging_is_first_fit(self):
        # |a-b| and |b-c| are within the merge tolerance, |a-c| is not: b joins
        # a (the first kept atom within reach) and c stays a separate atom
        tol = 1e-9 * 10.0  # MERGE_RTOL times the diameter of the instance
        a, b, c = (0.0, 0.0), (0.6 * tol, 0.0), (1.2 * tol, 0.0)
        m = SignedAtomMeasure.from_atoms(
            [(a, 1.0), (b, 2.0), (c, 4.0), ((10.0, 0.0), -7.0)]
        )
        assert m.points.tolist() == [list(a), list(c), [10.0, 0.0]]
        assert m.masses.tolist() == [3.0, 4.0, -7.0]
        # with a and c both kept, b is in reach of both and joins the first
        m = SignedAtomMeasure.from_atoms(
            [(a, 1.0), (c, 4.0), (b, 2.0), ((10.0, 0.0), -7.0)]
        )
        assert m.points.tolist() == [list(a), list(c), [10.0, 0.0]]
        assert m.masses.tolist() == [3.0, 4.0, -7.0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_merging_has_the_bits_of_the_first_fit_loop(self, dim):
        # clusters of atoms spread over a few tolerances around seeded centres,
        # in random order with repeated and cancelling masses; the unit-box
        # corners fix the diameter, so the tolerance is known
        rng = np.random.default_rng([2310, dim])
        tol = MERGE_RTOL * np.sqrt(dim)
        for _ in range(40):
            centres = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 12)), dim))
            k = int(rng.integers(1, 120))
            spread = rng.choice([0.0, 0.3, 1.0], size=(k, 1)) * tol
            pts = centres[rng.integers(0, len(centres), size=k)]
            pts = pts + rng.uniform(-2.0, 2.0, size=(k, dim)) * spread
            pts = rng.permutation(np.vstack([np.zeros(dim), np.ones(dim), pts]))
            masses = rng.choice([1.0, -1.0, 0.5, -0.25, 0.1], size=len(pts))
            got, want = _merge_atoms(pts, masses), reference_merge(pts, masses)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # a zero tolerance: every point is the same point
        pts = np.full((5, dim), 0.3)
        masses = np.array([1.0, 2.0, -3.0, 4.0, 0.1])
        got, want = _merge_atoms(pts, masses), reference_merge(pts, masses)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[1].tolist() == [4.1]

    def test_exact_cancellation_removes_the_atom(self):
        m = SignedAtomMeasure.from_atoms(
            [((0.0, 0.0), 1.0), ((0.0, 0.0), -1.0), ((1.0, 1.0), 2.0), ((0.0, 1.0), -2.0)]
        )
        assert len(m) == 2

    def test_zero_mass_rejected(self):
        with pytest.raises(ValidationError):
            SignedAtomMeasure.from_atoms([((0.0, 0.0), 0.0)])

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_balance_flag_tracks_total(self, scale, k):
        pts = np.linspace(0.0, 1.0, 2 * k)[:, None] * np.ones(2)
        pts = pts + np.arange(2 * k)[:, None] * 1e-3  # distinct
        masses = scale * np.concatenate([np.ones(k), -np.ones(k)])
        m = SignedAtomMeasure(pts, masses)
        assert m.balanced
        m2 = SignedAtomMeasure(pts[: 2 * k - 1], masses[: 2 * k - 1])
        assert not m2.balanced


class TestDivergenceAsMeasure:
    def test_tangential_segment_endpoints(self):
        # density (2,0) along (0,0)->(3,0): -div is +2 at the head, -2 at the tail,
        # matching the pairing convention <-div nu, phi> = int grad(phi).dnu
        nu = StructuredVectorMeasure.build(2, segments=[((0.0, 0.0), (3.0, 0.0), (2.0, 0.0))])
        m = divergence_as_measure(nu)
        assert not isinstance(m, NotAMeasure)
        got = {tuple(p): mass for p, mass in zip(m.points.tolist(), m.masses)}
        assert got == {(3.0, 0.0): 2.0, (0.0, 0.0): -2.0}

    def test_vector_atom_is_not_a_measure(self):
        nu = StructuredVectorMeasure.build(2, atoms=[((0.0, 0.0), (1.0, 0.0))])
        assert isinstance(divergence_as_measure(nu), NotAMeasure)

    def test_normal_density_is_not_a_measure(self):
        nu = StructuredVectorMeasure.build(2, segments=[((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))])
        assert isinstance(divergence_as_measure(nu), NotAMeasure)

    def test_head_to_tail_interior_atoms_cancel(self):
        nu = StructuredVectorMeasure.build(
            2,
            segments=[
                ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                ((1.0, 0.0), (2.0, 0.0), (2.0, 0.0)),
            ],
        )
        m = divergence_as_measure(nu)
        assert len(m) == 2
        # and the measure pairs identically to the divergence on polynomials
        f_div = Distribution.from_divergence(nu)
        f_meas = Distribution.from_measure(m)
        for func in polynomial_family(2, 3):
            assert abs(pair(f_div, func) - pair(f_meas, func)) <= 1e-10

    def test_measure_agrees_with_divergence_pairing(self, rng):
        for _ in range(10):
            a = rng.uniform(0, 1, size=2)
            b = rng.uniform(0, 1, size=2)
            if np.allclose(a, b):
                continue
            theta = float(rng.uniform(-2, 2))
            if theta == 0.0:
                continue
            tangent = (b - a) / np.sqrt(np.sum((b - a) ** 2))
            nu = StructuredVectorMeasure.build(2, segments=[(a, b, theta * tangent)])
            m = divergence_as_measure(nu)
            assert not isinstance(m, NotAMeasure)
            f_div = Distribution.from_divergence(nu)
            f_meas = Distribution.from_measure(m)
            for func in polynomial_family(2, 3):
                assert abs(pair(f_div, func) - pair(f_meas, func)) <= 1e-10

    def test_cells_rejected(self):
        from tranship.geom import Domain, Grid
        from tranship.measures import CellField

        grid = Grid(Domain([0.0, 0.0], [1.0, 1.0]), (1, 1))
        nu = StructuredVectorMeasure.build(
            2, cells=CellField(grid=grid, vectors=np.array([[1.0, 0.0]]))
        )
        with pytest.raises(ValidationError):
            divergence_as_measure(nu)


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


class TestSegmentValidation:
    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValidationError):
            StructuredVectorMeasure.build(2, segments=[((0.0, 0.0), (0.0, 0.0), (1.0, 0.0))])

    def test_anti_aligned_overlap_rejected(self):
        with pytest.raises(ValidationError):
            StructuredVectorMeasure.build(
                2,
                segments=[
                    ((0.0, 0.0), (2.0, 0.0), (1.0, 0.0)),
                    ((1.0, 0.0), (3.0, 0.0), (-1.0, 0.0)),
                ],
            )

    def test_aligned_overlap_allowed(self):
        nu = StructuredVectorMeasure.build(
            2,
            segments=[
                ((0.0, 0.0), (2.0, 0.0), (1.0, 0.0)),
                ((1.0, 0.0), (3.0, 0.0), (1.0, 0.0)),
            ],
        )
        assert abs(nu.total_variation - 4.0) < 1e-12

    def test_crossing_segments_allowed(self):
        nu = StructuredVectorMeasure.build(
            2,
            segments=[
                ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)),
                ((0.0, 1.0), (1.0, 0.0), (1.0, 0.0)),
            ],
        )
        assert nu.n_segments == 2

    @staticmethod
    def tilted_pair(p, d, t, signs):
        """Segments [t0, t2] and [t1, t3] along p + t d, overlapping on
        [t1, t2], with densities signs[k] * d."""
        t0, t1, t2, t3 = t
        return [
            (p + t0 * d, p + t2 * d, signs[0] * d),
            (p + t1 * d, p + t3 * d, signs[1] * d),
        ]

    def test_opposed_overlap_on_tilted_line_rejected(self):
        # the unit directions differ in the last bit, so 1 - cos^2 is one
        # rounding step above 0; total variation would count [0.4, 0.6] twice
        d = np.array([np.cos(0.7), np.sin(0.7)])
        segments = self.tilted_pair(np.zeros(2), d, (0.05, 0.4, 0.6, 0.95), (1.0, -1.0))
        with pytest.raises(ValidationError, match="^segments 0 and 1 overlap"):
            StructuredVectorMeasure.build(2, segments=segments)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tilted_collinear_pairs(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(200):
            p = rng.normal(size=dim) * rng.choice([1.0, 10.0])
            d = rng.normal(size=dim)
            d /= vec_norm(d)
            t = np.sort(rng.uniform(-2.0, 2.0, size=4))
            opposed = self.tilted_pair(p, d, t, (1.0, -1.0))
            with pytest.raises(ValidationError, match="^segments 0 and 1 overlap"):
                StructuredVectorMeasure.build(dim, segments=opposed)
            aligned = self.tilted_pair(p, d, t, (1.0, 1.0))
            nu = StructuredVectorMeasure.build(dim, segments=aligned)
            assert abs(nu.total_variation - (t[2] - t[0] + t[3] - t[1])) <= 1e-12 * 10.0

    @staticmethod
    def first_overlap_reference(segments, scale):
        """The all-pairs scalar scan: first (i, j) in row-major order."""
        segments = [[np.asarray(x, dtype=float) for x in seg] for seg in segments]
        for i in range(len(segments)):
            for j in range(i + 1, len(segments)):
                if _segments_overlap(*segments[i], *segments[j], scale):
                    return i, j
        return None

    @staticmethod
    def line_segments(rng, dim, signs, n_lines, per_line):
        """Segments on a few shared lines, in random order: either end first
        (antiparallel directions), overlapping or disjoint, with densities
        along the line with a sign drawn from `signs`, plus a few free
        segments."""
        segments = []
        for k in range(n_lines):
            p = rng.integers(-4, 5, size=dim).astype(float)
            if k % 2 == 0:  # axis-aligned: exactly parallel unit directions
                d = np.zeros(dim)
                d[rng.integers(dim)] = 1.0
            else:  # tilted: directions that agree only up to rounding
                d = rng.normal(size=dim)
            for _ in range(per_line):
                t0, t1 = rng.choice(np.arange(-6.0, 7.0) / 2.0, size=2, replace=False)
                sign = rng.choice(signs)
                segments.append((p + t0 * d, p + t1 * d, sign * rng.uniform(0.5, 2.0) * d))
        for _ in range(3):
            segments.append((rng.normal(size=dim), rng.normal(size=dim), rng.normal(size=dim)))
        return [segments[k] for k in rng.permutation(len(segments))]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_all_pairs_scalar_scan(self, dim):
        rng = np.random.default_rng(7 + dim)
        outcomes = []
        for trial in range(60):
            # every third trial has aligned densities on each line: nothing to reject
            signs = [1.0] if trial % 3 == 0 else [-1.0, 1.0]
            segments = self.line_segments(rng, dim, signs, n_lines=3, per_line=1 + trial % 4)
            scale = max(vec_norm(b - a) for a, b, _ in segments)
            expected = self.first_overlap_reference(segments, scale)
            outcomes.append(expected)
            if expected is None:
                StructuredVectorMeasure.build(dim, segments=segments)
            else:
                i, j = expected
                with pytest.raises(ValidationError, match=f"^segments {i} and {j} overlap"):
                    StructuredVectorMeasure.build(dim, segments=segments)
        assert any(o is None for o in outcomes)
        assert any(o is not None and o[0] > 0 for o in outcomes)

    def test_error_names_first_pair(self):
        segments = [
            ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0)),
            ((5.0, 0.0), (3.0, 0.0), (1.0, 0.0)),  # antiparallel to 3, density aligned
            ((0.0, 2.0), (4.0, 2.0), (1.0, 0.0)),  # collinear with 4 but disjoint
            ((2.0, 0.0), (6.0, 0.0), (2.0, 0.0)),
            ((5.0, 2.0), (7.0, 2.0), (-1.0, 0.0)),
            ((3.5, 0.0), (4.5, 0.0), (-1.0, 0.0)),  # opposes 1 and 3
        ]
        assert self.first_overlap_reference(segments, 4.0) == (1, 5)
        with pytest.raises(ValidationError, match="^segments 1 and 5 overlap"):
            StructuredVectorMeasure.build(2, segments=segments)


def reference_tail_bound(chain, k):
    """The loop tail_bound replaced: the listed suffix added right to left,
    starting from the analytic tail."""
    m = len(chain)
    analytic = 0.0
    if chain.tail is not None:
        ratio, first = chain.tail
        analytic = first * ratio ** max(k, m)
    if k >= m:
        return analytic
    lens = chain.lengths()
    suffix = analytic
    for i in range(m - 1, k - 1, -1):
        suffix += lens[i]
    return float(suffix)


class TestFromDipoles:
    def test_single_listed_pair(self):
        chain = DipoleChain((((0.0, 0.0), (1.0, 0.0)),))
        f, bound = from_dipoles(chain)
        assert bound == 0.0
        assert len(f.measure_part) == 2
        assert f.measure_part.balanced

    def test_geometric_tail_bound(self):
        # sum_{i>10} 2^-i = 2^-10 exactly
        pairs = tuple(
            ((0.0, float(i)), (2.0**-i, float(i))) for i in range(1, 11)
        )
        chain = DipoleChain(pairs, tail=(0.5, 1.0))
        f, bound = from_dipoles(chain, truncation_eps=2.0**-10)
        assert bound == 2.0**-10
        assert len(f.measure_part) == 20

    def test_tail_bound_has_the_bits_of_the_right_to_left_loop(self):
        rng = np.random.default_rng(1304)
        for trial in range(40):
            m = int(rng.integers(0, 14))
            pairs = tuple(
                (p, p + rng.normal(size=2) * 10.0 ** rng.integers(-4, 2))
                for p in rng.uniform(0.0, 1.0, (m, 2))
            )
            tail = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.01, 1.0)))
            chain = DipoleChain(pairs, tail=tail if trial % 2 else None)
            for k in range(m + 3):
                assert chain.tail_bound(k) == reference_tail_bound(chain, k)

    def test_unreachable_truncation_fails(self):
        chain = DipoleChain((((0.0, 0.0), (1.0, 0.0)),), tail=(0.5, 1.0))
        with pytest.raises(TailBoundError):
            from_dipoles(chain, truncation_eps=0.1)

    def test_empty_chain(self):
        f, bound = from_dipoles(DipoleChain(()))
        assert bound == 0.0
        assert len(f.measure_part) == 0

    def test_tail_requires_positive_eps(self):
        chain = DipoleChain((((0.0, 0.0), (1.0, 0.0)),), tail=(0.5, 0.01))
        with pytest.raises(ValidationError):
            from_dipoles(chain)


class TestDipoleChainArray:
    def test_pairs_are_one_read_only_array(self):
        pairs = (((0.0, 0.0, 1.0), (1.0, 0.0, 1.0)), ((2.0, 2.0, 2.0), (2.0, 3.0, 2.0)))
        chain = DipoleChain(pairs)
        assert chain.pairs.shape == (2, 2, 3) and chain.dim == 3
        assert [(p.tolist(), n.tolist()) for p, n in chain.pairs] == [
            (list(p), list(n)) for p, n in pairs
        ]
        with pytest.raises(ValueError):
            chain.pairs[0, 0, 0] = 5.0
        f, _ = from_dipoles(chain)
        assert f.measure_part.points.tolist() == [list(q) for pair in pairs for q in pair]
        assert f.measure_part.masses.tolist() == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("pairs", [
        (((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
        (((0.0, 0.0), (1.0, 0.0, 0.0)),),
    ])
    def test_ragged_endpoints_message_is_unchanged(self, pairs):
        with pytest.raises(ValidationError, match="^dipole endpoints have mismatched dimensions$"):
            DipoleChain(pairs)

    def test_non_finite_message_names_the_first_bad_endpoint(self):
        pairs = (((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (float("nan"), 1.0)), ((float("inf"), 0.0), (0.0, 0.0)))
        with pytest.raises(ValidationError) as info:
            DipoleChain(pairs)
        assert str(info.value) == "point has non-finite coordinates: (nan, 1.0)"

    def test_empty_chain_is_two_dimensional(self):
        chain = DipoleChain(())
        assert chain.pairs.shape == (0, 2, 2) and len(chain) == 0 and chain.dim == 2
