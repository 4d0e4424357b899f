"""The broadcast test functions and pairings against per-point references.

The references are the scalar forms: one point, one segment, one cell, one
plan atom and one dipole at a time, each summed by a Python loop from 0.0,
with powers taken by Python's ``**`` on floats.  The array kernels must give
the same float64 bytes, which pins the broadcast convention of
:mod:`tranship.funcs`, the ``np.float_power`` rule and every summation order.
"""

import numpy as np
import pytest

from tranship.funcs import Coordinate, Polynomial, RadialBump, polynomial_family
from tranship.genplan import GeneralizedPlan, PlanAtom, pair_plan, ray_quotient
from tranship.geom import Domain, Grid, dist, gauss_legendre, vec_norm
from tranship.measures import (
    CellField,
    DipoleChain,
    Distribution,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    pair,
)
from tranship.sharpspace import (
    ConeWitness,
    ModulusCurve,
    additivity_witness,
    modulus,
    verify_modulus_bound,
)


# ---------------------------------------------------------------------------
# per-point references


class RefCoordinate:
    def __init__(self, axis, dim):
        self.axis, self.dim = axis, dim

    def value(self, point):
        return float(np.asarray(point, dtype=float)[self.axis])

    def gradient(self, point):
        g = np.zeros(self.dim)
        g[self.axis] = 1.0
        return g


class RefPolynomial:
    def __init__(self, coeffs, dim):
        self.coeffs, self.dim = dict(coeffs), dim

    def value(self, point):
        total = 0.0
        for exps, c in self.coeffs.items():
            term = c
            for xi, e in zip(point.tolist(), exps):
                if e:
                    term *= xi**e
            total += term
        return total

    def gradient(self, point):
        g = np.zeros(self.dim)
        for exps, c in self.coeffs.items():
            for axis, e in enumerate(exps):
                if e == 0:
                    continue
                term = c * e
                for k, (xi, ek) in enumerate(zip(point.tolist(), exps)):
                    p = ek - 1 if k == axis else ek
                    if p:
                        term *= xi**p
                g[axis] += term
        return g


class RefBump:
    def __init__(self, center, radius, amplitude):
        self.center = np.asarray(center, dtype=float)
        self.radius, self.amplitude = radius, amplitude

    def value(self, point):
        d = np.asarray(point, dtype=float) - self.center
        s2 = float(np.dot(d, d)) / self.radius**2
        if s2 >= 1.0:
            return 0.0
        return self.amplitude * (1.0 - s2) ** 3

    def gradient(self, point):
        d = np.asarray(point, dtype=float) - self.center
        s2 = float(np.dot(d, d)) / self.radius**2
        if s2 >= 1.0:
            return np.zeros(self.center.size)
        return (-6.0 * self.amplitude / self.radius**2) * (1.0 - s2) ** 2 * d


class RefCone:
    def __init__(self, apexes, heights):
        self.apexes, self.heights = apexes, heights

    def _cones(self, point):
        return self.heights - np.array([dist(point, a) for a in self.apexes])

    def value(self, point):
        return max(0.0, float(np.max(self._cones(point), initial=-np.inf)))

    def gradient(self, point):
        point = np.asarray(point, dtype=float)
        cones = self._cones(point)
        if not np.any(cones > 0.0):
            return np.zeros(point.size)
        d = point - self.apexes[np.argmax(cones)]
        r = vec_norm(d)
        if r == 0.0:
            return np.zeros(point.size)
        return -d / r


def ref_segment_quadrature(a, b, n=8):
    nodes, weights = gauss_legendre(n)
    ts = 0.5 * (nodes + 1.0)
    points = a[None, :] + ts[:, None] * (b - a)[None, :]
    return points, 0.5 * weights * dist(a, b)


def ref_cell_quadrature(grid, multi_index, n=4):
    nodes, weights = gauss_legendre(n)
    lo = grid.domain.lower + np.asarray(multi_index, dtype=float) * grid.cell_size
    axes_pts, axes_w = [], []
    for k in range(grid.dim):
        h = grid.cell_size[k]
        axes_pts.append(lo[k] + 0.5 * (nodes + 1.0) * h)
        axes_w.append(0.5 * weights * h)
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    w = axes_w[0]
    for k in range(1, grid.dim):
        w = np.multiply.outer(w, axes_w[k])
    return np.stack([m.ravel() for m in mesh], axis=1), w.ravel()


def ref_pair(f, func):
    nu = f.divergence_part
    total = 0.0
    m = f.measure_part
    if len(m):
        values = np.array([func.value(p) for p in m.points])
        total += float(np.sum(m.masses * values))
    for point, vector in zip(nu.atom_points, nu.atom_vectors):
        total += float(np.dot(vector, func.gradient(point)))
    for a, b, density in zip(nu.seg_a, nu.seg_b, nu.seg_density):
        pts, w = ref_segment_quadrature(a, b)
        acc = 0.0
        for q, wq in zip(pts, w):
            acc += wq * float(np.dot(density, func.gradient(q)))
        total += acc
    if nu.cells is not None:
        grid = nu.cells.grid
        for flat in range(grid.n_cells):
            vector = nu.cells.vectors[flat]
            if not np.any(vector):
                continue
            pts, w = ref_cell_quadrature(grid, np.unravel_index(flat, grid.shape))
            acc = 0.0
            for q, wq in zip(pts, w):
                acc += wq * float(np.dot(vector, func.gradient(q)))
            total += acc
    return total


def ref_ray_quotient(func, atom):
    if atom.t == 0.0:
        return float(np.dot(func.gradient(atom.base), atom.dir))
    return (func.value(atom.base + atom.t * atom.dir) - func.value(atom.base)) / atom.t


def ref_pair_plan(plan, func):
    total = 0.0
    for atom in plan.atoms:
        total += atom.mass * ref_ray_quotient(func, atom)
    return total


def ref_pair_with(chain, func):
    total = 0.0
    for p, n in chain.pairs:
        total += func.value(p) - func.value(n)
    return total


class RefClippedAffine:
    def __init__(self, w, b, cap, corners):
        self.w = np.asarray(w, dtype=float)
        self.b = float(b)
        self.cap = float(cap)
        affine = corners @ self.w + self.b
        lo, hi = float(affine.min()), float(affine.max())
        self.sup = max(abs(self._clip(lo)), abs(self._clip(hi)))
        flat = hi <= -self.cap or lo >= self.cap or not np.any(self.w)
        self.lip = 0.0 if flat else vec_norm(self.w)

    def _clip(self, v):
        return max(-self.cap, min(self.cap, v))

    def value(self, point):
        return self._clip(float(np.dot(self.w, np.asarray(point, dtype=float)) + self.b))


def ref_verify_modulus_bound(chain, curve, n_samples, seed):
    rng = np.random.default_rng(seed)
    pts = np.array([q for p, n in chain.pairs for q in (p, n)])
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    corners = np.array(
        [[hi[k] if mask >> k & 1 else lo[k] for k in range(lo.size)] for mask in range(1 << lo.size)]
    )
    remainder = chain.tail_bound(len(chain))
    worst = -np.inf
    for eps, c_const, _k in curve.samples:
        for _ in range(n_samples):
            w = rng.normal(size=pts.shape[1])
            w *= rng.uniform(0.5, 2.0) / max(vec_norm(w), 1e-12)
            b = rng.uniform(-1.0, 1.0)
            span = float(np.abs(corners @ w + b).max())
            cap = rng.uniform(0.3, 0.9) * max(span, 1e-6)
            u = RefClippedAffine(w, b, cap, corners)
            lhs = abs(ref_pair_with(chain, u)) + remainder * u.lip
            rhs = c_const * u.sup + eps * u.lip
            worst = max(worst, lhs - rhs)
    return float(worst)


# ---------------------------------------------------------------------------
# seeded inputs


def random_polynomial(rng, dim, max_degree=8, n_terms=5):
    coeffs = {}
    for _ in range(n_terms):
        total = int(rng.integers(0, max_degree + 1))
        cuts = np.sort(rng.integers(0, total + 1, size=dim - 1))
        exps = np.diff(np.concatenate([[0], cuts, [total]]))
        coeffs[tuple(int(e) for e in exps)] = float(rng.normal())
    return coeffs


def function_pairs(rng, dim):
    """(broadcast function, per-point reference) pairs: coordinates, the
    degree-3 family, random polynomials up to degree 8 and radial bumps
    with either sign of amplitude, whose support leaves some points out."""
    pairs = [(Coordinate(k, dim), RefCoordinate(k, dim)) for k in range(dim)]
    pairs += [(p, RefPolynomial(p.coeffs, dim)) for p in polynomial_family(dim, 3)]
    for _ in range(6):
        coeffs = random_polynomial(rng, dim)
        pairs.append((Polynomial(coeffs, dim), RefPolynomial(coeffs, dim)))
    for amplitude in (-2.5, 1.0, -0.75):
        center = rng.uniform(0.0, 1.0, size=dim)
        radius = float(rng.uniform(0.3, 0.8))
        pairs.append((RadialBump(center, radius, amplitude), RefBump(center, radius, amplitude)))
    return pairs


def random_distribution(rng, dim, cells=True):
    n_atoms = 7
    pts = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
    measure = SignedAtomMeasure(pts, rng.normal(size=n_atoms))
    atoms = [(rng.uniform(0.0, 1.0, size=dim), rng.normal(size=dim)) for _ in range(4)]
    segments = [
        (rng.uniform(0.0, 1.0, size=dim), rng.uniform(0.0, 1.0, size=dim), rng.normal(size=dim))
        for _ in range(5)
    ]
    field = None
    if cells:
        grid = Grid(Domain(np.zeros(dim), np.ones(dim)), (3, 2, 2)[:dim])
        vectors = rng.normal(size=(grid.n_cells, dim))
        vectors[rng.uniform(size=grid.n_cells) < 0.4] = 0.0  # zero cells are skipped
        field = CellField(grid, vectors)
    nu = StructuredVectorMeasure.build(dim, atoms=atoms, segments=segments, cells=field, validate=False)
    return Distribution(measure, nu)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3])
def test_functions_broadcast_with_the_reference_bits(rng, dim):
    points = rng.uniform(-0.5, 1.5, size=(4, 5, dim))
    for func, ref in function_pairs(rng, dim):
        values = func.value(points)
        grads = func.gradient(points)
        assert values.shape == points.shape[:-1] and grads.shape == points.shape
        flat = points.reshape(-1, dim)
        assert bits(values) == bits([ref.value(p) for p in flat]), str(func)
        assert bits(grads) == bits([ref.gradient(p) for p in flat]), str(func)
        # one point is the 1-d case, with a 0-d value
        assert np.shape(func.value(flat[3])) == () and func.value(flat[3]) == ref.value(flat[3])
        assert bits(func.gradient(flat[3])) == bits(ref.gradient(flat[3]))


def test_bump_is_positive_zero_off_its_support():
    bump = RadialBump([0.0, 0.0], radius=1.0, amplitude=-2.0)
    points = np.array([[1.0, 0.0], [3.0, 4.0], [0.5, 0.0]])
    assert np.signbit(bump.value(points)).tolist() == [False, False, True]
    assert not np.any(np.signbit(bump.gradient(points[:2])))
    # every term -0.0 (a negative mass times +0): the sum from 0.0 is +0.0
    far = Distribution.from_measure(SignedAtomMeasure([[5.0, 5.0], [6.0, 5.0]], [-1.0, -2.0]))
    assert not np.signbit(pair(far, bump))


def test_powers_follow_c_pow_where_array_power_differs():
    # on AVX-512 builds of numpy an array `x ** 3` gives the float above
    # C pow's result for this x; np.float_power, like Python's ** on one
    # float, gives pow's
    x = float.fromhex("0x1.ce35fd5366b50p-1")
    cube = Polynomial({(3, 0): 1.0, (0, 1): 0.0}, 2)
    points = np.array([[x, 0.5], [x, -1.0]])
    assert cube.value(points).tolist() == [x**3, x**3]
    assert cube.gradient(points)[:, 0].tolist() == [3.0 * x**2, 3.0 * x**2]
    sample = np.random.default_rng(0).uniform(-3.0, 3.0, size=2000)
    poly = Polynomial({(4, 0): 1.0, (0, 3): -1.0}, 2)
    got = poly.value(np.column_stack([sample, sample]))
    assert got.tolist() == [0.0 + x**4 + -1.0 * x**3 for x in sample.tolist()]


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_matches_the_per_point_reference(rng, dim):
    for _ in range(4):
        f = random_distribution(rng, dim)
        for func, ref in function_pairs(rng, dim):
            assert pair(f, func).hex() == ref_pair(f, ref).hex(), str(func)
    # no cells, an empty measure part, an all-zero cell field
    nu = random_distribution(rng, dim, cells=False).divergence_part
    poly = random_polynomial(rng, dim)
    got = pair(Distribution.from_divergence(nu), Polynomial(poly, dim))
    assert got.hex() == ref_pair(Distribution.from_divergence(nu), RefPolynomial(poly, dim)).hex()
    grid = Grid(Domain(np.zeros(dim), np.ones(dim)), (2,) * dim)
    zero = StructuredVectorMeasure.build(dim, cells=CellField(grid, np.zeros((grid.n_cells, dim))))
    assert pair(Distribution.from_divergence(zero), Coordinate(0, dim)) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_plan_and_ray_quotients_match_the_reference(rng, dim):
    for _ in range(4):
        atoms = []
        for _ in range(12):
            d = rng.normal(size=dim)
            t = 0.0 if rng.uniform() < 0.4 else float(rng.uniform(0.0, 1.0))
            atoms.append(PlanAtom(rng.uniform(0.0, 1.0, size=dim), d / vec_norm(d), t, rng.uniform(0.1, 2.0)))
        plan = GeneralizedPlan.from_atoms(atoms, dim)
        for func, ref in function_pairs(rng, dim):
            assert pair_plan(plan, func).hex() == ref_pair_plan(plan, ref).hex(), str(func)
            for atom in atoms[:3]:
                assert ray_quotient(func, atom).hex() == ref_ray_quotient(ref, atom).hex()


def test_pair_with_and_modulus_margins_match_the_reference(rng):
    for dim in (2, 3):
        pairs = [(rng.uniform(0.0, 1.0, size=dim), rng.uniform(0.0, 1.0, size=dim)) for _ in range(9)]
        chain = DipoleChain(tuple(pairs), tail=(0.5, 0.1))
        for func, ref in function_pairs(rng, dim):
            assert chain.pair_with(func).hex() == ref_pair_with(chain, ref).hex(), str(func)
        curve = ModulusCurve(samples=((0.3, 2, 1), (0.05, 8, 4), (1e-3, 20, 10)))
        for seed in range(3):
            got = verify_modulus_bound(chain, curve, n_samples=60, seed=seed)
            assert got.hex() == ref_verify_modulus_bound(chain, curve, 60, seed).hex()
        curve = modulus(chain, [0.3, 0.01], seed=5)
        assert curve.verified_margin == ref_verify_modulus_bound(chain, curve, 100, 5)


def test_modulus_margins_match_the_reference_on_functions_constant_on_the_box(rng):
    # far from the origin many sampled functions clip to one bound on the
    # whole box: Lipschitz constant 0 there, so with c = 0 they meet the
    # bound with equality while every other function, on these short
    # dipoles, stays below it
    for dim in (2, 3):
        points = 100.0 + rng.uniform(0.0, 1.0, size=(5, dim))
        pairs = [(p, p + 1e-3 * rng.uniform(-1.0, 1.0, size=dim)) for p in points]
        chain = DipoleChain(tuple(pairs), tail=(0.5, 0.1))
        curve = ModulusCurve(samples=((0.5, 0, 0),))
        for seed in range(3):
            got = verify_modulus_bound(chain, curve, n_samples=40, seed=seed)
            assert got.hex() == ref_verify_modulus_bound(chain, curve, 40, seed).hex() == (0.0).hex()


def test_cone_witness_matches_the_reference_on_floor_and_apexes(rng):
    for dim in (2, 3):
        support = rng.uniform(0.0, 1.0, size=(6, dim))
        atoms = rng.uniform(3.0, 4.0, size=(3, dim)), rng.normal(size=(3, dim))
        witness = additivity_witness(support, rng.uniform(0.0, 0.5, size=6), *atoms, 0.2)
        ref = RefCone(witness.apexes, witness.heights)
        # random points, the apexes themselves and points far on the floor
        points = np.concatenate([
            rng.uniform(-0.5, 4.5, size=(40, dim)), witness.apexes, np.full((2, dim), 50.0)
        ])
        assert bits(witness.value(points)) == bits([ref.value(p) for p in points])
        assert bits(witness.gradient(points)) == bits([ref.gradient(p) for p in points])
        assert not np.any(np.signbit(witness.value(points[-2:])))
        assert not np.any(np.signbit(witness.gradient(points[-2:])))
    empty = ConeWitness(np.zeros((0, 2)), np.zeros(0))
    probes = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert bits(empty.value(probes)) == bits([0.0, 0.0])
    assert bits(empty.gradient(probes)) == bits(np.zeros((2, 2)))
