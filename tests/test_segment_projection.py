"""measures.segment_projection against the per-segment loops it replaced.

The loops below are the reference: ``tangential_split`` and
``divergence_as_measure`` must reproduce them bit for bit, on densities
tilted to within a decade of PARALLEL_RTOL on either side of the parallel
threshold, zero densities, empty segment lists and vector atoms.
"""

import numpy as np
import pytest

from tranship.geom import vec_norm
from tranship.measures import (
    PARALLEL_RTOL,
    NotAMeasure,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    divergence_as_measure,
    segment_projection,
)
from tranship.sharpspace import tangential_split


def reference_split(nu):
    parallel = []
    perpendicular = []
    for a, b, density, length in zip(nu.seg_a, nu.seg_b, nu.seg_density, nu.segment_lengths):
        tangent = (b - a) / length
        theta = float(np.dot(density, tangent))
        d_par = theta * tangent
        d_perp = density - d_par
        if vec_norm(d_perp) <= PARALLEL_RTOL * max(vec_norm(density), 1e-300):
            d_par = density
            d_perp = np.zeros(nu.dim)
        parallel.append(d_par)
        perpendicular.append(d_perp)
    par_arr = np.array(parallel).reshape(-1, nu.dim)
    perp_arr = np.array(perpendicular).reshape(-1, nu.dim)
    normal_mass = 0.0
    for vector in nu.atom_vectors:
        normal_mass += vec_norm(vector)
    for d_perp, length in zip(perp_arr, nu.segment_lengths):
        normal_mass += vec_norm(d_perp) * length
    return par_arr, perp_arr, normal_mass


def reference_divergence(nu):
    if nu.n_atoms:
        return NotAMeasure("vector atoms have tangent space {0}: -div is first order")
    atoms = []
    for a, b, density, length in zip(nu.seg_a, nu.seg_b, nu.seg_density, nu.segment_lengths):
        tangent = (b - a) / length
        theta = float(np.dot(density, tangent))
        perp = density - theta * tangent
        dnorm = vec_norm(density)
        if vec_norm(perp) > PARALLEL_RTOL * max(dnorm, 1e-300):
            return NotAMeasure("segment density has a normal component: -div is first order")
        if theta == 0.0:
            continue
        atoms.append((b, theta))
        atoms.append((a, -theta))
    return SignedAtomMeasure.from_atoms(atoms, dim=nu.dim)


def random_measure(rng, dim, lo_exp, hi_exp):
    """Segments whose densities are tilted off their direction by 10**U(lo, hi)
    relative, with some exact tangents, zero densities and scaled copies."""
    n_seg = int(rng.integers(0, 9))
    a = rng.uniform(-2.0, 2.0, size=(n_seg, dim))
    b = a + rng.normal(size=(n_seg, dim))
    unit = (b - a) / np.sqrt(np.einsum("ij,ij->i", b - a, b - a))[:, None]
    theta = rng.uniform(-3.0, 3.0, size=n_seg)
    tilt = rng.normal(size=(n_seg, dim))
    tilt -= np.einsum("ij,ij->i", tilt, unit)[:, None] * unit
    tilt /= np.sqrt(np.einsum("ij,ij->i", tilt, tilt))[:, None]
    rel = 10.0 ** rng.uniform(lo_exp, hi_exp, size=n_seg)
    density = theta[:, None] * (unit + rel[:, None] * tilt)
    kind = rng.integers(0, 6, size=n_seg)
    density[kind == 0] = theta[kind == 0, None] * unit[kind == 0]
    density[kind == 1] = 0.0
    density[kind == 2] *= 1e-200  # the 1e-300 floor stays out of play
    n_atoms = int(rng.integers(0, 3)) if rng.uniform() < 0.3 else 0
    return StructuredVectorMeasure(
        dim,
        rng.uniform(-2.0, 2.0, size=(n_atoms, dim)),
        rng.normal(size=(n_atoms, dim)),
        a, b, density,
        validate=False,
    )


def _same(x, y) -> bool:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# tilts straddling the threshold, and tilts all below it (so that most
# divergences are measures)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lo_exp, hi_exp", [(-13.0, -11.0), (-14.0, -12.3)])
def test_projection_matches_the_per_segment_loops(dim, lo_exp, hi_exp):
    rng = np.random.default_rng([dim, int(-lo_exp * 10)])
    measures_seen = not_measures_seen = snapped_tilts = 0
    for _ in range(300):
        nu = random_measure(rng, dim, lo_exp, hi_exp)
        par, perp, normal_mass = reference_split(nu)
        parts = tangential_split(nu)
        assert _same(parts.tangential.seg_density, par)
        assert _same(parts.normal.seg_density, perp)
        assert _same(parts.normal_mass, normal_mass)

        expected = reference_divergence(nu)
        got = divergence_as_measure(nu)
        if isinstance(expected, NotAMeasure):
            not_measures_seen += 1
            assert got == expected
        else:
            measures_seen += 1
            assert isinstance(got, SignedAtomMeasure)
            assert _same(got.points, expected.points)
            assert _same(got.masses, expected.masses)

        tangent, theta, _normal, parallel = segment_projection(nu)
        snapped_tilts += int(np.sum(parallel & np.any(par != theta[:, None] * tangent, axis=1)))
    # every branch was exercised
    assert measures_seen and not_measures_seen and snapped_tilts


def test_projection_of_no_segments():
    nu = StructuredVectorMeasure.empty(3)
    tangent, theta, normal, parallel = segment_projection(nu)
    assert tangent.shape == normal.shape == (0, 3)
    assert theta.shape == parallel.shape == (0,)
    result = divergence_as_measure(nu)
    assert isinstance(result, SignedAtomMeasure) and len(result) == 0 and result.dim == 3
    assert tangential_split(nu).normal_mass == 0.0
