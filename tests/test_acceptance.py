"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from tranship.beckmann import (
    anisotropy_bound,
    complete_network,
    grid_network,
    solve_beckmann,
)
from tranship.density import rasterize_plan
from tranship.funcs import polynomial_family
from tranship.genplan import pair_plan, plan_from_matching, to_vector_measure
from tranship.geom import Domain, Grid, dist
from tranship.matchnorm import (
    brute_force_connection,
    dual_potential,
    flat_norm,
    minimal_connection,
)
from tranship.measures import (
    DipoleChain,
    Distribution,
    SignedAtomMeasure,
    pair,
)
from tranship.sharpspace import (
    decompose,
    distance_to_sharp,
    modulus,
    sharp_distance_via_plan,
    tangential_cycle,
    verify_modulus_bound,
)
from tranship.testing import (
    certified_instance,
    random_balanced_measure,
    random_dipole,
    random_unit_dipole_measure,
)

FAMILY = polynomial_family(2, 3)


def report(name: str, passed: bool, detail: str):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name} failed: {detail}"


def test_01_three_way_duality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        f = random_balanced_measure(rng, max_pairs=15)
        matching = minimal_connection(f)
        _, dual_value = dual_potential(f)
        flow = solve_beckmann(complete_network(f))
        scale = max(matching.cost, 1e-30)
        worst = max(
            worst,
            abs(matching.cost - dual_value) / scale,
            abs(matching.cost - flow.cost) / scale,
        )
    elapsed = time.perf_counter() - start
    report(
        "ACCEPT-01 three-way duality",
        worst <= 1e-7 and elapsed < 10.0,
        f"max rel gap {worst:.3e}, {elapsed:.2f}s over 200 instances",
    )


def test_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        f = random_unit_dipole_measure(rng, max_pairs=7)
        if minimal_connection(f).cost != brute_force_connection(f):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "ACCEPT-02 oracle equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"{mismatches} mismatches over 500 instances, {elapsed:.2f}s",
    )


def test_03_single_dipole_norm():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        f, d = random_dipole(rng)
        cost = minimal_connection(f).cost
        worst = max(worst, abs(cost - d) / d)
    report("ACCEPT-03 single dipole", worst <= 1e-12, f"max rel error {worst:.3e}")


def test_04_flat_norm_dipole():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        f, d = random_dipole(rng, max_distance=5.0)
        value = flat_norm(f, "max")
        worst = max(worst, abs(value - min(d, 2.0)))
    report("ACCEPT-04 flat norm of a dipole", worst <= 1e-9, f"max error {worst:.3e}")


def test_05_density_mass_cost_identity():
    rng = np.random.default_rng(505)
    grid = Grid(Domain([-0.1, -0.1], [1.1, 1.1]), (64, 64))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_balanced_measure(rng, max_pairs=15)
        matching = minimal_connection(f)
        density = rasterize_plan(matching, grid)
        worst = max(worst, abs(density.total - matching.cost) / max(matching.cost, 1e-30))
    elapsed = time.perf_counter() - start
    report(
        "ACCEPT-05 density mass-cost identity",
        worst <= 1e-12 and elapsed < 5.0,
        f"max rel gap {worst:.3e}, {elapsed:.2f}s at 64x64",
    )


def test_06_divergence_round_trip():
    rng = np.random.default_rng(606)
    worst_residual = 0.0
    worst_norm_gap = 0.0
    for _ in range(50):
        f = random_balanced_measure(rng, max_pairs=10)
        matching = minimal_connection(f)
        plan = plan_from_matching(matching)
        nu = to_vector_measure(plan)
        f_dist = Distribution.from_measure(f)
        nu_dist = Distribution.from_divergence(nu)
        for func in FAMILY:
            worst_residual = max(
                worst_residual, abs(pair(nu_dist, func) - pair(f_dist, func))
            )
        scale = max(matching.cost, 1e-30)
        worst_norm_gap = max(
            worst_norm_gap,
            abs(nu.total_variation - plan.total_variation) / scale,
            abs(plan.total_variation - matching.cost) / scale,
        )
    report(
        "ACCEPT-06 divergence round trip",
        worst_residual <= 1e-10 and worst_norm_gap <= 1e-9,
        f"max pairing residual {worst_residual:.3e}, max norm gap {worst_norm_gap:.3e}",
    )


def test_07_slackness_and_feasibility():
    rng = np.random.default_rng(707)
    worst_tight = 0.0
    worst_slack = 0.0
    for _ in range(50):
        f = random_balanced_measure(rng, max_pairs=10)
        # matching solution against the LP potential
        matching = minimal_connection(f)
        potential, _ = dual_potential(f)
        u = potential.values
        pts = f.points
        for i, j in matching.edges:
            worst_tight = max(worst_tight, abs(u[i] - u[j] - dist(pts[i], pts[j])))
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j:
                    gap = dist(pts[i], pts[j]) - (u[i] - u[j])
                    worst_slack = max(worst_slack, -gap)
        # flow solution against its own potentials
        net = complete_network(f)
        flow = solve_beckmann(net)
        u = flow.potentials
        for (i, j), v, length in zip(net.edges, flow.edge_flows, net.lengths):
            worst_slack = max(worst_slack, abs(u[i] - u[j]) - length)
            if v != 0.0:
                drop = u[i] - u[j] if v > 0 else u[j] - u[i]
                worst_tight = max(worst_tight, abs(drop - length))
    report(
        "ACCEPT-07 eikonal slackness",
        worst_tight <= 1e-7 and worst_slack <= 1e-9,
        f"max tightness violation {worst_tight:.3e}, max feasibility violation {worst_slack:.3e}",
    )


def test_08_projector_additivity():
    rng = np.random.default_rng(808)
    worst_rel = 0.0
    invariance_failures = 0
    for _ in range(100):
        nu, matching, _normal = certified_instance(rng)
        result = decompose(nu)
        assert result.certified
        claimed = matching.cost + result.normal_mass
        worst_rel = max(worst_rel, abs(result.witness_value - claimed) / max(claimed, 1e-30))
        base = distance_to_sharp(nu)
        augmented = nu
        for _ in range(10):
            center = rng.uniform(0.2, 0.8, size=2)
            k = int(rng.integers(3, 7))
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
            verts = [
                center + rng.uniform(0.05, 0.2) * np.array([math.cos(t), math.sin(t)])
                for t in angles
            ]
            augmented = augmented + tangential_cycle(verts, float(rng.uniform(0.2, 2.0)))
            if distance_to_sharp(augmented) != base:
                invariance_failures += 1
    report(
        "ACCEPT-08 projector additivity",
        worst_rel <= 1e-7 and invariance_failures == 0,
        f"max witness gap {worst_rel:.3e}, {invariance_failures} cycle-invariance failures",
    )


def test_09_sigma_zero_cross_check():
    rng = np.random.default_rng(909)
    failures = 0
    for _ in range(100):
        nu, matching, normal_part = certified_instance(rng)
        if sharp_distance_via_plan(matching, normal_part) != distance_to_sharp(nu):
            failures += 1
    report(
        "ACCEPT-09 flux-mass formula",
        failures == 0,
        f"{failures} disagreements over 100 certified instances (exact comparison)",
    )


def test_10_modulus_certificates():
    pairs = tuple(((0.0, float(i)), (2.0**-i, float(i))) for i in range(1, 11))
    chain = DipoleChain(pairs, tail=(0.5, 1.0))
    eps_list = [2.0**-k for k in range(1, 11)]
    curve = modulus(chain, eps_list)
    table_ok = all(
        sample == (2.0**-k, 2 * k, k) for k, sample in zip(range(1, 11), curve.samples)
    )
    worst = verify_modulus_bound(chain, curve, n_samples=1000, seed=1010)
    report(
        "ACCEPT-10 dipole-chain modulus",
        table_ok and worst <= 1e-12,
        f"table {'ok' if table_ok else 'WRONG'}, max bound violation {worst:.3e}",
    )


def test_11_grid_anisotropy_honesty():
    f = SignedAtomMeasure.from_atoms([((0.001, 0.001), 1.0), ((0.999, 0.999), -1.0)])
    domain = Domain([0.0, 0.0], [1.0, 1.0])
    resolutions = [2, 4, 8, 16, 32, 64]  # 5 doublings
    details = []
    ok = True
    for diagonals, bound in ((False, math.sqrt(2.0)), (True, anisotropy_bound(2, True))):
        ratios = []
        for n in resolutions:
            net = grid_network(domain, (n, n), f, diagonals=diagonals)
            flow = solve_beckmann(net)
            src = int(np.argmax(net.supply))
            snk = int(np.argmin(net.supply))
            binned = dist(net.points[src], net.points[snk])
            ratios.append(flow.cost / binned)
        ok = ok and all(r <= bound + 1e-9 for r in ratios)
        ok = ok and all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        details.append(f"{'diag' if diagonals else 'axis'} max ratio {max(ratios):.6f}")
    report("ACCEPT-11 grid anisotropy honesty", ok, "; ".join(details))
