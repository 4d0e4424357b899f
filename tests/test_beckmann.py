import itertools
import math

import numpy as np
import pytest

from tranship import geom
from tranship.beckmann import (
    Flow,
    FlowNetwork,
    _grid_metric,
    anisotropy_bound,
    complete_network,
    flow_to_vector_measure,
    grid_network,
    solve_beckmann,
)
from tranship.errors import InfeasibleFlowError, ValidationError
from tranship.geom import Domain, dist
from tranship.mincostflow import solve_min_cost_flow
from tranship.matchnorm import dual_potential, minimal_connection
from tranship.measures import (
    NotAMeasure,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    divergence_as_measure,
)
from tranship.testing import random_balanced_measure


def path_network():
    points = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    edges = np.array([[0, 1], [1, 2]])
    lengths = np.array([0.5, 0.5])
    supply = np.array([1.0, 0.0, -1.0])
    return FlowNetwork(points, edges, lengths, supply)


def seeded_networks():
    """Complete and grid networks over seeded measures, and a zero-supply one."""
    rng = np.random.default_rng(20261018)
    domain = Domain([0.0, 0.0], [1.0, 1.0])
    for k in range(6):
        f = random_balanced_measure(rng, max_pairs=10)
        yield complete_network(f)
        yield grid_network(domain, (20, 17), f, diagonals=bool(k % 2))
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    yield FlowNetwork(points, np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0**0.5]), np.zeros(3))


class TestSolve:
    def test_cost_has_the_bits_of_the_edge_loop(self):
        for net in seeded_networks():
            flow = solve_beckmann(net)
            cost = 0.0
            for value, length in zip(flow.edge_flows, net.lengths):
                if value != 0.0:
                    cost += abs(value) * length
            assert flow.cost.hex() == cost.hex()

    def test_path_graph(self):
        flow = solve_beckmann(path_network())
        assert flow.cost == 1.0
        assert np.allclose(flow.edge_flows, [1.0, 1.0])

    def test_complete_graph_reconnection(self, reconnection):
        flow = solve_beckmann(complete_network(reconnection))
        assert abs(flow.cost - 2.0) <= 1e-12

    def test_zero_supply(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = FlowNetwork(points, np.array([[0, 1]]), np.array([1.0]), np.zeros(2))
        flow = solve_beckmann(net)
        assert flow.cost == 0.0
        assert np.all(flow.edge_flows == 0.0)

    @pytest.mark.parametrize("route", ["complete", "grid", "grid-diagonals"])
    def test_empty_measure_has_float_flows(self, route):
        # a weighted bincount over no entries would give int64 zeros
        f = SignedAtomMeasure.empty()
        if route == "complete":
            net = complete_network(f)
        else:
            net = grid_network(Domain([0.0, 0.0], [1.0, 1.0]), (3, 2), f, route == "grid-diagonals")
        flow = solve_beckmann(net)
        assert flow.edge_flows.dtype == np.float64
        assert flow.edge_flows.shape == (len(net.edges),)
        assert flow.cost == 0.0 and not np.any(flow.edge_flows)

    def test_matches_matching_on_complete_graphs(self, rng):
        for _ in range(25):
            f = random_balanced_measure(rng, max_pairs=10)
            cost = solve_beckmann(complete_network(f)).cost
            expected = minimal_connection(f).cost
            assert abs(cost - expected) <= 1e-7 * max(1.0, expected)

    def test_disconnected_supply_is_infeasible(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        edges = np.array([[0, 1], [2, 3]])
        lengths = np.array([1.0, 1.0])
        supply = np.array([1.0, 0.0, 0.0, -1.0])
        net = FlowNetwork(points, edges, lengths, supply)
        with pytest.raises(InfeasibleFlowError):
            solve_beckmann(net)

    def test_unbalanced_network_rejected(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            FlowNetwork(points, np.array([[0, 1]]), np.array([1.0]), np.array([1.0, 0.0]))


class TestCertificates:
    def test_node_balance(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=8)
            net = complete_network(f)
            flow = solve_beckmann(net)
            residual = -net.supply.copy()
            for (i, j), v in zip(net.edges, flow.edge_flows):
                residual[i] += v
                residual[j] -= v
            assert np.max(np.abs(residual)) <= 1e-9 * max(1.0, np.sum(np.abs(net.supply)))

    def test_potentials_feasible_and_tight(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=8)
            net = complete_network(f)
            flow = solve_beckmann(net)
            u = flow.potentials
            for (i, j), v, length in zip(net.edges, flow.edge_flows, net.lengths):
                assert abs(u[i] - u[j]) <= length + 1e-9
                if v != 0.0:
                    drop = u[i] - u[j] if v > 0 else u[j] - u[i]
                    assert abs(drop - length) <= 1e-7


class TestGridNetwork:
    @pytest.mark.parametrize(
        "resolution, diagonals",
        [((4, 3), False), ((4, 3), True), ((3, 2, 2), False), ((3, 2, 2), True)],
    )
    def test_edges_follow_cells_then_offsets(self, resolution, diagonals):
        # the edge order fixes the solver's tie-breaking: cells in C order,
        # then the neighbour offsets in their listed order
        domain = Domain([0.0] * len(resolution), [1.0] * len(resolution))
        net = grid_network(domain, resolution, SignedAtomMeasure.empty(len(resolution)), diagonals)
        steps = [
            off for off in itertools.product((-1, 0, 1), repeat=len(resolution))
            if any(off) and (diagonals or sum(map(abs, off)) == 1)
            and off > tuple(-o for o in off)
        ]
        expected = []
        for cell in itertools.product(*map(range, resolution)):
            for off in steps:
                nb = tuple(c + o for c, o in zip(cell, off))
                if all(0 <= k < r for k, r in zip(nb, resolution)):
                    expected.append(
                        [int(np.ravel_multi_index(q, resolution)) for q in (cell, nb)]
                    )
        assert net.edges.tolist() == expected
        assert net.lengths.tolist() == [dist(net.points[i], net.points[j]) for i, j in expected]

    def test_binning_3x1(self):
        domain = Domain([0.0, 0.0], [1.0, 0.1])
        f = SignedAtomMeasure.from_atoms([((0.1, 0.05), 1.0), ((0.9, 0.05), -1.0)])
        net = grid_network(domain, (3, 1), f)
        assert net.supply.tolist() == [1.0, 0.0, -1.0]
        assert net.n_nodes == 3

    def test_all_singleton_resolution_rejected(self):
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            grid_network(domain, (1, 1), SignedAtomMeasure.empty())

    def test_atom_outside_domain_rejected(self):
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        f = SignedAtomMeasure.from_atoms([((2.0, 0.5), 1.0), ((0.5, 0.5), -1.0)])
        with pytest.raises(ValidationError):
            grid_network(domain, (2, 2), f)

    def test_diagonal_dipole_anisotropy_gap(self):
        # axis-only 2x2 grid: Manhattan cost 1.0 vs Euclidean sqrt(2)/2
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        f = SignedAtomMeasure.from_atoms([((0.01, 0.01), 1.0), ((0.99, 0.99), -1.0)])
        net = grid_network(domain, (2, 2), f)
        flow = solve_beckmann(net)
        assert abs(flow.cost - 1.0) <= 1e-12
        euclid = dist([0.25, 0.25], [0.75, 0.75])
        assert abs(euclid - math.sqrt(2.0) / 2.0) <= 1e-15
        assert abs((flow.cost - euclid) - 0.2928932188134524) <= 1e-12

    def test_diagonals_recover_euclidean_for_diagonal_dipole(self):
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        f = SignedAtomMeasure.from_atoms([((0.01, 0.01), 1.0), ((0.99, 0.99), -1.0)])
        net = grid_network(domain, (4, 4), f, diagonals=True)
        flow = solve_beckmann(net)
        euclid = dist(net.points[0], net.points[15])
        assert abs(flow.cost - euclid) <= 1e-12

    def test_three_dimensional_grid(self):
        domain = Domain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        f = SignedAtomMeasure.from_atoms(
            [((0.1, 0.1, 0.1), 1.0), ((0.9, 0.1, 0.1), -1.0)]
        )
        net = grid_network(domain, (2, 2, 2), f)
        flow = solve_beckmann(net)
        assert abs(flow.cost - 0.5) <= 1e-12


STENCILS = [(2, False), (2, True), (3, False), (3, True)]  # 4-, 8-, 6-, 26-neighbour


def anisotropic_grid(rng, dim, diagonals, n_pairs=6):
    """A grid network over a seeded box of unequal sides and a seeded
    balanced measure in it; axes of one cell come up often."""
    while True:
        shape = tuple(int(r) for r in rng.integers(1, 8 if dim == 2 else 5, size=dim))
        if max(shape) >= 2:
            break
    upper = rng.uniform(0.2, 3.0, size=dim)
    pos = rng.uniform(0.2, 1.0, size=n_pairs)
    neg = rng.uniform(0.2, 1.0, size=n_pairs)
    neg *= pos.sum() / neg.sum()
    f = SignedAtomMeasure(rng.uniform(size=(2 * n_pairs, dim)) * upper, np.r_[pos, -neg])
    return grid_network(Domain(np.zeros(dim), upper), shape, f, diagonals=diagonals)


def assert_certified(net, flow):
    """Node balance, feasibility on every edge, slackness on carrying edges
    and a closed duality gap."""
    scale = max(1.0, float(np.sum(np.abs(net.supply))))
    u, v, (i, j) = flow.potentials, flow.edge_flows, net.edges.T
    balance = -net.supply + np.bincount(i, v, net.n_nodes) - np.bincount(j, v, net.n_nodes)
    assert np.max(np.abs(balance)) <= 1e-12 * scale
    assert np.all(np.abs(u[i] - u[j]) <= net.lengths * (1.0 + 1e-13))
    carrying = v != 0.0
    drop = np.where(v > 0.0, u[i] - u[j], u[j] - u[i])[carrying]
    assert np.all(np.abs(drop - net.lengths[carrying]) <= 1e-13 * net.lengths[carrying] + 1e-15)
    assert abs(flow.cost - float(net.supply @ u)) <= 1e-12 * scale * max(1.0, flow.cost)


class TestGridSolve:
    @pytest.mark.parametrize("dim, diagonals", STENCILS)
    def test_metric_equals_dijkstra(self, dim, diagonals):
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import dijkstra

        rng = np.random.default_rng([2023, dim, diagonals])
        for _ in range(15):
            net = anisotropic_grid(rng, dim, diagonals)
            grid, _ = net.grid
            i, j = net.edges.T
            graph = csr_array((net.lengths, (i, j)), shape=(net.n_nodes, net.n_nodes))
            expected = dijkstra(graph, directed=False)
            cells = np.column_stack(np.unravel_index(np.arange(net.n_nodes), grid.shape))
            got = _grid_metric(cells - cells[:, None], grid.cell_size, diagonals)
            assert np.all(np.abs(got - expected) <= 1e-14 * expected)

    @pytest.mark.parametrize("dim, diagonals", STENCILS)
    def test_agrees_with_the_graph_flow(self, dim, diagonals):
        rng = np.random.default_rng([2024, dim, diagonals])
        for _ in range(12):
            net = anisotropic_grid(rng, dim, diagonals)
            flow = solve_beckmann(net)
            # the kept graph-flow route on the same network, both arc directions
            arcs = np.vstack([net.edges, net.edges[:, ::-1]])
            costs = np.concatenate([net.lengths, net.lengths])
            sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
            m = net.edges.shape[0]
            edge_flows = sol.arc_flows[:m] - sol.arc_flows[m:]
            expected = float(np.abs(edge_flows) @ net.lengths)
            assert abs(flow.cost - expected) <= 1e-13 * expected
            assert_certified(net, flow)
            assert_certified(net, Flow(edge_flows, sol.potentials, expected))

    def test_potentials_do_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(2025)
        nets = [anisotropic_grid(rng, dim, diagonals) for dim, diagonals in STENCILS]
        atoms = random_balanced_measure(rng, max_pairs=40)
        solves = [lambda net=net: solve_beckmann(net).potentials for net in nets]
        solves.append(lambda: minimal_connection(atoms).potential)
        expected = [solve() for solve in solves]
        # a budget of one row per block
        monkeypatch.setattr(geom, "_BLOCK_BYTES", 1)
        for solve, want in zip(solves, expected):
            assert solve().tobytes() == want.tobytes()

    def test_edge_cases(self):
        domain = Domain([0.0, 0.0], [1.0, 0.1])
        for diagonals in (False, True):
            # no supply: no flow and zero potentials
            net = grid_network(domain, (3, 1), SignedAtomMeasure.empty(), diagonals)
            flow = solve_beckmann(net)
            assert flow.cost == 0.0
            assert not np.any(flow.edge_flows) and not np.any(flow.potentials)
            # atoms cancelling in one cell leave it no supply
            f = SignedAtomMeasure.from_atoms(
                [((0.1, 0.05), 0.5), ((0.2, 0.05), -0.5), ((0.5, 0.05), 1.0), ((0.9, 0.05), -1.0)]
            )
            net = grid_network(domain, (3, 1), f, diagonals)
            flow = solve_beckmann(net)
            assert flow.edge_flows.tolist() == [0.0, 1.0]
            assert flow.cost == net.lengths[1]
            assert_certified(net, flow)
            # one source cell and one sink cell of a 3x1 grid
            f = SignedAtomMeasure.from_atoms([((0.9, 0.05), 2.0), ((0.1, 0.05), -2.0)])
            net = grid_network(domain, (3, 1), f, diagonals)
            flow = solve_beckmann(net)
            assert flow.edge_flows.tolist() == [-2.0, -2.0]
            assert flow.cost == 2.0 * net.lengths[0] + 2.0 * net.lengths[1]
            assert_certified(net, flow)


class TestFlowToVectorMeasure:
    def test_path_flow_becomes_two_segments(self):
        net = path_network()
        flow = solve_beckmann(net)
        nu = flow_to_vector_measure(net, flow)
        assert nu.n_segments == 2
        assert abs(nu.total_variation - flow.cost) <= 1e-12
        m = divergence_as_measure(nu)
        assert not isinstance(m, NotAMeasure)
        got = {tuple(p): v for p, v in zip(m.points.tolist(), m.masses)}
        assert got == {(0.0, 0.0): 1.0, (1.0, 0.0): -1.0}

    def test_zero_flow_gives_empty_measure(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = FlowNetwork(points, np.array([[0, 1]]), np.array([1.0]), np.zeros(2))
        nu = flow_to_vector_measure(net, solve_beckmann(net))
        assert nu.is_empty

    def test_equals_the_edge_loop(self):
        for net in seeded_networks():
            flow = solve_beckmann(net)
            segments = []
            for (i, j), value, length in zip(net.edges, flow.edge_flows, net.lengths):
                if value != 0.0:
                    a, b = net.points[i], net.points[j]
                    segments.append((a, b, -value * ((b - a) / length)))
            expected = StructuredVectorMeasure.build(net.dim, segments=segments, validate=False)
            nu = flow_to_vector_measure(net, flow)
            for name in ("atom_points", "atom_vectors", "seg_a", "seg_b", "seg_density"):
                got, want = getattr(nu, name), getattr(expected, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_reconnection_measure_has_unit_segments(self, reconnection):
        net = complete_network(reconnection)
        flow = solve_beckmann(net)
        nu = flow_to_vector_measure(net, flow)
        assert nu.n_segments == 2
        assert abs(nu.total_variation - 2.0) <= 1e-12

    def test_divergence_reproduces_supply(self, rng):
        for _ in range(10):
            f = random_balanced_measure(rng, max_pairs=6)
            net = complete_network(f)
            flow = solve_beckmann(net)
            nu = flow_to_vector_measure(net, flow)
            m = divergence_as_measure(nu)
            assert not isinstance(m, NotAMeasure)
            got = {tuple(p): v for p, v in zip(m.points, m.masses)}
            for p, mass in zip(f.points, f.masses):
                assert abs(got.get(tuple(p), 0.0) - mass) <= 1e-9 * max(1.0, abs(mass))


class TestAnisotropy:
    def test_known_bounds(self):
        assert abs(anisotropy_bound(2, False) - math.sqrt(2.0)) <= 1e-12
        assert abs(anisotropy_bound(2, True) - 1.0 / math.cos(math.pi / 8.0)) <= 1e-12
        assert abs(anisotropy_bound(3, False) - math.sqrt(3.0)) <= 1e-12
        assert 1.0 < anisotropy_bound(3, True) < anisotropy_bound(2, True) + 0.1

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("diagonals", [False, True])
    def test_table_equals_convex_hull(self, dim, diagonals):
        from scipy.spatial import ConvexHull

        steps = [
            off
            for off in itertools.product((-1, 0, 1), repeat=dim)
            if any(off) and (diagonals or sum(map(abs, off)) == 1)
        ]
        dirs = np.array(steps, dtype=float)
        dirs /= np.sqrt((dirs**2).sum(axis=1))[:, None]
        hull = ConvexHull(dirs)
        assert anisotropy_bound(dim, diagonals) == float(1.0 / np.min(np.abs(hull.equations[:, -1])))

    @pytest.mark.parametrize("dim", [1, 4])
    def test_unsupported_dimension_rejected(self, dim):
        with pytest.raises(ValidationError, match="dimension 2 or 3"):
            anisotropy_bound(dim, False)

    def test_grid_cost_within_anisotropy_envelope(self, rng):
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        for diagonals in (False, True):
            kappa = anisotropy_bound(2, diagonals)
            for _ in range(5):
                pts = rng.uniform(0.05, 0.95, size=(2, 2))
                f = SignedAtomMeasure(pts, np.array([1.0, -1.0]))
                net = grid_network(domain, (16, 16), f, diagonals=diagonals)
                flow = solve_beckmann(net)
                idx = [int(np.argmax(net.supply)), int(np.argmin(net.supply))]
                binned = dist(net.points[idx[0]], net.points[idx[1]])
                assert flow.cost >= binned - 1e-9
                assert flow.cost <= kappa * binned + 1e-9
