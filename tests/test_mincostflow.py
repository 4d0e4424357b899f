import hashlib
import json

import numpy as np
import pytest

from tranship import beckmann, mincostflow
from tranship.beckmann import FlowNetwork, complete_network, grid_network, solve_beckmann
from tranship.cli import run
from tranship.errors import InfeasibleFlowError, ValidationError, VerificationError
from tranship.geom import Domain, c_transform, dists, ordered_sum
from tranship.matchnorm import dual_potential, minimal_connection
from tranship.measures import SignedAtomMeasure, StructuredVectorMeasure, divergence_as_measure
from tranship.mincostflow import solve_complete, solve_min_cost_flow, solve_transport
from tranship.testing import random_balanced_measure


def assert_certified(n_nodes, arcs, costs, supply, sol, tol=1e-9):
    """Feasible potentials, tight on every flow-carrying arc, and node balance:
    together they prove the flow optimal."""
    arcs = np.asarray(arcs)
    tail, head = arcs[:, 0], arcs[:, 1]
    u = sol.potentials
    drop = u[tail] - u[head]
    assert np.all(sol.arc_flows >= 0.0)
    assert np.all(drop <= costs + tol)
    carrying = sol.arc_flows > 0.0
    assert np.all(np.abs(drop[carrying] - costs[carrying]) <= tol)
    out = np.bincount(tail, weights=sol.arc_flows, minlength=n_nodes)
    into = np.bincount(head, weights=sol.arc_flows, minlength=n_nodes)
    assert np.max(np.abs(out - into - supply)) <= tol * max(1.0, np.sum(np.abs(supply)))


def both_directions(net):
    """The arcs and costs `solve_beckmann` hands to the solver."""
    arcs = np.vstack([net.edges, net.edges[:, ::-1]])
    return arcs, np.concatenate([net.lengths, net.lengths])


def bipartite(f):
    """The arcs and costs `minimal_connection` hands to the solver."""
    pos_pts, pos_mass = f.positive_part()
    neg_pts, neg_mass = f.negative_part()
    n_pos, n_neg = len(pos_pts), len(neg_pts)
    i, j = np.divmod(np.arange(n_pos * n_neg), n_neg)
    arcs = np.stack([i, n_pos + j], axis=1)
    costs = np.sqrt(np.sum((pos_pts[i] - neg_pts[j]) ** 2, axis=1))
    return n_pos + n_neg, arcs, costs, np.concatenate([pos_mass, -neg_mass])


class TestArcs:
    def test_duplicate_arcs_use_the_cheapest(self):
        arcs = np.array([[0, 1], [0, 1], [0, 1], [1, 0]])
        costs = np.array([3.0, 1.0, 2.0, 0.5])
        sol = solve_min_cost_flow(2, arcs, costs, np.array([1.0, -1.0]))
        assert sol.arc_flows.tolist() == [0.0, 1.0, 0.0, 0.0]
        assert np.dot(sol.arc_flows, costs) == 1.0
        assert sol.potentials[0] - sol.potentials[1] == 1.0

    def test_canceling_arcs_next_to_duplicate_forward_arcs(self):
        # collinear sources at x = 0 and 1.5 and sinks at x = 1 and 3; the
        # optimum (cost 3) needs a canceling arc, which shares its ordered
        # pair with a forward arc of the complete graph and with a dearer copy
        x = np.array([0.0, 1.5, 1.0, 3.0])
        supply = np.array([1.0, 2.0, -2.0, -1.0])
        i, j = np.nonzero(~np.eye(4, dtype=bool))
        arcs = np.vstack([np.stack([i, j], axis=1)] * 2)
        costs = np.concatenate([np.abs(x[i] - x[j]), np.abs(x[i] - x[j]) + 1.0])
        sol = solve_min_cost_flow(4, arcs, costs, supply)
        assert abs(np.dot(sol.arc_flows, costs) - 3.0) <= 1e-12
        assert np.all(sol.arc_flows[i.size:] == 0.0)
        assert_certified(4, arcs, costs, supply, sol)

    def test_zero_cost_arcs_are_edges(self):
        arcs = np.array([[0, 1], [1, 2], [0, 2]])
        costs = np.array([0.0, 0.0, 1.0])
        sol = solve_min_cost_flow(3, arcs, costs, np.array([1.0, 0.0, -1.0]))
        assert np.dot(sol.arc_flows, costs) == 0.0
        assert sol.arc_flows.tolist() == [1.0, 1.0, 0.0]
        assert np.all(sol.potentials == sol.potentials[0])

    def test_node_indices_beyond_int32_products(self):
        # tail * n_nodes exceeds the int32 range of csgraph's predecessors
        n = 50_000
        supply = np.zeros(n)
        supply[[n - 1, 0]] = [1.0, -1.0]
        sol = solve_min_cost_flow(n, np.array([[n - 1, 0]]), np.array([2.0]), supply)
        assert sol.arc_flows.tolist() == [1.0]
        assert np.dot(sol.arc_flows, [2.0]) == 2.0


class TestFailures:
    def test_disconnected_supply_is_infeasible(self):
        arcs = np.array([[0, 1], [2, 3]])
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(4, arcs, np.ones(2), np.array([1.0, 0.0, 0.0, -1.0]))

    def test_arc_endpoints_must_be_nodes(self):
        for bad in ([[0, 2]], [[-1, 1]]):
            with pytest.raises(ValidationError, match="node indices"):
                solve_min_cost_flow(2, np.array(bad), np.ones(1), np.array([1.0, -1.0]))

    def test_arc_direction_matters(self):
        with pytest.raises(InfeasibleFlowError):
            solve_min_cost_flow(2, np.array([[1, 0]]), np.ones(1), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("cost, message", [
        (-1.0, "nonnegative"), (np.inf, "finite"), (np.nan, "finite"),
    ], ids=["negative-cost", "inf-cost", "nan-cost"])
    def test_arc_list_rejects_bad_costs(self, cost, message):
        # a NaN passes `cost < 0`; it used to surface as a disconnected graph
        arcs = np.array([[0, 1], [0, 2]])
        with pytest.raises(ValidationError, match=message):
            solve_min_cost_flow(3, arcs, np.array([cost, 1.0]), np.array([1.0, -0.5, -0.5]))

    def test_augmentation_limit_is_a_verification_failure(self, monkeypatch):
        monkeypatch.setattr(mincostflow, "_MAX_AUGMENTATIONS_FACTOR", 0)
        with pytest.raises(VerificationError, match="augmentation limit"):
            solve_min_cost_flow(2, np.array([[0, 1]]), np.ones(1), np.array([1.0, -1.0]))

    def test_augmentation_limit_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mincostflow, "_MAX_AUGMENTATIONS_FACTOR", 0)
        doc = {
            "version": 1,
            "atoms": [
                {"point": [0.0, 0.0], "mass": 1.0},
                {"point": [1.0, 0.0], "mass": -0.4},
                {"point": [0.0, 1.0], "mass": -0.6},
            ],
        }
        path = tmp_path / "distinct.json"
        path.write_text(json.dumps(doc))
        assert run(["connect", str(path)]) == 4
        assert "augmentation limit" in capsys.readouterr().err

    def test_augmentation_limit_exits_4_on_beckmann(self, tmp_path, monkeypatch, capsys):
        # `connect` solves with solve_transport, `beckmann` of the complete
        # network with solve_complete: both read the limit at call time
        monkeypatch.setattr(mincostflow, "_MAX_AUGMENTATIONS_FACTOR", 0)
        doc = {
            "version": 1,
            "atoms": [
                {"point": [0.0, 0.0], "mass": 1.0},
                {"point": [1.0, 0.0], "mass": -0.4},
                {"point": [0.0, 1.0], "mass": -0.6},
            ],
        }
        path = tmp_path / "distinct.json"
        path.write_text(json.dumps(doc))
        assert run(["beckmann", str(path)]) == 4
        assert "augmentation limit" in capsys.readouterr().err

    def test_transport_augmentation_limit(self, monkeypatch):
        monkeypatch.setattr(mincostflow, "_MAX_AUGMENTATIONS_FACTOR", 0)
        with pytest.raises(VerificationError, match="augmentation limit"):
            solve_transport(np.ones((1, 1)), np.array([1.0, -1.0]))

    def test_complete_augmentation_limit(self, monkeypatch):
        monkeypatch.setattr(mincostflow, "_MAX_AUGMENTATIONS_FACTOR", 0)
        with pytest.raises(VerificationError, match="augmentation limit"):
            solve_complete(np.ones((2, 2)), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("cost, supply, message", [
        (np.ones(2), np.array([1.0, -1.0]), "square"),
        (np.ones((2, 3)), np.array([1.0, -1.0]), "square"),
        (np.ones((2, 2)), np.array([1.0, -0.5, -0.5]), "node count"),
        (-np.ones((2, 2)), np.array([1.0, -1.0]), "nonnegative"),
        (np.full((2, 2), np.inf), np.array([1.0, -1.0]), "finite"),
        (np.full((2, 2), np.nan), np.array([1.0, -1.0]), "finite"),
    ], ids=["vector", "rectangle", "supply-length", "negative-cost", "inf-cost", "nan-cost"])
    def test_complete_rejects_bad_input(self, cost, supply, message):
        with pytest.raises(ValidationError, match=message):
            solve_complete(cost, supply)

    @pytest.mark.parametrize("cost, supply, message", [
        (np.ones(2), np.array([1.0, -1.0]), "matrix"),
        (np.ones((1, 1)), np.array([1.0, -0.5, -0.5]), "node count"),
        (-np.ones((1, 1)), np.array([1.0, -1.0]), "nonnegative"),
        (np.array([[np.inf, 1.0]]), np.array([1.0, -0.5, -0.5]), "finite"),
        (np.array([[np.nan, 1.0]]), np.array([1.0, -0.5, -0.5]), "finite"),
        (np.ones((1, 1)), np.array([-1.0, 1.0]), "sources need supply"),
    ], ids=["vector", "supply-length", "negative-cost", "inf-cost", "nan-cost", "signs"])
    def test_transport_rejects_bad_input(self, cost, supply, message):
        with pytest.raises(ValidationError, match=message):
            solve_transport(cost, supply)


class TestCertificates:
    def test_bipartite(self, rng):
        for _ in range(10):
            n, arcs, costs, supply = bipartite(random_balanced_measure(rng, max_pairs=20))
            assert_certified(n, arcs, costs, supply, solve_min_cost_flow(n, arcs, costs, supply))

    def test_complete(self, rng):
        for _ in range(10):
            net = complete_network(random_balanced_measure(rng, max_pairs=12))
            arcs, costs = both_directions(net)
            sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
            assert_certified(net.n_nodes, arcs, costs, net.supply, sol)

    @pytest.mark.parametrize("diagonals", [False, True])
    def test_grid(self, rng, diagonals):
        domain = Domain([0.0, 0.0], [1.0, 1.0])
        for _ in range(5):
            f = random_balanced_measure(rng, max_pairs=10)
            net = grid_network(domain, (16, 16), f, diagonals=diagonals)
            arcs, costs = both_directions(net)
            sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
            assert_certified(net.n_nodes, arcs, costs, net.supply, sol)


# sha256 of arc_flows.tobytes() and potentials.tobytes(), recorded from the
# solver before its residual graph became one fixed-pattern CSR per solve; a
# change to the phase loop must keep every bit
PINNED = {
    ("bipartite", 3): (
        "cc81c48fe9bb2e15fee9016919fd503c1e6ecc2e35a2b4bbcf94c6dfec85dc53",
        "a754d771c215978beb3c481bf7c3772e36dcd18102d903cfd563e0054f1871d6",
    ),
    ("bipartite", 17): (
        "7dd8c3d07ef46e9c4984c8c663e447a215af7bcd31a79121d2b8e2b7c668dafd",
        "4e091898573cf63aeef2ad8dcc223f267a92cd475a3a941811613f45eeab9b17",
    ),
    ("bipartite", 29): (
        "3742909c79d3067bc9204b19218269f94af12266f777ef57546858f0d896763e",
        "969a3a534cadf6f3ef496c689c698308155007c2f420daeccf96899b4d1d0f23",
    ),
    ("grid", 5): (
        "bee49898da1e3099dcedad5de33615c9aff770a7e0b24b7c4b208fb2834e4ca4",
        "f40c15502d95a7cf34a3a3ce1c03bcd9ca1ab9d6be679aa2d2683825b5925fc5",
    ),
    ("grid-diagonals", 8): (
        "4376578fbd051e63d9547aefd7d4aa8c9310463f7acd203092a727795e9c5b2b",
        "a4ced7e59aff5ec152ed410794c68d9e02cf69afc035bd50c7ec1ab1f158789c",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(PINNED))
def test_solutions_keep_their_bits(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "bipartite":
        n, arcs, costs, supply = bipartite(random_balanced_measure(rng, max_pairs=20))
    else:
        f = random_balanced_measure(rng, max_pairs=10)
        net = grid_network(
            Domain([0.0, 0.0], [1.0, 1.0]), (24, 20), f, diagonals=kind == "grid-diagonals"
        )
        n, (arcs, costs), supply = net.n_nodes, both_directions(net), net.supply
    sol = solve_min_cost_flow(n, arcs, costs, supply)
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (sol.arc_flows, sol.potentials)
    )
    assert digests == PINNED[kind, seed]


@pytest.mark.parametrize("seed", sorted(seed for kind, seed in PINNED if kind == "bipartite"))
def test_transport_has_the_pinned_bits(seed):
    n, arcs, costs, supply = bipartite(random_balanced_measure(np.random.default_rng(seed), 20))
    sol = solve_transport(costs.reshape(np.count_nonzero(supply > 0), -1), supply)
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (sol.arc_flows, sol.potentials)
    )
    assert digests == PINNED["bipartite", seed]


@pytest.mark.parametrize("solve", [
    lambda: solve_min_cost_flow(3, [[0, 1], [1, 2], [0, 1]], [1.0, 2.0, 3.0], [1.0, 0.0, -1.0]),
    lambda: solve_min_cost_flow(2, np.zeros((0, 2)), np.zeros(0), np.zeros(2)),
    lambda: solve_transport([[1.0, 2.0]], [1.0, -0.5, -0.5]),
    lambda: solve_transport(np.zeros((0, 0)), np.zeros(0)),
    lambda: solve_complete([[0.0, 1.0], [2.0, 0.0]], [1.0, -1.0]),
    lambda: solve_complete(np.zeros((0, 0)), np.zeros(0)),
], ids=["arc-list", "arc-list-empty", "transport", "transport-empty", "complete", "complete-empty"])
def test_solutions_are_read_only(solve):
    # the one phase loop returns both arrays read-only, whichever solver asked
    sol = solve()
    assert not sol.arc_flows.flags.writeable
    assert not sol.potentials.flags.writeable


def arc_list_connection(f):
    """`minimal_connection` through the arc-list csgraph solver: the complete
    bipartite graph as n_pos * n_neg source-major arcs.  Returns the edges,
    masses, cost and potential."""
    pos, neg = np.flatnonzero(f.masses > 0), np.flatnonzero(f.masses < 0)
    d = dists(f.points[pos][:, None], f.points[neg][None])
    src, dst = np.divmod(np.arange(d.size), len(neg))
    arcs = np.column_stack([src, len(pos) + dst])
    sol = solve_min_cost_flow(len(pos) + len(neg), arcs, d.ravel(), f.masses[np.r_[pos, neg]])
    carrying = np.flatnonzero(sol.arc_flows > 0.0)
    masses = sol.arc_flows[carrying]
    phi = c_transform(f.points, f.points[neg], sol.potentials[len(pos):])
    potential = phi - phi.min()
    edges = np.column_stack([pos[src[carrying]], neg[dst[carrying]]])
    return edges, masses, ordered_sum(masses * d.ravel()[carrying]), potential


def distinct_masses(rng, dim, n_pos, n_neg):
    pos = rng.uniform(0.05, 1.0, size=n_pos)
    neg = rng.uniform(0.05, 1.0, size=n_neg)
    neg *= pos.sum() / neg.sum()
    return SignedAtomMeasure(rng.uniform(size=(n_pos + n_neg, dim)), np.r_[pos, -neg])


def unit_masses(rng, dim, k):
    return SignedAtomMeasure(rng.uniform(size=(2 * k, dim)), np.r_[np.ones(k), -np.ones(k)])


def polyline_divergence(rng, n_lines=8, n_segments=12):
    """-div of random-walk polylines of constant tangential density: the
    interior vertices cancel up to roundoff and leave ~1e-17 ghost atoms."""
    segments = []
    for _ in range(n_lines):
        p, heading, theta = rng.uniform(0.2, 0.8, size=2), rng.uniform(0, 2 * np.pi), rng.uniform()
        for _ in range(n_segments):
            heading += rng.uniform(-1.0, 1.0)
            unit = np.array([np.cos(heading), np.sin(heading)])
            q = p + rng.uniform(0.02, 0.06) * unit
            segments.append((p, q, (0.2 + theta) * unit))
            p = q
    f = divergence_as_measure(StructuredVectorMeasure.build(2, segments=segments))
    assert np.any(np.abs(f.masses) < 1e-15)
    return f


ROUTE_INSTANCES = {
    "distinct-2d": lambda rng: distinct_masses(rng, 2, 37, 45),
    "distinct-3d": lambda rng: distinct_masses(rng, 3, 40, 31),
    "unit-2d": lambda rng: unit_masses(rng, 2, 40),
    "unit-3d": lambda rng: unit_masses(rng, 3, 33),
    "ghosts": polyline_divergence,
    "1x1": lambda rng: distinct_masses(rng, 2, 1, 1),
    "1xk": lambda rng: distinct_masses(rng, 3, 1, 9),
    "kx1": lambda rng: distinct_masses(rng, 2, 9, 1),
}


@pytest.mark.parametrize("kind", sorted(ROUTE_INSTANCES))
def test_matching_route_keeps_the_arc_list_bits(kind):
    for seed in range(4):
        f = ROUTE_INSTANCES[kind](np.random.default_rng([seed, 18]))
        edges, masses, cost, potential = arc_list_connection(f)
        matching = minimal_connection(f)
        assert np.array_equal(matching.edges, edges)
        assert matching.masses.tobytes() == masses.tobytes()
        assert matching.cost == cost
        assert matching.potential.tobytes() == potential.tobytes()


def test_three_routes_agree_at_210_atoms():
    rng = np.random.default_rng(20261017)
    pos = rng.uniform(0.05, 1.0, size=110)
    neg = rng.uniform(0.05, 1.0, size=100)
    neg *= pos.sum() / neg.sum()
    f = SignedAtomMeasure(rng.uniform(0.0, 1.0, size=(210, 2)), np.concatenate([pos, -neg]))
    assert len(f) == 210
    cost = minimal_connection(f).cost
    _, dual_value = dual_potential(f)
    flow = solve_beckmann(complete_network(f))
    assert abs(dual_value - cost) <= 1e-7 * cost
    assert abs(flow.cost - cost) <= 1e-7 * cost


def arc_list_beckmann(net):
    """`solve_beckmann` of a complete network through the arc-list csgraph
    solver, on both directions of every edge.  Returns the edge flows and
    the potentials."""
    arcs, costs = both_directions(net)
    m = net.edges.shape[0]
    sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
    return sol.arc_flows[:m] - sol.arc_flows[m:], sol.potentials


def one_node_network(rng):
    return FlowNetwork(points=rng.uniform(size=(1, 2)), edges=np.zeros((0, 2), dtype=int),
                       lengths=np.zeros(0), supply=[0.0])


COMPLETE_NETWORKS = {
    **{kind: lambda rng, kind=kind: complete_network(ROUTE_INSTANCES[kind](rng))
       for kind in ROUTE_INSTANCES},
    "empty": lambda rng: complete_network(SignedAtomMeasure.empty()),
    "one-node": one_node_network,
}


@pytest.mark.parametrize("kind", sorted(COMPLETE_NETWORKS))
def test_complete_route_keeps_the_arc_list_bits(kind):
    # solve_beckmann solves a complete network with the dense solve_complete;
    # it returns the bits of the csgraph solver on the same arcs
    for seed in range(4):
        net = COMPLETE_NETWORKS[kind](np.random.default_rng([seed, 28]))
        edge_flows, potentials = arc_list_beckmann(net)
        flow = solve_beckmann(net)
        assert flow.edge_flows.tobytes() == edge_flows.tobytes()
        assert flow.potentials.tobytes() == potentials.tobytes()
        carrying = np.flatnonzero(edge_flows)
        assert flow.cost == ordered_sum(np.abs(edge_flows[carrying]) * net.lengths[carrying])


def test_only_complete_networks_take_the_dense_solver(monkeypatch):
    # the route is read from the edge list: the same graph with its edges in
    # another order is solved on its arc list, with the same cost
    calls = []
    arc_list = beckmann.solve_min_cost_flow
    monkeypatch.setattr(beckmann, "solve_min_cost_flow",
                        lambda *args: calls.append(len(args[1])) or arc_list(*args))
    f = random_balanced_measure(np.random.default_rng(2028), max_pairs=8)
    net = complete_network(f)
    dense = solve_beckmann(net)
    assert calls == []
    shuffled = FlowNetwork(net.points, net.edges[::-1], net.lengths[::-1], net.supply)
    by_arcs = solve_beckmann(shuffled)
    assert calls == [2 * net.edges.shape[0]]
    assert abs(by_arcs.cost - dense.cost) <= 1e-12 * dense.cost
    assert np.array_equal(by_arcs.edge_flows[::-1], dense.edge_flows)


def lattice_network(rng):
    """Unit dipoles on a scaled 6 x 6 lattice: exact distance ties, where
    csgraph's heap may settle tied nodes in another order."""
    lattice = np.indices((6, 6)).reshape(2, -1).T.astype(float)
    k = int(rng.integers(1, 10))
    pts = lattice[rng.choice(36, size=2 * k, replace=False)] * rng.choice([0.1, 0.37, 1.0])
    return complete_network(SignedAtomMeasure(pts, np.r_[np.ones(k), -np.ones(k)]))


def test_complete_solver_is_certified_on_tied_lattices():
    # with ties the dense solver may return another optimum than csgraph:
    # its own certificate holds and the costs agree to roundoff
    rng = np.random.default_rng(2029)
    for _ in range(200):
        net = lattice_network(rng)
        n, (i, j) = net.n_nodes, net.edges.T
        cost = np.zeros((n, n))
        cost[i, j] = cost[j, i] = net.lengths
        sol = solve_complete(cost, net.supply)
        arcs = np.column_stack(np.divmod(np.arange(n * n), n))
        off = arcs[:, 0] != arcs[:, 1]
        flows = mincostflow.FlowSolution(sol.arc_flows[off], sol.potentials)
        assert_certified(n, arcs[off], cost.ravel()[off], net.supply, flows, tol=1e-12)
        edge_flows, _ = arc_list_beckmann(net)
        reference = ordered_sum(np.abs(edge_flows) * net.lengths)
        assert abs(solve_beckmann(net).cost - reference) <= 8 * np.spacing(reference)


def one_at_a_time_dijkstra(residual, roots):
    """The rule `_dense_dijkstra` documents, one settled node per step: the
    least label first, the lowest index on ties, a label improving only
    when it falls strictly."""
    n = len(residual)
    dist = [0.0 if r else np.inf for r in roots.tolist()]
    pred = [-1] * n
    done = [False] * n
    rows = residual.tolist()
    while True:
        x = min((v for v in range(n) if not done[v]), key=lambda v: (dist[v], v), default=None)
        if x is None or dist[x] == np.inf:
            break
        done[x] = True
        for z in range(n):
            label = dist[x] + rows[x][z]
            if not done[z] and label < dist[z]:
                dist[z], pred[z] = label, x
    return np.array(dist), np.array(pred)


def test_dense_dijkstra_settles_levels_in_the_one_at_a_time_order():
    # many zero arcs and arcs too short to change a sum (1e-18 against
    # distances near 1) make levels of tied nodes, which the search must
    # settle in the order of one node at a time
    rng = np.random.default_rng(2030)
    for trial in range(300):
        n = int(rng.integers(1, 25))
        residual = rng.choice([0.0, 1e-18, 0.25, 0.5, 1.0], size=(n, n), p=[0.3, 0.2, 0.2, 0.2, 0.1])
        residual[rng.uniform(size=(n, n)) < 0.2] = np.inf
        np.fill_diagonal(residual, np.inf)
        roots = rng.uniform(size=n) < 0.3
        roots[0] |= not roots.any()
        dist, pred = mincostflow._dense_dijkstra(residual, roots, 1.0)
        expected_dist, expected_pred = one_at_a_time_dijkstra(residual, roots)
        assert dist.tobytes() == expected_dist.tobytes(), trial
        assert np.array_equal(pred, expected_pred), trial
