"""Minimal-divergence flow (Beckmann) problems on Euclidean graphs.

The continuum problem min{ ||nu|| : -div nu = f } is discretized on either
the complete graph over the atom support (where the optimum equals the
Kantorovich norm exactly) or a regular grid graph (where the graph metric
distorts Euclidean cost by a known anisotropy factor, reported rather than
hidden).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom import Domain, Grid, dists
from .measures import BALANCE_RTOL, SignedAtomMeasure, StructuredVectorMeasure
from .mincostflow import ZERO_SUPPLY_RTOL, solve_min_cost_flow

__all__ = [
    "FlowNetwork",
    "Flow",
    "complete_network",
    "grid_network",
    "solve_beckmann",
    "flow_to_vector_measure",
    "anisotropy_bound",
]


@dataclass(frozen=True)
class FlowNetwork:
    """Undirected Euclidean graph with signed node supplies (the discretized f)."""

    points: np.ndarray  # (n, dim) node positions
    edges: np.ndarray  # (m, 2) node index pairs
    lengths: np.ndarray  # (m,) positive edge lengths
    supply: np.ndarray  # (n,) signed reals, summing to ~0

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        edges = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        lengths = np.asarray(self.lengths, dtype=float).ravel()
        supply = np.asarray(self.supply, dtype=float).ravel()
        if edges.shape[0] != lengths.size:
            raise ValidationError("edges and lengths length mismatch")
        if supply.size != pts.shape[0]:
            raise ValidationError("supply length does not match node count")
        if np.any(lengths <= 0.0):
            raise ValidationError("edge lengths must be positive")
        if edges.size and (edges.min() < 0 or edges.max() >= pts.shape[0]):
            raise ValidationError("edge endpoints out of range")
        scale = float(np.sum(np.abs(supply)))
        if abs(float(np.sum(supply))) > BALANCE_RTOL * max(scale, 1e-300):
            raise ValidationError(
                f"network supply must balance, total is {float(np.sum(supply))!r}"
            )
        for arr in (pts, edges, lengths, supply):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "supply", supply)

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Flow:
    """Signed flow per undirected edge (positive = first-to-second node),
    with the solver's node potentials as the optimality certificate."""

    edge_flows: np.ndarray
    potentials: np.ndarray
    cost: float


def complete_network(f: SignedAtomMeasure) -> FlowNetwork:
    """Complete Euclidean graph over the support of `f`."""
    i, j = np.triu_indices(len(f), 1)
    return FlowNetwork(
        points=f.points,
        edges=np.column_stack([i, j]),
        lengths=dists(f.points[i], f.points[j]),
        supply=f.masses,
    )


def _neighbor_offsets(dim: int, diagonals: bool):
    offsets = []
    for off in itertools.product((-1, 0, 1), repeat=dim):
        if not any(off):
            continue
        if not diagonals and sum(abs(o) for o in off) != 1:
            continue
        offsets.append(off)
    # keep one representative per undirected direction
    return [off for off in offsets if off > tuple(-o for o in off)]


def grid_network(
    domain: Domain,
    resolution,
    f: SignedAtomMeasure,
    diagonals: bool = False,
) -> FlowNetwork:
    """Grid graph over cell centers with each atom binned to its containing cell.

    Needs at least 2 cells along some axis (a single cell has no edges);
    degenerate axes with one cell are allowed so 1-d problems embed naturally.
    Binning ties at cell boundaries go to the lower-index cell.  A cell whose
    atoms cancel to within the flow solver's zero threshold gets supply 0.
    """
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != domain.dim:
        raise ValidationError("resolution does not match domain dimension")
    if any(r < 1 for r in resolution):
        raise ValidationError("resolution must be at least 1 per axis")
    if max(resolution) < 2:
        raise ValidationError("grid network needs at least 2 cells along some axis")
    grid = Grid(domain, resolution)
    centers = grid.centers()
    domain.require_inside(f.points, "atom at {} lies outside the grid domain")
    supply = np.bincount(grid.cell_indices(f.points), weights=f.masses, minlength=grid.n_cells)
    supply[np.abs(supply) <= ZERO_SUPPLY_RTOL * f.mass_scale] = 0.0
    # every cell (C order) against every offset (in _neighbor_offsets order)
    shape = np.asarray(resolution)
    cells = np.indices(resolution).reshape(domain.dim, -1).T
    offsets = np.array(_neighbor_offsets(domain.dim, diagonals))
    nbs = cells[:, None, :] + offsets[None, :, :]
    inside = np.all((nbs >= 0) & (nbs < shape), axis=2)
    i = np.broadcast_to(np.arange(grid.n_cells)[:, None], inside.shape)[inside]
    j = np.ravel_multi_index(tuple(nbs[inside].T), resolution)
    return FlowNetwork(
        points=centers,
        edges=np.column_stack([i, j]),
        lengths=dists(centers[i], centers[j]),
        supply=supply,
    )


def solve_beckmann(net: FlowNetwork) -> Flow:
    """Min-cost flow routing the node supplies; cost = sum |flow| * length.

    On the complete Euclidean graph over an atom support the cost equals the
    Kantorovich norm of the supply measure.  Raises
    :class:`~tranship.errors.InfeasibleFlowError` when supply is disconnected
    from demand.
    """
    m = net.edges.shape[0]
    arcs = np.empty((2 * m, 2), dtype=int)
    arcs[:m] = net.edges
    arcs[m:] = net.edges[:, ::-1]
    costs = np.concatenate([net.lengths, net.lengths])
    sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
    edge_flows = sol.arc_flows[:m] - sol.arc_flows[m:]
    # cumsum adds strictly left to right and 0.0 + x == x, so its last entry
    # has the bits of summing the carrying edges in order from 0.0
    carrying = np.flatnonzero(edge_flows)
    terms = np.abs(edge_flows[carrying]) * net.lengths[carrying]
    cost = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    edge_flows.setflags(write=False)
    return Flow(edge_flows=edge_flows, potentials=sol.potentials, cost=cost)


def flow_to_vector_measure(net: FlowNetwork, flow: Flow) -> StructuredVectorMeasure:
    """Vector measure nu with -div nu equal to the network supply.

    An edge (i, j) carrying flow m > 0 becomes the segment between the two
    nodes carrying tangential density of magnitude m; the density points
    against the transport direction so that the distributional divergence
    reproduces the supply (+m at the source node i, -m at node j).  Its total
    variation equals the flow cost.
    """
    carrying = np.flatnonzero(flow.edge_flows)
    i, j = net.edges[carrying].T
    a, b = net.points[i], net.points[j]
    unit = (b - a) / net.lengths[carrying, None]
    density = -flow.edge_flows[carrying, None] * unit
    no_atoms = np.zeros((0, net.dim))
    return StructuredVectorMeasure(net.dim, no_atoms, no_atoms, a, b, density, validate=False)


# (dim, diagonals) -> anisotropy bound, the exact floats scipy's ConvexHull of
# the normalized steps gives (tests recompute them); the 3-d axis value is one
# ulp below math.sqrt(3), and reports carry these bits
_ANISOTROPY = {
    (2, False): 1.4142135623730951,
    (2, True): 1.082392200292394,
    (3, False): 1.732050807568877,
    (3, True): 1.1280928107595818,
}


def anisotropy_bound(dim: int, diagonals: bool) -> float:
    """Worst-case ratio of grid-graph metric to Euclidean distance.

    This is the gauge distortion of the step-direction set: 1 over the
    distance from the origin to the convex hull of the normalized steps.
    Axis-only grids give sqrt(dim); the 8-neighbor 2-d stencil gives
    1/cos(pi/8) ~ 1.0824.  Only the dimensions a :class:`Domain` allows,
    2 and 3, are supported.
    """
    if dim not in (2, 3):
        raise ValidationError(f"anisotropy bound needs dimension 2 or 3, got {dim}")
    return _ANISOTROPY[(dim, bool(diagonals))]
