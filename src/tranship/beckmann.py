"""Minimal-divergence flow (Beckmann) problems on Euclidean graphs.

The continuum problem min{ ||nu|| : -div nu = f } is discretized on either
the complete graph over the atom support (where the optimum equals the
Kantorovich norm exactly) or a regular grid graph (where the graph metric
distorts Euclidean cost by a known anisotropy factor, reported rather than
hidden).

:func:`solve_beckmann` picks its solver by how the network was built, never
by its size.  A network whose edges are those of :func:`complete_network`
(``np.triu_indices(n, 1)``, read from the edge list) is solved on the dense
matrix of its lengths by :func:`~tranship.mincostflow.solve_complete` (the
graph-flow route), with numpy alone.  One built by hand is solved on its arc
list by :func:`~tranship.mincostflow.solve_min_cost_flow`, with scipy's
Dijkstra.  A network from :func:`grid_network` records its
:class:`~tranship.geom.Grid` and stencil and is solved in the grid's
closed-form metric, with numpy alone.  On an uncapacitated graph the minimal
flow is the transport between the supply nodes and the demand nodes, each
pair at its graph distance (Beckmann, *Econometrica* 20, 1952; flow
decomposition, Ahuja, Magnanti & Orlin, *Network Flows*, 1993), so a grid
solve is:

1. the grid-graph distance between every source cell and every sink cell
   (:func:`_grid_metric`).  With cell sides ``h`` and a cell offset ``d``
   it is ``sum_k |d_k| h_k`` on the axis stencil.  With diagonals it is
   greedy: each step moves along every axis that still has cells to cover
   and costs ``sqrt(sum h_k**2)`` over those axes;
2. that sources-by-sinks transport, by
   :func:`~tranship.mincostflow.transport` on the cells' multi-indices;
3. each flow-carrying pair routed along its canonical shortest path
   (:func:`_route`): on the axis stencil all of axis 0's steps, then axis
   1's, and so on; with diagonals the greedy steps of the metric;
4. as potentials, the c-transform ``phi(x) = min_t (v_t + d(x, t))`` of the
   transport's sink potentials ``v`` over every cell, which ``transport``
   returns (:func:`~tranship.geom.c_transform`); it is feasible on every
   edge and tight along every routed path.

Every solver gives the cost as the left-to-right sum of ``|flow| * length``
over the carrying edges (:func:`~tranship.geom.ordered_sum`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geom import Domain, Grid, bin_sums, dists, ordered_sum
from .measures import BALANCE_RTOL, SignedAtomMeasure, StructuredVectorMeasure
from .mincostflow import ZERO_SUPPLY_RTOL, solve_complete, solve_min_cost_flow, transport

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
    # (grid, diagonals) of a grid_network, whose nodes are the grid's cells
    grid: tuple | None = None

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


def _grid_steps(shape, diagonals: bool):
    """The stencil's offsets, one per undirected direction, and the
    (cells, offsets) mask of the steps that stay inside the grid.  Cells run
    in C order, then the offsets in order: edge k of :func:`grid_network`
    is the k-th True entry."""
    offsets = np.array(_neighbor_offsets(len(shape), diagonals))
    cells = np.indices(shape).reshape(len(shape), -1, 1)
    ends = cells + offsets.T[:, None, :]
    inside = np.all((ends >= 0) & (ends < np.reshape(shape, (-1, 1, 1))), axis=0)
    return offsets, inside


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
    The network records the grid and the stencil, which
    :func:`solve_beckmann` solves in.
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
    supply = bin_sums(grid.cell_indices(f.points), f.masses, grid.n_cells)
    supply[np.abs(supply) <= ZERO_SUPPLY_RTOL * f.mass_scale] = 0.0
    offsets, inside = _grid_steps(resolution, diagonals)
    i, step = np.nonzero(inside)
    # a step moves the flat C-order cell index by its offsets times the strides
    strides = np.cumprod((1,) + resolution[:0:-1])[::-1]
    j = i + (offsets @ strides)[step]
    return FlowNetwork(
        points=centers,
        edges=np.column_stack([i, j]),
        lengths=dists(centers[i], centers[j]),
        supply=supply,
        grid=(grid, bool(diagonals)),
    )


def solve_beckmann(net: FlowNetwork) -> Flow:
    """Min-cost flow routing the node supplies; cost = sum |flow| * length.

    On the complete Euclidean graph over an atom support the cost equals the
    Kantorovich norm of the supply measure.  A network from
    :func:`grid_network` is solved in its closed-form grid metric, one with
    the edges of :func:`complete_network` by
    :func:`~tranship.mincostflow.solve_complete`, any other by
    :func:`~tranship.mincostflow.solve_min_cost_flow` (see the module
    docstring).  Raises :class:`~tranship.errors.InfeasibleFlowError` when
    supply is disconnected from demand.
    """
    if net.grid is not None:
        edge_flows, potentials = _solve_on_grid(net)
    elif _is_complete(net):
        edge_flows, potentials = _solve_complete(net)
    else:
        m = net.edges.shape[0]
        arcs = np.empty((2 * m, 2), dtype=int)
        arcs[:m] = net.edges
        arcs[m:] = net.edges[:, ::-1]
        costs = np.concatenate([net.lengths, net.lengths])
        sol = solve_min_cost_flow(net.n_nodes, arcs, costs, net.supply)
        edge_flows = sol.arc_flows[:m] - sol.arc_flows[m:]
        potentials = sol.potentials
    carrying = np.flatnonzero(edge_flows)
    cost = ordered_sum(np.abs(edge_flows[carrying]) * net.lengths[carrying])
    edge_flows.setflags(write=False)
    potentials.setflags(write=False)
    return Flow(edge_flows=edge_flows, potentials=potentials, cost=cost)


def _is_complete(net: FlowNetwork) -> bool:
    """Whether the edges are those of :func:`complete_network`: every pair
    ``i < j`` once, in the order of ``np.triu_indices``."""
    return np.array_equal(net.edges, np.column_stack(np.triu_indices(net.n_nodes, 1)))


def _solve_complete(net: FlowNetwork):
    """Edge flows and node potentials of a complete network: both directions
    of every edge on the dense matrix of the lengths."""
    n = net.n_nodes
    i, j = net.edges.T
    cost = np.zeros((n, n))
    cost[i, j] = cost[j, i] = net.lengths
    sol = solve_complete(cost, net.supply)
    flows = sol.arc_flows.reshape(n, n)
    return flows[i, j] - flows[j, i], sol.potentials


def _solve_on_grid(net: FlowNetwork):
    """Edge flows and node potentials of a grid network: the transport
    between its source and sink cells at grid distances, routed along
    canonical shortest paths, with the c-transform of the sink potentials
    as node potentials."""
    grid, diagonals = net.grid
    cells = np.column_stack(np.unravel_index(np.arange(grid.n_cells), grid.shape))
    pairs, flows, _, potentials = transport(
        cells, net.supply, lambda x, t: _grid_metric(t - x, grid.cell_size, diagonals)
    )
    edge_flows = _route(
        grid.shape, diagonals, cells[pairs[:, 0]], cells[pairs[:, 1]], flows, net.edges.shape[0]
    )
    return edge_flows, potentials


def _grid_metric(delta, h, diagonals: bool) -> np.ndarray:
    """Grid-graph distance across the cell offsets `delta` (last axis) on
    cells of sides `h`.

    On the axis stencil this is ``sum_k |delta_k| h_k``.  With diagonals the
    shortest path is greedy: with the axes in increasing order of
    ``|delta_k|``, the first ``min_k |delta_k|`` steps move along every axis,
    the next steps along every axis but the first, and so on, and a step
    along the axes S costs ``sqrt(sum_{k in S} h_k**2)``.  This covers the
    4-, 8-, 6- and 26-neighbour stencils and anisotropic cells.
    """
    size = np.abs(delta)
    if not diagonals:
        return size @ h
    order = np.argsort(size, axis=-1)
    size = np.take_along_axis(size, order, axis=-1)
    # step length once the axes order[..., k:] are the ones still moving
    step = np.sqrt(np.cumsum(np.square(h)[order][..., ::-1], axis=-1)[..., ::-1])
    return np.sum(np.diff(size, axis=-1, prepend=0) * step, axis=-1)


def _route(shape, diagonals: bool, start, end, amount, n_edges) -> np.ndarray:
    """Edge flows (positive from an edge's first node to its second) that
    carry `amount[k]` from cell `start[k]` to cell `end[k]` (multi-indices)
    along canonical shortest paths, every pair at once.

    Along the path, axis k waits ``wait[k]`` steps, then moves one cell per
    step toward its end for ``|end_k - start_k|`` steps: with diagonals no
    axis waits (the greedy path of :func:`_grid_metric`); on the axis stencil
    each axis waits for the axes before it.
    """
    offsets, inside = _grid_steps(shape, diagonals)
    edge_at = np.cumsum(inside.ravel()).reshape(inside.shape) - 1
    delta = end - start
    size, sign = np.abs(delta), np.sign(delta)
    wait = np.zeros_like(size) if diagonals else np.cumsum(size, axis=1) - size
    n_steps = np.max(wait + size, axis=1, initial=0)
    pair = np.repeat(np.arange(amount.size), n_steps)
    r = np.arange(pair.size) - np.repeat(np.cumsum(n_steps) - n_steps, n_steps)
    # per step and axis: steps this axis has moved before, and its move now
    moved = r[:, None] - wait[pair]
    step = sign[pair] * ((moved >= 0) & (moved < size[pair]))
    cell = start[pair] + sign[pair] * np.clip(moved, 0, size[pair])
    # the edge of a step s is (cell, cell + s) when s is a listed offset
    # (first nonzero entry +1), else (cell + s, cell) traversed backward
    lead = step[np.arange(pair.size), np.argmax(step != 0, axis=1)]
    first = np.where((lead > 0)[:, None], cell, cell + step)
    powers = 3 ** np.arange(len(shape))
    offset_at = np.zeros(3 ** len(shape), dtype=int)
    offset_at[(offsets + 1) @ powers] = np.arange(len(offsets))
    which = offset_at[(lead[:, None] * step + 1) @ powers]
    edge = edge_at[np.ravel_multi_index(tuple(first.T), shape), which]
    return bin_sums(edge, lead * amount[pair], n_edges)


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
