"""Uncapacitated min-cost flow by successive shortest paths in phases.

One phase loop (:func:`_phases`) serves three solvers, which differ only in
how a phase finds its shortest paths:

* :func:`solve_min_cost_flow` takes any directed arc list and serves
  :func:`~tranship.beckmann.solve_beckmann` on networks built by hand.  Its
  shortest paths come from :func:`scipy.sparse.csgraph.dijkstra`.  It is
  also the tests' bit reference for the other two.
* :func:`solve_complete` takes the cost matrix of a complete directed graph
  and serves the graph-flow route,
  :func:`~tranship.beckmann.solve_beckmann` on complete networks.  It needs
  numpy alone and returns the bits :func:`solve_min_cost_flow` returns on
  the same graph wherever no two shortest-path distances tie exactly.
* :func:`solve_transport` takes the cost matrix of a complete bipartite
  graph from sources to sinks.  It needs numpy alone, builds no arc list,
  and returns the bits :func:`solve_min_cost_flow` returns on the same
  graph.  :func:`transport` builds that matrix from a point set and a
  metric and adds the c-transform certificate.  It serves the matching
  route (:func:`~tranship.matchnorm.minimal_connection`, Euclidean costs)
  and :func:`~tranship.beckmann.solve_beckmann` on grid networks, whose
  costs are the grid-graph distances between supply and demand cells (the
  metric and the path routing are in :mod:`tranship.beckmann`).  The
  ``max`` flat norm solves its ground transport with it too
  (:func:`~tranship.matchnorm.flat_norm`).

The phase contract.  Both work on arcs with nonnegative costs, from zero
flow and zero potentials.  Node potentials ``u`` keep every residual reduced
cost ``cost(i, j) - u[i] + u[j]`` nonnegative.  Each phase is one
multi-source Dijkstra from every node with excess over the residual graph
(forward arcs plus the canceling arcs of flow-carrying arcs), with reduced
costs clamped at 0; a solver's ``step`` returns its distances, predecessors
and forest arcs.  Subtracting the distances from the potentials (the
largest finite distance at nodes not reached) makes every arc of the
shortest-path forest tight; the phase then augments along each forest path
from a node with excess to a node with deficit (the primal-dual method of
Ahuja, Magnanti & Orlin, *Network Flows*, 1993, chs. 9-10).  Supply or
excess within ``ZERO_SUPPLY_RTOL`` of the supplies' total magnitude counts
as 0; more than ``_MAX_AUGMENTATIONS_FACTOR * (nodes + arcs + 1)``
augmentations raise :class:`~tranship.errors.VerificationError`.  The
returned flows and potentials are read-only.  At termination the potentials
are an optimal dual solution:

* ``u[i] - u[j] <= cost(i, j)`` for every arc (feasibility),
* ``u[i] - u[j] == cost(i, j)`` on every flow-carrying arc (slackness).

With arcs built from Euclidean lengths this makes ``u`` a Kantorovich
potential certifying the transport cost, which is why the augmentation and
the potentials are written out rather than delegated: the certificates are
part of the public contract.

:func:`solve_min_cost_flow` stores the residual graph as a CSR, cheapest
entry per ordered node pair, built once per solve on the fixed pattern of
every ordered pair that can ever hold a residual arc (each arc's pair and
its reverse); a phase rewrites only its ``data``, with ``+inf`` in the slots
that hold no residual arc, and Dijkstra never improves a label through an
infinite edge.  :func:`solve_transport` keeps the dense reduced-cost matrix
and relaxes a settled source's whole row at once
(:func:`_bipartite_dijkstra`, the dense row relaxation of Jonker &
Volgenant, *Computing* 38, 1987).  :func:`solve_complete` keeps the dense
residual matrix and settles its nodes by levels of equal distance, each
level's rows relaxed at once (:func:`_dense_dijkstra`).

:mod:`scipy.sparse.csgraph` is imported inside :func:`solve_min_cost_flow`,
so importing this module, or calling :func:`transport`,
:func:`solve_transport` or :func:`solve_complete`, loads no scipy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFlowError, ValidationError, VerificationError
from .geom import c_transform, dists, pair_costs

__all__ = [
    "FlowSolution",
    "solve_complete",
    "solve_min_cost_flow",
    "solve_transport",
    "transport",
]

_MAX_AUGMENTATIONS_FACTOR = 16
# supply or excess at most this times the supplies' total magnitude counts as 0
ZERO_SUPPLY_RTOL = 1e-13


@dataclass(frozen=True)
class FlowSolution:
    """Per-arc flows and node potentials; each caller sums its own cost."""

    arc_flows: np.ndarray  # flow >= 0 per input arc
    potentials: np.ndarray  # optimal dual values per node


def solve_min_cost_flow(n_nodes, arcs, costs, supply) -> FlowSolution:
    """Route `supply` (positive = source, negative = sink) through directed
    uncapacitated `arcs` at minimum total cost.

    Parameters
    ----------
    n_nodes : int
    arcs : (m, 2) int array of (tail, head) pairs
    costs : (m,) nonnegative arc costs
    supply : (n_nodes,) signed reals summing to ~0

    Raises
    ------
    InfeasibleFlowError
        If some supply cannot reach any remaining demand.
    VerificationError
        If the augmentation limit is exceeded (numerically inconsistent
        supplies).
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    arcs = np.asarray(arcs, dtype=int).reshape(-1, 2)
    costs = np.asarray(costs, dtype=float).ravel()
    supply = np.asarray(supply, dtype=float).ravel()
    if arcs.shape[0] != costs.size:
        raise ValidationError("arcs and costs length mismatch")
    if supply.size != n_nodes:
        raise ValidationError("supply length does not match node count")
    if not np.all((costs >= 0.0) & (costs < np.inf)):
        raise ValidationError("arc costs must be finite and nonnegative")
    if np.any((arcs < 0) | (arcs >= n_nodes)):
        raise ValidationError("arc endpoints must be node indices")

    # Only the cheapest arc of each ordered pair carries flow: the input arcs
    # `cheapest`, input arc cheapest[a] at position a.  The residual graph is
    # one CSR on the fixed sorted pattern `keys` of those pairs and their
    # reverses, key = tail * n_nodes + head; each phase rewrites only its
    # data.  Arrays needed only to build it are dropped as soon as they are
    # used.
    m = arcs.shape[0]
    tail, head = arcs[:, 0], arcs[:, 1]
    pair = tail * n_nodes + head
    by_pair = np.lexsort((costs, pair))
    cheapest = by_pair[np.unique(pair[by_pair], return_index=True)[1]]
    del by_pair
    position = np.empty(m, dtype=int)
    position[cheapest] = np.arange(cheapest.size)
    tail, head, cost = tail[cheapest], head[cheapest], costs[cheapest]
    forward_key = pair[cheapest]
    del pair
    cancel_key = head * n_nodes + tail
    keys = np.union1d(forward_key, cancel_key)
    forward_slot = np.searchsorted(keys, forward_key)
    cancel_slot = np.searchsorted(keys, cancel_key)
    del forward_key, cancel_key
    indptr = np.zeros(n_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_nodes, minlength=n_nodes), out=indptr[1:])
    graph = csr_array(
        (np.full(keys.size, np.inf), (keys % n_nodes).astype(np.int32), indptr),
        shape=(n_nodes, n_nodes),
    )
    slot_cost = graph.data
    # the input arc each slot's entry stands for: m + a cancels arc a
    slot_arc = np.full(keys.size, -1)
    slot_arc[forward_slot] = cheapest

    def step(potential, flow, roots):
        # residual reduced costs clamped at 0, +inf where no residual arc;
        # the canceling arc of a flow-carrying arc wins ties
        reduced_cost = cost - potential[tail] + potential[head]
        slot_cost[forward_slot] = np.maximum(reduced_cost, 0.0)
        back = position[np.flatnonzero(flow > 0.0)]
        cancel_cost = np.maximum(-reduced_cost[back], 0.0)
        del reduced_cost
        wins = cancel_cost <= slot_cost[cancel_slot[back]]
        back = back[wins]
        won = cancel_slot[back]
        slot_cost[won] = cancel_cost[wins]
        replaced = slot_arc[won]
        slot_arc[won] = m + cheapest[back]

        dist, pred, _ = dijkstra(
            graph, indices=np.flatnonzero(roots), min_only=True, return_predecessors=True
        )
        child = np.flatnonzero(pred >= 0)
        tree_arc = np.full(n_nodes, -1)
        tree_key = pred[child].astype(int) * n_nodes + child
        tree_arc[child] = slot_arc[np.searchsorted(keys, tree_key)]
        # back to the forward arcs only, as the next phase expects
        slot_cost[won] = np.inf
        slot_arc[won] = replaced
        return dist, pred, tree_arc

    return _phases(supply, m, step)


def solve_transport(cost, supply) -> FlowSolution:
    """Route `supply` over the complete bipartite graph from the ``p`` source
    nodes to the ``q`` sink nodes at minimum total cost, with numpy alone.

    The result is :func:`solve_min_cost_flow`'s on the arcs ``(i, p + j)`` in
    source-major order with costs ``cost.ravel()``: the same phases, the same
    forest paths and the same bits.  Each phase is one multi-source Dijkstra
    over the dense matrix of clamped reduced costs (:func:`_bipartite_dijkstra`)
    instead of a CSR, and no arc list is built.

    Parameters
    ----------
    cost : (p, q) nonnegative arc costs, source-major
    supply : (p + q,) the p source supplies >= 0, then the q sink supplies
        <= 0, summing to ~0

    Returns
    -------
    FlowSolution
        ``arc_flows`` has the ``p * q`` arcs in source-major order.

    Raises
    ------
    VerificationError
        If the augmentation limit is exceeded (numerically inconsistent
        supplies).
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float).ravel()
    if cost.ndim != 2:
        raise ValidationError("transport costs must be a (sources, sinks) matrix")
    p, q = cost.shape
    if supply.size != p + q:
        raise ValidationError("supply length does not match node count")
    if not np.all((cost >= 0.0) & (cost < np.inf)):
        raise ValidationError("arc costs must be finite and nonnegative")
    if np.any(supply[:p] < 0.0) or np.any(supply[p:] > 0.0):
        raise ValidationError("sources need supply >= 0 and sinks supply <= 0")

    reduced = np.empty((p, q))

    def step(potential, flow, roots):
        # the reduced costs in solve_min_cost_flow's order of operations
        np.subtract(cost, potential[:p, None], out=reduced)
        np.add(reduced, potential[p:], out=reduced)
        carrying = np.flatnonzero(flow > 0.0)
        cancel_cost = np.maximum(-reduced.ravel()[carrying], 0.0)
        np.maximum(reduced, 0.0, out=reduced)
        dist, pred = _bipartite_dijkstra(reduced, carrying, cancel_cost, roots[:p])

        # forest arcs: source i -> sink j is arc i * q + j, sink j -> source
        # i cancels it and is numbered p * q past it
        tree_arc = np.full(p + q, -1)
        tree_arc[p:] = pred[p:] * q + np.arange(q)  # every sink is reached
        back = np.flatnonzero(pred[:p] >= 0)
        tree_arc[back] = flow.size + back * q + (pred[back] - p)
        return dist, pred, tree_arc

    return _phases(supply, p * q, step)


def solve_complete(cost, supply) -> FlowSolution:
    """Route `supply` over the complete directed graph on ``n`` nodes at
    minimum total cost, with numpy alone.

    The result is :func:`solve_min_cost_flow`'s on the arcs ``(i, j)``,
    ``i != j``, with costs ``cost[i, j]``: the same phases, the same forest
    paths and the same bits, unless shortest-path distances tie exactly
    (atoms on a lattice), where csgraph's heap may settle tied nodes in
    another order and either solver returns another optimum.  Each phase is
    one multi-source Dijkstra over the dense matrix of clamped residual
    costs (:func:`_dense_dijkstra`) instead of a CSR, and no arc list is
    built.

    Parameters
    ----------
    cost : (n, n) finite nonnegative arc costs, ``cost[i, j]`` from node i
        to node j; the diagonal is not an arc
    supply : (n,) signed reals summing to ~0

    Returns
    -------
    FlowSolution
        ``arc_flows`` has the ``n * n`` arcs ``i * n + j`` in row-major
        order; the diagonal ones carry no flow.

    Raises
    ------
    VerificationError
        If the augmentation limit is exceeded (numerically inconsistent
        supplies).
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float).ravel()
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError("complete-graph costs must be a square (nodes, nodes) matrix")
    n = len(cost)
    if supply.size != n:
        raise ValidationError("supply length does not match node count")
    if not np.all((cost >= 0.0) & (cost < np.inf)):
        raise ValidationError("arc costs must be finite and nonnegative")

    dearest = cost.max(initial=0.0)
    reduced = np.empty((n, n))
    residual = np.empty((n, n))
    canceling = np.zeros(n * n, dtype=bool)  # the residual slots of this phase's canceling arcs

    def step(potential, flow, roots):
        # the reduced costs in solve_min_cost_flow's order of operations
        np.subtract(cost, potential[:, None], out=reduced)
        np.add(reduced, potential, out=reduced)
        np.maximum(reduced, 0.0, out=residual)
        # the canceling arc j -> i of a flow-carrying arc i -> j wins ties
        carrying = np.flatnonzero(flow > 0.0)
        cancel_cost = np.maximum(-reduced.ravel()[carrying], 0.0)
        tails, heads = np.divmod(carrying, n)
        wins = cancel_cost <= residual[heads, tails]
        won = heads[wins] * n + tails[wins]
        residual.ravel()[won] = cancel_cost[wins]
        residual.ravel()[:: n + 1] = np.inf
        # no residual cost exceeds the dearest arc plus the potentials' spread
        longest = dearest + (potential.max(initial=0.0) - potential.min(initial=0.0))
        dist, pred = _dense_dijkstra(residual, roots, longest)

        # forest arcs: i -> j is arc i * n + j, and the arc canceling it is
        # numbered n * n past it
        child = np.flatnonzero(pred >= 0)
        tree_key = pred[child] * n + child
        tree_arc = np.full(n, -1)
        tree_arc[child] = tree_key
        canceling[won] = True
        back = child[canceling[tree_key]]
        canceling[won] = False
        tree_arc[back] = flow.size + back * n + pred[back]
        return dist, pred, tree_arc

    return _phases(supply, n * n, step)


def transport(points, supply, metric=dists):
    """Min-cost transport from the ``(n, dim)`` `points` of positive `supply`
    to those of negative supply at costs ``metric(x, t)``, which broadcasts
    like :func:`~tranship.geom.dists`.  Returns ``(pairs, flows, costs,
    phi)``: the point indices (source, sink) of the flow-carrying pairs,
    source-major, the flow and the cost of each, and the c-transform of the
    sink potentials at every point (:func:`~tranship.geom.c_transform`),
    which for a metric is 1-Lipschitz and tight on every pair."""
    pos = np.flatnonzero(supply > 0.0)
    neg = np.flatnonzero(supply < 0.0)
    cost = pair_costs(points[pos], points[neg], metric)
    sol = solve_transport(cost, supply[np.r_[pos, neg]])
    carrying = np.flatnonzero(sol.arc_flows > 0.0)
    src, dst = np.divmod(carrying, neg.size)
    pairs = np.column_stack([pos[src], neg[dst]])
    phi = c_transform(points, points[neg], sol.potentials[pos.size :], metric)
    return pairs, sol.arc_flows[carrying], cost.ravel()[carrying], phi


def _bipartite_dijkstra(reduced, carrying, cancel_cost, roots):
    """Shortest distances from the `roots` sources over the residual
    bipartite graph, with their forest.

    `reduced` holds the clamped reduced cost of every arc source -> sink;
    each flow-carrying arc ``carrying[c]`` (index ``i * q + j``) adds the
    canceling arc sink j -> source i of cost ``cancel_cost[c]``.  Only the
    sources and the flow-carrying sinks relax arcs, so only they are settled,
    the one with the smallest label first (the lowest position, sources
    before sinks, on ties); a source relaxes its whole row at once.  A label
    improves only when it falls strictly, so a node's predecessor is the
    first settled node that gave it its distance; for sinks it is found
    after the loop from the order the sources settled in.  Returns the
    distances (``inf`` where not reached) and predecessors (-1 at roots and
    unreached nodes) of the ``p + q`` nodes, sources first.
    """
    p, q = reduced.shape
    dist = np.full(p + q, np.inf)
    pred = np.full(p + q, -1)
    source_dist, sink_dist = dist[:p], dist[p:]
    source_dist[roots] = 0.0
    # canceling arcs by sink, sources ascending within a sink
    cancels = [[] for _ in range(q)]
    tails, heads = np.divmod(carrying, q)
    for i, j, w in zip(tails.tolist(), heads.tolist(), cancel_cost.tolist()):
        cancels[j].append((i, w))

    # The roots settle first, in increasing order, so they relax their rows
    # at once (a label is the distance 0.0 plus the cost).  Then the settle
    # keys: inf at the sources until a canceling arc reaches them; a sink's
    # key is its label plus `closed`, which is inf once the sink settled or
    # if it carries no flow.
    settled = np.flatnonzero(roots).tolist()
    np.min(reduced[roots], axis=0, out=sink_dist)
    sink_dist += 0.0
    closed = np.full(q, np.inf)
    closed[heads] = 0.0
    key = np.full(p + q, np.inf)
    sink_key = key[p:]
    np.add(sink_dist, closed, out=sink_key)
    label = np.empty(q)
    add, minimum, inf = np.add, np.minimum, np.inf
    while True:
        x = int(key.argmin())
        d = key[x]
        if d == inf:
            break
        key[x] = inf
        if x < p:
            settled.append(x)
            add(reduced[x], d, out=label)
            minimum(sink_dist, label, out=sink_dist)
            add(sink_dist, closed, out=sink_key)
        else:
            closed[x - p] = inf
            for i, w in cancels[x - p]:
                cand = d + w
                if cand < source_dist[i]:
                    source_dist[i] = key[i] = cand
                    pred[i] = x

    # each sink's predecessor: the first settled source that relaxed it to
    # its distance
    settled = np.array(settled)
    labels = reduced[settled]
    labels += source_dist[settled, None]
    pred[p:] = settled[np.argmax(labels == sink_dist, axis=0)]
    return dist, pred


def _dense_dijkstra(residual, roots, longest):
    """Shortest distances from the nodes where `roots` is true over the
    dense matrix `residual` of arc costs (``inf`` where there is no arc, at
    most `longest` elsewhere), with their forest.

    The node with the least label settles first, the lowest index on ties,
    and relaxes its whole row.  A label improves only when it falls
    strictly, so a node's predecessor is the first settled node that gave it
    its distance.  Returns the distances (``inf`` where not reached) and
    predecessors (-1 at roots and unreached nodes).

    Most labels tie, since most reduced costs are clamped to 0, so the nodes
    settle by levels: every node of distance ``d`` settles before the
    level's rows are relaxed at once.  A level is found by a search that
    always settles the lowest-index node it has found, over the arcs with
    ``d + cost == d``: it starts from the nodes with label ``d`` and follows
    such arcs.  That is the order of settling one node at a time, and taking
    each label from the first row of the level with the least label gives
    the same labels and predecessors.
    """
    n = len(residual)
    dist = np.where(roots, 0.0, np.inf)
    pred = np.full(n, -1)
    # the settle keys: a node's label plus `closed`, which is inf once the
    # node settled
    key = dist.copy()
    closed = np.zeros(n)
    # every arc that can tie at some distance: those no longer than the
    # spacing at the largest possible distance, by tail
    tails, heads = (residual <= np.spacing(2.0 * n * longest)).nonzero()
    costs = residual[tails, heads].tolist()
    first = np.searchsorted(tails, np.arange(n + 1)).tolist()
    heads = heads.tolist()
    seen = [False] * n  # settled, or found by the current level's search
    heappop, heappush, inf = heapq.heappop, heapq.heappush, np.inf
    while True:
        d = float(key.min(initial=inf))
        if d == inf:
            break
        found = (key == d).nonzero()[0].tolist()  # sorted, so it is a heap
        for x in found:
            seen[x] = True
        level = []
        while found:
            x = heappop(found)
            level.append(x)
            for k in range(first[x], first[x + 1]):
                z = heads[k]
                if not seen[z] and d + costs[k] == d:
                    seen[z] = True
                    heappush(found, z)
        if len(level) == 1:  # common; a lone row needs no gather and no argmin
            (x,) = level
            label = residual[x] + d
            pred[label < dist] = x
        else:
            level = np.array(level)
            labels = residual.take(level, axis=0)
            labels += d
            label = labels.min(axis=0)
            better = label < dist
            pred[better] = level.take(labels.argmin(axis=0))[better]
        np.minimum(dist, label, out=dist)
        closed[level] = inf
        np.add(dist, closed, out=key)
    return dist, pred


def _phases(supply, n_arcs, step) -> FlowSolution:
    """Run the phases of the module docstring from zero flow on `n_arcs`
    arcs and zero potentials at the ``supply.size`` nodes.

    ``step(potential, flow, roots)`` builds one phase's residual graph from
    the current `potential` and `flow` and returns its shortest distances
    and forest from the nodes where `roots` is true: ``dist`` and ``pred``
    (``inf`` and a negative predecessor where unreached, a negative
    predecessor at the roots), and ``tree_arc[v]``, the residual arc from
    ``pred[v]`` into v: ``a`` for a forward arc and ``n_arcs + a`` for the
    arc canceling it.  Each reached node with deficit, in increasing order,
    then takes what its path from its root can carry: the least of the
    root's excess, its deficit and the flow on each canceling arc of the
    path.
    """
    eps = ZERO_SUPPLY_RTOL * max(float(np.sum(np.abs(supply))), 1.0)
    flow = np.zeros(n_arcs)
    potential = np.zeros(supply.size)
    excess = supply.copy()
    max_rounds = _MAX_AUGMENTATIONS_FACTOR * (supply.size + n_arcs + 1)
    rounds = 0
    while np.any(excess < -eps) and np.any(excess > eps):
        dist, pred, tree_arc = step(potential, flow, excess > eps)
        reached = np.isfinite(dist)
        sinks = np.flatnonzero(reached & (excess < -eps))
        if sinks.size == 0:
            raise InfeasibleFlowError(
                f"supply at node {int(np.flatnonzero(excess > eps)[0])} cannot reach any demand "
                "(graph disconnected between sources and sinks)"
            )
        potential -= np.where(reached, dist, np.max(dist[reached]))
        pred, tree_arc = pred.tolist(), tree_arc.tolist()
        for t in sinks.tolist():
            if excess[t] >= -eps:
                continue
            path = []
            s = t
            while pred[s] >= 0:
                path.append(tree_arc[s])
                s = pred[s]
            if excess[s] <= eps:
                continue
            delta = min(excess[s], -excess[t])
            for a in path:
                if a >= n_arcs:
                    delta = min(delta, flow[a - n_arcs])
            if delta <= 0.0:
                continue
            for a in path:
                if a < n_arcs:
                    flow[a] += delta
                else:
                    a -= n_arcs
                    flow[a] = 0.0 if flow[a] == delta else flow[a] - delta
            excess[s] = 0.0 if delta == excess[s] else excess[s] - delta
            excess[t] = 0.0 if delta == -excess[t] else excess[t] + delta
            rounds += 1
            if rounds > max_rounds:
                raise VerificationError(
                    "augmentation limit exceeded; supplies may be numerically inconsistent"
                )
        # free this phase's arrays before the next phase allocates its own
        del dist, pred, tree_arc

    flow.setflags(write=False)
    potential.setflags(write=False)
    return FlowSolution(arc_flows=flow, potentials=potential)
