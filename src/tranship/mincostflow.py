"""Uncapacitated min-cost flow by successive shortest paths in phases.

The solver works on directed arcs with nonnegative costs.  Node potentials
``u`` keep every residual reduced cost ``cost(i, j) - u[i] + u[j]``
nonnegative.  Each phase is one multi-source
:func:`scipy.sparse.csgraph.dijkstra` from every node with excess, over the
residual graph (forward arcs plus the canceling arcs of flow-carrying arcs)
stored as a CSR of reduced costs clamped at 0, cheapest entry per ordered
node pair.  Subtracting the distances from the potentials (the largest finite
distance at nodes not reached) makes every arc of the shortest-path forest
tight; the phase then augments along each forest path from a node with
excess to a node with deficit (the primal-dual method of Ahuja, Magnanti &
Orlin, *Network Flows*, 1993, chs. 9-10).  At termination the potentials are
an optimal dual solution:

* ``u[i] - u[j] <= cost(i, j)`` for every arc (feasibility),
* ``u[i] - u[j] == cost(i, j)`` on every flow-carrying arc (slackness).

With arcs built from Euclidean lengths this makes ``u`` a Kantorovich
potential certifying the transport cost, which is why the augmentation and
the potentials are written out rather than delegated: the certificates are
part of the public contract.

:mod:`scipy.sparse.csgraph` is imported inside :func:`solve_min_cost_flow`,
so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleFlowError, ValidationError, VerificationError

__all__ = ["FlowSolution", "solve_min_cost_flow"]

_MAX_AUGMENTATIONS_FACTOR = 16
# supply or excess at most this times the supplies' total magnitude counts as 0
ZERO_SUPPLY_RTOL = 1e-13


@dataclass(frozen=True)
class FlowSolution:
    arc_flows: np.ndarray  # flow >= 0 per input arc
    potentials: np.ndarray  # optimal dual values per node
    cost: float


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
    if np.any(costs < 0.0):
        raise ValidationError("arc costs must be nonnegative")
    if np.any((arcs < 0) | (arcs >= n_nodes)):
        raise ValidationError("arc endpoints must be node indices")

    m = arcs.shape[0]
    scale = float(np.sum(np.abs(supply)))
    eps = ZERO_SUPPLY_RTOL * max(scale, 1.0)

    # Only the cheapest arc of each ordered pair carries flow.  The residual
    # graph lives on the fixed sorted pattern `keys` of those pairs and their
    # reverses, key = tail * n_nodes + head.
    tail, head = arcs[:, 0], arcs[:, 1]
    pair = tail * n_nodes + head
    by_pair = np.lexsort((costs, pair))
    cheapest = by_pair[np.unique(pair[by_pair], return_index=True)[1]]
    keys = np.union1d(pair[cheapest], head[cheapest] * n_nodes + tail[cheapest])
    rows, cols = np.divmod(keys, n_nodes)
    forward_slot = np.searchsorted(keys, pair[cheapest])
    cancel_slot = np.searchsorted(keys, head * n_nodes + tail)

    flow = np.zeros(m)
    potential = np.zeros(n_nodes)
    excess = supply.copy()
    max_rounds = _MAX_AUGMENTATIONS_FACTOR * (n_nodes + m + 1)
    rounds = 0
    while np.any(excess < -eps) and np.any(excess > eps):
        sources = np.flatnonzero(excess > eps)
        # residual reduced costs clamped at 0, cheapest entry per slot; the
        # canceling arc of flow-carrying arc a is entry m + a and wins ties
        reduced_cost = costs - potential[tail] + potential[head]
        slot_cost = np.full(keys.size, np.inf)
        slot_arc = np.empty(keys.size, dtype=int)
        slot_cost[forward_slot] = np.maximum(reduced_cost[cheapest], 0.0)
        slot_arc[forward_slot] = cheapest
        back = np.flatnonzero(flow > 0.0)
        cancel_cost = np.maximum(-reduced_cost[back], 0.0)
        wins = cancel_cost <= slot_cost[cancel_slot[back]]
        slot_cost[cancel_slot[back[wins]]] = cancel_cost[wins]
        slot_arc[cancel_slot[back[wins]]] = m + back[wins]
        live = np.isfinite(slot_cost)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[live], minlength=n_nodes))])
        graph = csr_array((slot_cost[live], cols[live], indptr), shape=(n_nodes, n_nodes))

        dist_lab, pred, root = dijkstra(
            graph, indices=sources, min_only=True, return_predecessors=True
        )
        reached = np.isfinite(dist_lab)
        sinks = np.flatnonzero(reached & (excess < -eps))
        if sinks.size == 0:
            raise InfeasibleFlowError(
                f"supply at node {int(sources[0])} cannot reach any demand "
                "(graph disconnected between sources and sinks)"
            )
        potential -= np.where(reached, dist_lab, np.max(dist_lab[reached]))

        # augment along the forest paths; every forest arc is now tight
        child = np.flatnonzero(pred >= 0)
        tree_arc = np.full(n_nodes, -1)
        tree_key = pred[child].astype(int) * n_nodes + child
        tree_arc[child] = slot_arc[np.searchsorted(keys, tree_key)]
        pred, root, tree_arc = pred.tolist(), root.tolist(), tree_arc.tolist()
        for t in sinks.tolist():
            s = root[t]
            if excess[s] <= eps or excess[t] >= -eps:
                continue
            path = []
            v = t
            while v != s:
                path.append(tree_arc[v])
                v = pred[v]
            delta = min(excess[s], -excess[t])
            for a in path:
                if a >= m:
                    delta = min(delta, flow[a - m])
            if delta <= 0.0:
                continue
            for a in path:
                if a < m:
                    flow[a] += delta
                else:
                    flow[a - m] = 0.0 if flow[a - m] == delta else flow[a - m] - delta
            excess[s] = 0.0 if delta == excess[s] else excess[s] - delta
            excess[t] = 0.0 if delta == -excess[t] else excess[t] + delta
            rounds += 1
            if rounds > max_rounds:
                raise VerificationError(
                    "augmentation limit exceeded; supplies may be numerically inconsistent"
                )

    used = flow != 0.0
    cost = math.fsum(flow[used] * costs[used])
    flow.setflags(write=False)
    potential.setflags(write=False)
    return FlowSolution(arc_flows=flow, potentials=potential, cost=cost)
